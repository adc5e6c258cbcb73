// On-disk layout of the rt runtime's durable state, factored out of
// RtRuntime so the standalone verifier (ft/verify.h, tools/msverify) decodes
// exactly the bytes the runtime writes.
//
// Every file here travels inside a storage::durable_file frame (magic +
// CRC32C); this header describes the *payloads*:
//
//   MANIFEST payload     "MSMF" v2 — epoch, chain predecessor, per-op
//                        size/kind/replay-cursor records. Unchanged from the
//                        pre-checksum era so one decoder handles both a
//                        framed payload and a legacy bare file.
//   source_<i>.log       "MSLG" v1 file header, then per-record frames of
//                        [u32 len][u32 crc32c(payload)][payload]. Legacy
//                        logs have no file header and no per-frame CRC
//                        ([u32 len][payload]); the runtime detects one by
//                        its missing header and upgrades it once at scan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/durable_file.h"

namespace ms::ft {

// --- MANIFEST --------------------------------------------------------------

struct EpochManifest {
  std::uint64_t epoch = 0;
  /// The committed epoch this one chains on (0 = chain base: every op
  /// record in this epoch is full). Recovery follows these pointers.
  std::uint64_t prev_epoch = 0;
  struct Op {
    std::uint64_t size = 0;
    bool is_source = false;
    /// True when op_<i>.delta (layer on the chain), false for op_<i>.ckpt.
    bool delta = false;
    std::uint64_t boundary = 0;
    std::uint64_t next_seq = 0;
  };
  std::vector<Op> ops;
};

constexpr std::uint32_t kManifestMagic = 0x4D534D46;  // "MSMF"
// v2 added the chain predecessor pointer and per-op full/delta kinds.
// Checkpoint directories do not outlive the binary that wrote them, so only
// the current version is accepted.
constexpr std::uint32_t kManifestVersion = 2;

std::vector<std::uint8_t> encode_manifest(const EpochManifest& m);

/// Decode a manifest payload. All malformations (bad magic/version, size
/// mismatch, absurd op count) classify as kDataLoss: the file existed — an
/// epoch claimed to be committed — but its bytes are not a manifest.
Result<EpochManifest> decode_manifest(const std::vector<std::uint8_t>& payload,
                                      const std::string& path);

// --- source logs -----------------------------------------------------------

constexpr std::uint32_t kLogFileMagic = 0x474C534D;  // "MSLG"
constexpr std::uint32_t kLogFileVersion = 1;
constexpr std::size_t kLogFileHeaderSize = 8;
/// [u32 len][u32 crc32c(payload)] in front of every checksummed frame.
constexpr std::size_t kLogFrameHeaderSize = 8;
// Fixed-width portion of a source-log record payload (everything but the
// tuple payload bytes).
constexpr std::size_t kLogFrameFixed =
    8 /*index*/ + 4 /*out_port*/ + 8 /*id*/ + 4 /*source_hau*/ +
    8 /*source_seq*/ + 8 /*edge_seq*/ + 8 /*event_time*/ + 8 /*wire_size*/ +
    1 /*has_payload*/;

/// Fill `hdr` with the [MSLG][version] header every checksummed source log
/// starts with.
void log_file_header(std::uint8_t* hdr);

/// Whether the log open in `file` starts with the MSLG header. False for a
/// pre-checksum log (and for an empty one); an error only when the read
/// fails.
Status is_checksummed_log(storage::ReadFile* file, bool* checksummed);

/// One plausible record payload inside a scanned legacy log buffer — a
/// view, valid while the buffer lives.
struct LogFrameView {
  const std::uint8_t* data = nullptr;
  std::uint32_t len = 0;
};

struct LegacyLogScan {
  /// Scan ended on an incomplete frame or an implausible length (torn
  /// tail): `valid_bytes` is where the damage starts.
  bool torn = false;
  std::uint64_t valid_bytes = 0;
  std::vector<LogFrameView> frames;
};

/// Walk a pre-checksum source log's bytes ([u32 len][payload] frames, no
/// file header, no CRC) with length-sanity checks — the only thing such a
/// log can be checked for. Used to upgrade and to scrub legacy logs; every
/// checksummed log goes through check_log_frames(). Never throws or aborts
/// on corrupt input — a torn tail stops the scan.
LegacyLogScan scan_legacy_log_bytes(const std::uint8_t* data,
                                    std::size_t size);

/// Walk over a checksummed source log's frames through a kIoWindow read
/// window, so no scan, cut search or replay read holds the
/// whole log in memory. A step reads only the frame header and the record
/// index (the payload's first 8 bytes); checking the CRC and pulling in the
/// payload are the caller's choice, and nothing is decoded.
class LogFrameWalker {
 public:
  /// Walk `file` from byte `from` (a frame start, normally just past the
  /// file header) up to byte `end`.
  LogFrameWalker(storage::ReadFile* file, std::uint64_t from,
                 std::uint64_t end);

  enum class Step {
    kFrame,  // offset()/len()/index() describe the next whole frame
    kEnd,    // the walk stopped exactly at `end`
    kTorn,   // the bytes from offset() to `end` hold no whole frame
    kError,  // a read failed (error())
  };
  Step next();

  std::uint64_t offset() const { return pos_; }
  /// Offset just past the current frame.
  std::uint64_t frame_end() const { return pos_ + kLogFrameHeaderSize + len_; }
  std::uint32_t len() const { return len_; }
  std::uint64_t index() const { return index_; }
  /// The current frame's payload, valid until the next step; null (with
  /// error() set) when it could not be read.
  const std::uint8_t* payload();
  /// The payload's CRC32C matches the frame header (false on a read error).
  bool crc_ok();
  const Status& error() const { return error_; }

 private:
  bool ensure(std::uint64_t off, std::size_t n);

  storage::ReadFile* file_;
  std::uint64_t end_;
  std::uint64_t pos_;
  bool started_ = false;
  std::uint32_t len_ = 0;
  std::uint32_t crc_ = 0;
  std::uint64_t index_ = 0;
  std::vector<std::uint8_t> window_;
  std::uint64_t window_off_ = 0;
  std::size_t window_len_ = 0;
  Status error_ = Status::ok();
};

/// What a verifying walk over a checksummed source log found.
struct LogCheck {
  /// Offset just past the last whole, CRC-valid frame (just past the file
  /// header when there is none).
  std::uint64_t valid_bytes = 0;
  std::uint64_t frames = 0;
  /// Record indices of the first and last whole frame (when frames > 0).
  std::uint64_t first_index = 0;
  std::uint64_t last_index = 0;
  /// The bytes from valid_bytes to the end hold no verifiable frame.
  bool torn = false;
};

/// Verify every frame of the checksummed log open in `file`, from just past
/// its file header to `end` — CRC and index only, nothing decoded. The one
/// frame rule set behind both the runtime's scan and msverify's scrub. Fails
/// only on a read error; damage is reported in `out->torn`.
Status check_log_frames(storage::ReadFile* file, std::uint64_t end,
                        LogCheck* out);

}  // namespace ms::ft
