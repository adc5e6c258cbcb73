// Framed durable artifacts: every blob the runtime persists — checkpoints,
// deltas, manifests, source-log records, baseline unit files — is wrapped in
// a fixed 24-byte header carrying magic, version, artifact kind, payload
// length and a CRC32C over the payload (plus a CRC over the header itself),
// so recovery can tell "these are the bytes that were written" from "the
// disk lied". CRC32C (Castagnoli) uses the SSE4.2 crc32 instruction when the
// CPU has it and a table-based fallback otherwise.
//
// Durability is layered on top with an explicit fsync discipline: the commit
// point of every atomic write is the rename, and SyncMode decides how much
// is forced to media before it — kNone trusts the page cache (tests,
// benches), kCommit fdatasyncs the file and fsyncs the parent directory
// around the rename (a power loss cannot produce a committed-but-empty
// artifact), kAlways additionally fdatasyncs every log append.
//
// A FaultInjector hook threads disk faults (torn write, bit flip, short
// read, I/O error, crash around the rename) through every operation so
// chaos drills exercise exactly the paths a real commodity disk fails on.
// The hook interface lives here rather than in src/failure to keep the
// dependency arrow pointing one way: ms_failure links ms_ft links this.
//
// Compat: files written before this framing existed (pre-checksum v2
// artifacts) carry no header; readers detect the missing magic and hand the
// whole file back as the payload with `legacy` set, so an upgrade reads an
// old checkpoint directory byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace ms::storage {

// --- CRC32C ----------------------------------------------------------------

/// CRC32C (Castagnoli) of `n` bytes, chainable via `seed` (pass the previous
/// return value to continue a running CRC).
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

/// True when the SSE4.2 hardware path is in use (introspection / benches).
bool crc32c_hw_available();

// --- artifact framing ------------------------------------------------------

enum class ArtifactKind : std::uint8_t {
  kCheckpoint = 1,  // epoch_<E>/op_<i>.ckpt
  kDelta = 2,       // epoch_<E>/op_<i>.delta
  kManifest = 3,    // epoch_<E>/MANIFEST
  kSourceLog = 4,   // source_<i>.log (per-record frames, see AppendFile)
  kBaseline = 5,    // baseline/op_<i>.ckpt
};

const char* artifact_kind_name(ArtifactKind kind);

/// "MSDF" little-endian; first 4 bytes of every framed artifact.
constexpr std::uint32_t kArtifactMagic = 0x4644534D;
constexpr std::uint16_t kArtifactVersion = 1;
/// magic(4) + version(2) + kind(1) + reserved(1) + payload_len(8) +
/// payload_crc(4) + header_crc(4).
constexpr std::size_t kArtifactHeaderSize = 24;

/// The framed image of `payload` built in memory: the exact bytes the
/// writers below put on disk (they write the header and the caller's bytes
/// in place and never build this copy).
std::vector<std::uint8_t> frame_artifact(ArtifactKind kind,
                                         const void* payload, std::size_t n);

/// Buffer size for reading or copying a large file in pieces (source-log
/// walks and raw log copies), so neither holds the whole file in memory.
constexpr std::size_t kIoWindow = std::size_t{1} << 20;

// --- fault injection -------------------------------------------------------

enum class WriteFault : std::uint8_t {
  kNone,
  /// Write only the first `offset` bytes but report success — the silent
  /// torn write a lying disk produces.
  kTorn,
  /// Fail the write with a transient I/O error (kUnavailable).
  kError,
  /// Process dies after the temp file is written, before the rename: the
  /// commit point was never reached.
  kCrashBeforeRename,
  /// Process dies right after the rename, before the directory sync: the
  /// commit landed but the writer never observed it.
  kCrashAfterRename,
};

enum class ReadFault : std::uint8_t {
  kNone,
  kShortRead,  // drop everything from `offset` on
  kBitFlip,    // flip bit (offset % 8) of byte (offset / 8)
  kError,      // transient I/O error (kUnavailable)
};

struct WriteFaultSpec {
  WriteFault fault = WriteFault::kNone;
  std::uint64_t offset = 0;
};

struct ReadFaultSpec {
  ReadFault fault = ReadFault::kNone;
  std::uint64_t offset = 0;
};

/// Per-operation fault decisions, consulted by every durable read/write.
/// Implementations (src/failure/disk_fault.h) match on path / artifact kind
/// and arm one-shot or sticky faults; the default answers are "no fault".
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual WriteFaultSpec write_fault(const std::string& path,
                                     ArtifactKind kind) = 0;
  virtual ReadFaultSpec read_fault(const std::string& path,
                                   ArtifactKind kind) = 0;
  /// Called at the instant a kCrashBefore/AfterRename fault executes, so the
  /// harness can flip the runtime's crash flag at the faithful point.
  virtual void on_crash_point(const std::string& path) { (void)path; }
};

// --- durable I/O -----------------------------------------------------------

enum class SyncMode : std::uint8_t {
  kNone,    // page cache only (fast; tests and benches)
  kCommit,  // fdatasync files + fsync parent dir around rename commit points
  kAlways,  // kCommit plus fdatasync on every log append
};

const char* sync_mode_name(SyncMode mode);

struct DurableOptions {
  SyncMode sync = SyncMode::kCommit;
  FaultInjector* faults = nullptr;
};

/// fsync the directory itself so a preceding rename/create in it is durable.
bool fsync_dir(const std::string& dir);

/// Frame `data` and write it straight to `path` (no rename). For blobs whose
/// visibility is already gated by a later commit marker (epoch op files: the
/// directory "does not exist" until its MANIFEST lands). fdatasyncs the file
/// under kCommit/kAlways. The header and the caller's bytes go out as two
/// writes; no framed copy of `data` is built.
Status write_artifact(const std::string& path, ArtifactKind kind,
                      const void* data, std::size_t n,
                      const DurableOptions& opts);

/// Frame `data`, write to `path + ".tmp"`, then rename into place — the
/// commit point. Under kCommit/kAlways the temp file is fdatasynced before
/// and the parent directory fsynced after the rename.
Status write_artifact_atomic(const std::string& path, ArtifactKind kind,
                             const void* data, std::size_t n,
                             const DurableOptions& opts);

/// write_artifact_atomic without the MSDF frame: `data` is the exact file
/// image. For files with internal framing (a legacy source log upgraded to
/// the checksummed format) that still want the tmp+rename+fsync commit
/// discipline and fault injection.
Status write_raw_atomic(const std::string& path, ArtifactKind kind,
                        const void* data, std::size_t n,
                        const DurableOptions& opts);

/// Read the raw bytes of `path` with read-fault injection applied (for
/// artifacts with internal framing, i.e. source logs). kNotFound when the
/// file does not exist, kUnavailable on a read error.
Status read_raw(const std::string& path, ArtifactKind kind,
                const DurableOptions& opts, std::vector<std::uint8_t>* bytes);

/// The verified payload of a framed artifact. The header is read on its own
/// and the payload straight into `*payload`: one buffer, no second copy. A
/// file that does not start with the artifact magic is a pre-checksum legacy
/// artifact: the whole file is the payload and `*legacy` (if non-null) is
/// set. kDataLoss when the frame is present but the header or payload fails
/// verification (truncated header, wrong kind, bad length, CRC mismatch) —
/// the definitive "these bytes are not what was written".
Status read_artifact(const std::string& path, ArtifactKind kind,
                     const DurableOptions& opts,
                     std::vector<std::uint8_t>* payload,
                     bool* legacy = nullptr);

/// Positional reader with read-fault injection, for callers that read a file
/// in pieces rather than whole (artifact payloads straight into the caller's
/// buffer, bounded-window source-log walks). The fault is drawn once at
/// open(): kError fails the open, kShortRead shortens the file, kBitFlip
/// flips its bit in whichever read covers it.
class ReadFile {
 public:
  ReadFile() = default;
  ~ReadFile() { close(); }
  ReadFile(const ReadFile&) = delete;
  ReadFile& operator=(const ReadFile&) = delete;

  /// kNotFound when the file does not exist, kUnavailable on an (injected or
  /// real) open error.
  Status open(const std::string& path, ArtifactKind kind,
              const DurableOptions& opts);
  void close();
  const std::string& path() const { return path_; }
  /// File length at open (after any kShortRead).
  std::uint64_t size() const { return size_; }
  /// Read up to `n` bytes at `off` into `buf`. `*got` falls short of `n`
  /// only at the end of the file (or a concurrent truncation). Reads past
  /// size() see what a writer appended since the open, unless a kShortRead
  /// dropped everything from its offset on.
  Status read_at(std::uint64_t off, void* buf, std::size_t n,
                 std::size_t* got);

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
  /// Nothing at or past this offset is ever read (kShortRead).
  std::uint64_t limit_ = ~std::uint64_t{0};
  ReadFaultSpec fault_;
};

/// The temp-file half of a tmp+rename commit, built in pieces — so a
/// source-log rewrite can copy the bulk of the file outside the appender's
/// lock and only the newest frames under it. The write fault is drawn once at
/// open(): kError fails the open, kTorn silently caps the bytes that land,
/// and the crash faults fire inside commit(). A file destroyed without a
/// rename removes its temp file, unless a crash fault fired (a dead process
/// cleans nothing up).
class AtomicFile {
 public:
  AtomicFile() = default;
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Create (truncate) `path + ".tmp"`.
  Status open(const std::string& path, ArtifactKind kind,
              const DurableOptions& opts);
  Status append(const void* data, std::size_t n);
  /// Append bytes [off, off + n) of `src`, copied through a kIoWindow
  /// buffer; its read faults apply. A source shorter than off + n is an
  /// error, not a short copy.
  Status append_from(ReadFile* src, std::uint64_t off, std::uint64_t n);
  /// Bytes appended so far, as the writer sees them (a torn write lands
  /// fewer and reports success — the lying disk).
  std::uint64_t size() const { return size_; }
  /// fdatasync the temp file (no-op under kNone).
  Status sync();
  /// Rename the temp file over the target — the commit point. The parent
  /// directory is not synced here: call sync_dir(), possibly after dropping
  /// a lock.
  Status commit();
  /// True once the rename landed, even if a crash fault fired right after
  /// it (the file at the target path is the new one).
  bool renamed() const { return renamed_; }
  /// fsync the parent directory so the rename is durable (kCommit/kAlways).
  Status sync_dir();

 private:
  int fd_ = -1;
  std::string path_;
  std::string tmp_;
  DurableOptions opts_;
  WriteFaultSpec fault_;
  std::uint64_t size_ = 0;
  bool renamed_ = false;
  bool crashed_ = false;
};

/// fd-based append handle for source logs: appends are plain write()s (no
/// stream buffering — the bytes are in the kernel when append() returns),
/// optionally fdatasynced per append under SyncMode::kAlways. Write faults
/// apply per append.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  bool open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  void close();
  /// Append `n` bytes; false on failure (injected or real). A failed append
  /// may have left part of its bytes in the file — see truncate().
  /// Under SyncMode::kAlways in `opts` the append is fdatasynced before
  /// returning.
  bool append(const void* data, std::size_t n, const DurableOptions& opts);
  /// True once a crash fault fired on an append (until the next open()): the
  /// failed append wrote all its bytes and then the process "died", and a
  /// dead process cuts nothing back.
  bool crashed() const { return crashed_; }
  /// Cut the file back to `size` bytes (the end of the last whole record the
  /// caller tracked), removing what a failed append left behind. False when
  /// the cut fails.
  bool truncate(std::uint64_t size);

 private:
  int fd_ = -1;
  std::string path_;
  bool crashed_ = false;
};

}  // namespace ms::storage
