#include "ft/durable_layout.h"

#include <algorithm>
#include <cstring>

#include "common/serialize.h"
#include "storage/durable_file.h"

namespace ms::ft {

std::vector<std::uint8_t> encode_manifest(const EpochManifest& m) {
  BinaryWriter w;
  w.write<std::uint32_t>(kManifestMagic);
  w.write<std::uint32_t>(kManifestVersion);
  w.write<std::uint64_t>(m.epoch);
  w.write<std::uint64_t>(m.prev_epoch);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(m.ops.size()));
  for (const auto& op : m.ops) {
    w.write<std::uint64_t>(op.size);
    w.write<std::uint8_t>(op.is_source ? 1 : 0);
    w.write<std::uint8_t>(op.delta ? 1 : 0);
    w.write<std::uint64_t>(op.boundary);
    w.write<std::uint64_t>(op.next_seq);
  }
  return w.take();
}

Result<EpochManifest> decode_manifest(const std::vector<std::uint8_t>& payload,
                                      const std::string& path) {
  // Validate sizes before handing the buffer to BinaryReader (which
  // fail-stops on truncation — wrong response to corrupt bytes).
  constexpr std::size_t kHeader = 4 + 4 + 8 + 8 + 4;
  const auto corrupt = [&path](const char* what) {
    return Status::data_loss(std::string("manifest corrupt (") + what +
                             "): " + path);
  };
  if (payload.size() < kHeader) return corrupt("truncated header");
  std::uint32_t magic = 0, version = 0, num_ops = 0;
  std::memcpy(&magic, payload.data(), 4);
  std::memcpy(&version, payload.data() + 4, 4);
  std::memcpy(&num_ops, payload.data() + 24, 4);
  if (magic != kManifestMagic) return corrupt("magic");
  if (version != kManifestVersion) return corrupt("version");
  if (num_ops > 1u << 20) return corrupt("op count");
  constexpr std::size_t kPerOp = 8 + 1 + 1 + 8 + 8;
  if (payload.size() != kHeader + num_ops * kPerOp) return corrupt("length");

  BinaryReader r(payload);
  EpochManifest m;
  r.read<std::uint32_t>();  // magic
  r.read<std::uint32_t>();  // version
  m.epoch = r.read<std::uint64_t>();
  m.prev_epoch = r.read<std::uint64_t>();
  r.read<std::uint32_t>();  // num_ops
  m.ops.resize(num_ops);
  for (auto& op : m.ops) {
    op.size = r.read<std::uint64_t>();
    op.is_source = r.read<std::uint8_t>() != 0;
    op.delta = r.read<std::uint8_t>() != 0;
    op.boundary = r.read<std::uint64_t>();
    op.next_seq = r.read<std::uint64_t>();
  }
  return m;
}

void log_file_header(std::uint8_t* hdr) {
  std::memcpy(hdr, &kLogFileMagic, 4);
  std::memcpy(hdr + 4, &kLogFileVersion, 4);
}

Status is_checksummed_log(storage::ReadFile* file, bool* checksummed) {
  std::uint8_t hdr[kLogFileHeaderSize];
  std::uint8_t want[kLogFileHeaderSize];
  log_file_header(want);
  std::size_t got = 0;
  const Status st = file->read_at(0, hdr, sizeof(hdr), &got);
  if (!st.is_ok()) return st;
  *checksummed =
      got == sizeof(hdr) && std::memcmp(hdr, want, sizeof(hdr)) == 0;
  return Status::ok();
}

LegacyLogScan scan_legacy_log_bytes(const std::uint8_t* data,
                                    std::size_t size) {
  LegacyLogScan scan;
  std::size_t pos = 0;
  while (pos + 4 <= size) {
    std::uint32_t len = 0;
    std::memcpy(&len, data + pos, 4);
    // Legacy frames carry no CRC; an implausibly small length is the only
    // corruption a scan can prove.
    if (len < kLogFrameFixed || pos + 4 + len > size) {
      scan.torn = true;
      break;
    }
    scan.frames.push_back({data + pos + 4, len});
    pos += 4 + len;
    scan.valid_bytes = pos;
  }
  // Loose trailing bytes too short to hold a frame header are a torn tail
  // as well.
  if (!scan.torn && pos != size) scan.torn = true;
  return scan;
}

LogFrameWalker::LogFrameWalker(storage::ReadFile* file, std::uint64_t from,
                               std::uint64_t end)
    : file_(file), end_(end), pos_(from) {}

bool LogFrameWalker::ensure(std::uint64_t off, std::size_t n) {
  if (off >= window_off_ && off + n <= window_off_ + window_len_) return true;
  if (window_.size() < std::max(n, storage::kIoWindow)) {
    window_.resize(std::max(n, storage::kIoWindow));
  }
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(window_.size(), end_ - off));
  window_off_ = off;
  window_len_ = 0;
  const Status st = file_->read_at(off, window_.data(), want, &window_len_);
  if (!st.is_ok()) {
    error_ = st;
    return false;
  }
  if (window_len_ < n) {
    // The walk's end lies past what the file holds: it shrank under us.
    error_ = Status::unavailable("source log shorter than expected: " +
                                 file_->path());
    return false;
  }
  return true;
}

LogFrameWalker::Step LogFrameWalker::next() {
  if (started_) pos_ = frame_end();
  started_ = true;
  if (pos_ == end_) return Step::kEnd;
  if (pos_ > end_ || end_ - pos_ < kLogFrameHeaderSize + 8) return Step::kTorn;
  if (!ensure(pos_, kLogFrameHeaderSize + 8)) return Step::kError;
  const std::uint8_t* h = window_.data() + (pos_ - window_off_);
  std::memcpy(&len_, h, 4);
  std::memcpy(&crc_, h + 4, 4);
  std::memcpy(&index_, h + kLogFrameHeaderSize, 8);
  // A frame too short to hold a record cannot be one, CRC or not.
  if (len_ < kLogFrameFixed ||
      end_ - pos_ - kLogFrameHeaderSize < static_cast<std::uint64_t>(len_)) {
    len_ = 0;
    return Step::kTorn;
  }
  return Step::kFrame;
}

const std::uint8_t* LogFrameWalker::payload() {
  const std::uint64_t off = pos_ + kLogFrameHeaderSize;
  if (!ensure(off, len_)) return nullptr;
  return window_.data() + (off - window_off_);
}

bool LogFrameWalker::crc_ok() {
  const std::uint8_t* p = payload();
  return p != nullptr && storage::crc32c(p, len_) == crc_;
}

Status check_log_frames(storage::ReadFile* file, std::uint64_t end,
                        LogCheck* out) {
  *out = LogCheck{};
  out->valid_bytes = kLogFileHeaderSize;
  LogFrameWalker walk(file, kLogFileHeaderSize, end);
  for (;;) {
    const LogFrameWalker::Step step = walk.next();
    if (step == LogFrameWalker::Step::kEnd) return Status::ok();
    if (step == LogFrameWalker::Step::kError) return walk.error();
    if (step == LogFrameWalker::Step::kTorn || !walk.crc_ok()) {
      if (!walk.error().is_ok()) return walk.error();
      out->torn = true;
      return Status::ok();
    }
    if (out->frames == 0) out->first_index = walk.index();
    out->last_index = walk.index();
    ++out->frames;
    out->valid_bytes = walk.frame_end();
  }
}

}  // namespace ms::ft
