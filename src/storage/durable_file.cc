#include "storage/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace ms::storage {

namespace fs = std::filesystem;

// --- CRC32C ----------------------------------------------------------------

namespace {

// Table-based fallback (Castagnoli polynomial 0x1EDC6F41, reflected
// 0x82F63B78) — one table, byte at a time; correctness over throughput, the
// hardware path carries the hot loops.
struct Crc32cTable {
  std::array<std::uint32_t, 256> t{};
  Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
      t[i] = c;
    }
  }
};

std::uint32_t crc32c_sw(const void* data, std::size_t n, std::uint32_t crc) {
  static const Crc32cTable table;
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table.t[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__) || defined(__i386__)
#define MS_CRC32C_HW 1

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(const void* data,
                                                          std::size_t n,
                                                          std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
#if defined(__x86_64__)
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    crc = static_cast<std::uint32_t>(
        __builtin_ia32_crc32di(crc, v));
    p += 8;
    n -= 8;
  }
#endif
  while (n >= 4) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    crc = __builtin_ia32_crc32si(crc, v);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p);
    ++p;
    --n;
  }
  return ~crc;
}

bool detect_sse42() { return __builtin_cpu_supports("sse4.2"); }
#endif  // x86

}  // namespace

bool crc32c_hw_available() {
#ifdef MS_CRC32C_HW
  static const bool available = detect_sse42();
  return available;
#else
  return false;
#endif
}

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
#ifdef MS_CRC32C_HW
  if (crc32c_hw_available()) return crc32c_hw(data, n, seed);
#endif
  return crc32c_sw(data, n, seed);
}

// --- artifact framing ------------------------------------------------------

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kCheckpoint: return "checkpoint";
    case ArtifactKind::kDelta: return "delta";
    case ArtifactKind::kManifest: return "manifest";
    case ArtifactKind::kSourceLog: return "source-log";
    case ArtifactKind::kBaseline: return "baseline";
  }
  return "unknown";
}

const char* sync_mode_name(SyncMode mode) {
  switch (mode) {
    case SyncMode::kNone: return "none";
    case SyncMode::kCommit: return "commit";
    case SyncMode::kAlways: return "always";
  }
  return "unknown";
}

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint16_t get_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void fill_header(std::uint8_t* h, ArtifactKind kind, const void* payload,
                 std::size_t n) {
  put_u32(h, kArtifactMagic);
  put_u16(h + 4, kArtifactVersion);
  h[6] = static_cast<std::uint8_t>(kind);
  h[7] = 0;  // reserved
  put_u64(h + 8, static_cast<std::uint64_t>(n));
  put_u32(h + 16, crc32c(payload, n));
  put_u32(h + 20, crc32c(h, 20));
}

Status data_loss(const std::string& path, const char* what) {
  return {StatusCode::kDataLoss,
          std::string("artifact corrupt (") + what + "): " + path};
}

/// Verify a framed artifact's header `h` (the file starts with the magic and
/// holds at least kArtifactHeaderSize bytes) against the file length.
Status check_header(const std::string& path, const std::uint8_t* h,
                    std::uint64_t file_size, ArtifactKind expect) {
  if (crc32c(h, 20) != get_u32(h + 20)) return data_loss(path, "header crc");
  if (get_u16(h + 4) != kArtifactVersion) {
    return data_loss(path, "frame version");
  }
  if (h[6] != static_cast<std::uint8_t>(expect)) {
    return data_loss(path, "artifact kind");
  }
  if (get_u64(h + 8) != file_size - kArtifactHeaderSize) {
    return data_loss(path, "payload length");
  }
  return Status::ok();
}

}  // namespace

std::vector<std::uint8_t> frame_artifact(ArtifactKind kind,
                                         const void* payload, std::size_t n) {
  std::vector<std::uint8_t> out(kArtifactHeaderSize + n);
  fill_header(out.data(), kind, payload, n);
  if (n > 0) std::memcpy(out.data() + kArtifactHeaderSize, payload, n);
  return out;
}

// --- durable I/O -----------------------------------------------------------

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

namespace {

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Write `head` then `body` — at most `limit` bytes of the two together —
/// to `path`, O_TRUNC. `do_sync` fdatasyncs before close.
bool write_file(const std::string& path, const std::uint8_t* head,
                std::size_t head_n, const void* body, std::size_t body_n,
                std::size_t limit, bool do_sync) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::size_t h = std::min(limit, head_n);
  const std::size_t b = std::min(limit - h, body_n);
  bool ok = write_all(fd, head, h) &&
            write_all(fd, static_cast<const std::uint8_t*>(body), b);
  if (ok && do_sync) ok = ::fdatasync(fd) == 0;
  ::close(fd);
  return ok;
}

std::string parent_dir(const std::string& path) {
  const auto p = fs::path(path).parent_path();
  return p.empty() ? std::string(".") : p.string();
}

}  // namespace

Status write_artifact(const std::string& path, ArtifactKind kind,
                      const void* data, std::size_t n,
                      const DurableOptions& opts) {
  std::uint8_t header[kArtifactHeaderSize];
  fill_header(header, kind, data, n);
  const std::size_t total = kArtifactHeaderSize + n;
  const bool do_sync = opts.sync != SyncMode::kNone;
  WriteFaultSpec fault;
  if (opts.faults) fault = opts.faults->write_fault(path, kind);
  switch (fault.fault) {
    case WriteFault::kError:
      return Status::unavailable("injected write error: " + path);
    case WriteFault::kTorn:
      // The disk lied: part of the frame landed, success was reported.
      write_file(path, header, kArtifactHeaderSize, data, n,
                 static_cast<std::size_t>(fault.offset), do_sync);
      return Status::ok();
    case WriteFault::kCrashBeforeRename:
    case WriteFault::kCrashAfterRename:
      // No rename in the direct path; a crash here means the bytes may or
      // may not have landed. Write fully, then die.
      write_file(path, header, kArtifactHeaderSize, data, n, total, do_sync);
      if (opts.faults) opts.faults->on_crash_point(path);
      return Status::unavailable("injected crash during write: " + path);
    case WriteFault::kNone:
      break;
  }
  if (!write_file(path, header, kArtifactHeaderSize, data, n, total,
                  do_sync)) {
    return Status::unavailable("write failed: " + path);
  }
  return Status::ok();
}

namespace {

/// The one tmp-write + rename commit path behind both atomic writers.
Status commit_atomic(const std::string& path, ArtifactKind kind,
                     const std::uint8_t* head, std::size_t head_n,
                     const void* body, std::size_t body_n,
                     const DurableOptions& opts) {
  AtomicFile file;
  Status st = file.open(path, kind, opts);
  if (st.is_ok()) st = file.append(head, head_n);
  if (st.is_ok()) st = file.append(body, body_n);
  if (st.is_ok()) st = file.sync();
  if (st.is_ok()) st = file.commit();
  if (st.is_ok()) st = file.sync_dir();
  return st;
}

}  // namespace

Status write_artifact_atomic(const std::string& path, ArtifactKind kind,
                             const void* data, std::size_t n,
                             const DurableOptions& opts) {
  std::uint8_t header[kArtifactHeaderSize];
  fill_header(header, kind, data, n);
  return commit_atomic(path, kind, header, kArtifactHeaderSize, data, n, opts);
}

Status write_raw_atomic(const std::string& path, ArtifactKind kind,
                        const void* data, std::size_t n,
                        const DurableOptions& opts) {
  return commit_atomic(path, kind, nullptr, 0, data, n, opts);
}

Status read_raw(const std::string& path, ArtifactKind kind,
                const DurableOptions& opts, std::vector<std::uint8_t>* bytes) {
  ReadFile file;
  const Status st = file.open(path, kind, opts);
  if (!st.is_ok()) return st;
  bytes->resize(static_cast<std::size_t>(file.size()));
  std::size_t got = 0;
  const Status rst = file.read_at(0, bytes->data(), bytes->size(), &got);
  if (!rst.is_ok()) return rst;
  bytes->resize(got);  // a concurrent truncation keeps what was read
  return Status::ok();
}

Status read_artifact(const std::string& path, ArtifactKind kind,
                     const DurableOptions& opts,
                     std::vector<std::uint8_t>* payload, bool* legacy) {
  if (legacy) *legacy = false;
  ReadFile file;
  Status st = file.open(path, kind, opts);
  if (!st.is_ok()) return st;
  std::uint8_t header[kArtifactHeaderSize];
  std::size_t head_n = 0;
  st = file.read_at(0, header, sizeof(header), &head_n);
  if (!st.is_ok()) return st;
  if (head_n < 4 || get_u32(header) != kArtifactMagic) {
    // Pre-checksum artifact: the whole file is the payload.
    if (legacy) *legacy = true;
    payload->resize(static_cast<std::size_t>(file.size()));
    if (head_n > 0) std::memcpy(payload->data(), header, head_n);
    std::size_t got = 0;
    st = file.read_at(head_n, payload->data() + head_n,
                      payload->size() - head_n, &got);
    if (!st.is_ok()) return st;
    payload->resize(head_n + got);
    return Status::ok();
  }
  if (head_n < kArtifactHeaderSize) {
    return data_loss(path, "truncated header");
  }
  st = check_header(path, header, file.size(), kind);
  if (!st.is_ok()) return st;
  payload->resize(static_cast<std::size_t>(file.size()) - kArtifactHeaderSize);
  std::size_t got = 0;
  st = file.read_at(kArtifactHeaderSize, payload->data(), payload->size(),
                    &got);
  if (!st.is_ok()) return st;
  if (got != payload->size()) return data_loss(path, "payload length");
  if (crc32c(payload->data(), payload->size()) != get_u32(header + 16)) {
    return data_loss(path, "payload crc");
  }
  return Status::ok();
}

// --- ReadFile --------------------------------------------------------------

Status ReadFile::open(const std::string& path, ArtifactKind kind,
                      const DurableOptions& opts) {
  close();
  path_ = path;
  fault_ = ReadFaultSpec{};
  if (opts.faults) fault_ = opts.faults->read_fault(path, kind);
  if (fault_.fault == ReadFault::kError) {
    return Status::unavailable("injected read error: " + path);
  }
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    if (errno == ENOENT) return Status::not_found("no such file: " + path);
    return Status::unavailable("open failed: " + path);
  }
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    close();
    return Status::unavailable("seek failed: " + path);
  }
  size_ = static_cast<std::uint64_t>(end);
  limit_ = ~std::uint64_t{0};
  if (fault_.fault == ReadFault::kShortRead) {
    limit_ = fault_.offset;  // everything from the offset on is dropped
    size_ = std::min(size_, limit_);
  }
  return Status::ok();
}

void ReadFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ReadFile::read_at(std::uint64_t off, void* buf, std::size_t n,
                         std::size_t* got) {
  *got = 0;
  if (fd_ < 0) return Status::unavailable("read on a closed file: " + path_);
  if (off >= limit_) return Status::ok();
  n = static_cast<std::size_t>(std::min<std::uint64_t>(n, limit_ - off));
  auto* p = static_cast<std::uint8_t*>(buf);
  while (*got < n) {
    const ssize_t r = ::pread(fd_, p + *got, n - *got,
                              static_cast<off_t>(off + *got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::unavailable("read failed: " + path_);
    }
    if (r == 0) break;  // concurrent truncation; keep what we got
    *got += static_cast<std::size_t>(r);
  }
  if (fault_.fault == ReadFault::kBitFlip) {
    const std::uint64_t byte = fault_.offset / 8;
    if (byte >= off && byte < off + *got) {
      p[byte - off] ^= static_cast<std::uint8_t>(1u << (fault_.offset % 8));
    }
  }
  return Status::ok();
}

// --- AtomicFile ------------------------------------------------------------

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) ::close(fd_);
  if (!tmp_.empty() && !renamed_ && !crashed_) ::unlink(tmp_.c_str());
}

Status AtomicFile::open(const std::string& path, ArtifactKind kind,
                        const DurableOptions& opts) {
  path_ = path;
  opts_ = opts;
  if (opts.faults) fault_ = opts.faults->write_fault(path, kind);
  if (fault_.fault == WriteFault::kError) {
    return Status::unavailable("injected write error: " + path);
  }
  tmp_ = path + ".tmp";
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return Status::unavailable("write failed: " + tmp_);
  return Status::ok();
}

Status AtomicFile::append(const void* data, std::size_t n) {
  if (fd_ < 0) return Status::unavailable("write failed: " + tmp_);
  std::size_t land = n;
  if (fault_.fault == WriteFault::kTorn) {
    // Only the first fault.offset bytes of the whole image ever land.
    land = static_cast<std::size_t>(std::min<std::uint64_t>(
        n, fault_.offset > size_ ? fault_.offset - size_ : 0));
  }
  if (!write_all(fd_, static_cast<const std::uint8_t*>(data), land)) {
    return Status::unavailable("write failed: " + tmp_);
  }
  size_ += n;
  return Status::ok();
}

Status AtomicFile::append_from(ReadFile* src, std::uint64_t off,
                               std::uint64_t n) {
  if (fd_ < 0) return Status::unavailable("write failed: " + tmp_);
  std::uint64_t land = n;
  if (fault_.fault == WriteFault::kTorn) {
    land = std::min<std::uint64_t>(
        n, fault_.offset > size_ ? fault_.offset - size_ : 0);
  }
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(std::min<std::uint64_t>(land, kIoWindow)));
  while (land > 0) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(land, buf.size()));
    std::size_t got = 0;
    const Status st = src->read_at(off, buf.data(), want, &got);
    if (!st.is_ok()) return st;
    if (got == 0) {
      return Status::unavailable("copy failed: " + src->path() +
                                 " is shorter than promised");
    }
    if (!write_all(fd_, buf.data(), got)) {
      return Status::unavailable("write failed: " + tmp_);
    }
    off += got;
    land -= got;
  }
  size_ += n;
  return Status::ok();
}

Status AtomicFile::sync() {
  if (fd_ < 0) return Status::unavailable("write failed: " + tmp_);
  if (opts_.sync != SyncMode::kNone && ::fdatasync(fd_) != 0) {
    return Status::unavailable("fdatasync failed: " + tmp_);
  }
  return Status::ok();
}

Status AtomicFile::commit() {
  if (fd_ < 0) return Status::unavailable("write failed: " + tmp_);
  ::close(fd_);
  fd_ = -1;
  if (fault_.fault == WriteFault::kCrashBeforeRename) {
    // The temp file exists, the rename never happened: the artifact was
    // never committed. The harness flips the crash flag at this instant.
    crashed_ = true;
    if (opts_.faults) opts_.faults->on_crash_point(path_);
    return Status::unavailable("injected crash before rename: " + path_);
  }
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    return Status::unavailable("rename failed: " + path_);
  }
  renamed_ = true;
  if (fault_.fault == WriteFault::kCrashAfterRename) {
    // The rename landed but the writer died before the directory sync (and
    // before observing its own commit). The dirent is on disk — the next
    // scan finds a committed artifact the process never accounted for.
    crashed_ = true;
    if (opts_.faults) opts_.faults->on_crash_point(path_);
    return Status::unavailable("injected crash after rename: " + path_);
  }
  return Status::ok();
}

Status AtomicFile::sync_dir() {
  if (opts_.sync != SyncMode::kNone && !fsync_dir(parent_dir(path_))) {
    return Status::unavailable("dir fsync failed: " + path_);
  }
  return Status::ok();
}

// --- AppendFile ------------------------------------------------------------

bool AppendFile::open(const std::string& path) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  path_ = path;
  crashed_ = false;
  return fd_ >= 0;
}

void AppendFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool AppendFile::append(const void* data, std::size_t n,
                        const DurableOptions& opts) {
  if (fd_ < 0) return false;
  WriteFaultSpec fault;
  if (opts.faults) {
    fault = opts.faults->write_fault(path_, ArtifactKind::kSourceLog);
  }
  if (fault.fault == WriteFault::kError) return false;
  std::size_t limit = n;
  if (fault.fault == WriteFault::kTorn) {
    limit = std::min(n, static_cast<std::size_t>(fault.offset));
  }
  const bool wrote =
      write_all(fd_, static_cast<const std::uint8_t*>(data), limit);
  if (wrote && opts.sync == SyncMode::kAlways) ::fdatasync(fd_);
  if (fault.fault == WriteFault::kTorn) return false;  // tail is torn
  if (fault.fault == WriteFault::kCrashBeforeRename ||
      fault.fault == WriteFault::kCrashAfterRename) {
    crashed_ = true;
    if (opts.faults) opts.faults->on_crash_point(path_);
    return false;
  }
  return wrote;
}

bool AppendFile::truncate(std::uint64_t size) {
  if (fd_ < 0) return false;
  while (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

}  // namespace ms::storage
