// ftbench — the fault-tolerance-on benchmark of the real-threads runtime.
//
// Drives RtEngine + RtRuntime end to end (gen -> agg -> sink, ms-src+ap or
// ms-src+ap+delta, sync=commit, checkpoints in a real directory) on one
// workload and prints a meta record and then the JSON result line. See
// README.md for what each workload and metric means.
//
//   ftbench --workload saturate|paced|recover --seed N --seconds S
//           --trace 0|1 --dir DIR [--trace-dir DIR]
//   ftbench --ft-off --seed N        (the FT-off reference figure)
#include <malloc.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "app.h"
#include "common/log.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "ft/rt_runtime.h"
#include "ft/tracing.h"
#include "ft/verify.h"
#include "rt/engine.h"
#include "storage/durable_file.h"

namespace ftbench {
namespace {

namespace fs = std::filesystem;
namespace ft = ms::ft;
namespace rt = ms::rt;
namespace storage = ms::storage;
using Clock = std::chrono::steady_clock;

// --- small helpers ------------------------------------------------------------

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double ms_of(ms::SimTime t) { return static_cast<double>(t.ns()) / 1e6; }

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string fs_type(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

/// Hand memory freed by a finished phase back to the kernel, so peak RSS is
/// the largest single phase rather than an accident of heap reuse.
void release_freed_memory() { malloc_trim(0); }

/// fsync every file and directory under `dir` (the benchmark's own files),
/// so that data an untimed step wrote is on disk before a timed step starts
/// and its fsyncs do not pay for it.
void flush_tree(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> paths{dir};
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    paths.push_back(e.path().string());
  }
  // Files first, then directories deepest first.
  std::sort(paths.begin(), paths.end(), [](const std::string& a, const std::string& b) {
    return a.size() > b.size();
  });
  for (const std::string& p : paths) {
    const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "ftbench: %s\n", why.c_str());
  std::exit(1);
}

// --- workload definitions -----------------------------------------------------

struct Workload {
  std::string name;
  InputSpec input;
  double rate = 0.0;  // tuples/s; 0 = back-to-back
  ft::RtMode mode = ft::RtMode::kSrcAp;
  bool delta = false;
  std::uint64_t warmup = 0;        // set-up warm-up tuples (then one checkpoint)
  std::uint64_t round_tuples = 0;  // saturate: input released per round
  int round_epochs = 1;            // saturate: checkpoints taken per round
  double period_s = 0.0;           // paced: checkpoint period
  std::uint64_t latency_mask = 0;  // sample 1 in mask+1 tuples at the sink
  // The crashed directory: `fill_warm` tuples, a full checkpoint,
  // `fill_deltas` x (`fill_step` tuples, a checkpoint), then `fill_suffix`
  // tuples past the last boundary, then the crash.
  std::uint64_t fill_warm = 0;
  int fill_deltas = 0;
  std::uint64_t fill_step = 0;
  std::uint64_t fill_suffix = 0;
  int tail_cycles = 0;  // recovery cycles after the window (saturate, paced)
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "saturate") {
    w.input = {1u << 10, 1u << 20, 1.5};
    w.rate = 0.0;
    w.warmup = 1u << 18;
    w.round_tuples = 1u << 17;
    w.round_epochs = 2;
    w.latency_mask = 3;
    w.fill_warm = 1u << 18;
    w.fill_suffix = 1u << 19;
    w.tail_cycles = 5;
  } else if (name == "paced") {
    w.input = {1u << 21, 1u << 20, 1.0};
    w.rate = 200000.0;
    w.warmup = 100000;
    w.period_s = 0.5;
    w.latency_mask = 0;
    w.fill_warm = 100000;
    w.fill_suffix = 100000;
    w.tail_cycles = 5;
  } else if (name == "recover") {
    w.input = {1u << 21, 1u << 20, 2.0};
    w.rate = 0.0;
    w.mode = ft::RtMode::kSrcApDelta;
    w.delta = true;
    w.latency_mask = 3;
    w.fill_warm = 1u << 18;
    w.fill_deltas = 3;
    w.fill_step = 1u << 17;
    w.fill_suffix = 1u << 19;
  } else {
    fail("unknown workload '" + name + "' (saturate, paced, recover)");
  }
  return w;
}

const char* mode_name(ft::RtMode m) {
  switch (m) {
    case ft::RtMode::kBaseline: return "baseline";
    case ft::RtMode::kSrc: return "ms-src";
    case ft::RtMode::kSrcAp: return "ms-src+ap";
    case ft::RtMode::kSrcApAa: return "ms-src+ap+aa";
    case ft::RtMode::kSrcApDelta: return "ms-src+ap+delta";
  }
  return "?";
}

constexpr storage::SyncMode kSync = storage::SyncMode::kCommit;

// --- one engine + runtime incarnation -----------------------------------------

/// Timestamps from the runtime's probe spine (traced runs only).
struct ProbeLog {
  std::mutex mu;
  std::map<std::uint64_t, std::int64_t> agg_aligned;  // epoch -> ns
  std::vector<double> snapshot_pause_ms;
  std::int64_t last_unit_done_ns = 0;
  std::map<ft::FtPoint, std::int64_t> recovery_at;
  ft::ProbeTracer* tracer = nullptr;

  void on(ft::FtPoint p, int unit, std::uint64_t id) {
    const std::int64_t now = steady_ns();
    std::scoped_lock lk(mu);
    if (tracer) tracer->on(p, unit, id);
    switch (p) {
      case ft::FtPoint::kAlignDone:
        if (unit == kAgg) agg_aligned[id] = now;
        break;
      case ft::FtPoint::kForkDone:
        if (unit == kAgg) {
          const auto it = agg_aligned.find(id);
          if (it != agg_aligned.end()) {
            snapshot_pause_ms.push_back(static_cast<double>(now - it->second) / 1e6);
            agg_aligned.erase(it);
          }
        }
        break;
      case ft::FtPoint::kCheckpointDone:
        last_unit_done_ns = now;
        break;
      case ft::FtPoint::kRecoveryPhase1:
      case ft::FtPoint::kRecoveryPhase2:
      case ft::FtPoint::kRecoveryPhase3:
      case ft::FtPoint::kRecoveryPhase4:
      case ft::FtPoint::kRecoveryComplete:
        recovery_at[p] = now;
        break;
      default:
        break;
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_dir;
  bool ft_off = false;  // print the FT-off reference figure instead
};

/// An engine and its runtime over one directory, with the shared state the
/// operators see. Torn down runtime first, then engine, then what their
/// callbacks point at.
struct Incarnation {
  Incarnation() = default;
  Incarnation(const Incarnation&) = delete;
  Incarnation& operator=(const Incarnation&) = delete;
  ~Incarnation() { reset(); }

  void reset() {
    runtime.reset();
    engine.reset();
    probes.reset();
    tracer.reset();
    trace.reset();
    metrics.reset();
    sh.reset();
  }

  std::shared_ptr<Shared> sh;
  std::unique_ptr<ms::MetricsRegistry> metrics;
  std::unique_ptr<ms::TraceRecorder> trace;
  std::function<ms::SimTime()> trace_clock;
  std::unique_ptr<ft::ProbeTracer> tracer;
  std::unique_ptr<ProbeLog> probes;
  std::unique_ptr<rt::RtEngine> engine;
  std::unique_ptr<ft::RtRuntime> runtime;
  std::string dir;

  AggOp& agg() { return static_cast<AggOp&>(engine->op(kAgg)); }
  SinkOp& sink() { return static_cast<SinkOp&>(engine->op(kSink)); }
};

std::shared_ptr<Shared> make_shared_state(const Workload& w, const Input* input) {
  auto sh = std::make_shared<Shared>();
  sh->feed = std::make_shared<Feed>(input);
  sh->feed->rate = w.rate;
  sh->timings = std::make_shared<OpTimings>();
  sh->latency = std::make_shared<LatencyLog>();
  sh->latency->mask = w.latency_mask;
  sh->delta = w.delta;
  return sh;
}

/// The engine half of an incarnation. `chrome` attaches a trace recorder.
void build_engine(Incarnation& inc, const std::string& dir, std::uint64_t seed,
                  bool chrome) {
  inc.dir = dir;
  inc.metrics = std::make_unique<ms::MetricsRegistry>();
  rt::RtConfig rcfg;
  rcfg.helper_threads = 1;  // one snapshot helper: at most nproc busy threads
  rcfg.seed = seed;
  rcfg.metrics = inc.metrics.get();
  if (chrome) {
    inc.trace = std::make_unique<ms::TraceRecorder>();
    rcfg.trace = inc.trace.get();
  }
  inc.engine = std::make_unique<rt::RtEngine>(make_graph(inc.sh), rcfg);
}

/// The runtime half (its construction scans `inc.dir`). `probes` subscribes
/// the probe log, and the protocol tracer when a trace recorder is attached.
void build_runtime(Incarnation& inc, const Workload& w, bool probes) {
  ft::RtRuntimeConfig cfg;
  cfg.mode = w.mode;
  cfg.dir = inc.dir;
  cfg.params.periodic = false;  // the benchmark initiates every epoch
  cfg.params.token_retransmit_timeout = ms::SimTime::zero();
  cfg.params.delta_compact_every = 8;
  cfg.codec = kv_codec();
  cfg.metrics = inc.metrics.get();
  cfg.sync_mode = kSync;
  inc.runtime = std::make_unique<ft::RtRuntime>(inc.engine.get(), cfg);
  if (!probes) return;
  inc.probes = std::make_unique<ProbeLog>();
  if (inc.trace) {
    // Probes fire before the engine starts (recovery phases 1-3), so the
    // protocol tracks get a clock of their own.
    const std::int64_t base = steady_ns();
    inc.trace_clock = [base] { return ms::SimTime::nanos(steady_ns() - base); };
    inc.tracer = std::make_unique<ft::ProbeTracer>(inc.trace.get(), inc.trace_clock);
    inc.probes->tracer = inc.tracer.get();
  }
  ProbeLog* log = inc.probes.get();
  inc.runtime->add_probe(
      [log](ft::FtPoint p, int unit, std::uint64_t id) { log->on(p, unit, id); });
}

void write_trace(Incarnation& inc, const std::string& path) {
  if (!inc.trace || path.empty()) return;
  fs::create_directories(fs::path(path).parent_path());
  inc.trace->end_everything(
      std::max(inc.engine->uptime(),
               inc.trace_clock ? inc.trace_clock() : ms::SimTime::zero()));
  std::ofstream out(path);
  inc.trace->write_chrome_json(out);
}

std::int64_t completed(Incarnation& inc) {
  return inc.metrics->counter("ft.ckpt.completed")->value();
}

/// Observation while the benchmark waits, in traced runs: the largest
/// sampled queue depth and the instants commits finish.
struct Sampler {
  Incarnation* inc = nullptr;
  double queue_depth_max = 0.0;
  std::uint64_t last_epoch = 0;
  std::vector<double> commit_ms;

  void attach(Incarnation* i) {
    inc = i;
    last_epoch = inc->runtime->last_durable_epoch();
  }
  void tick() {
    if (inc == nullptr) return;
    for (int op = 0; op < inc->engine->num_operators(); ++op) {
      const double d =
          inc->metrics->gauge("rt.op." + std::to_string(op) + ".queue_depth")->value();
      queue_depth_max = std::max(queue_depth_max, d);
    }
    // last_durable_epoch() takes the control mutex a commit holds (the
    // MANIFEST write and log truncation), so a new value is seen only once
    // the commit has finished.
    const std::uint64_t e = inc->runtime->last_durable_epoch();
    if (e != last_epoch) {
      std::scoped_lock lk(inc->probes->mu);
      commit_ms.push_back(
          static_cast<double>(steady_ns() - inc->probes->last_unit_done_ns) / 1e6);
      last_epoch = e;
    }
  }
};

/// Poll `pred` until it holds or `timeout_s` passes; samples meanwhile.
bool poll_until(const std::function<bool()>& pred, double timeout_s,
                Sampler* sampler) {
  const auto t0 = Clock::now();
  const auto step = sampler != nullptr ? std::chrono::microseconds(200)
                                       : std::chrono::microseconds(1000);
  for (;;) {
    if (pred()) return true;
    if (secs_since(t0) > timeout_s) return pred();
    if (sampler != nullptr) sampler->tick();
    std::this_thread::sleep_for(step);
  }
}

/// Release `n` more input tuples and wait until the sink has all of them
/// (the engine started with the feed at zero, so sink count = cursor).
bool feed_and_drain(Incarnation& inc, std::uint64_t n, Sampler* sampler) {
  Feed& f = *inc.sh->feed;
  const std::uint64_t target = f.limit.load() + n;
  f.reorigin.store(true);
  f.limit.store(target, std::memory_order_release);
  return poll_until(
      [&] {
        return f.cursor.load() >= target &&
               inc.engine->sink_tuples() >= static_cast<std::int64_t>(target);
      },
      60, sampler);
}

/// begin_checkpoint() and wait until the epoch has committed.
bool checkpoint_now(Incarnation& inc, Sampler* sampler) {
  const std::int64_t want = completed(inc) + 1;
  if (!inc.runtime->begin_checkpoint().is_ok()) return false;
  const std::uint64_t epoch0 = inc.runtime->last_durable_epoch();
  return poll_until(
      [&] {
        return completed(inc) >= want &&
               inc.runtime->last_durable_epoch() != epoch0;
      },
      60, sampler);
}

// --- write-side per-layer figures ---------------------------------------------

double enqueue_wait_ns(Incarnation& inc) {
  double s = 0.0;
  for (int op = 0; op < inc.engine->num_operators(); ++op) {
    const auto h = inc.metrics
                       ->histogram("rt.op." + std::to_string(op) + ".enqueue_wait_ns")
                       ->snapshot();
    s += static_cast<double>(h.mean().ns()) * static_cast<double>(h.count());
  }
  return s;
}

/// Counter readings at the start of a measured phase.
struct PhaseMark {
  std::int64_t started = 0, completed = 0, abandoned = 0;
  double wait_ns = 0.0;
};

PhaseMark mark_phase(Incarnation& inc) {
  PhaseMark m;
  m.started = inc.metrics->counter("ft.ckpt.started")->value();
  m.completed = completed(inc);
  m.abandoned = inc.metrics->counter("ft.ckpt.abandoned")->value();
  m.wait_ns = enqueue_wait_ns(inc);
  // Operator timings restart with the phase.
  OpTimings& tm = *inc.sh->timings;
  tm.emit_ns = 0;
  tm.emits = 0;
  tm.stall_max_ns = 0;
  tm.process_ns = 0;
  tm.processed = 0;
  std::scoped_lock lk(tm.mu);
  tm.gen_lag_ms.clear();
  tm.serialize_ms.clear();
  return m;
}

/// What the source, transport, protocol and operators did during a phase
/// (gen, rt, ft checkpoint side, op). Read after the engine stopped.
struct WriteSide {
  std::vector<double> gen_lag_ms, op_serialize_ms, snapshot_pause_ms, commit_ms,
      total_ms, token_ms, other_ms, disk_ms;
  double emit_ns = 0, stall_ms = 0, process_ns = 0, enqueue_wait_ms = 0,
         queue_depth_max = 0;
  std::int64_t started = 0, committed = 0, abandoned = 0;
};

WriteSide harvest(Incarnation& inc, const PhaseMark& m0, const Sampler* sampler) {
  WriteSide ws;
  ws.started = inc.metrics->counter("ft.ckpt.started")->value() - m0.started;
  ws.committed = completed(inc) - m0.completed;
  ws.abandoned = inc.metrics->counter("ft.ckpt.abandoned")->value() - m0.abandoned;
  ws.enqueue_wait_ms = (enqueue_wait_ns(inc) - m0.wait_ns) / 1e6;
  const auto& cks = inc.runtime->coordinator().checkpoints();
  for (auto i = static_cast<std::size_t>(m0.completed); i < cks.size(); ++i) {
    ws.total_ms.push_back(ms_of(cks[i].total()));
    ws.token_ms.push_back(ms_of(cks[i].slowest.token_collection()));
    ws.other_ms.push_back(ms_of(cks[i].slowest.other()));
    ws.disk_ms.push_back(ms_of(cks[i].slowest.disk_io()));
  }
  OpTimings& tm = *inc.sh->timings;
  if (tm.emits > 0) {
    ws.emit_ns = static_cast<double>(tm.emit_ns) / static_cast<double>(tm.emits);
  }
  ws.stall_ms = static_cast<double>(tm.stall_max_ns) / 1e6;
  if (tm.processed > 0) {
    ws.process_ns =
        static_cast<double>(tm.process_ns) / static_cast<double>(tm.processed);
  }
  {
    std::scoped_lock lk(tm.mu);
    ws.gen_lag_ms = tm.gen_lag_ms;
    ws.op_serialize_ms = tm.serialize_ms;
  }
  if (inc.probes) {
    std::scoped_lock lk(inc.probes->mu);
    ws.snapshot_pause_ms = inc.probes->snapshot_pause_ms;
  }
  if (sampler != nullptr) {
    ws.commit_ms = sampler->commit_ms;
    ws.queue_depth_max = sampler->queue_depth_max;
  }
  return ws;
}

// --- the crashed directory and recovery cycles --------------------------------

struct CrashedDir {
  std::string dir;
  std::uint64_t n = 0;         // input tuples emitted before the crash
  std::uint64_t boundary = 0;  // emission count at the last checkpoint
  std::uint64_t epoch = 0;     // newest committed epoch
  double log_bytes_per_tuple = 0.0;
};

/// Fill run: checkpoints at fixed input positions, then a preserved suffix
/// past the last boundary, then the crash. With `layers`, the run is
/// instrumented and its write-side figures land there.
CrashedDir build_crashed_dir(const Workload& w, const Input& input,
                             const std::string& dir, std::uint64_t seed,
                             WriteSide* layers) {
  CrashedDir out;
  out.dir = dir;
  fs::remove_all(dir);
  Incarnation inc;
  inc.sh = make_shared_state(w, &input);
  build_engine(inc, dir, seed, false);
  build_runtime(inc, w, layers != nullptr);
  if (!inc.runtime->start().is_ok()) fail("fill: runtime start failed");
  Sampler sampler;
  Sampler* s = nullptr;
  PhaseMark m0;
  if (layers != nullptr) {
    sampler.attach(&inc);
    s = &sampler;
    m0 = mark_phase(inc);
    inc.sh->timings->on = true;
  }
  if (!feed_and_drain(inc, w.fill_warm, s)) fail("fill: warm-up did not drain");
  if (!checkpoint_now(inc, s)) fail("fill: base checkpoint did not commit");
  for (int d = 0; d < w.fill_deltas; ++d) {
    if (!feed_and_drain(inc, w.fill_step, s)) fail("fill: step did not drain");
    if (!checkpoint_now(inc, s)) fail("fill: checkpoint did not commit");
  }
  out.boundary = inc.sh->feed->cursor.load();
  out.epoch = inc.runtime->last_durable_epoch();
  const std::string log = dir + "/source_0.log";
  const std::uint64_t log0 = file_bytes(log);
  if (!feed_and_drain(inc, w.fill_suffix, s)) fail("fill: suffix did not drain");
  out.log_bytes_per_tuple = static_cast<double>(file_bytes(log) - log0) /
                            static_cast<double>(w.fill_suffix);
  inc.runtime->simulate_crash();
  inc.sh->timings->on = false;
  inc.runtime->stop();
  out.n = inc.sh->feed->cursor.load();
  if (layers != nullptr) *layers = harvest(inc, m0, &sampler);
  inc.reset();
  release_freed_memory();
  flush_tree(dir);
  return out;
}

struct CycleResult {
  bool recover_ok = true;
  bool checkpoint_ok = true;
  double recovery_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t replayed = 0;
  double checkpoint_ms = 0.0;  // the re-protecting checkpoint, when taken
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  // Traced runs: the recovery's phases (ms) and the application's share.
  double scan_ms = 0, read_ms = 0, install_ms = 0, replay_enqueue_ms = 0,
         drain_ms = 0, read_mb = 0, deserialize_ms = 0;
};

struct CycleOptions {
  bool checkpoint = false;      // take a checkpoint once caught up
  bool latency = false;         // sample replay latency at the sink
  std::string trace_path;       // write a Chrome trace of this cycle
};

/// One measured recovery: link a copy of the crashed directory, build an
/// engine, then time RtRuntime construction (its scan), recover() and the
/// drain until the sink holds every input tuple. Then verify the outputs
/// against `ref`, the landing epoch, the replay count and the scrub.
CycleResult recovery_cycle(const Workload& w, const Input& input,
                           const CrashedDir& crashed, const Reference& ref,
                           const std::string& dir, const Options& opt,
                           const CycleOptions& copt, const std::string& what) {
  CycleResult res;
  fs::remove_all(dir);
  // Hard links: recovery never writes a file in place (commits rename new
  // files over old names, GC unlinks), so the crashed directory survives
  // every cycle unchanged — the checks below would catch it if it did not.
  fs::copy(crashed.dir, dir,
           fs::copy_options::recursive | fs::copy_options::create_hard_links);
  // Commits the journal, with the previous cycle's deletions in it, before
  // the timed part: its fsyncs then pay only for their own writes.
  flush_tree(dir);

  Incarnation inc;
  inc.sh = make_shared_state(w, &input);
  inc.sh->feed->cursor.store(crashed.n);  // the external input is exhausted
  inc.sh->feed->limit.store(crashed.n);
  inc.sh->timings->on = opt.trace;
  LatencyLog& lat = *inc.sh->latency;
  lat.clock = LatencyLog::Clock::kSinceMark;
  build_engine(inc, dir, opt.seed, !copt.trace_path.empty());

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  lat.mark_ns.store(steady_ns());
  lat.on.store(copt.latency);
  build_runtime(inc, w, opt.trace);
  const auto t_scan = Clock::now();
  ft::RecoveryStats stats;
  const ms::Status st = inc.runtime->recover(&stats);
  const auto t_rec = Clock::now();
  const std::uint64_t landed = inc.runtime->last_durable_epoch();
  const auto want = static_cast<std::int64_t>(crashed.n - crashed.boundary);
  res.recover_ok = st.is_ok();
  if (!res.recover_ok) {
    std::fprintf(stderr, "ftbench: %s: recover() failed: %s\n", what.c_str(),
                 st.to_string().c_str());
  }
  const bool drained =
      res.recover_ok &&
      poll_until([&] { return inc.engine->sink_tuples() >= want; }, 60, nullptr);
  res.recovery_s = secs_since(t0);
  res.cpu_s = cpu_seconds() - cpu0;
  res.drain_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_rec).count();
  lat.on.store(false);
  if (copt.checkpoint && res.recover_ok) {
    // Let the workers park after the replay burst, so the checkpoint
    // measures the protocol rather than the tail of the drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    res.checkpoint_ok = checkpoint_now(inc, nullptr);
    const auto& cks = inc.runtime->coordinator().checkpoints();
    if (res.checkpoint_ok) res.checkpoint_ms = ms_of(cks.back().total());
  }
  inc.runtime->stop();

  if (res.recover_ok) {
    if (!drained) fail(what + ": the sink did not catch up after recovery");
    const std::string why =
        check_outputs(ref, inc.agg().cells(), inc.sink().state());
    if (!why.empty()) fail(what + ": output mismatch: " + why);
    if (landed != crashed.epoch) {
      fail(what + ": recovery landed on epoch " + std::to_string(landed) +
           ", the newest committed is " + std::to_string(crashed.epoch));
    }
    const std::uint64_t restored = inc.sink().restored_count();
    if (restored != crashed.boundary) {
      fail(what + ": the restored sink holds " + std::to_string(restored) +
           " tuples, the checkpoint boundary is " + std::to_string(crashed.boundary));
    }
    res.replayed = inc.sink().state().count - restored;
    if (res.replayed != crashed.n - crashed.boundary) {
      fail(what + ": replayed " + std::to_string(res.replayed) + " tuples, " +
           std::to_string(crashed.n - crashed.boundary) + " were past the boundary");
    }
    if (inc.metrics->counter("ft.recovery.fallbacks")->value() != 0) {
      fail(what + ": recovery fell back below the newest epoch");
    }
  }
  const ft::ScrubReport scrub = ft::scrub_checkpoint_dir(dir);
  if (!scrub.clean()) {
    fail(what + ": scrub found damage in " + scrub.issues.front().path + ": " +
         scrub.issues.front().detail);
  }

  if (copt.latency) {
    res.latency_p50_ms = percentile(lat.rounds[0], 50.0);
    res.latency_p99_ms = percentile(lat.rounds[0], 99.0);
  }
  res.read_mb = static_cast<double>(stats.bytes_read) / 1e6;
  if (inc.probes) {
    auto& at = inc.probes->recovery_at;
    auto span = [&](ft::FtPoint a, ft::FtPoint b) {
      if (at.count(a) == 0 || at.count(b) == 0) fail(what + ": recovery phase probe missing");
      return static_cast<double>(at[b] - at[a]) / 1e6;
    };
    res.scan_ms =
        std::chrono::duration<double, std::milli>(t_scan - t0).count() +
        span(ft::FtPoint::kRecoveryPhase1, ft::FtPoint::kRecoveryPhase2);
    res.read_ms = span(ft::FtPoint::kRecoveryPhase2, ft::FtPoint::kRecoveryPhase3);
    res.install_ms = span(ft::FtPoint::kRecoveryPhase3, ft::FtPoint::kRecoveryPhase4);
    res.replay_enqueue_ms =
        span(ft::FtPoint::kRecoveryPhase4, ft::FtPoint::kRecoveryComplete);
    std::scoped_lock lk(inc.sh->timings->mu);
    for (const double d : inc.sh->timings->deserialize_ms) res.deserialize_ms += d;
  }
  write_trace(inc, copt.trace_path);
  inc.reset();
  release_freed_memory();
  fs::remove_all(dir);
  return res;
}

// --- storage, timed directly at the workload's sizes --------------------------

struct StorageFigures {
  double append_ns = 0, write_ms = 0, write_nosync_ms = 0, read_ms = 0,
         crc_gb_s = 0;
};

StorageFigures time_storage(const std::string& dir, std::size_t record_bytes,
                            std::size_t snapshot_bytes) {
  StorageFigures out;
  fs::create_directories(dir);
  const storage::DurableOptions commit{storage::SyncMode::kCommit, nullptr};
  const storage::DurableOptions none{storage::SyncMode::kNone, nullptr};
  {
    storage::AppendFile f;
    if (!f.open(dir + "/append.log")) fail("storage: cannot open append file");
    std::vector<std::uint8_t> rec(std::max<std::size_t>(record_bytes, 1), 0x5a);
    constexpr int kAppends = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kAppends; ++i) {
      if (!f.append(rec.data(), rec.size(), commit)) fail("storage: append failed");
    }
    out.append_ns = secs_since(t0) * 1e9 / kAppends;
  }
  std::vector<std::uint8_t> blob(snapshot_bytes);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 131);
  }
  const std::string path = dir + "/op_1.ckpt";
  auto time_write = [&](const storage::DurableOptions& o) {
    std::vector<double> v;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      if (!storage::write_artifact(path, storage::ArtifactKind::kCheckpoint,
                                   blob.data(), blob.size(), o).is_ok()) {
        fail("storage: write_artifact failed");
      }
      v.push_back(secs_since(t0) * 1e3);
    }
    return median(v);
  };
  out.write_ms = time_write(commit);
  out.write_nosync_ms = time_write(none);
  std::vector<double> reads;
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> payload;
    const auto t0 = Clock::now();
    if (!storage::read_artifact(path, storage::ArtifactKind::kCheckpoint, commit,
                                &payload).is_ok() ||
        payload.size() != blob.size()) {
      fail("storage: read_artifact failed");
    }
    reads.push_back(secs_since(t0) * 1e3);
  }
  out.read_ms = median(reads);
  std::vector<std::uint8_t> buf(16u << 20, 0xa5);
  std::vector<double> rates;
  std::uint32_t sink = 0;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    sink ^= storage::crc32c(buf.data(), buf.size());
    rates.push_back(static_cast<double>(buf.size()) / secs_since(t0) / 1e9);
  }
  if (sink == 0x12345678u) std::fprintf(stderr, " ");  // keep the CRC live
  out.crc_gb_s = median(rates);
  fs::remove_all(dir);
  return out;
}

// --- results ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics, bool with_units) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": ";
    s += with_units ? std::string("{\"value\": ") + buf + ", \"unit\": \"" +
                          metrics[i].unit + "\"}"
                    : std::string(buf);
  }
  return s + "}";
}

// --- the benchmark --------------------------------------------------------------

/// Reference figure, not a workload: the saturate graph with fault
/// tolerance off (no runtime, no source log, no checkpoints) pushing a fixed
/// input back to back. Its throughput over saturate's is the FT tax.
int run_ft_off(const Options& opt) {
  const Workload w = make_workload("saturate");
  const Input input(w.input, opt.seed);
  constexpr std::uint64_t kTuples = 8u << 20;
  std::vector<double> tps;
  for (int rep = 0; rep < 3; ++rep) {
    Incarnation inc;
    inc.sh = make_shared_state(w, &input);
    build_engine(inc, "", opt.seed, false);
    inc.engine->start();
    const auto t0 = Clock::now();
    if (!feed_and_drain(inc, kTuples, nullptr)) fail("ft-off: did not drain");
    tps.push_back(static_cast<double>(kTuples) / secs_since(t0));
    inc.engine->stop();
    const Reference ref = fold_reference(input, kTuples);
    const std::string why = check_outputs(ref, inc.agg().cells(), inc.sink().state());
    if (!why.empty()) fail("ft-off: output mismatch: " + why);
  }
  std::printf("{\"ft_off\": {\"workload\": \"saturate\", \"tuples\": %llu, "
              "\"throughput_tps\": %.1f}}\n",
              static_cast<unsigned long long>(kTuples), median(tps));
  return 0;
}

/// One measured window on a started incarnation: saturate's rounds or
/// paced's periods, each initiating one epoch. Per-round figures are kept so
/// the run can report medians over rounds.
struct Window {
  std::vector<double> round_tps, round_cpu_us, round_s, lat_p50, lat_p99,
      checkpoint_ms;
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  double seconds = 0.0;
  double reference_fold_s = 0.0;
  std::uint64_t tuples = 0;
  double ckpt_mb_per_epoch = 0.0;
  WriteSide ws;
};

Window measure_window(Incarnation& inc, const Workload& w, const Input& input,
                      double seconds, bool traced) {
  Window out;
  Feed& f = *inc.sh->feed;
  LatencyLog& lat = *inc.sh->latency;
  Sampler sampler;
  Sampler* s = nullptr;
  if (traced) {
    sampler.attach(&inc);
    s = &sampler;
  }
  const PhaseMark m0 = mark_phase(inc);
  inc.sh->timings->on = traced;
  std::int64_t sink_r = inc.engine->sink_tuples();
  double cpu_r = cpu_seconds();
  const auto w0 = Clock::now();
  auto round_t0 = w0;
  auto end_round = [&] {
    const std::int64_t sink_now = inc.engine->sink_tuples();
    const double cpu_now = cpu_seconds();
    const double dt = secs_since(round_t0);
    const auto dn = static_cast<double>(sink_now - sink_r);
    out.round_s.push_back(dt);
    out.round_tps.push_back(dn / dt);
    out.round_cpu_us.push_back((cpu_now - cpu_r) * 1e6 / dn);
    sink_r = sink_now;
    cpu_r = cpu_now;
    round_t0 = Clock::now();
  };
  lat.on.store(true);
  int rounds = 0;
  int epochs = 0;  // initiated
  if (w.rate <= 0.0) {
    // saturate: whole rounds. A round checkpoints with the source idle
    // (the epoch commits at once, its boundary at the round start), then
    // releases round_tuples of back-to-back input and ends when the sink has
    // them all.
    while (rounds == 0 || secs_since(w0) < seconds) {
      lat.round.store(rounds);
      ++rounds;
      for (int k = 0; k < w.round_epochs; ++k) {
        if (!inc.runtime->begin_checkpoint().is_ok()) fail("begin_checkpoint refused");
        ++epochs;
        poll_until([&] { return completed(inc) >= m0.completed + epochs; }, 30, s);
      }
      const std::uint64_t end = f.limit.load() + w.round_tuples;
      f.limit.store(end, std::memory_order_release);
      poll_until(
          [&] { return inc.engine->sink_tuples() >= static_cast<std::int64_t>(end); },
          60, s);
      end_round();
    }
  } else {
    // paced: the source runs open loop at `rate`; one epoch per period.
    f.reorigin.store(true);
    f.limit.store(std::numeric_limits<std::uint64_t>::max(),
                  std::memory_order_release);
    const int n_rounds = std::max(1, static_cast<int>(std::ceil(seconds / w.period_s)));
    for (int r = 0; r < n_rounds; ++r) {
      lat.round.store(r);
      if (!inc.runtime->begin_checkpoint().is_ok()) fail("begin_checkpoint refused");
      ++rounds;
      ++epochs;
      poll_until([&] { return secs_since(w0) >= (r + 1) * w.period_s; }, 1e9, s);
      end_round();
    }
  }
  lat.on.store(false);
  out.seconds = secs_since(w0);
  if (w.rate > 0.0) {
    // Hold the input where it is, drain, and let the last epoch finish.
    f.limit.store(f.cursor.load());
    poll_until(
        [&] {
          const std::uint64_t c = f.cursor.load();
          return c >= f.limit.load() &&
                 inc.engine->sink_tuples() >= static_cast<std::int64_t>(c);
        },
        30, s);
    poll_until([&] { return completed(inc) >= m0.completed + epochs; }, 30, s);
  }
  inc.sh->timings->on = false;
  inc.runtime->stop();

  out.ws = harvest(inc, m0, s);
  out.attempted = static_cast<std::uint64_t>(epochs);
  out.committed = static_cast<std::uint64_t>(out.ws.committed);
  out.checkpoint_ms = out.ws.total_ms;
  for (const auto& r : lat.rounds) {
    if (r.empty()) continue;
    out.lat_p50.push_back(percentile(r, 50.0));
    out.lat_p99.push_back(percentile(r, 99.0));
  }

  // The window's outputs against the reference; the directory's scrub.
  out.tuples = f.cursor.load();
  const Reference ref = fold_reference(input, out.tuples);
  out.reference_fold_s = ref.fold_seconds;
  if (const std::string why = check_outputs(ref, inc.agg().cells(), inc.sink().state());
      !why.empty()) {
    fail(w.name + " window: output mismatch: " + why);
  }
  const ft::ScrubReport scrub = ft::scrub_checkpoint_dir(inc.dir);
  if (!scrub.clean()) {
    fail(w.name + " window: scrub found damage in " + scrub.issues.front().path +
         ": " + scrub.issues.front().detail);
  }
  out.ckpt_mb_per_epoch =
      static_cast<double>(dir_bytes(inc.dir + "/epoch_" +
                                    std::to_string(inc.runtime->last_durable_epoch()))) /
      1e6;
  return out;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

int run(const Options& opt) {
  const Workload w = make_workload(opt.workload);
  if (const std::string why = self_test_checker(); !why.empty()) {
    std::fprintf(stderr, "ftbench: checker self-test failed: %s\n", why.c_str());
    return 2;
  }
  const std::string base = opt.dir + "/" + w.name + "-" + std::to_string(::getpid());
  fs::remove_all(base);
  fs::create_directories(base);
  const std::string main_dir = base + "/ckpt";
  const std::string cycle_dir = base + "/cycle";
  const std::string trace_path =
      opt.trace && !opt.trace_dir.empty()
          ? opt.trace_dir + "/" + w.name + "-seed" + std::to_string(opt.seed) + ".json"
          : "";

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reference_n = 0;
  double reference_s = 0.0;
  double throughput = 0, cpu_per_tuple = 0, lat_p50 = 0, lat_p99 = 0,
         checkpoint_ms = 0, commits_per_min = 0;
  std::vector<CycleResult> cycles;
  double ckpt_mb_per_epoch = 0.0;
  auto cyc_median = [&](double CycleResult::*field) {
    std::vector<double> v;
    for (const CycleResult& c : cycles) v.push_back(c.*field);
    return median(v);
  };

  // ---- set-up, repeated. On saturate and paced every set-up is followed by
  // a third of the window in that fresh incarnation (new threads, new
  // placement), and the figures pool all rounds; on recover the set-up is
  // the fill run and the last fill's directory is the one recovered.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Input> input;
  CrashedDir crashed;
  WriteSide ws;  // traced: the last window's (or, on recover, the fill's)
  Window pooled;
  for (int rep = 0; rep < kSetups; ++rep) {
    const bool last = rep == kSetups - 1;
    input.reset();
    fs::remove_all(main_dir);
    const auto t0 = Clock::now();
    input = std::make_unique<Input>(w.input, opt.seed);
    if (w.name == "recover") {
      crashed = build_crashed_dir(w, *input, main_dir, opt.seed,
                                  last && opt.trace ? &ws : nullptr);
      setup_s.push_back(secs_since(t0));
      continue;
    }
    Incarnation inc;
    inc.sh = make_shared_state(w, input.get());
    build_engine(inc, main_dir, opt.seed, last && !trace_path.empty());
    build_runtime(inc, w, last && opt.trace);
    if (!inc.runtime->start().is_ok()) fail("runtime start failed");
    if (!feed_and_drain(inc, w.warmup, nullptr)) fail("warm-up did not drain");
    if (!checkpoint_now(inc, nullptr)) fail("warm-up checkpoint did not commit");
    setup_s.push_back(secs_since(t0));

    const Window win = measure_window(inc, w, *input,
                                      static_cast<double>(opt.seconds) / kSetups,
                                      last && opt.trace);
    append(pooled.round_tps, win.round_tps);
    append(pooled.round_cpu_us, win.round_cpu_us);
    append(pooled.round_s, win.round_s);
    append(pooled.lat_p50, win.lat_p50);
    append(pooled.lat_p99, win.lat_p99);
    append(pooled.checkpoint_ms, win.checkpoint_ms);
    pooled.attempted += win.attempted;
    pooled.committed += win.committed;
    pooled.seconds += win.seconds;
    pooled.tuples += win.tuples;
    pooled.reference_fold_s += win.reference_fold_s;
    pooled.ckpt_mb_per_epoch = win.ckpt_mb_per_epoch;
    if (last) {
      ws = win.ws;
      write_trace(inc, trace_path);
    }
    inc.reset();
    release_freed_memory();
  }

  if (w.name != "recover") {
    attempted += pooled.attempted;
    failed += pooled.attempted - std::min(pooled.attempted, pooled.committed);
    if (pooled.checkpoint_ms.empty()) fail("no epoch committed in the measured window");
    throughput = median(pooled.round_tps);
    cpu_per_tuple = median(pooled.round_cpu_us);
    lat_p50 = median(pooled.lat_p50);
    lat_p99 = median(pooled.lat_p99);
    checkpoint_ms = median(pooled.checkpoint_ms);
    // Saturate commits round_epochs times per round; paced once per period,
    // and its rate is taken over the whole window.
    commits_per_min = w.rate <= 0.0 ? 60.0 * w.round_epochs / median(pooled.round_s)
                                    : static_cast<double>(pooled.committed) /
                                          (pooled.seconds / 60.0);
    reference_n = pooled.tuples;
    reference_s = pooled.reference_fold_s;
    ckpt_mb_per_epoch = pooled.ckpt_mb_per_epoch;
    fs::remove_all(main_dir);

    // ---- recovery tail: a crashed directory of the same shape ---------------
    crashed = build_crashed_dir(w, *input, base + "/crashed", opt.seed, nullptr);
    const Reference tail_ref = fold_reference(*input, crashed.n);
    for (int c = 0; c < w.tail_cycles; ++c) {
      cycles.push_back(recovery_cycle(w, *input, crashed, tail_ref, cycle_dir, opt,
                                      CycleOptions{},
                                      w.name + " recovery cycle " + std::to_string(c)));
      ++attempted;
      if (!cycles.back().recover_ok) ++failed;
    }
  } else {
    // ---- recover: measured recovery cycles over the fill's directory --------
    const Reference ref = fold_reference(*input, crashed.n);
    reference_n = crashed.n;
    reference_s = ref.fold_seconds;
    const auto w0 = Clock::now();
    std::vector<double> cks;
    double cpu_s = 0.0, busy_s = 0.0;
    std::uint64_t delivered = 0;
    while (cycles.empty() || secs_since(w0) < opt.seconds) {
      CycleOptions copt;
      copt.checkpoint = true;
      copt.latency = true;
      if (cycles.empty()) copt.trace_path = trace_path;
      cycles.push_back(recovery_cycle(w, *input, crashed, ref, cycle_dir, opt, copt,
                                      "recovery cycle " +
                                          std::to_string(cycles.size())));
      const CycleResult& c = cycles.back();
      attempted += 2;  // the recovery and the re-protecting checkpoint
      if (!c.recover_ok) ++failed;
      if (!c.recover_ok || !c.checkpoint_ok) {
        ++failed;
      } else {
        cks.push_back(c.checkpoint_ms);
      }
      cpu_s += c.cpu_s;
      busy_s += c.recovery_s;
      delivered += c.replayed;
    }
    const double window_s = secs_since(w0);
    if (cks.empty()) fail("no post-recovery checkpoint committed");
    throughput = static_cast<double>(delivered) / busy_s;
    cpu_per_tuple = cpu_s * 1e6 / static_cast<double>(delivered);
    lat_p50 = cyc_median(&CycleResult::latency_p50_ms);
    lat_p99 = cyc_median(&CycleResult::latency_p99_ms);
    checkpoint_ms = median(cks);
    commits_per_min = static_cast<double>(cks.size()) / (window_s / 60.0);
    ckpt_mb_per_epoch =
        static_cast<double>(dir_bytes(crashed.dir + "/epoch_" +
                                      std::to_string(crashed.epoch))) / 1e6;
  }

  std::vector<Metric> e2e = {
      {"throughput_tps", throughput, "1/s"},
      {"cpu_us_per_tuple", cpu_per_tuple, "us"},
      {"latency_p50_ms", lat_p50, "ms"},
      {"latency_p99_ms", lat_p99, "ms"},
      {"checkpoint_ms", checkpoint_ms, "ms"},
      {"commits_per_min", commits_per_min, "1/min"},
      {"recovery_s", cyc_median(&CycleResult::recovery_s), "s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  for (const Metric& m : e2e) {
    if (!std::isfinite(m.value) || m.value <= 0.0) {
      fail("end-to-end metric " + m.name + " could not be measured");
    }
  }

  std::vector<Metric> layer;
  if (opt.trace) {
    const std::size_t snapshot_bytes = 8 + sizeof(AggCell) * input->key_space();
    const StorageFigures sf = time_storage(
        base + "/storage",
        static_cast<std::size_t>(std::lround(crashed.log_bytes_per_tuple)),
        snapshot_bytes);
    layer = {
        {"gen.lag_p99_ms", percentile(ws.gen_lag_ms, 99.0), "ms"},
        {"rt.emit_ns", ws.emit_ns, "ns"},
        {"rt.emit_stall_max_ms", ws.stall_ms, "ms"},
        {"rt.enqueue_wait_ms", ws.enqueue_wait_ms, "ms"},
        {"rt.queue_depth_max", ws.queue_depth_max, "count"},
        {"rt.snapshot_pause_ms", median(ws.snapshot_pause_ms), "ms"},
        {"ft.epochs_started", static_cast<double>(ws.started), "count"},
        {"ft.epochs_committed", static_cast<double>(ws.committed), "count"},
        {"ft.epochs_abandoned", static_cast<double>(ws.abandoned), "count"},
        {"ft.token_collection_ms", median(ws.token_ms), "ms"},
        {"ft.serialize_ms", median(ws.other_ms), "ms"},
        {"ft.disk_io_ms", median(ws.disk_ms), "ms"},
        {"ft.commit_ms", median(ws.commit_ms), "ms"},
        {"ft.log_bytes_per_tuple", crashed.log_bytes_per_tuple, "B"},
        {"ft.recovery.scan_ms", cyc_median(&CycleResult::scan_ms), "ms"},
        {"ft.recovery.read_ms", cyc_median(&CycleResult::read_ms), "ms"},
        {"ft.recovery.install_ms", cyc_median(&CycleResult::install_ms), "ms"},
        {"ft.recovery.replay_enqueue_ms",
         cyc_median(&CycleResult::replay_enqueue_ms), "ms"},
        {"ft.recovery.drain_ms", cyc_median(&CycleResult::drain_ms), "ms"},
        {"ft.recovery.read_mb", cyc_median(&CycleResult::read_mb), "MB"},
        {"ft.recovery.replayed_tuples",
         static_cast<double>(crashed.n - crashed.boundary), "count"},
        {"storage.append_ns", sf.append_ns, "ns"},
        {"storage.write_artifact_ms", sf.write_ms, "ms"},
        {"storage.write_artifact_nosync_ms", sf.write_nosync_ms, "ms"},
        {"storage.read_artifact_ms", sf.read_ms, "ms"},
        {"storage.crc32c_gb_s", sf.crc_gb_s, "GB/s"},
        {"storage.ckpt_mb_per_epoch", ckpt_mb_per_epoch, "MB"},
        {"op.process_ns", ws.process_ns, "ns"},
        {"op.serialize_ms", median(ws.op_serialize_ms), "ms"},
        {"op.deserialize_ms", cyc_median(&CycleResult::deserialize_ms), "ms"},
    };
    for (const Metric& m : layer) {
      if (!std::isfinite(m.value) || m.value < 0.0) {
        fail("per-layer metric " + m.name + " could not be measured");
      }
    }
  }

  // The record that makes results comparable: machine shape, scheme, sync
  // mode, seed, operation counts, the single-threaded reference and (traced
  // runs) the end-to-end figures to set against untraced ones.
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %d, \"cpu_model\": \"%s\", \"ckpt_fs\": \"%s\", "
      "\"scheme\": \"%s\", \"sync\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
      "\"reference_tuples\": %llu, \"reference_fold_s\": %.6f, "
      "\"reference_tps\": %.1f, \"e2e\": %s}}\n",
      w.name.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, nproc(), cpu_model().c_str(), fs_type(opt.dir).c_str(),
      mode_name(w.mode), storage::sync_mode_name(kSync),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(reference_n), reference_s,
      static_cast<double>(reference_n) / reference_s,
      metrics_json(e2e, false).c_str());
  fs::remove_all(base);
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(opt.trace ? layer : e2e, true).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace ftbench

int main(int argc, char** argv) {
  ftbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) ftbench::fail("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--seconds") opt.seconds = std::stoi(next());
    else if (a == "--trace") opt.trace = next() != "0";
    else if (a == "--dir") opt.dir = next();
    else if (a == "--trace-dir") opt.trace_dir = next();
    else if (a == "--ft-off") opt.ft_off = true;
    else ftbench::fail("unknown argument " + a);
  }
  if (!opt.ft_off && (opt.workload.empty() || opt.dir.empty() || opt.seconds < 1)) {
    ftbench::fail(
        "usage: ftbench --workload W --seed N --seconds S --trace 0|1 --dir D "
        "[--trace-dir T]");
  }
  ms::set_log_level(ms::LogLevel::kError);
  return opt.ft_off ? ftbench::run_ft_off(opt) : ftbench::run(opt);
}
