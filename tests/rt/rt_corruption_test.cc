// Corruption drills (ctest label: corruption): inject every class of disk
// damage — at-rest bit rot, torn log tails, power loss around the manifest
// rename — against a live delta chain, and prove the acceptance property of
// the durable tier: corrupted bytes NEVER become wrong recovered state. The
// runtime either falls back to an older verifiable epoch (and the source-log
// replay makes the result exact anyway) or returns a typed kDataLoss verdict
// with every byte left in place for msverify forensics.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../testing/rt_feed.h"
#include "../testing/test_ops.h"
#include "common/metrics_registry.h"
#include "failure/disk_fault.h"
#include "ft/durable_layout.h"
#include "ft/rt_runtime.h"
#include "ft/verify.h"
#include "rt/engine.h"
#include "storage/durable_file.h"

namespace ms::ft {
namespace {

namespace fs = std::filesystem;
using ms::failure::DiskFaultInjector;
using ms::failure::flip_bit_in_file;
using ms::failure::truncate_file_to;
using ms::testing::ExternalFeed;
using ms::testing::FeedSource;
using ms::testing::int_codec;
using ms::testing::IntPayload;
using ms::testing::RecordingSink;
using ms::testing::wait_drained;
using ms::testing::wait_for;
using ms::testing::wait_quiescent;

/// Keyed running sums with delta support — the minimal stateful op whose
/// full-state bytes are deterministic (ordered map) for exactness checks.
class DeltaSum final : public core::Operator {
 public:
  explicit DeltaSum(std::string name) : core::Operator(std::move(name)) {}

  void process(int, const core::Tuple& t, core::OperatorContext& ctx) override {
    const auto* p = t.payload_as<IntPayload>();
    MS_CHECK(p != nullptr);
    const std::int64_t key = p->value % 8;
    table_[key] += p->value;
    dirty_.insert(key);
    ctx.emit(0, t);
  }

  Bytes state_size() const override {
    return 8 + static_cast<Bytes>(table_.size()) * 16;
  }
  Bytes state_delta_size() const override {
    return 8 + static_cast<Bytes>(dirty_.size()) * 16;
  }

  void serialize_state(BinaryWriter& w) const override {
    w.write<std::uint64_t>(table_.size());
    for (const auto& [k, v] : table_) {
      w.write(k);
      w.write(v);
    }
  }
  void deserialize_state(BinaryReader& r) override {
    clear_state();
    const auto n = r.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = r.read<std::int64_t>();
      table_[k] = r.read<std::int64_t>();
    }
  }
  void clear_state() override {
    table_.clear();
    dirty_.clear();
  }

  bool supports_delta() const override { return true; }
  void serialize_delta(BinaryWriter& w) const override {
    w.write<std::uint64_t>(dirty_.size());
    for (const std::int64_t k : dirty_) {
      w.write(k);
      w.write(table_.at(k));
    }
  }
  void apply_delta(BinaryReader& r) override {
    const auto n = r.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = r.read<std::int64_t>();
      table_[k] = r.read<std::int64_t>();
    }
  }
  void mark_checkpointed() override { dirty_.clear(); }

  const std::map<std::int64_t, std::int64_t>& table() const { return table_; }

 private:
  std::map<std::int64_t, std::int64_t> table_;
  std::set<std::int64_t> dirty_;
};

core::QueryGraph sum_chain(std::shared_ptr<ExternalFeed> feed) {
  core::QueryGraph g;
  const int src = g.add_source("src", [feed] {
    return std::make_unique<FeedSource>("src", feed, SimTime::micros(200), 4);
  });
  const int sum =
      g.add_operator("sum", [] { return std::make_unique<DeltaSum>("sum"); });
  const int sink =
      g.add_sink("sink", [] { return std::make_unique<RecordingSink>("sink"); });
  g.connect(src, sum);
  g.connect(sum, sink);
  return g;
}

constexpr int kSumOp = 1;
constexpr int kSinkOp = 2;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

RtRuntimeConfig drill_config(const std::string& dir, MetricsRegistry* metrics,
                             int compact_every = 100) {
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcApDelta;
  cfg.dir = dir;
  cfg.params.periodic = false;
  cfg.params.delta_compact_every = compact_every;
  cfg.codec = int_codec();
  cfg.metrics = metrics;
  return cfg;
}

bool take_checkpoint(RtRuntime& runtime, std::uint64_t completed_so_far) {
  if (!runtime.begin_checkpoint().is_ok()) return false;
  return runtime.wait_checkpoints(completed_so_far + 1, SimTime::seconds(10));
}

void expect_sink_exact(rt::RtEngine& engine, std::int64_t n) {
  const auto& sink = static_cast<const RecordingSink&>(engine.op(kSinkOp));
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(sink.values[static_cast<std::size_t>(i)], i)
        << "wrong/duplicated value at position " << i;
  }
}

void expect_table_exact(rt::RtEngine& engine, std::int64_t total) {
  const auto& sum = static_cast<const DeltaSum&>(engine.op(kSumOp));
  std::map<std::int64_t, std::int64_t> expect;
  for (std::int64_t v = 0; v < total; ++v) expect[v % 8] += v;
  EXPECT_EQ(sum.table(), expect);
}

/// Run one incarnation: base + two deltas on disk, then a clean crash with
/// the feed fenced at a known cursor. Returns the total tuple count.
std::int64_t seed_chain(std::shared_ptr<ExternalFeed> feed,
                        const RtRuntimeConfig& cfg, int checkpoints = 3) {
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  EXPECT_TRUE(runtime.start().is_ok());
  wait_drained(engine, 100);
  std::uint64_t done = 0;
  for (int i = 0; i < checkpoints - 1; ++i) {
    EXPECT_TRUE(take_checkpoint(runtime, done));
    ++done;
    wait_drained(engine, engine.sink_tuples() + 100);
  }
  feed->paused.store(true);
  wait_quiescent(engine);
  EXPECT_TRUE(take_checkpoint(runtime, done));
  const std::int64_t total = feed->cursor.load();
  runtime.simulate_crash();
  runtime.stop();
  return total;
}

/// Bit well inside the payload of a framed artifact.
constexpr std::uint64_t payload_bit(std::uint64_t byte = 2, int bit = 1) {
  return (storage::kArtifactHeaderSize + byte) * 8 +
         static_cast<std::uint64_t>(bit);
}

// --- at-rest bit rot against the chain -------------------------------------

// A flipped bit in a mid-chain delta poisons every epoch chained on it; the
// ladder falls back to the oldest epoch (the full base), and log replay
// still makes the result exact.
TEST(RtCorruptionTest, BitFlippedMidChainDeltaFallsBackToTheBase) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_delta"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  ASSERT_TRUE(
      flip_bit_in_file(cfg.dir + "/epoch_2/op_1.delta", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  // Both epoch 3 (chains through the damage) and epoch 2 (carries it) were
  // rejected before epoch 1 verified.
  EXPECT_GE(reg.counter("ft.recovery.fallbacks")->value(), 2);
  EXPECT_GE(reg.counter("ft.recovery.corrupt_artifacts")->value(), 1);
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// Corruption in the tip's own blob costs exactly one epoch: the intact
// base + first delta still verify.
TEST(RtCorruptionTest, CorruptTipBlobRollsBackOneEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_tip"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  ASSERT_TRUE(
      flip_bit_in_file(cfg.dir + "/epoch_3/op_1.delta", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  EXPECT_EQ(reg.counter("ft.recovery.fallbacks")->value(), 1);
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
  // The rejected tip was proven unusable and removed; the survivor chain
  // (base + delta 2) is still committed.
  EXPECT_FALSE(fs::exists(cfg.dir + "/epoch_3"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));
}

// A corrupt MANIFEST is spotted at scan time (CRC, not a parse accident):
// the epoch is classified corrupt, counted, and recovery uses the previous
// committed epoch.
TEST(RtCorruptionTest, CorruptTipManifestFallsBackToPreviousEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_manifest"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_3/MANIFEST", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // constructor scan classifies the damage
  EXPECT_GE(reg.counter("ft.scan.corrupt_manifests")->value(), 1);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 2u);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// The reason compaction keeps the superseded chain's base as a fallback
// rung: when the fresh full epoch itself rots, recovery climbs down to the
// rung instead of facing an empty directory.
TEST(RtCorruptionTest, CorruptCompactionFallsBackToTheRetainedRung) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_rung"), &reg,
                                /*compact_every=*/2);
  // full(1), delta(2), delta(3), full compaction(4) -> epoch_4 + rung epoch_1.
  const std::int64_t total = seed_chain(feed, cfg, /*checkpoints=*/4);
  ASSERT_TRUE(wait_for([&cfg] {
    return !fs::exists(cfg.dir + "/epoch_2") &&
           !fs::exists(cfg.dir + "/epoch_3");
  }));
  ASSERT_TRUE(fs::exists(cfg.dir + "/epoch_1/MANIFEST"));  // the rung

  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_4/op_1.ckpt", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 1u);
  EXPECT_GE(reg.counter("ft.recovery.fallbacks")->value(), 1);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// When EVERY copy is damaged, the runtime must not invent state: typed
// kDataLoss, and every byte still on disk for msverify forensics.
TEST(RtCorruptionTest, AllCopiesCorruptIsTypedDataLossNotWrongState) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_all"), &reg);
  (void)seed_chain(feed, cfg);

  // The base blob underpins every candidate's chain closure.
  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_1/op_1.ckpt", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  // Forensics intact: nothing was deleted on the failing path.
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_1/MANIFEST"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_3/MANIFEST"));
  // And msverify points at exactly the damaged file.
  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  ASSERT_FALSE(report.clean());
  bool flagged = false;
  for (const auto& issue : report.issues) {
    flagged |= issue.path == cfg.dir + "/epoch_1/op_1.ckpt";
  }
  EXPECT_TRUE(flagged);
}

// --- the exhaustive sweep: every artifact, one flipped bit ------------------

// For EVERY durable artifact in a committed chain, a single flipped bit must
// (a) be flagged by the scrub at exactly that file, and (b) recover to either
// the exact state or a typed kDataLoss — never a silently wrong result.
TEST(RtCorruptionTest, EveryArtifactBitFlipIsCaughtAndNeverWrongState) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry seed_reg;
  const std::string pristine = fresh_dir("ms_corr_sweep_pristine");
  const auto seed_cfg = drill_config(pristine, &seed_reg);
  const std::int64_t total = seed_chain(feed, seed_cfg);

  // Every framed artifact of the chain (source logs have their own tail
  // drill below — mid-log damage costs records by design, like any WAL).
  std::vector<std::string> targets;
  for (const auto& entry : fs::recursive_directory_iterator(pristine)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "MANIFEST" || entry.path().extension() == ".ckpt" ||
        entry.path().extension() == ".delta") {
      targets.push_back(fs::relative(entry.path(), pristine).string());
    }
  }
  ASSERT_GE(targets.size(), 8u);  // 3 epochs x (manifest + blobs)

  for (const std::string& rel : targets) {
    MetricsRegistry reg;
    const auto cfg = drill_config(fresh_dir("ms_corr_sweep"), &reg);
    fs::copy(pristine, cfg.dir, fs::copy_options::recursive);
    const std::string target = cfg.dir + "/" + rel;
    ASSERT_TRUE(flip_bit_in_file(target, payload_bit())) << rel;

    // (a) the scrub names exactly the damaged file.
    const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
    ASSERT_FALSE(report.clean()) << rel;
    for (const auto& issue : report.issues) {
      EXPECT_EQ(issue.path, target) << "scrub flagged the wrong file";
    }

    // (b) recovery: exact or typed, never wrong.
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    const Status st = runtime.recover(nullptr);
    if (st.is_ok()) {
      wait_quiescent(engine);
      runtime.stop();
      expect_sink_exact(engine, total);
      expect_table_exact(engine, total);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << rel << ": "
                                                  << st.to_string();
    }
  }
}

// --- torn source-log tails --------------------------------------------------

// A crash mid-append leaves a half frame at the log's tail. The next
// incarnation's scan truncates to the last whole frame, counts it, and the
// replay is exact — and the scrub comes back clean afterwards (the torn
// bytes never resurface under later appends).
TEST(RtCorruptionTest, TornLogTailIsTruncatedCountedAndReplaysExactly) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_torn"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  // The torn tail: a frame header promising more bytes than the file holds.
  {
    std::ofstream out(cfg.dir + "/source_0.log",
                      std::ios::binary | std::ios::app);
    const char garbage[] = "\xff\xff\xff\xff\xde\xad\xbe";
    out.write(garbage, sizeof(garbage) - 1);
  }
  const ScrubReport before = scrub_checkpoint_dir(cfg.dir);
  EXPECT_FALSE(before.clean());  // msverify sees the tear too

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // constructor scan truncates the tail
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 1);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
}

// A frame whose CRC checks out but which is too short to hold a record is
// damage all the same. msverify's scrub and the runtime's scan apply one
// frame rule set, so both see the tear at the same offset.
TEST(RtCorruptionTest, ScrubAndScanAgreeOnAShortCrcValidFrame) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_shortframe"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);
  const std::string path = cfg.dir + "/source_0.log";
  const auto whole = fs::file_size(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const std::uint8_t body[kLogFrameFixed - 1] = {};
    const std::uint32_t len = sizeof(body);
    const std::uint32_t crc = storage::crc32c(body, sizeof(body));
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out.write(reinterpret_cast<const char*>(body), sizeof(body));
  }
  const ScrubReport before = scrub_checkpoint_dir(cfg.dir);
  ASSERT_EQ(before.issues.size(), 1u);
  EXPECT_EQ(before.issues.front().path, path);
  EXPECT_NE(before.issues.front().detail.find(
                "past offset " + std::to_string(whole)),
            std::string::npos)
      << before.issues.front().detail;

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // the scan cuts the log at the same spot
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 1);
  EXPECT_EQ(fs::file_size(path), whole);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
}

// --- transient source-log read errors ----------------------------------------

// A transient read error on a source log during recovery must abort
// retryably (kUnavailable) — completing "successfully" would replay zero
// records, silently losing every tuple past the checkpoint boundary. And the
// failed read must not relabel the log's format or truncate it: the bytes
// are intact and the retry recovers exactly.
TEST(RtCorruptionTest, TransientLogReadErrorAbortsRecoveryRetryably) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_logread"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);
  const auto log_size = fs::file_size(cfg.dir + "/source_0.log");

  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  DiskFaultInjector::Options sticky;
  sticky.sticky = true;
  faults.arm_read(storage::ArtifactKind::kSourceLog,
                  storage::ReadFault::kError, 0, sticky);

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // the constructor scan also fails to read
  const Status st = runtime.recover(nullptr);
  ASSERT_FALSE(st.is_ok()) << "recovery must not silently replay nothing";
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
  // The unreadable log is byte-identical: no torn-tail truncation and no
  // format relabeling happened off the failed read.
  EXPECT_EQ(fs::file_size(cfg.dir + "/source_0.log"), log_size);
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);

  // The fault clears and the same runtime recovers exactly.
  faults.clear();
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// --- failed source-log appends -----------------------------------------------

// A failed append leaves the emitted tuple absent from the replay log. That
// window must be observable while the process is alive — counted and
// reflected in health() — and must close once a committed checkpoint
// boundary covers the lost index on every retained epoch.
TEST(RtCorruptionTest, FailedLogAppendDegradesHealthUntilCovered) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  // Compaction every other epoch: epochs alternate full and delta.
  auto cfg = drill_config(fresh_dir("ms_corr_append"), &reg,
                          /*compact_every=*/1);
  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_TRUE(wait_drained(engine, 50));
  EXPECT_TRUE(runtime.health().is_ok());

  DiskFaultInjector::Options sticky;
  sticky.sticky = true;
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kError, 0, sticky);
  ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 20));
  faults.clear();
  EXPECT_GE(reg.counter("ft.log.append_failures")->value(), 1);
  EXPECT_EQ(runtime.health().code(), StatusCode::kDataLoss);

  // Checkpoints advance every retained boundary past the gap; commit-time
  // truncation then closes the window.
  std::uint64_t done = 0;
  for (int i = 0; i < 3 && !runtime.health().is_ok(); ++i) {
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 20));
    ASSERT_TRUE(take_checkpoint(runtime, done));
    ++done;
  }
  EXPECT_TRUE(runtime.health().is_ok()) << runtime.health().to_string();
  runtime.stop();
}

// A torn append (part of one frame lands, success is not reported) must not
// stay in the middle of the log: later appends would bury it, and every
// scan and truncation would stop there, silently dropping every record
// appended after it. The runtime cuts the file back to the last whole frame,
// so once checkpoints cover the lost index the recovery is exact.
TEST(RtCorruptionTest, TornLogAppendIsCutBackAndLaterRecordsSurvive) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_tornappend"), &reg);
  cfg.mode = RtMode::kSrcAp;  // full epochs: every commit moves the boundary
  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  std::int64_t total = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    ASSERT_TRUE(wait_drained(engine, 50));
    // One append lands only its length and half its CRC; the next succeed.
    faults.arm_write(storage::ArtifactKind::kSourceLog,
                     storage::WriteFault::kTorn, /*offset=*/6);
    ASSERT_TRUE(wait_for([&faults] { return faults.injected() == 1; }));
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 50));
    EXPECT_EQ(reg.counter("ft.log.append_failures")->value(), 1);
    EXPECT_EQ(runtime.health().code(), StatusCode::kDataLoss);
    std::uint64_t done = 0;
    for (int i = 0; i < 3 && !runtime.health().is_ok(); ++i) {
      ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 20));
      ASSERT_TRUE(take_checkpoint(runtime, done));
      ++done;
    }
    ASSERT_TRUE(runtime.health().is_ok()) << runtime.health().to_string();
    // A replay suffix past the last boundary, then the crash.
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 50));
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.simulate_crash();
    runtime.stop();
  }
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// A crash fault on a log append fires after the whole frame was written. The
// dead process must not cut its own last record back off: the source keeps
// appending after the crash point, and recovery replays that record like any
// other, so the result is exact.
TEST(RtCorruptionTest, CrashDuringLogAppendKeepsTheWholeFrame) {
  for (const auto fault : {storage::WriteFault::kCrashBeforeRename,
                           storage::WriteFault::kCrashAfterRename}) {
    const bool before = fault == storage::WriteFault::kCrashBeforeRename;
    SCOPED_TRACE(before ? "kCrashBeforeRename" : "kCrashAfterRename");
    auto feed = std::make_shared<ExternalFeed>();
    MetricsRegistry reg;
    auto cfg = drill_config(
        fresh_dir(before ? "ms_corr_appcrash_pre" : "ms_corr_appcrash_post"),
        &reg);
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    std::int64_t total = 0;
    {
      rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
      RtRuntime runtime(&engine, cfg);
      faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
      ASSERT_TRUE(runtime.start().is_ok());
      ASSERT_TRUE(wait_drained(engine, 50));
      ASSERT_TRUE(take_checkpoint(runtime, 0));
      ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 50));
      faults.arm_write(storage::ArtifactKind::kSourceLog, fault);
      ASSERT_TRUE(wait_for([&faults] { return faults.injected() == 1; }));
      EXPECT_TRUE(runtime.crashed());
      ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 50));
      feed->paused.store(true);
      wait_quiescent(engine);
      total = feed->cursor.load();
      runtime.stop();
    }
    EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());

    cfg.disk_faults = nullptr;
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    const Status st = runtime.recover(nullptr);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    wait_quiescent(engine);
    runtime.stop();
    expect_sink_exact(engine, total);
    expect_table_exact(engine, total);
  }
}

// --- commit-time log truncation ----------------------------------------------

/// Every whole, CRC-valid frame of a checksummed source log: index ->
/// on-disk bytes (header and payload). A frame still being appended at the
/// tail is left out.
std::map<std::uint64_t, std::vector<std::uint8_t>> log_frames(
    const std::string& path) {
  std::map<std::uint64_t, std::vector<std::uint8_t>> frames;
  storage::ReadFile file;
  EXPECT_TRUE(file.open(path, storage::ArtifactKind::kSourceLog,
                        storage::DurableOptions{})
                  .is_ok());
  bool checksummed = false;
  EXPECT_TRUE(is_checksummed_log(&file, &checksummed).is_ok());
  EXPECT_TRUE(checksummed);
  LogFrameWalker walk(&file, kLogFileHeaderSize, file.size());
  while (walk.next() == LogFrameWalker::Step::kFrame && walk.crc_ok()) {
    auto& bytes = frames[walk.index()];
    bytes.resize(static_cast<std::size_t>(walk.frame_end() - walk.offset()));
    std::size_t got = 0;
    EXPECT_TRUE(
        file.read_at(walk.offset(), bytes.data(), bytes.size(), &got).is_ok());
    EXPECT_EQ(got, bytes.size());
  }
  return frames;
}

/// The lowest replay boundary of `op` over every committed epoch on disk —
/// the first record a commit-time truncation must keep.
std::uint64_t min_retained_boundary(const std::string& dir, int op) {
  std::uint64_t bound = ~std::uint64_t{0};
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string manifest = entry.path().string() + "/MANIFEST";
    if (!fs::exists(manifest)) continue;
    std::vector<std::uint8_t> payload;
    EXPECT_TRUE(storage::read_artifact(manifest,
                                       storage::ArtifactKind::kManifest,
                                       storage::DurableOptions{}, &payload)
                    .is_ok());
    const auto m = decode_manifest(payload, manifest);
    EXPECT_TRUE(m.is_ok());
    bound = std::min(bound,
                     m.value().ops[static_cast<std::size_t>(op)].boundary);
  }
  return bound;
}

// Truncation copies the live suffix raw while the source keeps appending.
// After every commit the log must hold exactly the records from the lowest
// retained boundary on, gapless, each frame byte-identical to what was
// appended — across delta chains, compactions and fallback rungs.
TEST(RtCorruptionTest, TruncationUnderLiveSourceKeepsExactlyTheLiveSuffix) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_livecut"), &reg,
                                /*compact_every=*/2);
  const std::string path = cfg.dir + "/source_0.log";
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_TRUE(wait_drained(engine, 100));
  std::map<std::uint64_t, std::vector<std::uint8_t>> seen;
  for (std::uint64_t done = 0; done < 6; ++done) {
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
    ASSERT_TRUE(take_checkpoint(runtime, done));  // the feed keeps running
    const std::uint64_t bound = min_retained_boundary(cfg.dir, 0);
    const auto frames = log_frames(path);
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.begin()->first, bound) << "after commit " << done + 1;
    std::uint64_t expect = frames.begin()->first;
    for (const auto& [index, bytes] : frames) {
      ASSERT_EQ(index, expect) << "gap after commit " << done + 1;
      ++expect;
      const auto [it, fresh] = seen.emplace(index, bytes);
      if (!fresh) {
        ASSERT_EQ(it->second, bytes) << "record " << index << " changed";
      }
    }
  }
  feed->paused.store(true);
  wait_quiescent(engine);
  runtime.stop();
  const auto frames = log_frames(path);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.rbegin()->first,
            static_cast<std::uint64_t>(feed->cursor.load()) - 1);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
}

// A truncation whose write fails, or whose process dies before the rename,
// leaves the old log exactly as it was; the next commit retries the cut and
// recovery stays exact either way.
TEST(RtCorruptionTest, FailedLogTruncationKeepsTheOldLogAndRetries) {
  for (const auto fault : {storage::WriteFault::kError,
                           storage::WriteFault::kCrashBeforeRename}) {
    SCOPED_TRACE(fault == storage::WriteFault::kError ? "kError"
                                                      : "kCrashBeforeRename");
    const bool crash = fault == storage::WriteFault::kCrashBeforeRename;
    auto feed = std::make_shared<ExternalFeed>();
    MetricsRegistry reg;
    auto cfg = drill_config(
        fresh_dir(crash ? "ms_corr_cutcrash" : "ms_corr_cuterr"), &reg,
        /*compact_every=*/1);
    // Full epochs and no fallback rung: every commit moves the truncation
    // boundary.
    cfg.mode = RtMode::kSrcAp;
    cfg.params.retain_fallback_epochs = 0;
    const std::string path = cfg.dir + "/source_0.log";
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    std::int64_t total = 0;
    {
      rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
      RtRuntime runtime(&engine, cfg);
      faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
      ASSERT_TRUE(runtime.start().is_ok());
      ASSERT_TRUE(wait_drained(engine, 100));
      ASSERT_TRUE(take_checkpoint(runtime, 0));
      ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
      // With the feed paused the next source-log write is the truncation.
      feed->paused.store(true);
      wait_quiescent(engine);
      const auto before = log_frames(path);
      const auto before_size = fs::file_size(path);
      faults.arm_write(storage::ArtifactKind::kSourceLog, fault);
      ASSERT_TRUE(take_checkpoint(runtime, 1));
      EXPECT_EQ(faults.injected(), 1);
      EXPECT_EQ(runtime.last_durable_epoch(), 2u);  // the commit itself held
      EXPECT_EQ(runtime.crashed(), crash);
      EXPECT_EQ(fs::file_size(path), before_size);
      EXPECT_EQ(log_frames(path), before);
      if (!crash) {
        EXPECT_FALSE(fs::exists(path + ".tmp"));
        // The next commit retries the cut.
        feed->paused.store(false);
        ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
        ASSERT_TRUE(take_checkpoint(runtime, 2));
        const auto frames = log_frames(path);
        ASSERT_FALSE(frames.empty());
        EXPECT_EQ(frames.begin()->first, min_retained_boundary(cfg.dir, 0));
        EXPECT_GT(frames.begin()->first, before.begin()->first);
        feed->paused.store(true);
        wait_quiescent(engine);
        runtime.simulate_crash();
      } else {
        EXPECT_TRUE(fs::exists(path + ".tmp"));  // a dead process cleans up nothing
      }
      total = feed->cursor.load();
      runtime.stop();
    }
    cfg.disk_faults = nullptr;
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);  // the scan drops a dead cut's temp file
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    ASSERT_TRUE(runtime.recover(nullptr).is_ok());
    wait_quiescent(engine);
    runtime.stop();
    expect_sink_exact(engine, total);
    expect_table_exact(engine, total);
  }
}

// --- gapless replay ------------------------------------------------------------

// A replay suffix with a record missing from its middle — every remaining
// frame CRC-valid, so no scan can see the damage — must not replay around
// the hole: recovery returns a typed, counted kDataLoss.
TEST(RtCorruptionTest, ReplayGapIsDataLossNotAShortReplay) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_gap"), &reg);
  const std::string path = cfg.dir + "/source_0.log";
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    ASSERT_TRUE(wait_drained(engine, 100));
    ASSERT_TRUE(take_checkpoint(runtime, 0));
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
    feed->paused.store(true);
    wait_quiescent(engine);
    runtime.simulate_crash();
    runtime.stop();
  }
  const std::uint64_t boundary = min_retained_boundary(cfg.dir, 0);
  const auto frames = log_frames(path);
  ASSERT_GE(frames.size(), 20u);
  const std::uint64_t drop = frames.rbegin()->first - 10;
  ASSERT_GT(drop, boundary);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&kLogFileMagic), 4);
    out.write(reinterpret_cast<const char*>(&kLogFileVersion), 4);
    for (const auto& [index, bytes] : frames) {
      if (index == drop) continue;
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }
  ASSERT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
  const auto size = fs::file_size(path);

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  ASSERT_FALSE(st.is_ok()) << "a replay with a hole must not succeed";
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_EQ(reg.counter("ft.recovery.replay_gaps")->value(), 1);
  EXPECT_EQ(fs::file_size(path), size);  // left in place for forensics
}

// --- truncated baseline unit files -------------------------------------------

// A baseline checkpoint truncated at rest below the 4-byte magic sniffs as
// "legacy"; it must still read as kDataLoss, not silently restore the
// operator from empty state.
TEST(RtCorruptionTest, BaselineCheckpointTruncatedAtRestIsDataLoss) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_basetrunc"), &reg);
  cfg.mode = RtMode::kBaseline;
  cfg.params.checkpoint_period = SimTime::millis(20);
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    ASSERT_TRUE(wait_drained(engine, 100));
    ASSERT_TRUE(wait_for([&cfg] {
      return fs::exists(cfg.dir + "/baseline/op_1.ckpt");
    }));
    feed->paused.store(true);
    runtime.stop();
  }
  ASSERT_TRUE(truncate_file_to(cfg.dir + "/baseline/op_1.ckpt", 3));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  ASSERT_FALSE(st.is_ok()) << "truncated baseline must not restore empty";
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_GE(reg.counter("ft.recovery.corrupt_artifacts")->value(), 1);
}

// --- power loss around the manifest rename ----------------------------------

// Dying before the rename: the commit point was never reached, the epoch
// directory is incomplete, and the next incarnation discards it and recovers
// from the previous epoch — the log window covers the difference.
TEST(RtCorruptionTest, PowerLossBeforeManifestRenameLosesOnlyTheEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_preloss"), &reg);

  std::int64_t total = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    RtRuntime runtime(&engine, cfg);
    faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));
    wait_drained(engine, engine.sink_tuples() + 100);
    feed->paused.store(true);
    wait_quiescent(engine);
    faults.arm_write(storage::ArtifactKind::kManifest,
                     storage::WriteFault::kCrashBeforeRename);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(wait_for([&runtime] { return runtime.crashed(); }))
        << "crash point never reached";
    EXPECT_EQ(runtime.last_durable_epoch(), 1u);
    total = feed->cursor.load();
    runtime.stop();
  }
  ASSERT_FALSE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 1u);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// Dying right after the rename: the commit landed even though the writer
// never observed it. The next incarnation finds the epoch committed and
// recovers from it — the rename really is the commit point, in both
// directions.
TEST(RtCorruptionTest, PowerLossAfterManifestRenameCommitsTheEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_postloss"), &reg);

  std::int64_t total = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    RtRuntime runtime(&engine, cfg);
    faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));
    wait_drained(engine, engine.sink_tuples() + 100);
    feed->paused.store(true);
    wait_quiescent(engine);
    faults.arm_write(storage::ArtifactKind::kManifest,
                     storage::WriteFault::kCrashAfterRename);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(wait_for([&runtime] { return runtime.crashed(); }))
        << "crash point never reached";
    total = feed->cursor.load();
    runtime.stop();
  }
  ASSERT_TRUE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 2u);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// --- backward compatibility -------------------------------------------------

/// Strip the MSDF frame from an artifact, leaving the pre-checksum file.
void strip_frame(const std::string& path, storage::ArtifactKind kind) {
  std::vector<std::uint8_t> payload;
  const Status st = storage::read_artifact(path, kind,
                                           storage::DurableOptions{}, &payload);
  ASSERT_TRUE(st.is_ok()) << path << ": " << st.to_string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
}

/// Rewrite a new-format log ([MSLG header][len][crc][payload]...) as the
/// pre-checksum format ([len][payload]...).
void downgrade_log(const std::string& path) {
  const auto frames = log_frames(path);
  std::uint64_t whole = kLogFileHeaderSize;
  for (const auto& [index, bytes] : frames) whole += bytes.size();
  ASSERT_EQ(fs::file_size(path), whole) << "torn tail";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const auto& [index, bytes] : frames) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(bytes.size() - kLogFrameHeaderSize);
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write(reinterpret_cast<const char*>(bytes.data() + kLogFrameHeaderSize),
              static_cast<std::streamsize>(len));
  }
}

// A checkpoint directory written before the framing existed (no MSDF
// headers, no MSLG log header, no CRCs) recovers byte-identically: readers
// treat the whole file as the payload and the scrub reports it legacy, not
// corrupt.
TEST(RtCorruptionTest, LegacyPreChecksumDirectoryStillRecovers) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_legacy"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  // Downgrade every artifact on disk to the pre-checksum format.
  for (const auto& entry : fs::recursive_directory_iterator(cfg.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    const std::string name = entry.path().filename().string();
    if (name == "MANIFEST") {
      strip_frame(path, storage::ArtifactKind::kManifest);
    } else if (entry.path().extension() == ".ckpt") {
      strip_frame(path, storage::ArtifactKind::kCheckpoint);
    } else if (entry.path().extension() == ".delta") {
      strip_frame(path, storage::ArtifactKind::kDelta);
    } else if (entry.path().extension() == ".log") {
      downgrade_log(path);
    }
  }
  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.legacy, 0);

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// --- the happy path, for contrast -------------------------------------------

TEST(RtCorruptionTest, CleanDirectoryScrubsClean) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_clean"), &reg);
  (void)seed_chain(feed, cfg);

  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  EXPECT_TRUE(report.clean()) << (report.issues.empty()
                                      ? ""
                                      : report.issues.front().path + ": " +
                                            report.issues.front().detail);
  EXPECT_EQ(report.epochs, 3);
  EXPECT_GT(report.artifacts, 0);
  EXPECT_GT(report.verified_bytes, 0u);
  EXPECT_EQ(report.legacy, 0);
  // A directory that never existed is vacuously clean, not an error.
  EXPECT_TRUE(scrub_checkpoint_dir("/nonexistent/nowhere").clean());
}

}  // namespace
}  // namespace ms::ft
