// The benchmark's own application: a generated key/value input, the three
// operators of the measured chain (gen source -> keyed aggregate -> sink),
// and the independent reference the outputs are checked against.
//
// The operators time themselves (emit, process, serialize, deserialize)
// only when a run is traced; untraced runs pay one branch per tuple.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/operator.h"
#include "core/query_graph.h"
#include "ft/rt_runtime.h"

namespace ftbench {

using ms::Bytes;
using ms::SimTime;

/// The tuple content: one key and one value.
class KvPayload final : public ms::core::Payload {
 public:
  KvPayload(std::uint32_t key, std::uint32_t value) : key(key), value(value) {}
  ms::Bytes byte_size() const override { return 16; }
  const char* type_name() const override { return "kv"; }
  const std::uint32_t key;
  const std::uint32_t value;
};

/// Source-log codec for KvPayload, so preserved tuples survive a restart.
ms::ft::TupleCodec kv_codec();

/// How the input is made: `table` generated (key, value) pairs, read in a
/// cycle by input position. Keys follow key = floor(keys * u^skew) for a
/// uniform u, scattered over the key space by an odd multiplier, so skew 1
/// is uniform and larger skews concentrate traffic on fewer keys.
struct InputSpec {
  std::uint32_t keys = 1024;         // key space (power of two)
  std::uint32_t table = 1u << 20;    // distinct positions (power of two)
  double skew = 1.0;
};

class Input {
 public:
  Input(const InputSpec& spec, std::uint64_t seed);
  std::uint32_t key(std::uint64_t i) const { return keys_[i & mask_]; }
  std::uint32_t value(std::uint64_t i) const { return values_[i & mask_]; }
  std::uint32_t key_space() const { return spec_.keys; }
  const InputSpec& spec() const { return spec_; }

 private:
  InputSpec spec_;
  std::uint64_t mask_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> values_;
};

/// Checksum term of one delivered tuple (id and content).
inline std::uint64_t tuple_mix(std::uint64_t id, std::uint32_t key,
                               std::uint32_t value) {
  std::uint64_t x = id * 0x9E3779B97F4A7C15ULL ^
                    ((static_cast<std::uint64_t>(key) << 32) | value);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

/// Timings the operators collect in traced runs. Written by engine threads,
/// read by the benchmark after the engine stopped (or under `mu`).
struct OpTimings {
  std::atomic<bool> on{false};
  // Source.
  std::atomic<std::int64_t> emit_ns{0};
  std::atomic<std::int64_t> emits{0};
  std::atomic<std::int64_t> stall_max_ns{0};
  // Aggregate.
  std::atomic<std::int64_t> process_ns{0};
  std::atomic<std::int64_t> processed{0};
  std::mutex mu;
  std::vector<double> gen_lag_ms;       // guarded by mu
  std::vector<double> serialize_ms;     // guarded by mu
  std::vector<double> deserialize_ms;   // guarded by mu (incl. deltas)
};

/// The external world of the source: the input and a cursor that moves
/// forward across engine incarnations. The benchmark releases input by
/// raising `limit`; the source emits positions [cursor, limit).
struct Feed {
  explicit Feed(const Input* input) : input(input) {}
  const Input* input;
  std::atomic<std::uint64_t> cursor{0};
  std::atomic<std::uint64_t> limit{0};
  /// Tuples per second; 0 = back-to-back (zero-period timer, bursts).
  double rate = 0.0;
  /// Set by the benchmark when it releases paced input: the source restarts
  /// its schedule at the next tick (due(i) = origin + (i - origin_index)/rate).
  std::atomic<bool> reorigin{true};
};

/// Latency samples taken at the sink while the window is open, kept per
/// round so that percentiles can be taken round by round.
struct LatencyLog {
  enum class Clock { kEventTime, kSinceMark };
  static constexpr int kMaxRounds = 4096;
  LatencyLog() : rounds(kMaxRounds) {}
  std::atomic<bool> on{false};
  /// The round samples go to; the benchmark advances it.
  std::atomic<int> round{0};
  Clock clock = Clock::kEventTime;
  /// kSinceMark: steady-clock ns the latency is measured from (a recovery's
  /// start).
  std::atomic<std::int64_t> mark_ns{0};
  /// Sample tuples whose source_seq has these low bits clear (0 = all).
  std::uint64_t mask = 0;
  std::vector<std::vector<float>> rounds;  // sink thread only while running
};

struct Shared {
  std::shared_ptr<Feed> feed;
  std::shared_ptr<OpTimings> timings;
  std::shared_ptr<LatencyLog> latency;
  bool delta = false;  // the aggregate supports delta checkpoints
};

/// gen: emits the feed. Back-to-back mode re-arms with a zero period after
/// every burst (the engine_throughput source shape) and polls every
/// kIdlePeriod while it has no input; paced mode wakes every kPacedTick and
/// emits every tuple already due, stamped with its due time, so the schedule
/// never slows when the engine does.
class GenSource final : public ms::core::Operator {
 public:
  static constexpr std::uint64_t kBurst = 2048;
  static constexpr SimTime kIdlePeriod = SimTime::micros(200);
  /// 5 ms bursts of ~1000 tuples at 200k/s: with a 1 ms tick the p50 latency
  /// was mostly wake-up jitter and spread 0.2-0.4 between identical runs.
  static constexpr SimTime kPacedTick = SimTime::millis(5);

  explicit GenSource(std::shared_ptr<Shared> sh)
      : Operator("gen"), sh_(std::move(sh)) {}
  void on_open(ms::core::OperatorContext& ctx) override;
  void process(int, const ms::core::Tuple&, ms::core::OperatorContext&) override {}
  Bytes state_size() const override { return 8; }
  void serialize_state(ms::BinaryWriter& w) const override;
  void deserialize_state(ms::BinaryReader& r) override;

 private:
  void arm(ms::core::OperatorContext& ctx, SimTime delay);
  void tick(ms::core::OperatorContext& ctx);
  void emit_one(ms::core::OperatorContext& ctx, std::uint64_t i,
                SimTime event_time, bool timed);

  std::shared_ptr<Shared> sh_;
  std::int64_t origin_ns_ = 0;
  std::uint64_t origin_index_ = 0;
  std::int64_t armed_at_ns_ = 0;
  std::int64_t last_emit_ns_ = 0;
};

/// Per-key aggregate cell.
struct AggCell {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  bool operator==(const AggCell&) const = default;
};

/// agg: keyed count and sum over a dense key space; forwards every tuple.
/// Delta-capable when Shared::delta: a delta is the cells mutated since the
/// last cut.
class AggOp final : public ms::core::Operator {
 public:
  explicit AggOp(std::shared_ptr<Shared> sh);
  void process(int, const ms::core::Tuple& t,
               ms::core::OperatorContext& ctx) override;
  Bytes state_size() const override {
    return static_cast<Bytes>(cells_.size() * sizeof(AggCell));
  }
  void serialize_state(ms::BinaryWriter& w) const override;
  void deserialize_state(ms::BinaryReader& r) override;
  void clear_state() override;
  bool supports_delta() const override { return sh_->delta; }
  Bytes state_delta_size() const override {
    return static_cast<Bytes>(dirty_list_.size() * (4 + sizeof(AggCell)));
  }
  void serialize_delta(ms::BinaryWriter& w) const override;
  void apply_delta(ms::BinaryReader& r) override;
  void mark_checkpointed() override;

  const std::vector<AggCell>& cells() const { return cells_; }

 private:
  void touch(std::uint32_t key);

  std::shared_ptr<Shared> sh_;
  std::vector<AggCell> cells_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint32_t> dirty_list_;
};

/// What the sink has seen, checkpointed with it.
struct SinkState {
  std::uint64_t count = 0;
  std::uint64_t next_seq = 1;     // the in-order cursor of source 0
  std::uint64_t disorder = 0;     // tuples that broke the per-source order
  std::uint64_t checksum = 0;     // sum of tuple_mix over delivered tuples
};

/// sink: counts, checksums and order-checks every delivered tuple, and logs
/// its latency while the window is open.
class SinkOp final : public ms::core::Operator {
 public:
  explicit SinkOp(std::shared_ptr<Shared> sh)
      : Operator("sink"), sh_(std::move(sh)) {}
  void process(int, const ms::core::Tuple& t,
               ms::core::OperatorContext& ctx) override;
  Bytes state_size() const override { return sizeof(SinkState); }
  void serialize_state(ms::BinaryWriter& w) const override { w.write(state_); }
  void deserialize_state(ms::BinaryReader& r) override {
    state_ = r.read<SinkState>();
    restored_count_ = state_.count;
  }
  void clear_state() override {
    state_ = SinkState{};
    restored_count_ = 0;
  }
  const SinkState& state() const { return state_; }
  /// Tuple count of the checkpoint this instance was restored from.
  std::uint64_t restored_count() const { return restored_count_; }

 private:
  std::shared_ptr<Shared> sh_;
  SinkState state_;
  std::uint64_t restored_count_ = 0;
};

enum Ops : int { kGen = 0, kAgg = 1, kSink = 2 };

/// gen -> agg -> sink.
ms::core::QueryGraph make_graph(std::shared_ptr<Shared> sh);

/// The independent reference: a single-threaded fold over input positions
/// [0, n), no engine involved.
struct Reference {
  std::uint64_t n = 0;
  std::vector<AggCell> agg;
  std::uint64_t checksum = 0;
  double fold_seconds = 0.0;
};
Reference fold_reference(const Input& input, std::uint64_t n);

/// Compare final operator and sink state against the reference. Returns an
/// empty string when they match, else what differs.
std::string check_outputs(const Reference& ref, const std::vector<AggCell>& agg,
                          const SinkState& sink);

/// Feed the checker a correct run and four broken ones (a dropped tuple, a
/// duplicated tuple, a reordered pair, a mutated aggregate) through the real
/// operator code. Returns an empty string when the clean run passes and
/// every broken one is rejected.
std::string self_test_checker();

}  // namespace ftbench
