#include "app.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/rng.h"

namespace ftbench {

namespace core = ms::core;

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const KvPayload& kv_of(const core::Tuple& t) {
  return static_cast<const KvPayload&>(*t.payload);
}

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v)) {
  }
}

}  // namespace

ms::ft::TupleCodec kv_codec() {
  ms::ft::TupleCodec codec;
  codec.encode_payload = [](const core::Payload& p, ms::BinaryWriter& w) {
    const auto& kv = static_cast<const KvPayload&>(p);
    w.write<std::uint32_t>(kv.key);
    w.write<std::uint32_t>(kv.value);
  };
  codec.decode_payload =
      [](ms::BinaryReader& r) -> std::shared_ptr<const core::Payload> {
    const auto key = r.read<std::uint32_t>();
    const auto value = r.read<std::uint32_t>();
    return std::make_shared<KvPayload>(key, value);
  };
  return codec;
}

Input::Input(const InputSpec& spec, std::uint64_t seed)
    : spec_(spec), mask_(spec.table - 1) {
  ms::Rng rng(seed);
  keys_.resize(spec.table);
  values_.resize(spec.table);
  // An odd multiplier permutes a power-of-two key space, so the hot keys of
  // the skewed draw are scattered rather than adjacent.
  const std::uint32_t scatter = 0x9E3779B1u;
  for (std::uint32_t i = 0; i < spec.table; ++i) {
    const double u = rng.uniform();
    auto k = static_cast<std::uint32_t>(
        static_cast<double>(spec.keys) * std::pow(u, spec.skew));
    k = std::min(k, spec.keys - 1);
    keys_[i] = (k * scatter) & (spec.keys - 1);
    values_[i] = static_cast<std::uint32_t>(rng.next() >> 40);
  }
}

// --- gen --------------------------------------------------------------------

void GenSource::on_open(core::OperatorContext& ctx) {
  sh_->feed->reorigin.store(true);
  last_emit_ns_ = 0;
  arm(ctx, SimTime::zero());
}

void GenSource::serialize_state(ms::BinaryWriter& w) const {
  w.write<std::uint64_t>(sh_->feed->cursor.load());
}

void GenSource::deserialize_state(ms::BinaryReader& r) {
  (void)r.read<std::uint64_t>();  // the feed does not rewind
}

void GenSource::arm(core::OperatorContext& ctx, SimTime delay) {
  armed_at_ns_ = ctx.now().ns() + delay.ns();
  ctx.schedule(delay, [this](core::OperatorContext& c) { tick(c); });
}

void GenSource::emit_one(core::OperatorContext& ctx, std::uint64_t i,
                         SimTime event_time, bool timed) {
  const Input& in = *sh_->feed->input;
  core::Tuple t;
  t.wire_size = 32;
  t.event_time = event_time;  // zero: the engine stamps the emit time
  t.payload = std::make_shared<KvPayload>(in.key(i), in.value(i));
  if (!timed) {
    ctx.emit(0, std::move(t));
    return;
  }
  const std::int64_t t0 = steady_ns();
  ctx.emit(0, std::move(t));
  const std::int64_t t1 = steady_ns();
  OpTimings& tm = *sh_->timings;
  tm.emit_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
  tm.emits.fetch_add(1, std::memory_order_relaxed);
  if (last_emit_ns_ != 0) atomic_max(tm.stall_max_ns, t1 - last_emit_ns_);
  last_emit_ns_ = t1;
}

void GenSource::tick(core::OperatorContext& c) {
  Feed& f = *sh_->feed;
  OpTimings& tm = *sh_->timings;
  const bool timed = tm.on.load(std::memory_order_relaxed);
  const std::uint64_t cur = f.cursor.load(std::memory_order_relaxed);
  const std::uint64_t lim = f.limit.load(std::memory_order_acquire);
  const std::int64_t now = c.now().ns();

  if (f.rate <= 0.0) {
    const std::uint64_t end = std::max(
        cur, std::min(lim, cur + kBurst));
    if (timed && end > cur) {
      // Back-to-back: the schedule is "now"; lag is the timer's lateness.
      std::scoped_lock lk(tm.mu);
      tm.gen_lag_ms.push_back(static_cast<double>(now - armed_at_ns_) / 1e6);
    }
    for (std::uint64_t i = cur; i < end; ++i) {
      emit_one(c, i, SimTime::zero(), timed);
    }
    f.cursor.store(end, std::memory_order_release);
    if (end == cur) last_emit_ns_ = 0;  // idle: the next gap is not a stall
    arm(c, end > cur ? SimTime::zero() : kIdlePeriod);
    return;
  }

  if (f.reorigin.exchange(false)) {
    origin_ns_ = now;
    origin_index_ = cur;
    last_emit_ns_ = 0;
  }
  const double ns_per = 1e9 / f.rate;
  const auto due_count = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(now - origin_ns_) / ns_per)) + 1;
  const std::uint64_t end =
      std::max(cur, std::min(lim, origin_index_ + due_count));
  std::vector<double> lags;
  const std::int64_t steady0 = timed ? steady_ns() : 0;
  for (std::uint64_t i = cur; i < end; ++i) {
    const std::int64_t due =
        origin_ns_ +
        static_cast<std::int64_t>(static_cast<double>(i - origin_index_) * ns_per);
    if (timed) {
      const std::int64_t at = now + (steady_ns() - steady0);
      lags.push_back(static_cast<double>(at - due) / 1e6);
    }
    emit_one(c, i, SimTime::nanos(std::max<std::int64_t>(due, 1)), timed);
  }
  f.cursor.store(end, std::memory_order_release);
  if (end == cur && lim <= cur) last_emit_ns_ = 0;
  if (!lags.empty()) {
    std::scoped_lock lk(tm.mu);
    tm.gen_lag_ms.insert(tm.gen_lag_ms.end(), lags.begin(), lags.end());
  }
  arm(c, kPacedTick);
}

// --- agg --------------------------------------------------------------------

AggOp::AggOp(std::shared_ptr<Shared> sh)
    : Operator("agg"), sh_(std::move(sh)) {
  const std::size_t k = sh_->feed->input->key_space();
  cells_.assign(k, AggCell{});
  if (sh_->delta) dirty_.assign(k, 0);
}

void AggOp::touch(std::uint32_t key) {
  if (dirty_[key] == 0) {
    dirty_[key] = 1;
    dirty_list_.push_back(key);
  }
}

void AggOp::process(int, const core::Tuple& t, core::OperatorContext& ctx) {
  const KvPayload& kv = kv_of(t);
  OpTimings& tm = *sh_->timings;
  // Traced runs time one tuple in 16: the update is a few ns, so timing
  // every one would mostly measure the clock.
  const bool timed =
      (t.source_seq & 15) == 0 && tm.on.load(std::memory_order_relaxed);
  const std::int64_t t0 = timed ? steady_ns() : 0;
  AggCell& cell = cells_[kv.key];
  ++cell.count;
  cell.sum += kv.value;
  if (sh_->delta) touch(kv.key);
  if (timed) {
    tm.process_ns.fetch_add(steady_ns() - t0, std::memory_order_relaxed);
    tm.processed.fetch_add(1, std::memory_order_relaxed);
  }
  ctx.emit(0, t);
}

void AggOp::serialize_state(ms::BinaryWriter& w) const {
  const std::int64_t t0 = steady_ns();
  w.write<std::uint64_t>(cells_.size());
  w.write_bytes(cells_.data(), cells_.size() * sizeof(AggCell));
  if (sh_->timings->on.load()) {
    std::scoped_lock lk(sh_->timings->mu);
    sh_->timings->serialize_ms.push_back(
        static_cast<double>(steady_ns() - t0) / 1e6);
  }
}

void AggOp::deserialize_state(ms::BinaryReader& r) {
  const std::int64_t t0 = steady_ns();
  const auto n = r.read<std::uint64_t>();
  cells_.assign(n, AggCell{});
  r.read_bytes(cells_.data(), n * sizeof(AggCell));
  if (sh_->timings->on.load()) {
    std::scoped_lock lk(sh_->timings->mu);
    sh_->timings->deserialize_ms.push_back(
        static_cast<double>(steady_ns() - t0) / 1e6);
  }
}

void AggOp::clear_state() {
  std::fill(cells_.begin(), cells_.end(), AggCell{});
  std::fill(dirty_.begin(), dirty_.end(), 0);
  dirty_list_.clear();
}

void AggOp::serialize_delta(ms::BinaryWriter& w) const {
  w.write<std::uint64_t>(dirty_list_.size());
  for (const std::uint32_t k : dirty_list_) {
    w.write<std::uint32_t>(k);
    w.write(cells_[k]);
  }
}

void AggOp::apply_delta(ms::BinaryReader& r) {
  const std::int64_t t0 = steady_ns();
  const auto n = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto k = r.read<std::uint32_t>();
    cells_.at(k) = r.read<AggCell>();
  }
  if (sh_->timings->on.load()) {
    std::scoped_lock lk(sh_->timings->mu);
    sh_->timings->deserialize_ms.push_back(
        static_cast<double>(steady_ns() - t0) / 1e6);
  }
}

void AggOp::mark_checkpointed() {
  for (const std::uint32_t k : dirty_list_) dirty_[k] = 0;
  dirty_list_.clear();
}

// --- sink -------------------------------------------------------------------

void SinkOp::process(int, const core::Tuple& t, core::OperatorContext& ctx) {
  const KvPayload& kv = kv_of(t);
  if (t.source_seq == state_.next_seq) {
    ++state_.next_seq;
  } else {
    ++state_.disorder;
    state_.next_seq = std::max(state_.next_seq, t.source_seq + 1);
  }
  ++state_.count;
  state_.checksum += tuple_mix(t.id, kv.key, kv.value);
  LatencyLog& lat = *sh_->latency;
  if (lat.on.load(std::memory_order_relaxed) && (t.source_seq & lat.mask) == 0) {
    const std::int64_t ns =
        lat.clock == LatencyLog::Clock::kEventTime
            ? (ctx.now() - t.event_time).ns()
            : steady_ns() - lat.mark_ns.load(std::memory_order_relaxed);
    const int r = std::min(lat.round.load(std::memory_order_relaxed),
                           LatencyLog::kMaxRounds - 1);
    lat.rounds[static_cast<std::size_t>(r)].push_back(
        static_cast<float>(static_cast<double>(ns) / 1e6));
  }
}

// --- graph, reference, checker ----------------------------------------------

core::QueryGraph make_graph(std::shared_ptr<Shared> sh) {
  core::QueryGraph g;
  const int gen = g.add_source(
      "gen", [sh] { return std::make_unique<GenSource>(sh); });
  const int agg =
      g.add_operator("agg", [sh] { return std::make_unique<AggOp>(sh); });
  const int sink =
      g.add_sink("sink", [sh] { return std::make_unique<SinkOp>(sh); });
  g.connect(gen, agg);
  g.connect(agg, sink);
  return g;
}

Reference fold_reference(const Input& input, std::uint64_t n) {
  const auto t0 = std::chrono::steady_clock::now();
  Reference ref;
  ref.n = n;
  ref.agg.assign(input.key_space(), AggCell{});
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t k = input.key(i);
    const std::uint32_t v = input.value(i);
    AggCell& c = ref.agg[k];
    ++c.count;
    c.sum += v;
    // Source operator 0 stamps ids make_id(0, seq) = seq, seq = i + 1.
    ref.checksum += tuple_mix(i + 1, k, v);
  }
  ref.fold_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  return ref;
}

std::string check_outputs(const Reference& ref, const std::vector<AggCell>& agg,
                          const SinkState& sink) {
  if (sink.count != ref.n) {
    return "sink count " + std::to_string(sink.count) + " != input " +
           std::to_string(ref.n);
  }
  if (sink.disorder != 0) {
    return "sink saw " + std::to_string(sink.disorder) +
           " tuples out of per-source order";
  }
  if (sink.next_seq != ref.n + 1) {
    return "sink sequence ends at " + std::to_string(sink.next_seq - 1) +
           ", input at " + std::to_string(ref.n);
  }
  if (sink.checksum != ref.checksum) return "sink id/content checksum differs";
  if (agg.size() != ref.agg.size()) return "aggregate key space differs";
  for (std::size_t k = 0; k < agg.size(); ++k) {
    if (!(agg[k] == ref.agg[k])) {
      return "aggregate of key " + std::to_string(k) + " is (" +
             std::to_string(agg[k].count) + ", " + std::to_string(agg[k].sum) +
             "), reference (" + std::to_string(ref.agg[k].count) + ", " +
             std::to_string(ref.agg[k].sum) + ")";
    }
  }
  return "";
}

namespace {

/// Minimal context for driving operators outside an engine.
class StubContext final : public core::OperatorContext {
 public:
  SimTime now() const override { return SimTime::nanos(1); }
  ms::Rng& rng() override { return rng_; }
  void emit(int, core::Tuple&&) override {}
  int num_out_ports() const override { return 1; }
  int num_in_ports() const override { return 1; }
  void schedule(SimTime, std::function<void(core::OperatorContext&)>) override {}
  void charge(SimTime) override {}
  int hau_id() const override { return 0; }

 private:
  ms::Rng rng_;
};

}  // namespace

std::string self_test_checker() {
  InputSpec spec;
  spec.keys = 64;
  spec.table = 256;
  spec.skew = 2.0;
  const Input input(spec, 7);
  constexpr std::uint64_t kN = 1000;
  const Reference ref = fold_reference(input, kN);

  auto sh = std::make_shared<Shared>();
  sh->feed = std::make_shared<Feed>(&input);
  sh->timings = std::make_shared<OpTimings>();
  sh->latency = std::make_shared<LatencyLog>();

  // Runs the real aggregate and sink over input positions `order`.
  auto run = [&](const std::vector<std::uint64_t>& order,
                 std::vector<AggCell>* agg_out) {
    AggOp agg(sh);
    SinkOp sink(sh);
    StubContext ctx;
    for (const std::uint64_t i : order) {
      core::Tuple t;
      t.source_seq = i + 1;
      t.id = core::Tuple::make_id(0, i + 1);
      t.payload = std::make_shared<KvPayload>(input.key(i), input.value(i));
      agg.process(0, t, ctx);
      sink.process(0, t, ctx);
    }
    *agg_out = agg.cells();
    return sink.state();
  };
  std::vector<std::uint64_t> clean(kN);
  for (std::uint64_t i = 0; i < kN; ++i) clean[i] = i;

  std::vector<AggCell> agg;
  const SinkState good = run(clean, &agg);
  if (const std::string why = check_outputs(ref, agg, good); !why.empty()) {
    return "checker rejected a correct run: " + why;
  }
  struct Broken {
    const char* name;
    std::vector<std::uint64_t> order;
  };
  std::vector<Broken> broken;
  broken.push_back({"a dropped tuple", clean});
  broken.back().order.erase(broken.back().order.begin() + 500);
  broken.push_back({"a duplicated tuple", clean});
  broken.back().order.insert(broken.back().order.begin() + 500, 500);
  broken.push_back({"a reordered tuple", clean});
  std::swap(broken.back().order[500], broken.back().order[501]);
  for (const Broken& b : broken) {
    std::vector<AggCell> a;
    const SinkState s = run(b.order, &a);
    if (check_outputs(ref, a, s).empty()) {
      return std::string("checker accepted ") + b.name;
    }
  }
  std::vector<AggCell> mutated = agg;
  mutated[input.key(7)].sum += 1;
  if (check_outputs(ref, mutated, good).empty()) {
    return "checker accepted a mutated key aggregate";
  }
  return "";
}

}  // namespace ftbench
