// The kernel's event order (docs/PERF.md "Engine kernel").
//
// detail::CalendarQueue orders events for both Engine and MultiEngine.
// Its contract is the strict (tick, seq) order a binary heap gives, so
// the oracle here is a test-local std::priority_queue fed the same
// seeded event stream — including ticks beyond the ring (the overflow
// spill) and same-tick pushes made mid-drain (the collapsed Baseline's
// zero-delay serial forward) — under both drain protocols the kernels
// use. The engine-level tests pin the RunMetrics of the overflow-spill
// and max_ticks abort paths to the values the heap and calendar
// schedulers agreed on when both existed, and check that a run aborted
// with events still queued leaves nothing behind for the engine's next
// run.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bytecode/assembler.hpp"
#include "cache/hash.hpp"
#include "fabric/dataflow_graph.hpp"
#include "obs/event_tracer.hpp"
#include "sim/engine.hpp"
#include "sim/engine_internal.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;
using sim::detail::Bucket;
using sim::detail::CalendarQueue;
using sim::detail::Event;
using sim::detail::EventAfter;

// ---- queue oracle ----

// Emplaces the same events into the calendar and the reference heap
// and checks every pop, field for field, against the heap's top. Every
// event carries random payload fields, so a slot written in place with
// a field missing or swapped shows up as a mismatch. Each dispatched
// event may schedule follow-ups: zero-delay (same tick, behind the
// drain point), short in-ring delays, and delays far past the ring
// (overflow spill).
class Oracle {
 public:
  explicit Oracle(std::uint64_t seed) : rng_(seed) {}

  void push(std::int64_t tick) {
    Event ev;
    ev.tick = tick;
    ev.node = static_cast<std::int32_t>(pushed_++);
    ev.aux = static_cast<std::int32_t>(rng_() % 1000) - 500;
    ev.prod = static_cast<std::int32_t>(rng_() % 1000) - 1;
    ev.res = static_cast<std::uint16_t>(rng_());
    ev.kind_side = static_cast<std::uint8_t>(rng_());
    ev.cmd = static_cast<net::Command>(rng_() % 4);
    ev.seq = cal.emplace(ev.tick, ev.kind_side, ev.node, ev.aux, ev.prod,
                         ev.res, ev.cmd);
    ASSERT_EQ(ev.seq, pushed_ - 1);  // seq is stamped in call order
    ref_.push(ev);
  }

  // A burst of events at random ticks from `base`, some beyond the ring.
  void seed_wave(std::int64_t base, int n) {
    for (int i = 0; i < n; ++i) push(base + delay());
  }

  // Checks one popped event against the heap and schedules follow-ups.
  void dispatch(const Event& ev, std::int64_t now) {
    ASSERT_FALSE(ref_.empty());
    const Event want = ref_.top();
    ref_.pop();
    ASSERT_EQ(ev.tick, now);
    ASSERT_EQ(ev.tick, want.tick) << "pop " << popped_;
    ASSERT_EQ(ev.seq, want.seq) << "pop " << popped_;
    ASSERT_EQ(ev.node, want.node) << "pop " << popped_;
    ASSERT_EQ(ev.aux, want.aux) << "pop " << popped_;
    ASSERT_EQ(ev.prod, want.prod) << "pop " << popped_;
    ASSERT_EQ(ev.res, want.res) << "pop " << popped_;
    ASSERT_EQ(ev.kind_side, want.kind_side) << "pop " << popped_;
    ASSERT_EQ(ev.cmd, want.cmd) << "pop " << popped_;
    ++popped_;
    if (pushed_ >= kBudget) return;
    const int followups = static_cast<int>(rng_() % 4);
    for (int i = 0; i < followups; ++i) push(now + delay());
  }

  bool done() const { return ref_.empty(); }
  std::int64_t pushed() const { return pushed_; }
  std::int64_t popped() const { return popped_; }

  CalendarQueue cal;

 private:
  static constexpr std::int64_t kBudget = 20'000;

  std::int64_t delay() {
    const std::uint64_t r = rng_() % 100;
    if (r < 20) return 0;                                  // zero-delay
    if (r < 85) return static_cast<std::int64_t>(rng_() % 48);  // in ring
    return 64 + static_cast<std::int64_t>(rng_() % 3000);  // spill
  }

  std::mt19937_64 rng_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> ref_;
  std::int64_t pushed_ = 0;
  std::int64_t popped_ = 0;
};

// Engine's protocol (Run::run_calendar): jump to the next pending tick,
// then drain that whole tick with an index scan that tolerates the
// bucket growing underneath it.
TEST(CalendarQueue, PerTickDrainMatchesHeapOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Oracle o(seed);
    o.cal.reset(64);  // the smallest ring: plenty of overflow traffic
    o.seed_wave(0, 200);
    while (o.cal.live() > 0) {
      o.cal.migrate_overflow();
      Bucket* bucket = &o.cal.current();
      while (bucket->empty()) {
        o.cal.advance_to(o.cal.next_pending_tick());
        bucket = &o.cal.current();
      }
      const std::int64_t now = o.cal.cursor();
      std::size_t i = 0;
      for (; i < bucket->size(); ++i) {
        o.dispatch((*bucket)[i], now);
        if (HasFatalFailure()) return;
      }
      o.cal.consumed(static_cast<std::int64_t>(i));
      o.cal.clear_current();
      o.cal.set_cursor(now + 1);
    }
    EXPECT_TRUE(o.done()) << "seed " << seed;
    EXPECT_EQ(o.popped(), o.pushed()) << "seed " << seed;
    EXPECT_GT(o.popped(), 10'000) << "seed " << seed;
  }
}

// MultiEngine's protocol (MultiEngine::Impl::run): the same per-tick
// index scan, but it pauses right after some events — as it does when
// a residency finishes — keeps the dispatched prefix, and resumes there
// (sometimes after pushing more events at the paused tick, as an
// admission does). Between waves the idle path clears the cursor's
// bucket and jumps the cursor ahead with advance_to().
TEST(CalendarQueue, SingleEventDrainMatchesHeapOrder) {
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    Oracle o(seed);
    o.cal.reset(64);
    std::mt19937_64 pause(seed);
    std::size_t pos = 0;
    int pauses = 0;
    for (int wave = 0; wave < 3; ++wave) {
      o.seed_wave(o.cal.cursor(), 150);
      while (o.cal.live() > 0) {
        Bucket& bucket = o.cal.current();
        if (pos < bucket.size()) {
          const std::size_t from = pos;
          bool paused = false;
          do {
            const Event ev = bucket[pos++];
            o.dispatch(ev, o.cal.cursor());
            if (HasFatalFailure()) return;
            paused = pause() % 8 == 0;
          } while (pos < bucket.size() && !paused);
          o.cal.consumed(static_cast<std::int64_t>(pos - from));
          if (paused) {
            ++pauses;
            if (pause() % 2 == 0) o.push(o.cal.cursor());
          }
          continue;
        }
        o.cal.clear_current();
        pos = 0;
        if (o.cal.live() == 0) break;
        o.cal.advance_to(o.cal.next_pending_tick());
      }
      o.cal.clear_current();
      pos = 0;
      o.cal.advance_to(o.cal.cursor() + 500);
    }
    EXPECT_TRUE(o.done()) << "seed " << seed;
    EXPECT_EQ(o.popped(), o.pushed()) << "seed " << seed;
    EXPECT_GT(pauses, 100) << "seed " << seed;
  }
}

// A cursor jump over pending events must migrate the spilled ones whose
// tick entered the window before anything is pushed there: an event
// pushed later at the same tick has a larger seq and must come after.
TEST(CalendarQueue, CursorJumpKeepsSpilledEventsFirst) {
  CalendarQueue q;
  q.reset(64);
  // Tick 100 is beyond the window [0, 64): overflow.
  const std::int64_t spilled = q.emplace(100, 0, /*node=*/1);
  q.advance_to(90);  // 100 is now inside [90, 154)
  const std::int64_t later = q.emplace(100, 0, /*node=*/2);
  ASSERT_GT(later, spilled);
  EXPECT_EQ(q.next_pending_tick(), 100);
  q.advance_to(100);
  const Bucket& bucket = q.current();
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket[0].node, 1);
  EXPECT_EQ(bucket[0].seq, spilled);
  EXPECT_EQ(bucket[1].node, 2);
  EXPECT_EQ(bucket[1].seq, later);
}

TEST(CalendarQueue, ResetDropsPendingEventsAndRewinds) {
  CalendarQueue q;
  q.reset(64);
  for (std::int64_t t : {0, 5, 63, 64, 5000}) q.emplace(t, 0, -1);
  EXPECT_EQ(q.live(), 5);
  EXPECT_EQ(q.next_pending_tick(), 5);
  q.reset(128);
  EXPECT_EQ(q.live(), 0);
  EXPECT_EQ(q.cursor(), 0);
  EXPECT_TRUE(q.current().empty());
  EXPECT_EQ(q.next_pending_tick(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(q.emplace(0, 0, -1), 0);  // the seq stamp rewinds too
  EXPECT_EQ(q.current().size(), 1u);
}

// ---- engine abort and spill paths ----

// A loop over an array load: backward transfer, TAIL replay, memory
// ordering, mesh traffic — the full §6.3 event mix.
Program loop_program() {
  Program p;
  Assembler a(p, "sched.loop(IA)I", "sched");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.aload(1).iload(0).op(Op::iaload).istore(0);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  p.methods.push_back(a.build());
  return p;
}

struct TracedRun {
  sim::RunMetrics metrics;
  std::string trace_digest;  // Chrome trace JSON, hex FNV digest
};

TracedRun traced_run(const sim::MachineConfig& cfg, const Program& p,
                     std::int64_t max_ticks = 4'000'000) {
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  sim::EngineOptions options;
  options.max_ticks = max_ticks;
  obs::EventTracer tracer;
  options.tracer = &tracer;
  sim::Engine engine(cfg, options);
  sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
  TracedRun out;
  out.metrics = engine.run(p.methods[0], graph, predictor);
  obs::TraceMeta meta;
  meta.method = p.methods[0].name;
  meta.config = cfg.name;
  meta.scenario = "BP-1";
  meta.serial_per_mesh = cfg.serial_per_mesh;
  meta.node_labels.assign(p.methods[0].code.size(), "n");
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer, meta);
  out.trace_digest = cache::to_hex(cache::hash_bytes(os.str()));
  return out;
}

TEST(SchedulerOverflow, EventsBeyondBucketHorizonStayOrdered) {
  // Ring latencies far past the 4096-bucket ceiling force every
  // MemoryRead ServiceDone (and the GPP exception path) through the
  // calendar's overflow spill.
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.ring.memory_read = 100'000;
  cfg.ring.gpp_service = 250'000;
  const TracedRun run = traced_run(cfg, loop_program());
  EXPECT_TRUE(run.metrics.completed);
  EXPECT_FALSE(run.metrics.timed_out);
  EXPECT_EQ(run.metrics.ticks, 1'800'415);
  EXPECT_EQ(run.metrics.instructions_fired, 68);
  EXPECT_EQ(run.trace_digest, "3de62af6434f05e51be33fb7eb7dc5f8");
}

TEST(SchedulerOverflow, MaxTicksAbortPathIsIdentical) {
  // The metrics the heap and calendar schedulers both produced.
  struct Pin {
    const char* config;
    bool timed_out;
    std::int64_t ticks;
    std::int64_t fired;
  };
  const Pin pins[] = {
      {"Baseline", true, 121, 44},
      {"Compact10", true, 127, 5},
      {"Compact2", true, 123, 16},
  };
  const Program p = loop_program();
  for (const Pin& pin : pins) {
    const TracedRun run =
        traced_run(sim::config_by_name(pin.config), p, /*max_ticks=*/120);
    EXPECT_EQ(run.metrics.timed_out, pin.timed_out) << pin.config;
    EXPECT_EQ(run.metrics.ticks, pin.ticks) << pin.config;
    EXPECT_EQ(run.metrics.instructions_fired, pin.fired) << pin.config;
  }
}

TEST(SchedulerOverflow, SlowRingAbortCombinesSpillAndTimeout) {
  // Timeout while the only pending events sit in the overflow spill:
  // the calendar must jump its cursor into the spill and abort there.
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.ring.memory_read = 100'000;
  const TracedRun run = traced_run(cfg, loop_program(), /*max_ticks=*/50'000);
  EXPECT_TRUE(run.metrics.timed_out);
  EXPECT_EQ(run.metrics.ticks, 200'043);
  EXPECT_EQ(run.metrics.instructions_fired, 5);
}

// ---- workspace reuse ----

// An engine's calendar outlives each run. A run that aborts at max_ticks
// leaves events pending in its ring buckets (with a slow ring, the
// memory read the cursor jumped to from the overflow spill), and the
// next run on the same engine must not see any of them: it traces
// exactly like the same run on a fresh engine.
TEST(SchedulerReuse, AbortedRunLeavesNoEventsBehind) {
  // A second, differently shaped method: straight-line index arithmetic
  // and one array load.
  Program p = loop_program();
  Assembler a(p, "sched.load(IA)I", "sched");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int);
  a.iload(0).iload(0).op(Op::imul).iload(0).op(Op::imul).iload(0);
  a.op(Op::imul).istore(0);
  a.aload(1).iload(0).op(Op::iaload).op(Op::ireturn);
  p.methods.push_back(a.build());
  const bytecode::Method& loop = p.methods[0];
  const bytecode::Method& load = p.methods[1];
  const fabric::DataflowGraph loop_graph =
      fabric::build_dataflow_graph(loop, p.pool);
  const fabric::DataflowGraph load_graph =
      fabric::build_dataflow_graph(load, p.pool);

  std::vector<sim::MachineConfig> configs = sim::table15_configs();
  sim::MachineConfig slow = sim::config_by_name("Compact2");
  slow.ring.memory_read = 100'000;
  configs.push_back(slow);

  struct Run {
    sim::RunMetrics metrics;
    std::vector<obs::TraceEvent> events;
  };
  for (const sim::MachineConfig& cfg : configs) {
    obs::EventTracer tracer;
    sim::EngineOptions options;
    options.max_ticks = 120;
    options.tracer = &tracer;
    const auto run = [&](sim::Engine& engine, const bytecode::Method& m,
                         const fabric::DataflowGraph& graph) {
      tracer.clear();
      sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
      Run out;
      out.metrics = engine.run(m, graph, predictor);
      out.events = tracer.events();
      return out;
    };

    sim::Engine fresh(cfg, options);
    const Run fresh_load = run(fresh, load, load_graph);

    sim::Engine reused(cfg, options);
    const Run first = run(reused, loop, loop_graph);
    ASSERT_TRUE(first.metrics.timed_out) << cfg.name;
    // Same method again: it walks the ring positions the aborted run
    // left occupied.
    const Run second = run(reused, loop, loop_graph);
    EXPECT_EQ(second.metrics, first.metrics) << cfg.name;
    EXPECT_EQ(second.events, first.events) << cfg.name;
    // A different method, with its own ring size.
    const Run reused_load = run(reused, load, load_graph);
    EXPECT_EQ(reused_load.metrics, fresh_load.metrics) << cfg.name;
    EXPECT_EQ(reused_load.events, fresh_load.events) << cfg.name;
  }
}

}  // namespace
}  // namespace javaflow
