// Multi-tenant serving core (docs/SERVING.md).
//
// The contract under test, in three layers:
//   * sim::MultiEngine — a single residency must reproduce Engine::run
//     bit for bit (RunMetrics field for field), any row-aligned shifted
//     residency must match modulo its slot offset, and co-resident
//     methods must genuinely overlap (ticks_res_2plus > 0) while every
//     completion stays deterministic; sealed (closed-form) transit must
//     reproduce pinned contended results, stuck residencies must end
//     classified, and ids must recycle past the 16-bit range;
//   * core::FabricManager — plan sharing across aligned residencies and
//     the persistent-engine execute path (tests/test_fabric_manager.cpp
//     holds the load/unload/GC edge cases);
//   * serve::FabricServer — seeded request streams, admission queueing,
//     LRU eviction, latency percentiles, and a bit-stable report digest
//     across repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "serve/request_stream.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/multi_engine.hpp"
#include "sim/plan.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;
using sim::BranchPredictor;
using sim::ExecPlan;
using sim::ExecPlanBuilder;
using sim::MultiEngine;
using sim::RunMetrics;

// A loop over an array load: backward transfer, TAIL replay, memory
// ordering, mesh traffic — the full §6.3 event mix.
Program loop_program() {
  Program p;
  Assembler a(p, "serve.loop(IA)I", "serve");
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

const workloads::Corpus& shared_corpus() {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  return corpus;
}

// The 65 hand-written kernels alone (the serve-hot corpus).
const workloads::Corpus& kernel_corpus() {
  static const workloads::Corpus corpus =
      workloads::make_corpus({/*seed=*/20141215, /*total_methods=*/0});
  return corpus;
}

RunMetrics single_run(const sim::MachineConfig& cfg,
                      const bytecode::Method& m, const ExecPlan& plan,
                      BranchPredictor::Scenario scenario) {
  sim::Engine engine(cfg);
  BranchPredictor predictor(scenario);
  return engine.run(m, plan, predictor);
}

RunMetrics multi_run(const sim::MachineConfig& cfg,
                     const bytecode::Method& m, const ExecPlan& plan,
                     std::int32_t phys_delta,
                     BranchPredictor::Scenario scenario) {
  sim::MultiEngineOptions options;
  options.max_ticks = 4'000'000;  // EngineOptions default
  MultiEngine engine(cfg, options);
  const sim::ResidentId id =
      engine.admit(m, plan, phys_delta, scenario, /*start_tick=*/0);
  EXPECT_GE(id, 0);
  while (engine.advance().has_value()) {
  }
  const sim::ResidentOutcome* out = engine.outcome(id);
  EXPECT_NE(out, nullptr);
  return out->metrics;
}

// ---- single-resident parity ----

// One residency at phys_delta 0 is the single-method engine: every
// RunMetrics field must agree, on every Table 15 config and scenario.
TEST(MultiEngineParity, SingleResidentMatchesEngineOnAllConfigs) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    for (const auto scenario : {BranchPredictor::Scenario::BP1,
                                BranchPredictor::Scenario::BP2}) {
      const RunMetrics ref = single_run(cfg, p.methods[0], plan, scenario);
      const RunMetrics got =
          multi_run(cfg, p.methods[0], plan, 0, scenario);
      ASSERT_EQ(got, ref) << cfg.name;
    }
  }
}

// The same parity over a real corpus slice: every method whose index is
// a multiple of the stride, on two structurally different configs.
TEST(MultiEngineParity, SingleResidentMatchesEngineOnCorpusStride) {
  const workloads::Corpus& corpus = shared_corpus();
  std::vector<sim::MachineConfig> configs;
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    if (cfg.name == "Compact2" || cfg.name == "Hetero2") {
      configs.push_back(cfg);
    }
  }
  ASSERT_EQ(configs.size(), 2u);
  ExecPlanBuilder builder;
  for (const sim::MachineConfig& cfg : configs) {
    for (std::size_t i = 0; i < corpus.program.methods.size(); i += 64) {
      const bytecode::Method& m = corpus.program.methods[i];
      const fabric::DataflowGraph graph =
          fabric::build_dataflow_graph(m, corpus.program.pool);
      ExecPlan plan;
      builder.build_into(plan, m, graph, nullptr, cfg);
      if (!plan.fits()) continue;
      for (const auto scenario : {BranchPredictor::Scenario::BP1,
                                  BranchPredictor::Scenario::BP2}) {
        const RunMetrics ref = single_run(cfg, m, plan, scenario);
        const RunMetrics got = multi_run(cfg, m, plan, 0, scenario);
        ASSERT_EQ(got, ref) << cfg.name << " " << m.name;
      }
    }
  }
}

// A row-aligned shift is invisible to the timing model: serial hops,
// anchor arithmetic, and (by the serpentine x-mirror argument in
// docs/SERVING.md) all Manhattan mesh distances are preserved, so the
// only field allowed to move is max_slot.
TEST(MultiEngineParity, RowAlignedShiftOnlyMovesMaxSlot) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    const std::int32_t phys_delta = 2 * cfg.width;  // two rows down
    RunMetrics ref =
        multi_run(cfg, p.methods[0], plan, 0, BranchPredictor::Scenario::BP1);
    const RunMetrics got = multi_run(cfg, p.methods[0], plan, phys_delta,
                                     BranchPredictor::Scenario::BP1);
    ASSERT_EQ(got.max_slot,
              ref.max_slot + phys_delta * std::max(cfg.idus_per_node, 1))
        << cfg.name;
    ref.max_slot = got.max_slot;
    ASSERT_EQ(got, ref) << cfg.name;
  }
}

// ---- serial forward lane ----

// A loop over 24 locals whose body is mostly long stretches of nodes
// that only relay the bundle: a 33-node arithmetic run with no local or
// memory access, register writes far from their readers, a forward
// branch, and an ordered memory read and write. Most serial hops take
// the kernels' pass-through exit.
Program pass_through_program() {
  Program p;
  Assembler a(p, "lane.stretch(IA)I", "lane");
  a.args({ValueType::Int, ValueType::Ref}).returns(ValueType::Int).locals(24);
  for (int r = 2; r < 24; ++r) a.iconst(r).istore(r);
  auto body = a.new_label(), skip = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.iload(2);
  for (int k = 1; k <= 16; ++k) a.iconst(k).op(Op::iadd);
  a.istore(4);
  a.iload(3).ifeq(skip);
  a.iinc(6, 1);
  a.bind(skip);
  a.aload(1).iload(0).op(Op::iaload).istore(5);
  a.aload(1).iload(0).iload(23).op(Op::iastore);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(4).iload(5).op(Op::iadd).op(Op::ireturn);
  p.methods.push_back(a.build());
  return p;
}

// The forward lane and the pass-through exit change no hop: ticks,
// serial messages and the Table 26 overlap are pinned per config and
// IDU packing (values produced before the lane existed; idus 4 also
// drives the execution-unit wait queue), and a lone residency matches
// Engine::run bit for bit in both scenarios.
TEST(ForwardLane, PassThroughStretchesArePinnedOnEveryConfig) {
  struct Pin {
    std::int64_t ticks, serial_messages, exec_1plus, exec_2plus;
  };
  // Table 15 order; BP1, idus_per_node 1 then 4.
  const Pin pins[6][2] = {
      {{492, 12906, 373, 130}, {501, 12906, 396, 169}},
      {{7187, 12906, 4444, 1525}, {5361, 12906, 4240, 1916}},
      {{3368, 12906, 1952, 836}, {2409, 12906, 1818, 952}},
      {{2116, 12906, 1109, 355}, {1457, 12906, 1055, 442}},
      {{3250, 12906, 1243, 282}, {1590, 12906, 1072, 375}},
      {{3141, 12906, 1221, 331}, {1602, 12906, 1025, 437}},
  };
  const Program p = pass_through_program();
  const bytecode::Method& m = p.methods[0];
  ASSERT_EQ(m.max_locals, 24);
  const fabric::DataflowGraph graph = fabric::build_dataflow_graph(m, p.pool);
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    for (const int idus : {1, 4}) {
      sim::MachineConfig cfg = configs[ci];
      cfg.idus_per_node = idus;
      const ExecPlan plan = ExecPlanBuilder().build(m, graph, nullptr, cfg);
      ASSERT_TRUE(plan.fits()) << cfg.name;
      for (const auto scenario : {BranchPredictor::Scenario::BP1,
                                  BranchPredictor::Scenario::BP2}) {
        const RunMetrics ref = single_run(cfg, m, plan, scenario);
        ASSERT_TRUE(ref.completed) << cfg.name << " idus " << idus;
        ASSERT_EQ(multi_run(cfg, m, plan, 0, scenario), ref)
            << cfg.name << " idus " << idus;
        if (scenario != BranchPredictor::Scenario::BP1) continue;
        const Pin& pin = pins[ci][idus == 1 ? 0 : 1];
        EXPECT_EQ(ref.ticks, pin.ticks) << cfg.name << " idus " << idus;
        EXPECT_EQ(ref.serial_messages, pin.serial_messages)
            << cfg.name << " idus " << idus;
        EXPECT_EQ(ref.ticks_exec_1plus, pin.exec_1plus)
            << cfg.name << " idus " << idus;
        EXPECT_EQ(ref.ticks_exec_2plus, pin.exec_2plus)
            << cfg.name << " idus " << idus;
      }
    }
  }
}

// ---- multi-tenant execution ----

// Two co-resident loops on disjoint rows genuinely overlap: some tick
// span has instructions from *distinct residencies* executing at once.
TEST(MultiEngineOverlap, CoResidentMethodsExecuteSimultaneously) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    MultiEngine engine(cfg);
    ASSERT_GE(engine.admit(p.methods[0], plan, 0,
                           BranchPredictor::Scenario::BP1, 0),
              0);
    ASSERT_GE(engine.admit(p.methods[0], plan, 2 * cfg.width,
                           BranchPredictor::Scenario::BP1, 0),
              0);
    int completions = 0;
    while (engine.advance().has_value()) ++completions;
    ASSERT_EQ(completions, 2) << cfg.name;
    const sim::MultiRunMetrics agg = engine.finish();
    EXPECT_GT(agg.ticks_res_2plus, 0) << cfg.name;
    EXPECT_GE(agg.ticks_res_1plus, agg.ticks_res_2plus) << cfg.name;
    EXPECT_GE(agg.ticks_exec_2plus, agg.ticks_res_2plus) << cfg.name;
    for (const sim::ResidentOutcome& out : agg.residents) {
      EXPECT_TRUE(out.metrics.completed) << cfg.name;
    }
  }
}

// Both residencies funnel MemRead/GPP traffic into the same four ring
// channels; a residency never waits on its own requests, so with a lone
// residency the wait is zero, and the aggregate equals the per-resident
// sum by construction.
TEST(MultiEngineOverlap, RingWaitsAppearOnlyUnderCoResidency) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[0];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);

  MultiEngine solo(cfg);
  solo.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  while (solo.advance().has_value()) {
  }
  const sim::MultiRunMetrics solo_agg = solo.finish();
  EXPECT_EQ(solo_agg.serial_wait_ticks, 0);
  EXPECT_EQ(solo_agg.mesh_wait_ticks, 0);
  EXPECT_EQ(solo_agg.ring_wait_ticks, 0);

  MultiEngine duo(cfg);
  duo.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  duo.admit(p.methods[0], plan, 2 * cfg.width,
            BranchPredictor::Scenario::BP1, 0);
  while (duo.advance().has_value()) {
  }
  const sim::MultiRunMetrics agg = duo.finish();
  std::int64_t serial = 0, mesh = 0, ring = 0;
  for (const sim::ResidentOutcome& out : agg.residents) {
    serial += out.serial_wait_ticks;
    mesh += out.mesh_wait_ticks;
    ring += out.ring_wait_ticks;
  }
  EXPECT_EQ(agg.serial_wait_ticks, serial);
  EXPECT_EQ(agg.mesh_wait_ticks, mesh);
  EXPECT_EQ(agg.ring_wait_ticks, ring);
  // Identical loops issuing identical ring requests at identical ticks:
  // the second residency must queue behind the first on some channel.
  EXPECT_GT(agg.ring_wait_ticks, 0);
}

// Repeated multi-tenant runs with the same admissions are bit-identical
// — outcome by outcome, aggregate by aggregate.
TEST(MultiEngineDeterminism, RepeatedRunsAreBitIdentical) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[1];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);

  auto run_once = [&] {
    MultiEngine engine(cfg);
    engine.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
    engine.admit(p.methods[0], plan, 2 * cfg.width,
                 BranchPredictor::Scenario::BP2, 3);
    engine.admit(p.methods[0], plan, 4 * cfg.width,
                 BranchPredictor::Scenario::BP1, 17);
    std::vector<sim::ResidentId> order;
    std::optional<sim::ResidentId> done;
    while ((done = engine.advance()).has_value()) order.push_back(*done);
    return std::make_pair(order, engine.finish());
  };
  const auto [order_a, agg_a] = run_once();
  const auto [order_b, agg_b] = run_once();
  ASSERT_EQ(order_a, order_b);
  ASSERT_EQ(agg_a.residents.size(), agg_b.residents.size());
  for (std::size_t i = 0; i < agg_a.residents.size(); ++i) {
    EXPECT_EQ(agg_a.residents[i].metrics, agg_b.residents[i].metrics) << i;
    EXPECT_EQ(agg_a.residents[i].completed_tick,
              agg_b.residents[i].completed_tick)
        << i;
  }
  EXPECT_EQ(agg_a.fabric_ticks, agg_b.fabric_ticks);
  EXPECT_EQ(agg_a.ticks_res_2plus, agg_b.ticks_res_2plus);
  EXPECT_EQ(agg_a.serial_wait_ticks, agg_b.serial_wait_ticks);
  EXPECT_EQ(agg_a.mesh_wait_ticks, agg_b.mesh_wait_ticks);
  EXPECT_EQ(agg_a.ring_wait_ticks, agg_b.ring_wait_ticks);
}

// advance(until) pauses at the requested tick; admissions interleaved
// at the pause point behave exactly like admissions made up front.
TEST(MultiEngineDeterminism, PausedAdmissionsMatchUpfrontAdmissions) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[0];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);

  MultiEngine upfront(cfg);
  upfront.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  upfront.admit(p.methods[0], plan, 2 * cfg.width,
                BranchPredictor::Scenario::BP1, 40);
  while (upfront.advance().has_value()) {
  }
  const sim::MultiRunMetrics ref = upfront.finish();

  MultiEngine paused(cfg);
  paused.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  // Drain strictly below tick 40, then admit the second residency as a
  // serving frontend would on request arrival.
  while (paused.advance(40).has_value()) {
  }
  EXPECT_EQ(paused.now(), 40);
  paused.admit(p.methods[0], plan, 2 * cfg.width,
               BranchPredictor::Scenario::BP1, 40);
  while (paused.advance().has_value()) {
  }
  const sim::MultiRunMetrics got = paused.finish();

  ASSERT_EQ(got.residents.size(), ref.residents.size());
  for (std::size_t i = 0; i < ref.residents.size(); ++i) {
    EXPECT_EQ(got.residents[i].metrics, ref.residents[i].metrics) << i;
  }
  EXPECT_EQ(got.ticks_res_2plus, ref.ticks_res_2plus);
}

// The tick budget times every live residency out at the first
// over-budget event, mirroring the single engine's timeout semantics.
TEST(MultiEngineTimeout, OverBudgetRunsFinalizeAsTimedOut) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::table15_configs()[0];
  const ExecPlan plan =
      ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
  sim::MultiEngineOptions options;
  options.max_ticks = 5;  // far below any completion
  MultiEngine engine(cfg, options);
  const sim::ResidentId id =
      engine.admit(p.methods[0], plan, 0, BranchPredictor::Scenario::BP1, 0);
  int completions = 0;
  while (engine.advance().has_value()) ++completions;
  ASSERT_EQ(completions, 1);
  const sim::ResidentOutcome* out = engine.outcome(id);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->metrics.timed_out);
  EXPECT_FALSE(out->metrics.completed);
  EXPECT_EQ(out->completed_tick, -1);
  EXPECT_TRUE(engine.idle());
}

// ---- transit sealing, deadlock classification, id recycling ----

// FNV-1a 64 over a multi-tenant run: every outcome's timing, traffic and
// contention, in completion order, then the fabric aggregate.
struct RunDigest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
};

// The same kernel admitted back to back at staggered ticks onto
// overlapping rows: every admission after the first overlaps a running
// residency that took the sealed (closed-form) transit, so its link
// reservations are rebuilt from its in-flight events and the two
// contend. The pinned digests and waits were produced by the engine
// that tracked every link reservation of every residency.
TEST(MultiEngineTransit, BackToBackOverlapRebuildsSealedTransit) {
  const workloads::Corpus& corpus = kernel_corpus();
  const bytecode::Method& m = corpus.program.methods[3];
  struct Golden {
    const char* config;
    std::uint64_t digest;
    std::int64_t serial_wait;
  };
  for (const Golden& want :
       {Golden{"Compact2", 7363139153688508881ULL, 0},
        Golden{"Hetero2", 9633313225037556768ULL, 120},
        Golden{"Sparse2", 13355344237332878167ULL, 28}}) {
    const sim::MachineConfig cfg = sim::config_by_name(want.config);
    const fabric::DataflowGraph graph =
        fabric::build_dataflow_graph(m, corpus.program.pool);
    const ExecPlan plan = ExecPlanBuilder().build(m, graph, nullptr, cfg);
    MultiEngine engine(cfg);
    RunDigest d;
    const std::int32_t w = cfg.width;
    const std::int32_t deltas[] = {3 * w, 0, 5 * w, w, 3 * w, 0};
    std::int64_t t = 0;
    for (int i = 0; i < 6; ++i) {
      while (const auto done = engine.advance(t)) {
        d.add(engine.outcome(*done)->admitted_tick);
      }
      engine.admit(m, plan, deltas[i],
                   i % 2 != 0 ? BranchPredictor::Scenario::BP2
                              : BranchPredictor::Scenario::BP1,
                   t);
      t += 37 + 11 * i;
    }
    while (const auto done = engine.advance()) {
      d.add(engine.outcome(*done)->admitted_tick);
    }
    const sim::MultiRunMetrics agg = engine.finish();
    for (const sim::ResidentOutcome& o : agg.residents) {
      d.add(o.metrics.ticks);
      d.add(o.metrics.instructions_fired);
      d.add(o.completed_tick);
      d.add(o.serial_wait_ticks);
      d.add(o.mesh_wait_ticks);
      d.add(o.ring_wait_ticks);
      d.add(o.metrics.serial_messages);
      d.add(o.metrics.mesh_messages);
    }
    d.add(agg.fabric_ticks);
    d.add(agg.ticks_res_2plus);
    EXPECT_EQ(d.h, want.digest) << want.config;
    EXPECT_EQ(agg.serial_wait_ticks, want.serial_wait) << want.config;
    EXPECT_GT(agg.transit_rebuilds, 0) << want.config;
    EXPECT_LT(agg.sealed_admissions, 6) << want.config;
  }
}

// Seeded random admission schedules: 3–8 kernels per trial at random
// row offsets (footprints overlap freely), staggered start ticks, pauses
// at every admission. This drives every transit path — sealed,
// rebuilt on overlap, rebuilt at completion, resealed — under real
// serial and mesh contention. The digests over all completed
// residencies (completion order, timing, traffic, waits) were produced
// by the engine that tracked every link reservation of every residency.
// Residencies that deadlock are left out: that engine never returned
// them.
TEST(MultiEngineTransit, RandomSchedulesMatchPinnedDigests) {
  const workloads::Corpus& corpus = kernel_corpus();
  const std::vector<bytecode::Method>& methods = corpus.program.methods;
  struct Golden {
    const char* config;
    std::uint64_t digest;
    std::int64_t waits;
  };
  for (const Golden& want : {Golden{"Compact2", 8463081803649084101ULL, 112357},
                             Golden{"Hetero2", 16761996935969904184ULL, 114599},
                             Golden{"Sparse2", 5464986969855478015ULL, 230143},
                             Golden{"Compact4", 16594571396115785578ULL, 26561}}) {
    const sim::MachineConfig cfg = sim::config_by_name(want.config);
    std::vector<ExecPlan> plans(methods.size());
    for (std::size_t i = 0; i < methods.size(); ++i) {
      plans[i] = ExecPlanBuilder().build(
          methods[i], fabric::build_dataflow_graph(methods[i], corpus.program.pool),
          nullptr, cfg);
    }
    std::mt19937_64 rng(20141215);
    RunDigest d;
    std::int64_t waits = 0;
    std::int64_t rebuilds = 0;
    for (int trial = 0; trial < 60; ++trial) {
      MultiEngine engine(cfg);
      const auto returned = [&](sim::ResidentId id) {
        const sim::ResidentOutcome* o = engine.outcome(id);
        if (o->metrics.completed) d.add(o->admitted_tick);
      };
      const int n = 3 + static_cast<int>(rng() % 6);
      std::int64_t start = 0;
      for (int k = 0; k < n; ++k) {
        const auto mi = static_cast<std::size_t>(rng() % methods.size());
        if (!plans[mi].fits()) continue;
        const auto delta = static_cast<std::int32_t>(rng() % 12) * cfg.width;
        start += static_cast<std::int64_t>(rng() % 400);
        while (const auto done = engine.advance(start)) returned(*done);
        engine.admit(methods[mi], plans[mi], delta,
                     rng() % 2 != 0 ? BranchPredictor::Scenario::BP2
                                    : BranchPredictor::Scenario::BP1,
                     start);
      }
      while (const auto done = engine.advance()) returned(*done);
      const sim::MultiRunMetrics agg = engine.finish();
      rebuilds += agg.transit_rebuilds;
      for (const sim::ResidentOutcome& o : agg.residents) {
        if (!o.metrics.completed) continue;
        d.add(o.metrics.ticks);
        d.add(o.metrics.instructions_fired);
        d.add(o.completed_tick);
        d.add(o.serial_wait_ticks);
        d.add(o.mesh_wait_ticks);
        d.add(o.ring_wait_ticks);
        d.add(o.metrics.serial_messages);
        d.add(o.metrics.mesh_messages);
        d.add(o.metrics.ticks_exec_2plus);
        waits += o.serial_wait_ticks + o.mesh_wait_ticks;
      }
    }
    EXPECT_EQ(d.h, want.digest) << want.config;
    EXPECT_EQ(waits, want.waits) << want.config;
    EXPECT_GT(rebuilds, 0) << want.config;
  }
}

// A plan whose Return never receives its operand: once the stuck
// residency's own events drain it is classified — timed out and
// deadlocked, with the Return holding HEAD as the witness — at that
// tick, not when the whole calendar empties, and not never. A longer
// healthy co-resident completes normally afterwards.
TEST(MultiEngineDeadlock, DrainedResidencyIsClassifiedDeadlocked) {
  Program p = loop_program();
  {
    Assembler a(p, "serve.stuck(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0).iload(0).op(Op::iadd).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  const bytecode::Method& loop = p.methods[0];
  const bytecode::Method& m = p.methods[1];
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  fabric::DataflowGraph broken = fabric::build_dataflow_graph(m, p.pool);
  broken.consumers_of[2].clear();  // iadd never feeds the ireturn
  const ExecPlan bad = ExecPlanBuilder().build(m, broken, nullptr, cfg);
  const ExecPlan good = ExecPlanBuilder().build(
      loop, fabric::build_dataflow_graph(loop, p.pool), nullptr, cfg);

  MultiEngine engine(cfg);
  const sim::ResidentId stuck =
      engine.admit(m, bad, 0, BranchPredictor::Scenario::BP1, 0);
  const sim::ResidentId fine = engine.admit(
      loop, good, 2 * cfg.width, BranchPredictor::Scenario::BP1, 0);
  std::vector<sim::ResidentId> order;
  while (const auto done = engine.advance()) order.push_back(*done);
  EXPECT_EQ(order, (std::vector<sim::ResidentId>{stuck, fine}));
  EXPECT_EQ(engine.running_count(), 0u);
  EXPECT_TRUE(engine.idle());

  const sim::ResidentOutcome* ok = engine.outcome(fine);
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->metrics.completed);
  EXPECT_FALSE(ok->deadlocked);

  const sim::ResidentOutcome* out = engine.outcome(stuck);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->deadlocked);
  EXPECT_TRUE(out->metrics.timed_out);
  EXPECT_FALSE(out->metrics.completed);
  EXPECT_EQ(out->completed_tick, -1);
  EXPECT_GT(out->deadlock_tick, 0);
  EXPECT_LT(out->deadlock_tick, ok->completed_tick);
  EXPECT_EQ(out->stuck_nodes, std::vector<std::int32_t>{3});
  EXPECT_EQ(out->metrics.ticks, out->deadlock_tick);
}

// Ids and node lanes are recycled once a residency is done, returned
// and drained, so sequential admissions far past the 16-bit Event::res
// range never run into the residency cap, and the engine keeps handing
// out the same few ids.
TEST(MultiEngineLifetime, SequentialAdmissionsRecycleIdsPastTheCap) {
  Program p;
  {
    Assembler a(p, "serve.tiny(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0).iload(0).op(Op::iadd).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  const bytecode::Method& m = p.methods[0];
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  const ExecPlan plan = ExecPlanBuilder().build(
      m, fabric::build_dataflow_graph(m, p.pool), nullptr, cfg);
  const RunMetrics ref =
      single_run(cfg, m, plan, BranchPredictor::Scenario::BP1);
  MultiEngine engine(cfg);
  constexpr int kAdmissions = 70'000;
  sim::ResidentId max_id = -1;
  for (int i = 0; i < kAdmissions; ++i) {
    const sim::ResidentId id = engine.admit(
        m, plan, 0, BranchPredictor::Scenario::BP1, engine.now());
    ASSERT_GE(id, 0) << "admission " << i;
    max_id = std::max(max_id, id);
    const auto done = engine.advance();
    ASSERT_TRUE(done.has_value()) << "admission " << i;
    ASSERT_EQ(*done, id);
    ASSERT_EQ(engine.outcome(id)->metrics, ref) << "admission " << i;
  }
  EXPECT_LE(max_id, 1);
  EXPECT_EQ(engine.resident_count(), static_cast<std::size_t>(kAdmissions));
}

// A plan records the MachineConfig it was lowered for, and a fabric
// refuses a plan of any other config — even one that differs from its
// own in a single ring latency — since the plan's lowered costs would
// mix with this fabric's k, hop and ring timing. A refusal admits
// nothing; the fabric's own plan then runs exactly like Engine.
TEST(MultiEngineAdmission, RefusesPlanLoweredForAnotherConfig) {
  const Program p = loop_program();
  const bytecode::Method& m = p.methods[0];
  const fabric::DataflowGraph graph = fabric::build_dataflow_graph(m, p.pool);
  const sim::MachineConfig cfg = sim::config_by_name("Compact2");
  sim::MachineConfig slow_read = cfg;
  slow_read.ring.memory_read += 1;
  MultiEngine engine(cfg);
  for (const sim::MachineConfig& other :
       {sim::config_by_name("Compact4"), sim::config_by_name("Hetero2"),
        slow_read}) {
    const ExecPlan plan = ExecPlanBuilder().build(m, graph, nullptr, other);
    ASSERT_TRUE(plan.fits());
    EXPECT_EQ(engine.admit(m, plan, 0, BranchPredictor::Scenario::BP1, 0),
              -1)
        << other.canonical_text();
  }
  EXPECT_EQ(engine.resident_count(), 0u);
  EXPECT_TRUE(engine.idle());

  const ExecPlan own = ExecPlanBuilder().build(m, graph, nullptr, cfg);
  const sim::ResidentId id =
      engine.admit(m, own, 0, BranchPredictor::Scenario::BP1, 0);
  ASSERT_GE(id, 0);
  while (engine.advance().has_value()) {
  }
  ASSERT_NE(engine.outcome(id), nullptr);
  EXPECT_EQ(engine.outcome(id)->metrics,
            single_run(cfg, m, own, BranchPredictor::Scenario::BP1));
}

// ---- request stream ----

// A five-method serving corpus: the loop plus arithmetic chains of
// increasing length, so co-resident runtimes differ.
Program serve_program() {
  Program p;
  {
    Assembler a(p, "serve.loop(IA)I", "serve");
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
  }
  for (int k = 1; k <= 4; ++k) {
    Assembler a(p, "serve.chain" + std::to_string(k) + "(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0);
    for (int i = 0; i < 3 * k; ++i) a.iload(0).op(Op::iadd);
    a.op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  return p;
}

std::vector<std::int32_t> all_methods(const Program& p) {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < p.methods.size(); ++i) {
    out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

TEST(RequestStream, DeterministicSortedAndInRange) {
  serve::RequestStreamOptions opt;
  opt.seed = 42;
  opt.num_requests = 200;
  opt.mean_gap_ticks = 16;
  const auto a = serve::make_request_stream(7, opt);
  const auto b = serve::make_request_stream(7, opt);
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(a[i].method_index, b[i].method_index);
    EXPECT_EQ(a[i].arrival_tick, b[i].arrival_tick);
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_GE(a[i].method_index, 0);
    EXPECT_LT(a[i].method_index, 7);
    if (i > 0) EXPECT_GT(a[i].arrival_tick, a[i - 1].arrival_tick);
  }
  opt.seed = 43;
  const auto c = serve::make_request_stream(7, opt);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].method_index != c[i].method_index ||
              a[i].arrival_tick != c[i].arrival_tick;
  }
  EXPECT_TRUE(differs);
}

TEST(RequestStream, HotFractionConcentratesOnHotSet) {
  serve::RequestStreamOptions opt;
  opt.num_requests = 100;
  opt.hot_fraction_256 = 256;  // every request is hot
  opt.hot_methods = 2;
  for (const serve::Request& r : serve::make_request_stream(50, opt)) {
    EXPECT_LT(r.method_index, 2);
  }
}

// ---- serving frontend ----

// A single-method corpus serializes every request (§4.3), and each
// one's RunMetrics must be bit-identical to a plain Engine::run of the
// same (method, canonical plan, scenario) — full-stack N=1 parity.
TEST(FabricServe, SingleMethodServingMatchesEngineRun) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  serve::RequestStreamOptions stream;
  stream.seed = 7;
  stream.num_requests = 6;
  stream.mean_gap_ticks = 32;
  const auto requests = serve::make_request_stream(1, stream);
  for (const sim::MachineConfig& cfg :
       {sim::config_by_name("Compact2"), sim::config_by_name("Hetero2")}) {
    const ExecPlan plan =
        ExecPlanBuilder().build(p.methods[0], graph, nullptr, cfg);
    const serve::ServeReport rep = serve::serve(p, {0}, cfg, stream);
    ASSERT_EQ(rep.requests, 6);
    ASSERT_EQ(rep.completed, 6);
    EXPECT_EQ(rep.ticks_res_2plus, 0) << "one method cannot overlap itself";
    for (const serve::RequestOutcome& o : rep.outcomes) {
      const RunMetrics ref = single_run(
          cfg, p.methods[0], plan,
          requests[static_cast<std::size_t>(o.request_id)].scenario);
      ASSERT_EQ(o.metrics, ref) << cfg.name << " req " << o.request_id;
      EXPECT_TRUE(o.plan_shared);
      EXPECT_EQ(o.latency_ticks, o.completed_tick - o.arrival_tick);
      EXPECT_GE(o.admitted_tick, o.arrival_tick);
    }
  }
}

// Distinct methods arriving faster than they finish must genuinely
// co-execute on the shared fabric.
TEST(FabricServe, HeterogeneousStreamOverlapsResidencies) {
  const Program p = serve_program();
  serve::RequestStreamOptions stream;
  stream.seed = 11;
  stream.num_requests = 32;
  stream.mean_gap_ticks = 4;
  stream.hot_fraction_256 = 0;  // uniform over all five methods
  const serve::ServeReport rep =
      serve::serve(p, all_methods(p), sim::config_by_name("Compact2"), stream);
  EXPECT_EQ(rep.completed, rep.requests);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_EQ(rep.timed_out, 0);
  EXPECT_GT(rep.ticks_res_2plus, 0);
  EXPECT_GE(rep.ticks_res_1plus, rep.ticks_res_2plus);
}

// Repeated runs produce bit-identical reports, and the digest covers
// enough state to prove it. JAVAFLOW_THREADS must not matter: the
// serving calendar is single-threaded by construction.
TEST(FabricServe, ReportIsBitIdenticalAcrossRunsAndThreadCounts) {
  const Program p = serve_program();
  serve::RequestStreamOptions stream;
  stream.seed = 20141215;
  stream.num_requests = 24;
  stream.mean_gap_ticks = 8;
  const sim::MachineConfig cfg = sim::config_by_name("Hetero2");
  const serve::ServeReport a = serve::serve(p, all_methods(p), cfg, stream);
  const serve::ServeReport b = serve::serve(p, all_methods(p), cfg, stream);
  ASSERT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].metrics, b.outcomes[i].metrics) << i;
    EXPECT_EQ(a.outcomes[i].completed_tick, b.outcomes[i].completed_tick) << i;
  }
  ::setenv("JAVAFLOW_THREADS", "7", 1);
  const serve::ServeReport c = serve::serve(p, all_methods(p), cfg, stream);
  ::unsetenv("JAVAFLOW_THREADS");
  EXPECT_EQ(a.digest(), c.digest());
}

// A tiny fabric forces the server to recycle slots: methods are evicted
// idle-LRU and reloaded, yet every request still completes.
TEST(FabricServe, LruEvictionRecyclesTinyFabric) {
  const Program p = serve_program();
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.capacity = 30;  // room for roughly two residents at a time
  serve::RequestStreamOptions stream;
  stream.seed = 3;
  stream.num_requests = 40;
  stream.mean_gap_ticks = 2;
  stream.hot_fraction_256 = 0;
  const serve::ServeReport rep = serve::serve(p, all_methods(p), cfg, stream);
  EXPECT_EQ(rep.completed, rep.requests);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_GT(rep.evictions, 0);
  EXPECT_GT(rep.loads, static_cast<std::int64_t>(p.methods.size()));
  // Every load either shared the canonical plan or paid a lowering.
  EXPECT_EQ(rep.plans_shared + rep.plans_lowered, rep.loads);
  EXPECT_GT(rep.plans_shared, 0);
}

// A small method and one that exceeds a 20-node fabric even when it is
// empty, served as one stream of 16 requests.
serve::ServeReport never_fitting_report() {
  Program p;
  {
    Assembler a(p, "serve.small(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0).iload(0).op(Op::iadd).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  {
    Assembler a(p, "serve.huge(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0);
    for (int i = 0; i < 60; ++i) a.iload(0).op(Op::iadd);
    a.op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  sim::MachineConfig cfg = sim::config_by_name("Compact2");
  cfg.capacity = 20;
  serve::RequestStreamOptions stream;
  stream.seed = 9;
  stream.num_requests = 16;
  stream.hot_fraction_256 = 0;
  return serve::serve(p, {0, 1}, cfg, stream);
}

// A method that exceeds the fabric even when empty is rejected; smaller
// methods in the same stream still complete.
TEST(FabricServe, NeverFittingMethodIsRejected) {
  const serve::ServeReport rep = never_fitting_report();
  EXPECT_GT(rep.rejected, 0);
  EXPECT_GT(rep.completed, 0);
  EXPECT_EQ(rep.completed + rep.rejected + rep.timed_out, rep.requests);
  for (const serve::RequestOutcome& o : rep.outcomes) {
    EXPECT_EQ(o.rejected, o.method_index == 1) << o.request_id;
  }
}

// The rejection above names its reason: the oversized method never fits
// an empty fabric, and the termination guard forced nothing out. The
// split reaches the JSON report; the digest keeps only the flag.
TEST(FabricServe, OversizedMethodReportsNeverFits) {
  serve::ServeReport rep = never_fitting_report();
  ASSERT_GT(rep.rejected, 0);
  EXPECT_EQ(rep.rejected_never_fits, rep.rejected);
  EXPECT_EQ(rep.rejected_forced, 0);
  for (const serve::RequestOutcome& o : rep.outcomes) {
    EXPECT_EQ(o.reject_reason, o.rejected ? serve::RejectReason::NeverFits
                                          : serve::RejectReason::None)
        << o.request_id;
  }
  std::ostringstream json;
  rep.write_json(json);
  EXPECT_NE(json.str().find("\"rejected_never_fits\": " +
                            std::to_string(rep.rejected)),
            std::string::npos);
  EXPECT_NE(json.str().find("\"rejected_forced\": 0"), std::string::npos);
  const std::uint64_t digest = rep.digest();
  for (serve::RequestOutcome& o : rep.outcomes) {
    if (o.rejected) o.reject_reason = serve::RejectReason::TerminationGuard;
  }
  EXPECT_EQ(rep.digest(), digest);
}

// Same-method serialization backs requests up behind a busy Anchor: the
// queue visibly deepens and the latency percentiles stay ordered.
TEST(FabricServe, QueueDepthAndLatencyPercentiles) {
  const Program p = loop_program();
  serve::RequestStreamOptions stream;
  stream.seed = 5;
  stream.num_requests = 20;
  stream.mean_gap_ticks = 1;  // burst: arrivals far outpace completions
  const serve::ServeReport rep =
      serve::serve(p, {0}, sim::config_by_name("Compact2"), stream);
  ASSERT_EQ(rep.completed, rep.requests);
  EXPECT_GE(rep.max_queue_depth, 2);
  ASSERT_GE(rep.latency_p50, 0);
  EXPECT_LE(rep.latency_p50, rep.latency_p95);
  EXPECT_LE(rep.latency_p95, rep.latency_p99);
  EXPECT_LE(rep.latency_p99, rep.latency_max);
  EXPECT_GT(rep.latency_mean_x1000, 0);
  // Queued requests wait; the worst latency must exceed the best by at
  // least one full service time's worth of queueing.
  EXPECT_GT(rep.latency_max, rep.latency_p50);
}

// An over-tight fabric budget times requests out instead of hanging the
// server; accounting still balances.
TEST(FabricServe, FabricTickBudgetTimesRequestsOut) {
  const Program p = loop_program();
  serve::RequestStreamOptions stream;
  stream.seed = 2;
  stream.num_requests = 5;
  stream.mean_gap_ticks = 4;
  serve::ServeOptions options;
  options.max_fabric_ticks = 10;  // below any loop completion
  const serve::ServeReport rep = serve::serve(
      p, {0}, sim::config_by_name("Compact2"), stream, options);
  EXPECT_EQ(rep.completed, 0);
  EXPECT_EQ(rep.timed_out, rep.requests);
  for (const serve::RequestOutcome& o : rep.outcomes) {
    EXPECT_TRUE(o.timed_out);
    EXPECT_EQ(o.completed_tick, -1);
  }
}

// Serving digests pinned from the engine that tracked every link
// reservation of every residency, before sealed transit, per-tick
// draining and id recycling: the hand-written kernels on Hetero2 at the
// benchmark's knee gap (streams 1, 3 and 4 of the serve-hot workload;
// stream 3 has real serial and mesh contention), plus smaller streams
// on the collapsed Baseline and on Compact2.
TEST(FabricServe, GoldenDigestsMatchPinnedValues) {
  const workloads::Corpus& kernels = kernel_corpus();
  const std::vector<std::int32_t> methods = all_methods(kernels.program);
  struct Golden {
    const char* config;
    std::uint64_t seed;
    std::int32_t requests;
    std::int64_t gap;
    std::uint64_t digest;
  };
  for (const Golden& want : {
           Golden{"Hetero2", 1, 1000, 6000, 5521178020094482098ULL},
           Golden{"Hetero2", 3, 1000, 6000, 16985165777580352135ULL},
           Golden{"Hetero2", 4, 1000, 6000, 13464819518530092563ULL},
           Golden{"Baseline", 5, 200, 2000, 3335470043404456123ULL},
           Golden{"Compact2", 6, 200, 2000, 13688965158137071514ULL},
       }) {
    serve::RequestStreamOptions stream;
    stream.seed = want.seed;
    stream.num_requests = want.requests;
    stream.mean_gap_ticks = want.gap;
    const serve::ServeReport rep = serve::serve(
        kernels.program, methods, sim::config_by_name(want.config), stream);
    EXPECT_EQ(rep.digest(), want.digest)
        << want.config << " stream " << want.seed;
    EXPECT_EQ(rep.completed, rep.requests) << want.config;
  }
}

// Serve-hot stream 2 strands residencies of two kernels (lb.read and
// Compressor.init) at memory operations without a MEMORY token, and
// again on later requests for them. The run must still terminate, with
// exactly those requests classified as deadlocked timeouts and every
// other request completed.
TEST(FabricServe, StuckResidenciesEndAsDeadlockedTimeouts) {
  const workloads::Corpus& kernels = kernel_corpus();
  serve::RequestStreamOptions stream;
  stream.seed = 2;
  stream.num_requests = 1000;
  stream.mean_gap_ticks = 6000;
  const serve::ServeReport rep =
      serve::serve(kernels.program, all_methods(kernels.program),
                   sim::config_by_name("Hetero2"), stream);
  EXPECT_GT(rep.deadlocked, 0);
  EXPECT_EQ(rep.timed_out, rep.deadlocked);
  EXPECT_EQ(rep.completed + rep.deadlocked, rep.requests);
  for (const serve::RequestOutcome& o : rep.outcomes) {
    EXPECT_EQ(o.deadlocked, o.timed_out) << o.request_id;
    if (!o.deadlocked) continue;
    const std::string& name =
        kernels.program.methods[static_cast<std::size_t>(o.method_index)]
            .name;
    EXPECT_TRUE(name.find("lb.read") != std::string::npos ||
                name.find("Compressor.init") != std::string::npos)
        << name;
  }
}

// Past the 16-bit residency id range through the whole server: no
// request is rejected for want of an id.
TEST(FabricServe, SeventyThousandRequestsNeverHitTheResidencyCap) {
  Program p;
  {
    Assembler a(p, "serve.tiny(I)I", "serve");
    a.args({ValueType::Int}).returns(ValueType::Int);
    a.iload(0).iload(0).op(Op::iadd).op(Op::ireturn);
    p.methods.push_back(a.build());
  }
  serve::RequestStreamOptions stream;
  stream.seed = 12;
  stream.num_requests = 70'000;
  stream.mean_gap_ticks = 64;
  const serve::ServeReport rep =
      serve::serve(p, {0}, sim::config_by_name("Compact2"), stream);
  EXPECT_EQ(rep.rejected, 0);
  EXPECT_EQ(rep.completed, rep.requests);
}

// The digest moves when behavior moves: a different seed or a different
// config cannot collide on these small streams.
TEST(FabricServe, DigestTracksBehavior) {
  const Program p = serve_program();
  serve::RequestStreamOptions stream;
  stream.seed = 1;
  stream.num_requests = 12;
  const sim::MachineConfig compact = sim::config_by_name("Compact2");
  const serve::ServeReport base = serve::serve(p, all_methods(p), compact, stream);
  serve::RequestStreamOptions other = stream;
  other.seed = 2;
  EXPECT_NE(base.digest(),
            serve::serve(p, all_methods(p), compact, other).digest());
  EXPECT_NE(base.digest(),
            serve::serve(p, all_methods(p), sim::config_by_name("Hetero2"),
                         stream)
                .digest());
}

}  // namespace
}  // namespace javaflow
