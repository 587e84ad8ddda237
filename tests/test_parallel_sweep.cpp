// Tests for the parallel sweep engine: byte-identical output across
// thread counts, the serial in-line fallback, the sweep's live-plan
// bound, the thread-pool utility, and determinism of engine workspace
// reuse, within one config and across configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "fabric/dataflow_graph.hpp"
#include "obs/critpath.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"
#include "util/thread_pool.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// ---- ThreadPool ----

TEST(ThreadPool, ResolveMapsRequestsToWorkerCounts) {
  EXPECT_EQ(util::ThreadPool::resolve(1), 1u);
  EXPECT_EQ(util::ThreadPool::resolve(5), 5u);
  EXPECT_EQ(util::ThreadPool::resolve(0), util::ThreadPool::hardware_threads());
  EXPECT_EQ(util::ThreadPool::resolve(-3),
            util::ThreadPool::hardware_threads());
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, ResolveClampedCapsAtHardwareThreads) {
  const unsigned hw = util::ThreadPool::hardware_threads();
  // Requests within the machine pass through untouched.
  EXPECT_EQ(util::ThreadPool::resolve_clamped(1), 1u);
  EXPECT_EQ(util::ThreadPool::resolve_clamped(0), hw);
  EXPECT_EQ(util::ThreadPool::resolve_clamped(static_cast<int>(hw)), hw);
  // Oversubscription clamps (with a stderr warning) unless allowed.
  EXPECT_EQ(util::ThreadPool::resolve_clamped(static_cast<int>(hw) + 3), hw);
  EXPECT_EQ(util::ThreadPool::resolve_clamped(static_cast<int>(hw) + 3,
                                              /*allow_oversubscribe=*/true),
            hw + 3);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i, unsigned lane) {
    ASSERT_LT(lane, pool.size());
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRunsInlineWhenWorkIsSmall) {
  util::ThreadPool pool(4);
  std::thread::id body_thread;
  pool.parallel_for(1, [&](std::size_t, unsigned lane) {
    EXPECT_EQ(lane, 0u);
    body_thread = std::this_thread::get_id();
  });
  // n <= 1 takes the in-line path: no handoff to a worker.
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ThreadPool, SubmitAndWaitIdleDrainTheQueue) {
  util::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

// ---- sweep determinism ----

const workloads::Corpus& shared_corpus() {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  return corpus;
}

analysis::Sweep corpus_sweep(int threads, int stride) {
  const workloads::Corpus& corpus = shared_corpus();
  std::vector<const bytecode::Method*> methods;
  for (const bytecode::Method& m : corpus.program.methods) {
    methods.push_back(&m);
  }
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < corpus.kernel_methods; ++i) {
    hot.push_back(corpus.program.methods[i].name);
  }
  analysis::SweepOptions options;
  options.stride = stride;
  options.threads = threads;
  // Determinism coverage must exercise multiple lanes even on a
  // single-hardware-thread CI host, where the clamp would fold every
  // request back to one worker.
  options.allow_oversubscribe = true;
  return analysis::run_sweep(methods, corpus.program.pool, hot, options);
}

TEST(ParallelSweep, MatchesSerialOnStridedCorpus) {
  const analysis::Sweep serial = corpus_sweep(/*threads=*/1, /*stride=*/61);
  const analysis::Sweep parallel = corpus_sweep(/*threads=*/4, /*stride=*/61);

  ASSERT_GT(serial.samples.size(), 100u);  // a real cross-section
  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    ASSERT_EQ(serial.samples[i], parallel.samples[i])
        << "sample " << i << " (" << serial.samples[i].method << " vs "
        << parallel.samples[i].method << ")";
  }
  EXPECT_EQ(serial.samples, parallel.samples);

  // Each method's task frees its plans before its lane draws the next
  // method, so at most one method's plans (one per config) per lane are
  // ever alive: exactly one set in the serial sweep.
  const std::size_t configs = serial.configs.size();
  ASSERT_EQ(serial.profile.lanes.size(), 1u);
  ASSERT_EQ(parallel.profile.lanes.size(), 4u);
  EXPECT_EQ(serial.profile.peak_live_plans, configs);
  EXPECT_GE(parallel.profile.peak_live_plans, configs);
  EXPECT_LE(parallel.profile.peak_live_plans,
            configs * parallel.profile.lanes.size());
}

TEST(ParallelSweep, ThreadsOneMatchesDefaultOptions) {
  // SweepOptions{} defaults to threads = 1, the in-line path; an
  // explicit 1 must be byte-identical (and take the same path —
  // resolve(1) == 1 never constructs a pool).
  const analysis::Sweep a = corpus_sweep(/*threads=*/1, /*stride=*/173);
  const analysis::Sweep b = corpus_sweep(/*threads=*/2, /*stride=*/173);
  const analysis::Sweep c = corpus_sweep(/*threads=*/1, /*stride=*/173);
  EXPECT_EQ(a.samples, c.samples);
  EXPECT_EQ(a.samples, b.samples);
  ASSERT_EQ(util::ThreadPool::resolve(1), 1u);
}

// ---- engine workspace reuse ----

TEST(EngineWorkspace, ReusedEngineReproducesFreshEngineResults) {
  Program p;
  Assembler a(p, "bm.w(IA)I", "bm");
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
  Assembler b(p, "bm.tiny()I", "bm");
  b.returns(ValueType::Int);
  b.iconst(7).op(Op::ireturn);
  p.methods.push_back(b.build());

  const fabric::DataflowGraph loop_graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const fabric::DataflowGraph tiny_graph =
      fabric::build_dataflow_graph(p.methods[1], p.pool);

  sim::Engine reused(sim::config_by_name("Compact2"));
  std::vector<sim::RunMetrics> first, second;
  for (int round = 0; round < 2; ++round) {
    std::vector<sim::RunMetrics>& out = round == 0 ? first : second;
    // Interleave a big and a tiny method so the reused workspace must
    // shrink and regrow between runs.
    sim::BranchPredictor bp1(sim::BranchPredictor::Scenario::BP1);
    out.push_back(reused.run(p.methods[0], loop_graph, bp1));
    sim::BranchPredictor bp2(sim::BranchPredictor::Scenario::BP2);
    out.push_back(reused.run(p.methods[1], tiny_graph, bp2));
    sim::BranchPredictor bp3(sim::BranchPredictor::Scenario::BP1);
    out.push_back(reused.run(p.methods[0], loop_graph, bp3));
  }
  EXPECT_EQ(first, second);

  sim::Engine fresh(sim::config_by_name("Compact2"));
  sim::BranchPredictor bp(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics fresh_metrics =
      fresh.run(p.methods[0], loop_graph, bp);
  EXPECT_EQ(fresh_metrics, first[0]);
  EXPECT_TRUE(fresh_metrics.completed);
}

// A plan carries its config's timing model, so one engine — one
// workspace — runs every config's plans, as a sweep lane does. Here it
// runs the six Table 15 plans of a stride sample of the corpus in a
// shuffled (config, scenario) order, and every cell must match an
// engine dedicated to that config field for field: the RunMetrics and
// the flight recorder's full critical-path attribution.
TEST(EngineWorkspace, OneEngineRunsEveryConfigLikePerConfigEngines) {
  const workloads::Corpus& corpus = shared_corpus();
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  // The shared engine's own config matches none of the plans': a run
  // from a plan must never read it.
  sim::MachineConfig unused;
  unused.name = "unused";
  unused.serial_per_mesh = 7;
  obs::FlightRecorder shared_flight;
  sim::EngineOptions shared_options;
  shared_options.flight = &shared_flight;
  sim::Engine shared(unused, shared_options);

  std::vector<obs::FlightRecorder> flights(configs.size());
  std::vector<sim::Engine> dedicated;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    sim::EngineOptions options;
    options.flight = &flights[ci];
    dedicated.emplace_back(configs[ci], options);
  }

  using Scenario = sim::BranchPredictor::Scenario;
  std::vector<std::pair<std::size_t, Scenario>> order;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    for (const Scenario s : {Scenario::BP1, Scenario::BP2}) {
      order.emplace_back(ci, s);
    }
  }
  std::mt19937 rng(16);
  sim::ExecPlanBuilder builder;
  std::size_t cells = 0;
  std::size_t attributed = 0;
  for (std::size_t mi = 0; mi < corpus.program.methods.size(); mi += 53) {
    const bytecode::Method& m = corpus.program.methods[mi];
    const fabric::DataflowGraph graph =
        fabric::build_dataflow_graph(m, corpus.program.pool);
    std::vector<sim::ExecPlan> plans;
    for (const sim::MachineConfig& cfg : configs) {
      plans.push_back(builder.build(m, graph, nullptr, cfg));
    }
    std::shuffle(order.begin(), order.end(), rng);
    for (const auto& [ci, scenario] : order) {
      obs::AttributeOptions ao;
      ao.plan = &plans[ci];
      sim::BranchPredictor bp_shared(scenario);
      const sim::RunMetrics got = shared.run(m, plans[ci], bp_shared);
      const obs::Attribution got_attr = obs::attribute(shared_flight, ao);
      sim::BranchPredictor bp_dedicated(scenario);
      const sim::RunMetrics want =
          dedicated[ci].run(m, plans[ci], bp_dedicated);
      const obs::Attribution want_attr = obs::attribute(flights[ci], ao);
      ASSERT_EQ(got, want) << m.name << " on " << configs[ci].name;
      ASSERT_EQ(got_attr, want_attr) << m.name << " on " << configs[ci].name;
      ++cells;
      attributed += want_attr.valid ? 1 : 0;
    }
  }
  EXPECT_GT(cells, 300u);
  EXPECT_GT(attributed, cells / 2);
}

}  // namespace
}  // namespace javaflow
