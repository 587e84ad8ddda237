// Pre-lowered execution plans (docs/PERF.md "Execution plans") and the
// fixed results the plan-driven engine must keep reproducing.
//
// The golden digests below were captured when the engine still had a
// second execution route (a per-run graph/placement walk, and a binary
// heap scheduler) and every route agreed on them; they pin RunMetrics,
// critical-path attribution, and Chrome trace JSON across the full
// Table 15 config matrix and both branch scenarios. The stride-32 .jfs
// snapshot is compared byte for byte with the committed reference.
// The Engine::run entry points that lower for the caller must trace
// exactly like a run of the caller's own plan, and the plan's per-link
// MeshTransit decomposition must agree with a net::MeshNetwork route
// walk done here in the test. Plans are also shareable: one read-only ExecPlan serves any number of
// concurrent engines (run this binary under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/explain.hpp"
#include "analysis/figure_of_merit.hpp"
#include "bytecode/assembler.hpp"
#include "cache/hash.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/fabric.hpp"
#include "fabric/loader.hpp"
#include "net/mesh_network.hpp"
#include "obs/critpath.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"
#include "workloads/corpus.hpp"

namespace javaflow {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

// ---- shared corpus ----

const workloads::Corpus& shared_corpus() {
  static const workloads::Corpus corpus = workloads::make_corpus({});
  return corpus;
}

analysis::Sweep plan_sweep(int threads, bool attribution = false) {
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
  options.stride = 32;  // the CI smoke stride: a real corpus slice
  options.threads = threads;
  // Real worker threads even on small CI hosts, so the cross-lane
  // shared-plan reads actually happen (and TSan can see them).
  options.allow_oversubscribe = threads > 1;
  options.attribution = attribution;
  options.cache = cache::CacheMode::Off;
  return analysis::run_sweep(methods, corpus.program.pool, hot, options);
}

// ---- digests ----

void hash_metrics(cache::Hasher& h, const sim::RunMetrics& m) {
  h.boolean(m.fits);
  h.boolean(m.completed);
  h.boolean(m.timed_out);
  h.boolean(m.exception);
  h.i64(m.ticks);
  h.i64(m.mesh_cycles);
  h.i64(m.instructions_fired);
  h.i32(m.distinct_fired);
  h.i32(m.static_size);
  h.i32(m.max_slot);
  h.i64(m.mesh_messages);
  h.i64(m.serial_messages);
  h.i64(m.ticks_exec_1plus);
  h.i64(m.ticks_exec_2plus);
}

void hash_categories(
    cache::Hasher& h,
    const std::array<std::int64_t, obs::kNumPathCategories>& ticks) {
  for (const std::int64_t t : ticks) h.i64(t);
}

std::string samples_digest(const analysis::Sweep& sweep) {
  cache::Hasher h;
  for (const analysis::SweepSample& s : sweep.samples) {
    h.str(s.method.str());
    h.str(s.benchmark.str());
    h.u64(s.config_index);
    h.u8(static_cast<std::uint8_t>(s.scenario));
    h.i32(s.static_insts);
    h.i32(s.back_jumps);
    h.boolean(s.is_hot);
    hash_metrics(h, s.metrics);
  }
  return cache::to_hex(h.digest());
}

std::string attribution_digest(const analysis::Sweep& sweep) {
  cache::Hasher h;
  for (const analysis::CellAttribution& a : sweep.attribution) {
    h.boolean(a.valid);
    hash_categories(h, a.category_ticks);
  }
  return cache::to_hex(h.digest());
}

// ---- full-corpus golden results ----

// All six Table 15 configs, both scenarios, every RunMetrics field and
// every attribution category vector of the stride-32 slice.
TEST(PlanGolden, Stride32SweepMatchesGoldenDigests) {
  const analysis::Sweep sweep = plan_sweep(1, /*attribution=*/true);
  ASSERT_EQ(sweep.configs.size(), 6u);
  ASSERT_EQ(sweep.samples.size(), 612u);
  ASSERT_EQ(sweep.attribution.size(), sweep.samples.size());
  EXPECT_EQ(samples_digest(sweep), "48c84f91d1c845b2add4bbe34ba70f9f");
  EXPECT_EQ(attribution_digest(sweep), "0580b29f9a5441249a70944223f56011");
}

// The parallel sweep shares each phase-A plan read-only across worker
// lanes; the result must match the serial sweep exactly (and running
// this under TSan proves the sharing is race-free).
TEST(PlanEquality, SerialAndParallelSweepsMatchWithPlansOn) {
  const analysis::Sweep serial = plan_sweep(1);
  const analysis::Sweep parallel = plan_sweep(4);
  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    ASSERT_EQ(serial.samples[i], parallel.samples[i]) << "sample " << i;
  }
}

// `javaflow_explain --snapshot --stride 32` in-process: the bytes must
// equal the committed reference, the file CI's drift gate diffs against.
TEST(PlanGolden, Stride32SnapshotMatchesCommittedReference) {
  analysis::SnapshotBuildOptions options;
  options.stride = 32;
  options.threads = 0;
  options.allow_oversubscribe = true;
  const std::string bytes = obs::serialize_snapshot(
      analysis::build_snapshot(shared_corpus(), options));

  std::ifstream in(JAVAFLOW_REFERENCE_SNAPSHOT, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << JAVAFLOW_REFERENCE_SNAPSHOT;
  const std::string reference((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(obs::snapshot_digest(bytes), obs::snapshot_digest(reference));
  EXPECT_TRUE(bytes == reference)
      << "snapshot drifted from " << JAVAFLOW_REFERENCE_SNAPSHOT;
}

// ---- per-run golden traces ----

// A loop over an array load: backward transfer, TAIL replay, memory
// ordering, mesh traffic — the full §6.3 event mix.
Program loop_program() {
  Program p;
  Assembler a(p, "plan.loop(IA)I", "plan");
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

// One traced + flight-recorded run of the loop, digested: RunMetrics,
// the Chrome trace JSON, and the detail attribution (categories plus
// the per-link MeshTransit decomposition from the plan's route spans).
std::string traced_digest(const sim::MachineConfig& cfg, const Program& p,
                          const fabric::DataflowGraph& graph,
                          sim::BranchPredictor::Scenario scenario) {
  const fabric::Fabric fab(cfg.fabric_options());
  const fabric::Placement placement = fabric::load_method(fab, p.methods[0]);
  sim::ExecPlanBuilder builder;
  const sim::ExecPlan plan =
      builder.build(p.methods[0], graph, &placement, cfg);

  obs::EventTracer tracer;
  obs::FlightRecorder flight;
  sim::EngineOptions options;
  options.tracer = &tracer;
  options.flight = &flight;
  sim::Engine engine(cfg, options);
  sim::BranchPredictor predictor(scenario);
  const sim::RunMetrics metrics = engine.run(p.methods[0], plan, predictor);
  EXPECT_TRUE(metrics.completed) << cfg.name;

  obs::TraceMeta meta;
  meta.method = p.methods[0].name;
  meta.config = cfg.name;
  meta.scenario = "BP-1";
  meta.serial_per_mesh = cfg.serial_per_mesh;
  meta.node_labels.assign(p.methods[0].code.size(), "n");
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer, meta);

  obs::AttributeOptions ao;
  ao.plan = &plan;
  const obs::Attribution attr = obs::attribute(flight, ao);
  EXPECT_TRUE(attr.valid) << cfg.name;

  cache::Hasher h;
  hash_metrics(h, metrics);
  h.str(os.str());
  h.i64(attr.ticks);
  hash_categories(h, attr.category_ticks);
  for (const auto& [link, ticks] : attr.link_ticks) {
    h.i32(link.first);
    h.u8(link.second);
    h.i64(ticks);
  }
  return cache::to_hex(h.digest());
}

TEST(PlanGolden, TraceJsonAndAttributionMatchOnEveryConfigAndScenario) {
  // Config order follows sim::table15_configs(); BP-1 then BP-2.
  // (The loop's one branch resolves alike under both scenarios, so each
  // config's pair matches.)
  const char* const kGolden[6][2] = {
      {"71779034694ea7cf214757f12cad3ea8",
       "71779034694ea7cf214757f12cad3ea8"},
      {"2f3050ff7e5554cb7db1281e66467a04",
       "2f3050ff7e5554cb7db1281e66467a04"},
      {"b6e08b6558b178b834a263e6470edba5",
       "b6e08b6558b178b834a263e6470edba5"},
      {"241a9e55703cdaad4cab72b6cbc61560",
       "241a9e55703cdaad4cab72b6cbc61560"},
      {"82af726d82b21f81edcdd4ca775a2f8e",
       "82af726d82b21f81edcdd4ca775a2f8e"},
      {"8ec751d28d4daa8e40aea34a9b95a025",
       "8ec751d28d4daa8e40aea34a9b95a025"},
  };
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const std::vector<sim::MachineConfig> configs = sim::table15_configs();
  ASSERT_EQ(configs.size(), 6u);
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    std::size_t si = 0;
    for (const auto scenario : {sim::BranchPredictor::Scenario::BP1,
                                sim::BranchPredictor::Scenario::BP2}) {
      EXPECT_EQ(traced_digest(configs[ci], p, graph, scenario),
                kGolden[ci][si])
          << configs[ci].name << " scenario " << si;
      ++si;
    }
  }
}

// ---- entry-point equality ----

struct TracedRun {
  sim::RunMetrics metrics;
  std::vector<obs::TraceEvent> events;
  std::string chrome_json;
};

// The three Engine::run entry points: (graph) lowers on a fresh-fabric
// placement, (graph, placement) lowers on the caller's placement, and
// (plan) runs a plan the caller lowered. All reach the same kernel.
enum class Entry { Graph, GraphAndPlacement, Plan };

TracedRun traced_run(const sim::MachineConfig& cfg, Entry entry,
                     const Program& p, const fabric::DataflowGraph& graph,
                     sim::BranchPredictor::Scenario scenario) {
  const fabric::Fabric fab(cfg.fabric_options());
  const fabric::Placement placement = fabric::load_method(fab, p.methods[0]);
  sim::ExecPlanBuilder builder;
  const sim::ExecPlan plan =
      builder.build(p.methods[0], graph, &placement, cfg);

  sim::EngineOptions options;
  obs::EventTracer tracer;
  options.tracer = &tracer;
  sim::Engine engine(cfg, options);
  sim::BranchPredictor predictor(scenario);
  TracedRun out;
  switch (entry) {
    case Entry::Graph:
      out.metrics = engine.run(p.methods[0], graph, predictor);
      break;
    case Entry::GraphAndPlacement:
      out.metrics = engine.run(p.methods[0], graph, placement, predictor);
      break;
    case Entry::Plan:
      out.metrics = engine.run(p.methods[0], plan, predictor);
      break;
  }
  out.events = tracer.events();
  obs::TraceMeta meta;
  meta.method = p.methods[0].name;
  meta.config = cfg.name;
  meta.scenario = "BP-1";
  meta.serial_per_mesh = cfg.serial_per_mesh;
  meta.node_labels.assign(p.methods[0].code.size(), "n");
  std::ostringstream os;
  obs::write_chrome_trace(os, tracer, meta);
  out.chrome_json = os.str();
  return out;
}

TEST(PlanEquality, TraceJsonIsIdenticalOnEveryConfigAndScenario) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    for (const auto scenario : {sim::BranchPredictor::Scenario::BP1,
                                sim::BranchPredictor::Scenario::BP2}) {
      const TracedRun direct = traced_run(cfg, Entry::Plan, p, graph, scenario);
      ASSERT_TRUE(direct.metrics.completed) << cfg.name;
      ASSERT_FALSE(direct.events.empty()) << cfg.name;
      for (const Entry entry : {Entry::Graph, Entry::GraphAndPlacement}) {
        const TracedRun lowered = traced_run(cfg, entry, p, graph, scenario);
        EXPECT_EQ(lowered.metrics, direct.metrics) << cfg.name;
        EXPECT_EQ(lowered.events, direct.events) << cfg.name;
        EXPECT_EQ(lowered.chrome_json, direct.chrome_json) << cfg.name;
      }
    }
  }
}

// ---- attribution link decomposition ----

// AttributeOptions::plan replays the plan's precomputed X-Y route spans;
// the per-link tick map must agree exactly with spreading each
// MeshTransit segment over a net::MeshNetwork route walk (integer share
// per link, remainder on the final link).
TEST(PlanEquality, LinkDecompositionMatchesMeshWalk) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  std::size_t mesh_configs_with_links = 0;
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const fabric::Fabric fab(cfg.fabric_options());
    const fabric::Placement placement =
        fabric::load_method(fab, p.methods[0]);
    sim::ExecPlanBuilder builder;
    const sim::ExecPlan plan =
        builder.build(p.methods[0], graph, &placement, cfg);

    obs::FlightRecorder flight;
    sim::EngineOptions options;
    options.flight = &flight;
    sim::Engine engine(cfg, options);
    sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
    const sim::RunMetrics metrics =
        engine.run(p.methods[0], plan, predictor);
    ASSERT_TRUE(metrics.completed) << cfg.name;

    obs::AttributeOptions ao;
    ao.plan = &plan;
    const obs::Attribution attr = obs::attribute(flight, ao);
    ASSERT_TRUE(attr.valid) << cfg.name;

    std::map<std::pair<std::int32_t, std::uint8_t>, std::int64_t> walked;
    if (!cfg.collapsed()) {
      const net::MeshNetwork mesh(cfg.width);
      for (const obs::PathStep& s : attr.steps) {
        if (s.category != obs::PathCategory::MeshTransit || s.from_phys < 0 ||
            s.to_phys < 0) {
          continue;
        }
        std::int32_t hops = 0;
        mesh.for_each_route_link(
            s.from_phys, s.to_phys,
            [&](std::int32_t, std::int32_t, std::int32_t) { ++hops; });
        if (hops == 0) continue;
        const std::int64_t per = s.ticks() / hops;
        std::int64_t spent = 0;
        std::int32_t seen = 0;
        mesh.for_each_route_link(
            s.from_phys, s.to_phys,
            [&](std::int32_t src, std::int32_t dx, std::int32_t dy) {
              const obs::LinkDir dir = dx > 0   ? obs::LinkDir::East
                                       : dx < 0 ? obs::LinkDir::West
                                       : dy > 0 ? obs::LinkDir::North
                                                : obs::LinkDir::South;
              ++seen;
              const std::int64_t share =
                  seen == hops ? s.ticks() - spent : per;
              spent += share;
              walked[{src, static_cast<std::uint8_t>(dir)}] += share;
            });
      }
      if (!walked.empty()) ++mesh_configs_with_links;
    }
    EXPECT_EQ(attr.link_ticks, walked) << cfg.name;
  }
  // The loop's critical path crosses the mesh on every non-collapsed
  // config, so the comparison is never vacuous.
  EXPECT_GE(mesh_configs_with_links, 1u);
}

// ---- bound analyzer on the lowered image ----

// The plan-derived lower bound must stay sound against the engine.
TEST(PlanBounds, LowerBoundStaysSound) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  for (const sim::MachineConfig& cfg : sim::table15_configs()) {
    const fabric::Fabric fab(cfg.fabric_options());
    const fabric::Placement placement =
        fabric::load_method(fab, p.methods[0]);
    sim::ExecPlanBuilder builder;
    const sim::ExecPlan plan =
        builder.build(p.methods[0], graph, &placement, cfg);

    const analysis::MethodBounds bounds =
        analysis::compute_bounds(p.methods[0], plan);
    ASSERT_TRUE(bounds.valid) << cfg.name;

    sim::Engine engine(cfg);
    sim::BranchPredictor predictor(sim::BranchPredictor::Scenario::BP1);
    const sim::RunMetrics metrics =
        engine.run(p.methods[0], plan, predictor);
    ASSERT_TRUE(metrics.completed) << cfg.name;
    EXPECT_LE(bounds.lower_bound_ticks, metrics.ticks) << cfg.name;
  }
}

// ---- serial forward lane ----

// The lane the kernels forward non-buffering tokens on must price every
// hop u -> u + 1 exactly like the engine's serial-delay walk, on every
// Table 15 config, and end the chain at the last node. Packing 4 IDUs
// per node puts consecutive nodes on one physical node, where the hop
// still costs one tick.
TEST(PlanLane, SerialForwardLaneMatchesSerialDelayWalk) {
  const workloads::Corpus& corpus = shared_corpus();
  const Program loop = loop_program();
  std::vector<std::pair<const bytecode::Method*, const bytecode::ConstantPool*>>
      methods = {{&loop.methods[0], &loop.pool}};
  for (std::size_t i = 0; i < corpus.program.methods.size(); i += 32) {
    methods.emplace_back(&corpus.program.methods[i], &corpus.program.pool);
  }
  sim::ExecPlanBuilder builder;
  sim::ExecPlan plan;
  std::vector<sim::MachineConfig> configs = sim::table15_configs();
  for (sim::MachineConfig cfg : sim::table15_configs()) {
    cfg.idus_per_node = 4;
    configs.push_back(cfg);
  }
  for (const sim::MachineConfig& cfg : configs) {
    std::size_t checked = 0;
    for (const auto& [m, pool] : methods) {
      const fabric::DataflowGraph graph =
          fabric::build_dataflow_graph(*m, *pool);
      builder.build_into(plan, *m, graph, nullptr, cfg);
      if (!plan.fits()) continue;
      const std::int32_t n = plan.node_count();
      const std::int32_t* lane = plan.serial_next_ticks();
      ASSERT_NE(lane, nullptr) << cfg.name << " " << m->name;
      for (std::int32_t u = 0; u + 1 < n; ++u) {
        const std::int64_t hops = std::max<std::int64_t>(
            std::abs(plan.phys()[u + 1] - plan.phys()[u]), 1);
        ASSERT_EQ(lane[u], plan.serial_ticks_between(u, u + 1))
            << cfg.name << " idus " << cfg.idus_per_node << " " << m->name
            << " node " << u;
        ASSERT_EQ(lane[u], plan.hop_ticks() * hops)
            << cfg.name << " idus " << cfg.idus_per_node << " " << m->name
            << " node " << u;
      }
      ASSERT_EQ(lane[n - 1], -1) << cfg.name << " " << m->name;
      ++checked;
    }
    EXPECT_GT(checked, methods.size() / 2) << cfg.name;
  }
}

// ---- plan sharing ----

// One plan object, several concurrent engines. Under TSan this proves
// the plan's read-only contract.
TEST(PlanSharing, OnePlanServesConcurrentEngines) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::config_by_name("Compact4");
  const fabric::Fabric fab(cfg.fabric_options());
  const fabric::Placement placement =
      fabric::load_method(fab, p.methods[0]);
  sim::ExecPlanBuilder builder;
  const sim::ExecPlan plan =
      builder.build(p.methods[0], graph, &placement, cfg);

  constexpr int kLanes = 4;
  constexpr int kRunsPerLane = 8;
  std::vector<sim::RunMetrics> results(kLanes);
  std::vector<std::thread> lanes;
  lanes.reserve(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      sim::Engine engine(cfg);  // engines are lane-private; the plan is not
      sim::RunMetrics last;
      for (int r = 0; r < kRunsPerLane; ++r) {
        sim::BranchPredictor predictor(
            sim::BranchPredictor::Scenario::BP1);
        last = engine.run(p.methods[0], plan, predictor);
      }
      results[static_cast<std::size_t>(lane)] = last;
    });
  }
  for (std::thread& t : lanes) t.join();
  for (int lane = 1; lane < kLanes; ++lane) {
    EXPECT_EQ(results[0], results[static_cast<std::size_t>(lane)]);
  }
  EXPECT_TRUE(results[0].completed);
}

// Dedup-class reuse inside one engine: the workspace plan cache must
// serve repeated runs of the same (method, placement) without changing
// results, and rebuild when the method changes.
TEST(PlanSharing, WorkspacePlanCacheIsTransparent) {
  const Program p = loop_program();
  const fabric::DataflowGraph graph =
      fabric::build_dataflow_graph(p.methods[0], p.pool);
  const sim::MachineConfig cfg = sim::config_by_name("Compact10");
  sim::Engine engine(cfg);

  sim::BranchPredictor bp1(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics cold = engine.run(p.methods[0], graph, bp1);
  sim::BranchPredictor bp1_again(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics warm = engine.run(p.methods[0], graph, bp1_again);
  EXPECT_EQ(cold, warm);

  // A different method through the same engine must not be served the
  // cached plan.
  Program q;
  Assembler a(q, "plan.add(II)I", "plan");
  a.args({ValueType::Int, ValueType::Int}).returns(ValueType::Int);
  a.iload(0).iload(1).op(Op::iadd).op(Op::ireturn);
  q.methods.push_back(a.build());
  const fabric::DataflowGraph qgraph =
      fabric::build_dataflow_graph(q.methods[0], q.pool);
  sim::BranchPredictor bp1_q(sim::BranchPredictor::Scenario::BP1);
  const sim::RunMetrics other = engine.run(q.methods[0], qgraph, bp1_q);
  EXPECT_TRUE(other.completed);
  EXPECT_NE(other.ticks, warm.ticks);
}

}  // namespace
}  // namespace javaflow
