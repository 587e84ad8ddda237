// Tests for the two-pass serial address-resolution protocol (§6.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "bytecode/assembler.hpp"
#include "fabric/loader.hpp"
#include "fabric/resolver.hpp"
#include "workloads/corpus.hpp"

namespace javaflow::fabric {
namespace {

using bytecode::Assembler;
using bytecode::Op;
using bytecode::Program;
using bytecode::ValueType;

Fabric compact_fabric() {
  FabricOptions opt;
  opt.layout = LayoutKind::Compact;
  return Fabric(opt);
}

ResolutionResult resolve_on_compact(const bytecode::Method& m,
                                    const bytecode::ConstantPool& pool) {
  const Fabric f = compact_fabric();
  const Placement pl = load_method(f, m);
  return resolve(f, m, pl, pool);
}

bytecode::Method straight_line(Program& p, int adds) {
  Assembler a(p, "t.line()I", "test");
  a.returns(ValueType::Int);
  a.iconst(1);
  for (int k = 0; k < adds; ++k) {
    a.iconst(k).op(Op::iadd);
  }
  a.op(Op::ireturn);
  return a.build();
}

TEST(Resolver, CompletesAndCountsDflows) {
  Program p;
  const auto m = straight_line(p, 10);
  const ResolutionResult r = resolve_on_compact(m, p.pool);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.total_dflows, r.graph.total_dflows);
  EXPECT_GT(r.total_dflows, 10);
  EXPECT_EQ(r.back_merges, 0);
}

TEST(Resolver, TotalCyclesNearTwiceInstructionCount) {
  // Table 7: the two resolution passes complete "in approximately twice
  // the number of byte code instructions loaded".
  Program p;
  const auto m = straight_line(p, 40);
  const ResolutionResult r = resolve_on_compact(m, p.pool);
  ASSERT_TRUE(r.ok);
  const auto n = static_cast<double>(m.code.size());
  EXPECT_GE(r.total_cycles, static_cast<std::int64_t>(1.5 * n));
  EXPECT_LE(r.total_cycles, static_cast<std::int64_t>(3.0 * n));
}

TEST(Resolver, QueueDepthReflectsNeedBursts) {
  // A deep stack chain makes consumers emit several needs each; queue
  // depth must be >= the largest single-consumer need count (Table 11).
  Program p;
  Assembler a(p, "t.deep()V", "test");
  a.returns(ValueType::Void);
  a.iconst(1).iconst(2).iconst(3).iconst(4);
  a.invokestatic("t.sink(IIII)V", 4, ValueType::Void);  // pop 4 at once
  a.op(Op::return_);
  const auto m = a.build();
  const ResolutionResult r = resolve_on_compact(m, p.pool);
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.max_queue_up, 4);
  EXPECT_EQ(r.need_messages, 4 + 0);  // only the call pops
}

TEST(Resolver, JumpStatsSeparateDirections) {
  Program p;
  Assembler a(p, "t.jumps(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label(), skip = a.new_label();
  a.iload(0).ifle(skip);   // forward conditional
  a.iinc(0, 1);
  a.bind(skip);
  a.goto_(test);           // forward goto
  a.bind(body);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);   // backward conditional
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const ResolutionResult r = resolve_on_compact(m, p.pool);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.forward_jumps.count, 2);
  EXPECT_EQ(r.back_jumps.count, 1);
  EXPECT_GT(r.forward_jumps.avg_length, 0.0);
  EXPECT_GT(r.back_jumps.avg_length, 0.0);
}

TEST(Resolver, BackTargetsExtendPhaseA) {
  Program p;
  Assembler a(p, "t.loop(I)I", "test");
  a.args({ValueType::Int}).returns(ValueType::Int);
  auto body = a.new_label(), test = a.new_label();
  a.goto_(test);
  a.bind(body);
  a.iinc(0, -1);
  a.bind(test);
  a.iload(0).ifgt(body);
  a.iload(0).op(Op::ireturn);
  const auto m = a.build();
  const ResolutionResult r = resolve_on_compact(m, p.pool);
  ASSERT_TRUE(r.ok);
  // The back-target address token wraps the loop: phase A exceeds one
  // full circulation.
  EXPECT_GT(r.phase_a_cycles,
            static_cast<std::int64_t>(m.code.size()) + 1);
}

TEST(Resolver, FanoutAndArcStatisticsMatchGraph) {
  Program p;
  Assembler a(p, "t.dup()I", "test");
  a.returns(ValueType::Int);
  a.iconst(3).op(Op::dup).op(Op::imul).op(Op::ireturn);
  const auto m = a.build();
  const ResolutionResult r = resolve_on_compact(m, p.pool);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.fanout_max, 2);  // dup feeds both imul sides
  EXPECT_GE(r.arc_avg, 1.0);
  EXPECT_LE(r.arc_avg, 2.0);
}

// Corpus property: resolution succeeds for every kernel and never finds a
// back merge; cycles stay near 2x instructions (the Table 7 observation).
class KernelResolution : public ::testing::TestWithParam<std::size_t> {
 public:
  static const workloads::Corpus& corpus() {
    static workloads::Corpus c = [] {
      workloads::CorpusOptions opt;
      opt.total_methods = 0;
      return workloads::make_corpus(opt);
    }();
    return c;
  }
};

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelResolution,
                         ::testing::Range<std::size_t>(0, 66));

TEST_P(KernelResolution, ResolvesCleanly) {
  const auto& c = corpus();
  ASSERT_LT(GetParam(), c.program.methods.size());
  const bytecode::Method& m = c.program.methods[GetParam()];
  const ResolutionResult r = resolve_on_compact(m, c.program.pool);
  ASSERT_TRUE(r.ok) << m.name;
  EXPECT_EQ(r.back_merges, 0) << m.name;
  const auto n = static_cast<std::int64_t>(m.code.size());
  EXPECT_LE(r.total_cycles, 4 * n + 64) << m.name;
  EXPECT_GE(r.total_cycles, n) << m.name;
}

// ---- phase B at high slots ----

// The phase-B needs-up protocol stepped one tick at a time over every
// node, as it was simulated before idle ticks were skipped. The
// reference for the three metrics phase B reports.
struct PhaseB {
  std::int64_t cycles = 0;
  std::int32_t max_queue_up = 0;
  std::int64_t need_hops = 0;
};

PhaseB stepped_phase_b(const Fabric& fabric, const bytecode::Method& m,
                       const Placement& placement, const DataflowGraph& g) {
  struct Need {
    std::int32_t producer;
  };
  const std::int64_t hop = fabric.collapsed() ? 0 : 1;
  const auto n = static_cast<std::int32_t>(m.code.size());
  const std::int32_t n_slots = placement.max_slot + 1;
  std::vector<std::deque<Need>> own(static_cast<std::size_t>(n));
  std::vector<std::deque<Need>> relay(static_cast<std::size_t>(n));
  std::multimap<std::int64_t, std::pair<std::int32_t, Need>> in_flight;
  std::vector<std::vector<std::pair<std::uint8_t, Need>>> by_side(
      static_cast<std::size_t>(n));
  std::int64_t outstanding = 0;
  for (const Edge& e : g.edges) {
    if (e.back) continue;
    by_side[static_cast<std::size_t>(e.consumer)].push_back(
        {e.side, Need{e.producer}});
    ++outstanding;
  }
  for (std::size_t i = 0; i < by_side.size(); ++i) {
    std::stable_sort(by_side[i].begin(), by_side[i].end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [side, need] : by_side[i]) own[i].push_back(need);
  }
  const auto slot = [&](std::int32_t i) {
    return placement.slot_of[static_cast<std::size_t>(i)];
  };
  PhaseB out;
  std::int64_t last_tick = 0;
  std::int64_t inject_max = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    inject_max = std::max(inject_max, hop * (slot(i) + 1));
  }
  const std::int64_t max_ticks = fabric.collapsed()
                                     ? 4 * std::int64_t{n} + 64
                                     : 64 * std::int64_t{n_slots} + 1024;
  for (std::int64_t tick = 0; outstanding > 0 && tick <= max_ticks; ++tick) {
    auto [lo, hi] = in_flight.equal_range(tick);
    for (auto it = lo; it != hi; ++it) {
      const auto& [node, need] = it->second;
      ++out.need_hops;
      if (node == need.producer) {
        --outstanding;
        last_tick = tick;
      } else {
        relay[static_cast<std::size_t>(node)].push_back(need);
      }
    }
    in_flight.erase(lo, hi);
    for (std::int32_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      out.max_queue_up = std::max(
          out.max_queue_up,
          static_cast<std::int32_t>(own[idx].size() + relay[idx].size()));
      if (tick < hop * (slot(i) + 1)) continue;
      Need need{};
      if (!own[idx].empty()) {
        need = own[idx].front();
        own[idx].pop_front();
      } else if (!relay[idx].empty()) {
        need = relay[idx].front();
        relay[idx].pop_front();
      } else {
        continue;
      }
      if (i == 0) {
        --outstanding;
        continue;
      }
      const std::int64_t gap =
          std::max<std::int64_t>(hop * (slot(i) - slot(i - 1)), 1);
      in_flight.emplace(tick + gap, std::make_pair(i - 1, need));
    }
  }
  out.cycles = std::max(last_tick, inject_max);
  return out;
}

// Serving loads methods at absolute slots far down the chain; phase B
// must report exactly what the tick-by-tick protocol does there, on a
// dense and a heterogeneous layout.
TEST(Resolver, PhaseBAtHighSlotsMatchesSteppedReference) {
  const auto& c = KernelResolution::corpus();
  for (const LayoutKind layout :
       {LayoutKind::Compact, LayoutKind::Heterogeneous}) {
    FabricOptions opt;
    opt.layout = layout;
    const Fabric f(opt);
    for (std::size_t mi = 0; mi < c.program.methods.size(); mi += 5) {
      const bytecode::Method& m = c.program.methods[mi];
      for (const std::int32_t first : {0, 1500, 3977}) {
        const Placement pl = load_method(f, m, first);
        if (!pl.fits) continue;
        const ResolutionResult r = resolve(f, m, pl, c.program.pool);
        const PhaseB ref = stepped_phase_b(f, m, pl, r.graph);
        ASSERT_TRUE(r.ok) << m.name;
        EXPECT_EQ(r.phase_b_cycles, ref.cycles) << m.name << " @" << first;
        EXPECT_EQ(r.max_queue_up, ref.max_queue_up)
            << m.name << " @" << first;
        EXPECT_EQ(r.need_hops, ref.need_hops) << m.name << " @" << first;
      }
    }
  }
}

}  // namespace
}  // namespace javaflow::fabric
