#include "fabric/resolver.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

namespace javaflow::fabric {
namespace {

using bytecode::Instruction;
using bytecode::Method;

JumpStats jump_stats(const Method& m, bool backward) {
  JumpStats s;
  std::int64_t total_len = 0;
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const Instruction& inst = m.code[i];
    if (!inst.is_branch()) continue;
    const std::int32_t len = inst.target - static_cast<std::int32_t>(i);
    const bool is_back = len < 0;
    if (is_back != backward) continue;
    ++s.count;
    const std::int32_t alen = len < 0 ? -len : len;
    total_len += alen;
    s.max_length = std::max(s.max_length, alen);
  }
  if (s.count > 0) {
    s.avg_length = static_cast<double>(total_len) / s.count;
  }
  return s;
}

}  // namespace

std::vector<Edge> greedy_needs_up_edges(const Method& m) {
  // The literal §6.2 walk: each consumer sends one need per pop up the
  // chain; the nearest node with an open push captures it. (No branch
  // tags — valid for straight-line regions; tests compare against the
  // graph on branch-free methods.)
  std::vector<int> push_remaining(m.code.size());
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    push_remaining[i] = m.code[i].push;
  }
  std::vector<Edge> edges;
  for (std::size_t c = 0; c < m.code.size(); ++c) {
    for (int side = 1; side <= m.code[c].pop; ++side) {
      for (std::int32_t u = static_cast<std::int32_t>(c) - 1; u >= 0; --u) {
        if (push_remaining[static_cast<std::size_t>(u)] > 0) {
          --push_remaining[static_cast<std::size_t>(u)];
          Edge e;
          e.producer = u;
          e.consumer = static_cast<std::int32_t>(c);
          e.side = static_cast<std::uint8_t>(side);
          edges.push_back(e);
          break;
        }
      }
    }
  }
  return edges;
}

ResolutionResult resolve(const Fabric& fabric, const Method& m,
                         const Placement& placement,
                         const bytecode::ConstantPool& pool) {
  ResolutionResult r;
  if (!placement.fits) return r;

  r.graph = build_dataflow_graph(m, pool);
  r.total_dflows = r.graph.total_dflows;
  r.merges = r.graph.merge_count;
  r.back_merges = r.graph.back_merge_count;
  r.forward_jumps = jump_stats(m, /*backward=*/false);
  r.back_jumps = jump_stats(m, /*backward=*/true);

  // Fan-out and arc statistics (Table 10).
  std::int64_t fan_total = 0, fan_nodes = 0, arc_total = 0, arc_edges = 0;
  for (std::size_t prod = 0; prod < r.graph.consumers_of.size(); ++prod) {
    const auto& outs = r.graph.consumers_of[prod];
    if (outs.empty()) continue;
    ++fan_nodes;
    fan_total += static_cast<std::int64_t>(outs.size());
    r.fanout_max =
        std::max(r.fanout_max, static_cast<std::int32_t>(outs.size()));
    for (const Edge& e : outs) {
      const std::int32_t arc =
          e.consumer > e.producer ? e.consumer - e.producer
                                  : e.producer - e.consumer;
      arc_total += arc;
      ++arc_edges;
      r.arc_max = std::max(r.arc_max, arc);
    }
  }
  if (fan_nodes > 0) {
    r.fanout_avg = static_cast<double>(fan_total) /
                   static_cast<double>(fan_nodes);
  }
  if (arc_edges > 0) {
    r.arc_avg = static_cast<double>(arc_total) /
                static_cast<double>(arc_edges);
  }

  const bool collapsed = fabric.collapsed();
  const std::int64_t hop = collapsed ? 0 : 1;
  const auto n = static_cast<std::int32_t>(m.code.size());
  const std::int32_t n_slots = placement.max_slot + 1;

  // ---- Phase A: addresses down (loop circulation + wrapped tokens) ----
  std::int64_t phase_a = hop * (n_slots + 1);
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const Instruction& inst = m.code[i];
    if (inst.is_branch() && inst.target < static_cast<std::int32_t>(i)) {
      // Back target: the address token wraps at the bottom instruction.
      const std::int64_t arrival =
          hop * (n_slots +
                 placement.slot_of[static_cast<std::size_t>(inst.target)] +
                 1);
      phase_a = std::max(phase_a, arrival);
    }
  }
  r.phase_a_cycles = phase_a;

  // ---- Phase B: needs up, tick-accurate with own-before-relay ----
  struct Need {
    std::int32_t producer;  // capture point (path-exact, = Branch-ID tags)
    std::int32_t consumer;
    std::uint8_t side;
  };
  // Per method node: own needs (sent first) and relayed needs.
  std::vector<std::deque<Need>> own(static_cast<std::size_t>(n));
  std::vector<std::deque<Need>> relay(static_cast<std::size_t>(n));
  // In-flight messages keyed by arrival tick.
  std::multimap<std::int64_t, std::pair<std::int32_t, Need>> in_flight;

  std::int64_t outstanding = 0;
  for (const Edge& e : r.graph.edges) {
    if (e.back) continue;  // none in valid Java (asserted by Table 7)
    own[static_cast<std::size_t>(e.consumer)].push_back(
        Need{e.producer, e.consumer, e.side});
    ++outstanding;
    ++r.need_messages;
  }
  // Order each node's own needs by side (side 1 emitted first).
  for (auto& q : own) {
    std::stable_sort(q.begin(), q.end(),
                     [](const Need& a, const Need& b) {
                       return a.side < b.side;
                     });
  }

  // Injection times: the CMD_SEND_NEEDS_UP wave passes node i at
  // hop * (slot + 1) ticks.
  std::vector<std::int64_t> inject_at(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    inject_at[static_cast<std::size_t>(i)] =
        hop * (placement.slot_of[static_cast<std::size_t>(i)] + 1);
  }

  std::int64_t tick = 0;
  std::int64_t last_tick = 0;
  auto gap = [&](std::int32_t from_node) -> std::int64_t {
    // Reverse-network hops from method node `from_node` to node-1.
    if (from_node <= 0) return hop;
    return hop *
           (placement.slot_of[static_cast<std::size_t>(from_node)] -
            placement.slot_of[static_cast<std::size_t>(from_node) - 1]);
  };

  const std::int64_t max_ticks =
      collapsed ? 4 * std::int64_t{n} + 64
                : 64 * std::int64_t{n_slots} + 1024;
  // Ticks on which no node can send change nothing (a queue's depth only
  // moves on a delivery or a send), so the loop jumps from one busy tick
  // to the next: the earliest in-flight arrival, or the earliest tick at
  // which a node with queued needs has been passed by the wave. Placed
  // at a high absolute slot, a method otherwise spends hop * slot idle
  // ticks scanning every node before the wave reaches it.
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
  while (outstanding > 0 && tick <= max_ticks) {
    // Deliveries at this tick.
    auto [lo, hi] = in_flight.equal_range(tick);
    for (auto it = lo; it != hi; ++it) {
      const auto& [node, need] = it->second;
      if (node == need.producer) {
        --outstanding;
        last_tick = tick;
        ++r.need_hops;
      } else {
        relay[static_cast<std::size_t>(node)].push_back(need);
        ++r.need_hops;
      }
    }
    in_flight.erase(lo, hi);
    // Each node dispatches at most one message per serial tick; its own
    // needs go before anything relayed from below (§6.2).
    std::int64_t next = kNever;
    for (std::int32_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const std::int32_t depth = static_cast<std::int32_t>(
          own[idx].size() + relay[idx].size());
      r.max_queue_up = std::max(r.max_queue_up, depth);
      if (depth == 0) continue;
      if (tick < inject_at[idx]) {  // wave not yet arrived
        next = std::min(next, inject_at[idx]);
        continue;
      }
      if (depth > 1) next = tick + 1;
      Need need{};
      if (!own[idx].empty()) {
        need = own[idx].front();
        own[idx].pop_front();
      } else {
        need = relay[idx].front();
        relay[idx].pop_front();
      }
      const std::int32_t dest = i - 1;
      if (dest < 0) {
        // Reached the Anchor unmatched — validation error (§6.2); count
        // it resolved to keep the simulation terminating.
        --outstanding;
        continue;
      }
      const std::int64_t arrive = tick + std::max<std::int64_t>(gap(i), 1);
      in_flight.emplace(arrive, std::make_pair(dest, need));
    }
    if (!in_flight.empty()) next = std::min(next, in_flight.begin()->first);
    // Nothing queued and nothing in flight: stepping on would only run
    // the clock out, exactly as the tick budget does.
    tick = next == kNever ? max_ticks + 1 : next;
  }
  r.phase_b_cycles = std::max(
      last_tick, *std::max_element(inject_at.begin(), inject_at.end()));
  r.total_cycles = r.phase_a_cycles + r.phase_b_cycles;
  r.ok = outstanding == 0;
  return r;
}

}  // namespace javaflow::fabric
