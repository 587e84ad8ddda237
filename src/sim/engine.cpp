#include "sim/engine.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "obs/critpath.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "sim/engine_internal.hpp"

namespace javaflow::sim {
namespace {

using bytecode::Group;
using bytecode::Method;
using fabric::DataflowGraph;
using fabric::Placement;
using net::Command;

// Token, NodeRt, the firing-state bits, the 32-byte Event record, and
// the calendar queue are shared with the multi-tenant MultiEngine
// (sim/engine_internal.hpp). Single-method runs leave Event::res at 0.
using detail::Event;
using detail::EvKind;
using detail::kExecuting;
using detail::kFired;
using detail::kHeadReceived;
using detail::kInService;
using detail::kWaitTailFlush;
using detail::NodeRt;
using detail::Token;

// Sentinel `parent` for schedule(): attach the new dependency edge to
// the event currently being dispatched (flight recorder only).
constexpr std::int32_t kParentCurrent = -2;

}  // namespace

struct detail::EngineWorkspace {
  // Cold per-node state plus the struct-of-arrays hot lanes. The lanes
  // are indexed by linear instruction address, same as `nodes`.
  std::vector<NodeRt> nodes;
  std::vector<std::uint8_t> node_state;   // kHeadReceived|kFired|...
  std::vector<std::int32_t> node_pops;    // mesh operands received
  std::vector<std::int32_t> node_epoch;   // iteration epoch (mesh filter)
  std::vector<std::int64_t> node_head_tick;  // latest HEAD arrival
  std::vector<std::int64_t> node_tail_hold;  // TAIL hold start
  std::vector<char> distinct;
  std::vector<char> node_exec_busy;
  std::vector<detail::FireQueue> pending_fire;

  // The event queue; see detail::CalendarQueue for the order argument.
  detail::CalendarQueue calendar;
  std::vector<Token> flush_scratch;  // flush_up bundle staging
  // Flight-recorder lanes: arrival edges of flushed tokens (parallels
  // flush_scratch) and the edge that made each node fire-ready while its
  // execution unit was busy (FireStall attribution, idus > 1 only).
  std::vector<std::int32_t> flush_edge_scratch;
  std::vector<std::int32_t> node_ready_edge;

  // Lowered-plan cache: the plan for the most recent method handed to
  // run(m, graph[, placement]), keyed on address + size + name (so a
  // recycled allocation holding a different method cannot alias a stale
  // plan) plus a slot-lane equality check when the caller supplies an
  // external placement (the fabric manager re-places co-resident
  // methods, so the same method can legitimately arrive with different
  // slots). The builder's scratch and the plan's arena both grow
  // monotonically across rebuilds.
  const bytecode::Method* plan_method = nullptr;
  std::size_t plan_code_size = 0;
  std::string plan_name;
  bool plan_valid = false;
  bool plan_external = false;
  ExecPlan plan;
  ExecPlanBuilder plan_builder;
};

namespace {

// One engine run. `kInstr` compiles the telemetry hooks in or out: the
// uninstrumented instantiation (no metrics/tracer/flight) folds every
// null-check guard to a constant, so the sweep hot path carries zero
// instrumentation branches. Static per-node data is read through raw
// const pointers into the ExecPlan arena, and the timing model is the
// MachineConfig the plan was lowered for.
template <bool kInstr>
class Run {
 public:
  Run(const EngineOptions& opt, const Method& m, BranchPredictor& predictor,
      const ExecPlan& plan, detail::EngineWorkspace& ws)
      : plan_(plan),
        cfg_(plan.config()),
        opt_(opt),
        m_(m),
        predictor_(predictor),
        k_(plan.serial_per_mesh()),
        hop_(plan.hop_ticks()),
        idus_(plan.idus_per_node()),
        mx_(opt.metrics),
        tr_(opt.tracer),
        fr_(opt.flight),
        node_exec_busy_(ws.node_exec_busy),
        pending_fire_(ws.pending_fire),
        nodes_(ws.nodes),
        state_(ws.node_state),
        pops_(ws.node_pops),
        epoch_(ws.node_epoch),
        head_tick_(ws.node_head_tick),
        tail_hold_(ws.node_tail_hold),
        distinct_(ws.distinct),
        cal_(ws.calendar),
        flush_scratch_(ws.flush_scratch),
        flush_edge_scratch_(ws.flush_edge_scratch),
        node_ready_edge_(ws.node_ready_edge) {}

  RunMetrics execute() {
    RunMetrics metrics;
    // An unfit or timed-out run leaves the recorder without a terminal
    // edge, which attribute() reports as invalid — never as zeros.
    if (fr() != nullptr) fr()->reset();
    metrics.static_size = static_cast<std::int32_t>(m_.code.size());
    const std::size_t nn = m_.code.size();
    if (!plan_.fits()) return metrics;
    metrics.fits = true;
    metrics.max_slot = plan_.max_slot();
    max_phys_ = plan_.max_phys();
    group_ = plan_.group();
    op_ = plan_.op();
    nflags_ = plan_.flags();
    bkinds_ = plan_.branch_kinds();
    pop_need_ = plan_.pop_need();
    local_reg_ = plan_.local_reg();
    phys_ = plan_.phys();
    target_ = plan_.target();
    operand_ = plan_.operand();
    exec_cost_ = plan_.exec_cost_ticks();
    serial_next_ = plan_.serial_next_ticks();

    node_exec_busy_.assign(static_cast<std::size_t>(max_phys_ + 1), 0);
    // Keep the per-physical-node pending lists (and their capacity)
    // across runs; only the entries this method can touch need clearing.
    if (pending_fire_.size() < node_exec_busy_.size()) {
      pending_fire_.resize(node_exec_busy_.size());
    }
    for (std::size_t i = 0; i < node_exec_busy_.size(); ++i) {
      pending_fire_[i].clear();
    }
    nodes_.resize(nn);
    for (std::size_t i = 0; i < nn; ++i) nodes_[i].reset_cold();
    state_.assign(nn, 0);
    pops_.assign(nn, 0);
    epoch_.assign(nn, 0);
    if (mx() != nullptr) {
      head_tick_.assign(nn, -1);
      tail_hold_.assign(nn, -1);
    }
    distinct_.assign(nn, 0);
    if (fr() != nullptr) node_ready_edge_.assign(nn, -1);

    init_calendar();
    inject_bundle();
    run_calendar(metrics);

    flush_exec_accounting();
    metrics.completed = completed_;
    metrics.exception = exception_raised_;
    metrics.ticks = completed_ ? end_tick_ : now_;
    metrics.mesh_cycles =
        std::max<std::int64_t>(1, (metrics.ticks + k_ - 1) / k_);
    metrics.instructions_fired = fired_count_;
    metrics.distinct_fired = static_cast<std::int32_t>(
        std::count(distinct_.begin(), distinct_.end(), 1));
    metrics.mesh_messages = mesh_messages_;
    metrics.serial_messages = serial_messages_;
    metrics.ticks_exec_1plus = acc_1plus_;
    metrics.ticks_exec_2plus = acc_2plus_;
    if (mx() != nullptr) ++mx()->runs;
    return metrics;
  }

 private:
  // Telemetry access, compiled out entirely when !kInstr (the pointers
  // fold to null constants and every guarded site dead-code-eliminates).
  obs::MetricsRegistry* mx() const { return kInstr ? mx_ : nullptr; }
  obs::EventTracer* tr() const { return kInstr ? tr_ : nullptr; }
  obs::FlightRecorder* fr() const { return kInstr ? fr_ : nullptr; }

  bool flag(std::size_t u, std::uint8_t f) const {
    return (nflags_[u] & f) != 0;
  }

  // Iteration reset (loop replay): clears the hot lanes and the cold
  // routing state, and bumps the epoch so in-flight mesh operands from
  // the previous trip are discarded on arrival.
  void reset_node(std::int32_t i) {
    const auto u = static_cast<std::size_t>(i);
    state_[u] = 0;
    pops_[u] = 0;
    ++epoch_[u];
    if (mx() != nullptr) {
      head_tick_[u] = -1;
      tail_hold_[u] = -1;
    }
    nodes_[u].reset_cold();
  }

  // ---- event queue ----
  void init_calendar() {
    // A completed run can leave undrained events behind; reset drops
    // them along with the previous run's ring size.
    cal_.reset(detail::ring_buckets(cfg_, max_phys_, m_.max_locals));
  }

  // Every schedule site enqueues its event in place (cal_.emplace) and
  // then names the delay category the event represents; with the
  // recorder attached, one dependency edge is captured per event, keyed
  // on the seq emplace() returned. `parent` -2 means "the event being
  // dispatched right now" (cur_edge_); hold-release sites pass an
  // explicit splice edge instead. Without a recorder the call is the
  // usual single null check.
  void record_edge(std::int64_t seq, std::int64_t tick, std::int32_t node,
                   obs::PathCategory cat,
                   std::int32_t parent = kParentCurrent,
                   std::int32_t from_phys = -1, std::int32_t to_phys = -1,
                   std::uint8_t opcode = 0) {
    if (fr() != nullptr) {
      fr()->record_event(
          seq, {now_, tick, parent == kParentCurrent ? cur_edge_ : parent,
                node, from_phys, to_phys, cat, opcode});
    }
  }

  void run_calendar(RunMetrics& metrics) {
    while (cal_.live() > 0 && !completed_) {
      cal_.migrate_overflow();
      detail::Bucket* bucket = &cal_.current();
      while (bucket->empty()) {
        cal_.advance_to(cal_.next_pending_tick());
        bucket = &cal_.current();
      }
      now_ = cal_.cursor();
      if (now_ > opt_.max_ticks) {
        metrics.timed_out = true;
        break;
      }
      // Batch-drain the whole tick: now_ is set once, and the index scan
      // tolerates the bucket growing underneath us (zero-delay serial
      // forwards in the collapsed Baseline land on the current tick,
      // always with a larger seq — i.e. behind the scan point).
      std::size_t i = 0;
      for (; i < bucket->size() && !completed_; ++i) {
        const Event ev = (*bucket)[i];
        if (fr() != nullptr) cur_edge_ = fr()->edge_of_seq(ev.seq);
        dispatch(ev);
      }
      cal_.consumed(static_cast<std::int64_t>(i));
      cal_.clear_current();
      cal_.set_cursor(cal_.cursor() + 1);
    }
  }

  void dispatch(const Event& ev) {
    switch (ev.kind()) {
      case EvKind::Serial:
        on_serial(ev.node, Token{ev.cmd, ev.aux});
        break;
      case EvKind::Mesh:
        on_mesh(ev.node, ev.side(), ev.aux, ev.prod);
        break;
      case EvKind::ExecDone: on_exec_done(ev.node); break;
      case EvKind::ServiceDone: on_service_done(ev.node); break;
    }
  }

  // ---- scheduling helpers ----
  void schedule_service_done(std::int32_t node, std::int64_t tick) {
    const std::int64_t seq =
        cal_.emplace(tick, detail::kind_side(EvKind::ServiceDone), node);
    record_edge(seq, tick, node, obs::PathCategory::RingService);
  }

  std::int64_t serial_delay(std::int32_t from_node, std::int32_t to_node) {
    const std::int32_t a =
        from_node < 0 ? -1 : phys_[static_cast<std::size_t>(from_node)];
    const std::int32_t b = phys_[static_cast<std::size_t>(to_node)];
    const std::int64_t hops = a < 0 ? b + 1 : (a < b ? b - a : a - b);
    return hop_ * std::max<std::int64_t>(hops, 1);
  }

  void send_serial(std::int32_t from_node, std::int32_t to_node,
                   Token tok, std::int64_t extra = 0,
                   std::int32_t parent_edge = kParentCurrent) {
    if (to_node < 0 ||
        static_cast<std::size_t>(to_node) >= nodes_.size()) {
      return;  // token falls off the chain (e.g. past the bottom)
    }
    emit_serial(to_node, tok, serial_delay(from_node, to_node), extra,
                parent_edge);
  }

  // Forward from a node that does not buffer tokens: its serial target
  // is always node + 1 (only a buffering control node redirects), so
  // the hop cost is the plan's serial forward lane, −1 past the bottom.
  void forward_next(std::int32_t node, Token tok,
                    std::int32_t parent_edge = kParentCurrent) {
    const std::int32_t delay = serial_next_[static_cast<std::size_t>(node)];
    if (delay < 0) return;  // token falls off the bottom of the chain
    emit_serial(node + 1, tok, delay, /*extra=*/0, parent_edge);
  }

  [[gnu::always_inline]] inline void emit_serial(std::int32_t to_node,
                                                 Token tok,
                                                 std::int64_t delay,
                                                 std::int64_t extra,
                                                 std::int32_t parent_edge) {
    ++serial_messages_;
    if (mx() != nullptr) {
      ++mx()->serial_messages;
      mx()->serial_hop_ticks += static_cast<std::uint64_t>(delay);
      ++mx()->serial_commands[static_cast<std::size_t>(tok.cmd)];
    }
    const std::int64_t tick = now_ + delay + extra;
    const std::int64_t seq =
        cal_.emplace(tick, detail::kind_side(EvKind::Serial), to_node,
                     tok.reg, /*prod=*/-1, /*res=*/0, tok.cmd);
    record_edge(seq, tick, to_node, obs::PathCategory::SerialTransit,
                parent_edge);
  }

  void send_mesh(std::int32_t producer) {
    const auto u = static_cast<std::size_t>(producer);
    const std::int32_t from_phys = phys_[u];
    // CSR edges with delivery already in ticks; route links replay from
    // the arena in the exact X-Y walk order.
    const std::int32_t* eb = plan_.edge_begin();
    const PlanEdge* e = plan_.edges() + eb[u];
    const PlanEdge* const end = plan_.edges() + eb[u + 1];
    for (; e != end; ++e) {
      ++mesh_messages_;
      if (mx() != nullptr) record_mesh_metrics(*e);
      const std::int64_t tick = now_ + e->delivery_ticks;
      const std::int64_t seq = cal_.emplace(
          tick, detail::kind_side(EvKind::Mesh, e->side), e->consumer,
          epoch_[static_cast<std::size_t>(e->consumer)], producer);
      record_edge(seq, tick, e->consumer, obs::PathCategory::MeshTransit,
                  kParentCurrent, from_phys, e->to_phys);
    }
  }

  // ---- flight recorder (critical-path attribution) ----
  //
  // A token that sat held at a node between delivery and release gets a
  // synthetic hold edge spliced in: [arrival end, now]. The release's
  // transit edge then parents on the hold edge, so attribute() walks
  // release -> hold -> arrival with no tick gap — waiting time becomes
  // its own category instead of disappearing into the next hop. Callers
  // invoke this only with the recorder attached.
  std::int32_t hold_edge(std::int32_t node, std::int32_t arrival_edge,
                         obs::PathCategory cat) {
    if (arrival_edge < 0) return cur_edge_;  // defensive: unknown arrival
    const std::int64_t arrived =
        fr()->edges()[static_cast<std::size_t>(arrival_edge)].to_tick;
    return fr()->record(
        {arrived, now_, arrival_edge, node, -1, -1, cat, 0});
  }


  // ---- telemetry (every site is a single null check when disabled) ----
  void record_mesh_metrics(const PlanEdge& e) {
    ++mx()->mesh_messages;
    mx()->mesh_transit_cycles += static_cast<std::uint64_t>(e.mesh_cycles);
    const PlanRouteLink* link = plan_.route_links() + e.route_begin;
    for (std::int32_t i = 0; i < e.route_count; ++i, ++link) {
      mx()->mesh_link(link->src_phys, static_cast<obs::LinkDir>(link->dir));
    }
  }

  // Called after every buffered.push_back: keeps the high-water mark
  // and (recorder attached) the parallel arrival-edge list in sync.
  void note_buffered(std::int32_t node, NodeRt& n) {
    if (fr() != nullptr) n.buffered_edges.push_back(cur_edge_);
    if (mx() != nullptr) {
      mx()->buffer_high_water(phys_[static_cast<std::size_t>(node)],
                              n.buffered.size());
    }
  }

  void record_service(std::int32_t node, net::RingService svc,
                      std::int64_t ticks) {
    if (mx() != nullptr) {
      ++mx()->ring_requests[static_cast<std::size_t>(svc)];
      mx()->ring_latency_ticks[static_cast<std::size_t>(svc)].record(ticks);
    }
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::ServiceStart, node,
                    phys_[static_cast<std::size_t>(node)],
                    static_cast<std::uint8_t>(svc), ticks});
    }
  }

  // ---- execution-overlap accounting (Table 26) ----
  void exec_delta(int delta) {
    if (active_exec_ >= 1) acc_1plus_ += now_ - last_exec_change_;
    if (active_exec_ >= 2) acc_2plus_ += now_ - last_exec_change_;
    last_exec_change_ = now_;
    active_exec_ += delta;
  }
  void flush_exec_accounting() {
    if (active_exec_ >= 1) acc_1plus_ += now_ - last_exec_change_;
    if (active_exec_ >= 2) acc_2plus_ += now_ - last_exec_change_;
    last_exec_change_ = now_;
  }

  // ---- token bundle ----
  void inject_bundle() {
    const std::int64_t spacing = hop_ == 0 ? 0 : 1;
    std::int64_t idx = 0;
    now_ = 0;
    send_serial(-1, 0, Token{Command::HeadToken, -1}, spacing * idx++);
    send_serial(-1, 0, Token{Command::MemoryToken, -1}, spacing * idx++);
    for (std::int32_t r = 0; r < m_.max_locals; ++r) {
      send_serial(-1, 0, Token{Command::RegisterToken, r}, spacing * idx++);
    }
    send_serial(-1, 0, Token{Command::TailToken, -1}, spacing * idx++);
  }

  // ---- serial handlers ----

  // Forward from a buffering control node: to node + 1 until a forward
  // transfer fires, then to the transfer's target.
  void forward_token(std::int32_t node, const NodeRt& n, Token tok) {
    send_serial(node, n.forward_target < 0 ? node + 1 : n.forward_target,
                tok);
  }

  void on_serial(std::int32_t node, Token tok) {
    const auto u = static_cast<std::size_t>(node);
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::TokenDeliver, node,
                    phys_[u], static_cast<std::uint8_t>(tok.cmd), 0});
    }
    const std::uint8_t st = state_[u];
    if (flag(u, kPlanBuffers)) {
      on_serial_buffering(node, tok, st);
      return;
    }
    // The serial forward lane: most hops end here, at a node that only
    // relays the token, with no NodeRt access.
    if (detail::passes_through(st, flag(u, kPlanOrdered), local_reg_[u],
                               group_[u], tok)) {
      forward_next(node, tok);
      return;
    }
    NodeRt& n = nodes_[u];
    switch (tok.cmd) {
      case Command::HeadToken:
        state_[u] |= kHeadReceived;
        if (mx() != nullptr) head_tick_[u] = now_;
        try_fire(node);
        forward_next(node, tok);  // the HEAD runs ahead (§6.3)
        return;

      case Command::MemoryToken:
        // Ordered storage, not fired yet: hold until it fires.
        n.memory_held = true;
        n.held_memory = tok;
        if (fr() != nullptr) n.held_memory_edge = cur_edge_;
        try_fire(node);
        return;

      case Command::RegisterToken: {
        // This node's own register, and the node is unfired or writes it.
        const Group g = static_cast<Group>(group_[u]);
        if (g == Group::LocalWrite) {
          if (!(st & kFired)) {
            n.write_absorbed = true;  // the write kills the old value
          } else if (n.kill_next_register) {
            n.kill_next_register = false;  // stale token after firing
          } else {
            forward_next(node, tok);
          }
          return;
        }
        if (!n.reg_held) {  // LocalRead / LocalInc captures its value
          n.reg_held = true;
          n.held_reg = tok;
          if (fr() != nullptr) n.held_reg_edge = cur_edge_;
          try_fire(node);
          return;
        }
        forward_next(node, tok);
        return;
      }

      case Command::TailToken:
        n.tail_held = true;  // held until this node fires (§6.3)
        n.held_tail = tok;
        if (fr() != nullptr) n.held_tail_edge = cur_edge_;
        if (mx() != nullptr) tail_hold_[u] = now_;
        return;

      default:
        forward_next(node, tok);
        return;
    }
  }

  // Control-transfer nodes hold the bundle while unfired AND while a
  // fired backward transfer awaits its TAIL — those tokens are the
  // bundle that will replay around the loop (§6.3). Otherwise they
  // forward each token.
  void on_serial_buffering(std::int32_t node, Token tok, std::uint8_t st) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    const bool fired = (st & kFired) != 0;
    const bool hold = !fired || (st & kWaitTailFlush) != 0;
    switch (tok.cmd) {
      case Command::HeadToken:
        state_[u] |= kHeadReceived;
        if (mx() != nullptr) head_tick_[u] = now_;
        if (hold) {
          n.buffered.push_back(tok);
          note_buffered(node, n);
          try_fire(node);
        } else {
          try_fire(node);
          forward_token(node, n, tok);  // the HEAD runs ahead (§6.3)
        }
        return;

      case Command::TailToken:
        if (!fired) {
          n.buffered.push_back(tok);
          note_buffered(node, n);
          n.tail_present = true;
          try_fire(node);  // returns / backward gotos need the TAIL
        } else if (st & kWaitTailFlush) {
          n.buffered.push_back(tok);
          note_buffered(node, n);
          flush_up(node);
        } else {
          forward_token(node, n, tok);
        }
        return;

      case Command::MemoryToken:
      case Command::RegisterToken:
        if (hold) {
          n.buffered.push_back(tok);
          note_buffered(node, n);
        } else {
          forward_token(node, n, tok);
        }
        return;

      default:
        forward_token(node, n, tok);
        return;
    }
  }

  void on_mesh(std::int32_t node, std::uint8_t side, std::int32_t epoch,
               std::int32_t producer) {
    const auto u = static_cast<std::size_t>(node);
    if (epoch_[u] != epoch) return;  // stale (previous iteration)
    if (tr() != nullptr) {
      // `dur` carries the producing node so the Chrome exporter can draw
      // producer->consumer flow arrows (docs/OBSERVABILITY.md).
      tr()->record({now_, obs::TraceEventKind::OperandArrive, node,
                    phys_[u], side, producer});
    }
    ++pops_[u];
    try_fire(node);
  }

  // ---- firing ----
  bool fire_ready(std::int32_t node) const {
    const auto u = static_cast<std::size_t>(node);
    // Exactly "HEAD received and nothing else": fired / executing /
    // in-service all block, so one byte compare covers five flags.
    if (state_[u] != kHeadReceived) return false;
    const NodeRt& n = nodes_[u];
    switch (static_cast<Group>(group_[u])) {
      case Group::LocalRead:
      case Group::LocalInc:
        return n.reg_held;
      case Group::MemRead:
      case Group::MemWrite:
        return pops_[u] >= pop_need_[u] && n.memory_held;
      case Group::Return:
        return pops_[u] >= pop_need_[u] && n.tail_present;
      case Group::ControlFlow:
        if (flag(u, kPlanBackwardGoto)) {
          return n.tail_present;  // backward GoTo fires on TAIL (§6.3)
        }
        return pops_[u] >= pop_need_[u];
      default:
        return pops_[u] >= pop_need_[u];
    }
  }

  void try_fire(std::int32_t node) {
    if (!fire_ready(node)) return;
    const auto u = static_cast<std::size_t>(node);
    // One Instruction Execution Unit per physical node: with several
    // IDUs packed into a node (§4.2), firings within a node serialize.
    const auto pn = static_cast<std::size_t>(phys_[u]);
    if (idus_ > 1 && node_exec_busy_[pn]) {
      // Remember what made the node ready: the gap until it actually
      // fires is FireStall time on the critical path.
      if (fr() != nullptr && node_ready_edge_[u] < 0) {
        node_ready_edge_[u] = cur_edge_;
      }
      pending_fire_[pn].push(node);
      return;
    }
    node_exec_busy_[pn] = true;
    state_[u] |= kExecuting;
    exec_delta(+1);
    const std::int64_t cost = exec_cost_[u];
    if (mx() != nullptr) {
      mx()->node_firing(static_cast<std::int32_t>(pn), op_[u]);
      mx()->exec_ticks_by_group[group_[u]].record(cost);
      if (head_tick_[u] >= 0) {
        mx()->fire_stall_ticks.record(now_ - head_tick_[u]);
      }
    }
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::FireStart, node,
                    static_cast<std::int32_t>(pn), group_[u], cost});
    }
    std::int32_t parent = kParentCurrent;
    if (fr() != nullptr && node_ready_edge_[u] >= 0) {
      parent =
          hold_edge(node, node_ready_edge_[u], obs::PathCategory::FireStall);
      node_ready_edge_[u] = -1;
    }
    const std::int64_t seq =
        cal_.emplace(now_ + cost, detail::kind_side(EvKind::ExecDone), node);
    record_edge(seq, now_ + cost, node, obs::PathCategory::Execution, parent,
                -1, -1, op_[u]);
  }

  void release_execution_unit(std::int32_t node) {
    const auto pn =
        static_cast<std::size_t>(phys_[static_cast<std::size_t>(node)]);
    node_exec_busy_[pn] = false;
    if (idus_ <= 1) return;
    auto& pending = pending_fire_[pn];
    while (!pending.empty()) {
      const std::int32_t next = pending.pop();
      try_fire(next);
      if (node_exec_busy_[pn]) break;  // someone grabbed the unit
    }
  }

  void mark_fired(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    state_[u] |= kFired;
    ++fired_count_;
    distinct_[u] = true;
  }

  // Releases everything a non-control node owes downstream after firing.
  void post_fire_releases(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    const Group g = static_cast<Group>(group_[u]);
    if (g == Group::LocalRead || g == Group::LocalInc) {
      if (n.reg_held) {
        n.reg_held = false;
        forward_next(node, n.held_reg,  // register value flows on
                     fr() != nullptr
                         ? hold_edge(node, n.held_reg_edge,
                                     obs::PathCategory::OperandWait)
                         : kParentCurrent);
      }
    }
    if (g == Group::LocalWrite) {
      forward_next(node, Token{Command::RegisterToken, local_reg_[u]});
      if (!n.write_absorbed) n.kill_next_register = true;
    }
    if (n.memory_held) {
      n.memory_held = false;
      forward_next(node, n.held_memory,  // memory order established
                   fr() != nullptr
                       ? hold_edge(node, n.held_memory_edge,
                                   obs::PathCategory::OperandWait)
                       : kParentCurrent);
    }
    if (n.tail_held) {
      n.tail_held = false;
      if (mx() != nullptr && tail_hold_[u] >= 0) {
        mx()->tail_hold_ticks.record(now_ - tail_hold_[u]);
        tail_hold_[u] = -1;
      }
      forward_next(node, n.held_tail,
                   fr() != nullptr
                       ? hold_edge(node, n.held_tail_edge,
                                   obs::PathCategory::TailHold)
                       : kParentCurrent);
    }
  }

  void on_exec_done(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    state_[u] &= static_cast<std::uint8_t>(~kExecuting);
    exec_delta(-1);
    release_execution_unit(node);
    const Group g = static_cast<Group>(group_[u]);
    if (tr() != nullptr) {
      tr()->record({now_, obs::TraceEventKind::FireComplete, node,
                    phys_[u], static_cast<std::uint8_t>(g), 0});
    }

    if (node == opt_.inject_exception_at &&
        ++exception_fire_count_ >= opt_.inject_exception_fire &&
        !exception_raised_) {
      // §6.3 Exceptions: the node halts, an EXCEPTION_TOKEN reaches the
      // GPP over the ring, and the GPP terminates the method.
      exception_raised_ = true;
      const std::int64_t svc_ticks = k_ * cfg_.ring.gpp_service;
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::GppService, svc_ticks);
      }
      completed_ = true;
      end_tick_ = now_ + svc_ticks;
      // The exception retirement is the run's terminal edge: the GPP
      // round trip [now_, end_tick_] caps the realized critical path.
      if (fr() != nullptr) {
        fr()->set_terminal(fr()->record({now_, end_tick_, cur_edge_, node,
                                         -1, -1,
                                         obs::PathCategory::RingService,
                                         0}));
      }
      return;
    }

    const bool sw = flag(u, kPlanSwitch);
    if (g == Group::ControlFlow || sw) {
      resolve_control(node);
      return;
    }
    if (g == Group::Return) {
      mark_fired(node);
      completed_ = true;
      end_tick_ = now_;
      // The Return's own execution completion is the terminal edge.
      if (fr() != nullptr) fr()->set_terminal(cur_edge_);
      return;
    }
    if (g == Group::Call || g == Group::Special) {
      state_[u] |= kInService;
      const std::int64_t svc_ticks = k_ * cfg_.ring.gpp_service;
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::GppService, svc_ticks);
      }
      schedule_service_done(node, now_ + svc_ticks);
      return;
    }
    if (g == Group::MemRead) {
      state_[u] |= kInService;
      if (n.memory_held) {
        n.memory_held = false;
        forward_next(node, n.held_memory,
                     fr() != nullptr
                         ? hold_edge(node, n.held_memory_edge,
                                     obs::PathCategory::OperandWait)
                         : kParentCurrent);
      }
      const std::int64_t svc_ticks = k_ * cfg_.ring.memory_read;
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::MemoryRead, svc_ticks);
      }
      schedule_service_done(node, now_ + svc_ticks);
      return;
    }
    if (g == Group::MemWrite) {
      // Posted write: the node is fired once the request is dispatched.
      if (mx() != nullptr || tr() != nullptr) {
        record_service(node, net::RingService::MemoryWrite,
                       k_ * cfg_.ring.memory_write);
      }
      mark_fired(node);
      post_fire_releases(node);
      return;
    }
    // Arithmetic / moves / locals / constants: produce and release.
    mark_fired(node);
    send_mesh(node);
    post_fire_releases(node);
  }

  void on_service_done(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    state_[u] &= static_cast<std::uint8_t>(~kInService);
    if (tr() != nullptr) {
      const net::RingService svc =
          static_cast<Group>(group_[u]) == Group::MemRead
              ? net::RingService::MemoryRead
              : net::RingService::GppService;
      tr()->record({now_, obs::TraceEventKind::ServiceComplete, node,
                    phys_[u], static_cast<std::uint8_t>(svc), 0});
    }
    mark_fired(node);
    send_mesh(node);  // read data / call result to consumers
    post_fire_releases(node);
  }

  // Control-transfer decision and token routing (§6.3).
  void resolve_control(std::int32_t node) {
    const auto u = static_cast<std::size_t>(node);
    NodeRt& n = nodes_[u];
    std::int32_t target;
    if (flag(u, kPlanGoto)) {
      target = target_[u];
    } else if (flag(u, kPlanSwitch)) {
      const bytecode::SwitchTable& table =
          m_.switches[static_cast<std::size_t>(operand_[u])];
      const auto arms =
          static_cast<std::int32_t>(table.targets.size()) + 1;
      const std::int32_t pick = predictor_.decide_switch(node, arms);
      target = pick < static_cast<std::int32_t>(table.targets.size())
                   ? table.targets[static_cast<std::size_t>(pick)]
                   : table.default_target;
    } else {
      const auto kind = static_cast<BranchKind>(bkinds_[u]);
      const bool taken = predictor_.decide(node, kind);
      target = taken ? target_[u] : node + 1;
    }

    mark_fired(node);
    if (target > node) {
      // Forward transfer: flush the buffer toward the target; later
      // tokens follow the same route until the iteration resets.
      n.forward_target = target;
      std::int64_t idx = 0;
      for (std::size_t bi = 0; bi < n.buffered.size(); ++bi) {
        const Token& tok = n.buffered[bi];
        std::int32_t parent = kParentCurrent;
        if (fr() != nullptr) {
          // Buffered tokens waited from arrival to the branch decision:
          // TAIL hold for the TAIL, operand wait for the rest.
          parent = hold_edge(node,
                             bi < n.buffered_edges.size()
                                 ? n.buffered_edges[bi]
                                 : -1,
                             tok.cmd == Command::TailToken
                                 ? obs::PathCategory::TailHold
                                 : obs::PathCategory::OperandWait);
        }
        send_serial(node, target, tok, hop_ == 0 ? 0 : idx++, parent);
      }
      n.buffered.clear();
      n.buffered_edges.clear();
      return;
    }
    // Backward transfer: hold everything until the TAIL arrives (§6.3).
    state_[u] |= kWaitTailFlush;
    n.decided_target = target;
    if (n.tail_present) flush_up(node);
  }

  // Back jump with TAIL in hand: replay the bundle to the loop head via
  // the reverse network, resetting every node it passes. The bundle is
  // staged in the workspace scratch vector, so neither side of the swap
  // ever re-allocates once warmed up.
  void flush_up(std::int32_t node) {
    NodeRt& n = nodes_[static_cast<std::size_t>(node)];
    const std::int32_t target = n.decided_target;
    flush_scratch_.clear();
    flush_scratch_.swap(n.buffered);
    if (fr() != nullptr) {
      flush_edge_scratch_.clear();
      flush_edge_scratch_.swap(n.buffered_edges);
    }
    for (std::int32_t i = target; i <= node; ++i) {
      reset_node(i);
    }
    std::int64_t idx = 0;
    for (std::size_t bi = 0; bi < flush_scratch_.size(); ++bi) {
      const Token& tok = flush_scratch_[bi];
      std::int32_t parent = kParentCurrent;
      if (fr() != nullptr) {
        parent = hold_edge(node,
                           bi < flush_edge_scratch_.size()
                               ? flush_edge_scratch_[bi]
                               : -1,
                           tok.cmd == Command::TailToken
                               ? obs::PathCategory::TailHold
                               : obs::PathCategory::OperandWait);
      }
      send_serial(node, target, tok, hop_ == 0 ? 0 : idx++, parent);
    }
  }

  const ExecPlan& plan_;
  const MachineConfig& cfg_;
  const EngineOptions& opt_;
  const Method& m_;
  BranchPredictor& predictor_;
  const std::int64_t k_;
  const std::int64_t hop_;
  const std::int32_t idus_;
  obs::MetricsRegistry* const mx_;  // null = telemetry disabled (no-op)
  obs::EventTracer* const tr_;
  obs::FlightRecorder* const fr_;   // null = no dependency-edge capture
  // Workspace-backed storage: all references point into the engine's
  // detail::EngineWorkspace and are re-initialized by execute().
  std::vector<char>& node_exec_busy_;
  std::vector<detail::FireQueue>& pending_fire_;

  std::vector<NodeRt>& nodes_;
  // Struct-of-arrays hot lanes (same index space as nodes_).
  std::vector<std::uint8_t>& state_;
  std::vector<std::int32_t>& pops_;
  std::vector<std::int32_t>& epoch_;
  std::vector<std::int64_t>& head_tick_;
  std::vector<std::int64_t>& tail_hold_;
  std::vector<char>& distinct_;
  // Static per-node lanes: aliases into the ExecPlan arena, read-only
  // for the whole run.
  const std::uint8_t* group_ = nullptr;
  const std::uint8_t* op_ = nullptr;
  const std::uint8_t* nflags_ = nullptr;
  const std::uint8_t* bkinds_ = nullptr;
  const std::int32_t* pop_need_ = nullptr;
  const std::int32_t* local_reg_ = nullptr;
  const std::int32_t* phys_ = nullptr;
  const std::int32_t* target_ = nullptr;
  const std::int32_t* operand_ = nullptr;
  const std::int32_t* exec_cost_ = nullptr;
  const std::int32_t* serial_next_ = nullptr;
  detail::CalendarQueue& cal_;
  std::vector<Token>& flush_scratch_;
  std::vector<std::int32_t>& flush_edge_scratch_;
  std::vector<std::int32_t>& node_ready_edge_;
  std::int32_t max_phys_ = -1;
  std::int64_t now_ = 0;
  // Edge id of the event currently being dispatched (flight recorder
  // only) — the default parent for everything the handler schedules.
  std::int32_t cur_edge_ = -1;
  bool completed_ = false;
  bool exception_raised_ = false;
  std::int32_t exception_fire_count_ = 0;
  std::int64_t end_tick_ = 0;
  std::int64_t fired_count_ = 0;
  std::int64_t mesh_messages_ = 0;
  std::int64_t serial_messages_ = 0;
  int active_exec_ = 0;
  std::int64_t last_exec_change_ = 0;
  std::int64_t acc_1plus_ = 0;
  std::int64_t acc_2plus_ = 0;
};

// The workspace plan cache: rebuild only when the method key changes or
// an external placement disagrees with the cached plan's slot lane.
const ExecPlan& plan_for(detail::EngineWorkspace& ws, const Method& m,
                         const DataflowGraph& graph,
                         const Placement* placement,
                         const MachineConfig& cfg) {
  if (ws.plan_valid && ws.plan_method == &m &&
      ws.plan_code_size == m.code.size() && ws.plan_name == m.name) {
    if (placement == nullptr) {
      if (!ws.plan_external) return ws.plan;
    } else if (ws.plan.fits() == placement->fits &&
               (!placement->fits ||
                (ws.plan.max_slot() == placement->max_slot &&
                 std::equal(placement->slot_of.begin(),
                            placement->slot_of.end(), ws.plan.slot())))) {
      return ws.plan;
    }
  }
  ws.plan_builder.build_into(ws.plan, m, graph, placement, cfg);
  ws.plan_valid = true;
  ws.plan_external = placement != nullptr;
  ws.plan_method = &m;
  ws.plan_code_size = m.code.size();
  ws.plan_name = m.name;
  return ws.plan;
}

// Instrumentation dispatch: the sweep hot path (no telemetry attached)
// runs the Run<false> instantiation with every hook compiled out.
RunMetrics execute_run(const EngineOptions& opt, const Method& m,
                       const ExecPlan& plan, BranchPredictor& predictor,
                       detail::EngineWorkspace& ws) {
  if (opt.metrics != nullptr || opt.tracer != nullptr ||
      opt.flight != nullptr) {
    return Run<true>(opt, m, predictor, plan, ws).execute();
  }
  return Run<false>(opt, m, predictor, plan, ws).execute();
}

}  // namespace

Engine::Engine(MachineConfig config, EngineOptions options)
    : config_(std::move(config)),
      options_(options),
      ws_(std::make_unique<detail::EngineWorkspace>()) {}

Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

RunMetrics Engine::run(const Method& m, const DataflowGraph& graph,
                       BranchPredictor& predictor) {
  const ExecPlan& plan = plan_for(*ws_, m, graph, nullptr, config_);
  return execute_run(options_, m, plan, predictor, *ws_);
}

RunMetrics Engine::run(const Method& m, const DataflowGraph& graph,
                       const fabric::Placement& placement,
                       BranchPredictor& predictor) {
  const ExecPlan& plan = plan_for(*ws_, m, graph, &placement, config_);
  return execute_run(options_, m, plan, predictor, *ws_);
}

RunMetrics Engine::run(const Method& m, const ExecPlan& plan,
                       BranchPredictor& predictor) {
  return execute_run(options_, m, plan, predictor, *ws_);
}

}  // namespace javaflow::sim
