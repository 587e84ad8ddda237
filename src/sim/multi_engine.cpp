#include "sim/multi_engine.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "net/message.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "sim/engine_internal.hpp"

namespace javaflow::sim {
namespace {

using bytecode::Group;
using detail::Event;
using detail::EvKind;
using detail::kExecuting;
using detail::kFired;
using detail::kHeadReceived;
using detail::kInService;
using detail::kWaitTailFlush;
using detail::NodeRt;
using detail::Token;
using net::Command;

// `from_node` sentinel for send_serial: the owning residency's anchor
// (one physical hop below the residency's first row).
constexpr std::int32_t kFromAnchor = -1;

// Side bit of a Serial event sent with bundle spacing (extra > 0). Its
// bundle's leader (extra 0) left the same source at the same tick for
// the same target, so the leader alone fixes the links both occupied.
constexpr std::uint8_t kFollower = 1;

}  // namespace

// The whole multi-tenant run state. Mirrors the single engine's
// Run<kInstr> (sim/engine.cpp) with three structural changes, all
// driven by the Event::res lane:
//
//   * node lanes are global: residency r owns [r.base, r.base+r.count)
//     and reads its static plan lanes at (g - r.base);
//   * physical indices are rebased: phys_g = plan.phys[local] +
//     r.phys_delta, and the bundle anchor sits at phys_delta - 1 so the
//     plan-frame injection arithmetic (hops = phys + 1) is preserved
//     under any row shift;
//   * transport is occupancy-tracked: serial links, mesh links, and the
//     four ring channels remember (owner, busy_until). A token whose
//     owner already holds the resource never waits — which is exactly
//     the single-method engine's (contention-free) timing — while a
//     cross-residency token queues behind the release and the wait is
//     charged to its residency.
//
// Sealing. Only records with busy_until > cursor can delay a later
// token, and a residency's own records never delay it. A residency is
// sealed while no other live residency's footprint (serial span plus
// mesh route span, one physical interval) overlaps its own, and every
// transit of it that waited has arrived: then none of its tokens can
// wait, so it takes the closed-form transit and writes no serial/mesh
// records. Its unwritten records are a function of its in-flight
// events — a serial event fixes its path from `prod` (source phys) to
// its node, a mesh event its plan route, and a transit that never
// waits ends exactly at the event tick — so an admission that overlaps
// it first rebuilds them (materialize). A finishing residency
// materializes too, so nothing reads its plan after it finishes. Ring
// channels always keep per-request occupancy.
//
// Both kernels order events with the same detail::CalendarQueue and
// drain a whole tick per step; this one keeps the dispatched prefix of
// the cursor's bucket (bucket_pos) so advance() can return mid-tick
// when a residency finishes and resume at the next event; the (tick,
// seq) order is identical. Handlers are templated on kInstr like
// Engine's Run<kInstr>: with no registry or tracer attached anywhere,
// every telemetry site compiles out.
struct MultiEngine::Impl {
  // Hot per-residency record, indexed by ResidentId (= Event::res):
  // what the handlers touch on every event.
  struct Slot {
    const std::uint8_t* group = nullptr;
    const std::uint8_t* op = nullptr;
    const std::uint8_t* flags = nullptr;
    const std::uint8_t* branch_kinds = nullptr;
    const std::int32_t* pop_need = nullptr;
    const std::int32_t* local_reg = nullptr;
    const std::int32_t* target = nullptr;
    const std::int32_t* operand = nullptr;
    const std::int32_t* exec_cost = nullptr;
    const std::int32_t* serial_next = nullptr;
    const std::int32_t* edge_begin = nullptr;
    const PlanEdge* edges = nullptr;
    const PlanRouteLink* routes = nullptr;
    std::int32_t base = 0;   // first global node lane
    std::int32_t count = 0;  // node lanes owned
    std::int32_t phys_delta = 0;
    std::int32_t inflight = 0;  // pushed, not yet dispatched events
    std::int32_t pending = 0;   // nodes queued for a busy execution unit
    bool done = false;
    bool sealed = false;
    // RunMetrics counters bumped on every event.
    std::int64_t fired = 0;
    std::int64_t mesh_msgs = 0;
    std::int64_t serial_msgs = 0;
  };

  // Cold per-residency data: identity, predictor, accumulators.
  struct Cold {
    const bytecode::Method* method = nullptr;
    const ExecPlan* plan = nullptr;
    BranchPredictor predictor{BranchPredictor::Scenario::BP1};
    obs::MetricsRegistry* mx = nullptr;
    std::size_t outcome = 0;  // index into outcomes (admission order)
    std::int32_t slot_delta = 0;
    std::int64_t inject_tick = 0;
    bool completed = false;
    bool timed_out = false;
    bool live = false;            // holds its id and lanes
    bool footprint_live = false;  // !done || events in flight
    bool reported = false;        // advance() has returned it
    std::int64_t end_tick = 0;
    // Overlap accumulators, mirroring the single engine's fields.
    int active_exec = 0;
    std::int64_t last_change = 0;
    std::int64_t acc1 = 0;
    std::int64_t acc2 = 0;
    // Cross-residency contention charged to this residency.
    std::int64_t serial_wait = 0;
    std::int64_t mesh_wait = 0;
    std::int64_t ring_wait = 0;
    // Sealing: the footprint's physical interval, the number of other
    // footprint-live residencies overlapping it, and the latest arrival
    // of a transit of this residency that waited.
    std::int32_t lo = 0;
    std::int32_t hi = -1;
    std::int32_t blockers = 0;
    std::int64_t last_wait_arrival = -1;
  };

  struct Occupancy {
    std::int32_t owner = -1;
    std::int64_t busy_until = 0;
  };

  MachineConfig cfg;
  MultiEngineOptions opt;
  std::int64_t k = 1;
  std::int64_t hop = 1;
  std::int32_t idus = 1;
  bool collapsed = false;

  std::vector<Slot> slots;
  std::vector<Cold> cold;
  std::vector<ResidentId> free_ids;
  // Free node-lane ranges, size -> base (best fit, split on reuse).
  std::multimap<std::int32_t, std::int32_t> free_lanes;
  std::vector<ResidentOutcome> outcomes;  // every admission, in order
  std::vector<ResidentId> completions;    // finished, not yet returned
  std::size_t completion_head = 0;
  bool completion_queued = false;
  std::size_t running = 0;
  std::int32_t instr_live = 0;  // running residencies with a registry

  // ---- global node lanes (index = residency base + local node) ----
  std::vector<NodeRt> nodes;
  std::vector<std::uint8_t> state;
  std::vector<std::int32_t> pops;
  std::vector<std::int32_t> epoch;
  std::vector<std::int64_t> head_tick;
  std::vector<std::int64_t> tail_hold;
  std::vector<char> distinct;
  std::vector<std::uint16_t> res_of;
  // Global physical index per node, frozen at admission. Kept as a lane
  // (not derived from the plan) so events of an already-finished
  // residency — whose caller may have dropped the plan — never touch
  // plan memory on the drop path.
  std::vector<std::int32_t> phys_lane;

  // ---- shared fabric occupancy (index = global physical node) ----
  std::vector<char> exec_busy;
  std::vector<detail::FireQueue> pending_fire;
  // Serial chain: link_down[p] is the hop entering phys p from p-1
  // (forward network); link_up[p] the hop entering p from p+1 (reverse).
  std::vector<Occupancy> link_down;
  std::vector<Occupancy> link_up;
  // Mesh: one occupancy per (phys, obs::LinkDir), walked over the
  // plan's precomputed X-Y route spans.
  std::vector<Occupancy> mesh_link;
  // Ring: one channel per net::RingService.
  std::array<Occupancy, 4> ring{};

  // ---- calendar (persistent across advance() calls) ----
  detail::CalendarQueue cal;
  std::size_t bucket_pos = 0;  // dispatched prefix of the cursor's bucket
  std::int64_t want_buckets = 64;
  std::vector<Token> flush_scratch;
  std::int64_t now = 0;

  // ---- fabric-level accounting ----
  int fab_active = 0;       // executing instructions, all residencies
  int res_exec_count = 0;   // residencies with >=1 executing instruction
  std::int64_t fab_last = 0;
  std::int64_t fab_acc1 = 0;
  std::int64_t fab_acc2 = 0;
  std::int64_t res_acc1 = 0;
  std::int64_t res_acc2 = 0;
  std::int64_t sealed_admissions = 0;
  std::int64_t transit_rebuilds = 0;
  bool finished = false;

  explicit Impl(MachineConfig config, MultiEngineOptions options)
      : cfg(std::move(config)),
        opt(options),
        k(cfg.serial_per_mesh),
        hop(cfg.collapsed() ? 0 : 1),
        idus(std::max(cfg.idus_per_node, 1)),
        collapsed(cfg.collapsed()) {
    cal.reset(want_buckets);
  }

  // Telemetry access: constant null when !kInstr, so every guarded site
  // folds away in the uninstrumented instantiation.
  template <bool kInstr>
  obs::MetricsRegistry* fab_mx() const {
    return kInstr ? opt.metrics : nullptr;
  }
  template <bool kInstr>
  obs::MetricsRegistry* res_mx(std::uint16_t res) const {
    return kInstr ? cold[res].mx : nullptr;
  }
  template <bool kInstr>
  obs::EventTracer* tr() const {
    return kInstr ? opt.tracer : nullptr;
  }
  bool instrumented() const {
    return opt.metrics != nullptr || opt.tracer != nullptr || instr_live > 0;
  }

  // ---- residency-frame helpers ----
  static std::size_t local(const Slot& r, std::int32_t g) {
    return static_cast<std::size_t>(g - r.base);
  }
  std::int32_t phys_g(std::int32_t g) const {
    return phys_lane[static_cast<std::size_t>(g)];
  }
  static bool flag(const Slot& r, std::int32_t g, std::uint8_t f) {
    return (r.flags[local(r, g)] & f) != 0;
  }
  static Group group_of(const Slot& r, std::int32_t g) {
    return static_cast<Group>(r.group[local(r, g)]);
  }

  void ensure_phys(std::int32_t max_phys_global) {
    const auto want = static_cast<std::size_t>(max_phys_global + 2);
    if (exec_busy.size() < want) {
      exec_busy.resize(want, 0);
      pending_fire.resize(want);
      link_down.resize(want);
      link_up.resize(want);
      mesh_link.resize(want * 4);
    }
  }

  // ---- admission ----
  std::int32_t alloc_lanes(std::int32_t count) {
    const auto it = free_lanes.lower_bound(count);
    if (it == free_lanes.end()) {
      const auto base = static_cast<std::int32_t>(nodes.size());
      const auto nn = static_cast<std::size_t>(base + count);
      nodes.resize(nn);
      state.resize(nn);
      pops.resize(nn);
      epoch.resize(nn);
      head_tick.resize(nn);
      tail_hold.resize(nn);
      distinct.resize(nn);
      res_of.resize(nn);
      phys_lane.resize(nn);
      return base;
    }
    const std::int32_t base = it->second;
    const std::int32_t rest = it->first - count;
    free_lanes.erase(it);
    if (rest > 0) free_lanes.emplace(rest, base + count);
    return base;
  }

  static bool overlaps(const Cold& a, const Cold& b) {
    return a.lo <= b.hi && b.lo <= a.hi;
  }

  ResidentId admit(const bytecode::Method& m, const ExecPlan& plan,
                   std::int32_t phys_delta,
                   BranchPredictor::Scenario scenario,
                   std::int64_t start_tick, obs::MetricsRegistry* rmx) {
    if (!plan.fits() || plan.config() != cfg) return -1;
    ResidentId id;
    if (!free_ids.empty()) {
      id = free_ids.back();
      free_ids.pop_back();
    } else if (slots.size() < static_cast<std::size_t>(kMaxResidents)) {
      id = static_cast<ResidentId>(slots.size());
      slots.emplace_back();
      cold.emplace_back();
    } else {
      return -1;
    }
    const auto res = static_cast<std::uint16_t>(id);
    const std::int32_t count = plan.node_count();
    const std::int32_t base = alloc_lanes(count);
    for (std::int32_t i = 0; i < count; ++i) {
      const auto u = static_cast<std::size_t>(base + i);
      nodes[u].reset_cold();
      state[u] = 0;
      pops[u] = 0;
      epoch[u] = 0;
      head_tick[u] = -1;
      tail_hold[u] = -1;
      distinct[u] = 0;
      res_of[u] = res;
      phys_lane[u] = plan.phys()[i] + phys_delta;
    }

    Slot& r = slots[static_cast<std::size_t>(id)];
    r = Slot{};
    r.group = plan.group();
    r.op = plan.op();
    r.flags = plan.flags();
    r.branch_kinds = plan.branch_kinds();
    r.pop_need = plan.pop_need();
    r.local_reg = plan.local_reg();
    r.target = plan.target();
    r.operand = plan.operand();
    r.exec_cost = plan.exec_cost_ticks();
    r.serial_next = plan.serial_next_ticks();
    r.edge_begin = plan.edge_begin();
    r.edges = plan.edges();
    r.routes = plan.route_links();
    r.base = base;
    r.count = count;
    r.phys_delta = phys_delta;

    Cold& c = cold[static_cast<std::size_t>(id)];
    c = Cold{};
    c.method = &m;
    c.plan = &plan;
    c.predictor = BranchPredictor(scenario);
    c.mx = rmx;
    c.slot_delta = phys_delta * idus;
    c.inject_tick = std::max(start_tick, cal.cursor());
    c.last_change = c.inject_tick;
    c.live = true;
    c.footprint_live = true;
    c.outcome = outcomes.size();
    // The footprint: serial links from the anchor's first hop to the
    // last node, and the mesh links of every plan route.
    c.lo = phys_delta;
    c.hi = plan.max_phys() + phys_delta;
    if (plan.route_phys_min() >= 0) {
      c.lo = std::min(c.lo, plan.route_phys_min() + phys_delta);
      c.hi = std::max(c.hi, plan.route_phys_max() + phys_delta);
    }
    ensure_phys(c.hi);

    for (std::size_t j = 0; j < cold.size(); ++j) {
      if (j == static_cast<std::size_t>(id) || !cold[j].footprint_live ||
          !overlaps(c, cold[j])) {
        continue;
      }
      ++c.blockers;
      ++cold[j].blockers;
      if (slots[j].sealed) {
        materialize(static_cast<std::uint16_t>(j));
        slots[j].sealed = false;
      }
    }
    r.sealed = c.blockers == 0;
    sealed_admissions += r.sealed ? 1 : 0;

    outcomes.emplace_back();
    outcomes.back().resident = id;
    outcomes.back().name = m.name;
    outcomes.back().admitted_tick = c.inject_tick;
    ++running;
    if (rmx != nullptr) ++instr_live;

    want_buckets = std::max(
        want_buckets, detail::ring_buckets(cfg, plan.max_phys(), m.max_locals));
    maybe_grow_ring();

    if (instrumented()) {
      inject_bundle<true>(res);
    } else {
      inject_bundle<false>(res);
    }
    return id;
  }

  // The ring only grows while the calendar is empty, so no event ever
  // needs rehashing.
  void maybe_grow_ring() {
    if (cal.live() == 0 && want_buckets > cal.buckets()) {
      cal.resize(want_buckets);
      bucket_pos = 0;
    }
  }

  template <bool kInstr>
  void inject_bundle(std::uint16_t res) {
    Slot& r = slots[res];
    const std::int64_t spacing = hop == 0 ? 0 : 1;
    std::int64_t idx = 0;
    now = cold[res].inject_tick;
    send_serial<kInstr>(r, res, kFromAnchor, Token{Command::HeadToken, -1},
                        r.base, spacing * idx++);
    send_serial<kInstr>(r, res, kFromAnchor, Token{Command::MemoryToken, -1},
                        r.base, spacing * idx++);
    for (std::int32_t reg = 0; reg < cold[res].method->max_locals; ++reg) {
      send_serial<kInstr>(r, res, kFromAnchor,
                          Token{Command::RegisterToken, reg}, r.base,
                          spacing * idx++);
    }
    send_serial<kInstr>(r, res, kFromAnchor, Token{Command::TailToken, -1},
                        r.base, spacing * idx++);
  }

  std::optional<ResidentId> advance(std::int64_t until) {
    return instrumented() ? run<true>(until) : run<false>(until);
  }

  template <bool kInstr>
  std::optional<ResidentId> run(std::int64_t until) {
    while (true) {
      if (completion_queued) return pop_completion();
      if (cal.live() == 0) {
        // Fully drained: whatever sits in the cursor's bucket is a
        // consumed prefix. Clear it and rewind bucket_pos before the
        // cursor jumps — otherwise an admission at the idle tick
        // inserts its bundle below a stale cursor and is never
        // dispatched.
        cal.clear_current();
        bucket_pos = 0;
        maybe_grow_ring();
        if (running > 0) {
          // Unreachable while check_stuck() sees every residency's last
          // event; kept so a missed case ends in a classified outcome
          // instead of an idle fabric that never finishes.
          for (const std::uint16_t res : running_in_admission_order()) {
            declare_deadlock(res);
          }
          return pop_completion();
        }
        if (until != kNoLimit && until > cal.cursor()) cal.set_cursor(until);
        return std::nullopt;
      }
      if (cal.cursor() >= until) return std::nullopt;
      detail::Bucket& bucket = cal.current();
      if (bucket_pos < bucket.size()) {
        // Drain the rest of the tick. The index scan tolerates the
        // bucket growing underneath it (zero-delay serial forwards in
        // the collapsed Baseline land behind the scan point), and stops
        // right after an event that finished a residency.
        now = cal.cursor();
        std::size_t i = bucket_pos;
        do {
          const Event ev = bucket[i++];
          dispatch<kInstr>(ev);
        } while (i < bucket.size() && !completion_queued);
        cal.consumed(static_cast<std::int64_t>(i - bucket_pos));
        bucket_pos = i;
        continue;
      }
      // Tick drained: clear the bucket and jump to the next pending tick.
      cal.clear_current();
      bucket_pos = 0;
      if (cal.live() == 0) continue;
      const std::int64_t next = cal.next_pending_tick();
      if (next >= until) {
        cal.advance_to(until);
        return std::nullopt;
      }
      if (next > opt.max_ticks) {
        timeout_all(next);
        continue;
      }
      cal.advance_to(next);
    }
  }

  ResidentId pop_completion() {
    const ResidentId id = completions[completion_head++];
    if (completion_head == completions.size()) {
      completions.clear();
      completion_head = 0;
      completion_queued = false;
    }
    cold[static_cast<std::size_t>(id)].reported = true;
    settle(static_cast<std::uint16_t>(id));
    return id;
  }

  template <bool kInstr>
  void dispatch(const Event& ev) {
    Slot& r = slots[ev.res];
    --r.inflight;
    if (r.done) {
      // A finished residency's stale events are dropped — except that a
      // still-in-flight execution completion must free its Instruction
      // Execution Unit (shared with later co-residents) and close the
      // fabric-level overlap span it holds.
      if (ev.kind() == EvKind::ExecDone) {
        state[static_cast<std::size_t>(ev.node)] &=
            static_cast<std::uint8_t>(~kExecuting);
        exec_delta(ev.res, -1);
        release_execution_unit<kInstr>(ev.node);
      }
      settle(ev.res);
      return;
    }
    switch (ev.kind()) {
      case EvKind::Serial:
        on_serial<kInstr>(r, ev.res, ev.node, Token{ev.cmd, ev.aux});
        break;
      case EvKind::Mesh:
        on_mesh<kInstr>(r, ev.res, ev.node, ev.side(), ev.aux, ev.prod);
        break;
      case EvKind::ExecDone: on_exec_done<kInstr>(r, ev.res, ev.node); break;
      case EvKind::ServiceDone:
        on_service_done<kInstr>(r, ev.res, ev.node);
        break;
    }
    check_stuck(r, ev.res);
  }

  // Enqueues an event of residency `res` in place (CalendarQueue::
  // emplace) and counts it in flight.
  [[gnu::always_inline]] inline void push(
      Slot& r, std::uint16_t res, std::int64_t tick, std::uint8_t kind_side,
      std::int32_t node, std::int32_t aux = 0, std::int32_t prod = -1,
      Command cmd = Command::HeadToken) {
    ++r.inflight;
    cal.emplace(tick, kind_side, node, aux, prod, res, cmd);
  }

  // ---- lifetime ----

  // Releases what a finished residency holds once its last event has
  // left the calendar: its footprint (other residencies may reseal),
  // then — once advance() has returned it — its id and node lanes.
  void settle(std::uint16_t res) {
    const Slot& r = slots[res];
    Cold& c = cold[res];
    if (!r.done || r.inflight != 0) return;
    if (c.footprint_live) {
      c.footprint_live = false;
      for (Cold& o : cold) {
        if (&o != &c && o.footprint_live && overlaps(o, c)) --o.blockers;
      }
    }
    if (!c.reported || !c.live) return;
    c.live = false;
    if (idus > 1) {
      // Stale fire requests of this residency would otherwise name lanes
      // the next owner reuses.
      for (std::int32_t g = r.base; g < r.base + r.count; ++g) {
        pending_fire[static_cast<std::size_t>(phys_g(g))].erase_if(
            [&](std::int32_t x) {
              return x >= r.base && x < r.base + r.count;
            });
      }
    }
    free_lanes.emplace(r.count, r.base);
    free_ids.push_back(static_cast<ResidentId>(res));
  }

  // Writes the link reservations a sealed residency's in-flight events
  // imply (see "Sealing" above). Only reservations past the cursor can
  // delay anyone; the rest are equivalent to no record at all.
  void materialize(std::uint16_t res) {
    const Slot& r = slots[res];
    const std::int64_t floor = cal.cursor();
    ++transit_rebuilds;
    const auto reserve = [&](Occupancy& o, std::int64_t done) {
      if (done <= floor) return;
      if (o.owner != res) {
        o.owner = res;
        o.busy_until = done;
      } else if (done > o.busy_until) {
        o.busy_until = done;
      }
    };
    cal.for_each_pending([&](const Event& ev) {
      if (ev.res != res) return;
      if (ev.kind() == EvKind::Serial) {
        if (hop == 0 || (ev.side() & kFollower) != 0) return;
        const std::int32_t a = ev.prod;
        const std::int32_t b = phys_g(ev.node);
        std::int64_t t = ev.tick - hop * (a < b ? b - a : a - b);
        if (a < b) {
          for (std::int32_t p = a + 1; p <= b; ++p) {
            t += hop;
            reserve(link_down[static_cast<std::size_t>(p)], t);
          }
        } else {
          for (std::int32_t p = a - 1; p >= b; --p) {
            t += hop;
            reserve(link_up[static_cast<std::size_t>(p)], t);
          }
        }
      } else if (ev.kind() == EvKind::Mesh && !collapsed) {
        const std::size_t lu = local(r, ev.prod);
        const auto consumer = static_cast<std::int32_t>(local(r, ev.node));
        const PlanEdge* e = r.edges + r.edge_begin[lu];
        const PlanEdge* const end = r.edges + r.edge_begin[lu + 1];
        while (e != end && (e->consumer != consumer || e->side != ev.side())) {
          ++e;
        }
        if (e == end || e->route_count == 0) return;
        std::int64_t t = ev.tick - k * e->route_count;
        const PlanRouteLink* link = r.routes + e->route_begin;
        for (std::int32_t i = 0; i < e->route_count; ++i, ++link) {
          t += k;
          reserve(mesh_link[static_cast<std::size_t>(link->src_phys +
                                                     r.phys_delta) *
                                4 +
                            link->dir],
                  t);
        }
      }
    });
  }

  // An unsealed residency seals again once nothing overlapping it is
  // live (so no foreign reservation in its footprint is pending) and
  // every transit of it that waited has arrived (so its own pending
  // reservations are all closed-form, hence rebuildable).
  bool transit_sealed(Slot& r, std::uint16_t res) {
    if (!r.sealed) {
      const Cold& c = cold[res];
      r.sealed = c.blockers == 0 && cal.cursor() >= c.last_wait_arrival;
    }
    return r.sealed;
  }

  // ---- occupancy-tracked transport ----
  //
  // Each resource remembers (owner, busy_until). Same-owner passage is
  // free (single-method parity: a method's own tokens never queue
  // behind each other, exactly as in sim::Engine); a cross-residency
  // token starts when the resource frees and the delay is charged to
  // the waiting residency.
  static std::int64_t occupy(Occupancy& o, std::int32_t owner,
                             std::int64_t at, std::int64_t dur,
                             std::int64_t* wait) {
    std::int64_t start = at;
    if (o.owner != owner && o.busy_until > at) {
      start = o.busy_until;
      *wait += start - at;
    }
    o.owner = owner;
    const std::int64_t done = start + dur;
    if (done > o.busy_until) o.busy_until = done;
    return done;
  }

  // Serial-chain arrival tick from physical a to b (global indices;
  // a == phys_delta-1 is the residency's anchor). Collapsed configs
  // have zero serial transit, hence nothing to contend for.
  std::int64_t chain_arrival(std::uint16_t res, std::int32_t a,
                             std::int32_t b) {
    if (hop == 0) return now;
    if (a == b) return now + hop;  // intra-node IDU chain hop
    std::int64_t t = now;
    std::int64_t wait = 0;
    if (a < b) {
      for (std::int32_t p = a + 1; p <= b; ++p) {
        t = occupy(link_down[static_cast<std::size_t>(p)], res, t, hop,
                   &wait);
      }
    } else {
      for (std::int32_t p = a - 1; p >= b; --p) {
        t = occupy(link_up[static_cast<std::size_t>(p)], res, t, hop,
                   &wait);
      }
    }
    if (wait > 0) note_wait(cold[res].serial_wait, cold[res], wait, t);
    return t;
  }

  // The same arrival with no link to wait on (a sealed residency).
  std::int64_t chain_closed(std::int32_t a, std::int32_t b) const {
    return now + hop * std::max<std::int64_t>(a < b ? b - a : a - b, 1);
  }

  static void note_wait(std::int64_t& total, Cold& c, std::int64_t wait,
                        std::int64_t arrival) {
    total += wait;
    c.last_wait_arrival = std::max(c.last_wait_arrival, arrival);
  }

  // Mesh arrival tick for one plan edge. The precomputed X-Y route is
  // walked link by link at one mesh cycle (k ticks) each; with no
  // contention the sum equals the plan's baked delivery_ticks (route
  // length == Manhattan distance), so single-residency timing is
  // bit-identical. Collapsed configs and self-edges (distance clamped
  // to 1, no links) keep the baked cost.
  std::int64_t mesh_arrival(const Slot& r, std::uint16_t res,
                            const PlanEdge& e) {
    if (collapsed || e.route_count == 0) return now + e.delivery_ticks;
    const PlanRouteLink* link = r.routes + e.route_begin;
    std::int64_t t = now;
    std::int64_t wait = 0;
    for (std::int32_t i = 0; i < e.route_count; ++i, ++link) {
      const auto li =
          static_cast<std::size_t>(link->src_phys + r.phys_delta) * 4 +
          link->dir;
      t = occupy(mesh_link[li], res, t, k, &wait);
    }
    if (wait > 0) note_wait(cold[res].mesh_wait, cold[res], wait, t);
    return t;
  }

  std::int64_t mesh_closed(const PlanEdge& e) const {
    return collapsed || e.route_count == 0 ? now + e.delivery_ticks
                                           : now + k * e.route_count;
  }

  // Ring-service completion tick. All four channels are fabric-global —
  // the one genuinely shared resource even between row-aligned
  // residencies. `blocking` distinguishes a waiting requester (MemRead,
  // GPP calls) from a posted MemoryWrite, which reserves the channel
  // but never stalls its node.
  std::int64_t ring_done(std::uint16_t res, net::RingService svc,
                         std::int64_t svc_ticks, bool blocking) {
    Occupancy& o = ring[static_cast<std::size_t>(svc)];
    std::int64_t wait = 0;
    const std::int64_t done = occupy(o, res, now, svc_ticks, &wait);
    if (blocking) cold[res].ring_wait += wait;
    return done;
  }

  // ---- sends ----
  template <bool kInstr>
  void send_serial(Slot& r, std::uint16_t res, std::int32_t from_g,
                   Token tok, std::int32_t to_g, std::int64_t extra = 0) {
    if (to_g < r.base || to_g >= r.base + r.count) {
      return;  // token falls off the residency's chain span
    }
    const std::int32_t a =
        from_g == kFromAnchor ? r.phys_delta - 1 : phys_g(from_g);
    const std::int32_t b = phys_g(to_g);
    const std::int64_t arrive = transit_sealed(r, res) ? chain_closed(a, b)
                                                       : chain_arrival(res, a, b);
    emit_serial<kInstr>(r, res, a, tok, to_g, arrive, extra);
  }

  // Forward from a node that does not buffer tokens: its serial target
  // is always g + 1 (only a buffering control node redirects), so a
  // sealed residency prices the hop straight from the plan's serial
  // forward lane, −1 past the bottom of its chain.
  template <bool kInstr>
  void forward_next(Slot& r, std::uint16_t res, std::int32_t g, Token tok) {
    const std::int32_t ticks = r.serial_next[local(r, g)];
    if (ticks < 0) return;  // token falls off the residency's chain span
    const std::int32_t a = phys_g(g);
    const std::int64_t arrive = transit_sealed(r, res)
                                    ? now + ticks
                                    : chain_arrival(res, a, phys_g(g + 1));
    emit_serial<kInstr>(r, res, a, tok, g + 1, arrive, /*extra=*/0);
  }

  template <bool kInstr>
  [[gnu::always_inline]] inline void emit_serial(
      Slot& r, std::uint16_t res, std::int32_t from_phys, Token tok,
      std::int32_t to_g, std::int64_t arrive, std::int64_t extra) {
    ++r.serial_msgs;
    if constexpr (kInstr) {
      const std::int64_t delay = arrive - now;
      if (fab_mx<kInstr>() != nullptr) {
        note_serial(*fab_mx<kInstr>(), delay, tok.cmd);
      }
      if (res_mx<kInstr>(res) != nullptr) {
        note_serial(*res_mx<kInstr>(res), delay, tok.cmd);
      }
    }
    push(r, res, arrive + extra,
         detail::kind_side(EvKind::Serial, extra != 0 ? kFollower : 0), to_g,
         tok.reg, from_phys, tok.cmd);
  }

  static void note_serial(obs::MetricsRegistry& mx, std::int64_t delay,
                          Command cmd) {
    ++mx.serial_messages;
    mx.serial_hop_ticks += static_cast<std::uint64_t>(delay);
    ++mx.serial_commands[static_cast<std::size_t>(cmd)];
  }

  // Forward from a buffering control node: to g + 1 until a forward
  // transfer fires, then to the transfer's target (a global node index).
  template <bool kInstr>
  void forward_token(Slot& r, std::uint16_t res, std::int32_t g,
                     const NodeRt& n, Token tok) {
    send_serial<kInstr>(r, res, g, tok,
                        n.forward_target < 0 ? g + 1 : n.forward_target);
  }

  template <bool kInstr>
  void send_mesh(Slot& r, std::uint16_t res, std::int32_t g) {
    const std::size_t lu = local(r, g);
    const PlanEdge* e = r.edges + r.edge_begin[lu];
    const PlanEdge* const end = r.edges + r.edge_begin[lu + 1];
    if (e == end) return;
    const bool sealed = transit_sealed(r, res);
    for (; e != end; ++e) {
      ++r.mesh_msgs;
      if (fab_mx<kInstr>() != nullptr) note_mesh(*fab_mx<kInstr>(), r, *e);
      if (res_mx<kInstr>(res) != nullptr) {
        note_mesh(*res_mx<kInstr>(res), r, *e);
      }
      const std::int32_t consumer_g = r.base + e->consumer;
      push(r, res, sealed ? mesh_closed(*e) : mesh_arrival(r, res, *e),
           detail::kind_side(EvKind::Mesh, e->side), consumer_g,
           epoch[static_cast<std::size_t>(consumer_g)], g);
    }
  }

  static void note_mesh(obs::MetricsRegistry& mx, const Slot& r,
                        const PlanEdge& e) {
    ++mx.mesh_messages;
    mx.mesh_transit_cycles += static_cast<std::uint64_t>(e.mesh_cycles);
    const PlanRouteLink* link = r.routes + e.route_begin;
    for (std::int32_t i = 0; i < e.route_count; ++i, ++link) {
      mx.mesh_link(link->src_phys + r.phys_delta,
                   static_cast<obs::LinkDir>(link->dir));
    }
  }

  // ---- serial handlers (mirror sim/engine.cpp on_serial) ----

  template <bool kInstr>
  void on_serial(Slot& r, std::uint16_t res, std::int32_t g, Token tok) {
    const auto u = static_cast<std::size_t>(g);
    if (tr<kInstr>() != nullptr) {
      tr<kInstr>()->record({now, obs::TraceEventKind::TokenDeliver, g,
                            phys_g(g), static_cast<std::uint8_t>(tok.cmd),
                            0});
    }
    const std::uint8_t st = state[u];
    const std::size_t lu = local(r, g);
    if ((r.flags[lu] & kPlanBuffers) != 0) {
      on_serial_buffering<kInstr>(r, res, g, tok, st);
      return;
    }
    // The serial forward lane: most hops end here, at a node that only
    // relays the token, with no NodeRt access.
    if (detail::passes_through(st, (r.flags[lu] & kPlanOrdered) != 0,
                               r.local_reg[lu], r.group[lu], tok)) {
      forward_next<kInstr>(r, res, g, tok);
      return;
    }
    NodeRt& n = nodes[u];
    switch (tok.cmd) {
      case Command::HeadToken:
        state[u] |= kHeadReceived;
        if constexpr (kInstr) head_tick[u] = now;
        try_fire<kInstr>(r, res, g);
        forward_next<kInstr>(r, res, g, tok);
        return;

      case Command::MemoryToken:
        // Ordered storage, not fired yet: hold until it fires.
        n.memory_held = true;
        n.held_memory = tok;
        try_fire<kInstr>(r, res, g);
        return;

      case Command::RegisterToken:
        // This node's own register, and the node is unfired or writes it.
        if (static_cast<Group>(r.group[lu]) == Group::LocalWrite) {
          if (!(st & kFired)) {
            n.write_absorbed = true;
          } else if (n.kill_next_register) {
            n.kill_next_register = false;
          } else {
            forward_next<kInstr>(r, res, g, tok);
          }
          return;
        }
        if (!n.reg_held) {  // LocalRead / LocalInc captures its value
          n.reg_held = true;
          n.held_reg = tok;
          try_fire<kInstr>(r, res, g);
          return;
        }
        forward_next<kInstr>(r, res, g, tok);
        return;

      case Command::TailToken:
        n.tail_held = true;
        n.held_tail = tok;
        if constexpr (kInstr) tail_hold[u] = now;
        return;

      default:
        forward_next<kInstr>(r, res, g, tok);
        return;
    }
  }

  // Control-transfer nodes hold the bundle while unfired and while a
  // fired backward transfer awaits its TAIL; otherwise they forward
  // each token.
  template <bool kInstr>
  void on_serial_buffering(Slot& r, std::uint16_t res, std::int32_t g,
                           Token tok, std::uint8_t st) {
    const auto u = static_cast<std::size_t>(g);
    NodeRt& n = nodes[u];
    const bool fired = (st & kFired) != 0;
    const bool hold = !fired || (st & kWaitTailFlush) != 0;
    switch (tok.cmd) {
      case Command::HeadToken:
        state[u] |= kHeadReceived;
        if constexpr (kInstr) head_tick[u] = now;
        if (hold) {
          n.buffered.push_back(tok);
          note_buffered<kInstr>(res, g, n);
          try_fire<kInstr>(r, res, g);
        } else {
          try_fire<kInstr>(r, res, g);
          forward_token<kInstr>(r, res, g, n, tok);
        }
        return;

      case Command::TailToken:
        if (!fired) {
          n.buffered.push_back(tok);
          note_buffered<kInstr>(res, g, n);
          n.tail_present = true;
          try_fire<kInstr>(r, res, g);
        } else if (st & kWaitTailFlush) {
          n.buffered.push_back(tok);
          note_buffered<kInstr>(res, g, n);
          flush_up<kInstr>(r, res, g);
        } else {
          forward_token<kInstr>(r, res, g, n, tok);
        }
        return;

      case Command::MemoryToken:
      case Command::RegisterToken:
        if (hold) {
          n.buffered.push_back(tok);
          note_buffered<kInstr>(res, g, n);
        } else {
          forward_token<kInstr>(r, res, g, n, tok);
        }
        return;

      default:
        forward_token<kInstr>(r, res, g, n, tok);
        return;
    }
  }

  template <bool kInstr>
  void note_buffered(std::uint16_t res, std::int32_t g, const NodeRt& n) {
    if (fab_mx<kInstr>() != nullptr) {
      fab_mx<kInstr>()->buffer_high_water(phys_g(g), n.buffered.size());
    }
    if (res_mx<kInstr>(res) != nullptr) {
      res_mx<kInstr>(res)->buffer_high_water(phys_g(g), n.buffered.size());
    }
  }

  template <bool kInstr>
  void on_mesh(Slot& r, std::uint16_t res, std::int32_t g,
               std::uint8_t side, std::int32_t ep, std::int32_t producer) {
    const auto u = static_cast<std::size_t>(g);
    if (epoch[u] != ep) return;  // stale (previous loop iteration)
    if (tr<kInstr>() != nullptr) {
      tr<kInstr>()->record({now, obs::TraceEventKind::OperandArrive, g,
                            phys_g(g), side, producer});
    }
    ++pops[u];
    try_fire<kInstr>(r, res, g);
  }

  // ---- firing ----
  bool fire_ready(const Slot& r, std::int32_t g) const {
    const auto u = static_cast<std::size_t>(g);
    if (state[u] != kHeadReceived) return false;
    const NodeRt& n = nodes[u];
    const std::size_t lu = local(r, g);
    const std::int32_t need = r.pop_need[lu];
    switch (static_cast<Group>(r.group[lu])) {
      case Group::LocalRead:
      case Group::LocalInc:
        return n.reg_held;
      case Group::MemRead:
      case Group::MemWrite:
        return pops[u] >= need && n.memory_held;
      case Group::Return:
        return pops[u] >= need && n.tail_present;
      case Group::ControlFlow:
        if ((r.flags[lu] & kPlanBackwardGoto) != 0) {
          return n.tail_present;  // backward GoTo fires on TAIL (§6.3)
        }
        return pops[u] >= need;
      default:
        return pops[u] >= need;
    }
  }

  template <bool kInstr>
  void try_fire(Slot& r, std::uint16_t res, std::int32_t g) {
    if (!fire_ready(r, g)) return;
    const auto u = static_cast<std::size_t>(g);
    const auto pn = static_cast<std::size_t>(phys_g(g));
    if (idus > 1 && exec_busy[pn]) {
      pending_fire[pn].push(g);
      ++r.pending;
      return;
    }
    exec_busy[pn] = 1;
    state[u] |= kExecuting;
    exec_delta(res, +1);
    const std::size_t lu = local(r, g);
    const std::int64_t cost = r.exec_cost[lu];
    if constexpr (kInstr) {
      const std::uint8_t opb = r.op[lu];
      const std::uint8_t grpb = r.group[lu];
      if (fab_mx<kInstr>() != nullptr) {
        note_fire(*fab_mx<kInstr>(), static_cast<std::int32_t>(pn), opb,
                  grpb, cost, u);
      }
      if (res_mx<kInstr>(res) != nullptr) {
        note_fire(*res_mx<kInstr>(res), static_cast<std::int32_t>(pn), opb,
                  grpb, cost, u);
      }
      if (tr<kInstr>() != nullptr) {
        tr<kInstr>()->record({now, obs::TraceEventKind::FireStart, g,
                              static_cast<std::int32_t>(pn), grpb, cost});
      }
    }
    push(r, res, now + cost, detail::kind_side(EvKind::ExecDone), g);
  }

  void note_fire(obs::MetricsRegistry& mx, std::int32_t pn, std::uint8_t opb,
                 std::uint8_t grpb, std::int64_t cost, std::size_t u) {
    mx.node_firing(pn, opb);
    mx.exec_ticks_by_group[grpb].record(cost);
    if (head_tick[u] >= 0) mx.fire_stall_ticks.record(now - head_tick[u]);
  }

  template <bool kInstr>
  void release_execution_unit(std::int32_t g) {
    const auto pn = static_cast<std::size_t>(phys_g(g));
    exec_busy[pn] = 0;
    if (idus <= 1) return;
    auto& pending = pending_fire[pn];
    while (!pending.empty()) {
      const std::int32_t next = pending.pop();
      const std::uint16_t nres = res_of[static_cast<std::size_t>(next)];
      if (slots[nres].done) continue;  // stale: owner finished
      --slots[nres].pending;
      try_fire<kInstr>(slots[nres], nres, next);
      check_stuck(slots[nres], nres);
      if (exec_busy[pn]) break;
    }
  }

  void mark_fired(Slot& r, std::int32_t g) {
    state[static_cast<std::size_t>(g)] |= kFired;
    ++r.fired;
    distinct[static_cast<std::size_t>(g)] = 1;
  }

  template <bool kInstr>
  void post_fire_releases(Slot& r, std::uint16_t res, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    NodeRt& n = nodes[u];
    const Group grp = group_of(r, g);
    if (grp == Group::LocalRead || grp == Group::LocalInc) {
      if (n.reg_held) {
        n.reg_held = false;
        forward_next<kInstr>(r, res, g, n.held_reg);
      }
    }
    if (grp == Group::LocalWrite) {
      forward_next<kInstr>(
          r, res, g, Token{Command::RegisterToken, r.local_reg[local(r, g)]});
      if (!n.write_absorbed) n.kill_next_register = true;
    }
    if (n.memory_held) {
      n.memory_held = false;
      forward_next<kInstr>(r, res, g, n.held_memory);
    }
    if (n.tail_held) {
      n.tail_held = false;
      if constexpr (kInstr) {
        if (tail_hold[u] >= 0) {
          if (fab_mx<kInstr>() != nullptr) {
            fab_mx<kInstr>()->tail_hold_ticks.record(now - tail_hold[u]);
          }
          if (res_mx<kInstr>(res) != nullptr) {
            res_mx<kInstr>(res)->tail_hold_ticks.record(now - tail_hold[u]);
          }
          tail_hold[u] = -1;
        }
      }
      forward_next<kInstr>(r, res, g, n.held_tail);
    }
  }

  template <bool kInstr>
  void record_service(std::uint16_t res, std::int32_t g,
                      net::RingService svc, std::int64_t ticks) {
    if (fab_mx<kInstr>() != nullptr) {
      ++fab_mx<kInstr>()->ring_requests[static_cast<std::size_t>(svc)];
      fab_mx<kInstr>()->ring_latency_ticks[static_cast<std::size_t>(svc)]
          .record(ticks);
    }
    if (res_mx<kInstr>(res) != nullptr) {
      obs::MetricsRegistry& mx = *res_mx<kInstr>(res);
      ++mx.ring_requests[static_cast<std::size_t>(svc)];
      mx.ring_latency_ticks[static_cast<std::size_t>(svc)].record(ticks);
    }
    if (tr<kInstr>() != nullptr) {
      tr<kInstr>()->record({now, obs::TraceEventKind::ServiceStart, g,
                            phys_g(g), static_cast<std::uint8_t>(svc),
                            ticks});
    }
  }

  template <bool kInstr>
  void on_exec_done(Slot& r, std::uint16_t res, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    NodeRt& n = nodes[u];
    state[u] &= static_cast<std::uint8_t>(~kExecuting);
    exec_delta(res, -1);
    release_execution_unit<kInstr>(g);
    const Group grp = group_of(r, g);
    if (tr<kInstr>() != nullptr) {
      tr<kInstr>()->record({now, obs::TraceEventKind::FireComplete, g,
                            phys_g(g), static_cast<std::uint8_t>(grp), 0});
    }

    const bool sw = flag(r, g, kPlanSwitch);
    if (grp == Group::ControlFlow || sw) {
      resolve_control<kInstr>(r, res, g);
      return;
    }
    if (grp == Group::Return) {
      mark_fired(r, g);
      complete_resident(res);
      return;
    }
    if (grp == Group::Call || grp == Group::Special) {
      state[u] |= kInService;
      const std::int64_t svc_ticks = k * cfg.ring.gpp_service;
      record_service<kInstr>(res, g, net::RingService::GppService,
                             svc_ticks);
      push(r, res,
           ring_done(res, net::RingService::GppService, svc_ticks,
                     /*blocking=*/true),
           detail::kind_side(EvKind::ServiceDone), g);
      return;
    }
    if (grp == Group::MemRead) {
      state[u] |= kInService;
      if (n.memory_held) {
        n.memory_held = false;
        forward_next<kInstr>(r, res, g, n.held_memory);
      }
      const std::int64_t svc_ticks = k * cfg.ring.memory_read;
      record_service<kInstr>(res, g, net::RingService::MemoryRead,
                             svc_ticks);
      push(r, res,
           ring_done(res, net::RingService::MemoryRead, svc_ticks,
                     /*blocking=*/true),
           detail::kind_side(EvKind::ServiceDone), g);
      return;
    }
    if (grp == Group::MemWrite) {
      const std::int64_t svc_ticks = k * cfg.ring.memory_write;
      record_service<kInstr>(res, g, net::RingService::MemoryWrite,
                             svc_ticks);
      // Posted: the channel is reserved but the node never waits.
      ring_done(res, net::RingService::MemoryWrite, svc_ticks,
                /*blocking=*/false);
      mark_fired(r, g);
      post_fire_releases<kInstr>(r, res, g);
      return;
    }
    mark_fired(r, g);
    send_mesh<kInstr>(r, res, g);
    post_fire_releases<kInstr>(r, res, g);
  }

  template <bool kInstr>
  void on_service_done(Slot& r, std::uint16_t res, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    state[u] &= static_cast<std::uint8_t>(~kInService);
    if (tr<kInstr>() != nullptr) {
      const net::RingService svc = group_of(r, g) == Group::MemRead
                                       ? net::RingService::MemoryRead
                                       : net::RingService::GppService;
      tr<kInstr>()->record({now, obs::TraceEventKind::ServiceComplete, g,
                            phys_g(g), static_cast<std::uint8_t>(svc), 0});
    }
    mark_fired(r, g);
    send_mesh<kInstr>(r, res, g);
    post_fire_releases<kInstr>(r, res, g);
  }

  template <bool kInstr>
  void resolve_control(Slot& r, std::uint16_t res, std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    NodeRt& n = nodes[u];
    const std::size_t lu = local(r, g);
    const auto lg = static_cast<std::int32_t>(lu);
    Cold& c = cold[res];
    std::int32_t target;  // global node index
    if (flag(r, g, kPlanGoto)) {
      target = r.base + r.target[lu];
    } else if (flag(r, g, kPlanSwitch)) {
      const bytecode::SwitchTable& table =
          c.method->switches[static_cast<std::size_t>(r.operand[lu])];
      const auto arms = static_cast<std::int32_t>(table.targets.size()) + 1;
      // Predictor sites are keyed by the method-local node id, so a
      // shared plan's residencies replay the same decision streams as a
      // single-method run (determinism and N=1 parity both need this).
      const std::int32_t pick = c.predictor.decide_switch(lg, arms);
      target = r.base +
               (pick < static_cast<std::int32_t>(table.targets.size())
                    ? table.targets[static_cast<std::size_t>(pick)]
                    : table.default_target);
    } else {
      const auto kind = static_cast<BranchKind>(r.branch_kinds[lu]);
      const bool taken = c.predictor.decide(lg, kind);
      target = taken ? r.base + r.target[lu] : g + 1;
    }

    mark_fired(r, g);
    if (target > g) {
      n.forward_target = target;
      std::int64_t idx = 0;
      for (std::size_t bi = 0; bi < n.buffered.size(); ++bi) {
        send_serial<kInstr>(r, res, g, n.buffered[bi], target,
                            hop == 0 ? 0 : idx++);
      }
      n.buffered.clear();
      return;
    }
    state[u] |= kWaitTailFlush;
    n.decided_target = target;
    if (n.tail_present) flush_up<kInstr>(r, res, g);
  }

  template <bool kInstr>
  void reset_node(std::int32_t g) {
    const auto u = static_cast<std::size_t>(g);
    state[u] = 0;
    pops[u] = 0;
    ++epoch[u];
    if constexpr (kInstr) {
      head_tick[u] = -1;
      tail_hold[u] = -1;
    }
    nodes[u].reset_cold();
  }

  template <bool kInstr>
  void flush_up(Slot& r, std::uint16_t res, std::int32_t g) {
    NodeRt& n = nodes[static_cast<std::size_t>(g)];
    const std::int32_t target = n.decided_target;
    flush_scratch.clear();
    flush_scratch.swap(n.buffered);
    for (std::int32_t i = target; i <= g; ++i) reset_node<kInstr>(i);
    std::int64_t idx = 0;
    for (const Token& tok : flush_scratch) {
      send_serial<kInstr>(r, res, g, tok, target, hop == 0 ? 0 : idx++);
    }
  }

  // ---- overlap accounting ----
  //
  // Per-residency acc1/acc2 mirror the single engine exactly (so a lone
  // residency's RunMetrics match bit for bit); the fabric-level pair
  // and the distinct-residency pair integrate the same spans over the
  // global counters.
  void exec_delta(std::uint16_t res, int delta) {
    flush_fabric_accounting();
    Cold& c = cold[res];
    if (!slots[res].done) {
      if (c.active_exec >= 1) c.acc1 += now - c.last_change;
      if (c.active_exec >= 2) c.acc2 += now - c.last_change;
      c.last_change = now;
    }
    const int before = c.active_exec;
    c.active_exec += delta;
    fab_active += delta;
    if (before == 0 && c.active_exec > 0) ++res_exec_count;
    if (before > 0 && c.active_exec == 0) --res_exec_count;
  }

  void flush_fabric_accounting() {
    const std::int64_t span = now - fab_last;
    if (span > 0) {
      if (fab_active >= 1) fab_acc1 += span;
      if (fab_active >= 2) fab_acc2 += span;
      if (res_exec_count >= 1) res_acc1 += span;
      if (res_exec_count >= 2) res_acc2 += span;
    }
    fab_last = now;
  }

  // ---- completion ----
  void complete_resident(std::uint16_t res) {
    Cold& c = cold[res];
    c.completed = true;
    c.end_tick = now;
    // Nothing may read the plan once advance() has returned the
    // residency, so its pending transit is written out now.
    if (slots[res].sealed && slots[res].inflight > 0) materialize(res);
    finalize_resident(res);
    queue_completion(res);
  }

  void queue_completion(std::uint16_t res) {
    completions.push_back(static_cast<ResidentId>(res));
    completion_queued = true;
  }

  void finalize_resident(std::uint16_t res) {
    // Freeze this residency's overlap accounting at the current tick
    // (matching the single engine's end-of-run flush), then fill the
    // outcome. In-flight executions keep their IEUs busy until their
    // ExecDone events drain; those spans still count at fabric level.
    Slot& r = slots[res];
    Cold& c = cold[res];
    if (c.active_exec >= 1) c.acc1 += now - c.last_change;
    if (c.active_exec >= 2) c.acc2 += now - c.last_change;
    c.last_change = now;
    r.done = true;
    r.sealed = false;
    --running;
    if (c.mx != nullptr) --instr_live;

    RunMetrics mm;
    mm.fits = true;
    mm.completed = c.completed;
    mm.timed_out = c.timed_out;
    mm.exception = false;
    mm.static_size = static_cast<std::int32_t>(c.method->code.size());
    mm.max_slot = c.plan->max_slot() + c.slot_delta;
    mm.ticks = (c.completed ? c.end_tick : now) - c.inject_tick;
    mm.mesh_cycles = std::max<std::int64_t>(1, (mm.ticks + k - 1) / k);
    mm.instructions_fired = r.fired;
    mm.distinct_fired = static_cast<std::int32_t>(
        std::count(distinct.begin() + r.base,
                   distinct.begin() + r.base + r.count, 1));
    mm.mesh_messages = r.mesh_msgs;
    mm.serial_messages = r.serial_msgs;
    mm.ticks_exec_1plus = c.acc1;
    mm.ticks_exec_2plus = c.acc2;
    if (opt.metrics != nullptr) ++opt.metrics->runs;
    if (c.mx != nullptr) ++c.mx->runs;

    ResidentOutcome& out = outcomes[c.outcome];
    out.metrics = mm;
    out.completed_tick = c.completed ? c.end_tick : -1;
    out.serial_wait_ticks = c.serial_wait;
    out.mesh_wait_ticks = c.mesh_wait;
    out.ring_wait_ticks = c.ring_wait;
    settle(res);
  }

  // Running residencies in admission order (ids are recycled, so id
  // order is not admission order).
  std::vector<std::uint16_t> running_in_admission_order() const {
    std::vector<std::uint16_t> ids;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (cold[i].live && !slots[i].done) {
        ids.push_back(static_cast<std::uint16_t>(i));
      }
    }
    std::sort(ids.begin(), ids.end(), [&](std::uint16_t a, std::uint16_t b) {
      return cold[a].outcome < cold[b].outcome;
    });
    return ids;
  }

  void timeout_all(std::int64_t over_tick) {
    now = over_tick;
    cal.set_cursor(over_tick);
    // Drop every undrained event: all owners are finished below.
    cal.clear();
    bucket_pos = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i].inflight = 0;
    for (const std::uint16_t res : running_in_admission_order()) {
      cold[res].timed_out = true;
      finalize_resident(res);
      queue_completion(res);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (cold[i].live) settle(static_cast<std::uint16_t>(i));
    }
  }

  // A running residency with no event in flight and no node queued for
  // an execution unit can never act again: every handler runs on one of
  // its own events, and other residencies only reach it by freeing a
  // unit it queued for. It is finalized as timed out and deadlocked at
  // once, with the nodes that hold HEAD unfired as witness.
  void check_stuck(const Slot& r, std::uint16_t res) {
    if (r.inflight == 0 && r.pending == 0 && !r.done) declare_deadlock(res);
  }

  void declare_deadlock(std::uint16_t res) {
    const Slot& r = slots[res];
    ResidentOutcome& out = outcomes[cold[res].outcome];
    out.deadlocked = true;
    out.deadlock_tick = now;
    for (std::int32_t g = r.base; g < r.base + r.count; ++g) {
      const std::uint8_t st = state[static_cast<std::size_t>(g)];
      if ((st & kHeadReceived) != 0 && (st & kFired) == 0) {
        out.stuck_nodes.push_back(g - r.base);
      }
    }
    cold[res].timed_out = true;
    finalize_resident(res);
    queue_completion(res);
  }

  MultiRunMetrics finish() {
    for (const std::uint16_t res : running_in_admission_order()) {
      finalize_resident(res);
    }
    flush_fabric_accounting();
    finished = true;
    MultiRunMetrics agg;
    agg.residents = outcomes;
    agg.fabric_ticks = now;
    agg.ticks_exec_1plus = fab_acc1;
    agg.ticks_exec_2plus = fab_acc2;
    agg.ticks_res_1plus = res_acc1;
    agg.ticks_res_2plus = res_acc2;
    for (const ResidentOutcome& out : outcomes) {
      agg.serial_wait_ticks += out.serial_wait_ticks;
      agg.mesh_wait_ticks += out.mesh_wait_ticks;
      agg.ring_wait_ticks += out.ring_wait_ticks;
    }
    agg.sealed_admissions = sealed_admissions;
    agg.transit_rebuilds = transit_rebuilds;
    return agg;
  }
};

MultiEngine::MultiEngine(MachineConfig config, MultiEngineOptions options)
    : impl_(std::make_unique<Impl>(std::move(config), options)) {}
MultiEngine::MultiEngine(MultiEngine&&) noexcept = default;
MultiEngine& MultiEngine::operator=(MultiEngine&&) noexcept = default;
MultiEngine::~MultiEngine() = default;

ResidentId MultiEngine::admit(const bytecode::Method& m, const ExecPlan& plan,
                              std::int32_t phys_delta,
                              BranchPredictor::Scenario scenario,
                              std::int64_t start_tick,
                              obs::MetricsRegistry* resident_metrics) {
  return impl_->admit(m, plan, phys_delta, scenario, start_tick,
                      resident_metrics);
}

std::optional<ResidentId> MultiEngine::advance(std::int64_t until) {
  return impl_->advance(until);
}

bool MultiEngine::idle() const noexcept { return impl_->cal.live() == 0; }

std::int64_t MultiEngine::now() const noexcept { return impl_->cal.cursor(); }

std::size_t MultiEngine::resident_count() const noexcept {
  return impl_->outcomes.size();
}

std::size_t MultiEngine::running_count() const noexcept {
  return impl_->running;
}

const ResidentOutcome* MultiEngine::outcome(ResidentId r) const noexcept {
  if (r < 0 || static_cast<std::size_t>(r) >= impl_->slots.size() ||
      !impl_->slots[static_cast<std::size_t>(r)].done) {
    return nullptr;
  }
  return &impl_->outcomes[impl_->cold[static_cast<std::size_t>(r)].outcome];
}

MultiRunMetrics MultiEngine::finish() { return impl_->finish(); }

const MachineConfig& MultiEngine::config() const noexcept {
  return impl_->cfg;
}

}  // namespace javaflow::sim
