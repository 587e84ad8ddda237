// Shared internals of the event-driven execution core: the token/event
// records, per-node cold state, and the calendar queue that orders
// events for both the single-method Engine (sim/engine.cpp) and the
// multi-tenant MultiEngine (sim/multi_engine.cpp). Not installed API —
// everything here may change shape between commits; include only from
// sim/*.cpp and the scheduler unit test.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "bytecode/opcode.hpp"
#include "net/message.hpp"
#include "sim/config.hpp"

namespace javaflow::sim::detail {

inline bool is_switch(bytecode::Op op) {
  return op == bytecode::Op::tableswitch || op == bytecode::Op::lookupswitch;
}

// The slice of a net::SerialMessage the engine actually routes: every
// other field stays at its default through the whole simulation, so
// events and held tokens carry just {cmd, reg} instead of the full
// Figure 16 record.
struct Token {
  net::Command cmd = net::Command::HeadToken;
  std::int32_t reg = -1;
};

// Firing-state bitmask (struct-of-arrays `state` lane). A node is
// fire-ready only in the exact state kHeadReceived — any other set bit
// (already fired, executing, waiting on a ring service, or holding the
// loop bundle for a fired backward transfer) blocks it, so the hot
// readiness test is a single byte compare.
inline constexpr std::uint8_t kHeadReceived = 0x1;
inline constexpr std::uint8_t kFired = 0x2;
inline constexpr std::uint8_t kExecuting = 0x4;
inline constexpr std::uint8_t kInService = 0x8;
// Back transfer fired, bundle held until the TAIL arrives (§6.3). Only
// ever set together with kFired, so the kHeadReceived readiness compare
// is unaffected.
inline constexpr std::uint8_t kWaitTailFlush = 0x10;

// The tokens a node that does not buffer only relays to the next node,
// with no state change: MEMORY at an unordered (`ordered` false) or
// fired node, REGISTER for another register or at a fired node other
// than a LocalWrite, and TAIL at a fired node. Both kernels open
// on_serial with this test, which reads the state byte and plan lanes
// only; `group` is the node's bytecode::Group.
inline bool passes_through(std::uint8_t st, bool ordered,
                           std::int32_t local_reg, std::uint8_t group,
                           Token tok) {
  const bool fired = (st & kFired) != 0;
  if (tok.cmd == net::Command::MemoryToken) return fired || !ordered;
  if (tok.cmd == net::Command::RegisterToken) {
    return local_reg != tok.reg ||
           (fired && static_cast<bytecode::Group>(group) !=
                         bytecode::Group::LocalWrite);
  }
  return tok.cmd == net::Command::TailToken && fired;
}

// Cold per-node runtime state (wraps the Figure 13 resources). All
// static classification lives in the ExecPlan's read-only lanes, so
// this struct carries only mutable per-iteration token state.
struct NodeRt {
  bool reg_held = false;        // LocalRead/LocalInc captured its token
  Token held_reg{};
  bool write_absorbed = false;  // LocalWrite consumed the stale token
  bool kill_next_register = false;
  bool memory_held = false;     // ordered storage holds MEMORY_TOKEN
  Token held_memory{};
  bool tail_held = false;       // non-control node holding the TAIL
  Token held_tail{};
  bool tail_present = false;    // control node has TAIL in its buffer
  std::int32_t decided_target = -1;
  // Serial target of a control node's later tokens once a forward
  // transfer fired; -1 means the next node. Every other node always
  // forwards to the next node, on the plan's serial forward lane.
  std::int32_t forward_target = -1;

  std::vector<Token> buffered;  // control-node token buffer

  // Flight-recorder bookkeeping (null recorder leaves all of it idle):
  // the dependency edge that delivered each currently-held token, so its
  // eventual release can splice a hold edge (operand wait / TAIL hold)
  // between arrival and release. `buffered_edges` parallels `buffered`.
  std::int32_t held_reg_edge = -1;
  std::int32_t held_memory_edge = -1;
  std::int32_t held_tail_edge = -1;
  std::vector<std::int32_t> buffered_edges;

  // `buffered` keeps its capacity across iterations and runs, so a
  // reused workspace stops paying for operand-buffer growth after the
  // first run.
  void reset_cold() {
    reg_held = false;
    write_absorbed = false;
    kill_next_register = false;
    memory_held = false;
    tail_held = false;
    tail_present = false;
    decided_target = -1;
    forward_target = -1;
    buffered.clear();
    held_reg_edge = -1;
    held_memory_edge = -1;
    held_tail_edge = -1;
    buffered_edges.clear();
  }
};

// Nodes waiting for one physical node's Instruction Execution Unit
// (idus_per_node > 1), in arrival order. A pop advances a head index
// instead of shifting the rest, and the drained prefix is dropped when
// a push would otherwise grow the storage, so every operation is
// amortized O(1) and the capacity is kept across runs.
class FireQueue {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }

  void push(std::int32_t node) {
    if (head_ != 0 && items_.size() == items_.capacity()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(node);
  }

  std::int32_t pop() {
    const std::int32_t node = items_[head_++];
    if (empty()) clear();
    return node;
  }

  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

  // Drops every queued node `drop` selects, keeping the order of the rest.
  template <class Pred>
  void erase_if(Pred drop) {
    items_.erase(std::remove_if(
                     items_.begin() + static_cast<std::ptrdiff_t>(head_),
                     items_.end(), drop),
                 items_.end());
    if (empty()) clear();
  }

 private:
  std::vector<std::int32_t> items_;
  std::size_t head_ = 0;
};

enum class EvKind : std::uint8_t { Serial, Mesh, ExecDone, ServiceDone };

// 32-byte event record. `aux` is the serial register number (Serial) or
// the consumer's iteration epoch (Mesh); the old full-SerialMessage
// payload is gone because the engine only ever read {cmd, reg}. `prod`
// is the producing node of a Mesh operand — it rides in what used to be
// padding and feeds the tracer's producer->consumer flow events.
//
// `res` is the dense ResidentId of the token's owning method residency:
// always 0 in single-method runs, threaded through every handler by the
// multi-tenant MultiEngine so co-resident bundles interleave in one
// (tick, seq) calendar. Packing the EvKind (2 bits) with the mesh side
// (6 bits — the widest operand side is an invoke's argument count, well
// under 64) frees the 16 bits the id needs without growing the record
// past two cache quads.
struct Event {
  std::int64_t tick = 0;
  std::int64_t seq = 0;
  std::int32_t node = -1;
  std::int32_t aux = 0;
  std::int32_t prod = -1;            // Mesh only
  std::uint16_t res = 0;             // owning residency (0 = single run)
  std::uint8_t kind_side = 0;        // EvKind | (mesh side << 2)
  net::Command cmd = net::Command::HeadToken;  // Serial only

  EvKind kind() const noexcept {
    return static_cast<EvKind>(kind_side & 0x3u);
  }
  std::uint8_t side() const noexcept {
    return static_cast<std::uint8_t>(kind_side >> 2);
  }
};
static_assert(sizeof(Event) == 32, "Event should stay two cache quads");

// The packed Event::kind_side byte of an event of kind `k` (`side` is
// the mesh operand side, 0 for every other kind).
constexpr std::uint8_t kind_side(EvKind k, std::uint8_t side = 0) noexcept {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(k) |
                                   (side << 2));
}

// Min-heap comparator over (tick, seq). (tick, seq) is a strict total
// order — seq is unique — so the pop order is deterministic regardless
// of the heap's internal layout. The calendar's overflow spill is a heap
// under this comparator.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.tick, a.seq) > std::tie(b.tick, b.seq);
  }
};

// One calendar bucket: a tick's events in seq order. An append
// hands out the next slot of spare capacity, inlined at every schedule
// site (a std::vector push_back stays an out-of-line call there), so the
// caller writes the event's fields straight into it; growth is out of
// line, and clear() keeps the capacity, so a warm bucket never
// allocates.
class Bucket {
 public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const Event& operator[](std::size_t i) const noexcept { return slots_[i]; }
  const Event* begin() const noexcept { return slots_.data(); }
  const Event* end() const noexcept { return slots_.data() + size_; }
  void clear() noexcept { size_ = 0; }

  [[gnu::always_inline]] inline Event& append() {
    if (size_ < slots_.size()) [[likely]] return slots_[size_++];
    return grow_append();
  }

 private:
  [[gnu::noinline]] Event& grow_append() {
    slots_.resize(std::max<std::size_t>(8, 2 * slots_.size()));
    return slots_[size_++];
  }

  std::vector<Event> slots_;  // slots_.size() is the capacity
  std::size_t size_ = 0;
};

// Largest per-group execution cost in mesh cycles (Table 17: FpArith).
inline constexpr std::int64_t kMaxExecMeshCycles = 10;
// Calendar-ring ceiling: beyond this, long delays spill to the overflow
// heap rather than growing the bucket array without bound.
inline constexpr std::int64_t kMaxBuckets = 4096;

// Calendar ring size for one method: the largest bounded delay the
// model can emit — serial chain traversal (+ bundle spacing), a
// corner-to-corner mesh route, the costliest execution group, and the
// slowest ring service — rounded up to a power of two of at least one
// occupancy word and capped at kMaxBuckets. Delays beyond the ring
// (rare: long forward jumps on big methods once the ring is capped, or
// a contended ring channel) spill to the overflow heap, so the bound is
// a performance knob, never a correctness one.
inline std::int64_t ring_buckets(const MachineConfig& cfg,
                                 std::int32_t max_phys,
                                 std::int32_t max_locals) {
  const std::int64_t k = cfg.serial_per_mesh;
  const std::int64_t hop = cfg.collapsed() ? 0 : 1;
  const std::int64_t chain = std::int64_t{max_phys} + 1;
  const std::int64_t width = std::max(cfg.width, 1);
  const std::int64_t rows = (chain + width - 1) / width;
  std::int64_t h = hop * (chain + 1) + max_locals + 3;
  h = std::max(h, k * (width + rows));
  h = std::max(h, k * kMaxExecMeshCycles);
  const net::RingLatencies& rl = cfg.ring;
  h = std::max(h, k * std::max({rl.memory_read, rl.memory_write,
                                rl.constant_read, rl.gpp_service}));
  const std::int64_t cap = std::min<std::int64_t>(h + 1, kMaxBuckets);
  std::int64_t b = 64;  // >= one full occupancy word
  while (b < cap) b <<= 1;
  return b;
}

// The event queue of both kernels: a ring of one-tick buckets with an
// occupancy bitmap, plus an overflow heap for events beyond the ring.
// It hands events out in ascending (tick, seq), where seq is stamped by
// emplace() in call order:
//
//   * every bucket in the window [cursor, cursor + buckets) holds
//     exactly one tick, so a bucket's events share a tick and sit in
//     push (= seq) order;
//   * a spilled event migrates into its bucket as soon as its tick
//     enters the window, before the owner drains or schedules at that
//     tick, so it precedes every later direct insertion there;
//   * an event pushed for the cursor's own tick during a drain (the
//     collapsed Baseline's zero-delay serial forward) lands behind the
//     drain point with a larger seq.
//
// Both owners drain a whole tick per step; MultiEngine keeps a
// dispatched-prefix index so it can pause mid-tick when a residency
// completes and resume at the same event (MultiEngine::Impl::run).
// Every cursor move that can leave pending events behind goes through
// advance_to(), which migrates first. Storage grows monotonically, so
// a reused queue stops allocating after a few runs.
class CalendarQueue {
 public:
  // Sizes the ring to `buckets` (a power of two, >= 64), drops every
  // pending event, and rewinds the cursor and the seq stamp to 0. Only
  // buckets whose occupancy bit is set are cleared, not the whole ring.
  void reset(std::int64_t buckets) {
    resize(buckets);
    cur_ = 0;
    seq_ = 0;
  }

  // Sizes the ring and drops every pending event, keeping the cursor and
  // the seq stamp: the order contract holds for any ring size, so an
  // owner whose queue is empty may re-size it between drains.
  void resize(std::int64_t buckets) {
    clear();
    if (buckets_.size() < static_cast<std::size_t>(buckets)) {
      buckets_.resize(static_cast<std::size_t>(buckets));
    }
    if (words_.size() < buckets_.size() >> 6) {
      words_.resize(buckets_.size() >> 6, 0);
    }
    count_ = buckets;
    mask_ = buckets - 1;
  }

  // Calls f(event) for every pushed, unconsumed event, in no particular
  // order. The cursor's bucket is visited whole, so an owner that drains
  // it by index also sees the prefix it already dispatched.
  template <class F>
  void for_each_pending(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        const auto bi = (w << 6) | static_cast<std::size_t>(bit);
        for (const Event& ev : buckets_[bi]) f(ev);
      }
    }
    for (const Event& ev : overflow_) f(ev);
  }

  // Drops every pending event; the cursor and seq stamp stay put.
  void clear() {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        buckets_[(w << 6) | static_cast<std::size_t>(bit)].clear();
      }
      words_[w] = 0;
    }
    overflow_.clear();
    live_ = 0;
  }

  // Enqueues the event with these fields, stamps its seq, and returns
  // the seq (the flight recorder keys its dependency edges on it).
  // `tick` must not precede the cursor. Force-inlined: it sits on every
  // schedule site of both kernels, and an in-window event is written
  // field by field straight into its bucket slot — building an Event
  // first and copying it costs a store-forwarding stall per event.
  [[gnu::always_inline]] inline std::int64_t emplace(
      std::int64_t tick, std::uint8_t kind_side, std::int32_t node,
      std::int32_t aux = 0, std::int32_t prod = -1, std::uint16_t res = 0,
      net::Command cmd = net::Command::HeadToken) {
    const std::int64_t seq = seq_++;
    ++live_;
    if (tick < cur_ + count_) [[likely]] {
      const auto bi = static_cast<std::size_t>(tick & mask_);
      Event& ev = buckets_[bi].append();
      ev.tick = tick;
      ev.seq = seq;
      ev.node = node;
      ev.aux = aux;
      ev.prod = prod;
      ev.res = res;
      ev.kind_side = kind_side;
      ev.cmd = cmd;
      words_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
    } else {
      spill(Event{tick, seq, node, aux, prod, res, kind_side, cmd});
    }
    return seq;
  }

  // Pulls every spilled event whose tick entered the window into its
  // bucket. Owners call it before draining or scheduling at a new tick;
  // the common empty-overflow case is one inline test.
  [[gnu::always_inline]] inline void migrate_overflow() {
    if (!overflow_.empty()) [[unlikely]] migrate_spilled();
  }

  // Tick of the next non-empty bucket strictly after the cursor, found
  // by a word-parallel circular scan of the occupancy bitmap (the
  // window holds at most one tick per bucket, so a set bit maps to
  // exactly one pending tick). INT64_MAX when every bucket is empty.
  std::int64_t next_bucket_tick() const {
    const auto mask = static_cast<std::uint64_t>(mask_);
    const std::uint64_t start = (static_cast<std::uint64_t>(cur_) + 1) & mask;
    const auto nwords = static_cast<std::size_t>(count_ >> 6);
    const auto w0 = static_cast<std::size_t>(start >> 6);
    std::uint64_t bits = words_[w0] & (~std::uint64_t{0} << (start & 63));
    if (bits != 0) {
      const std::uint64_t j =
          (static_cast<std::uint64_t>(w0) << 6) +
          static_cast<std::uint64_t>(std::countr_zero(bits));
      return cur_ + 1 + static_cast<std::int64_t>((j - start) & mask);
    }
    for (std::size_t s = 1; s <= nwords; ++s) {
      const std::size_t w = (w0 + s) % nwords;
      bits = words_[w];
      if (w == w0) {
        const std::uint64_t low = start & 63;
        bits &= low != 0 ? (std::uint64_t{1} << low) - 1 : std::uint64_t{0};
      }
      if (bits != 0) {
        const std::uint64_t j =
            (static_cast<std::uint64_t>(w) << 6) +
            static_cast<std::uint64_t>(std::countr_zero(bits));
        return cur_ + 1 + static_cast<std::int64_t>((j - start) & mask);
      }
    }
    return std::numeric_limits<std::int64_t>::max();
  }

  // The earliest pending tick after the cursor: the next occupied
  // bucket or the overflow front, whichever comes first — the cursor
  // jumps there directly instead of walking empty buckets.
  std::int64_t next_pending_tick() const {
    const std::int64_t next = next_bucket_tick();
    return !overflow_.empty() && overflow_.front().tick < next
               ? overflow_.front().tick
               : next;
  }

  // Moves the cursor to `tick` and migrates what entered the window.
  void advance_to(std::int64_t tick) {
    cur_ = tick;
    migrate_overflow();
  }

  // Moves the cursor without migrating. Only safe when nothing can be
  // pushed at a tick whose spilled events have not migrated yet: the
  // next tick of a per-tick drain (the owner migrates before draining
  // it) or a drained queue. Any other jump must use advance_to().
  void set_cursor(std::int64_t tick) { cur_ = tick; }

  // The cursor tick's bucket. Safe to hold across emplace(): the bucket
  // array never resizes between reset() calls (a bucket's own storage
  // may grow, so drains index it rather than hold element pointers).
  Bucket& current() {
    return buckets_[static_cast<std::size_t>(cur_ & mask_)];
  }

  // Empties the cursor tick's bucket once its events are dispatched.
  void clear_current() {
    const auto bi = static_cast<std::size_t>(cur_ & mask_);
    buckets_[bi].clear();
    words_[bi >> 6] &= ~(std::uint64_t{1} << (bi & 63));
  }

  // Records that `n` events left the queue through the owner's drain.
  void consumed(std::int64_t n) { live_ -= n; }

  std::int64_t cursor() const noexcept { return cur_; }
  std::int64_t buckets() const noexcept { return count_; }
  // Events pushed and not yet consumed (buckets + overflow).
  std::int64_t live() const noexcept { return live_; }

 private:
  // Kept out of line so emplace() stays small enough to inline
  // everywhere.
  [[gnu::noinline]] void spill(const Event& ev) {
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), EventAfter{});
  }

  [[gnu::noinline]] void migrate_spilled() {
    while (!overflow_.empty() && overflow_.front().tick < cur_ + count_) {
      std::pop_heap(overflow_.begin(), overflow_.end(), EventAfter{});
      const auto bi = static_cast<std::size_t>(overflow_.back().tick & mask_);
      buckets_[bi].append() = overflow_.back();
      words_[bi >> 6] |= std::uint64_t{1} << (bi & 63);
      overflow_.pop_back();
    }
  }

  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> words_;  // one occupancy bit per bucket
  std::vector<Event> overflow_;       // min-heap under EventAfter
  std::int64_t count_ = 0;
  std::int64_t mask_ = 0;
  std::int64_t cur_ = 0;
  std::int64_t live_ = 0;
  std::int64_t seq_ = 0;
};

}  // namespace javaflow::sim::detail
