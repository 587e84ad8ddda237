// Multi-tenant execution core: one fabric, N resident methods executing
// concurrently (paper §6.2 "Management and Cleanup" and the Chapter 8
// superposition claim).
//
// Where sim::Engine simulates exactly one method per run, a MultiEngine
// admits any number of independently-anchored residencies into a single
// (tick, seq) event calendar. Every token bundle carries the dense
// ResidentId of its owner in the 32-byte event record, node lanes are
// offset per-residency into one shared struct-of-arrays image, and the
// physical fabric's transport is genuinely shared: serial-chain links,
// mesh links, and the four memory/GPP ring channels are occupancy-
// tracked, so co-resident flows contend for them (a token never waits
// on its own residency's traffic — single-method timing is exactly the
// uncontended case).
//
// Plans stay shareable between residencies of one method: a residency
// is (plan, phys_delta) where the delta is a whole-row physical shift
// (multiples of idus_per_node * mesh-width slots). Row shifts preserve
// serial hop counts and — because the serpentine layout mirrors x on
// odd rows for *both* endpoints of any route — Manhattan mesh
// distances, so one pre-lowered ExecPlan prices every aligned residency
// (docs/SERVING.md has the full argument). Unaligned placements get a
// dedicated plan with phys_delta 0.
//
// Determinism: admission order, start ticks, and the per-residency
// branch scenario fully determine the event sequence. The calendar is
// single-threaded; repeated runs with the same admissions are
// bit-identical, independent of JAVAFLOW_THREADS.
//
// Single-resident parity (tests/test_serve.cpp): one residency at
// phys_delta 0 reproduces Engine::run's RunMetrics field for field —
// the handlers and timing model are the same code shapes over the same
// shared detail::Event record, and both kernels order events with the
// one detail::CalendarQueue (sim/engine_internal.hpp).
//
// Transit cost: a residency whose link footprint no other live
// residency shares is *sealed* — its serial and mesh transit is the
// closed form Engine uses and writes no per-link reservations. An
// admission that overlaps it first rebuilds those reservations from the
// residency's in-flight events, so contended timing is unchanged
// (docs/SERVING.md "Sealed residencies").
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bytecode/method.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"

namespace javaflow::obs {
struct MetricsRegistry;
class EventTracer;
}  // namespace javaflow::obs

namespace javaflow::sim {

// Bump whenever multi-tenant execution semantics change in a way that
// can alter results (event interleaving rules, contention model,
// admission timing). Folded into cache::record_fingerprint() because
// the single-method engine shares its event record and handler shapes
// with this core — a refactor here that drifts result-bearing
// semantics must invalidate cached single-method sweep records too.
inline constexpr std::uint32_t kMultiEngineFingerprint = 1;

// Dense per-fabric residency index (not FabricManager::MethodId). An id
// is recycled, with its node lanes, once its residency has finished,
// advance() has returned it, and none of its events is in flight; a
// later admission may then receive the same id.
using ResidentId = std::int32_t;

// Per-residency result. `metrics` is bit-identical to a plain
// Engine::run of the same (method, plan, scenario) when the residency
// never contends (in particular whenever it runs alone).
struct ResidentOutcome {
  ResidentId resident = -1;
  std::string name;
  RunMetrics metrics;
  std::int64_t admitted_tick = 0;
  std::int64_t completed_tick = -1;  // -1 if timed out / never finished
  // The residency's last event drained with none of its nodes queued for
  // an execution unit, so it could never act again. Reported with
  // metrics.timed_out set, plus a witness: that drain tick and the
  // method-local nodes that hold HEAD but never fired.
  bool deadlocked = false;
  std::int64_t deadlock_tick = -1;
  std::vector<std::int32_t> stuck_nodes;
  // Ticks this residency's tokens spent queued behind *other*
  // residencies' traffic, by shared resource.
  std::int64_t serial_wait_ticks = 0;
  std::int64_t mesh_wait_ticks = 0;
  std::int64_t ring_wait_ticks = 0;
};

// Fabric-level aggregate over one MultiEngine lifetime.
struct MultiRunMetrics {
  std::vector<ResidentOutcome> residents;
  std::int64_t fabric_ticks = 0;  // tick of the last processed event
  // Tick spans with >=1 / >=2 instructions executing anywhere on the
  // fabric (the multi-tenant analogue of RunMetrics' Table 26 pair).
  std::int64_t ticks_exec_1plus = 0;
  std::int64_t ticks_exec_2plus = 0;
  // Tick spans with >=1 / >=2 *distinct residencies* executing at once
  // — ticks_res_2plus > 0 is the superposition witness (Chapter 8).
  std::int64_t ticks_res_1plus = 0;
  std::int64_t ticks_res_2plus = 0;
  // Cross-residency contention totals (sums of the per-resident waits).
  std::int64_t serial_wait_ticks = 0;
  std::int64_t mesh_wait_ticks = 0;
  std::int64_t ring_wait_ticks = 0;
  // Transit bookkeeping (docs/SERVING.md "Sealed residencies"):
  // admissions that started sealed, and sealed residencies whose
  // in-flight transit was rebuilt into link reservations.
  std::int64_t sealed_admissions = 0;
  std::int64_t transit_rebuilds = 0;
};

struct MultiEngineOptions {
  // Absolute fabric-tick budget: the first event past it times every
  // live residency out (default: effectively unbounded — the serving
  // frontend bounds work by request count instead).
  std::int64_t max_ticks = std::int64_t{1} << 60;
  // Fabric-level telemetry: accumulates across all residencies.
  // Per-residency registries are passed to admit() instead.
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventTracer* tracer = nullptr;
};

class MultiEngine {
 public:
  // `until` sentinel for advance(): run until the calendar drains.
  static constexpr std::int64_t kNoLimit =
      std::numeric_limits<std::int64_t>::max() / 4;
  // Event::res is 16 bits (sim/engine_internal.hpp): the cap on
  // residencies alive at once (ids are recycled, so not on admissions).
  static constexpr std::int32_t kMaxResidents = 65535;

  explicit MultiEngine(MachineConfig config, MultiEngineOptions options = {});
  MultiEngine(MultiEngine&&) noexcept;
  MultiEngine& operator=(MultiEngine&&) noexcept;
  ~MultiEngine();

  // Injects a residency's token bundle at max(start_tick, now()). The
  // plan must fit and stay alive (read-only) until advance() returns
  // the residency; `phys_delta` rebases every physical-node index in the
  // plan (0 for a dedicated plan, rows*width/idus-aligned for a shared
  // canonical plan). Returns -1 for an unfit plan, for a plan lowered
  // for another MachineConfig than this fabric's (its lowered costs
  // would mix with this fabric's k, hop and ring latencies), or when
  // kMaxResidents residencies are alive at once.
  ResidentId admit(const bytecode::Method& m, const ExecPlan& plan,
                   std::int32_t phys_delta,
                   BranchPredictor::Scenario scenario,
                   std::int64_t start_tick,
                   obs::MetricsRegistry* resident_metrics = nullptr);

  // Processes events in (tick, seq) order while tick < until. Returns
  // as soon as one residency completes, times out, or is found
  // deadlocked (drain remaining ones by calling again), or nullopt once
  // the clock reaches `until` / the calendar drains with nothing left
  // running. Resumable: admissions may be interleaved between calls at
  // the paused tick.
  std::optional<ResidentId> advance(std::int64_t until = kNoLimit);

  bool idle() const noexcept;         // no undrained events
  std::int64_t now() const noexcept;  // current fabric tick
  std::size_t resident_count() const noexcept;  // total ever admitted
  std::size_t running_count() const noexcept;   // not yet finished

  // Valid once the residency completed, timed out or deadlocked; null
  // before. Refers to the latest residency admitted under `r`, so read
  // it before the next admit() can recycle the id.
  const ResidentOutcome* outcome(ResidentId r) const noexcept;

  // Finalizes any still-running residencies (neither completed nor
  // timed out) and returns the fabric aggregate. Terminal.
  MultiRunMetrics finish();

  const MachineConfig& config() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace javaflow::sim
