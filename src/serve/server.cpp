#include "serve/server.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <ostream>
#include <set>

#include "core/fabric_manager.hpp"
#include "sim/multi_engine.hpp"

namespace javaflow::serve {

namespace {

// FNV-1a 64, one 64-bit little-endian word at a time.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void s64(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
  void text(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    word(s.size());
  }
};

// One serving run's mutable state, torn down when serve() returns.
class ServerState {
 public:
  ServerState(const bytecode::Program& program,
              const std::vector<std::int32_t>& methods,
              const sim::MachineConfig& config,
              const std::vector<Request>& requests,
              const ServeOptions& options)
      : program_(program),
        methods_(methods),
        requests_(requests),
        mgr_(config),
        engine_(config, [&] {
          sim::MultiEngineOptions mo;
          mo.max_ticks = options.max_fabric_ticks;
          return mo;
        }()) {
    outcomes_.resize(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      outcomes_[i].request_id = requests[i].id;
      outcomes_[i].method_index = requests[i].method_index;
      outcomes_[i].arrival_tick = requests[i].arrival_tick;
    }
  }

  void run() {
    enqueue_due();
    admission_pass();
    while (!queue_.empty() || next_arrival_ < requests_.size() ||
           !running_req_.empty()) {
      const std::int64_t until = next_arrival_ < requests_.size()
                                     ? requests_[next_arrival_].arrival_tick
                                     : sim::MultiEngine::kNoLimit;
      const auto done = engine_.advance(until);
      if (done) {
        handle_completion(*done);
      } else if (next_arrival_ >= requests_.size() && !queue_.empty() &&
                 running_req_.empty()) {
        // Termination guard: the calendar drained with requests still
        // queued and nothing executing. Unreachable when admission is
        // sound (an empty fabric admits any fitting method), but a
        // forced rejection of the head keeps the server total.
        reject(queue_.front(), RejectReason::TerminationGuard);
        queue_.pop_front();
      }
      enqueue_due();
      admission_pass();
    }
  }

  ServeReport report(const sim::MachineConfig& config, std::uint64_t seed) {
    const sim::MultiRunMetrics agg = engine_.finish();
    ServeReport rep;
    rep.config_name = config.name;
    rep.seed = seed;
    rep.requests = static_cast<std::int64_t>(requests_.size());
    rep.fabric_ticks = agg.fabric_ticks;
    rep.ticks_res_1plus = agg.ticks_res_1plus;
    rep.ticks_res_2plus = agg.ticks_res_2plus;
    rep.serial_wait_ticks = agg.serial_wait_ticks;
    rep.mesh_wait_ticks = agg.mesh_wait_ticks;
    rep.ring_wait_ticks = agg.ring_wait_ticks;
    rep.loads = loads_;
    rep.evictions = evictions_;
    rep.plans_shared = mgr_.plans_shared();
    rep.plans_lowered = mgr_.plans_lowered();
    rep.max_queue_depth = max_queue_depth_;
    rep.sealed_admissions = agg.sealed_admissions;
    rep.transit_rebuilds = agg.transit_rebuilds;

    std::vector<std::int64_t> lat;
    for (const RequestOutcome& o : outcomes_) {
      rep.completed += o.completed ? 1 : 0;
      rep.rejected += o.rejected ? 1 : 0;
      rep.rejected_never_fits +=
          o.reject_reason == RejectReason::NeverFits ? 1 : 0;
      rep.rejected_forced +=
          o.reject_reason == RejectReason::TerminationGuard ? 1 : 0;
      rep.timed_out += o.timed_out ? 1 : 0;
      rep.deadlocked += o.deadlocked ? 1 : 0;
      rep.instructions_fired += o.metrics.instructions_fired;
      if (o.completed) lat.push_back(o.latency_ticks);
    }
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      const std::int64_t n = static_cast<std::int64_t>(lat.size());
      const auto rank = [&](std::int64_t q) {
        // Nearest-rank percentile: the ceil(q*n/100)-th smallest.
        const std::int64_t r = (q * n + 99) / 100;
        return lat[static_cast<std::size_t>(std::max<std::int64_t>(r, 1) - 1)];
      };
      rep.latency_p50 = rank(50);
      rep.latency_p95 = rank(95);
      rep.latency_p99 = rank(99);
      rep.latency_max = lat.back();
      std::int64_t sum = 0;
      for (const std::int64_t v : lat) sum += v;
      rep.latency_mean_x1000 = sum * 1000 / n;
    }
    rep.outcomes = std::move(outcomes_);
    return rep;
  }

 private:
  using MethodId = FabricManager::MethodId;

  const bytecode::Method& method_of(std::int32_t method_index) const {
    return program_.methods[static_cast<std::size_t>(
        methods_[static_cast<std::size_t>(method_index)])];
  }

  void reject(std::int64_t request, RejectReason why) {
    RequestOutcome& o = outcomes_[static_cast<std::size_t>(request)];
    o.rejected = true;
    o.reject_reason = why;
  }

  void enqueue_due() {
    while (next_arrival_ < requests_.size() &&
           requests_[next_arrival_].arrival_tick <= engine_.now()) {
      queue_.push_back(static_cast<std::int64_t>(next_arrival_));
      ++next_arrival_;
    }
    max_queue_depth_ = std::max(max_queue_depth_,
                                static_cast<std::int64_t>(queue_.size()));
  }

  // Row-aligned gap scan first (shares the canonical plan), then the
  // manager's greedy packer, then idle-LRU eviction until one of the
  // two succeeds or nothing evictable remains.
  std::optional<MethodId> place_with_eviction(const bytecode::Method& m,
                                              std::int32_t span) {
    while (true) {
      const sim::MachineConfig& cfg = mgr_.config();
      const std::int64_t align =
          std::int64_t{std::max(cfg.idus_per_node, 1)} * std::max(cfg.width, 1);
      const std::vector<bool>& occ = mgr_.occupied_map();
      for (std::int64_t base = 0; base + span <= cfg.capacity; base += align) {
        bool free_gap = true;
        for (std::int64_t s = base; s < base + span; ++s) {
          if (occ[static_cast<std::size_t>(s)]) {
            free_gap = false;
            break;
          }
        }
        if (!free_gap) continue;
        if (auto id =
                mgr_.load(m, program_.pool, static_cast<std::int32_t>(base))) {
          return id;
        }
        break;
      }
      if (auto id = mgr_.load(m, program_.pool, 0)) return id;

      // Evict the least-recently-used idle resident (ties: smaller id —
      // both orderings are deterministic integers).
      MethodId victim = -1;
      std::int64_t victim_used = 0;
      for (const auto& [mi, mid] : loaded_) {
        const FabricManager::Resident* r = mgr_.find(mid);
        if (r == nullptr || r->busy) continue;
        const std::int64_t used = last_used_[mid];
        if (victim == -1 || used < victim_used ||
            (used == victim_used && mid < victim)) {
          victim = mid;
          victim_used = used;
        }
      }
      if (victim == -1) return std::nullopt;
      evict(victim);
    }
  }

  void evict(MethodId mid) {
    mgr_.unload(mid);
    loaded_.erase(owner_[mid]);
    owner_.erase(mid);
    last_used_.erase(mid);
    ++evictions_;
  }

  void admission_pass() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = queue_.begin(); it != queue_.end();) {
        const Request& rq = requests_[static_cast<std::size_t>(*it)];
        // §4.3: one thread per method — a busy method's requests wait,
        // but later requests for other methods are scanned around.
        if (executing_.count(rq.method_index) != 0) {
          ++it;
          continue;
        }
        const bytecode::Method& m = method_of(rq.method_index);
        MethodId mid = -1;
        const auto li = loaded_.find(rq.method_index);
        if (li != loaded_.end()) {
          mid = li->second;
        } else {
          const auto span = mgr_.canonical_span(m, program_.pool);
          if (!span) {
            // Exceeds the fabric even when empty: reject outright.
            reject(*it, RejectReason::NeverFits);
            it = queue_.erase(it);
            progress = true;
            continue;
          }
          const auto placed = place_with_eviction(m, *span);
          if (!placed) return;  // space-blocked: FIFO head-of-line wait
          mid = *placed;
          loaded_[rq.method_index] = mid;
          owner_[mid] = rq.method_index;
          last_used_[mid] = engine_.now();
          ++loads_;
        }
        const FabricManager::Resident* r = mgr_.begin_execute(mid);
        if (r == nullptr) {
          ++it;
          continue;
        }
        const sim::ResidentId rid = engine_.admit(
            *r->method, *r->plan, r->phys_delta, rq.scenario, engine_.now());
        if (rid < 0) {  // kMaxResidents residencies alive at once
          mgr_.end_execute(mid);
          ++it;
          continue;
        }
        executing_.insert(rq.method_index);
        running_req_[rid] = *it;
        running_mid_[rid] = mid;
        RequestOutcome& o = outcomes_[static_cast<std::size_t>(*it)];
        o.admitted_tick = engine_.now();
        o.plan_shared = r->plan_shared;
        it = queue_.erase(it);
        progress = true;
      }
    }
  }

  void handle_completion(sim::ResidentId rid) {
    const std::int64_t qi = running_req_[rid];
    const MethodId mid = running_mid_[rid];
    const sim::ResidentOutcome* oc = engine_.outcome(rid);
    RequestOutcome& o = outcomes_[static_cast<std::size_t>(qi)];
    o.metrics = oc->metrics;
    if (oc->metrics.timed_out) {
      o.timed_out = true;
      o.deadlocked = oc->deadlocked;
    } else {
      o.completed = true;
      o.completed_tick = oc->completed_tick;
      o.latency_ticks = o.completed_tick - o.arrival_tick;
    }
    mgr_.end_execute(mid);
    executing_.erase(owner_[mid]);
    last_used_[mid] = engine_.now();
    running_req_.erase(rid);
    running_mid_.erase(rid);
  }

  const bytecode::Program& program_;
  const std::vector<std::int32_t>& methods_;
  const std::vector<Request>& requests_;
  FabricManager mgr_;
  sim::MultiEngine engine_;

  std::vector<RequestOutcome> outcomes_;
  std::deque<std::int64_t> queue_;  // indices into requests_
  std::size_t next_arrival_ = 0;
  std::map<std::int32_t, MethodId> loaded_;  // method_index -> resident
  std::map<MethodId, std::int32_t> owner_;   // resident -> method_index
  std::map<MethodId, std::int64_t> last_used_;
  std::set<std::int32_t> executing_;
  std::map<sim::ResidentId, std::int64_t> running_req_;
  std::map<sim::ResidentId, MethodId> running_mid_;
  std::int64_t loads_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t max_queue_depth_ = 0;
};

}  // namespace

std::uint64_t ServeReport::digest() const {
  Fnv f;
  f.text(config_name);
  f.word(seed);
  f.s64(requests);
  f.s64(completed);
  f.s64(rejected);
  f.s64(timed_out);
  f.s64(fabric_ticks);
  f.s64(ticks_res_1plus);
  f.s64(ticks_res_2plus);
  f.s64(serial_wait_ticks);
  f.s64(mesh_wait_ticks);
  f.s64(ring_wait_ticks);
  f.s64(loads);
  f.s64(evictions);
  f.s64(plans_shared);
  f.s64(plans_lowered);
  f.s64(max_queue_depth);
  f.s64(instructions_fired);
  f.s64(latency_p50);
  f.s64(latency_p95);
  f.s64(latency_p99);
  f.s64(latency_max);
  f.s64(latency_mean_x1000);
  for (const RequestOutcome& o : outcomes) {
    f.s64(o.request_id);
    f.s64(o.method_index);
    f.s64(o.arrival_tick);
    f.s64(o.admitted_tick);
    f.s64(o.completed_tick);
    f.s64(o.latency_ticks);
    f.s64((o.completed ? 1 : 0) | (o.rejected ? 2 : 0) |
          (o.timed_out ? 4 : 0) | (o.plan_shared ? 8 : 0) |
          (o.deadlocked ? 16 : 0));
    f.s64(o.metrics.ticks);
    f.s64(o.metrics.instructions_fired);
    f.s64(o.metrics.mesh_messages);
    f.s64(o.metrics.serial_messages);
  }
  return f.h;
}

void ServeReport::write_json(std::ostream& os) const {
  os << "{\"config\": \"" << config_name << "\""
     << ", \"seed\": " << seed
     << ", \"requests\": " << requests
     << ", \"completed\": " << completed
     << ", \"rejected\": " << rejected
     << ", \"rejected_never_fits\": " << rejected_never_fits
     << ", \"rejected_forced\": " << rejected_forced
     << ", \"timed_out\": " << timed_out
     << ", \"deadlocked\": " << deadlocked
     << ", \"fabric_ticks\": " << fabric_ticks
     << ", \"ticks_res_1plus\": " << ticks_res_1plus
     << ", \"ticks_res_2plus\": " << ticks_res_2plus
     << ", \"serial_wait_ticks\": " << serial_wait_ticks
     << ", \"mesh_wait_ticks\": " << mesh_wait_ticks
     << ", \"ring_wait_ticks\": " << ring_wait_ticks
     << ", \"loads\": " << loads
     << ", \"evictions\": " << evictions
     << ", \"plans_shared\": " << plans_shared
     << ", \"plans_lowered\": " << plans_lowered
     << ", \"max_queue_depth\": " << max_queue_depth
     << ", \"instructions_fired\": " << instructions_fired
     << ", \"latency_p50\": " << latency_p50
     << ", \"latency_p95\": " << latency_p95
     << ", \"latency_p99\": " << latency_p99
     << ", \"latency_max\": " << latency_max
     << ", \"latency_mean_x1000\": " << latency_mean_x1000
     << ", \"sealed_admissions\": " << sealed_admissions
     << ", \"transit_rebuilds\": " << transit_rebuilds
     << ", \"digest\": " << digest() << "}";
}

ServeReport serve(const bytecode::Program& program,
                  const std::vector<std::int32_t>& methods,
                  const sim::MachineConfig& config,
                  const RequestStreamOptions& stream,
                  const ServeOptions& options) {
  const std::vector<Request> requests = make_request_stream(
      static_cast<std::int32_t>(methods.size()), stream);
  ServerState state(program, methods, config, requests, options);
  state.run();
  return state.report(config, stream.seed);
}

}  // namespace javaflow::serve
