// perfbench — the measurement binary behind perfbench/run.py.
//
// Subcommands (all flags take one value):
//
//   perfbench sweep  --corpus-seed S --ref-corpus-seed S0 --threads T
//                    --seconds N [--stride K] [--trace FILE]
//   perfbench serve  --mode probe|time|trace --corpus kernels|full
//                    --corpus-seed S --ref-corpus-seed S0 --stream-seed s
//                    --requests R --gap G --config NAME --threads T
//                    --seconds N [--trace FILE]
//   perfbench setup  --corpus kernels|full --corpus-seed S
//                    [--stream-seed s --requests R --gap G]
//
// sweep and serve print "progress ..." lines while they work (run.py
// names the last one when it kills a child at its deadline) and one final
// "result {json}" line with raw samples; run.py turns those into the
// benchmark's metrics. Without --trace the timed legs run with no
// instrumentation at all. With --trace the run takes the traced path:
// spans recorded around each public call into a layer, written to FILE
// as Chrome trace-event JSON, and per-layer numbers in the result.
//
// Exit codes: 0 ok, 1 bad usage, 2 an output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/figure_of_merit.hpp"
#include "bytecode/verifier.hpp"
#include "cache/hash.hpp"
#include "cache/key.hpp"
#include "fabric/dataflow_graph.hpp"
#include "fabric/loader.hpp"
#include "serve/request_stream.hpp"
#include "serve/server.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/plan.hpp"
#include "workloads/corpus.hpp"

namespace {

namespace jf = javaflow;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up (corpus and stream generation) is timed in blocks: each block
// repeats it for this much host time, so that the block's median lies
// well past its first repeats, which pay for page faults and cold caches.
// The first block runs when the process starts, and its last repeat's
// inputs are the ones measured. The timed modes run one more block after
// every pass of legs, each in a child process (setup_in_child), so the
// samples cover the whole run. Blocks run in-process between legs were
// slower by up to a half, by a different amount in every run, because
// they ran on the heap the legs left behind.
constexpr double kSetupBlockSeconds = 0.5;

// Calls `make` until kSetupBlockSeconds are spent, appends each call's
// host time to setup_s, and returns the last result.
template <typename Make>
auto timed_setup(const Make& make, std::vector<double>& setup_s) {
  const auto b0 = Clock::now();
  while (true) {
    const auto t0 = Clock::now();
    auto made = make();
    setup_s.push_back(seconds_since(t0));
    if (seconds_since(b0) >= kSetupBlockSeconds) return made;
  }
}

// Runs one set-up block in a child process, this binary's `setup`
// subcommand with the given flags, and appends its times to setup_s.
// Returns false when the child fails.
bool setup_in_child(const std::string& flags, std::vector<double>& setup_s) {
  std::error_code ec;
  const std::filesystem::path self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return false;
  FILE* child = popen((self.string() + " setup " + flags).c_str(), "r");
  if (child == nullptr) return false;
  double s = 0.0;
  while (std::fscanf(child, " setup %lf", &s) == 1) setup_s.push_back(s);
  return pclose(child) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void progress(const std::string& what) {
  std::printf("progress %s\n", what.c_str());
  std::fflush(stdout);
}

// ---- command line ----

struct Args {
  std::map<std::string, std::string> kv;

  std::string str(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  std::int64_t num(const std::string& key, std::int64_t def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  double real(const std::string& key, double def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return std::nullopt;
    a.kv[key.substr(2)] = argv[i + 1];
  }
  return a;
}

// ---- one-line JSON object writer ----

class Json {
 public:
  Json& num(const std::string& key, double v) {
    sep(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ << buf;
    return *this;
  }
  Json& integer(const std::string& key, std::int64_t v) {
    sep(key);
    out_ << v;
    return *this;
  }
  Json& text(const std::string& key, const std::string& v) {
    sep(key);
    out_ << '"' << v << '"';
    return *this;
  }
  Json& boolean(const std::string& key, bool v) {
    sep(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  template <typename T>
  Json& list(const std::string& key, const std::vector<T>& v) {
    sep(key);
    out_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out_ << ',';
      if constexpr (std::is_floating_point_v<T>) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
        out_ << buf;
      } else {
        out_ << v[i];
      }
    }
    out_ << ']';
    return *this;
  }
  Json& object(const std::string& key, const Json& inner) {
    sep(key);
    out_ << inner.str();
    return *this;
  }
  std::string str() const { return "{" + out_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    if (!first_) out_ << ", ";
    first_ = false;
    out_ << '"' << key << "\": ";
  }
  std::ostringstream out_;
  bool first_ = true;
};

// ---- spans: name, start, end, parent, cell/request id ----

class Spans {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::int32_t parent;
    std::int64_t item;
  };

  Spans() : t0_(Clock::now()) { spans_.reserve(1 << 16); }

  std::int32_t open(const char* name, std::int64_t item) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, now_us(), 0.0,
                      stack_.empty() ? -1 : stack_.back(), item});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  // Self time per span name: each span's duration minus the durations
  // of its direct children, summed over every span of that name.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
    }
    return out;
  }

  std::size_t size() const noexcept { return spans_.size(); }

  // Chrome trace-event JSON ("X" complete events, microseconds), the
  // format obs::write_chrome_trace emits for engine traces.
  bool write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"traceEvents\": [";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"span\": %zu, \"parent\": %d, \"item\": %lld}}",
                    i == 0 ? "" : ",", s.name, s.start_us,
                    s.end_us - s.start_us, i, s.parent,
                    static_cast<long long>(s.item));
      os << buf;
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return static_cast<bool>(os);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// RAII span; a null recorder makes it a no-op (the untraced legs).
class Scope {
 public:
  Scope(Spans* spans, const char* name, std::int64_t item = -1)
      : spans_(spans), id_(spans ? spans->open(name, item) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  std::int32_t id_;
};

// ---- digests (FNV-1a, cache::Hasher) ----

void hash_metrics(jf::cache::Hasher& h, const jf::sim::RunMetrics& m) {
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

std::string hex(const jf::cache::Hash128& d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(d.hi),
                static_cast<unsigned long long>(d.lo));
  return buf;
}

jf::cache::Hash128 sweep_digest(const jf::analysis::Sweep& sweep) {
  jf::cache::Hasher h;
  for (const jf::analysis::SweepSample& s : sweep.samples) {
    h.str(static_cast<const std::string&>(s.method));
    h.u64(s.config_index);
    h.u8(static_cast<std::uint8_t>(s.scenario));
    h.i32(s.static_insts);
    h.i32(s.back_jumps);
    h.boolean(s.is_hot);
    hash_metrics(h, s.metrics);
  }
  return h.digest();
}

jf::cache::Hash128 stream_digest(const std::vector<jf::serve::Request>& stream) {
  jf::cache::Hasher h;
  for (const jf::serve::Request& r : stream) {
    h.i64(r.id);
    h.i32(r.method_index);
    h.i64(r.arrival_tick);
    h.u8(static_cast<std::uint8_t>(r.scenario));
  }
  return h.digest();
}

// ---- shared set-up ----

jf::workloads::Corpus make_corpus(const std::string& kind,
                                  std::uint64_t seed) {
  jf::workloads::CorpusOptions co;
  co.seed = seed;
  if (kind == "kernels") co.total_methods = 0;  // hand-written kernels only
  return jf::workloads::make_corpus(co);
}

// Set-up time is reported scaled to the reference corpus (seed S0):
// times reference instructions over this corpus's instructions. Corpora
// of different seeds differ in size by up to a third, and generating one
// takes time in step with its size, so the scaled time compares runs of
// different seeds at one corpus size. The kernel corpus does not depend
// on the seed, so its scale is 1.
double setup_scale(const std::string& kind, std::uint64_t ref_seed,
                   const jf::workloads::Corpus& corpus) {
  const auto instructions = [](const jf::workloads::Corpus& c) {
    std::size_t n = 0;
    for (const jf::bytecode::Method& m : c.program.methods) n += m.code.size();
    return static_cast<double>(n);
  };
  return instructions(make_corpus(kind, ref_seed)) / instructions(corpus);
}

// Nearest-rank percentile of an unsorted list (the ServeReport rule).
std::int64_t percentile(std::vector<std::int64_t> v, std::int64_t q) {
  if (v.empty()) return -1;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int64_t r = std::max<std::int64_t>((q * n + 99) / 100, 1);
  return v[static_cast<std::size_t>(r - 1)];
}

// Per-layer counters of the explicit frontend + engine path.
struct PathCounts {
  std::int64_t verify_calls = 0;
  std::int64_t verify_failed = 0;
  std::int64_t resolve_calls = 0;
  std::int64_t place_calls = 0;
  std::int64_t place_fits = 0;
  std::int64_t lower_calls = 0;
  std::int64_t runs = 0;
  std::int64_t fired = 0;
  std::int64_t sim_ticks = 0;
  std::int64_t mesh_messages = 0;
  std::int64_t serial_messages = 0;
  std::int64_t timed_out = 0;
  std::int64_t dedup_cells = 0;

  void add_run(const jf::sim::RunMetrics& m) {
    ++runs;
    fired += m.instructions_fired;
    sim_ticks += m.ticks;
    mesh_messages += m.mesh_messages;
    serial_messages += m.serial_messages;
    timed_out += m.timed_out ? 1 : 0;
  }
};

void layer_json(Json& j, const PathCounts& c,
                const std::map<std::string, double>& self) {
  const auto get = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  j.num("bytecode.verify_s", get("bytecode.verify"))
      .integer("bytecode.verify_calls", c.verify_calls)
      .num("fabric.resolve_s", get("fabric.resolve"))
      .integer("fabric.resolve_calls", c.resolve_calls)
      .num("fabric.place_s", get("fabric.place"))
      .integer("fabric.place_calls", c.place_calls)
      .integer("fabric.place_fits", c.place_fits)
      .num("sim.lower_s", get("sim.lower"))
      .integer("sim.lower_calls", c.lower_calls)
      .num("sim.engine.run_s", get("sim.engine.run"))
      .integer("sim.engine.runs", c.runs)
      .integer("sim.engine.instructions_fired", c.fired)
      .integer("sim.engine.sim_ticks", c.sim_ticks)
      .integer("sim.engine.mesh_messages", c.mesh_messages)
      .integer("sim.engine.serial_messages", c.serial_messages)
      .integer("sim.engine.timed_out_cells", c.timed_out);
}

// ---- sweep ----

// run_sweep's corpus dedup: the first pick with a given body digest is
// its leader, the only one simulated; later picks with that body copy
// the leader's cells. Returns the leader's pick index for every pick.
std::vector<std::size_t> dedup_leaders(
    const std::vector<const jf::bytecode::Method*>& picks) {
  std::map<jf::cache::Hash128, std::size_t> first_with_body;
  std::vector<std::size_t> leader(picks.size());
  for (std::size_t pi = 0; pi < picks.size(); ++pi) {
    leader[pi] = first_with_body
                     .try_emplace(jf::cache::hash_method_body(*picks[pi]), pi)
                     .first->second;
  }
  return leader;
}

// The explicit sweep path: the public calls run_sweep makes, in its
// per-method order, with a span around each, for the dedup leaders only.
// Returns one RunMetrics per picked cell in run_sweep's sample order
// (method, config, scenario); a duplicate's cells are its leader's.
std::vector<jf::sim::RunMetrics> explicit_sweep(
    const jf::bytecode::ConstantPool& pool,
    const std::vector<const jf::bytecode::Method*>& picks,
    const std::vector<jf::sim::MachineConfig>& configs,
    const std::vector<jf::sim::BranchPredictor::Scenario>& scenarios,
    Spans* spans, PathCounts& c) {
  const std::vector<std::size_t> leader = dedup_leaders(picks);
  const std::size_t cells_per_method = configs.size() * scenarios.size();
  std::vector<jf::fabric::Fabric> fabrics;
  std::vector<jf::sim::Engine> engines;
  for (const jf::sim::MachineConfig& cfg : configs) {
    fabrics.emplace_back(cfg.fabric_options());
    engines.emplace_back(cfg);
  }
  jf::sim::ExecPlanBuilder builder;

  std::vector<jf::sim::RunMetrics> out(picks.size() * cells_per_method);
  Scope root(spans, "analysis.sweep.explicit");
  for (std::size_t pi = 0; pi < picks.size(); ++pi) {
    if (leader[pi] != pi) continue;
    const jf::bytecode::Method& m = *picks[pi];
    Scope method_span(spans, "analysis.sweep.method",
                      static_cast<std::int64_t>(pi));
    {
      Scope s(spans, "bytecode.verify", static_cast<std::int64_t>(pi));
      ++c.verify_calls;
      if (!jf::bytecode::verify(m, pool).ok) ++c.verify_failed;
    }
    std::optional<jf::fabric::DataflowGraph> graph;
    {
      Scope s(spans, "fabric.resolve", static_cast<std::int64_t>(pi));
      ++c.resolve_calls;
      graph.emplace(jf::fabric::build_dataflow_graph(m, pool));
    }
    std::vector<jf::fabric::Placement> placements;
    for (const jf::fabric::Fabric& f : fabrics) {
      Scope s(spans, "fabric.place", static_cast<std::int64_t>(pi));
      placements.push_back(jf::fabric::load_method(f, m));
      ++c.place_calls;
      c.place_fits += placements.back().fits ? 1 : 0;
    }
    std::vector<jf::sim::ExecPlan> plans;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      Scope s(spans, "sim.lower", static_cast<std::int64_t>(pi));
      plans.push_back(builder.build(m, *graph, &placements[ci], configs[ci]));
      ++c.lower_calls;
    }
    std::size_t cell = pi * cells_per_method;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      for (const auto scenario : scenarios) {
        Scope s(spans, "sim.engine.run", static_cast<std::int64_t>(cell));
        jf::sim::BranchPredictor predictor(scenario);
        out[cell] = engines[ci].run(m, plans[ci], predictor);
        c.add_run(out[cell]);
        ++cell;
      }
    }
  }
  for (std::size_t pi = 0; pi < picks.size(); ++pi) {
    if (leader[pi] == pi) continue;
    std::copy_n(out.begin() + static_cast<std::ptrdiff_t>(leader[pi] * cells_per_method),
                cells_per_method,
                out.begin() + static_cast<std::ptrdiff_t>(pi * cells_per_method));
    c.dedup_cells += static_cast<std::int64_t>(cells_per_method);
  }
  return out;
}

// Instructions the sweep simulated: the dedup leaders' cells only, since
// a duplicate's cells are copies.
std::int64_t fired_total(const jf::analysis::Sweep& sw,
                         const std::vector<const jf::bytecode::Method*>& picks) {
  const std::vector<std::size_t> leader = dedup_leaders(picks);
  const std::size_t cells_per_method = sw.samples.size() / picks.size();
  std::int64_t n = 0;
  for (std::size_t i = 0; i < sw.samples.size(); ++i) {
    const std::size_t pi = i / cells_per_method;
    if (leader[pi] == pi) n += sw.samples[i].metrics.instructions_fired;
  }
  return n;
}

// Simulated ticks of the cells that ran to completion.
std::vector<std::int64_t> completed_ticks(const jf::analysis::Sweep& sw) {
  std::vector<std::int64_t> out;
  for (const jf::analysis::SweepSample& s : sw.samples) {
    if (s.metrics.fits && s.metrics.completed && !s.metrics.timed_out) {
      out.push_back(s.metrics.ticks);
    }
  }
  return out;
}

int cmd_sweep(const Args& a) {
  const auto corpus_seed = static_cast<std::uint64_t>(a.num("corpus-seed", 20141215));
  const auto ref_seed = static_cast<std::uint64_t>(a.num("ref-corpus-seed", 20141215));
  const int threads = static_cast<int>(a.num("threads", 4));
  const double budget = a.real("seconds", 10.0);
  const int stride = static_cast<int>(a.num("stride", 1));
  const std::string trace = a.str("trace", "");

  std::vector<double> setup_s;
  const jf::workloads::Corpus corpus =
      timed_setup([&] { return make_corpus("full", corpus_seed); }, setup_s);
  progress("setup");

  std::vector<const jf::bytecode::Method*> methods;
  for (const jf::bytecode::Method& m : corpus.program.methods) {
    methods.push_back(&m);
  }
  // The methods run_sweep picks: every stride-th.
  std::vector<const jf::bytecode::Method*> picks;
  for (std::size_t i = 0; i < methods.size();
       i += static_cast<std::size_t>(std::max(stride, 1))) {
    picks.push_back(methods[i]);
  }
  std::vector<std::string> hot;
  for (std::size_t i = 0; i < corpus.kernel_methods; ++i) {
    hot.push_back(corpus.program.methods[i].name);
  }
  jf::analysis::SweepOptions so;
  so.cache = jf::cache::CacheMode::Off;
  so.stride = stride;
  auto sweep = [&](int t) {
    so.threads = t;
    return jf::analysis::run_sweep(methods, corpus.program.pool, hot, so);
  };

  Json j;
  bool ok = true;
  std::int64_t failed_cells = 0;

  if (trace.empty()) {
    // Timed legs: one serial and two T-thread legs per pass (a T-thread
    // leg is short, so it gets more samples), repeated until the budget
    // is spent. Every leg must reproduce the first serial leg exactly.
    const auto t0 = Clock::now();
    std::vector<double> serial_s;
    std::vector<double> parallel_s;
    std::optional<jf::analysis::Sweep> reference;
    const std::string setup_flags =
        "--corpus full --corpus-seed " + std::to_string(corpus_seed);
    while (serial_s.empty() || seconds_since(t0) < budget) {
      for (const int t : {1, threads, threads}) {
        const auto l0 = Clock::now();
        jf::analysis::Sweep s = sweep(t);
        (t == 1 ? serial_s : parallel_s).push_back(seconds_since(l0));
        if (!reference) {
          reference.emplace(std::move(s));
        } else if (s.samples != reference->samples) {
          ok = false;
          std::int64_t bad = 0;
          for (std::size_t i = 0; i < s.samples.size(); ++i) {
            bad += s.samples[i] == reference->samples[i] ? 0 : 1;
          }
          failed_cells = std::max(failed_cells, bad);
        }
        progress("sweep threads=" + std::to_string(t));
      }
      if (!setup_in_child(setup_flags, setup_s)) ok = false;
    }
    j.list("serial_s", serial_s)
        .list("parallel_s", parallel_s)
        .integer("threads", threads)
        .integer("cells", static_cast<std::int64_t>(reference->samples.size()))
        .integer("fired", fired_total(*reference, picks))
        .text("digest", hex(sweep_digest(*reference)));
  } else {
    // Traced path. run_sweep (serial and T-thread, profiled) is the
    // reference; the explicit path runs once without and once with
    // spans, and must match run_sweep cell for cell.
    const auto r0 = Clock::now();
    const jf::analysis::Sweep ref = sweep(1);
    const double ref_wall = seconds_since(r0);
    progress("sweep reference");
    const jf::analysis::Sweep par = sweep(threads);
    progress("sweep parallel reference");
    if (par.samples != ref.samples) ok = false;

    const std::vector<jf::sim::MachineConfig> configs = ref.configs;
    PathCounts untraced_counts;
    const auto u0 = Clock::now();
    explicit_sweep(corpus.program.pool, picks, configs, so.scenarios, nullptr,
                   untraced_counts);
    const double untraced_wall = seconds_since(u0);
    progress("explicit untraced");

    Spans spans;
    PathCounts counts;
    const auto x0 = Clock::now();
    const std::vector<jf::sim::RunMetrics> cells =
        explicit_sweep(corpus.program.pool, picks, configs, so.scenarios,
                       &spans, counts);
    const double traced_wall = seconds_since(x0);
    progress("explicit traced");

    if (cells.size() != ref.samples.size()) {
      ok = false;
      failed_cells = static_cast<std::int64_t>(ref.samples.size());
    } else {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!(cells[i] == ref.samples[i].metrics)) ++failed_cells;
      }
      failed_cells += counts.verify_failed *
                      static_cast<std::int64_t>(configs.size() * so.scenarios.size());
      if (failed_cells != 0) ok = false;
    }
    if (!spans.write_chrome(trace)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace.c_str());
      return 2;
    }

    const std::map<std::string, double> self = spans.self_seconds();
    double layers = 0.0;
    for (const auto& [name, s] : self) {
      if (name.rfind("analysis.", 0) != 0) layers += s;
    }
    // Lane imbalance: max over mean of the T-thread lanes' execute time.
    double lane_max = 0.0;
    double lane_sum = 0.0;
    for (const auto& lane : par.profile.lanes) {
      lane_max = std::max(lane_max, lane.execute_s);
      lane_sum += lane.execute_s;
    }
    const double lane_mean =
        par.profile.lanes.empty()
            ? 0.0
            : lane_sum / static_cast<double>(par.profile.lanes.size());
    const jf::analysis::SweepProfile::Lane prof = ref.profile.total();
    // The explicit path copied exactly the cells run_sweep copied.
    if (counts.dedup_cells != static_cast<std::int64_t>(prof.dedup_cells)) ok = false;

    const std::vector<std::int64_t> ticks = completed_ticks(ref);
    Json layer;
    layer_json(layer, counts, self);
    layer.integer("sim.engine.cell_p50_ticks", percentile(ticks, 50))
        .integer("sim.engine.cell_p99_ticks", percentile(ticks, 99))
        .num("analysis.sweep.serial_cells_per_s",
             static_cast<double>(ref.samples.size()) / ref_wall)
        .num("analysis.sweep.lane_imbalance",
              lane_mean > 0.0 ? lane_max / lane_mean : 0.0)
        .integer("analysis.sweep.dedup_cells",
                 static_cast<std::int64_t>(prof.dedup_cells))
        .num("analysis.sweep.profile_verify_s", prof.verify_s)
        .num("analysis.sweep.profile_resolve_s", prof.resolve_s)
        .num("analysis.sweep.profile_place_s", prof.place_s)
        .num("analysis.sweep.profile_plan_s", prof.plan_s)
        .num("analysis.sweep.profile_execute_s", prof.execute_s)
        .num("obs.traced_wall_s", traced_wall)
        .num("obs.untraced_wall_s", untraced_wall)
        .num("obs.unaccounted_s", traced_wall - layers)
        .integer("obs.spans", static_cast<std::int64_t>(spans.size()));
    j.object("layers", layer)
        .integer("cells", static_cast<std::int64_t>(ref.samples.size()))
        .integer("fired", fired_total(ref, picks))
        .text("digest", hex(sweep_digest(ref)));
  }
  j.list("setup_s", setup_s)
      .num("setup_scale", setup_scale("full", ref_seed, corpus))
      .integer("failed_cells", failed_cells)
      .boolean("correct", ok)
      .num("peak_rss_mb", peak_rss_mb());
  std::printf("result %s\n", j.str().c_str());
  return ok ? 0 : 2;
}

// ---- serving ----

struct ServeSetup {
  jf::workloads::Corpus corpus;
  std::vector<jf::serve::Request> stream;
};

// Output checks on one serving report: every request ends in exactly one
// terminal state, and a completed one has latency = completed - arrival
// >= 0. Returns the number of requests that break a rule.
std::int64_t check_report(const jf::serve::ServeReport& rep) {
  std::int64_t bad = 0;
  for (const jf::serve::RequestOutcome& o : rep.outcomes) {
    const int states = int{o.completed} + int{o.rejected} + int{o.timed_out};
    bool good = states == 1;
    if (o.completed) {
      good = good && o.latency_ticks == o.completed_tick - o.arrival_tick &&
             o.latency_ticks >= 0;
    }
    bad += good ? 0 : 1;
  }
  if (rep.completed + rep.rejected + rep.timed_out != rep.requests) ++bad;
  return bad;
}

int cmd_serve(const Args& a) {
  const std::string kind = a.str("corpus", "kernels");
  const auto corpus_seed = static_cast<std::uint64_t>(a.num("corpus-seed", 20141215));
  const auto ref_seed = static_cast<std::uint64_t>(a.num("ref-corpus-seed", 20141215));
  jf::serve::RequestStreamOptions so;
  so.seed = static_cast<std::uint64_t>(a.num("stream-seed", 1));
  so.num_requests = static_cast<std::int32_t>(a.num("requests", 1000));
  so.mean_gap_ticks = a.num("gap", 2000);
  const std::string config_name = a.str("config", "Hetero2");
  const int threads = static_cast<int>(a.num("threads", 4));
  const double budget = a.real("seconds", 2.0);
  // probe: one serving run, its report and latencies; time: the timed
  // legs; trace: the traced path, spans written to --trace.
  const std::string mode = a.str("mode", "probe");
  const std::string trace = a.str("trace", "");
  if (kind != "kernels" && kind != "full") return 1;
  if (mode != "probe" && mode != "time" && mode != "trace") return 1;
  if ((mode == "trace") == trace.empty()) return 1;

  std::optional<Spans> spans;
  if (mode == "trace") spans.emplace();
  Spans* sp = spans ? &*spans : nullptr;

  std::vector<double> setup_s;
  std::vector<double> corpus_s;
  const auto generate = [&] {
    const auto t0 = Clock::now();
    jf::workloads::Corpus corpus = [&] {
      Scope s(sp, "workloads.make_corpus");
      return make_corpus(kind, corpus_seed);
    }();
    corpus_s.push_back(seconds_since(t0));
    std::vector<jf::serve::Request> stream = [&] {
      Scope s(sp, "serve.make_request_stream");
      return jf::serve::make_request_stream(
          static_cast<std::int32_t>(corpus.program.methods.size()), so);
    }();
    return ServeSetup{std::move(corpus), std::move(stream)};
  };
  const ServeSetup setup = timed_setup(generate, setup_s);
  progress("setup");

  const jf::bytecode::Program& program = setup.corpus.program;
  std::vector<std::int32_t> methods;
  for (std::size_t i = 0; i < program.methods.size(); ++i) {
    methods.push_back(static_cast<std::int32_t>(i));
  }
  const jf::sim::MachineConfig cfg = jf::sim::config_by_name(config_name);
  auto serve_once = [&] {
    return jf::serve::serve(program, methods, cfg, so);
  };

  Json j;
  bool ok = true;
  std::int64_t bad_requests = 0;

  // First serving run: its report is the reference for every later run,
  // and in time mode it is the first serial sample.
  const auto f0 = Clock::now();
  const jf::serve::ServeReport rep = serve_once();
  const double first_s = seconds_since(f0);
  progress("serve first");
  const std::uint64_t digest = rep.digest();
  bad_requests = check_report(rep);

  std::vector<std::int64_t> latencies;
  std::vector<std::int64_t> queue_waits;
  for (const jf::serve::RequestOutcome& o : rep.outcomes) {
    if (o.completed) latencies.push_back(o.latency_ticks);
    if (o.admitted_tick >= 0) queue_waits.push_back(o.admitted_tick - o.arrival_tick);
  }

  if (mode == "probe") {
    j.list("latencies", latencies).list("queue_waits", queue_waits);
  } else if (mode == "time") {
    // Timed legs, alternating from the first serial run until the budget
    // is spent: T independent serving runs of the same stream at once,
    // each on its own fabric, then one serial run. Every run must
    // reproduce the first one.
    std::vector<double> serial_s{first_s};
    std::vector<double> parallel_s;
    const std::string setup_flags =
        "--corpus " + kind + " --corpus-seed " + std::to_string(corpus_seed) +
        " --stream-seed " + std::to_string(so.seed) + " --requests " +
        std::to_string(so.num_requests) + " --gap " +
        std::to_string(so.mean_gap_ticks);
    while (true) {
      std::vector<std::uint64_t> digests(static_cast<std::size_t>(threads));
      const auto p0 = Clock::now();
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          digests[static_cast<std::size_t>(t)] = serve_once().digest();
        });
      }
      for (std::thread& th : pool) th.join();
      parallel_s.push_back(seconds_since(p0));
      for (const std::uint64_t d : digests) ok = ok && d == digest;
      progress("serve parallel");
      if (seconds_since(f0) >= budget) break;

      const auto l0 = Clock::now();
      if (serve_once().digest() != digest) ok = false;
      serial_s.push_back(seconds_since(l0));
      progress("serve serial");
      if (!setup_in_child(setup_flags, setup_s)) ok = false;
    }
    j.list("serial_s", serial_s)
        .list("parallel_s", parallel_s)
        .integer("threads", threads);
  } else {
    // Traced path: serve() once untraced (already done) and once inside
    // a span, then the isolated replay of every completed request
    // through Engine::run on the canonical placement.
    PathCounts counts;
    double traced_s = 0.0;
    double isolated_s = 0.0;
    double traced_wall = 0.0;
    const auto w0 = Clock::now();
    {
      Scope root(sp, "serve.episode");
      const jf::serve::ServeReport traced = [&] {
        Scope s(sp, "serve.serve");
        return serve_once();
      }();
      traced_s = seconds_since(w0);
      if (traced.digest() != digest) ok = false;
      progress("serve traced");

      std::map<std::int32_t, jf::sim::ExecPlan> plans;
      jf::sim::ExecPlanBuilder builder;
      jf::fabric::Fabric fabric(cfg.fabric_options());
      jf::sim::Engine engine(cfg);
      Scope replay(sp, "serve.replay");
      for (const jf::serve::RequestOutcome& o : rep.outcomes) {
        if (!o.completed || plans.contains(o.method_index)) continue;
        const jf::bytecode::Method& m =
            program.methods[static_cast<std::size_t>(o.method_index)];
        {
          Scope s(sp, "bytecode.verify", o.method_index);
          ++counts.verify_calls;
          if (!jf::bytecode::verify(m, program.pool).ok) ++counts.verify_failed;
        }
        std::optional<jf::fabric::DataflowGraph> graph;
        {
          Scope s(sp, "fabric.resolve", o.method_index);
          ++counts.resolve_calls;
          graph.emplace(jf::fabric::build_dataflow_graph(m, program.pool));
        }
        std::optional<jf::fabric::Placement> placement;
        {
          Scope s(sp, "fabric.place", o.method_index);
          placement.emplace(jf::fabric::load_method(fabric, m));
          ++counts.place_calls;
          counts.place_fits += placement->fits ? 1 : 0;
        }
        {
          Scope s(sp, "sim.lower", o.method_index);
          plans.emplace(o.method_index, builder.build(m, *graph, &*placement, cfg));
          ++counts.lower_calls;
        }
      }
      std::map<std::int64_t, jf::sim::BranchPredictor::Scenario> scenario;
      for (const jf::serve::Request& r : setup.stream) scenario[r.id] = r.scenario;
      const auto e0 = Clock::now();
      for (const jf::serve::RequestOutcome& o : rep.outcomes) {
        if (!o.completed) continue;
        Scope s(sp, "sim.engine.run", o.request_id);
        jf::sim::BranchPredictor predictor(scenario[o.request_id]);
        counts.add_run(engine.run(
            program.methods[static_cast<std::size_t>(o.method_index)],
            plans.at(o.method_index), predictor));
      }
      isolated_s = seconds_since(e0);
      traced_wall = seconds_since(w0);
    }
    progress("serve replay");
    if (!spans->write_chrome(trace)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace.c_str());
      return 2;
    }
    std::int64_t admitted = 0;
    for (const jf::serve::RequestOutcome& o : rep.outcomes) {
      admitted += o.admitted_tick >= 0 ? 1 : 0;
    }
    // The layers of a serving episode; the rest of the episode span is
    // the benchmark's own replay loop, reported as unaccounted.
    const std::map<std::string, double> self = spans->self_seconds();
    double layers = 0.0;
    for (const char* name : {"serve.serve", "bytecode.verify", "fabric.resolve",
                             "fabric.place", "sim.lower", "sim.engine.run"}) {
      const auto it = self.find(name);
      if (it != self.end()) layers += it->second;
    }
    Json layer;
    layer_json(layer, counts, self);
    layer.list("workloads.make_corpus_s", corpus_s)
        .num("obs.traced_wall_s", traced_wall)
        .num("obs.unaccounted_s", traced_wall - layers)
        .num("serve.serve_s", traced_s)
        .num("serve.untraced_serve_s", first_s)
        .num("serve.isolated_engine_s", isolated_s)
        .integer("serve.admitted", admitted)
        .integer("serve.loads", rep.loads)
        .integer("serve.evictions", rep.evictions)
        .integer("serve.plans_lowered", rep.plans_lowered)
        .integer("serve.plans_shared", rep.plans_shared)
        .integer("serve.max_queue_depth", rep.max_queue_depth)
        .integer("sim.multi.instructions_fired", rep.instructions_fired)
        .integer("sim.multi.fabric_ticks", rep.fabric_ticks)
        .integer("sim.multi.ticks_res_2plus", rep.ticks_res_2plus)
        .integer("sim.multi.ring_wait_ticks", rep.ring_wait_ticks)
        .integer("sim.multi.serial_wait_ticks", rep.serial_wait_ticks)
        .integer("sim.multi.mesh_wait_ticks", rep.mesh_wait_ticks);
    j.object("layers", layer);
  }
  if (bad_requests != 0) ok = false;
  j.list("setup_s", setup_s)
      .num("setup_scale", setup_scale(kind, ref_seed, setup.corpus))
      .integer("requests", rep.requests)
      .integer("completed", rep.completed)
      .integer("rejected", rep.rejected)
      .integer("timed_out", rep.timed_out)
      .integer("bad_requests", bad_requests)
      .integer("max_queue_depth", rep.max_queue_depth)
      .integer("fired", rep.instructions_fired)
      .text("digest", std::to_string(digest))
      .text("stream_digest", hex(stream_digest(setup.stream)))
      .boolean("correct", ok)
      .num("peak_rss_mb", peak_rss_mb());
  std::printf("result %s\n", j.str().c_str());
  return ok ? 0 : 2;
}

// The `setup` subcommand: one set-up block, one "setup <seconds>" line
// per repeat. Generates the request stream too when --requests is given.
int cmd_setup(const Args& a) {
  const std::string kind = a.str("corpus", "full");
  const auto corpus_seed = static_cast<std::uint64_t>(a.num("corpus-seed", 20141215));
  jf::serve::RequestStreamOptions so;
  so.seed = static_cast<std::uint64_t>(a.num("stream-seed", 1));
  so.num_requests = static_cast<std::int32_t>(a.num("requests", 0));
  so.mean_gap_ticks = a.num("gap", 2000);
  if (kind != "kernels" && kind != "full") return 1;
  std::vector<double> setup_s;
  timed_setup(
      [&] {
        jf::workloads::Corpus corpus = make_corpus(kind, corpus_seed);
        std::vector<jf::serve::Request> stream;
        if (so.num_requests > 0) {
          stream = jf::serve::make_request_stream(
              static_cast<std::int32_t>(corpus.program.methods.size()), so);
        }
        return ServeSetup{std::move(corpus), std::move(stream)};
      },
      setup_s);
  for (const double s : setup_s) std::printf("setup %.9f\n", s);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s sweep|serve|setup --flag value ...\n",
                 argv[0]);
    return 1;
  }
  const std::string cmd = argv[1];
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr, "perfbench: flags come in --name value pairs\n");
    return 1;
  }
  if (cmd == "sweep") return cmd_sweep(*args);
  if (cmd == "serve") return cmd_serve(*args);
  if (cmd == "setup") return cmd_setup(*args);
  std::fprintf(stderr, "perfbench: unknown subcommand %s\n", cmd.c_str());
  return 1;
}
