#!/usr/bin/env python3
"""JavaFlow benchmark: build the simulator, run one workload, check it, print metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (perfbench/README.md says why each exists):

    sweep-full   the Chapter 7 sweep, 1,605 methods x 6 configs x 2 scenarios,
                 cache off, a serial leg then a T-thread leg (closed batch)
    serve-hot    request streams over the 65 hand-written kernels on Hetero2,
                 half the requests to the 4 hot kernels (open loop in
                 simulated time, at the knee gap)
    serve-churn  the same stream shape over the full 1,605-method corpus

--seed n selects the inputs: sweep-full and serve-churn generate the corpus
with seed corpus_seed + n - 1 (n = 1 is the dissertation corpus), and every
serving run replays the request streams with seeds STREAMS*(n-1)+1 ..
STREAMS*n. --trace 0 prints the end-to-end metrics; --trace 1 is a separate
traced run that prints the per-layer metrics and writes Chrome trace JSON
under the build directory.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output check
passed, 1 when one failed, 2 when the benchmark could not build or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")

# Every run of a workload ends within this many seconds of host time.
RUN_DEADLINE_S = 170.0
# The serving probes of one run are killed PROBE_FACTOR times the first
# finished probe's time after they start, but no sooner than PROBE_FLOOR_S
# and no later than PROBE_CAP_S.
PROBE_FLOOR_S = 10.0
PROBE_FACTOR = 5.0
PROBE_CAP_S = 60.0
# Serving: the machine configuration and the mean inter-arrival gap in
# fabric ticks, chosen by the knee probe (README.md, knee.py).
SERVE_CONFIG = "Hetero2"
SERVE_GAP = 6000
# Threads of the parallel legs.
THREADS = min(4, os.cpu_count() or 1)
# Sweep every STRIDE-th method (1 = the full corpus).
STRIDE = 1
# Request streams per serving run, and requests per stream.
STREAMS = 4
REQUESTS = 1000

# name -> (unit, kind, better). Kind says what the number is: host time,
# simulated ticks of the modelled machine, or a count taken from outputs.
END_TO_END = {
    "setup_s": ("s", "host", "lower"),
    "serial_minstr_per_s": ("Minstr/s", "host", "higher"),
    "parallel_minstr_per_s": ("Minstr/s", "host", "higher"),
    "peak_rss_mb": ("MB", "host", "lower"),
}

PER_LAYER = {
    "workloads.make_corpus_s": ("s", "host"),
    "bytecode.verify_s": ("s", "host"),
    "bytecode.verify_calls": ("count", "count"),
    "fabric.resolve_s": ("s", "host"),
    "fabric.resolve_calls": ("count", "count"),
    "fabric.place_s": ("s", "host"),
    "fabric.place_calls": ("count", "count"),
    "fabric.place_fit_ratio": ("ratio", "count"),
    "sim.lower_s": ("s", "host"),
    "sim.lower_calls": ("count", "count"),
    "sim.engine.run_s": ("s", "host"),
    "sim.engine.runs": ("count", "count"),
    "sim.engine.instructions_fired": ("count", "count"),
    "sim.engine.ns_per_fired": ("ns", "host"),
    "sim.engine.sim_ticks": ("ticks", "ticks"),
    "sim.engine.mesh_messages": ("count", "count"),
    "sim.engine.serial_messages": ("count", "count"),
    "sim.engine.timed_out_cells": ("count", "count"),
    "sim.engine.cell_p50_ticks": ("ticks", "ticks"),
    "sim.engine.cell_p99_ticks": ("ticks", "ticks"),
    "analysis.sweep.serial_cells_per_s": ("1/s", "host"),
    "analysis.sweep.lane_imbalance": ("ratio", "host"),
    "analysis.sweep.dedup_cells": ("count", "count"),
    "analysis.sweep.profile_verify_s": ("s", "host"),
    "analysis.sweep.profile_resolve_s": ("s", "host"),
    "analysis.sweep.profile_place_s": ("s", "host"),
    "analysis.sweep.profile_plan_s": ("s", "host"),
    "analysis.sweep.profile_execute_s": ("s", "host"),
    "sim.multi.ns_per_fired": ("ns", "host"),
    "sim.multi.instructions_fired": ("count", "count"),
    "sim.multi.fabric_ticks": ("ticks", "ticks"),
    "sim.multi.ticks_res_2plus": ("ticks", "ticks"),
    "sim.multi.ring_wait_ticks": ("ticks", "ticks"),
    "sim.multi.serial_wait_ticks": ("ticks", "ticks"),
    "sim.multi.mesh_wait_ticks": ("ticks", "ticks"),
    "serve.serve_s": ("s", "host"),
    "serve.req_per_s": ("1/s", "host"),
    "serve.isolated_engine_s": ("s", "host"),
    "serve.multi_over_engine": ("ratio", "host"),
    "serve.loads": ("count", "count"),
    "serve.evictions": ("count", "count"),
    "serve.plans_lowered": ("count", "count"),
    "serve.plans_shared": ("count", "count"),
    "serve.resident_hit_ratio": ("ratio", "count"),
    "serve.max_queue_depth": ("count", "count"),
    "serve.queue_wait_p50_ticks": ("ticks", "ticks"),
    "serve.queue_wait_p99_ticks": ("ticks", "ticks"),
    "serve.latency_p50_ticks": ("ticks", "ticks"),
    "serve.latency_p99_ticks": ("ticks", "ticks"),
    "serve.rejected": ("count", "count"),
    "serve.timed_out": ("count", "count"),
    "serve.unfinished": ("count", "count"),
    "obs.traced_wall_s": ("s", "host"),
    "obs.unaccounted_s": ("s", "host"),
    "obs.trace_overhead_frac": ("ratio", "host"),
}

# Layers of the explicit verify -> resolve -> place -> lower -> Engine::run
# path, which both the traced sweep and the serving replay take.
PATH_LAYERS = [
    "bytecode.verify_s", "bytecode.verify_calls", "fabric.resolve_s",
    "fabric.resolve_calls", "fabric.place_s", "fabric.place_calls",
    "sim.lower_s", "sim.lower_calls", "sim.engine.run_s", "sim.engine.runs",
    "sim.engine.instructions_fired", "sim.engine.sim_ticks",
    "sim.engine.mesh_messages", "sim.engine.serial_messages",
    "sim.engine.timed_out_cells",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def out_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds perfbench under the build directory; returns the binary."""
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found next to perfbench/")
    build_dir = os.path.join(out_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return [os.path.join(build_dir, "perfbench")]


def run_children(cmds, cap_s, adaptive=False):
    """Runs the commands at once, each in its own process, under a deadline.

    Each child's stdout goes to a file, so no pipe can fill up. Returns one
    (result, killed) pair per command: the child's "result" object (None when
    it printed none) and whether the deadline killed it. With adaptive, the
    deadline shrinks to max(PROBE_FLOOR_S, PROBE_FACTOR x the first child's
    time) once one child has finished, within cap_s.
    """
    os.makedirs(out_dir(), exist_ok=True)
    start = time.monotonic()
    procs = []
    for i, cmd in enumerate(cmds):
        path = os.path.join(out_dir(), "child-%d-%d.out" % (os.getpid(), i))
        with open(path, "w") as f:
            procs.append((subprocess.Popen(cmd, stdout=f), path))
    first_done = None
    killed = set()
    while True:
        running = [p for p, _ in procs if p.poll() is None]
        elapsed = time.monotonic() - start
        if len(running) < len(procs) and first_done is None:
            first_done = elapsed
        if not running:
            break
        limit = cap_s
        if adaptive and first_done is not None:
            limit = min(cap_s, max(PROBE_FLOOR_S, PROBE_FACTOR * first_done))
        if elapsed > limit:
            for p in running:
                p.kill()
                p.wait()
                killed.add(p)
            break
        time.sleep(0.02)
    results = []
    for p, path in procs:
        result = None
        last = ""
        with open(path) as f:
            for line in f:
                if line.startswith("result "):
                    result = json.loads(line[len("result "):])
                elif line.startswith("progress "):
                    last = line.strip()
        os.remove(path)
        if result is None:
            log("perfbench: child '%s' %s after '%s'"
                % (" ".join(p.args[1:]), "killed at the deadline" if p in killed
                   else "exited with code %s" % p.returncode, last))
        results.append((result, p in killed))
    return results


def pct(values, q):
    """Nearest-rank percentile, the rule ServeReport uses."""
    if not values:
        return None
    v = sorted(values)
    return v[max((q * len(v) + 99) // 100, 1) - 1]


def ratio(num, den):
    return num / den if den else None


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(self.end - time.monotonic(), 0.0)


# ---- sweep-full ----

def sweep_full(args, exe, deadline):
    corpus_seed = args.corpus_seed + args.seed - 1
    cmd = exe + ["sweep", "--corpus-seed", str(corpus_seed),
                 "--ref-corpus-seed", str(args.corpus_seed),
                 "--threads", str(THREADS), "--seconds", str(args.seconds),
                 "--stride", str(STRIDE)]
    trace_path = None
    if args.trace:
        trace_path = trace_file(args)
        cmd += ["--trace", trace_path]
    r, _ = run_children([cmd], deadline.left())[0]
    out = {"correct": r is not None and r["correct"], "attempted": 0, "failed": 0}
    if r is None:
        return out, {}
    out["attempted"] = r["cells"]
    out["failed"] = r["failed_cells"]
    out["digest"] = r["digest"]
    if not args.trace:
        mi = r["fired"] / 1e6
        return out, {
            "setup_s": statistics.median(r["setup_s"]) * r["setup_scale"],
            "serial_minstr_per_s": mi / statistics.median(r["serial_s"]),
            "parallel_minstr_per_s": mi / statistics.median(r["parallel_s"]),
            "peak_rss_mb": r["peak_rss_mb"],
        }
    lay = dict(r["layers"])
    lay["workloads.make_corpus_s"] = statistics.median(r["setup_s"])
    lay["fabric.place_fit_ratio"] = ratio(lay.pop("fabric.place_fits"),
                                          lay["fabric.place_calls"])
    lay["sim.engine.ns_per_fired"] = ratio(lay["sim.engine.run_s"] * 1e9,
                                           lay["sim.engine.instructions_fired"])
    lay["obs.trace_overhead_frac"] = (lay["obs.traced_wall_s"]
                                      / lay.pop("obs.untraced_wall_s") - 1.0)
    lay.pop("obs.spans")
    log("perfbench: trace written to %s" % trace_path)
    return out, fill_layers(lay)


# ---- serving ----

def stream_seeds(args):
    return [STREAMS * (args.seed - 1) + k + 1 for k in range(STREAMS)]


def serve_cmd(args, exe, mode, stream_seed):
    corpus = "kernels" if args.workload == "serve-hot" else "full"
    return exe + ["serve", "--mode", mode, "--corpus", corpus,
                  "--corpus-seed", str(args.corpus_seed + args.seed - 1),
                  "--ref-corpus-seed", str(args.corpus_seed),
                  "--stream-seed", str(stream_seed),
                  "--requests", str(REQUESTS), "--gap", str(SERVE_GAP),
                  "--config", SERVE_CONFIG, "--threads", str(THREADS)]


def serving(args, exe, deadline):
    """Probes every stream at once under a deadline, then times (or traces)
    the streams that finished, one at a time."""
    seeds = stream_seeds(args)
    probes = run_children([serve_cmd(args, exe, "probe", s) for s in seeds],
                          min(PROBE_CAP_S, deadline.left()), adaptive=True)
    attempted = REQUESTS * len(seeds)
    # A killed stream is unfinished; one that ended without a result broke.
    done = [(s, p) for s, (p, _) in zip(seeds, probes) if p is not None]
    unfinished = REQUESTS * (len(seeds) - len(done))
    rejected = sum(p["rejected"] for _, p in done)
    timed_out = sum(p["timed_out"] for _, p in done)
    out = {"correct": all(p["correct"] for _, p in done) and
                      all(p is not None or k for p, k in probes),
           "attempted": attempted,
           "failed": unfinished + rejected + timed_out,
           "hung_streams": [s for s, (p, k) in zip(seeds, probes) if k and p is None],
           # ServeReport digests of the finished streams, in stream-seed order.
           "digest": ",".join("%d:%s" % (s, p["digest"]) for s, p in done)}

    runs = []
    for s, p in done:
        cmd = serve_cmd(args, exe, "trace" if args.trace else "time", s)
        if args.trace:
            cmd += ["--trace", trace_file(args, s)]
        else:
            cmd += ["--seconds", str(args.seconds / len(done))]
        r, _ = run_children([cmd], deadline.left())[0]
        # Same stream, same report: the timed run must match its probe.
        if r is None or not r["correct"] or r["digest"] != p["digest"]:
            out["correct"] = False
        else:
            runs.append((p, r))
    # Set-up times scaled to the reference corpus, pooled over the timed
    # processes. Those run one at a time; the probes run at once and slow
    # each other's set-up, so theirs count only when no timed process
    # returned a result.
    setup = [x * r["setup_scale"] for _, r in runs for x in r["setup_s"]]
    if not runs:
        setup = [x * p["setup_scale"] for _, p in done for x in p["setup_s"]]
        return out, ({} if args.trace else {"setup_s": statistics.median(setup)
                                            if setup else None})
    if not args.trace:
        fired = sum(p["fired"] for p, _ in runs) / 1e6
        serial = sum(statistics.median(r["serial_s"]) for _, r in runs)
        parallel = sum(statistics.median(r["parallel_s"]) for _, r in runs)
        return out, {
            "setup_s": statistics.median(setup),
            "serial_minstr_per_s": fired / serial,
            "parallel_minstr_per_s": fired * THREADS / parallel,
            "peak_rss_mb": max(r["peak_rss_mb"] for _, r in runs),
        }

    def total(key):
        return sum(r["layers"][key] for _, r in runs)

    lay = {k: total(k) for k in PATH_LAYERS + [
        "sim.multi.instructions_fired", "sim.multi.fabric_ticks",
        "sim.multi.ticks_res_2plus", "sim.multi.ring_wait_ticks",
        "sim.multi.serial_wait_ticks", "sim.multi.mesh_wait_ticks",
        "serve.serve_s", "serve.isolated_engine_s", "serve.loads",
        "serve.evictions", "serve.plans_lowered", "serve.plans_shared",
        "obs.traced_wall_s", "obs.unaccounted_s"]}
    lat = [x for p, _ in runs for x in p["latencies"]]
    waits = [x for p, _ in runs for x in p["queue_waits"]]
    serve_s = lay["serve.serve_s"]
    untraced = total("serve.untraced_serve_s")
    lay.update({
        "workloads.make_corpus_s": statistics.median(
            [x for _, r in runs for x in r["layers"]["workloads.make_corpus_s"]]),
        "fabric.place_fit_ratio": ratio(total("fabric.place_fits"),
                                        lay["fabric.place_calls"]),
        "sim.engine.ns_per_fired": ratio(lay["sim.engine.run_s"] * 1e9,
                                         lay["sim.engine.instructions_fired"]),
        "sim.multi.ns_per_fired": ratio(serve_s * 1e9,
                                        lay["sim.multi.instructions_fired"]),
        "serve.req_per_s": ratio(sum(p["completed"] for p, _ in runs), untraced),
        "serve.multi_over_engine": ratio(serve_s, lay["serve.isolated_engine_s"]),
        "serve.resident_hit_ratio": 1.0 - lay["serve.loads"] / total("serve.admitted"),
        "serve.max_queue_depth": max(r["layers"]["serve.max_queue_depth"]
                                     for _, r in runs),
        "serve.queue_wait_p50_ticks": pct(waits, 50),
        "serve.queue_wait_p99_ticks": pct(waits, 99),
        "serve.latency_p50_ticks": pct(lat, 50),
        "serve.latency_p99_ticks": pct(lat, 99),
        "serve.rejected": rejected,
        "serve.timed_out": timed_out,
        "serve.unfinished": unfinished,
        "obs.trace_overhead_frac": ratio(serve_s, untraced) - 1.0,
    })
    log("perfbench: traces written to %s" % trace_file(args, "<stream>"))
    return out, fill_layers(lay)


def trace_file(args, stream=None):
    os.makedirs(os.path.join(out_dir(), "traces"), exist_ok=True)
    name = "%s-seed%d%s.json" % (args.workload, args.seed,
                                 "" if stream is None else "-stream%s" % stream)
    return os.path.join(out_dir(), "traces", name)


def fill_layers(lay):
    """Every declared per-layer metric, 0 for layers this workload does not
    exercise; only declared names are kept."""
    return {k: (lay.get(k) if lay.get(k) is not None else 0) for k in PER_LAYER}


WORKLOADS = {"sweep-full": sweep_full, "serve-hot": serving,
             "serve-churn": serving}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=20141215)
    return ap.parse_args(argv)


def report(args, out, metrics):
    """Prints one readable line per metric, then the JSON result line."""
    names = PER_LAYER if args.trace else END_TO_END
    printed = {}
    for name in names:
        unit, kind = names[name][0], names[name][1]
        value = metrics.get(name)
        printed[name] = {"value": value, "unit": unit}
        print("%s seed=%d %-36s %14s %-8s [%s]"
              % (args.workload, args.seed, name,
                 "n/a" if value is None else "%.6g" % value, unit, kind))
    print("%s seed=%d attempted=%d failed=%d failed_frac=%.4f correct=%s%s"
          % (args.workload, args.seed, out["attempted"], out["failed"],
             out["failed"] / out["attempted"] if out["attempted"] else 0.0,
             out["correct"],
             " digest=%s" % out["digest"] if out.get("digest") else ""))
    if out.get("hung_streams"):
        print("%s seed=%d streams killed at the deadline (livelock): %s"
              % (args.workload, args.seed, out["hung_streams"]))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": printed}))


def main(argv=None, exe=None):
    args = parse(argv)
    if exe is None:
        try:
            exe = build()
        except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
            log("perfbench: cannot build the benchmark: %s" % e)
            return 2
    deadline = Deadline(RUN_DEADLINE_S)
    out, metrics = WORKLOADS[args.workload](args, exe, deadline)
    report(args, out, metrics)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
