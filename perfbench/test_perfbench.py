"""Tests of the benchmark itself.

Run from the root of a source checkout (the first run builds perfbench):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.exe = run.build()

    def child(self, *argv):
        result, killed = run.run_children([self.exe + list(argv)], 120)[0]
        self.assertFalse(killed)
        return result

    def test_traced_sweep_reproduces_run_sweep(self):
        trace = os.path.join(run.out_dir(), "test-sweep-trace.json")
        r = self.child("sweep", "--stride", "25", "--threads", "2",
                       "--trace", trace)
        self.assertTrue(r["correct"])
        self.assertEqual(r["failed_cells"], 0)
        # Dedup copies are filled in, not simulated, as in run_sweep.
        self.assertEqual(r["layers"]["sim.engine.runs"]
                         + r["layers"]["analysis.sweep.dedup_cells"], r["cells"])
        self.assertEqual(r["layers"]["sim.engine.instructions_fired"], r["fired"])
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        os.remove(trace)
        self.assertEqual(len(events), r["layers"]["obs.spans"])

    def test_deadline_kills_a_stub_that_never_returns(self):
        stub = [sys.executable, "-c", "import time\nwhile True: time.sleep(1)",
                "--"]
        args = run.parse(["--workload", "serve-hot"])
        t0 = time.monotonic()
        with mock.patch.object(run, "STREAMS", 2), \
                mock.patch.object(run, "REQUESTS", 10):
            out, metrics = run.serving(args, stub, run.Deadline(1))
        self.assertLess(time.monotonic() - t0, 10)
        self.assertEqual(out["attempted"], 20)
        self.assertEqual(out["failed"], 20)
        self.assertEqual(out["hung_streams"], [1, 2])
        self.assertTrue(out["correct"])

    def test_seed_reproduces_and_changes_the_stream(self):
        def digest(seed):
            return self.child("serve", "--mode", "probe", "--stream-seed",
                              str(seed), "--requests", "200", "--gap",
                              str(run.SERVE_GAP))["stream_digest"]
        self.assertEqual(digest(1), digest(1))
        self.assertNotEqual(digest(1), digest(2))

    def test_printed_metrics_are_the_declared_ones(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                argv = ["--workload", workload, "--seconds", "0",
                        "--trace", str(trace)]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        mock.patch.object(run, "STRIDE", 50), \
                        mock.patch.object(run, "STREAMS", 1), \
                        mock.patch.object(run, "REQUESTS", 200):
                    code = run.main(argv, exe=self.exe)
                self.assertEqual(code, 0)
                result = json.loads(buf.getvalue().strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, declared[trace], (workload, trace))
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(os.path.abspath(run.out_dir()), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "sweep-full", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, env=env,
                           capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("metrics", p.stdout)


if __name__ == "__main__":
    unittest.main()
