#!/usr/bin/env python3
"""Knee probe for the serving gap: max queue depth at N and 2N requests.

The serving workloads run at the smallest mean gap at which the maximum
queue depth stops growing when the request count doubles. This script
prints that probe for a list of gaps and stream seeds; a stream that does
not finish within the cap is reported as "hang" (the multi-tenant livelock
in ROADMAP item 1). Run from the root of a source checkout:

    python3 perfbench/knee.py [--gaps 2000,4000,...] [--seeds 1,2,...]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--gaps", default="2000,4000,6000,8000,12000,16000")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8")
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--corpus", default="kernels", choices=("kernels", "full"))
    ap.add_argument("--config", default=run.SERVE_CONFIG)
    ap.add_argument("--cap", type=float, default=30.0,
                    help="seconds before a probe counts as hung")
    args = ap.parse_args()
    exe = run.build()
    jobs = min(4, os.cpu_count() or 1)
    cells = [(g, s, n) for g in args.gaps.split(",") for s in args.seeds.split(",")
             for n in (args.requests, 2 * args.requests)]
    depth = {}
    for i in range(0, len(cells), jobs):
        batch = cells[i:i + jobs]
        cmds = [exe + ["serve", "--mode", "probe", "--corpus", args.corpus,
                       "--stream-seed", s, "--requests", str(n), "--gap", g,
                       "--config", args.config] for g, s, n in batch]
        for cell, (r, killed) in zip(batch, run.run_children(cmds, args.cap)):
            depth[cell] = ("hang" if killed else "error" if r is None
                           else str(r["max_queue_depth"]))
    print("| mean gap | " + " | ".join("seed %s" % s for s in args.seeds.split(",")) + " |")
    print("|---" * (1 + len(args.seeds.split(","))) + "|")
    for g in args.gaps.split(","):
        row = ["%s -> %s" % (depth[(g, s, args.requests)], depth[(g, s, 2 * args.requests)])
               for s in args.seeds.split(",")]
        print("| %s | %s |" % (g, " | ".join(row)))


if __name__ == "__main__":
    main()
