"""Checks that sweep_speed writes valid BENCH_sweep.json whatever the
environment knobs hold: values with a quote, a backslash and a control
character must round-trip through the metadata block.

Usage: python3 check_sweep_json.py <path to sweep_speed>
"""
import json
import os
import subprocess
import sys
import tempfile

FILTER = 'compress"\\\t'  # matches no method: the sweep itself is empty
CACHE_DIR = 'C:\\cache "dir"'


def main():
    binary = os.path.abspath(sys.argv[1])
    env = dict(os.environ)
    env.update({
        "JAVAFLOW_BENCH_STRIDE": "400",
        "JAVAFLOW_BENCH_FILTER": FILTER,
        "JAVAFLOW_CACHE": "off",
        "JAVAFLOW_CACHE_DIR": CACHE_DIR,
    })
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([binary], cwd=tmp, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        with open(os.path.join(tmp, "BENCH_sweep.json")) as f:
            doc = json.load(f)
    meta = doc["metadata"]
    assert meta["env_javaflow_bench_filter"] == FILTER, meta
    assert meta["env_javaflow_cache_dir"] == CACHE_DIR, meta
    assert "env_javaflow_scheduler" not in meta, meta
    assert doc["scheduler"] == "calendar", doc["scheduler"]
    assert doc["report"]["scheduler"] == "calendar"
    print("BENCH_sweep.json parses; env values round-trip")


if __name__ == "__main__":
    main()
