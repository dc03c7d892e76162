#!/usr/bin/env python3
"""Anchors each simulated workload to the example it reproduces: the
workload's report for a seed must equal, byte for byte, the stdout of the
example run with the same arguments and seed.

    python3 perfbench/test_anchor.py

Exits non-zero on the first mismatch.
"""
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as committed
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

EXAMPLES = {
    "l2_fwd": ["l2_load_latency", "1.5", "0.5", "cbr"],
    "vswitch_ddos": ["ddos_isolation"],
    # The workload runs at one shard; the example's stdout does not depend
    # on the shard count, so this also checks the two-shard run.
    "chaos_soak": ["chaos_soak", "--shards", "2"],
}
SEEDS = (1, 7)


def stdout_of(cmd):
    out = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, timeout=300)
    if out.returncode != 0:
        sys.exit("%s exited %d:\n%s" % (" ".join(cmd), out.returncode, out.stderr.decode()))
    return out.stdout


def main():
    common.build(("perfbench", "l2_load_latency", "ddos_isolation", "chaos_soak"))
    for workload, example in EXAMPLES.items():
        for seed in SEEDS:
            want = stdout_of([os.path.join(common.BUILD, example[0]), *example[1:],
                              "--seed", str(seed)])
            got = stdout_of([common.BINARY, "--workload", workload, "--seed", str(seed),
                             "--report"])
            if got != want:
                sys.exit("%s seed %d differs from %s:\n--- example\n%s--- workload\n%s"
                         % (workload, seed, example[0], want.decode(), got.decode()))
            print("ok  %-14s seed %d == %s" % (workload, seed, " ".join(example)))


if __name__ == "__main__":
    main()
