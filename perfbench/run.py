#!/usr/bin/env python3
"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload script_tx|l2_fwd|vswitch_ddos|chaos_soak \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the benchmark from
source into .bench_build/ (the first run takes a few minutes), then runs
the workload for S seconds. With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics; the last line of stdout is
one JSON object {correct, attempted, failed, metrics}, the line before it
the run manifest. Traced runs also write their spans to
.bench_build/traces/. Workloads, metrics and bounds: BENCHMARK.json.

sustained_mpps is the rate that 95% of the packets (script_tx) or simulated
frames (the others) were processed at or above, over chunks of 2^19
packets or 10 ms of virtual time (whole repetitions for chaos_soak,
whose chunks differ by design), the first chunk of each repetition left
out as warm-up: on a shared host whose speed switches between states,
this low quantile is steady where the median is not. setup_s is the
median of at least 60 warm set-ups spread over the run; allocs_per_kframe
counts heap allocations after warm-up per 1000 packets or frames.
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as committed
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

WORKLOADS = ("script_tx", "l2_fwd", "vswitch_ddos", "chaos_soak")
TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    common.build()
    os.makedirs(os.path.join(common.BUILD, "traces"), exist_ok=True)
    cmd = [common.BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", common.commit(), "--source-digest", common.source_digest(),
           "--reference", os.path.join("perfbench", "reference.txt"),
           "--trace-dir", os.path.join(".bench_build", "traces")]
    try:
        proc = subprocess.run(cmd, cwd=common.ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
