#!/usr/bin/env python3
"""Records perfbench/reference.txt: the window digests of every simulated
workload, which the benchmark's output check compares against.

    python3 perfbench/record_reference.py

chaos_soak depends on its scenario seed and is recorded for seeds 1..16,
at one shard and at two; the two must be equal (the shard-count
determinism contract), or nothing is written. l2_fwd and vswitch_ddos fix
the seed of every random source, so they are recorded once, under seed 1.
"""
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

sys.dont_write_bytecode = True  # the checkout stays as committed
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

SEEDS = range(1, 17)
# (workload, shards, scenario seeds)
RUNS = [("l2_fwd", 1, [1]), ("vswitch_ddos", 1, [1]),
        ("chaos_soak", 1, SEEDS), ("chaos_soak", 2, SEEDS)]


def record(job):
    workload, shards, seed = job
    out = subprocess.run([common.BINARY, "--workload", workload, "--seed", str(seed),
                          "--record", "--shards", str(shards)],
                         cwd=common.ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit("record failed for %s seed %d shards %d:\n%s" % (workload, seed, shards, out.stderr))
    return job, out.stdout.strip()


def main():
    common.build()
    jobs = [(w, s, seed) for w, s, seeds in RUNS for seed in seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        lines = dict(pool.map(record, jobs))
    for seed in SEEDS:
        one, two = lines[("chaos_soak", 1, seed)], lines[("chaos_soak", 2, seed)]
        if one != two:
            sys.exit("chaos_soak seed %d: 2-shard digests differ from 1 shard" % seed)
    path = os.path.join(common.HERE, "reference.txt")
    with open(path, "w") as f:
        f.write("# <workload> <scenario seed> <digest per 100 ms window>... <final digest>\n")
        f.write("# written by perfbench/record_reference.py; chaos_soak at 1 shard == 2 shards\n")
        for w, s, seeds in RUNS[:3]:
            for seed in seeds:
                f.write(lines[(w, s, seed)] + "\n")
    print("wrote " + path)


if __name__ == "__main__":
    main()
