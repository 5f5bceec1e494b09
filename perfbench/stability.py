#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the held-out seed check.

    python3 perfbench/stability.py [--runs 10] [--workloads a,b] [--seconds 10]
    python3 perfbench/stability.py --held-out [--runs 5] [--workloads a,b]

The first form runs each workload --runs times, each with another seed
(1, 2, ...), and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)), beside the metric's bound
from BENCHMARK.json.  A spread above a third of its bound is marked.

The second form runs each workload --runs times on the default seed and
--runs times on the held-out seed (both fixed in run.py), alternating
them, and checks that
the held-out median of every end-to-end metric lies within the metric's
bound of the default seed's median, in the metric's worse direction.

Run from the root of an ffc source tree; every run appends to
.perfbench_run/results.jsonl as usual.
"""

import argparse
import json
import statistics
import subprocess
import sys

sys.path.insert(0, "perfbench")
import run  # noqa: E402


def bench(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: outputs incorrect" % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        if args.held_out:
            # Alternate the seeds, so that drift in the host's speed hits both alike.
            runs = {run.DEFAULT_SEED: [], run.HELD_OUT_SEED: []}
            for _ in range(args.runs):
                for s in runs:
                    runs[s].append(bench(w, s, seconds))
            for name, m in metrics.items():
                base = statistics.median(r[name] for r in runs[run.DEFAULT_SEED])
                held = statistics.median(r[name] for r in runs[run.HELD_OUT_SEED])
                worse = (held - base) / base if m["better"] == "lower" else (base - held) / base
                within = worse <= m["bound"]
                ok = ok and within
                print("%-14s %-17s seed %d median %-12.6g seed %d median %-12.6g worse by %+.3f (bound %.2f) %s"
                      % (w, name, run.DEFAULT_SEED, base, run.HELD_OUT_SEED, held, worse, m["bound"],
                         "ok" if within else "OUTSIDE"))
        else:
            runs = [bench(w, seed, seconds) for seed in range(1, args.runs + 1)]
            for name, m in metrics.items():
                values = [r[name] for r in runs]
                s = spread(values)
                ok = ok and s <= m["bound"]
                print("%-14s %-17s median %-12.6g spread %.4f (bound %.2f)%s"
                      % (w, name, statistics.median(values), s, m["bound"],
                         "" if s < m["bound"] / 3 else "  <- above a third of the bound"))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
