#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every metric printed by the runs this prints the median over the runs
and the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
beside the bound BENCHMARK.json fixes. Run from the repository root:

    python3 perfbench/spread.py --workload explore --seeds 1-10
    python3 perfbench/spread.py --workload service --seeds 1-5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
            print(out, file=sys.stderr)
            sys.exit(1)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              file=sys.stderr)

    print(f"{'metric':28} {'median':>12} {'spread':>8} {'bound':>6}  values")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:28} {med:12.6g} {spread:8.3f} {bound if bound is not None else '':>6}  "
              + " ".join(f"{v:.5g}" for v in vs))


if __name__ == "__main__":
    main()
