"""Run one or more workloads over several seeds and report, per metric, the
median and the quartile spread: (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the bound in BENCHMARK.json.
Every run is ``run.py --seconds <run_seconds> --trace 0``, as in BENCHMARK.json.

    python3 perfbench/spread.py --workload fig3-sim --seeds 11 12 13 14 15
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {}
    worst = 0.0
    for name in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                print(proc.stdout)
                print(f"{name} seed {seed}: run failed (exit {proc.returncode})")
                return 1
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        report[name] = {}
        for key, vals in values.items():
            spread = quartile_spread(vals) if len(vals) >= 2 and statistics.median(vals) else 0.0
            bound = bounds.get(key)
            report[name][key] = {"median": statistics.median(vals), "spread": spread,
                                 "bound": bound, "values": vals}
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  ok" if spread < bound / 3 else ("  WIDE" if spread <= bound else "  OVER")
            print(f"  {name:15s} {key:40s} median {statistics.median(vals):12.6g}"
                  f"  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seeds": args.seeds, "seconds": seconds, "workloads": report}, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
