"""Run the benchmark once per seed on each workload and summarize.

    python3 perfbench/repeat.py --seeds 1-10 --out summary.json [--trace 0]
        [--workloads cp_dense continuum_cli]

Runs are sequential, one process at a time.  For every workload the summary
holds the operations attempted and failed and, per metric, the values, their
median and the quartile spread (``statistics.quantiles(values, n=4)``:
(Q3 - Q1) / median), the statistic the benchmark's bounds are judged by.
Exits 1 when any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    failed = False
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        ops = {"attempted": 0, "failed": 0}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if result is not None:
                ops["attempted"] += result["attempted"]
                ops["failed"] += result["failed"]
            if proc.returncode != 0 or result is None or not result["correct"]:
                failed = True
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            summary.setdefault("environment", json.loads(lines[-2])["detail"]["environment"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: {result['attempted']} attempted, "
                  f"{result['failed']} failed", file=sys.stderr, flush=True)
        stats = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            stats[name] = {"median": med, "spread": (q[2] - q[0]) / med if med else None,
                           "values": vals}
        summary["workloads"][w] = {"operations": ops, "metrics": stats}
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for w, res in summary["workloads"].items():
        print(f"{w:18s} operations: {res['operations']['attempted']} attempted, "
              f"{res['operations']['failed']} failed")
        for name, s in res["metrics"].items():
            if args.trace == 0 or name.endswith(".self_s"):
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"{w:18s} {name:40s} median {s['median']:12.5g}  spread {spread}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
