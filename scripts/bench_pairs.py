"""Alternating parent/change pairs of the benchmark, summarized per metric.

    python3 scripts/bench_pairs.py --parent PARENT_TREE --change . \\
        --workloads cp_masked_entries cp_dense --seeds 601-610 \\
        --out BENCH_6.json [--trace 0]

``--parent`` and ``--change`` are two checkouts of the repository; a parent
tree can be made with ``git archive HEAD~1 | tar -x -C PARENT_TREE``.  For
every workload and seed, ``perfbench/run.py`` runs once in each tree, one
process at a time: the parent first in even-numbered pairs, the change first
in odd-numbered ones, so that drift in the host's speed falls on both sides.
Each run lasts the ``run_seconds`` of the change tree's BENCHMARK.json.

The output holds, per workload: the operations attempted and failed on each
side and, per metric, the parent and change quartiles (Q1, median, Q3), the
relative change of the median, the parent's quartile spread (Q3 - Q1) /
median, the pairs the change won (direction from BENCHMARK.json) and the
per-pair values.  It also records the seeds, the run settings and the
environment line of the first run.  A run that fails (nonzero exit or
failed output checks) counts its operations but not its metrics, so the
pair it belongs to is left out of that workload's statistics.  Exits 1 when
any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from repeat import seeds_arg  # noqa: E402

SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int):
    """One benchmark run in ``tree``: (result line, detail line, error text)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=tree, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    try:
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    except (IndexError, ValueError, KeyError):
        return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    error = None if proc.returncode == 0 and result.get("correct") \
        else f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return result, detail, error


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per-metric statistics over the pairs in which both sides report it."""
    names = sorted({m for p in pairs for side in SIDES for m in p[side]})
    out = {}
    for name in names:
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if p["parent"].get(name) is not None and p["change"].get(name) is not None]
        if not both:
            continue
        par, chg = [b[0] for b in both], [b[1] for b in both]
        qp, qc = quartiles(par), quartiles(chg)
        entry = {"parent": {"q1": qp[0], "median": qp[1], "q3": qp[2]},
                 "change": {"q1": qc[0], "median": qc[1], "q3": qc[2]},
                 "relative_change": (qc[1] - qp[1]) / qp[1] if qp[1] else None,
                 "parent_spread": (qp[2] - qp[0]) / qp[1] if qp[1] else None,
                 "pairs": [list(b) for b in both]}
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["better"] = better[name]
            entry["pairs_won"] = sum(sign * (c - p) > 0 for p, c in both)
            entry["pairs_compared"] = len(both)
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 601-610 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    seconds = bench["run_seconds"]
    summary = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
               "order": "parent first in even-numbered pairs, change first in odd",
               "environment": None, "workloads": {}}
    failed = False
    for w in args.workloads:
        ops = {side: {"attempted": 0, "failed": 0} for side in SIDES}
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result, detail, error = run_once(trees[side], w, seed, seconds, args.trace)
                if result is not None:
                    ops[side]["attempted"] += result["attempted"]
                    ops[side]["failed"] += result["failed"]
                if summary["environment"] is None and detail is not None:
                    summary["environment"] = detail["environment"]
                if error is not None:
                    failed = True
                    print(f"{w} seed {seed} {side}: {error}", file=sys.stderr, flush=True)
                pair[side] = {} if error is not None else \
                    {name: m["value"] for name, m in result["metrics"].items()}
            pairs.append(pair)
            print(f"{w} seed {seed}: pair {i + 1}/{len(args.seeds)} done",
                  file=sys.stderr, flush=True)
        summary["workloads"][w] = {"operations": ops, "metrics": summarize(pairs, better)}

    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for w, res in summary["workloads"].items():
        o = res["operations"]
        print(f"{w}: failed/attempted operations parent {o['parent']['failed']}/"
              f"{o['parent']['attempted']}, change {o['change']['failed']}/"
              f"{o['change']['attempted']}")
        for name, s in res["metrics"].items():
            if args.trace and not name.endswith(".self_s"):
                continue
            rel = "n/a" if s["relative_change"] is None else f"{100 * s['relative_change']:+.1f} %"
            won = f"{s['pairs_won']}/{s['pairs_compared']}" if "pairs_won" in s else "-"
            print(f"  {name:34s} {s['parent']['median']:11.5g} -> {s['change']['median']:11.5g}"
                  f"  {rel:>9s}  won {won}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
