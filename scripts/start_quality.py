#!/usr/bin/env python3
"""Warm-start quality and sweep times on the benchmark's workloads, parent tree against change tree.

    python3 scripts/start_quality.py --parent PARENT_TREE --change . --seeds 1-10

``--parent`` and ``--change`` are two checkouts of the repository; a parent
tree can be made with ``git archive HEAD~1 | tar -x -C PARENT_TREE``.  For
every workload (the three ``cp_*`` ones at N = 300 and the ``continuum_cli``
design at N = 15) and seed, each tree's own code (run in its own process)
builds the benchmark's paper-size training collection
(``perfbench/workloads.py``), standardizes it as ``fitting.fit_model`` does,
and starts the strict (MTF) sampler with ``mtf.init_state`` on the stream of
the benchmark's first chain, ``RngStream(seed, 0)``.  It reports:

- the in-sample mean squared error of each view right after the start, over
  observed entries, in standardized units (predicting zero scores about 1);
- the log joint after the start plus 10 MTF sweeps, the same sweeps the
  benchmark's first MTF chain runs;
- the start's wall time, one process at a time;
- the median wall time of those 10 sweeps, each with its log joint, and of
  10 relaxed (rMTF) sweeps with theirs, run after ``rmtf.rmtf_init`` on the
  same stream: per sampler, what the benchmark's sweep rates cannot show
  apart from the start.

Prints one row per (workload, seed, side), then per workload and side the
median of each column.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from repeat import seeds_arg  # noqa: E402

WORKLOADS = ("cp_dense", "cp_masked_entries", "cp_missing_slabs", "continuum_cli")
SIDES = ("parent", "change")
SWEEPS = 10


def timed_sweeps(state, data, gen, sweep, log_joint) -> tuple[float, float]:
    """Median wall time (ms) of SWEEPS sweeps, each with its log joint, and
    the last log joint."""
    secs = []
    for _ in range(SWEEPS):
        t0 = time.perf_counter()
        lj = log_joint(state, data, rss=sweep(state, data, gen))
        secs.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(secs), lj


def measure(workload: str, seed: int) -> dict:
    """One start and its first sweeps of each sampler, with the code of the
    tree on sys.path."""
    from workloads import make_workload

    from mtfact import mtf, rmtf
    from mtfact.core import center_and_normalize
    from mtfact.dist import RngStream

    wl = make_workload(workload, seed, "paper")
    c, _ = center_and_normalize(wl.training_collection())
    hp = wl.hyperparams("mtf")
    data = mtf.prepare(c, hp)
    gen = RngStream(seed, 0).gen
    t0 = time.perf_counter()
    state = mtf.init_state(data, hp, gen)
    init_s = time.perf_counter() - t0
    mse = [float(r.sum()) / v.n_obs for r, v in zip(mtf._rss(state, data), data.views)]
    mtf_ms, log_joint = timed_sweeps(state, data, gen, mtf.mtf_sweep, mtf.log_joint)
    hp = wl.hyperparams("rmtf")
    data = mtf.prepare(c, hp)
    gen = RngStream(seed, 0).gen
    rmtf_ms, _ = timed_sweeps(rmtf.rmtf_init(data, hp, gen), data, gen, rmtf.rmtf_sweep,
                              rmtf.rmtf_log_joint)
    return {"mse": mse, "log_joint": log_joint, "init_s": init_s,
            "mtf_sweep_ms": mtf_ms, "rmtf_sweep_ms": rmtf_ms}


def worker(args) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(args.worker, "src"), os.path.join(args.worker, "perfbench")]
    for w in WORKLOADS:
        for seed in args.seeds:
            print(json.dumps({"workload": w, "seed": seed, **measure(w, seed)}),
                  flush=True)
    return 0


def run_tree(tree: str, args) -> list[dict]:
    """Every (workload, seed) of one tree, measured in a child process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", os.path.abspath(tree),
         "--seeds", ",".join(map(str, args.seeds))],
        capture_output=True, text=True, cwd=tree, env=env, check=False)
    if proc.returncode != 0:
        sys.exit(f"{tree}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def row(label: list[str], r: dict) -> str:
    cells = [f"{m:.5f}" for m in r["mse"]] + [f"{r['log_joint']:.1f}", f"{r['init_s']:.3f}",
                                              f"{r['mtf_sweep_ms']:.2f}",
                                              f"{r['rmtf_sweep_ms']:.2f}"]
    return "  ".join(f"{c:>18s}" for c in label) + "  " + "  ".join(f"{c:>10s}" for c in cells)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args)
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")

    results = {side: run_tree(getattr(args, side), args) for side in SIDES}
    header = ["workload", "seed", "side"]
    print("  ".join(f"{c:>18s}" for c in header) + "  " + "  ".join(
        f"{c:>10s}" for c in ["mse_view_1", "mse_view_2",
                              f"lj_{SWEEPS}_sweeps", "init_s", "mtf_ms", "rmtf_ms"]))
    for p, c in zip(*(results[s] for s in SIDES)):
        for side, r in zip(SIDES, (p, c)):
            print(row([r["workload"], str(r["seed"]), side], r))
    print("\nmedians")
    for w in WORKLOADS:
        for side in SIDES:
            rs = [r for r in results[side] if r["workload"] == w]
            med = {"mse": [statistics.median(r["mse"][t] for r in rs)
                           for t in range(len(rs[0]["mse"]))],
                   **{key: statistics.median(r[key] for r in rs) for key in
                      ("log_joint", "init_s", "mtf_sweep_ms", "rmtf_sweep_ms")}}
            print(row([w, f"{len(rs)} seeds", side], med))
    return 0


if __name__ == "__main__":
    sys.exit(main())
