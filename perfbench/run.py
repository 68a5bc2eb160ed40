"""mtfact benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cp_dense --seed 1 --seconds 25 --trace 0

Runs closed-loop rounds of the workload (see ``workloads.py``) in this one
process, pinned to one CPU, with one BLAS thread and one chain worker, for
as many rounds as fit in ``--seconds`` (at least one), and reports medians
over rounds.  ``--trace 0`` first times set-up in fresh processes and reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates traced
and untraced rounds and reports the per-layer metrics per traced round.  The
last line of standard output is the result object; the line before it holds
the environment and the per-round detail.  Exits 1 when an operation fails or
a check on an output fails, and 2 when the program's sources are missing.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# before numpy loads, here and in every set-up probe this process starts
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
E2E_UNITS = {
    "setup_s": "s", "mtf_sweeps_per_s": "sweeps/s", "rmtf_sweeps_per_s": "sweeps/s",
    "simulate_s": "s", "fit_s": "s", "predict_s": "s", "pipeline_s": "s",
    "peak_rss_mib": "MiB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_one_cpu() -> int:
    """Run on one CPU, the last one allowed: a process that migrates between
    CPUs of unequal load times bimodally."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _unpinned_nproc() -> int:
    """CPUs available once unpinned (the kernel clips the mask to the cpuset)."""
    os.sched_setaffinity(0, range(os.cpu_count()))
    return _nproc()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, nproc_start: int, pinned_cpu: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": _cpu_model(),
        "nproc_start": nproc_start,
        "nproc_end": _unpinned_nproc(),
        "pinned_cpu": pinned_cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def setup_probes(workload, workdir: str, ops, calib) -> list[float]:
    """Set-up time of ``size.setup_probes`` fresh processes on the workload's
    training collection."""
    import numpy as np
    train = workload.training_collection()
    inputs = os.path.join(workdir, "setup_inputs.npz")
    arrays = {f"values_{t}": v.values for t, v in enumerate(train.views)}
    arrays.update({f"observed_{t}": v.observed for t, v in enumerate(train.views)})
    np.savez(inputs, n_views=len(train.views), names=np.array(train.names),
             groups=json.dumps(train.third_mode_groups), k=workload.size.k,
             seed=workload.seed, **arrays)
    times = []
    for _ in range(workload.size.setup_probes):
        calib.sample()
        with ops.op("setup") as problems:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT, inputs],
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_rounds(workload, workdir: str, seconds: float, ops, calib, tracer=None):
    """Closed loop of rounds within ``seconds``: a round starts only if a round
    of average length still fits, and at least one runs.  With a tracer,
    rounds alternate traced / untraced, starting traced, and both kinds run."""
    done = {True: [], False: []}
    start = time.perf_counter()
    i = 0

    def another_fits() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / i <= seconds

    while i == 0 or another_fits() or (tracer is not None and i < 2):
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
        try:
            done[traced].append(
                workload.run_round(ops, calib, workdir, tracer if traced else None))
        except Exception as err:  # the round is abandoned; Ops counted the failure
            print(f"round {i} abandoned: {err!r}", file=sys.stderr, flush=True)
        finally:
            if traced:
                tracer.uninstall()
        i += 1
    return done[False], done[True]


def medians(rounds: list[dict]) -> dict:
    keys = sorted({k for r in rounds for k in r})
    return {k: statistics.median(r[k] for r in rounds if k in r) for k in keys}


def layer_metrics(tracer, n_rounds: int) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, and total time per (parent, child) span pair."""
    from tracing import SPANS, layer_metric_names
    agg = tracer.aggregate()
    per_round = {}
    for span in SPANS:
        per_round[f"{span}.calls"] = agg["calls"][span] / n_rounds
        per_round[f"{span}.self_s"] = agg["self_s"][span] / n_rounds
    per_round["io.bytes_written"] = tracer.bytes_written / n_rounds
    per_round["io.bytes_read"] = tracer.bytes_read / n_rounds
    per_round["predict.n_draws"] = tracer.n_draws / n_rounds
    per_round["dist.jitter_rescues"] = agg["jitter_rescues"] / n_rounds
    metrics = {name: {"value": per_round[name], "unit": unit}
               for name, unit in layer_metric_names()}
    edges = {f"{p} > {c}": round(v / n_rounds, 6) for (p, c), v in agg["edges"].items()}
    return metrics, edges


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("paper", "toy"), default="paper",
                    help="toy: seconds-long inputs for the smoke test")
    args = ap.parse_args(argv)
    nproc_start = _nproc()
    pinned_cpu = _pin_one_cpu()  # set-up probes inherit the pin

    if not os.path.isfile(os.path.join(ROOT, "src", "mtfact", "__init__.py")):
        print(f"error: no mtfact sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mtfact
    if not os.path.abspath(mtfact.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: imported mtfact from {mtfact.__file__}", file=sys.stderr)
        return 2
    from calibrate import Calibrator
    from tracing import Tracer
    from workloads import WORKLOADS, Ops, make_workload
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed, args.size)
    ops = Ops()
    calib = Calibrator()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    detail = {"workload": args.workload, "size": args.size, "trace": args.trace}
    try:
        if args.trace:
            tracer = Tracer()
            plain, traced = run_rounds(workload, workdir, args.seconds, ops, calib, tracer)
            metrics, edges = layer_metrics(tracer, len(traced) or 1)
            e2e_plain, e2e_traced = medians(plain), medians(traced)
            detail.update({
                "rounds_traced": len(traced), "rounds_untraced": len(plain),
                "absent_spans": tracer.absent,
                "trace_overhead": {k: e2e_traced[k] - e2e_plain[k]
                                   for k in e2e_traced if k in e2e_plain},
                "edges": edges,
            })
        else:
            setup = setup_probes(workload, workdir, ops, calib)
            plain, _ = run_rounds(workload, workdir, args.seconds, ops, calib)
            raw = medians(plain)
            if setup:
                raw["setup_s"] = statistics.median(setup)
            speed = calib.speed()
            values = {k: v / speed if k.endswith("_per_s") else v * speed
                      for k, v in raw.items()}
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": values.get(name), "unit": unit}
                       for name, unit in E2E_UNITS.items()}
            detail.update({"speed": speed, "calibration_s": calib.times, "raw": raw,
                           "setup_s": setup, "rounds": plain})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["environment"] = environment(args.seed, nproc_start, pinned_cpu)
    detail["failures"] = ops.failures
    print(json.dumps({"detail": detail}))
    ok = ops.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
