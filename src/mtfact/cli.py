"""Command-line workflows: simulate -> fit -> predict -> diagnose -> report.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage or validation error.
Every command is deterministic given --seed.  A JSON --config file may
supply any long flag (key = flag name with dashes as underscores); explicit
command-line flags win.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from . import io as mio
from .core import validate_collection
from .diag import summarize_run
from .dist import RngStream
from .fitting import MODELS, fit_model
from .mtf import HyperParams
from .predict import PredictionTask, match_components, predict_collection
from .simgen import SimSpec, generate

PRESETS = {
    "default": {},
    # heavy shut-off pressure plus a peaked SNR-1 noise prior, for data where
    # the component budget otherwise saturates
    "strong-reg": {"a_pi": 1e-3, "b_pi": 1e3, "a_tau": 100.0, "burn_in": 5000},
}


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _load_config(path):
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    return cfg


def _merged(args, defaults: dict):
    """Layer hard defaults < config file < explicit flags (None = unset).

    Returns (options, set of keys that were set explicitly).
    """
    cfg = _load_config(getattr(args, "config", None))
    out, explicit = {}, set()
    for key, default in defaults.items():
        val = getattr(args, key, None)
        if val is None:
            if key in cfg:
                explicit.add(key)
            val = cfg.get(key, default)
        else:
            explicit.add(key)
        out[key] = val
    return out, explicit


def _default_jobs() -> int:
    """Worker processes from ``MTFACT_JOBS`` (default 1), an integer >= 1."""
    raw = os.environ.get("MTFACT_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise CliError(f"MTFACT_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


# ---------------------------------------------------------------------------
# simulate


SIM_DEFAULTS = dict(scenario="cp", seed=0, n=None, d1=50, d2=50, l=30,
                    k_shared=1, k_matrix=2, k_tensor=8, rho=1.0,
                    signal_var=8.0, noise_var=1.0, n_test=100, reps=1)


def _write_truth(outdir, truth, spec):
    arrays = {"z": truth.Z, "u": truth.U, "h": truth.H,
              "v_matrix": truth.V[0], "v_tensor": truth.V[1]}
    if truth.W_tensor is not None:
        arrays["w_tensor"] = truth.W_tensor
    if truth.slab_curves is not None:
        arrays["slab_curves"] = truth.slab_curves
    if truth.Z_test is not None:
        arrays["z_test"] = truth.Z_test
    mio.write_arrays(os.path.join(outdir, "truth"), arrays)


def _simulate_once(spec: SimSpec, outdir: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    if spec.scenario == "continuum":
        train, test, truth = generate(spec)
        mio.write_collection(os.path.join(outdir, "train"), train)
        mio.write_collection(os.path.join(outdir, "test"), test)
        mio.write_collection(os.path.join(outdir, "test_full"), truth.test_full)
    else:
        train, truth = generate(spec)
        mio.write_collection(os.path.join(outdir, "train"), train)
    _write_truth(outdir, truth, spec)
    meta = {k: getattr(spec, k) for k in SIM_DEFAULTS if k != "reps"}
    mio._json_dump(os.path.join(outdir, "sim_meta.json"), meta)
    dims = ", ".join(f"({v.shape[0]},{v.shape[1]},{v.shape[2]})" for v in train.views)
    return f"{spec.scenario}: {train.n_views} views {dims} -> {outdir}"


def cmd_simulate(args) -> int:
    opts, _ = _merged(args, SIM_DEFAULTS)
    reps = opts.pop("reps")
    if reps == 1:
        print(_simulate_once(SimSpec(**opts), args.out))
    else:
        for r in range(reps):
            spec = SimSpec(**{**opts, "seed": opts["seed"] + r})
            print(_simulate_once(spec, os.path.join(args.out, f"rep_{r:03d}")))
    return 0


# ---------------------------------------------------------------------------
# fit


FIT_DEFAULTS = dict(model="mtf", k=15, chains=7, burnin=3000, samples=40,
                    thin=10, seed=0, preset="default", lambda_mode="global",
                    b_tau=None, jobs=None, reps=1, no_preprocess=False)


def _fit_once(opts, indir, outdir) -> str:
    c = mio.read_collection(os.path.join(indir, "train")
                            if os.path.isdir(os.path.join(indir, "train")) else indir)
    problems = validate_collection(c)
    if problems:
        raise CliError("invalid collection: " + "; ".join(problems))
    preset = PRESETS[opts["preset"]]
    burnin = opts["burnin"]
    if "burn_in" in preset and "burnin" not in opts["_explicit"]:
        burnin = preset["burn_in"]
    hp = HyperParams(
        k=opts["k"],
        burn_in=burnin, n_samples=opts["samples"], thin=opts["thin"],
        n_chains=opts["chains"], lambda_mode=opts["lambda_mode"],
        b_tau=opts["b_tau"],
        **{k: v for k, v in preset.items() if k != "burn_in"},
    )
    jobs = opts["jobs"] if opts["jobs"] is not None else _default_jobs()
    chains, transform, _ = fit_model(
        c, hp, model=opts["model"], seed=opts["seed"],
        preprocess=not opts["no_preprocess"], jobs=jobs,
    )
    mio.write_archive(outdir, chains, transform,
                      extra={"seed": opts["seed"], "requested_model": opts["model"]})
    summary = summarize_run(chains)
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(str(summary) + "\n")
    sh, spec_counts, emp = summary.structure.counts
    return (f"{opts['model']}: {len(chains)} chains -> {outdir} "
            f"(shared={sh} specific={list(spec_counts)} empty={emp})")


def cmd_fit(args) -> int:
    opts, explicit = _merged(args, FIT_DEFAULTS)
    opts["_explicit"] = explicit
    if opts["preset"] not in PRESETS:
        raise CliError(f"unknown preset {opts['preset']!r}")
    reps = opts.pop("reps")
    rep_dirs = sorted(glob.glob(os.path.join(args.input, "rep_*")))
    if reps > 1 or rep_dirs:
        sources = rep_dirs or [args.input] * reps
        if reps > 1 and rep_dirs:
            sources = rep_dirs[:reps]
        for r, src in enumerate(sources):
            o = dict(opts)
            o["seed"] = opts["seed"] + r
            print(_fit_once(o, src, os.path.join(args.output, f"rep_{r:03d}")))
    else:
        print(_fit_once(opts, args.input, args.output))
    return 0


# ---------------------------------------------------------------------------
# predict


PRED_DEFAULTS = dict(seed=0, stage2_sweeps=50, stage2_samples=10,
                     snapshot_stride=1)


def cmd_predict(args) -> int:
    opts, _ = _merged(args, PRED_DEFAULTS)
    chains, transform, _ = mio.read_archive(args.archive)
    test = mio.read_collection(args.test)
    truth = mio.read_collection(args.truth) if args.truth else None
    if truth is not None:
        if len(truth.views) != len(test.views):
            raise ValueError(f"--truth has {len(truth.views)} views, --test {len(test.views)}")
        for name, tv, v in zip(test.names, truth.views, test.views):
            if tv.shape != v.shape:
                raise ValueError(f"view {name}: --truth shape (N, D, L) {tv.shape} "
                                 f"does not match --test {v.shape}")
    task = PredictionTask(chains, test, n_stage2_sweeps=opts["stage2_sweeps"],
                          n_stage2_samples=opts["stage2_samples"],
                          snapshot_stride=opts["snapshot_stride"])
    result, truth, err = predict_collection(task, transform, RngStream(opts["seed"], 10_000),
                                            truth)
    n_targets = mio.write_prediction_report(args.out, result, truth)
    line = f"predicted {n_targets} entries -> {args.out}"
    if truth is not None:
        line += f" (rmse {err:.4f})"
    print(line)
    return 0


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args) -> int:
    chains, _, _ = mio.read_archive(args.archive)
    summary = summarize_run(chains)
    print(summary)
    return 0 if summary.converged else 1


# ---------------------------------------------------------------------------
# report


def _find_archives(paths):
    found = []
    for p in paths:
        if os.path.exists(os.path.join(p, "run_manifest.json")):
            found.append(p)
            continue
        for sub in sorted(glob.glob(os.path.join(p, "**", "run_manifest.json"),
                                    recursive=True)):
            found.append(os.path.dirname(sub))
    return found


def _read_pred_summary(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, val = line[2:].strip().split(",", 1)
                out[key] = float(val)
    return out


def cmd_report(args) -> int:
    archives = _find_archives(args.paths)
    if not archives:
        raise CliError("no archives found under the given paths")
    rows, models, kept = [], set(), []
    for path in archives:
        chains, _, manifest = mio.read_archive(path)
        if args.truth:
            kept.append(chains)     # for the match correlations below
        models.add(manifest.get("requested_model", manifest["model"]))
        summary = summarize_run(chains)
        sh, spec_counts, emp = summary.structure.counts
        rows.append([path, manifest.get("requested_model", manifest["model"]),
                     sh, *spec_counts, emp])
    if len(models) > 1 and not args.allow_mixed:
        raise CliError(f"archives mix models {sorted(models)}; pass --allow-mixed")

    lines = ["# component structure"]
    width = max(len(r) for r in rows)
    lines.append("archive,model,shared," +
                 ",".join(f"specific_{i}" for i in range(width - 4)) + ",empty")
    for r in rows:
        lines.append(",".join(str(x) for x in r))
    if len({len(r) for r in rows}) == 1:
        arr = np.array([r[2:] for r in rows], dtype=float)
        lines.append("mean,," + ",".join(f"{x:.3f}" for x in arr.mean(axis=0)))
        lines.append("std,," + ",".join(f"{x:.3f}" for x in arr.std(axis=0)))

    if args.truth:
        lines.append("")
        lines.append("# component match correlations (tensor-specific truth)")
        lines.append("archive,mean_abs_corr")
        truth = mio.read_arrays(args.truth)
        h, vt = truth["h"], truth["v_tensor"]
        cols = np.nonzero((h[1] > 0) & (h[0] == 0))[0]
        true_loadings = vt[:, cols].T
        for path, chains in zip(archives, kept):
            cors = match_components(true_loadings, chains, view=1)
            lines.append(f"{path},{np.mean(cors):.6f}")

    pred_files = []
    for p in args.paths:
        pred_files += sorted(glob.glob(os.path.join(p, "**", "pred_*.csv"),
                                       recursive=True))
    if pred_files:
        lines.append("")
        lines.append("# prediction error")
        lines.append("rho,model,rmse,file")
        recs = []
        for f in pred_files:
            meta_path = os.path.join(os.path.dirname(f), "sim_meta.json")
            rho = ""
            if os.path.exists(meta_path):
                with open(meta_path) as fh:
                    rho = json.load(fh).get("rho", "")
            model = os.path.basename(f)[len("pred_"):-len(".csv")]
            summ = _read_pred_summary(f)
            recs.append((rho, model, summ.get("rmse", float("nan")), f))
        for rho, model, r, f in sorted(recs, key=lambda x: (str(x[0]), x[1])):
            lines.append(f"{rho},{model},{r:.4f},{f}")

    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mtfact", description=__doc__)
    p.add_argument("--config", help="JSON file supplying any flag defaults")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate a synthetic collection")
    s.add_argument("--scenario", choices=["cp", "relaxed_cp", "continuum"])
    s.add_argument("--seed", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--d1", type=int)
    s.add_argument("--d2", type=int)
    s.add_argument("--l", type=int)
    s.add_argument("--k-shared", dest="k_shared", type=int)
    s.add_argument("--k-matrix", dest="k_matrix", type=int)
    s.add_argument("--k-tensor", dest="k_tensor", type=int)
    s.add_argument("--rho", type=float)
    s.add_argument("--signal-var", dest="signal_var", type=float)
    s.add_argument("--noise-var", dest="noise_var", type=float)
    s.add_argument("--n-test", dest="n_test", type=int)
    s.add_argument("--reps", type=int)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    f = sub.add_parser("fit", help="run Gibbs chains on a collection")
    f.add_argument("--model", choices=MODELS)
    f.add_argument("--k", type=int)
    f.add_argument("--chains", type=int)
    f.add_argument("--burnin", type=int)
    f.add_argument("--samples", type=int)
    f.add_argument("--thin", type=int)
    f.add_argument("--seed", type=int)
    f.add_argument("--preset", choices=list(PRESETS))
    f.add_argument("--lambda-mode", dest="lambda_mode",
                   choices=["global", "per_component", "per_slab"])
    f.add_argument("--b-tau", dest="b_tau", type=float)
    f.add_argument("--jobs", type=int)
    f.add_argument("--reps", type=int)
    f.add_argument("--no-preprocess", dest="no_preprocess", action="store_const",
                   const=True)
    f.add_argument("input")
    f.add_argument("output")
    f.set_defaults(func=cmd_fit)

    pr = sub.add_parser("predict", help="two-stage prediction of masked test entries")
    pr.add_argument("--archive", required=True)
    pr.add_argument("--test", required=True)
    pr.add_argument("--truth")
    pr.add_argument("--seed", type=int)
    pr.add_argument("--stage2-sweeps", dest="stage2_sweeps", type=int,
                    help="burn-in draws per snapshot (default 50); stage-two draws are "
                         "exact, so these only advance the random stream")
    pr.add_argument("--stage2-samples", dest="stage2_samples", type=int,
                    help="retained draws per snapshot (default 10)")
    pr.add_argument("--snapshot-stride", dest="snapshot_stride", type=int)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    d = sub.add_parser("diagnose", help="convergence report; exit 1 on flags")
    d.add_argument("--archive", required=True)
    d.set_defaults(func=cmd_diagnose)

    r = sub.add_parser("report", help="tables from one or more archives")
    r.add_argument("paths", nargs="+")
    r.add_argument("--truth")
    r.add_argument("--allow-mixed", action="store_true")
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ValueError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
