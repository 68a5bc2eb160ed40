"""Command-line workflows: simulate -> fit -> predict -> diagnose -> report.

Arrays are ``.npy`` files named by JSON manifests: collections (version 2),
posterior archives (``run_manifest.json``, version 3) and truth arrays
(``arrays.json``); traces and prediction reports are CSV tables.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage or validation error.
Every command is deterministic given --seed.  A JSON --config file may
supply any long flag of any command (key = flag name with dashes as
underscores, value of the flag's type); another key or value is a usage
error.  Each option is taken from the first place that sets it: the
command-line flag, the config file, the --preset (fit only), then the
library's default (the fields of ``SimSpec``, ``HyperParams`` and
``PredictionTask``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import io as mio
from .core import validate_collection
from .diag import summarize_run
from .dist import RngStream
from .fitting import MODELS, fit_model
from .mtf import HyperParams, component_structure
from .predict import PredictionTask, match_tensor_specific, predict_collection
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


def _load_config(parser, args) -> dict:
    """The --config file's options.  Each key must name a long flag of some
    command (one file may serve the whole pipeline) and hold a value that
    flag would give, checked against the running command's flag if it has
    one; anything else is a usage error."""
    if not args.config:
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    commands = next(a for a in parser._actions if a.dest == "command").choices
    flags = {a.dest: a for c in (*commands.values(), commands[args.command])
             for a in c._actions if a.option_strings and a.dest != "help"}
    for key, value in cfg.items():
        a = flags.get(key)
        if a is None:
            raise CliError(f"config key {key!r} names no long flag of any command")
        kinds = {int: (int,), float: (int, float), None: (bool,) if a.nargs == 0 else (str,)}
        if not (value in a.choices if a.choices else type(value) in kinds[a.type]):
            raise CliError(f"config key {key!r}: {value!r} is not a {a.option_strings[0]} value")
    return cfg


def _merged(args, keys) -> dict:
    """The options among ``keys`` that are set: the config file's, with the
    command-line flags over them (a flag left at None is unset)."""
    opts = {k: v for k, v in args.config.items() if k in keys}
    opts.update((k, getattr(args, k)) for k in keys if getattr(args, k, None) is not None)
    return opts


def _renamed(opts: dict, names: dict) -> dict:
    """The options named in ``names``, under the library's name for each."""
    return {names[k]: v for k, v in opts.items() if k in names}


def _count(name: str, value) -> int:
    """A count (``--reps``, ``--jobs``, ``MTFACT_JOBS``) as an integer >= 1;
    anything else is a usage error naming ``name``."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise CliError(f"{name} must be an integer >= 1, got {value!r}")
    return n


# ---------------------------------------------------------------------------
# simulate


def _write_truth(outdir, truth):
    arrays = {"z": truth.Z, "u": truth.U, "h": truth.H, "v_matrix": truth.V[0],
              "v_tensor": truth.V[1], "w_tensor": truth.W_tensor,
              "slab_curves": truth.slab_curves, "z_test": truth.Z_test}
    mio.write_arrays(os.path.join(outdir, "truth"),
                     {name: a for name, a in arrays.items() if a is not None})


def _simulate_once(spec: SimSpec, outdir: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    train, *test, truth = generate(spec)  # continuum scenarios add a test set
    sets = {"train": train}
    if test:
        sets.update(test=test[0], test_full=truth.test_full)
    for name, c in sets.items():
        mio.write_collection(os.path.join(outdir, name), c)
    _write_truth(outdir, truth)
    mio._json_dump(os.path.join(outdir, "sim_meta.json"), asdict(spec))
    dims = ", ".join(f"({v.shape[0]},{v.shape[1]},{v.shape[2]})" for v in train.views)
    return f"{spec.scenario}: {train.n_views} views {dims} -> {outdir}"


def cmd_simulate(args) -> int:
    opts = _merged(args, [f.name for f in fields(SimSpec)] + ["reps"])
    reps = _count("--reps", opts.pop("reps", 1))
    spec = SimSpec(**opts)
    if reps == 1:
        print(_simulate_once(spec, args.out))
    else:
        for r in range(reps):
            print(_simulate_once(replace(spec, seed=spec.seed + r),
                                 os.path.join(args.out, f"rep_{r:03d}")))
    return 0


# ---------------------------------------------------------------------------
# fit


FIT_DEFAULTS = dict(model="mtf", k=15, seed=0, preset="default", jobs=None, reps=1,
                    no_preprocess=False)
# fit flags that set a HyperParams field, by that field's name
HP_FLAGS = {"burnin": "burn_in", "samples": "n_samples", "chains": "n_chains", "thin": "thin",
            "lambda_mode": "lambda_mode", "b_tau": "b_tau"}


def _fit_once(opts, hp: HyperParams, indir, outdir) -> str:
    c = mio.read_collection(os.path.join(indir, "train")
                            if os.path.isdir(os.path.join(indir, "train")) else indir)
    problems = validate_collection(c)
    if problems:
        raise CliError("invalid collection: " + "; ".join(problems))
    chains, transform, _ = fit_model(
        c, hp, model=opts["model"], seed=opts["seed"],
        preprocess=not opts["no_preprocess"], jobs=opts["jobs"],
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
    set_opts = _merged(args, [*FIT_DEFAULTS, *HP_FLAGS])
    opts = {**FIT_DEFAULTS, **set_opts}
    hp = HyperParams(k=opts["k"], **{**PRESETS[opts["preset"]], **_renamed(set_opts, HP_FLAGS)})
    reps = _count("--reps", opts["reps"])
    opts["jobs"] = _count("--jobs", opts["jobs"]) if opts["jobs"] is not None else \
        _count("MTFACT_JOBS", os.environ.get("MTFACT_JOBS", "1"))
    rep_dirs = sorted(glob.glob(os.path.join(args.input, "rep_*")))
    if reps > len(rep_dirs) > 0:
        raise CliError(f"--reps {reps}, but {args.input} holds {len(rep_dirs)} rep_* directories")
    if reps > 1 or rep_dirs:
        sources = (rep_dirs[:reps] if reps > 1 else rep_dirs) or [args.input] * reps
        for r, src in enumerate(sources):
            print(_fit_once({**opts, "seed": opts["seed"] + r}, hp, src,
                            os.path.join(args.output, f"rep_{r:03d}")))
    else:
        print(_fit_once(opts, hp, args.input, args.output))
    return 0


# ---------------------------------------------------------------------------
# predict


# predict flags that set a PredictionTask field, by that field's name
TASK_FLAGS = {"stage2_sweeps": "n_stage2_sweeps", "stage2_samples": "n_stage2_samples",
          "snapshot_stride": "snapshot_stride"}


def cmd_predict(args) -> int:
    opts = _merged(args, ["seed", *TASK_FLAGS])
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
    task = PredictionTask(chains, test, **_renamed(opts, TASK_FLAGS))
    result, truth, err = predict_collection(task, transform,
                                            RngStream(opts.get("seed", 0), 10_000), truth)
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
    truth = mio.read_arrays(args.truth) if args.truth else None
    rows, models, matches = [], set(), []
    for path in archives:
        chains, _, manifest = mio.read_archive(path)
        model = manifest.get("requested_model", manifest["model"])
        models.add(model)
        sh, spec_counts, emp = component_structure(chains).counts
        rows.append([path, model, sh, *spec_counts, emp])
        if truth is not None:
            cors = match_tensor_specific(truth["h"], truth["v_tensor"], chains)
            matches.append(f"{path}," + ("" if cors is None else f"{np.mean(cors):.6f}"))
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

    if truth is not None:
        lines += ["", "# component match correlations (tensor-specific truth)",
                  "archive,mean_abs_corr", *matches]

    pred_files = []
    for p in args.paths:
        pred_files += sorted(glob.glob(os.path.join(p, "**", "pred_*.csv"),
                                       recursive=True))
    if pred_files:
        lines += ["", "# prediction error", "rho,model,rmse,file"]
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
    coll = "a collection directory (a manifest.json and .npy arrays)"
    p.add_argument("--config", help="JSON file supplying any flag defaults")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="generate synthetic collections and their truth")
    s.add_argument("--scenario", choices=["cp", "relaxed_cp", "continuum"])
    for fld in fields(SimSpec)[1:]:  # one flag per numeric SimSpec field, e.g. --k-shared
        s.add_argument("--" + fld.name.replace("_", "-"), type=float if fld.type == "float" else int)
    s.add_argument("--reps", type=int)
    s.add_argument("--out", required=True,
                   help="directory for the collections train/ (continuum: also test/ and "
                        "test_full/), truth/ (arrays.json and .npy) and sim_meta.json; "
                        "with --reps, one rep_NNN/ of these each")
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
    f.add_argument("input", help=f"{coll}, or a simulate output holding train/ or rep_*/")
    f.add_argument("output")
    f.set_defaults(func=cmd_fit)

    pr = sub.add_parser("predict", help="two-stage prediction of masked test entries")
    pr.add_argument("--archive", required=True)
    pr.add_argument("--test", required=True, help=f"{coll}; its masked entries are predicted")
    pr.add_argument("--truth", help=f"{coll} holding the true values of those entries")
    pr.add_argument("--seed", type=int)
    pr.add_argument("--stage2-sweeps", dest="stage2_sweeps", type=int,
                    help=f"burn-in draws per snapshot (default "
                         f"{PredictionTask.n_stage2_sweeps}); stage-two draws are exact, "
                         "so these only advance the random stream")
    pr.add_argument("--stage2-samples", dest="stage2_samples", type=int,
                    help=f"retained draws per snapshot (default "
                         f"{PredictionTask.n_stage2_samples})")
    pr.add_argument("--snapshot-stride", dest="snapshot_stride", type=int)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    d = sub.add_parser("diagnose", help="convergence report; exit 1 on flags")
    d.add_argument("--archive", required=True)
    d.set_defaults(func=cmd_diagnose)

    r = sub.add_parser("report", help="tables from one or more archives")
    r.add_argument("paths", nargs="+")
    r.add_argument("--truth", help="a simulate truth/ directory: adds each archive's match "
                                   "correlation with the tensor-specific components")
    r.add_argument("--allow-mixed", action="store_true")
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config = _load_config(parser, args)
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
