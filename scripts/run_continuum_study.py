#!/usr/bin/env python3
"""Prediction error along the bilinear/trilinear continuum.

Generates small training sets plus held-out test samples whose first tensor
slab is masked, fits each model, predicts the missing slab with the
two-stage scheme, and writes per-repetition RMSE rows (original data units:
predicting the truth scores 1, predicting zero scores 3).

Example:
    python3 scripts/run_continuum_study.py --rhos 0 0.25 0.5 0.75 1.0 \
        --models mtf rmtf gfa --reps 30 --jobs 2 --out results/continuum.csv
"""

import argparse
import csv
import os
import sys

import numpy as np

from mtfact.experiments import continuum_experiment
from mtfact.mtf import HyperParams
from mtfact.simgen import SimSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rhos", nargs="+", type=float,
                    default=[0.0, 0.25, 0.5, 0.75, 1.0])
    ap.add_argument("--models", nargs="+", default=["mtf", "rmtf", "gfa"],
                    choices=["mtf", "rmtf", "gfa"])
    ap.add_argument("--reps", type=int, default=30)
    ap.add_argument("--k", type=int, default=15)
    ap.add_argument("--burnin", type=int, default=200)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--thin", type=int, default=5)
    ap.add_argument("--seed", type=int, default=300)
    ap.add_argument("--stage2", nargs=3, type=int, default=[25, 5, 2],
                    metavar=("SWEEPS", "SAMPLES", "STRIDE"),
                    help="stage-two burn-in draws (exact draws: they only advance "
                         "the random stream), retained draws per snapshot and "
                         "snapshot stride")
    ap.add_argument("--jobs", type=int,
                    default=int(os.environ.get("MTFACT_JOBS", "1")))
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    spec = SimSpec(scenario="continuum", seed=args.seed)
    hp = HyperParams(k=args.k, burn_in=args.burnin, n_samples=args.samples,
                     thin=args.thin, n_chains=1)
    results = continuum_experiment(spec, hp, args.models, reps=args.reps,
                                   rhos=args.rhos, jobs=args.jobs,
                                   stage2=tuple(args.stage2))
    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    w = csv.writer(out)
    w.writerow(["rho", "model", "rep", "rmse", "null_rmse"])
    for r in results:
        w.writerow([r.rho, r.model, r.rep, f"{r.rmse:.6f}", f"{r.null_rmse:.6f}"])
    if out is not sys.stdout:
        out.close()
    for rho in args.rhos:
        line = [f"rho={rho:.2f}"]
        for model in args.models:
            vals = [r.rmse for r in results if r.model == model and r.rho == rho]
            line.append(f"{model} {np.mean(vals):.3f}")
        print("  ".join(line), file=sys.stderr)


if __name__ == "__main__":
    main()
