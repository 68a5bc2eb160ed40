#!/usr/bin/env python3
"""Sampler-correctness harness at full strength.

Runs the one-transition invariance check (``transition_test``) and the
joint-distribution comparison (``joint_distribution_test``) for both
samplers at the small reference configuration, on four toys: fully
observed, with the masked entries of ``toy_masks``, with two tensors
sharing one third-mode group (``toy_grouped``), and grouped with masks.
The transition test runs rMTF in every lambda mode, the joint test in the
global one.  Every shipped bug fixture must fail each check on every toy.

Each check prints its own verdict at its per-check level (Bonferroni over
its statistics).  The run's verdict on the correct kernels is taken at one
family-wise level, FAMILY_LEVEL: Holm's step-down procedure over every
statistic of every correct-kernel check.  Judged one by one, the 24 checks
of a default run would each fail by chance with probability 0.005, so
about one clean run in nine would exit 1.  A fixture counts as detected
when its check fails at the per-check level.  Exits 1 when a correct
kernel is rejected at the family-wise level or a fixture is missed.

Example:
    python3 scripts/run_sampler_checks.py --n-iter 200000 --n-draws 50000
"""

import argparse
import sys

import numpy as np
from scipy.special import ndtr

from mtfact.diag import (
    buggy_transitions,
    joint_distribution_test,
    toy_collection,
    toy_grouped,
    toy_masks,
    transition_test,
)
from mtfact.dist import RngStream
from mtfact.mtf import HyperParams

LAMBDA_MODES = ("global", "per_component", "per_slab")
FAMILY_LEVEL = 0.005   # family-wise error rate of the correct-kernel checks of one run


def harness_hp(**kw):
    base = dict(k=2, a_pi=1.0, b_pi=1.0, a_alpha=2.0, b_alpha=2.0,
                a_tau=2.0, b_tau=1.0, a_beta=2.0, b_beta=2.0,
                a_lambda=2.0, b_lambda=2.0,
                burn_in=0, n_samples=1, thin=1, n_chains=1)
    base.update(kw)
    return HyperParams(**base)


def holm_adjusted(p: np.ndarray) -> np.ndarray:
    """Holm step-down adjusted p-values, in the order of ``p``: a hypothesis
    is rejected at family-wise level a when its adjusted p-value is <= a."""
    order = np.argsort(p)
    steps = (p.size - np.arange(p.size)) * p[order]
    out = np.empty(p.size)
    out[order] = np.minimum(1.0, np.maximum.accumulate(steps))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-iter", type=int, default=200_000,
                    help="iterations of each joint-distribution test")
    ap.add_argument("--n-draws", type=int, default=50_000,
                    help="independent draws of each transition test")
    ap.add_argument("--sizes", nargs=3, type=int, default=[4, 3, 2],
                    metavar=("N", "D", "L"))
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    sizes = tuple(args.sizes)
    failures = 0
    correct = []   # (label, z-scores) of every correct-kernel check
    configs = (("observed", toy_collection(sizes)),
               ("masked", toy_collection(sizes, toy_masks(sizes))),
               ("grouped", toy_grouped(sizes)),
               ("masked+grouped", toy_grouped(sizes, toy_masks(sizes, n_tensors=2))))
    # the chain-based joint test keeps the global lambda mode for rMTF: its
    # verdict also depends on how well the chain mixes
    checks = (("transition", transition_test, args.n_draws, LAMBDA_MODES),
              ("joint", joint_distribution_test, args.n_iter, ("global",)))
    for config, toy in configs:
        for check, test, n, modes in checks:
            for model, mode in [("mtf", "global")] + [("rmtf", m) for m in modes]:
                res = test(model, toy, harness_hp(lambda_mode=mode), n, RngStream(args.seed))
                label = f"{check}: {model} {mode}, {config}"
                print(f"[{label}] {res}", flush=True)
                correct.append((label, res.z_scores))
            for name, (model, transition) in buggy_transitions().items():
                res = test(model, toy, harness_hp(), n, RngStream(args.seed + 1),
                           transition=transition)
                verdict = "detected" if not res.passed else "MISSED"
                worst = max(abs(z) for z in res.z_scores)
                print(f"[{check}: fixture {name} on {model}, {config}] {verdict} "
                      f"(max |z| = {worst:.1f})", flush=True)
                failures += res.passed
    z = np.concatenate([zs for _, zs in correct])
    adjusted = np.split(holm_adjusted(2.0 * ndtr(-np.abs(z))),
                        np.cumsum([zs.size for _, zs in correct])[:-1])
    rejected = [(label, a.min()) for (label, _), a in zip(correct, adjusted)
                if a.min() <= FAMILY_LEVEL]
    print(f"correct kernels: {len(correct)} checks, {z.size} statistics, family-wise "
          f"level {FAMILY_LEVEL} (Holm over every statistic): {len(rejected)} rejected")
    for label, a in rejected:
        print(f"  REJECTED [{label}] (Holm-adjusted p = {a:.3g})")
    failures += len(rejected)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
