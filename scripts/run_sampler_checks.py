#!/usr/bin/env python3
"""Sampler-correctness harness at full strength.

Runs the joint-distribution comparison for both samplers at the small
reference configuration, fully observed, with the masked entries of
``toy_masks``, and with two tensors sharing one third-mode group
(``toy_grouped``), and confirms every shipped bug fixture fails it in each.

Example:
    python3 scripts/run_sampler_checks.py --n-iter 200000
"""

import argparse
import sys

from mtfact.diag import (
    buggy_transitions,
    joint_distribution_test,
    toy_collection,
    toy_grouped,
    toy_masks,
)
from mtfact.dist import RngStream
from mtfact.mtf import HyperParams


def harness_hp(**kw):
    base = dict(k=2, a_pi=1.0, b_pi=1.0, a_alpha=2.0, b_alpha=2.0,
                a_tau=2.0, b_tau=1.0, a_beta=2.0, b_beta=2.0,
                a_lambda=2.0, b_lambda=2.0,
                burn_in=0, n_samples=1, thin=1, n_chains=1)
    base.update(kw)
    return HyperParams(**base)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-iter", type=int, default=200_000)
    ap.add_argument("--sizes", nargs=3, type=int, default=[4, 3, 2],
                    metavar=("N", "D", "L"))
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    hp = harness_hp()
    sizes = tuple(args.sizes)
    failures = 0
    configs = (("observed", toy_collection(sizes)),
               ("masked", toy_collection(sizes, toy_masks(sizes))),
               ("grouped", toy_grouped(sizes)))
    for config, toy in configs:
        for model in ("mtf", "rmtf"):
            res = joint_distribution_test(model, toy, hp, args.n_iter, RngStream(args.seed))
            print(f"[{model}, {config}] {res}")
            failures += not res.passed
        for name, (model, transition) in buggy_transitions().items():
            res = joint_distribution_test(model, toy, hp, args.n_iter,
                                          RngStream(args.seed + 1), transition=transition)
            verdict = "detected" if not res.passed else "MISSED"
            worst = max(abs(z) for z in res.z_scores)
            print(f"[fixture {name} on {model}, {config}] {verdict} "
                  f"(max |z| = {worst:.1f})")
            failures += res.passed
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
