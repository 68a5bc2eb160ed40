"""Repeatable desk-scale experiment loops behind scripts/ and the acceptance
suite: component-structure recovery over many generated data sets, and
prediction error along the bilinear/trilinear continuum."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dist import RngStream
from .fitting import fit_model, pmap
from .mtf import HyperParams, component_structure
from .predict import PredictionTask, match_tensor_specific, predict_collection, target_rmse
from .simgen import SimSpec, generate

__all__ = [
    "StructureRep",
    "structure_experiment",
    "continuum_experiment",
    "ContinuumRep",
]


@dataclass
class StructureRep:
    """Component-structure result of one repetition."""

    shared: int
    specific: tuple[int, ...]
    empty: int
    match_corr: np.ndarray | None     # per tensor-specific true component, if any


def _structure_one(payload) -> StructureRep:
    spec, hp, model, rep, preprocess = payload
    rng = RngStream(spec.seed + rep)
    collection, truth = generate(replace(spec, seed=spec.seed + rep), rng)
    chains, _, _ = fit_model(collection, hp, model=model,
                             seed=spec.seed + 7919 * rep, preprocess=preprocess)
    s = component_structure(chains)
    return StructureRep(s.n_shared, tuple(int(x) for x in s.n_specific), s.n_empty,
                        match_tensor_specific(truth.H, truth.V[1], chains))


def structure_experiment(spec: SimSpec, hp: HyperParams, model: str, reps: int,
                         jobs: int = 1, preprocess: bool = False) -> list[StructureRep]:
    """Regenerate data and refit `reps` times; collect structure counts and
    the match correlations of the tensor-specific true components.

    The generators emit centered, variance-controlled data with homoscedastic
    noise, so the recovery studies fit it raw by default: per-fiber
    standardization would rescale each feature by its own signal content and
    distort the loading shapes being scored.
    """
    payloads = [(spec, hp, model, r, preprocess) for r in range(reps)]
    return pmap(_structure_one, payloads, jobs)


@dataclass
class ContinuumRep:
    rho: float
    model: str
    rep: int
    rmse: float
    null_rmse: float


def _continuum_one(payload) -> ContinuumRep:
    spec, hp, model, rep, stage2, preprocess = payload
    rng = RngStream(spec.seed + rep)
    train, test, truth = generate(replace(spec, seed=spec.seed + rep), rng)
    chains, transform, _ = fit_model(train, hp, model=model,
                                     seed=spec.seed + 7919 * rep,
                                     preprocess=preprocess)
    result, full, err = predict_collection(PredictionTask(chains, test, *stage2), transform,
                                           RngStream(spec.seed + rep, 10_000),
                                           truth.test_full)
    null = target_rmse([np.zeros_like(m) for m in result.mean], full, result.targets)
    return ContinuumRep(spec.rho, model, rep, err, null)


def continuum_experiment(spec: SimSpec, hp: HyperParams, models, reps: int,
                         rhos, jobs: int = 1, stage2=(25, 5, 2),
                         preprocess: bool = False) -> list[ContinuumRep]:
    """Prediction RMSE per (rho, model, repetition) on held-out slab targets.

    ``stage2`` is (burn-in sweeps, retained samples, snapshot stride).
    Stage-two draws are exact, so the burn-in only advances the random
    stream; the retained samples and the stride set the cost, and the
    trimmed default still averages hundreds of predictive draws per entry.
    As in the structure study the generator's output is fitted raw: with 15
    training samples, per-fiber standardization would inject large scale
    noise.
    """
    payloads = [
        ((replace(spec, rho=rho)), hp, model, rep, stage2, preprocess)
        for rho in rhos for model in models for rep in range(reps)
    ]
    return pmap(_continuum_one, payloads, jobs)
