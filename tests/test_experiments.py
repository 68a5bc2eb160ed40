from dataclasses import fields, replace

import numpy as np
import pytest

from mtfact.core import apply_transform, unfold_collection
from mtfact.dist import RngStream
from mtfact.experiments import continuum_experiment, structure_experiment
from mtfact.fitting import fit_model
from mtfact.mtf import HyperParams, component_structure
from mtfact.predict import PredictionTask, match_components, two_stage_predict
from mtfact.simgen import SimSpec, generate

SPEC = SimSpec(scenario="continuum", seed=4, n=12, d1=5, d2=6, l=4, k_shared=1,
               k_matrix=1, k_tensor=1, n_test=9)
HP = HyperParams(k=3, burn_in=10, n_samples=4, thin=2, n_chains=1)
STAGE2 = (25, 5, 2)


def _reference_scores(spec, model, rep, preprocess):
    """(rmse, null rmse) of one repetition, scored inline as the experiment
    used to: each model's own unfold and transform, the means mapped back
    on every entry, squared errors and squared truths summed per view."""
    train, test, truth = generate(replace(spec, seed=spec.seed + rep),
                                  RngStream(spec.seed + rep))
    chains, transform, _ = fit_model(train, HP, model=model, seed=spec.seed + 7919 * rep,
                                     preprocess=preprocess)
    full = truth.test_full
    if model == "gfa":
        test, full = unfold_collection(test)[0], unfold_collection(full)[0]
    if transform is not None:
        test = apply_transform(transform, test)
    result = two_stage_predict(PredictionTask(chains, test, *STAGE2),
                               RngStream(spec.seed + rep, 10_000))
    se, n_t, null_se = 0.0, 0, 0.0
    for t, tgt in enumerate(result.targets):
        if not tgt.any():
            continue
        pred = result.mean[t]
        if transform is not None:
            pred = pred * transform.scales[t][None] + transform.centers[t][None]
        tv = full.views[t].values[tgt]
        se += float(np.sum((pred[tgt] - tv) ** 2))
        null_se += float(np.sum(tv ** 2))
        n_t += tv.size
    return float(np.sqrt(se / n_t)), float(np.sqrt(null_se / n_t))


@pytest.mark.parametrize("preprocess", [False, True])
def test_continuum_scores_match_inline_reference(preprocess):
    models = ("mtf", "rmtf", "gfa")
    reps = continuum_experiment(SPEC, HP, models, reps=1, rhos=(0.0, 1.0),
                                stage2=STAGE2, preprocess=preprocess)
    assert [(r.rho, r.model, r.rep) for r in reps] == \
        [(rho, m, 0) for rho in (0.0, 1.0) for m in models]
    for r in reps:
        want = _reference_scores(replace(SPEC, rho=r.rho), r.model, r.rep, preprocess)
        assert (r.rmse, r.null_rmse) == want


@pytest.mark.parametrize("model", ["mtf", "rmtf", "gfa"])
def test_structure_matches_direct_fit(model):
    spec = SimSpec(scenario="cp", seed=3, n=20, d1=6, d2=7, l=4, k_shared=1, k_matrix=1,
                   k_tensor=2)
    [rep] = structure_experiment(spec, HP, model, reps=1)
    collection, truth = generate(spec, RngStream(spec.seed))
    chains, _, _ = fit_model(collection, HP, model=model, seed=spec.seed, preprocess=False)
    assert (rep.shared, rep.specific, rep.empty) == component_structure(chains).counts
    cols = np.nonzero((truth.H[1] > 0) & (truth.H[0] == 0))[0]
    assert rep.match_corr is not None
    assert np.array_equal(rep.match_corr,
                          match_components(truth.V[1][:, cols].T, chains, view=1))


def _assert_same_chain(a, b):
    assert (a.chain_id, a.sweeps, a.origins) == (b.chain_id, b.sweeps, b.origins)
    assert np.array_equal(a.traces, b.traces)
    for sa, sb in zip(a.states, b.states, strict=True):
        for f in fields(sa):
            x, y = getattr(sa, f.name), getattr(sb, f.name)
            if isinstance(x, list):
                assert all(np.array_equal(p, q) for p, q in zip(x, y, strict=True)), f.name
            else:
                assert np.array_equal(x, y), f.name


class TestFitModel:
    def test_gfa_chains_in_worker_processes_match_in_process(self):
        # both carry the unfold map, and stream i is chain i
        train, _, _ = generate(SPEC, RngStream(SPEC.seed))
        hp = replace(HP, n_chains=2)
        serial, _, _ = fit_model(train, hp, model="gfa", seed=8, jobs=1)
        pooled, _, _ = fit_model(train, hp, model="gfa", seed=8, jobs=2)
        origins = unfold_collection(train)[1]
        assert [c.chain_id for c in pooled] == [0, 1]
        assert all(c.origins == origins for c in serial + pooled)
        for a, b in zip(serial, pooled, strict=True):
            _assert_same_chain(a, b)

    @pytest.mark.parametrize("model", ["mtf", "rmtf"])
    def test_chains_on_views_as_given_have_no_origins(self, model):
        train, _, _ = generate(SPEC, RngStream(SPEC.seed))
        chains, _, _ = fit_model(train, replace(HP, n_chains=2), model=model, seed=9)
        assert [c.chain_id for c in chains] == [0, 1]
        assert all(c.origins is None for c in chains)
