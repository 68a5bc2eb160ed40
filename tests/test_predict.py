import numpy as np
import pytest

from mtfact.core import Collection, MaskedTensor3, Tensor3
from mtfact.dist import RngStream
from mtfact.mtf import HyperParams, run_chain
from mtfact.predict import (
    PredictionTask,
    match_components,
    mse,
    rmse,
    two_stage_predict,
)
from mtfact.rmtf import RmtfState

from conftest import make_collection


def small_hp(**kw):
    base = dict(k=2, a_alpha=2.0, b_alpha=2.0, a_tau=2.0, b_tau=0.5,
                burn_in=20, n_samples=5, thin=2, n_chains=1)
    base.update(kw)
    return HyperParams(**base)


class TestErrors:
    def test_exact_prediction_zero(self, rng):
        x = rng.standard_normal((4, 5))
        m = np.ones_like(x, dtype=bool)
        assert rmse(x, x, m) == 0.0

    def test_constant_offset(self, rng):
        x = rng.standard_normal((4, 5))
        m = rng.random(x.shape) > 0.4
        assert rmse(x + 0.7, x, m) == pytest.approx(0.7)
        assert mse(x + 0.7, x, m) == pytest.approx(0.49)

    def test_against_two_line_recomputation(self, rng):
        pred = rng.standard_normal((6, 7))
        truth = rng.standard_normal((6, 7))
        m = rng.random((6, 7)) > 0.5
        want = float(np.mean((pred[m] - truth[m]) ** 2))
        assert mse(pred, truth, m) == pytest.approx(want, rel=1e-12)
        assert rmse(pred, truth, m) == pytest.approx(np.sqrt(want), rel=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mse(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mse(np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 3), bool))


def _rank1_problem(seed=0, n_train=50, n_test=25, d=6, l=4, noise=0.0):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(d)
    u = gen.standard_normal(l)
    z_tr, z_te = gen.standard_normal(n_train), gen.standard_normal(n_test)

    def build(z):
        x = np.einsum("n,d,l->ndl", z, v, u)
        if noise:
            x = x + noise * gen.standard_normal(x.shape)
        return x

    train = Collection((MaskedTensor3.fully_observed(build(z_tr)),))
    x_te = build(z_te)
    mask = np.ones_like(x_te, dtype=bool)
    mask[:, :, 0] = False
    test = Collection((MaskedTensor3(Tensor3(x_te), mask),))
    return train, test, x_te


class TestTwoStagePredict:
    @pytest.mark.parametrize("field,value", [("n_stage2_samples", 0), ("snapshot_stride", 0),
                                             ("snapshot_stride", -1), ("n_stage2_sweeps", -3)])
    def test_task_settings_validated(self, field, value):
        _, test, _ = _rank1_problem(seed=11)
        with pytest.raises(ValueError, match=f"{field} >= "):
            PredictionTask([], test, **{field: value})

    def test_noise_free_rank1_recovery(self):
        train, test, x_te = _rank1_problem()
        samples = run_chain(train, small_hp(), RngStream(1))
        result = two_stage_predict(PredictionTask(samples, test), RngStream(2))
        tgt = result.targets[0]
        assert rmse(result.mean[0], x_te, tgt) < 0.05

    def test_all_inputs_masked_gives_prior_mean(self):
        train, test, x_te = _rank1_problem(seed=3, noise=0.5)
        samples = run_chain(train, small_hp(), RngStream(3))
        all_masked = Collection((
            MaskedTensor3(test.views[0].tensor,
                          np.zeros_like(test.views[0].observed)),
        ))
        result = two_stage_predict(PredictionTask(samples, all_masked), RngStream(4))
        tgt = result.targets[0]
        assert np.abs(result.mean[0][tgt]).mean() < 0.3
        total_var = float(np.mean(x_te ** 2))
        assert rmse(result.mean[0], x_te, tgt) == pytest.approx(
            np.sqrt(total_var), rel=0.25)

    def test_empty_target_set_rejected(self):
        train, test, _ = _rank1_problem(seed=5)
        samples = run_chain(train, small_hp(), RngStream(5))
        with pytest.raises(ValueError, match="no masked entries"):
            two_stage_predict(PredictionTask(samples, train), RngStream(6))

    def test_shape_mismatch_rejected(self):
        train, test, _ = _rank1_problem(seed=6)
        samples = run_chain(train, small_hp(), RngStream(7))
        other = make_collection(np.random.default_rng(0))
        with pytest.raises(ValueError):
            two_stage_predict(PredictionTask(samples, other), RngStream(8))

    @pytest.mark.parametrize("c", [2.0, 3.0])
    def test_gauge_invariance(self, c):
        # rescaling snapshots along the factorization's null direction
        # (z_k c, v_k / c, u_k c) leaves predictions unchanged: prediction
        # depends only on the per-slab loading products
        train, test, _ = _rank1_problem(seed=7, noise=0.3)
        samples = run_chain(train, small_hp(), RngStream(9))
        base = two_stage_predict(PredictionTask(samples, test), RngStream(10))
        for st in samples.states:
            st.Z[:, 0] *= c
            st.V[0][:, 0] /= c
            st.U[0][:, 0] *= c
        scaled = two_stage_predict(PredictionTask(samples, test), RngStream(10))
        np.testing.assert_allclose(scaled.mean[0], base.mean[0], atol=1e-10)
        np.testing.assert_allclose(scaled.std[0], base.std[0], atol=1e-10)

    def test_posterior_std_reported(self):
        train, test, _ = _rank1_problem(seed=8, noise=0.4)
        samples = run_chain(train, small_hp(), RngStream(11))
        result = two_stage_predict(PredictionTask(samples, test), RngStream(12))
        tgt = result.targets[0]
        assert np.all(result.std[0][tgt] > 0)

    def test_more_samples_reduce_monte_carlo_std(self):
        train, test, _ = _rank1_problem(seed=9, noise=0.5)
        samples = run_chain(train, small_hp(), RngStream(13))
        spreads = []
        for n_s2 in (1, 4, 16):
            preds = []
            for rep in range(12):
                task = PredictionTask(samples, test, n_stage2_sweeps=3,
                                      n_stage2_samples=n_s2)
                r = two_stage_predict(task, RngStream(100 + rep, n_s2))
                preds.append(r.mean[0][r.targets[0]])
            spreads.append(np.std(np.stack(preds), axis=0).mean())
        assert spreads[0] > spreads[1] > spreads[2]

    def test_relaxed_with_pinned_slabs_matches_strict(self):
        # W frozen at exactly u v and matched noise precisions: the relaxed
        # model's stage two is the strict model's, prediction for prediction
        train, test, _ = _rank1_problem(seed=10, noise=0.2)
        samples = run_chain(train, small_hp(), RngStream(14))
        r_states = []
        for st in samples.states:
            u = st.u_for_view(0)
            w = st.V[0][None, :, :] * u[:, None, :]
            r_states.append(RmtfState(
                Z=st.Z.copy(), W=[w], V=[np.zeros_like(st.V[0])],
                U=[u.copy()], H=[np.tile(st.H[0], (u.shape[0], 1))],
                pi=st.pi.copy(), alpha=[None], beta=[np.ones_like(st.V[0])],
                lam=np.asarray(1e30),
                tau=[np.full(u.shape[0], st.tau[0])],
                group_of=dict(st.group_of),
            ))
        relaxed = type(samples)(
            model="rmtf", states=r_states, sweeps=samples.sweeps,
            chain_id=0, trace_names=samples.trace_names, traces=samples.traces,
            hp=samples.hp, view_names=samples.view_names,
        )
        a = two_stage_predict(PredictionTask(samples, test), RngStream(15))
        b = two_stage_predict(PredictionTask(relaxed, test), RngStream(15))
        np.testing.assert_allclose(b.mean[0], a.mean[0], atol=1e-6)


class TestMatchComponents:
    def _samples(self, seed=0, n=30, d=8):
        gen = np.random.default_rng(seed)
        c = Collection((MaskedTensor3.fully_observed(gen.standard_normal((n, d, 1))),))
        return run_chain(c, small_hp(k=3, burn_in=2, n_samples=3, thin=1),
                         RngStream(seed))

    def test_exact_column_match(self):
        samples = self._samples()
        v = np.linspace(-1, 1, 8)
        for st in samples.states:
            st.V[0][:, 1] = v
        out = match_components([v], samples, view=0)
        assert out[0] == pytest.approx(1.0)

    def test_orthogonal_vector_low(self):
        gen = np.random.default_rng(1)
        samples = self._samples(seed=1, d=200)
        probe = gen.standard_normal(200)
        out = match_components([probe], samples, view=0)
        assert out[0] < 0.35

    def test_zero_variance_rejected(self):
        samples = self._samples(seed=2)
        with pytest.raises(ValueError, match="zero variance"):
            match_components([np.ones(8)], samples, view=0)

    def test_sign_flip_handled(self):
        samples = self._samples(seed=3)
        v = np.linspace(-1, 1, 8)
        for st in samples.states:
            st.V[0][:, 0] = -v
        out = match_components([v], samples, view=0)
        assert out[0] == pytest.approx(1.0)
