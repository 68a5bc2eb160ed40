from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mtfact.core import Collection, MaskedTensor3, Tensor3, apply_transform
from mtfact.diag import toy_grouped, toy_masks
from mtfact.dist import RngStream, _as_gen, cholesky_stack
from mtfact.fitting import fit_model
from mtfact.mtf import HyperParams, run_chain, z_conditional
from mtfact.predict import (
    PredictionTask,
    _check_compat,
    match_components,
    mse,
    predict_collection,
    rmse,
    two_stage_predict,
)
from mtfact.rmtf import RmtfState, rmtf_run_chain

from conftest import fully_observed, make_collection, make_masked_rows_collection


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


def _reference_draw(h, chol, gen):
    """Rows of h drawn from N(P^-1 h, P^-1), P = L L^T, as L^-T L^-1 h + L^-T eps
    by scipy's triangular solves, eps one standard normal block of h's shape."""
    mean = solve_triangular(chol, solve_triangular(chol, h.T, lower=True), lower=True,
                            trans="T").T
    return mean + solve_triangular(chol, gen.standard_normal(h.shape).T, lower=True,
                                   trans="T").T


def _reference_predict(task: PredictionTask, rng):
    """The earlier stage-two loop, kept as the reference: every snapshot
    draws z from its frozen conditional n_stage2_sweeps + n_stage2_samples
    times, solving the mean anew each time, and keeps the last draws."""
    gen = _as_gen(rng)
    chains, test = task.chains, task.test
    _check_compat(chains[0].states[0], test)
    n = test.n_samples
    xs, obs, tgt_idx = [], [], []
    for v in test.views:
        ob = np.ascontiguousarray(v.observed.transpose(0, 2, 1), dtype=np.float64)
        xs.append(np.ascontiguousarray(v.values.transpose(0, 2, 1)) * ob)
        obs.append(None if ob.all() else ob.reshape(n, -1))
        tgt_idx.append(np.nonzero(~v.observed.transpose(0, 2, 1)))
    masked_views = [t for t, ob in enumerate(obs) if ob is not None]
    patterns, inverse = np.unique(np.concatenate([obs[t] for t in masked_views], axis=1),
                                  axis=0, return_inverse=True)
    row_groups = [np.nonzero(inverse == p)[0] for p in range(patterns.shape[0])]
    offs = np.cumsum([0] + [obs[t].shape[1] for t in masked_views])
    for j, t in enumerate(masked_views):
        obs[t] = patterns[:, offs[j]:offs[j + 1]]
    acc = [np.zeros(idx[0].size) for idx in tgt_idx]
    acc_sq = [np.zeros(idx[0].size) for idx in tgt_idx]
    n_draws = 0
    k = chains[0].states[0].k
    for samples in chains:
        for state in samples.states[::task.snapshot_stride]:
            frozen = [state.slab_loadings(t) for t in range(len(xs))]
            lin, precs = z_conditional(
                [(x, rows, *wt) for x, rows, wt in zip(xs, obs, frozen)], k)
            chols = cholesky_stack(precs)
            z = np.empty((n, k))
            for sweep in range(task.n_stage2_sweeps + task.n_stage2_samples):
                for p, rows in enumerate(row_groups):
                    z[rows] = _reference_draw(lin[rows], chols[p], gen)
                if sweep < task.n_stage2_sweeps:
                    continue
                for t, idx in enumerate(tgt_idx):
                    if idx[0].size == 0:
                        continue
                    w, tau_l = frozen[t]
                    ni, li, di = idx
                    mean_vals = np.einsum("jk,jk->j", z[ni], w[li, di, :])
                    draws = mean_vals + gen.standard_normal(ni.size) / np.sqrt(tau_l[li])
                    acc[t] += draws
                    acc_sq[t] += draws ** 2
                n_draws += 1
    means, stds = [], []
    for t, v in enumerate(test.views):
        m = acc[t] / n_draws
        var = np.maximum(acc_sq[t] / n_draws - m ** 2, 0.0)
        mean_arr, std_arr = np.zeros(v.shape), np.zeros(v.shape)
        ni, li, di = tgt_idx[t]
        mean_arr[ni, di, li] = m
        std_arr[ni, di, li] = np.sqrt(var)
        means.append(mean_arr)
        stds.append(std_arr)
    return means, stds, n_draws


def _randomized(c: Collection, gen) -> Collection:
    """``c`` with standard normal values and the same masks and groups."""
    return Collection(tuple(MaskedTensor3(Tensor3(gen.standard_normal(v.shape)), v.observed)
                            for v in c.views), c.third_mode_groups, c.names)


def _reference_cases():
    """name -> (chains, test collection, task settings); the test sets hold
    one missingness pattern (rank1) or several (the others)."""
    gen = np.random.default_rng(41)
    rank1_train, rank1_test, _ = _rank1_problem(seed=12, noise=0.3)
    rows_train = make_masked_rows_collection(gen, n=20)
    rows_train = Collection(tuple(MaskedTensor3.fully_observed(v.values)
                                  for v in rows_train.views), (), rows_train.names)
    rows_test = make_masked_rows_collection(gen, n=11)
    sizes = (10, 3, 2)
    grouped_train = _randomized(toy_grouped(sizes), gen)
    grouped_test = _randomized(toy_grouped(sizes, toy_masks(sizes, n_tensors=2)), gen)
    hp = small_hp(k=3, n_samples=4)
    mtf_rows = run_chain(rows_train, hp, RngStream(20))
    return {
        "rank1": ([run_chain(rank1_train, small_hp(), RngStream(21))], rank1_test, {}),
        "multi_pattern": ([mtf_rows], rows_test, {}),
        "rmtf": ([rmtf_run_chain(rows_train, hp, RngStream(22))], rows_test, {}),
        "grouped": ([run_chain(grouped_train, hp, RngStream(23))], grouped_test, {}),
        "two_chains_stride2": ([mtf_rows, run_chain(rows_train, hp, RngStream(24, 1))],
                               rows_test, {"snapshot_stride": 2}),
        "no_burn_in": ([mtf_rows], rows_test, {"n_stage2_sweeps": 0}),
        "three_sweeps": ([mtf_rows], rows_test, {"n_stage2_sweeps": 3,
                                                 "n_stage2_samples": 4}),
    }


class TestStageTwoReference:
    @pytest.fixture(scope="class")
    def cases(self):
        return _reference_cases()

    @pytest.mark.parametrize("name", ["rank1", "multi_pattern", "rmtf", "grouped",
                                      "two_chains_stride2", "no_burn_in", "three_sweeps"])
    def test_matches_draw_by_draw_loop(self, cases, name):
        chains, test, settings = cases[name]
        task = PredictionTask(chains, test, **settings)
        got = two_stage_predict(task, RngStream(30))
        means, stds, n_draws = _reference_predict(task, RngStream(30))
        assert got.n_draws == n_draws
        for t in range(len(test.views)):
            for have, want in ((got.mean[t], means[t]), (got.std[t], stds[t])):
                # the batched draw rounds differently from scipy's solves
                np.testing.assert_array_equal(have != 0, want != 0)
                np.testing.assert_allclose(have[want != 0], want[want != 0], rtol=1e-10, atol=0)

    def test_multi_pattern_case_has_several_patterns(self, cases):
        test = cases["multi_pattern"][1]
        rows = np.concatenate([v.observed.reshape(test.n_samples, -1) for v in test.views],
                              axis=1)
        assert np.unique(rows, axis=0).shape[0] > 2
        grouped = cases["grouped"][1]
        rows = np.concatenate([v.observed.reshape(grouped.n_samples, -1)
                               for v in grouped.views], axis=1)
        assert np.unique(rows, axis=0).shape[0] > 2


class TestStageTwoExactConditional:
    def test_draws_follow_the_frozen_conditional(self):
        # one frozen snapshot: z ~ N(P^-1 h, P^-1) exactly, so each target
        # draw is N(mu_z . w_ld, w_ld^T P^-1 w_ld + 1 / tau_l).  A sample
        # variance of n draws has relative sd sqrt(2 / n): 1 % at 20,000
        # draws, so the 5 % bound on each target's variance is 5 sd.
        n_draws = 20_000
        train, test, _ = _rank1_problem(seed=13, noise=0.4)
        samples = run_chain(train, small_hp(k=2, n_samples=1), RngStream(31))
        state = samples.states[0]
        result = two_stage_predict(PredictionTask(samples, test, n_stage2_samples=n_draws),
                                   RngStream(32))
        v = test.views[0]
        ob = np.ascontiguousarray(v.observed.transpose(0, 2, 1), dtype=np.float64)
        x = np.ascontiguousarray(v.values.transpose(0, 2, 1)) * ob
        w, tau = state.slab_loadings(0)
        lin, precs = z_conditional([(x, ob.reshape(test.n_samples, -1), w, tau)], state.k)
        ni, di, li = np.nonzero(result.targets[0])
        mu = np.linalg.solve(precs[0], lin[ni].T).T           # one pattern
        cov = np.linalg.inv(precs[0])
        b = w[li, di, :]
        want_mean = np.einsum("jk,jk->j", mu, b)
        want_var = np.einsum("jk,kl,jl->j", b, cov, b) + 1.0 / tau[li]
        got_mean = result.mean[0][ni, di, li]
        got_var = result.std[0][ni, di, li] ** 2
        se = np.sqrt(want_var / n_draws)
        assert np.all(np.abs(got_mean - want_mean) < 4 * se)
        assert np.all(np.abs(got_var / want_var - 1) < 0.05)


def _fit_and_test(model, seed=0):
    """A preprocessed fit of a matrix + tensor collection, the prediction
    task of fresh samples whose tensor slab 0 is the target, and the fully
    observed truth of those samples."""
    gen = np.random.default_rng(seed)
    train, test = make_collection(gen, n=10), make_collection(gen, n=6)
    mask = np.ones(test.views[1].shape, dtype=bool)
    mask[:, :, 0] = False
    test = Collection((test.views[0], MaskedTensor3(Tensor3(test.views[1].values), mask)),
                      (), test.names)
    chains, transform, _ = fit_model(train, small_hp(burn_in=6, n_samples=3), model=model,
                                     seed=seed + 1)
    return PredictionTask(chains, test, 3, 2), transform, fully_observed(test)


class TestPredictCollection:
    def test_gfa_unfolds_test_and_truth(self):
        task, transform, truth = _fit_and_test("gfa")
        result, unfolded, _ = predict_collection(task, transform, RngStream(3), truth)
        names = ["mat"] + [f"tens.slab{l}" for l in range(4)]
        assert result.view_names == names and list(unfolded.names) == names
        # every target lies in slab 0 and is reported under that slab's name
        assert [bool(t.any()) for t in result.targets] == [False, True, False, False, False]
        assert result.targets[1].all()
        for l in range(4):
            np.testing.assert_array_equal(unfolded.views[1 + l].values,
                                          truth.views[1].values[:, :, l:l + 1])

    def test_back_transform_adds_centres_on_targets_only(self):
        task, transform, _ = _fit_and_test("mtf")
        assert all(np.all(c != 0) for c in transform.centers)
        raw = two_stage_predict(replace(task, test=apply_transform(transform, task.test)),
                                RngStream(4))
        got, truth, err = predict_collection(task, transform, RngStream(4))
        assert truth is None and err is None
        for t, tgt in enumerate(got.targets):
            scale, centre = transform.scales[t], np.broadcast_to(transform.centers[t], tgt.shape)
            np.testing.assert_array_equal(got.mean[t][tgt], (raw.mean[t] * scale)[tgt] + centre[tgt])
            assert not got.mean[t][~tgt].any()
            np.testing.assert_array_equal(got.std[t], raw.std[t] * scale)

    def test_rmse_is_the_per_target_formula(self):
        task, transform, truth = _fit_and_test("rmtf")
        result, same, err = predict_collection(task, transform, RngStream(5), truth)
        assert same is truth
        se = 0.0
        for m, v, tgt in zip(result.mean, truth.views, result.targets):
            se += float(np.sum((m[tgt] - v.values[tgt]) ** 2))
        assert err == np.sqrt(se / sum(int(tgt.sum()) for tgt in result.targets))
        sq = np.concatenate([(m - v.values)[tgt] ** 2
                             for m, v, tgt in zip(result.mean, truth.views, result.targets)])
        assert err == pytest.approx(np.sqrt(sq.mean()), rel=1e-12)


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
