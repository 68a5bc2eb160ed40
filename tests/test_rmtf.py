import numpy as np
import pytest
from scipy import stats

import mtfact.mtf as mtf_mod
import mtfact.rmtf as rmtf_mod
from mtfact.core import Collection, MaskedTensor3, Tensor3
from mtfact.dist import RngStream
from mtfact.mtf import HyperParams, init_state, prepare, reconstruct_mean
from mtfact.rmtf import (
    RmtfState,
    rmtf_init,
    rmtf_log_joint,
    rmtf_run_chain,
    rmtf_sample_state_from_prior,
    rmtf_sweep,
)

from conftest import (
    fully_observed,
    make_collection,
    make_masked_rows_collection,
    stacked_draw_spy,
)


def small_hp(**kw):
    base = dict(k=2, a_alpha=2.0, b_alpha=2.0, a_beta=2.0, b_beta=2.0,
                a_tau=2.0, b_tau=1.0, a_lambda=1.0, b_lambda=1.0,
                burn_in=0, n_samples=1, thin=1, n_chains=1)
    base.update(kw)
    return HyperParams(**base)


class TestInit:
    def test_reproducible(self):
        c = make_collection(np.random.default_rng(0))
        s1 = rmtf_init(c, small_hp(), RngStream(1))
        s2 = rmtf_init(c, small_hp(), RngStream(1))
        np.testing.assert_array_equal(s1.W[1], s2.W[1])
        np.testing.assert_array_equal(s1.tau[0], s2.tau[0])

    def test_tensor_slabs_start_at_trilinear_mean(self):
        # warm start places every slab exactly on its u v mean
        c = make_collection(np.random.default_rng(1))
        st = rmtf_init(c, small_hp(), RngStream(2))
        u = st.u_for_view(1)
        np.testing.assert_array_equal(st.W[1], u[:, None, :] * st.V[1][None, :, :])
        assert np.all(st.H[0] == 1.0) and np.all(st.H[1] == 1.0)

    def test_warm_start_gauge_balanced(self):
        # latent rows and third-mode factors begin near their prior scale
        from mtfact.simgen import SimSpec, gen_cp
        spec = SimSpec(scenario="cp", n=80, d1=10, d2=10, l=6,
                       k_shared=1, k_matrix=1, k_tensor=2, seed=2)
        c, _ = gen_cp(spec, RngStream(3))
        st = rmtf_init(c, small_hp(k=4), RngStream(4))
        n = c.n_samples
        assert 0.3 * n < (st.Z ** 2).sum(axis=0).mean() < 3.0 * n
        assert 0.2 * 6 < (st.U[0] ** 2).sum(axis=0).mean() < 5.0 * 6

    def test_first_sweep_centers_w_on_uv_slab(self):
        # with a tight slab the first (w, h) update lands W near u v
        c = make_collection(np.random.default_rng(3), n=30)
        hp = small_hp(a_lambda=1e6, b_lambda=1.0)
        data = prepare(c, hp)
        st = rmtf_init(data, hp, RngStream(30))
        st.tau = [np.full(v.l, 1e-9) for v in data.views]
        rmtf_mod._update_wh(st, data, 1, RngStream(31).gen)
        mean = st.u_for_view(1)[:, None, :] * st.V[1][None, :, :]
        act = st.H[1][:, None, :] > 0
        assert np.abs(np.where(act, st.W[1] - mean, 0.0)).max() < 1e-2

    @pytest.mark.parametrize("mode", ["global", "per_component", "per_slab"])
    def test_strict_start_with_free_slabs(self, mode):
        # same draws as init_state; then each slab at u_l v (V[None] on the
        # matrix), all on, matrix alpha kept, tensor beta at its conditional
        # mean given V, lambda at its prior mean, per-slab SNR-1 noise
        gen = np.random.default_rng(8)
        views = [MaskedTensor3.fully_observed(gen.standard_normal(shape))
                 for shape in ((10, 4, 1), (10, 5, 3), (10, 3, 3))]
        data = prepare(Collection(tuple(views), ((1, 2),), ("m", "t1", "t2")),
                       small_hp(k=3, lambda_mode=mode, b_tau=None, a_lambda=3.0, b_lambda=2.0))
        hp = data.hp
        strict = init_state(data, hp, RngStream(9))
        st = rmtf_init(data, hp, RngStream(9))
        for a, b in [(st.Z, strict.Z), (st.pi, strict.pi), *zip(st.U, strict.U, strict=True)]:
            assert np.array_equal(a, b)
        for t, v in enumerate(data.views):
            assert np.array_equal(st.W[t], strict.slab_mean(t))
            assert np.array_equal(st.H[t], np.ones((v.l, 3)))
            assert np.array_equal(st.tau[t], hp.a_tau / data.b_tau_slab[t])
            if v.is_matrix():
                assert np.array_equal(st.W[t], strict.V[t][None])
                assert np.array_equal(st.alpha[t], strict.alpha[t]) and st.beta[t] is None
                assert np.array_equal(st.V[t], np.zeros_like(strict.V[t]))
            else:
                assert st.alpha[t] is None and np.array_equal(st.V[t], strict.V[t])
                assert np.array_equal(st.beta[t],
                                      (hp.a_beta + 0.5) / (hp.b_beta + strict.V[t] ** 2 / 2.0))
        n_lam = {"global": 1, "per_component": 3, "per_slab": 6}[mode]
        assert np.array_equal(st.lam_values(), np.full(n_lam, hp.a_lambda / hp.b_lambda))

    def test_zero_v_for_matrix_views(self):
        c = make_collection(np.random.default_rng(3))
        st = rmtf_init(c, small_hp(), RngStream(4))
        assert np.all(st.V[0] == 0.0)
        assert st.alpha[0] is not None and st.beta[0] is None
        assert st.alpha[1] is None and st.beta[1] is not None


class TestReconstruct:
    def test_zero_w(self):
        c = make_collection(np.random.default_rng(4))
        st = rmtf_init(c, small_hp(), RngStream(5))
        st.W = [np.zeros_like(w) for w in st.W]
        assert np.all(reconstruct_mean(st, 1).values == 0.0)

    def test_cp_embedding_matches_strict_model(self):
        c = make_collection(np.random.default_rng(5))
        hp = small_hp(k=3)
        data = prepare(c, hp)
        strict = init_state(data, hp, RngStream(6))
        relaxed = rmtf_init(data, hp, RngStream(7))
        relaxed.Z = strict.Z.copy()
        for t in range(2):
            u = strict.u_for_view(t)
            relaxed.W[t] = u[:, None, :] * strict.V[t][None, :, :]
        for t in range(2):
            a = reconstruct_mean(relaxed, t).values
            b = reconstruct_mean(strict, t).values
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_triple_loop(self):
        c = make_collection(np.random.default_rng(6), n=4, d2=3, l=2)
        st = rmtf_init(c, small_hp(k=2), RngStream(8))
        rec = reconstruct_mean(st, 1).values
        want = np.zeros_like(rec)
        for n in range(4):
            for d in range(3):
                for l in range(2):
                    want[n, d, l] = st.Z[n] @ st.W[1][l, d]
        np.testing.assert_allclose(rec, want, atol=1e-12)


class TestConditionals:
    def test_lambda_conjugate_oracle(self):
        # redraws of lambda given fixed (W, U, V, H) follow the closed-form gamma
        c = make_collection(np.random.default_rng(7))
        hp = small_hp(a_lambda=1.5, b_lambda=0.5)
        data = prepare(c, hp)
        st = rmtf_init(data, hp, RngStream(9))
        [(_, counts, devs)] = rmtf_mod._lambda_stats(st, data)
        n_act = counts.sum()
        ss = devs.sum()
        draws = []
        for i in range(20000):
            rmtf_mod._update_lambda(st, data, hp, RngStream(i, 3).gen)
            draws.append(float(st.lam))
            st.lam = np.asarray(1.0)
        expect = (1.5 + 0.5 * n_act) / (0.5 + 0.5 * ss)
        assert np.mean(draws) == pytest.approx(expect, rel=0.03)

    def test_w_pinned_at_high_lambda(self):
        c = make_collection(np.random.default_rng(8), n=30)
        hp = small_hp()
        data = prepare(c, hp)
        st = rmtf_init(data, hp, RngStream(10))
        st.lam = np.asarray(1e12)
        st.tau = [np.full(v.l, 1e-9) for v in data.views]  # likelihood off
        rmtf_mod._update_wh(st, data, 1, RngStream(11).gen)
        mean = st.u_for_view(1)[:, None, :] * st.V[1][None, :, :]
        act = st.H[1][:, None, :] > 0
        dev = np.where(act, st.W[1] - mean, 0.0)
        assert np.abs(dev).max() < 1e-4

    def test_matrix_view_conditionals_match_strict_sampler(self, monkeypatch):
        # on an all-matrices collection the collapsed (w, h) update must score
        # exactly the same activation log-odds as the strict sampler
        gen = np.random.default_rng(9)
        c = Collection((
            MaskedTensor3.fully_observed(gen.standard_normal((12, 5, 1))),
            MaskedTensor3.fully_observed(gen.standard_normal((12, 4, 1))),
        ))
        hp = small_hp(k=3)
        data = prepare(c, hp)
        strict = init_state(data, hp, RngStream(12))
        relaxed = rmtf_init(data, hp, RngStream(13))
        relaxed.Z = strict.Z.copy()
        relaxed.pi = strict.pi.copy()
        for t in range(2):
            relaxed.W[t] = strict.V[t][None].copy()
            relaxed.H[t] = strict.H[t:t + 1].copy()
            relaxed.alpha[t] = strict.alpha[t].copy()
            relaxed.tau[t] = np.array([strict.tau[t]])

        captured = {"mtf": [], "rmtf": []}
        which = []

        def spy(log_odds, rng):
            captured[which[-1]].append(log_odds)
            return 1  # keep everything active; both paths then draw D normals

        # both samplers reach the Bernoulli draw through the one column step
        monkeypatch.setattr(mtf_mod, "draw_bernoulli_logodds", spy)
        for t in range(2):
            which.append("mtf")
            mtf_mod.update_vh(strict, data, t, RngStream(14).gen)
            which.append("rmtf")
            rmtf_mod._update_wh(relaxed, data, t, RngStream(14).gen)
        np.testing.assert_allclose(captured["mtf"], captured["rmtf"], rtol=1e-10)

    def test_masked_z_step_matches_row_loop(self, monkeypatch):
        # the stacked per-row precisions and means against a plain loop, and
        # the shared precision of the same data fully observed
        masked = make_masked_rows_collection(np.random.default_rng(22))
        for c in (masked, fully_observed(masked)):
            hp = small_hp(k=3)
            data = prepare(c, hp)
            st = rmtf_init(data, hp, RngStream(17))
            gen = np.random.default_rng(23)
            st.W = [gen.standard_normal(w.shape) for w in st.W]
            st.tau = [np.array([0.8]), np.array([0.5, 1.3, 2.1])]
            seen = stacked_draw_spy(monkeypatch, mtf_mod)   # the Z-step both models share
            rmtf_mod._update_z(st, data, RngStream(18).gen)
            (prec, mean), = seen
            k = st.k
            for n in range(c.n_samples):
                p, lin = np.eye(k), np.zeros(k)
                for t, v in enumerate(c.views):
                    for d in range(v.shape[1]):
                        for l in range(v.shape[2]):
                            if v.observed[n, d, l]:
                                b = st.W[t][l, d]
                                p += st.tau[t][l] * np.outer(b, b)
                                lin += st.tau[t][l] * v.values[n, d, l] * b
                np.testing.assert_allclose(prec[n], p, rtol=1e-10, atol=1e-10)
                np.testing.assert_allclose(mean[n], np.linalg.solve(p, lin),
                                           rtol=1e-10, atol=1e-10)
            if not c.views[0].observed[2].any():
                np.testing.assert_array_equal(prec[2], np.eye(k))   # all-masked row

    def test_prior_recovery_all_masked(self):
        vals = np.zeros((5, 3, 2))
        v = MaskedTensor3(Tensor3(vals), np.zeros_like(vals, dtype=bool))
        c = Collection((v,))
        hp = small_hp(k=2, a_lambda=1.0, b_lambda=1.0)
        data = prepare(c, hp, validate=False)
        st = rmtf_init(data, hp, RngStream(15))
        gen = RngStream(16).gen
        lams, taus = [], []
        for _ in range(4000):
            rmtf_sweep(st, data, gen)
            lams.append(float(st.lam))
            taus.append(st.tau[0].mean())
        # lambda posterior equals its Gamma(1, 1) prior
        assert abs(np.mean(lams) - 1.0) < 0.1
        assert abs(np.var(lams) - 1.0) < 0.25
        assert abs(np.mean(taus) - 2.0) < 0.1

    def test_spike_exactness_per_slab(self):
        c = make_collection(np.random.default_rng(10), n=20)
        hp = small_hp(k=3)
        samples = rmtf_run_chain(c, HyperParams(**{**hp.__dict__, "burn_in": 5,
                                                   "n_samples": 4, "thin": 2}),
                                 RngStream(17))
        for st in samples.states:
            for t in range(2):
                for l in range(st.W[t].shape[0]):
                    for k in range(st.k):
                        col = st.W[t][l, :, k]
                        if st.H[t][l, k] == 0:
                            assert np.all(col == 0.0)
                        else:
                            assert np.any(col != 0.0)


class TestRunChain:
    def test_schedule_and_determinism(self):
        c = make_collection(np.random.default_rng(11), n=8)
        hp = small_hp(burn_in=0, n_samples=3, thin=2)
        s1 = rmtf_run_chain(c, hp, RngStream(18))
        s2 = rmtf_run_chain(c, hp, RngStream(18))
        assert s1.sweeps == [2, 4, 6]
        np.testing.assert_array_equal(s1.states[-1].W[1], s2.states[-1].W[1])
        np.testing.assert_array_equal(s1.traces, s2.traces)

    def test_mse_trace_matches_reconstruction(self):
        c = make_collection(np.random.default_rng(12), n=8, masked=True)
        hp = small_hp(burn_in=0, n_samples=2, thin=2)
        samples = rmtf_run_chain(c, hp, RngStream(19))
        for i, st in enumerate(samples.states):
            sweep = samples.sweeps[i]
            for t, v in enumerate(c.views):
                rec = reconstruct_mean(st, t).values
                obs = v.observed
                mse = np.sum((v.values[obs] - rec[obs]) ** 2) / obs.sum()
                assert abs(mse - samples.traces[sweep - 1, 1 + t]) < 1e-12

    def test_log_joint_tiny_oracle(self):
        gen = np.random.default_rng(13)
        x = gen.standard_normal((3, 2, 2))
        c = Collection((MaskedTensor3.fully_observed(x),))
        hp = small_hp(k=1, a_pi=1.2, b_pi=0.9, a_beta=2.0, b_beta=1.1,
                      a_lambda=1.4, b_lambda=0.8, a_tau=2.0, b_tau=1.3)
        data = prepare(c, hp)
        st = rmtf_sample_state_from_prior(data, hp, RngStream(20).gen)
        got = rmtf_log_joint(st, data)
        want = 0.0
        tau = st.tau[0]
        for l in range(2):
            mean_l = st.Z @ st.W[0][l].T
            want += stats.norm.logpdf(x[:, :, l], mean_l,
                                      1 / np.sqrt(tau[l])).sum()
            want += stats.gamma.logpdf(tau[l], 2.0, scale=1 / 1.3)
        want += stats.norm.logpdf(st.Z).sum() + stats.norm.logpdf(st.U[0]).sum()
        lam = float(st.lam)
        for l in range(2):
            if st.H[0][l, 0] > 0:
                mu = st.U[0][l, 0] * st.V[0][:, 0]
                want += stats.norm.logpdf(st.W[0][l, :, 0], mu,
                                          1 / np.sqrt(lam)).sum()
                want += np.log(st.pi[0])
            else:
                want += np.log1p(-st.pi[0])
        b = st.beta[0][:, 0]
        want += stats.norm.logpdf(st.V[0][:, 0], 0, 1 / np.sqrt(b)).sum()
        want += stats.gamma.logpdf(b, 2.0, scale=1 / 1.1).sum()
        want += stats.beta.logpdf(st.pi[0], 1.2, 0.9)
        want += stats.gamma.logpdf(lam, 1.4, scale=1 / 0.8)
        assert got == pytest.approx(want, rel=1e-10)


class TestLambdaModes:
    @pytest.mark.parametrize("mode", ["per_component", "per_slab"])
    def test_smoke_and_shapes(self, mode):
        c = make_collection(np.random.default_rng(14), n=10)
        hp = small_hp(lambda_mode=mode, burn_in=2, n_samples=2, thin=1)
        samples = rmtf_run_chain(c, hp, RngStream(21))
        st = samples.states[-1]
        if mode == "per_component":
            assert np.asarray(st.lam).shape == (2,)
        else:
            assert st.lam[0] is None and st.lam[1].shape == (4,)
        assert np.isfinite(samples.traces).all()

    @pytest.mark.slow
    @pytest.mark.parametrize("mode", ["per_component", "per_slab"])
    def test_joint_distribution_smoke(self, mode):
        from mtfact.diag import joint_distribution_test, toy_collection
        hp = small_hp(lambda_mode=mode)
        res = joint_distribution_test("rmtf", toy_collection((4, 3, 2)), hp, 15000,
                                      RngStream(31))
        assert np.max(np.abs(res.z_scores)) < 5.0


class TestInactiveComponents:
    """A component off in every slab of a tensor view keeps its mean profile
    v_k and its precisions beta_k (the partial scan of ``update_hypers``)."""

    @staticmethod
    def _v_and_scale_steps(h_col_on):
        c = make_collection(np.random.default_rng(15), n=10)
        hp = small_hp(k=3)
        data = prepare(c, hp)
        st = rmtf_init(data, hp, RngStream(16))
        st.H[1][:, ~np.asarray(h_col_on)] = 0.0
        before = st.copy()
        gen = RngStream(17).gen
        rmtf_mod._update_v(st, data, 1, gen)
        rmtf_mod._update_scales_and_noise(st, data, hp, gen, mtf_mod._rss(st, data))
        return data, before, st, gen

    def test_off_component_keeps_profile_and_precisions(self):
        _, before, st, _ = self._v_and_scale_steps([True, False, True])
        np.testing.assert_array_equal(st.V[1][:, 1], before.V[1][:, 1])
        np.testing.assert_array_equal(st.beta[1][:, 1], before.beta[1][:, 1])
        for x, y in ((st.V[1], before.V[1]), (st.beta[1], before.beta[1])):
            assert np.all(x[:, [0, 2]] != y[:, [0, 2]])

    def test_all_on_draws_as_every_column_active(self):
        # with every component on in some slab: the draws and stream of the
        # rule that counts every column active
        data, before, st, gen = self._v_and_scale_steps([True, True, True])
        hp, ref = data.hp, RngStream(17).gen
        u, w = before.u_for_view(1), before.W[1]
        gate = before.H[1] * before.lam_lk(1, 4)
        prec = before.beta[1] + (gate * u ** 2).sum(axis=0)[None, :]
        v = np.einsum("lk,ldk->dk", gate * u, w) / prec \
            + ref.standard_normal(prec.shape) / np.sqrt(prec)
        np.testing.assert_array_equal(st.V[1], v)
        mtf_mod._draw_ard(before.alpha[0], before.H[0][0], before.W[0][0],
                          hp.a_alpha, hp.b_alpha, ref)
        beta = mtf_mod._draw_ard(before.beta[1], 1.0, v, hp.a_beta, hp.b_beta, ref)
        np.testing.assert_array_equal(st.beta[1], beta)
        for t, view in enumerate(data.views):
            ref.gamma(hp.a_tau + view.obs_per_slab / 2.0)
        assert gen.random() == ref.random()

    def test_converged_run_fixture_stays_bounded(self):
        # the converged-run fixture of test_diag.py under rMTF with the
        # default a_beta = b_beta = 1e-3, 4,400 sweeps: two tensor components
        # end off in every slab.  Redrawing their (v, beta) from the prior
        # random-walked them to max |v| 6e114 and min beta 4e-230 over the
        # snapshots; kept, they stay within 4.2e3 and 6e-9.
        from mtfact.simgen import SimSpec, gen_cp
        spec = SimSpec(scenario="cp", n=60, d1=8, d2=8, l=5,
                       k_shared=1, k_matrix=1, k_tensor=1, seed=1)
        c, _ = gen_cp(spec, RngStream(50))
        hp = HyperParams(k=4, a_alpha=2.0, b_alpha=2.0, b_tau=0.5,
                         burn_in=400, n_samples=400, thin=10, n_chains=1)
        samples = rmtf_run_chain(c, hp, RngStream(51))
        v = np.array([st.V[1] for st in samples.states])
        beta = np.array([st.beta[1] for st in samples.states])
        assert np.isfinite(v).all() and np.isfinite(beta).all()
        assert np.abs(v).max() < 1e10 and beta.min() > 1e-30
        assert np.isfinite(samples.traces).all()


@pytest.mark.slow
class TestLambdaMonotonicity:
    def test_inverse_lambda_tracks_slab_deviation(self):
        # posterior 1/lambda grows with the variance of per-slab deviations
        n, d, l, k0 = 40, 8, 6, 2
        hp = small_hp(k=3, burn_in=80, n_samples=20, thin=2)
        sigmas = [0.0, 0.2, 0.6, 1.5]
        pts = []
        for si, sig in enumerate(sigmas):
            for rep in range(20):
                gen = np.random.default_rng(1000 * si + rep)
                z = gen.standard_normal((n, k0))
                v = gen.standard_normal((d, k0))
                u = gen.standard_normal((l, k0))
                w = u[:, None, :] * v[None, :, :] + sig * gen.standard_normal((l, d, k0))
                x = np.einsum("nk,ldk->nld", z, w).transpose(0, 2, 1)
                x = x + 0.3 * gen.standard_normal(x.shape)
                mat = gen.standard_normal((n, 4, 1))
                c = Collection((MaskedTensor3.fully_observed(mat),
                                MaskedTensor3.fully_observed(x)))
                samples = rmtf_run_chain(c, hp, RngStream(7000 + 13 * si + rep))
                inv_lam = np.mean([1.0 / float(st.lam) for st in samples.states])
                pts.append((sig ** 2, inv_lam))
        arr = np.array(pts)
        rank_corr = stats.spearmanr(arr[:, 0], arr[:, 1]).statistic
        assert rank_corr > 0.9
