import numpy as np
import pytest
from scipy import integrate, stats

import mtfact.mtf as mtf_mod
from mtfact.core import Collection, MaskedTensor3, Tensor3
from mtfact.diag import toy_grouped
from mtfact.dist import RngStream
from mtfact.mtf import (
    HyperParams,
    MtfState,
    _slab_evidence_logodds,
    component_structure,
    init_state,
    log_joint,
    mtf_sweep,
    prepare,
    reconstruct_mean,
    run_chain,
    sample_state_from_prior,
    simulate_data,
    update_hypers,
    update_u,
    update_vh,
    update_z,
)
from mtfact.rmtf import rmtf_init

from conftest import (
    fully_observed,
    make_collection,
    make_masked_rows_collection,
    stacked_draw_spy,
)


def small_hp(**kw):
    base = dict(k=2, a_alpha=2.0, b_alpha=2.0, a_tau=2.0, b_tau=1.0,
                burn_in=0, n_samples=1, thin=1, n_chains=1)
    base.update(kw)
    return HyperParams(**base)


class TestInit:
    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            HyperParams(k=0)

    def test_deterministic(self, rng):
        c = make_collection(np.random.default_rng(0))
        s1 = init_state(c, small_hp(), RngStream(5))
        s2 = init_state(c, small_hp(), RngStream(5))
        np.testing.assert_array_equal(s1.Z, s2.Z)
        np.testing.assert_array_equal(s1.V[1], s2.V[1])
        np.testing.assert_array_equal(s1.pi, s2.pi)

    def test_snr1_tau_on_unit_data(self, rng):
        from mtfact.core import center_and_normalize
        c, _ = center_and_normalize(make_collection(np.random.default_rng(0), n=40))
        state = init_state(c, small_hp(b_tau=None, a_tau=1.0), RngStream(0))
        # unit-normalized data: noise variance half of total -> precision 2
        np.testing.assert_allclose(state.tau, 2.0, rtol=1e-12)

    @pytest.mark.parametrize("init", [init_state, rmtf_init], ids=lambda f: f.__name__)
    def test_n_below_k_warns(self, init):
        c = make_collection(np.random.default_rng(0), n=3)
        with pytest.warns(UserWarning, match="fewer samples"):
            init(c, small_hp(k=5), RngStream(0))


def _einsum_rank1_fit(data, resid, z, n_power):
    """Reference rank-1 fit: one einsum contraction per update on each
    residual as (N, L, D)."""
    resid = [r.reshape(data.n, v.l, v.d) for r, v in zip(resid, data.views)]
    vs = [np.zeros(v.d) for v in data.views]
    us = {g: np.full(data.views[m[0]].l, 1.0 / np.sqrt(data.views[m[0]].l))
          for g, m in enumerate(data.u_groups)}
    for _ in range(n_power):
        zz = float(z @ z) or 1.0
        for t, v in enumerate(data.views):
            if t in data.group_of:
                u = us[data.group_of[t]]
                vs[t] = np.tensordot(u, resid[t], axes=(0, 1)).T @ z \
                    / max(zz * float(u @ u), 1e-30)
            else:
                vs[t] = resid[t][:, 0, :].T @ z / zz
        for g, members in enumerate(data.u_groups):
            num = np.zeros(us[g].size)
            den = 0.0
            for t in members:
                num += np.einsum("nld,n,d->l", resid[t], z, vs[t], optimize=True)
                den += zz * float(vs[t] @ vs[t])
            us[g] = num / max(den, 1e-30)
        num = np.zeros(data.n)
        den = 0.0
        for t in range(data.n_views):
            u = us[data.group_of[t]] if t in data.group_of else np.ones(1)
            b = np.outer(u, vs[t])
            num += np.einsum("nld,ld->n", resid[t], b, optimize=True)
            den += float(np.sum(b * b))
        z = num / max(den, 1e-30)
    return z, vs, us


def _einsum_subtract_component(data, resid, z, vs, us, sign=1.0):
    """Reference subtraction (sign -1: addition) of a rank-1 component,
    masked, on each residual as (N, L, D), in place."""
    for t, v in enumerate(data.views):
        r = resid[t].reshape(data.n, v.l, v.d)
        u = us[data.group_of[t]] if t in data.group_of else np.ones(1)
        upd = z[:, None, None] * np.outer(u, vs[t])[None]
        if v.obs is not None:
            upd *= v.obs
        if sign > 0:
            r -= upd
        else:
            r += upd


def _planted(c, gen, rank=2):
    """``c`` with its values replaced by a rank-``rank`` trilinear signal
    shared on the sample mode, plus small noise; masks and groups kept."""
    z = gen.standard_normal((c.n_samples, rank))
    views = []
    for v in c.views:
        n, d, l = v.shape
        x = np.einsum("nk,dk,lk->ndl", z, gen.standard_normal((d, rank)),
                      gen.standard_normal((l, rank)))
        views.append(MaskedTensor3(Tensor3(x + 0.1 * gen.standard_normal(x.shape)),
                                   v.observed))
    return Collection(tuple(views), c.third_mode_groups, c.names)


def _warm_start_collections():
    """(collection, validate) pairs with planted structure: dense, masked
    rows, a shared U group, matrices only, and a matrix beside an
    all-masked tensor."""
    gen = np.random.default_rng(41)
    matrices = Collection(tuple(MaskedTensor3.fully_observed(np.zeros(shape))
                                for shape in ((10, 6, 1), (10, 5, 1))))
    blank = np.zeros((8, 4, 2))
    all_masked = Collection((MaskedTensor3.fully_observed(np.zeros((8, 20, 1))),
                             MaskedTensor3(Tensor3(blank), np.zeros_like(blank, dtype=bool))))
    return {
        "dense": (_planted(make_collection(gen), gen), True),
        "masked": (_planted(make_masked_rows_collection(gen), gen), True),
        "grouped": (_planted(toy_grouped((10, 3, 4)), gen), True),
        "matrices": (_planted(matrices, gen), True),
        "all_masked": (_planted(all_masked, gen), False),
    }


class TestWarmStart:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", list(_warm_start_collections()))
    def test_matches_einsum_reference(self, name, monkeypatch):
        # the deflation start on (N, L*D) products agrees with the einsum form
        c, validate = _warm_start_collections()[name]
        hp = small_hp(k=3)
        data = prepare(c, hp, validate=validate)

        def starts():
            return init_state(data, hp, RngStream(8)), rmtf_init(data, hp, RngStream(8))

        new = starts()
        monkeypatch.setattr(mtf_mod, "_rank1_fit", _einsum_rank1_fit)
        monkeypatch.setattr(mtf_mod, "_subtract_component", _einsum_subtract_component)
        ref = starts()
        assert np.any(ref[0].Z != 0.0)          # at least one component kept
        for a, b in zip(new, ref):
            for field in ("V", "U", "W"):
                for x, y in zip(getattr(a, field, []), getattr(b, field, [])):
                    np.testing.assert_allclose(x, y, rtol=1e-10)
            np.testing.assert_allclose(a.Z, b.Z, rtol=1e-10)


class TestUpdateZ:
    def test_prior_recovery_when_likelihood_off(self):
        c = make_collection(np.random.default_rng(2))
        hp = small_hp()
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(1))
        state.tau = np.full(2, 1e-12)
        gen = RngStream(2).gen
        draws = []
        for _ in range(400):
            draws.append(update_z(state, data, gen).copy())
        zs = np.concatenate(draws, axis=0).ravel()
        assert abs(zs.mean()) < 0.05
        assert abs(zs.var() - 1.0) < 0.05

    def test_k1_matrix_rowmean_limit(self):
        # K=1, ones loading, huge tau: z_n -> (tau D/(1+tau D)) * row mean -> row mean
        gen = np.random.default_rng(3)
        n, d = 6, 8
        x = gen.standard_normal((n, d, 1))
        c = Collection((MaskedTensor3.fully_observed(x),))
        hp = small_hp(k=1)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(0))
        state.V = [np.ones((d, 1))]
        state.H = np.ones((1, 1))
        state.tau = np.array([1e8])
        draws = np.stack([update_z(state, data, RngStream(i, 77).gen)
                          for i in range(50)])
        np.testing.assert_allclose(draws.mean(axis=0)[:, 0],
                                   x[:, :, 0].mean(axis=1), atol=1e-3)
        assert draws.var(axis=0).max() < 1e-7

    def test_masked_matches_brute_force_conditional(self):
        # the stacked masked update agrees with a per-row assembled oracle
        gen = np.random.default_rng(4)
        c = make_collection(gen, n=8, d1=3, d2=4, l=3, masked=True)
        hp = small_hp(k=2)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(3))
        reps = 4000
        draws = np.stack([update_z(state, data, RngStream(i, 5).gen)
                          for i in range(reps)])
        k = state.k
        for n in range(8):
            prec = np.eye(k)
            lin = np.zeros(k)
            for t, v in enumerate(c.views):
                u = state.u_for_view(t)
                for d in range(v.shape[1]):
                    for l in range(v.shape[2]):
                        if not v.observed[n, d, l]:
                            continue
                        b = state.V[t][d] * u[l]
                        prec += state.tau[t] * np.outer(b, b)
                        lin += state.tau[t] * v.values[n, d, l] * b
            cov = np.linalg.inv(prec)
            mean = cov @ lin
            emp_mean = draws[:, n, :].mean(axis=0)
            emp_cov = np.cov(draws[:, n, :].T)
            se = np.sqrt(np.diag(cov) / reps)
            assert np.all(np.abs(emp_mean - mean) < 5 * se)
            assert np.all(np.abs(emp_cov - cov) < 0.15 * np.abs(cov).max() + 0.02)


class TestStackedMaskedConditionals:
    """The Z- and U-step conditionals against per-row loops, on masked data
    (stacked precisions) and on the same data fully observed (one shared
    precision)."""

    def _setups(self):
        masked = make_masked_rows_collection(np.random.default_rng(21))
        for c in (masked, fully_observed(masked)):
            hp = small_hp(k=3)
            data = prepare(c, hp)
            state = init_state(data, hp, RngStream(4))
            gen = np.random.default_rng(23)
            state.Z = gen.standard_normal(state.Z.shape)
            state.V = [gen.standard_normal(v.shape) for v in state.V]
            state.U = [gen.standard_normal(u.shape) for u in state.U]
            state.tau = np.array([0.7, 1.9])
            yield c, data, state

    def test_z_step_matches_row_loop(self, monkeypatch):
        for c, data, state in self._setups():
            seen = stacked_draw_spy(monkeypatch, mtf_mod)
            update_z(state, data, RngStream(5).gen)
            (prec, mean), = seen
            k = state.k
            for n in range(c.n_samples):
                p, lin = np.eye(k), np.zeros(k)
                for t, v in enumerate(c.views):
                    u = state.u_for_view(t)
                    for d in range(v.shape[1]):
                        for l in range(v.shape[2]):
                            if v.observed[n, d, l]:
                                b = state.V[t][d] * u[l]
                                p += state.tau[t] * np.outer(b, b)
                                lin += state.tau[t] * v.values[n, d, l] * b
                np.testing.assert_allclose(prec[n], p, rtol=1e-10, atol=1e-10)
                np.testing.assert_allclose(mean[n], np.linalg.solve(p, lin),
                                           rtol=1e-10, atol=1e-10)
            if not c.views[0].observed[2].any():
                np.testing.assert_array_equal(prec[2], np.eye(k))   # all-masked row

    def test_u_step_matches_slab_loop(self, monkeypatch):
        for c, data, state in self._setups():
            seen = stacked_draw_spy(monkeypatch, mtf_mod)
            update_u(state, data, 0, RngStream(6).gen)
            (prec, mean), = seen
            v, tau, k = c.views[1], state.tau[1], state.k
            for l in range(v.shape[2]):
                p, lin = np.eye(k), np.zeros(k)
                for n in range(v.shape[0]):
                    for d in range(v.shape[1]):
                        if v.observed[n, d, l]:
                            b = state.Z[n] * state.V[1][d]
                            p += tau * np.outer(b, b)
                            lin += tau * v.values[n, d, l] * b
                np.testing.assert_allclose(prec[l], p, rtol=1e-10, atol=1e-10)
                np.testing.assert_allclose(mean[l], np.linalg.solve(p, lin),
                                           rtol=1e-10, atol=1e-10)


class TestSpikeSlabEvidence:
    def test_against_quadrature(self):
        # D=2 independent coefficients, small s: integrate the slab numerically
        m = np.array([0.7, -1.3])
        s = np.array([0.21, 0.08])
        alpha = np.array([1.7, 0.9])
        lo, post_mean, post_prec = _slab_evidence_logodds(m, alpha, 0.0, s)
        num = 0.0
        for j in range(2):
            f = lambda v: stats.norm.pdf(v, 0, 1 / np.sqrt(alpha[j])) * np.exp(
                -0.5 * s[j] * v**2 + m[j] * v)
            val, _ = integrate.quad(f, -30, 30)
            num += np.log(val)
        assert lo == pytest.approx(num, abs=1e-8)
        np.testing.assert_allclose(post_mean, m / (alpha + s), atol=1e-12)
        np.testing.assert_allclose(post_prec, alpha + s, atol=1e-12)

    def test_nonzero_prior_mean_against_quadrature(self):
        m = np.array([0.3, 0.9, -0.2])
        s = np.array([0.5, 1.2, 0.05])
        rho = 2.3
        mu = np.array([0.4, -1.0, 0.8])
        lo, post_mean, _ = _slab_evidence_logodds(m, rho, mu, s)
        num = 0.0
        for j in range(3):
            f = lambda w: stats.norm.pdf(w, mu[j], 1 / np.sqrt(rho)) * np.exp(
                -0.5 * s[j] * w**2 + m[j] * w)
            val, _ = integrate.quad(f, -30, 30)
            # the spike reference point contributes exp(0) = 1
            num += np.log(val)
        assert lo == pytest.approx(num, abs=1e-8)
        np.testing.assert_allclose(post_mean, (rho * mu + m) / (rho + s), atol=1e-12)


class TestUpdateVH:
    def _noise_collection(self, gen, n=40, d=6):
        x = gen.standard_normal((n, d, 1))
        return Collection((MaskedTensor3.fully_observed(x),))

    def test_pure_noise_small_pi_shuts_off(self):
        # an unaligned component on noise data: the spike wins almost always
        gen = np.random.default_rng(5)
        c = self._noise_collection(gen)
        hp = small_hp(k=1)
        data = prepare(c, hp)
        offs = 0
        for i in range(100):
            state = init_state(data, hp, RngStream(i))
            state.Z = RngStream(i, 1).gen.standard_normal(state.Z.shape)
            state.V[0][:] = 0.0
            state.pi = np.array([0.01])
            update_vh(state, data, 0, RngStream(i, 9).gen)
            if state.H[0, 0] == 0:
                offs += 1
                assert np.all(state.V[0][:, 0] == 0.0)
        assert offs > 80

    def test_rank1_signal_detected(self):
        gen = np.random.default_rng(6)
        n, d = 80, 12
        z = gen.standard_normal(n)
        v_true = gen.standard_normal(d)
        x = 3.0 * np.outer(z, v_true)[:, :, None] + 0.1 * gen.standard_normal((n, d, 1))
        c = Collection((MaskedTensor3.fully_observed(x),))
        hp = small_hp(k=1)
        data = prepare(c, hp)
        hits = 0
        cors = []
        for i in range(50):
            state = init_state(data, hp, RngStream(1000 + i))
            state.Z = z[:, None].copy()
            state.pi = np.array([0.5])
            state.tau = np.array([100.0])
            update_vh(state, data, 0, RngStream(i, 11).gen)
            if state.H[0, 0] == 1:
                hits += 1
                cors.append(abs(np.corrcoef(state.V[0][:, 0], v_true)[0, 1]))
        assert hits == 50
        assert np.mean(cors) > 0.99

    def test_residual_consistency_after_update(self):
        # maintained residual must equal the freshly recomputed one
        gen = np.random.default_rng(7)
        c = make_collection(gen)
        hp = small_hp()
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(4))
        from mtfact.mtf import _residual
        r = _residual(state, data, 1)
        update_vh(state, data, 1, RngStream(5).gen, residual=r)
        np.testing.assert_allclose(r, _residual(state, data, 1), atol=1e-10)


class TestUpdateU:
    def test_prior_recovery(self):
        c = make_collection(np.random.default_rng(8))
        hp = small_hp()
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(6))
        state.tau = np.full(2, 1e-12)
        draws = np.stack([update_u(state, data, 0, RngStream(i, 3).gen)
                          for i in range(500)])
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

    def test_k1_shrunk_slab_mean(self):
        gen = np.random.default_rng(9)
        n, d, l = 7, 5, 4
        x = gen.standard_normal((n, d, l))
        c = Collection((MaskedTensor3.fully_observed(x),))
        hp = small_hp(k=1)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(7))
        state.Z = np.ones((n, 1))
        state.V = [np.ones((d, 1))]
        state.H = np.ones((1, 1))
        tau = 0.37
        state.tau = np.array([tau])
        draws = np.stack([update_u(state, data, 0, RngStream(i, 8).gen)
                          for i in range(6000)])
        shrink = tau * n * d / (1.0 + tau * n * d)
        expect = shrink * x.mean(axis=(0, 1))
        se = 1.0 / np.sqrt((1 + tau * n * d) * 6000)
        np.testing.assert_allclose(draws[:, :, 0].mean(axis=0), expect,
                                   atol=5 * se)

    def test_matrix_only_collection_has_no_u(self):
        gen = np.random.default_rng(10)
        c = Collection((
            MaskedTensor3.fully_observed(gen.standard_normal((9, 4, 1))),
            MaskedTensor3.fully_observed(gen.standard_normal((9, 5, 1))),
        ))
        hp = small_hp()
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(8))
        assert state.U == []
        np.testing.assert_array_equal(state.u_for_view(0), np.ones((1, 2)))


class TestUpdateHypers:
    def test_pi_counting(self):
        gen = np.random.default_rng(11)
        views = tuple(MaskedTensor3.fully_observed(gen.standard_normal((6, 3, 1)))
                      for _ in range(3))
        c = Collection(views)
        hp = small_hp(a_pi=1.0, b_pi=1.0)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(9))
        state.H = np.ones((3, 2))
        draws = []
        for i in range(20000):
            update_hypers(state, data, RngStream(i, 2).gen)
            draws.append(state.pi.copy())
            state.H = np.ones((3, 2))
        pis = np.array(draws)
        # Beta(1+3, 1+0) has mean 0.8
        assert abs(pis.mean() - 0.8) < 0.005

    def test_alpha_conjugate_mean(self):
        gen = np.random.default_rng(12)
        c = make_collection(gen, n=6)
        hp = small_hp(a_alpha=1.5, b_alpha=0.7)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(10))
        v = state.V[0].copy()
        reps = 30000
        acc = np.zeros_like(v)
        for i in range(reps):
            state.V[0] = v.copy()
            state.H = np.ones((2, 2))
            update_hypers(state, data, RngStream(i, 4).gen)
            acc += state.alpha[0]
        expect = (1.5 + 0.5) / (0.7 + v**2 / 2.0)
        np.testing.assert_allclose(acc / reps, expect, rtol=0.05)

    def test_tau_limit_guarded_by_prior(self):
        gen = np.random.default_rng(13)
        c = make_collection(gen, n=10)
        hp = small_hp(b_tau=2.0)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(11))
        zero_resid = [np.zeros_like(v.x) for v in data.views]
        draws = []
        for i in range(2000):
            update_hypers(state, data, RngStream(i, 6).gen, residuals=zero_resid)
            draws.append(state.tau.copy())
        taus = np.array(draws)
        for t, v in enumerate(data.views):
            expect = (hp.a_tau + v.n_obs / 2.0) / 2.0
            assert abs(taus[:, t].mean() - expect) / expect < 0.05


class TestLogJoint:
    def test_inactive_component_only_changes_bernoulli_mass(self):
        gen = np.random.default_rng(14)
        c = make_collection(gen)
        hp = small_hp(k=3)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(12))
        state.H[0, 2] = 0.0
        state.V[0][:, 2] = 0.0
        base = log_joint(state, data)
        # flipping H on for a still-zero column changes only H and v prior terms
        state.H[0, 2] = 1.0
        flipped = log_joint(state, data)
        a = state.alpha[0][:, 2]
        v_term = float(np.sum(0.5 * (np.log(a) - np.log(2 * np.pi))))
        h_term = np.log(state.pi[2]) - np.log1p(-state.pi[2])
        assert flipped - base == pytest.approx(h_term + v_term, rel=1e-10)

    def test_tiny_instance_oracle(self):
        # independent term-by-term recomputation with scipy.stats
        gen = np.random.default_rng(15)
        n, d, l = 2, 2, 2
        x = gen.standard_normal((n, d, l))
        c = Collection((MaskedTensor3.fully_observed(x),))
        hp = small_hp(k=1, a_pi=1.3, b_pi=0.8, a_alpha=2.0, b_alpha=1.5,
                      a_tau=2.2, b_tau=0.9)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(13))
        got = log_joint(state, data)
        z, v, u = state.Z[:, 0], state.V[0][:, 0], state.U[0][:, 0]
        mean = np.einsum("n,d,l->ndl", z, v, u)
        want = stats.norm.logpdf(x, mean, 1 / np.sqrt(state.tau[0])).sum()
        want += stats.norm.logpdf(z).sum() + stats.norm.logpdf(u).sum()
        if state.H[0, 0]:
            want += stats.norm.logpdf(v, 0, 1 / np.sqrt(state.alpha[0][:, 0])).sum()
            want += np.log(state.pi[0])
        else:
            want += np.log1p(-state.pi[0])
        want += stats.beta.logpdf(state.pi[0], 1.3, 0.8)
        want += stats.gamma.logpdf(state.alpha[0][:, 0], 2.0, scale=1 / 1.5).sum()
        want += stats.gamma.logpdf(state.tau[0], 2.2, scale=1 / 0.9)
        assert got == pytest.approx(want, rel=1e-10)


class TestReconstruct:
    def test_zero_loadings(self):
        c = make_collection(np.random.default_rng(16))
        hp = small_hp()
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(14))
        state.V = [np.zeros_like(v) for v in state.V]
        assert np.all(reconstruct_mean(state, 1).values == 0.0)

    def test_unit_basis_outer_product(self):
        c = make_collection(np.random.default_rng(17), n=4, d2=3, l=2)
        hp = small_hp(k=1)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(15))
        state.Z = np.zeros((4, 1)); state.Z[1, 0] = 1.0
        state.V[1] = np.zeros((3, 1)); state.V[1][2, 0] = 1.0
        state.U[0] = np.zeros((2, 1)); state.U[0][0, 0] = 1.0
        rec = reconstruct_mean(state, 1).values
        want = np.zeros((4, 3, 2)); want[1, 2, 0] = 1.0
        np.testing.assert_array_equal(rec, want)

    def test_matches_triple_loop(self):
        c = make_collection(np.random.default_rng(18), n=5, d1=3, d2=4, l=3)
        hp = small_hp(k=3)
        data = prepare(c, hp)
        state = init_state(data, hp, RngStream(16))
        for t in range(2):
            rec = reconstruct_mean(state, t).values
            u = state.u_for_view(t)
            want = np.zeros_like(rec)
            for n in range(5):
                for d in range(rec.shape[1]):
                    for l in range(rec.shape[2]):
                        want[n, d, l] = np.sum(state.Z[n] * state.V[t][d] * u[l])
            np.testing.assert_allclose(rec, want, atol=1e-12)


class TestRunChain:
    def test_schedule(self):
        c = make_collection(np.random.default_rng(19), n=8)
        hp = small_hp(burn_in=0, n_samples=3, thin=2)
        samples = run_chain(c, hp, RngStream(17))
        assert samples.sweeps == [2, 4, 6]
        assert samples.n_snapshots == 3

    def test_deterministic(self):
        c = make_collection(np.random.default_rng(20), n=8)
        hp = small_hp(burn_in=2, n_samples=2, thin=1)
        s1 = run_chain(c, hp, RngStream(18, 1))
        s2 = run_chain(c, hp, RngStream(18, 1))
        np.testing.assert_array_equal(s1.states[-1].Z, s2.states[-1].Z)
        np.testing.assert_array_equal(s1.traces, s2.traces)

    def test_mse_trace_matches_reconstruction(self):
        c = make_collection(np.random.default_rng(21), n=8, masked=True)
        hp = small_hp(burn_in=0, n_samples=2, thin=3)
        samples = run_chain(c, hp, RngStream(19))
        for i, state in enumerate(samples.states):
            sweep = samples.sweeps[i]
            for t, v in enumerate(c.views):
                rec = reconstruct_mean(state, t).values
                obs = v.observed
                mse = np.sum((v.values[obs] - rec[obs]) ** 2) / obs.sum()
                assert abs(mse - samples.traces[sweep - 1, 1 + t]) < 1e-12

    def test_spike_exactness_every_snapshot(self):
        c = make_collection(np.random.default_rng(22), n=15)
        hp = small_hp(k=4, burn_in=5, n_samples=5, thin=2)
        samples = run_chain(c, hp, RngStream(20))
        for state in samples.states:
            for t in range(2):
                for k in range(4):
                    col = state.V[t][:, k]
                    if state.H[t, k] == 0:
                        assert np.all(col == 0.0)
                    else:
                        assert np.any(col != 0.0)

    def test_gfa_reduction_consumes_no_u_draws(self):
        # all-matrix collection: no U in the state, and the sampler is exactly
        # the multi-view matrix factorization
        gen = np.random.default_rng(23)
        c = Collection((
            MaskedTensor3.fully_observed(gen.standard_normal((10, 4, 1))),
            MaskedTensor3.fully_observed(gen.standard_normal((10, 3, 1))),
        ))
        hp = small_hp(burn_in=1, n_samples=2, thin=1)
        samples = run_chain(c, hp, RngStream(21))
        for state in samples.states:
            assert state.U == []

    def test_view_without_observed_entries_rejected(self):
        gen = np.random.default_rng(24)
        blank = np.zeros((8, 4, 2))
        c = Collection((MaskedTensor3.fully_observed(gen.standard_normal((8, 3, 1))),
                        MaskedTensor3(Tensor3(blank), np.zeros_like(blank, dtype=bool))),
                       (), ("mat", "blank"))
        hp = small_hp(burn_in=1, n_samples=1, thin=1)
        data = prepare(c, hp, validate=False)
        with pytest.raises(ValueError, match="view 1 \\('blank'\\) has no observed entries"):
            run_chain(data, hp, RngStream(24))

    def test_prior_recovery_all_masked(self):
        # all entries masked: hyperparameter posteriors equal their priors
        vals = np.zeros((6, 3, 2))
        v = MaskedTensor3(Tensor3(vals), np.zeros_like(vals, dtype=bool))
        c = Collection((v,))
        hp = small_hp(k=2, a_pi=2.0, b_pi=3.0, a_alpha=2.5, b_alpha=2.0,
                      a_tau=3.0, b_tau=2.0)
        data = prepare(c, hp, validate=False)
        state = init_state(data, hp, RngStream(22))
        gen = RngStream(23).gen
        pis, taus, alphas = [], [], []
        for _ in range(4000):
            mtf_sweep(state, data, gen)
            pis.append(state.pi.copy())
            taus.append(state.tau.copy())
            alphas.append(state.alpha[0].mean())
        assert abs(np.mean(pis) - 2.0 / 5.0) < 0.02
        assert abs(np.var(pis) - (2 * 3) / (25 * 6)) < 0.01
        assert abs(np.mean(taus) - 3.0 / 2.0) < 0.05
        assert abs(np.mean(alphas) - 2.5 / 2.0) < 0.05


class TestComponentStructure:
    def _samples_with_h(self, h_list):
        """Posterior samples stub whose snapshots carry the given H matrices."""
        c = make_collection(np.random.default_rng(24), n=6)
        hp = small_hp(k=h_list[0].shape[1], burn_in=0,
                      n_samples=len(h_list), thin=1)
        samples = run_chain(c, hp, RngStream(23))
        for st, h in zip(samples.states, h_list):
            st.H = h
        return samples

    def test_all_shared(self):
        h = np.ones((2, 3))
        s = component_structure(self._samples_with_h([h, h]))
        assert s.counts == (3, (0, 0), 0)

    def test_all_empty(self):
        h = np.zeros((2, 3))
        s = component_structure(self._samples_with_h([h, h]))
        assert s.counts == (0, (0, 0), 3)
        assert s.effective_cardinality == 0

    def test_mixed_counts(self):
        h = np.array([[1.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 1.0, 0.0]])
        s = component_structure(self._samples_with_h([h, h, h]))
        assert s.counts == (1, (1, 1), 1)
        assert s.effective_cardinality == 3

    def test_view_groups_any_rule(self):
        # merging views 0 and 1: a component active in either is active in the group
        h = np.array([[1.0, 0.0, 1.0],
                      [0.0, 0.0, 1.0]])
        samples = self._samples_with_h([h])
        s = component_structure(samples, view_groups=[[0, 1]])
        assert s.counts == (0, (2,), 1)

    def test_threshold_on_posterior_mean(self):
        on = np.array([[1.0, 1.0], [1.0, 0.0]])
        off = np.array([[1.0, 0.0], [1.0, 0.0]])
        # component 1 active in view 0 in 2 of 3 snapshots -> mean 2/3 > 0.5
        s = component_structure(self._samples_with_h([on, on, off]))
        assert s.counts == (1, (1, 0), 0)


class TestPriorSimulator:
    def test_prior_state_spike_consistent(self):
        c = make_collection(np.random.default_rng(25))
        hp = small_hp()
        data = prepare(c, hp)
        for i in range(20):
            st = sample_state_from_prior(data, hp, RngStream(i, 1).gen)
            for t in range(2):
                inactive = st.H[t] == 0
                assert np.all(st.V[t][:, inactive] == 0.0)

    def test_simulated_data_moments(self):
        c = make_collection(np.random.default_rng(26))
        hp = small_hp()
        data = prepare(c, hp)
        state = sample_state_from_prior(data, hp, RngStream(3, 1).gen)
        gen = RngStream(4).gen
        xs = np.stack([simulate_data(state, data, gen)[0] for _ in range(3000)])
        from mtfact.mtf import _recon_nld
        np.testing.assert_allclose(xs.mean(axis=0), _recon_nld(state, 0),
                                   atol=6.0 / np.sqrt(3000 * state.tau[0]))
