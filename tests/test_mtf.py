import numpy as np
import pytest
from scipy import integrate, stats

import mtfact.mtf as mtf_mod
import mtfact.rmtf as rmtf_mod
from mtfact.core import Collection, MaskedTensor3, Tensor3
from mtfact.diag import _residuals, toy_grouped, toy_masks
from mtfact.dist import RngStream, draw_bernoulli_logodds, outer_rows
from mtfact.mtf import (
    HyperParams,
    MtfState,
    _column_step,
    _slab_evidence,
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


def _einsum_cp_als(data, resid, z, vs, us, n_iter):
    """Reference CP-ALS updates: each target Y_t = R_t + z B_t^T formed as
    (N, L, D), one einsum contraction per normal-equation term, and
    ``np.linalg.lstsq`` (min-norm) for every solve."""
    def u_of(us, t):
        return us[data.group_of[t]] if t in data.group_of else np.ones((1, z.shape[1]))

    def solve(gram, rhs):  # x gram = rhs
        return np.linalg.lstsq(gram, rhs.T, rcond=None)[0].T

    ys = [r.reshape(data.n, v.l, v.d) + np.einsum("nj,lj,dj->nld", z, u_of(us, t), vs[t])
          for t, (r, v) in enumerate(zip(resid, data.views))]
    vs, us = list(vs), list(us)
    for _ in range(n_iter):
        zz = z.T @ z
        for t, y in enumerate(ys):
            u = u_of(us, t)
            vs[t] = solve(zz * (u.T @ u), np.einsum("nld,nj,lj->dj", y, z, u))
        for g, members in enumerate(data.u_groups):
            us[g] = solve(sum(zz * (vs[t].T @ vs[t]) for t in members),
                          sum(np.einsum("nld,nj,dj->lj", ys[t], z, vs[t]) for t in members))
        z = solve(sum((u_of(us, t).T @ u_of(us, t)) * (v.T @ v) for t, v in enumerate(vs)),
                  sum(np.einsum("nld,lj,dj->nj", y, u_of(us, t), vs[t])
                      for t, y in enumerate(ys)))
    return z, vs, us


def _einsum_subtract_component(data, resid, z, bs):
    """Reference subtraction of z B_t^T, masked, on each residual as
    (N, L, D), in place."""
    for t, (v, b) in enumerate(zip(data.views, bs)):
        upd = np.einsum("nj,ldj->nld", z, b.reshape(v.l, v.d, -1))
        if v.obs is not None:
            upd *= v.obs
        resid[t].reshape(data.n, v.l, v.d)[...] -= upd


def _slab_evidence_logodds(m, prior_prec, prior_mean, s):
    """The column step's evidence before it formed its constants once per
    call: log evidence ratio (slab vs spike) summed over the last axis, and
    every coefficient's posterior mean and precision."""
    denom = prior_prec + s
    shifted = prior_prec * prior_mean + m
    terms = 0.5 * (np.log(prior_prec) - np.log(denom)) \
        + shifted ** 2 / (2.0 * denom) - prior_prec * prior_mean ** 2 / 2.0
    return np.sum(terms, axis=-1), shifted / denom, denom


def _reference_column_step(xb, gram, w, tau, rho, mu, logit_pi, h, gen):
    """The column step as it was before it formed its constants once per
    call: every statistic from the whole (S, D, K) loadings per component,
    in the same draw order (S uniforms, then the active slabs' normals)."""
    tau = np.reshape(tau, (-1, 1))
    rho, mu = np.broadcast_to(rho, w.shape), np.broadcast_to(mu, w.shape)
    for k in range(w.shape[-1]):
        g_kk = gram[..., k, k]
        cross = np.sum(w * gram[..., k, :], axis=-1) - w[..., k] * g_kk
        lo, mean, prec = _slab_evidence_logodds(tau * (xb[..., k] - cross), rho[..., k],
                                                mu[..., k], tau * g_kk)
        h[:, k] = draw_bernoulli_logodds(logit_pi[k] + lo, gen)
        on = h[:, k] > 0
        w[..., k] = 0.0
        w[on, :, k] = mean[on] + gen.standard_normal(mean[on].shape) / np.sqrt(prec[on])


def _evidence(m, prior_prec, prior_mean, s):
    """``_slab_evidence`` of one column of len(m) coefficients with tau = 1
    and no cross term: (log evidence ratio, posterior mean, precision)."""
    col = lambda x: np.broadcast_to(x, np.shape(m))[None, :, None]
    mu = prior_mean if np.ndim(prior_mean) == 0 else col(prior_mean)
    lo, mean, prec, _ = _slab_evidence(col(m), col(s), 1.0, col(prior_prec), mu)(0, 0.0)
    return lo[0], mean[0], np.broadcast_to(prec, mean.shape)[0]


def _residual_column_reference(state, data, t, gen, model):
    """Reference collapsed column update of view t on the residual, with
    the statistics m and s of the residual-based ``update_vh`` (model "mtf")
    and ``_update_wh`` ("rmtf"), in the draw order of ``mtf._column_step``:
    per component, one uniform per slab, then the active slabs' normals.
    Updates the state in place; returns the (log odds, posterior mean,
    posterior precision) of each component, stacked over its slabs."""
    v = data.views[t]
    Z, u = state.Z, state.u_for_view(t)
    z2, u2 = Z ** 2, u ** 2
    obs = np.ones_like(v.x) if v.obs is None else v.obs
    R = _residuals(state, data)[t]
    if model == "mtf":
        W, H, tau = state.V[t][None], state.H[t:t + 1], np.array([state.tau[t]])
        rho, mu = np.broadcast_to(state.alpha[t], W.shape), np.zeros(W.shape)
    elif v.is_matrix():
        W, H, tau = state.W[t], state.H[t], state.tau[t]
        rho, mu = np.broadcast_to(state.alpha[t], W.shape), np.zeros(W.shape)
    else:
        W, H, tau = state.W[t], state.H[t], state.tau[t]
        rho = np.broadcast_to(state.lam_lk(t, v.l)[:, None, :], W.shape)
        mu = u[:, None, :] * state.V[t][None, :, :]
    out = []
    for k in range(state.k):
        cols = []
        for s in range(W.shape[0]):
            if model == "mtf":
                sdata = np.einsum("nld,n,l->d", obs, z2[:, k], u2[:, k], optimize=True)
                proj = np.einsum("nld,n,l->d", R, Z[:, k], u[:, k], optimize=True)
            else:
                sdata = obs[:, s, :].T @ z2[:, k]
                proj = R[:, s, :].T @ Z[:, k]
            m = tau[s] * (proj + W[s, :, k] * sdata)
            cols.append(_slab_evidence_logodds(m, rho[s, :, k], mu[s, :, k], tau[s] * sdata))
        lo, mean, prec = (np.array(x) for x in zip(*cols))
        out.append((lo, mean, prec))
        on = draw_bernoulli_logodds(np.log(state.pi[k] / (1.0 - state.pi[k])) + lo, gen) > 0
        w_new = np.zeros_like(mean)
        w_new[on] = mean[on] + gen.standard_normal(mean[on].shape) / np.sqrt(prec[on])
        dw = W[:, :, k] - w_new
        if model == "mtf":
            R += Z[:, k, None, None] * np.multiply.outer(u[:, k], dw[0])[None] * obs
        else:
            R += Z[:, k, None, None] * dw[None] * obs
        W[:, :, k] = w_new
        H[:, k] = on
    return out


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
        monkeypatch.setattr(mtf_mod, "_cp_als", _einsum_cp_als)
        monkeypatch.setattr(mtf_mod, "_subtract_component", _einsum_subtract_component)
        ref = starts()
        assert np.any(ref[0].Z != 0.0)          # at least one component kept
        for a, b in zip(new, ref):
            for field in ("V", "U", "W"):
                for x, y in zip(getattr(a, field, []), getattr(b, field, [])):
                    np.testing.assert_allclose(x, y, rtol=1e-10)
            np.testing.assert_allclose(a.Z, b.Z, rtol=1e-10)


def _cp_inputs(data, j, seed):
    """Random factors of J components and the residuals they leave, zero at
    masked entries."""
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((data.n, j))
    vs = [gen.standard_normal((v.d, j)) for v in data.views]
    us = [gen.standard_normal((data.views[g[0]].l, j)) for g in data.u_groups]
    return _residuals_of(data, z, vs, us), z, vs, us


def _residuals_of(data, z, vs, us):
    """Each view's (N, L*D) residual of the factors, zero at masked entries."""
    out = []
    for t, v in enumerate(data.views):
        u = us[data.group_of[t]] if t in data.group_of else np.ones((1, z.shape[1]))
        r = v.x - np.einsum("nj,lj,dj->nld", z, u, vs[t])
        out.append((r if v.obs is None else r * v.obs).reshape(data.n, -1))
    return out


class TestCpAls:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, j", [("dense", 3), ("masked", 3), ("grouped", 3),
                                         ("all_masked", 3), ("n_below_j", 5)])
    def test_block_updates_match_einsum_reference(self, name, j):
        # J > 1 on dense, masked, grouped-U and all-masked views, and with
        # N = 3 < J latent rows, whose Gram z^T z is singular
        if name == "n_below_j":
            c, validate = make_collection(np.random.default_rng(0), n=3), True
        else:
            c, validate = _warm_start_collections()[name]
        data = prepare(c, small_hp(), validate=validate)
        resid, z, vs, us = _cp_inputs(data, j, 6)
        if name == "all_masked":
            vs[1][:] = 0.0      # the masked view's U Gram is then zero
        got = mtf_mod._cp_als(data, resid, z, vs, us, 3)
        want = _einsum_cp_als(data, resid, z, vs, us, 3)
        for a, b in zip([got[0], *got[1], *got[2]], [want[0], *want[1], *want[2]], strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name", ["dense", "masked", "grouped"])
    def test_polish_never_raises_observed_rss(self, name):
        c, validate = _warm_start_collections()[name]
        data = prepare(c, small_hp(k=4), validate=validate)
        rss = []
        for n_polish in range(6):
            z, vs, us = mtf_mod._deflation_start(data, 4, RngStream(8).gen, n_polish=n_polish)
            rss.append(sum(float(np.sum(r * r)) for r in _residuals_of(data, z, vs, us)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(rss, rss[1:])), rss
        assert rss[-1] < rss[0]


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


class TestRowPatterns:
    """``prepare`` groups the rows once by their joint missingness pattern."""

    def test_dense_collection_is_one_pattern(self):
        data = prepare(make_collection(np.random.default_rng(0)), small_hp())
        np.testing.assert_array_equal(data.patterns, np.zeros(data.n))
        assert all(v.pattern_obs is None for v in data.views)

    def test_pattern_order_and_rows(self):
        c = make_masked_rows_collection(np.random.default_rng(21))
        data = prepare(c, small_hp(k=3))
        obs = np.concatenate([v.observed.transpose(0, 2, 1).reshape(c.n_samples, -1)
                              for v in c.views], axis=1).astype(float)
        want, inverse = np.unique(obs, axis=0, return_inverse=True)
        assert data.patterns.max() + 1 == want.shape[0] > 2
        np.testing.assert_array_equal(np.concatenate([v.pattern_obs for v in data.views], axis=1),
                                      want)
        np.testing.assert_array_equal(data.patterns, inverse)
        for v in data.views:    # the index reproduces every observation row
            np.testing.assert_array_equal(v.pattern_obs[data.patterns],
                                          v.obs.reshape(c.n_samples, -1))

    def test_all_masked_row_is_its_own_pattern(self, monkeypatch):
        c = make_masked_rows_collection(np.random.default_rng(21))
        hp = small_hp(k=3)
        data = prepare(c, hp)
        assert np.nonzero(data.patterns == data.patterns[2])[0].tolist() == [2]
        state = init_state(data, hp, RngStream(4))
        seen = stacked_draw_spy(monkeypatch, mtf_mod)
        update_z(state, data, RngStream(5).gen)
        (prec, _), = seen
        np.testing.assert_array_equal(prec[2], np.eye(hp.k))


def _stats_collection(case: str, n: int = 30, d: int = 4, l: int = 6) -> Collection:
    """A matrix (n, d, 1) and one tensor (n, d, l), or two grouped tensors
    for "grouped", with random values and the row patterns that ``case`` names."""
    gen = np.random.default_rng(61)
    shapes = [(n, d, 1), (n, d, l)] + [(n, d, l)] * (case == "grouped")
    obs = [np.ones(s, dtype=bool) for s in shapes]
    rows = np.arange(n)
    if case in ("slabs", "grouped"):     # rows interleaved over 3 shared slab patterns
        obs[1][rows % 3 == 1, :, :2] = False
        obs[1][rows % 3 == 2, :, 3:] = False
    if case == "grouped":                # the second tensor splits them into 6
        obs[2][rows % 2 == 1, :, 1] = False
    elif case == "entries":
        obs[1] = gen.random(shapes[1]) > 0.3
    elif case == "one":
        obs[1][:, :, 0] = False
    elif case == "two_views":            # 2 and 3 patterns of their own, 6 joint
        obs[0][rows % 2 == 1, 0] = False
        obs[1][rows % 3 == 1, 1, :] = False
        obs[1][rows % 3 == 2, 2, 4] = False
    views = tuple(MaskedTensor3(Tensor3(gen.standard_normal(s)), o) for s, o in zip(shapes, obs))
    return Collection(views, ((1, 2),) if case == "grouped" else (), ())


class TestSweepStatistics:
    """``_view_stats`` and ``z_conditional`` against the direct all-row forms
    X^T Z, sum_n obs[n] z_n z_n^T and X (tau B), whatever the row patterns."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case, n_patterns", [("slabs", 3), ("entries", 30), ("one", 1),
                                                  ("two_views", 6), ("grouped", 6)])
    def test_matches_all_row_forms(self, case, n_patterns):
        k = 5
        data = prepare(_stats_collection(case), small_hp(k=k))
        assert data.patterns.max() + 1 == len(data.pattern_starts) == n_patterns
        state = sample_state_from_prior(data, data.hp, RngStream(62))
        state.V = [np.random.default_rng(63).standard_normal(v.shape) for v in state.V]
        z, blocks = state.Z, mtf_mod._z_blocks(state, data)   # slabs u_l * V, U shared by group
        lin, prec = np.zeros((data.n, k)), np.eye(k)
        for t, (v, (x, rows, w, tau)) in enumerate(zip(data.views, blocks)):
            xtz, gram = mtf_mod._view_stats(data, t, z)
            np.testing.assert_allclose(xtz, (v.x.reshape(v.n, -1).T @ z).reshape(v.l, v.d, k),
                                       rtol=1e-10)
            want = z.T @ z if v.obs is None else \
                (v.obs.reshape(v.n, -1).T @ outer_rows(z)).reshape(v.l, v.d, k, k)
            np.testing.assert_allclose(gram, want, rtol=1e-10, atol=1e-12)
            b, tw = w.reshape(-1, k), np.repeat(tau, v.d)
            lin = lin + x.reshape(data.n, -1) @ (tw[:, None] * b)
            prec = prec + ((tw[:, None] * b).T @ b if rows is None else
                           (rows @ outer_rows(b, tw)).reshape(-1, k, k))
        got_lin, got_prec = mtf_mod.z_conditional(blocks, k)
        np.testing.assert_allclose(got_lin, lin, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got_prec, prec, rtol=1e-10)
        assert got_prec.shape == (n_patterns, k, k)
        if case == "two_views":   # the joint patterns outnumber each view's own
            assert all(len(np.unique(v.pattern_obs, axis=0)) < n_patterns for v in data.views)


class TestSpikeSlabEvidence:
    def test_against_quadrature(self):
        # D=2 independent coefficients, small s: integrate the slab numerically
        m = np.array([0.7, -1.3])
        s = np.array([0.21, 0.08])
        alpha = np.array([1.7, 0.9])
        lo, post_mean, post_prec = _evidence(m, alpha, 0.0, s)
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
        lo, post_mean, _ = _evidence(m, rho, mu, s)
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

    @pytest.mark.parametrize("model", ["mtf", "rmtf"])
    @pytest.mark.parametrize("name", list(_warm_start_collections()))
    def test_matches_residual_reference(self, name, model, monkeypatch):
        # the column step on X^T Z and Gram statistics scores and draws every
        # column as the residual-based update did, view by view
        c, validate = _warm_start_collections()[name]
        hp = small_hp(k=3)
        data = prepare(c, hp, validate=validate)
        init, step = {"mtf": (init_state, update_vh),
                      "rmtf": (rmtf_init, rmtf_mod._update_wh)}[model]
        new = init(data, hp, RngStream(8))
        new.pi = np.array([0.3, 0.5, 0.7])
        ref = new.copy()
        seen = []

        def spy(*args):
            evidence = _slab_evidence(*args)

            def per_component(k, cross):
                lo, mean, prec, sd = evidence(k, cross)
                seen.append((lo, mean, np.broadcast_to(prec, mean.shape)))
                return lo, mean, prec, sd
            return per_component

        monkeypatch.setattr(mtf_mod, "_slab_evidence", spy)
        gen_new, gen_ref = RngStream(9).gen, RngStream(9).gen
        for t in range(data.n_views):
            del seen[:]
            step(new, data, t, gen_new)
            want = _residual_column_reference(ref, data, t, gen_ref, model)
            assert len(seen) == len(want) == hp.k
            for got, exp in zip(seen, want):
                for a, b in zip(got, exp):
                    np.testing.assert_allclose(a, b, rtol=1e-10)
        for field in ("V", "W", "H"):
            for a, b in zip(getattr(new, field, []), getattr(ref, field, [])):
                np.testing.assert_allclose(a, b, rtol=1e-10)

    @pytest.mark.parametrize("name", list(_warm_start_collections()))
    def test_three_sweeps_match_residual_reference(self, name, monkeypatch):
        # MTF keeps its draw order, so seeded sweeps match the reference
        c, validate = _warm_start_collections()[name]
        hp = small_hp(k=3)
        data = prepare(c, hp, validate=validate)
        start = init_state(data, hp, RngStream(8))

        def sweeps():
            state, gen = start.copy(), RngStream(10).gen
            for _ in range(3):
                mtf_sweep(state, data, gen)
            return state

        new = sweeps()
        monkeypatch.setattr(mtf_mod, "update_vh", lambda state, data, t, rng, grams:
                            _residual_column_reference(state, data, t, rng, "mtf"))
        ref = sweeps()
        np.testing.assert_array_equal(new.H, ref.H)
        for field in ("Z", "V", "U", "alpha", "tau", "pi"):
            a, b = getattr(new, field), getattr(ref, field)
            for x, y in zip(a, b) if isinstance(a, list) else [(a, b)]:
                np.testing.assert_allclose(x, y, rtol=1e-10)


def _column_step_cases():
    """(model, lambda mode, view, masked): MTF on both views, the rMTF
    matrix view, and the rMTF tensor view in every lambda mode."""
    cases = []
    for masked in (False, True):
        cases += [("mtf", "global", 0, masked), ("mtf", "global", 1, masked),
                  ("rmtf", "global", 0, masked)]
        cases += [("rmtf", mode, 1, masked) for mode in ("global", "per_component", "per_slab")]
    return cases


def _kernel_inputs(gen, masked, s=3, d=4, k=3):
    """Direct ``_column_step`` inputs with a nonzero slab mean: (xb, gram,
    w, tau, rho, mu, h); the Gram is shared, or per (s, d) when masked."""
    z = gen.standard_normal((12, k))
    if masked:
        obs = gen.random((12, s, d)) > 0.3
        gram = np.einsum("nsd,nk,nj->sdkj", obs, z, z)
    else:
        gram = z.T @ z
    return (gen.standard_normal((s, d, k)), gram, gen.standard_normal((s, d, k)),
            gen.gamma(2.0, size=s), gen.gamma(2.0, size=(s, 1, k)),
            gen.standard_normal((s, d, k)), np.ones((s, k)))


class TestColumnStepReference:
    """The column step against its form before it formed the precisions,
    log-normalizers and evidence constants once per call: one seeded step
    gives the same loadings to rounding, the same activity and the same
    generator state (so the same number of draws)."""

    @staticmethod
    def _both(args, logit_pi, seed=5):
        out = []
        for kernel in (_column_step, _reference_column_step):
            xb, gram, w, tau, rho, mu, h = (np.copy(a) for a in args)
            gen = RngStream(seed).gen
            kernel(xb, gram, w, tau, rho, mu, logit_pi, h, gen)
            out.append((w, h, gen.bit_generator.state))
        return out

    @pytest.mark.parametrize("model,mode,t,masked", _column_step_cases())
    def test_one_step_matches_reference(self, model, mode, t, masked, monkeypatch):
        gen = np.random.default_rng(61)
        c = _planted(make_collection(gen, masked=masked), gen)
        hp = small_hp(k=4, lambda_mode=mode)
        data = prepare(c, hp)
        init, sweep, step, module, field = {
            "mtf": (init_state, mtf_sweep, update_vh, mtf_mod, "V"),
            "rmtf": (rmtf_init, rmtf_mod.rmtf_sweep, rmtf_mod._update_wh, rmtf_mod, "W")}[model]
        state = init(data, hp, RngStream(3))
        for _ in range(2):
            sweep(state, data, RngStream(4).gen)
        state.pi = np.array([0.05, 0.3, 0.6, 0.95])
        new, ref = state.copy(), state.copy()
        gen_new, gen_ref = RngStream(5).gen, RngStream(5).gen
        step(new, data, t, gen_new)
        monkeypatch.setattr(module, "_column_step", _reference_column_step)
        step(ref, data, t, gen_ref)
        np.testing.assert_allclose(getattr(new, field)[t], getattr(ref, field)[t], rtol=1e-10)
        np.testing.assert_array_equal(new.H[t], ref.H[t])
        assert gen_new.bit_generator.state == gen_ref.bit_generator.state

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_component_off_in_every_slab_draws_no_normals(self, masked, zero_mean):
        args = list(_kernel_inputs(np.random.default_rng(62), masked))
        if zero_mean:
            args[5] = 0.0
        (w, h, state), (w_ref, h_ref, state_ref) = self._both(args, np.array([0.5, -np.inf, 0.3]))
        assert np.all(h[:, 1] == 0) and np.all(w[..., 1] == 0.0)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10)
        np.testing.assert_array_equal(h, h_ref)
        assert state == state_ref

    @pytest.mark.parametrize("masked", [False, True])
    def test_infinite_log_odds_still_draw_uniforms(self, masked):
        args = _kernel_inputs(np.random.default_rng(63), masked)
        (w, h, state), (w_ref, h_ref, state_ref) = self._both(args, np.array([np.inf, -np.inf, 0.0]))
        assert np.all(h[:, 0] == 1) and np.all(h[:, 1] == 0)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10)
        np.testing.assert_array_equal(h, h_ref)
        assert state == state_ref

    @pytest.mark.parametrize("masked", [False, True])
    def test_nan_statistic_raises(self, masked):
        xb, gram, w, tau, rho, mu, h = _kernel_inputs(np.random.default_rng(64), masked)
        xb[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            _column_step(xb, gram, w, tau, rho, mu, np.zeros(3), h, RngStream(6).gen)


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
        zero_rss = [np.zeros(v.l) for v in data.views]
        draws = []
        for i in range(2000):
            update_hypers(state, data, RngStream(i, 6).gen, rss=zero_rss)
            draws.append(state.tau.copy())
        taus = np.array(draws)
        for t, v in enumerate(data.views):
            expect = (hp.a_tau + v.n_obs / 2.0) / 2.0
            assert abs(taus[:, t].mean() - expect) / expect < 0.05


def _stat_collections():
    """Dense, masked, grouped, masked+grouped and matrix-only collections."""
    gen = np.random.default_rng(30)
    sizes = (7, 4, 3)
    return {"dense": make_collection(gen, n=9),
            "masked": make_masked_rows_collection(gen),
            "grouped": toy_grouped(sizes),
            "masked_grouped": toy_grouped(sizes, toy_masks(sizes, n_tensors=2)),
            "matrices": Collection(tuple(MaskedTensor3.fully_observed(
                gen.standard_normal((9, d, 1))) for d in (4, 5)))}


def _residual_rss(state, data):
    return [(r ** 2).sum(axis=(0, 2)) for r in _residuals(state, data)]


class TestSufficientStatistics:
    """Residual sums of squares, the U-step and the log joint from X^T Z and
    the Gram equal their residual-based values."""

    @staticmethod
    def _setup(name, model, seed=31):
        # a proper beta prior keeps rMTF's prior loadings finite in scale: the
        # identity cancels ||X||^2 against the fit, so its relative error
        # grows with ||X||^2 / RSS
        hp = small_hp(k=3, a_beta=2.0, b_beta=2.0)
        data = prepare(_stat_collections()[name], hp)
        prior = sample_state_from_prior if model == "mtf" else \
            rmtf_mod.rmtf_sample_state_from_prior
        state = prior(data, hp, RngStream(seed))
        # random data through the harness hook, which refreshes ||X_l||^2
        for t, x in enumerate(simulate_data(state, data, RngStream(seed, 1))):
            data.set_values(t, x)
        return data, state

    @pytest.mark.parametrize("model", ["mtf", "rmtf"])
    @pytest.mark.parametrize("name", list(_stat_collections()))
    def test_rss_and_log_joint(self, name, model):
        data, state = self._setup(name, model)
        ref = _residual_rss(state, data)
        for got, want in zip(mtf_mod._rss(state, data), ref):
            np.testing.assert_allclose(got, want, rtol=1e-10)
        lj = log_joint if model == "mtf" else rmtf_mod.rmtf_log_joint
        assert lj(state, data) == pytest.approx(lj(state, data, rss=ref), rel=1e-10)
        # the sweep's own statistics, exact as of its end
        sweep = mtf_sweep if model == "mtf" else rmtf_mod.rmtf_sweep
        rss = sweep(state, data, RngStream(32).gen)
        for got, want in zip(rss, _residual_rss(state, data)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("name", ["dense", "masked", "grouped", "masked_grouped"])
    def test_u_step_matches_residual_form(self, name, monkeypatch):
        data, state = self._setup(name, "mtf")
        for g, members in enumerate(data.u_groups):
            seen = stacked_draw_spy(monkeypatch, mtf_mod)
            update_u(state, data, g, RngStream(33).gen)
            (prec, mean), = seen
            lin, want = 0.0, np.eye(state.k)
            for t in members:
                v, vt, tau = data.views[t], state.V[t], state.tau[t]
                obs = np.ones_like(v.x) if v.obs is None else v.obs
                lin = lin + tau * np.einsum("nlk,nk->lk", v.x @ vt, state.Z)
                want = want + tau * np.einsum("nld,nk,dk,nj,dj->lkj", obs, state.Z, vt,
                                              state.Z, vt)
            np.testing.assert_allclose(prec, want, rtol=1e-10)
            np.testing.assert_allclose(mean, np.linalg.solve(want, lin[..., None])[..., 0],
                                       rtol=1e-10)
            monkeypatch.undo()

    def test_dense_z_precision_matches_slab_loadings(self, monkeypatch):
        # the Z-step sums tau b b^T over the slab loadings b = u_l * v_d; on
        # fully observed views the strict model's sum has the closed form
        # I + sum_t tau_t (V_t^T V_t) * (U_t^T U_t)
        data, state = self._setup("grouped", "mtf")
        seen = stacked_draw_spy(monkeypatch, mtf_mod)
        update_z(state, data, RngStream(34).gen)
        (prec, mean), = seen
        assert mtf_mod.z_conditional(mtf_mod._z_blocks(state, data), state.k)[1].shape == \
            (state.k, state.k)   # one precision shared by every row
        want, lin = np.eye(state.k), 0.0
        for t, v in enumerate(data.views):
            u, vt = state.u_for_view(t), state.V[t]
            want = want + state.tau[t] * (vt.T @ vt) * (u.T @ u)
            lin = lin + state.tau[t] * np.einsum("nld,lk,dk->nk", v.x, u, vt)
        np.testing.assert_allclose(prec, np.broadcast_to(want, prec.shape), rtol=1e-10)
        np.testing.assert_allclose(mean, np.linalg.solve(want, lin.T).T, rtol=1e-10,
                                   atol=1e-12)

    @pytest.mark.parametrize("name", ["dense", "masked"])
    def test_exact_fit_rss_not_negative(self, name):
        # X = Z W^T: the exact RSS is 0, which rounding must not push below
        data, state = self._setup(name, "mtf")
        for t in range(data.n_views):
            data.set_values(t, mtf_mod._recon_nld(state, t))
        factored = [mtf_mod._slab_rss(v.x2, mtf_mod._strict_stats(
            mtf_mod._view_stats(data, t, state.Z), state.V[t]), state.u_for_view(t))
            for t, v in enumerate(data.views)]
        for v, a, b in zip(data.views, mtf_mod._rss(state, data), factored):
            for rss in (a, b):
                assert np.all(rss >= 0.0) and np.all(rss <= 1e-10 * v.x2)

    def test_set_values_refreshes_norms(self):
        data, state = self._setup("masked", "rmtf")
        new = simulate_data(state, data, RngStream(35))
        data.set_values(1, 3.0 * new[1])
        for got, want in zip(mtf_mod._rss(state, data), _residual_rss(state, data)):
            np.testing.assert_allclose(got, want, rtol=1e-10)


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
        # views 0 and 1 unfold one tensor: a component active in either is active in it
        h = np.array([[1.0, 0.0, 1.0],
                      [0.0, 0.0, 1.0]])
        samples = self._samples_with_h([h])
        samples.origins = [0, 0]
        s = component_structure(samples)
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
