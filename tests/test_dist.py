import numpy as np
import pytest
from scipy import stats

from mtfact.dist import (
    NotPositiveDefiniteError,
    RngStream,
    _chol_jittered,
    cholesky_precision,
    cholesky_stack,
    draw_bernoulli_logodds,
    draw_mvn_precision_chol,
    stacked_precisions,
)


def _draw_shared(h, chol, gen):
    """Rows of h (N, K) drawn with the one shared factor chol (K, K): a
    single pattern holding every row, on one (N, K) block of normals."""
    return draw_mvn_precision_chol(h, chol[None], np.zeros(h.shape[0], dtype=int),
                                   gen.standard_normal(h.shape))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(99, 3).gen.standard_normal(10)
        b = RngStream(99, 3).gen.standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(99, 0).gen.standard_normal(10)
        b = RngStream(99, 1).gen.standard_normal(10)
        assert not np.allclose(a, b)


class TestGamma:
    def test_variance_moment(self):
        a, b, n = 3.0, 2.0, 10**6
        draws = RngStream(2).gen.gamma(a, 1.0 / b, size=n)
        # var = a/b^2; MC standard error of the variance estimate
        mc_se = np.sqrt((stats.gamma(a, scale=1 / b).moment(4)
                         - (a / b**2 + (a / b) ** 2) ** 2) / n)
        assert abs(draws.var() - a / b**2) < 3 * mc_se + 3e-3


class TestBeta:
    def test_uniform_ks(self):
        gen = RngStream(3).gen
        draws = gen.beta(1.0, 1.0, size=10**5)
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_moment(self):
        draws = RngStream(5).gen.beta(2.0, 3.0, size=10**6)
        assert abs(draws.mean() - 0.4) < 0.005


class TestMvnPrecision:
    def test_identity(self):
        gen = RngStream(6).gen
        draws = _draw_shared(np.zeros((10**5, 3)), np.eye(3), gen)
        cov = np.cov(draws.T)
        assert np.all(np.abs(cov - np.eye(3)) < 3 * np.sqrt(2.0 / 10**5) + 0.01)

    def test_diagonal_closed_form(self):
        gen = RngStream(7).gen
        prec = np.diag(np.full(4, 4.0))
        h = np.full((200000, 4), 4.0)
        draws = _draw_shared(h, cholesky_precision(prec), gen)
        assert np.allclose(draws.mean(axis=0), 1.0, atol=0.01)
        assert np.allclose(draws.var(axis=0), 0.25, atol=0.01)

    def test_random_spd_vs_dense_solve(self):
        gen = RngStream(8).gen
        a = gen.standard_normal((4, 4))
        prec = a @ a.T + 4 * np.eye(4)
        cov_true = np.linalg.solve(prec, np.eye(4))  # independent dense oracle
        h = gen.standard_normal(4)
        mean_true = cov_true @ h
        draws = _draw_shared(np.tile(h, (10**5, 1)), cholesky_precision(prec), gen)
        se = 3 * np.sqrt(np.diag(cov_true) / 10**5)
        assert np.all(np.abs(draws.mean(axis=0) - mean_true) < 3 * se + 0.01)
        assert np.all(np.abs(np.cov(draws.T) - cov_true) < 0.02)

    def test_non_spd_reports_minor(self):
        mat = np.eye(3)
        mat[2, 2] = -1.0
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_precision(mat)
        assert err.value.minor == 3

    def test_single_vector_shape(self):
        # one row, alone and with a leading axis of four draws sharing its mean
        chol = cholesky_precision(np.eye(3))[None]
        eps = RngStream(9).gen.standard_normal((4, 1, 3))
        out = draw_mvn_precision_chol(np.ones((1, 3)), chol, np.zeros(1, dtype=int), eps[0])
        assert out.shape == (1, 3)
        np.testing.assert_array_equal(out, 1.0 + eps[0])
        out = draw_mvn_precision_chol(np.ones((1, 3)), chol, np.zeros(1, dtype=int), eps)
        assert out.shape == (4, 1, 3)
        np.testing.assert_array_equal(out, 1.0 + eps)


class TestStackedGaussians:
    def test_cholesky_stack_rescues_only_by_jitter(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal((3, 4, 6))
        precs = a @ a.transpose(0, 2, 1) + np.eye(4)
        precs[1] = np.diag([2.0, 1.0, 3.0, -1e-12])   # not positive definite
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_precision(precs[1])
        chols = cholesky_stack(precs)
        np.testing.assert_array_equal(chols[1], _chol_jittered(precs[1]))
        for m in (0, 2):
            np.testing.assert_allclose(chols[m], np.linalg.cholesky(precs[m]),
                                       rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("m", [2, 7])   # fewer and more rows than K = 4
    def test_stacked_precisions_match_loop(self, m):
        gen = np.random.default_rng(6)
        base = np.eye(4) * 1.5
        terms = [(gen.random((m, 5)) > 0.4, gen.standard_normal((5, 4)), 0.7),
                 (gen.random((m, 3)) > 0.4, gen.standard_normal((3, 4)), gen.random(3))]
        want = np.stack([base.copy() for _ in range(m)])
        for obs, b, w in terms:
            w = np.broadcast_to(w, (b.shape[0],))
            for i in range(m):
                for r in range(b.shape[0]):
                    if obs[i, r]:
                        want[i] += w[r] * np.outer(b[r], b[r])
        got = stacked_precisions(base, [(obs.astype(float), b, w) for obs, b, w in terms])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_rows_match_single_factor_draws(self):
        # three patterns (three rows, a lone row, two rows) against one
        # np.linalg.solve per row and draw, on the same caller-supplied
        # normals; factors of a batched Cholesky (C-ordered) and of LAPACK's
        # single factorization (Fortran-ordered)
        gen = np.random.default_rng(4)
        a = gen.standard_normal((3, 3, 5))
        precs = a @ a.transpose(0, 2, 1) + np.eye(3)
        fortran = np.asfortranarray(np.stack([cholesky_precision(p) for p in precs], axis=-1))
        pattern = np.array([0, 2, 0, 1, 2, 0])    # rows [0, 2, 5], [3] and [1, 4]
        h = gen.standard_normal((6, 3))
        eps = gen.standard_normal((2, 6, 3))
        for chols in (np.linalg.cholesky(precs), fortran.transpose(2, 0, 1)):
            got = draw_mvn_precision_chol(h, chols, pattern, eps)
            for p in range(3):
                for n in np.nonzero(pattern == p)[0]:
                    mean = np.linalg.solve(precs[p], h[n])
                    for s in range(2):
                        want = mean + np.linalg.solve(chols[p].T, eps[s, n])
                        np.testing.assert_allclose(got[s, n], want, rtol=1e-12, atol=1e-12)
        assert fortran.transpose(2, 0, 1)[0].flags.f_contiguous


class TestBernoulliLogodds:
    def test_symmetric(self):
        gen = RngStream(10).gen
        draws = [draw_bernoulli_logodds(0.0, gen) for _ in range(10**5)]
        assert abs(np.mean(draws) - 0.5) < 0.005

    def test_infinite(self):
        gen = RngStream(11).gen
        assert draw_bernoulli_logodds(np.inf, gen) == 1
        assert draw_bernoulli_logodds(-np.inf, gen) == 0

    def test_minus_three(self):
        gen = RngStream(12).gen
        p = 1.0 / (1.0 + np.exp(3.0))
        draws = [draw_bernoulli_logodds(-3.0, gen) for _ in range(10**5)]
        assert abs(np.mean(draws) - p) < 0.003

    def test_overflow_safe(self):
        gen = RngStream(13).gen
        assert draw_bernoulli_logodds(1e4, gen) == 1
        assert draw_bernoulli_logodds(-1e4, gen) == 0

    def test_array_takes_one_uniform_per_entry(self):
        lo = np.array([[np.inf, -np.inf], [0.0, -1e4]])
        gen = RngStream(14).gen
        draws = draw_bernoulli_logodds(lo, gen)
        assert draws.shape == (2, 2)
        assert draws[0, 0] == 1 and draws[0, 1] == 0 and draws[1, 1] == 0
        ref = RngStream(14).gen
        assert draws[1, 0] == int(ref.random(4)[2] < 0.5)
        assert gen.random() == ref.random()     # no more, no fewer uniforms

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            draw_bernoulli_logodds(np.nan, RngStream(0).gen)
