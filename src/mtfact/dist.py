"""Seeded random sampling primitives for the Gibbs conditionals.

Gamma and Beta draws use the shape-rate (a, b) parameterization throughout:
``draw_gamma(a, b)`` has mean a/b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack, solve_triangular

__all__ = [
    "RngStream",
    "NotPositiveDefiniteError",
    "draw_gamma",
    "draw_beta",
    "cholesky_precision",
    "draw_mvn_precision",
    "draw_mvn_precision_chol",
    "outer_rows",
    "stacked_precisions",
    "cholesky_stack",
    "draw_mvn_rows",
    "draw_bernoulli_logodds",
]


@dataclass
class RngStream:
    """One reproducible random stream, owned by exactly one chain.

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream ids give statistically independent streams.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen


def _as_gen(rng) -> np.random.Generator:
    return rng.gen if isinstance(rng, RngStream) else rng


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization failed; carries the 1-based leading-minor index."""

    def __init__(self, minor: int):
        self.minor = minor
        super().__init__(f"matrix is not positive definite (leading minor {minor})")


def draw_gamma(a: float, b: float, rng) -> float:
    """Draw from Gamma(shape=a, rate=b); mean a/b, variance a/b**2."""
    if not (a > 0 and b > 0):
        raise ValueError(f"gamma parameters must be positive, got a={a}, b={b}")
    return _as_gen(rng).gamma(a, 1.0 / b)


def draw_beta(a: float, b: float, rng) -> float:
    if not (a > 0 and b > 0):
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    return _as_gen(rng).beta(a, b)


def cholesky_precision(prec: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a precision matrix.

    Raises :class:`NotPositiveDefiniteError` with the failing leading-minor
    index instead of scipy's generic error, so callers can apply their jitter
    policy.
    """
    prec = np.asarray(prec, dtype=np.float64)
    if prec.ndim != 2 or prec.shape[0] != prec.shape[1]:
        raise ValueError(f"precision must be square, got shape {prec.shape}")
    chol, info = lapack.dpotrf(prec, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(int(info))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of cholesky")
    return chol


def draw_mvn_precision_chol(h: np.ndarray, chol: np.ndarray, rng) -> np.ndarray:
    """Draw from N(P^-1 h, P^-1) given the lower Cholesky factor of P.

    ``h`` may be a single K-vector or a stack of them (rows); the
    factorization is reused for every row and no inverse is formed.
    """
    gen = _as_gen(rng)
    h = np.asarray(h, dtype=np.float64)
    single = h.ndim == 1
    hs = h[None, :] if single else h
    # mean: solve L L^T mu = h
    tmp = solve_triangular(chol, hs.T, lower=True)
    mu = solve_triangular(chol, tmp, lower=True, trans="T").T
    # noise: solve L^T e = eps gives cov P^-1
    eps = gen.standard_normal(hs.shape)
    noise = solve_triangular(chol, eps.T, lower=True, trans="T").T
    out = mu + noise
    return out[0] if single else out


def draw_mvn_precision(h: np.ndarray, prec: np.ndarray, rng) -> np.ndarray:
    """Draw from N(P^-1 h, P^-1) for a symmetric positive definite P."""
    return draw_mvn_precision_chol(h, cholesky_precision(prec), rng)


def _chol_jittered(prec: np.ndarray) -> np.ndarray:
    """Cholesky with one bounded diagonal-jitter rescue."""
    try:
        return cholesky_precision(prec)
    except NotPositiveDefiniteError:
        k = prec.shape[0]
        bumped = prec + np.eye(k) * (1e-8 * np.trace(prec) / k)
        return cholesky_precision(bumped)


# ---------------------------------------------------------------------------
# stacked Gaussian conditionals: one precision per row (Salakhutdinov & Mnih
# 2008, BPMF), built by one GEMM and factorized by one batched Cholesky


def outer_rows(b: np.ndarray, weight=1.0) -> np.ndarray:
    """Flattened outer products of the rows of ``b`` (R, K): row r of the
    (R, K*K) result is weight_r * vec(b_r b_r^T); ``weight`` is a scalar or
    an (R,) vector."""
    f = (b[:, :, None] * b[:, None, :]).reshape(b.shape[0], -1)
    return f * np.asarray(weight, dtype=np.float64)[..., None]


def stacked_precisions(base: np.ndarray, terms) -> np.ndarray:
    """Precision stack (M, K, K): P_m = base + sum_j sum_r obs_j[m, r] w_jr b_jr b_jr^T.

    ``terms`` holds (obs (M, R_j), b (R_j, K), w) triples, w as in
    :func:`outer_rows`.  Each term is one GEMM with the same multiply count
    either way; the operands differ.  With M >= K rows it is
    (M, R_j) @ (R_j, K*K) against the outer products; with fewer rows the
    (M*K, R_j) row-scaled b^T times b, whose operands are then the smaller.
    """
    k = base.shape[0]
    prec = base
    for obs, b, w in terms:
        if obs.shape[0] >= k:
            prec = prec + (obs @ outer_rows(b, w)).reshape(-1, k, k)
        else:
            scaled = (obs * w)[:, None, :] * b.T                # (M, K, R_j)
            prec = prec + (scaled.reshape(-1, b.shape[0]) @ b).reshape(-1, k, k)
    return prec


def cholesky_stack(precs: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a precision stack (M, K, K).

    One batched factorization; if any matrix is not positive definite,
    every matrix of the stack goes through the jitter-rescued single
    factorization instead, so the rescue is the same as for one matrix.
    """
    try:
        return np.linalg.cholesky(precs)
    except np.linalg.LinAlgError:
        return np.stack([_chol_jittered(p) for p in precs])


def draw_mvn_rows(h: np.ndarray, chols: np.ndarray, rng) -> np.ndarray:
    """Row m drawn from N(P_m^-1 h_m, P_m^-1) given lower factors L_m of P_m.

    x = L^-T (L^-1 h + eps), with eps one (M, K) standard normal block: the
    same normals, in the same order, as :func:`draw_mvn_precision_chol`
    takes for M rows.
    """
    y = np.linalg.solve(chols, h[..., None])
    y += _as_gen(rng).standard_normal(h.shape)[..., None]
    return np.linalg.solve(chols.transpose(0, 2, 1), y)[..., 0]


def draw_bernoulli_logodds(log_odds: float, rng) -> int:
    """Draw {0,1} with P(1) = logistic(log_odds), overflow-safe; +-inf allowed."""
    if np.isnan(log_odds):
        raise ValueError("log-odds is NaN")
    if log_odds == np.inf:
        return 1
    if log_odds == -np.inf:
        return 0
    if log_odds >= 0:
        p = 1.0 / (1.0 + np.exp(-log_odds))
    else:
        e = np.exp(log_odds)
        p = e / (1.0 + e)
    return int(_as_gen(rng).random() < p)
