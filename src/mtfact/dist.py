"""Seeded random sampling primitives for the Gibbs conditionals, among them
the one batched Gaussian row draw, keyed by each row's pattern index."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import inv, lapack
from scipy.special import expit

__all__ = [
    "RngStream",
    "NotPositiveDefiniteError",
    "cholesky_precision",
    "draw_mvn_precision_chol",
    "outer_rows",
    "stacked_precisions",
    "cholesky_stack",
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
    """The generator behind an ``RngStream``, or ``rng`` itself."""
    return rng.gen if isinstance(rng, RngStream) else rng


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization failed; carries the 1-based leading-minor index."""

    def __init__(self, minor: int):
        self.minor = minor
        super().__init__(f"matrix is not positive definite (leading minor {minor})")


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


def draw_mvn_precision_chol(h: np.ndarray, chols: np.ndarray, pattern: np.ndarray,
                            eps: np.ndarray) -> np.ndarray:
    """Row n of h (N, K) drawn from N(P_p^-1 h_n, P_p^-1), p = pattern[n],
    given lower Cholesky factors L_p (P, K, K) and standard normals eps
    (..., N, K) in row order, whose leading axes are independent draws
    sharing each row's mean; returns eps's shape.  One batched expression,
    x_n = L_p^-T (L_p^-1 h_n + eps_n), with the P inverse factors from one
    batched triangular ``inv`` call and two stacked products: every
    precision here is I plus positive semidefinite terms, so ||L_p^-1|| <= 1."""
    li = inv(chols, assume_a="lower triangular")[pattern]    # (N, K, K)
    y = (li @ h[:, :, None])[..., 0] + eps
    return (li.transpose(0, 2, 1) @ y[..., None])[..., 0]


def _chol_jittered(prec: np.ndarray) -> np.ndarray:
    """Cholesky with one bounded diagonal-jitter rescue."""
    try:
        return cholesky_precision(prec)
    except NotPositiveDefiniteError:
        k = prec.shape[0]
        bumped = prec + np.eye(k) * (1e-8 * np.trace(prec) / k)
        return cholesky_precision(bumped)


# ---------------------------------------------------------------------------
# stacked Gaussian conditionals (Salakhutdinov & Mnih 2008, BPMF): one
# precision per missingness pattern of the rows, each masked view's terms
# one GEMM, the stack factorized by one batched Cholesky


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


def draw_bernoulli_logodds(log_odds, rng):
    """Draw {0,1} with P(1) = logistic(log_odds), overflow-safe; +-inf allowed.

    ``log_odds`` is a scalar (returns an int) or an array (returns a 0/1
    array of its shape).  Every entry takes one uniform, in C order, also
    where its log odds is +-inf.  No package code calls it: the column step
    (``mtf._column_step``) makes this draw inline, checking NaN once per call.
    """
    lo = np.asarray(log_odds, dtype=np.float64)
    if np.isnan(lo).any():
        raise ValueError("log-odds is NaN")
    draws = (_as_gen(rng).random(lo.shape) < expit(lo)).astype(np.int64)
    return int(draws) if lo.ndim == 0 else draws
