"""Gibbs sampler for the strict trilinear joint factorization of coupled views.

Model: entry (n, d, l) of view t is Gaussian with mean sum_k z_{n,k}
v_{d,k} u_{l,k} and precision tau_t.  Component activity per view is
controlled by a spike-and-slab prior on the loading columns: h_{t,k} = 0
pins column k of V^(t) to exact zeros, h_{t,k} = 1 gives it an element-wise
ARD slab N(0, 1/alpha_{d,k}).  Matrix views (L = 1) have their third-mode
factor fixed to 1; with only matrix views the sampler is exactly a
multi-view matrix factorization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas
from scipy.special import betaln, gammaln

from .core import Collection, Tensor3, validate_collection
from .dist import (
    _as_gen,
    _chol_jittered,
    cholesky_stack,
    draw_bernoulli_logodds,
    draw_mvn_precision_chol,
    draw_mvn_rows,
    outer_rows,
    stacked_precisions,
)

__all__ = [
    "HyperParams",
    "MtfState",
    "PosteriorSamples",
    "ModelData",
    "prepare",
    "init_state",
    "z_conditional",
    "update_z",
    "update_vh",
    "update_u",
    "update_hypers",
    "mtf_sweep",
    "run_chain",
    "log_joint",
    "reconstruct_mean",
    "component_structure",
    "ComponentStructure",
    "sample_state_from_prior",
    "simulate_data",
]

_ALPHA_FLOOR = 1e-300  # keeps log(alpha) finite when ARD prior draws underflow
_LOG2PI = np.log(2.0 * np.pi)


@dataclass
class HyperParams:
    """Component budget, prior parameters, and sampling schedule.

    Gamma/Beta priors are shape-rate / (a, b).  ``b_tau=None`` resolves the
    noise-precision rate per view from the data so that the prior mean
    matches a signal-to-noise ratio of 1 (noise variance = half the observed
    per-element variance); ``a_tau`` then controls how peaked that prior is.
    """

    k: int
    a_pi: float = 1.0
    b_pi: float = 1.0
    a_alpha: float = 1e-3
    b_alpha: float = 1e-3
    a_tau: float = 1.0
    b_tau: float | None = None
    # relaxed-model extras (ignored by the strict sampler)
    a_beta: float = 1e-3
    b_beta: float = 1e-3
    a_lambda: float = 1.0
    b_lambda: float = 1.0
    lambda_mode: str = "global"  # global | per_component | per_slab
    # schedule
    burn_in: int = 3000
    n_samples: int = 40
    thin: int = 10
    n_chains: int = 7

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"component budget must be >= 1, got {self.k}")
        for name in ("a_pi", "b_pi", "a_alpha", "b_alpha", "a_tau",
                     "a_beta", "b_beta", "a_lambda", "b_lambda"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.b_tau is not None and self.b_tau <= 0:
            raise ValueError("b_tau must be positive when given")
        if self.lambda_mode not in ("global", "per_component", "per_slab"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if self.burn_in < 0 or self.n_samples < 1 or self.thin < 1 or self.n_chains < 1:
            raise ValueError("schedule fields must be positive (burn_in may be 0)")


@dataclass
class ViewData:
    """One view rearranged for sampling: values as (N, L, D), masked entries zeroed."""

    x: np.ndarray                 # (N, L, D)
    obs: np.ndarray | None        # (N, L, D) float 0/1, None when fully observed
    name: str
    n_obs: int
    obs_per_slab: np.ndarray      # (L,) observed counts
    var_obs: float                # mean unbiased fiber variance (0 if undefined)
    var_slab: np.ndarray          # (L,) same per slab

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def l(self) -> int:
        return self.x.shape[1]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    def is_matrix(self) -> bool:
        return self.x.shape[1] == 1


def _fiber_variance(values_nld, obs_nld):
    """Mean over (slab, feature) fibers of the unbiased variance of observed entries."""
    counts = obs_nld.sum(axis=0)  # (L, D)
    ok = counts >= 2
    if not np.any(ok):
        return 0.0, np.zeros(values_nld.shape[1])
    x = values_nld * obs_nld
    mean = np.where(ok, x.sum(axis=0) / np.maximum(counts, 1), 0.0)
    var = ((x - mean[None]) ** 2 * obs_nld).sum(axis=0) / np.maximum(counts - 1, 1)
    per_slab = np.array([var[l][ok[l]].mean() if ok[l].any() else 0.0
                         for l in range(values_nld.shape[1])])
    return float(var[ok].mean()), per_slab


@dataclass
class ModelData:
    """A collection compiled into sampling-ready arrays plus resolved priors."""

    views: list[ViewData]
    u_groups: list[list[int]]
    group_of: dict[int, int]
    hp: HyperParams
    b_tau: np.ndarray             # (T,) resolved noise-precision rates
    b_tau_slab: list[np.ndarray]  # per view (L_t,)

    @property
    def n(self) -> int:
        return self.views[0].n

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.views]

    def set_values(self, t: int, values_nld: np.ndarray):
        """Replace view t's values (sampler-correctness harness hook)."""
        v = self.views[t]
        v.x = values_nld * v.obs if v.obs is not None else np.ascontiguousarray(values_nld)


def prepare(c: Collection, hp: HyperParams, validate: bool = True) -> ModelData:
    if validate:
        problems = validate_collection(c)
        if problems:
            raise ValueError("invalid collection: " + "; ".join(problems))
    views = []
    for t, mv in enumerate(c.views):
        x = np.ascontiguousarray(mv.values.transpose(0, 2, 1))  # (N, L, D)
        obs_b = mv.observed.transpose(0, 2, 1)
        fully = bool(obs_b.all())
        obs = None if fully else np.ascontiguousarray(obs_b, dtype=np.float64)
        if not fully:
            x = x * obs
        var, var_slab = _fiber_variance(x, obs_b.astype(np.float64))
        views.append(ViewData(
            x=x, obs=obs, name=c.names[t], n_obs=int(obs_b.sum()),
            obs_per_slab=obs_b.sum(axis=(0, 2)), var_obs=var, var_slab=var_slab,
        ))
    groups = c.u_groups()
    group_of = {t: g for g, members in enumerate(groups) for t in members}
    b_tau = np.empty(len(views))
    b_tau_slab = []
    for t, v in enumerate(views):
        if hp.b_tau is not None:
            b_tau[t] = hp.b_tau
            b_tau_slab.append(np.full(v.l, hp.b_tau))
        else:
            if v.var_obs <= 0 or np.any(v.var_slab <= 0):
                raise ValueError(
                    f"cannot resolve the SNR-1 noise prior for view {t} "
                    "(no usable observed variance); pass an explicit b_tau"
                )
            b_tau[t] = hp.a_tau * 0.5 * v.var_obs
            b_tau_slab.append(hp.a_tau * 0.5 * v.var_slab)
    return ModelData(views, groups, group_of, hp, b_tau, b_tau_slab)


def _as_data(c, hp: HyperParams) -> ModelData:
    return c if isinstance(c, ModelData) else prepare(c, hp)


@dataclass
class MtfState:
    """All latent variables of one chain, plus the view/group structure."""

    Z: np.ndarray                  # (N, K)
    V: list[np.ndarray]            # per view (D_t, K)
    U: list[np.ndarray]            # per third-mode group (L_g, K)
    H: np.ndarray                  # (T, K) exact 0/1
    pi: np.ndarray                 # (K,)
    alpha: list[np.ndarray]        # per view (D_t, K)
    tau: np.ndarray                # (T,)
    group_of: dict[int, int] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.Z.shape[1]

    @property
    def n_views(self) -> int:
        return len(self.V)

    def u_for_view(self, t: int) -> np.ndarray:
        """Third-mode factors of view t; the constant 1 row for matrices."""
        if t in self.group_of:
            return self.U[self.group_of[t]]
        return np.ones((1, self.k))

    def slab_loadings(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-slab loadings W (L, D, K) of view t, slab l being u_l * V, and
        the noise precision of each slab (tau_t repeated)."""
        u = self.u_for_view(t)
        return u[:, None, :] * self.V[t][None, :, :], np.full(u.shape[0], self.tau[t])

    def copy(self) -> "MtfState":
        return MtfState(
            Z=self.Z.copy(),
            V=[v.copy() for v in self.V],
            U=[u.copy() for u in self.U],
            H=self.H.copy(),
            pi=self.pi.copy(),
            alpha=[a.copy() for a in self.alpha],
            tau=self.tau.copy(),
            group_of=dict(self.group_of),
        )


@dataclass
class PosteriorSamples:
    """Thinned post-burn-in snapshots of one chain plus per-sweep traces."""

    model: str
    states: list
    sweeps: list[int]
    chain_id: int
    trace_names: list[str]
    traces: np.ndarray            # (total_sweeps, 1 + T): log_joint, mse per view
    hp: HyperParams
    view_names: list[str]
    origins: list[int] | None = None   # source-view map when fit on unfolded data

    @property
    def n_snapshots(self) -> int:
        return len(self.states)


def _clip_unit(p):
    """Keep probabilities strictly inside (0, 1); extreme Beta draws underflow."""
    return np.clip(p, 1e-300, np.nextafter(1.0, 0.0))


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _view_u(data: ModelData, us, t: int) -> np.ndarray:
    """Third-mode loadings of view t in a rank-1 fit: u = 1 for matrix views."""
    return us[data.group_of[t]] if t in data.group_of else np.ones(1)


def _rank1_loadings(data: ModelData, vs, us) -> list[np.ndarray]:
    """vec(u v_t^T) (L*D,) of each view's rank-1 fit."""
    return [np.outer(_view_u(data, us, t), v).ravel() for t, v in enumerate(vs)]


def _rank1_fit(data: ModelData, resid, z, n_power: int):
    """Joint rank-1 alternating fit of (z, per-view v, per-group u) to the
    current residuals, each view's as its (N, L*D) reshape (only read).

    z is fixed during the v- and u-updates, so one product P_t = z^T R_t,
    read as (L, D), serves both: v_t = u P_t / (z.z |u|^2) and u = sum_t
    P_t v_t / sum_t z.z |v_t|^2.  The z-update is z = sum_t R_t b_t /
    sum_t |b_t|^2 with b_t = vec(u v_t^T): two passes over each residual.
    """
    vs = [np.zeros(v.d) for v in data.views]
    us = {g: np.full(data.views[m[0]].l, 1.0 / np.sqrt(data.views[m[0]].l))
          for g, m in enumerate(data.u_groups)}
    for _ in range(n_power):
        zz = float(z @ z) or 1.0
        proj = [(z @ r).reshape(v.l, v.d) for r, v in zip(resid, data.views)]
        for t, p in enumerate(proj):
            u = _view_u(data, us, t)
            vs[t] = u @ p / max(zz * float(u @ u), 1e-30)
        for g, members in enumerate(data.u_groups):
            us[g] = sum(proj[t] @ vs[t] for t in members) \
                / max(sum(zz * float(vs[t] @ vs[t]) for t in members), 1e-30)
        bs = _rank1_loadings(data, vs, us)
        z = sum(r @ b for r, b in zip(resid, bs)) / max(sum(float(b @ b) for b in bs), 1e-30)
    return z, vs, us


def _subtract_component(data: ModelData, resid, z, vs, us, sign=1.0):
    """Subtract (sign -1: add back) z b_t^T from each (N, L*D) residual in
    place: one BLAS rank-1 update of its column-major transpose, then the
    observation mask on masked views, whose masked entries stay zero."""
    for t, b in enumerate(_rank1_loadings(data, vs, us)):
        resid[t] = blas.dger(-sign, b, z, a=resid[t].T, overwrite_a=True).T
        if data.views[t].obs is not None:
            resid[t] *= data.views[t].obs.reshape(data.n, -1)


def _above_noise_floor(data: ModelData, resid, z, vs, us, margin: float) -> bool:
    """Keep a fitted component only if it captures more of some view's
    residual than the top singular direction of pure noise would (the
    Marchenko-Pastur edge for that view's matricized shape)."""
    for v, r, b in zip(data.views, resid, _rank1_loadings(data, vs, us)):
        cap = float(z @ z) * float(b @ b)
        total = float(np.sum(r ** 2))
        if total <= 0:
            continue
        cols = v.d * v.l
        edge = (np.sqrt(data.n) + np.sqrt(cols)) ** 2 / (data.n * cols)
        if cap / total > margin * edge:
            return True
    return False


def _deflation_start(data: ModelData, k: int, gen, n_power: int = 8,
                     n_backfit: int = 2, margin: float = 1.3):
    """Greedy rank-1 warm start: peel dominant joint rank-1 structure off the
    residual one component at a time, then backfit-polish the kept ones.

    A cold random start cannot bootstrap the spike-and-slab race (a random
    direction never accumulates activation evidence), slab-scale random
    loadings crush the latent rows into a degenerate gauge, and a principal
    subspace start leaves the components as mixtures that the race then
    entrenches.  Deflation stops at the noise floor; leftover budget
    components start empty, subject to the activation race like any other.

    Each view's residual is one (N, L*D) copy of its data, updated in place
    as components are subtracted and added back; see ``_rank1_fit``.
    Returns (Z, V per view, U per group), gauge-normalized so latent rows
    and third-mode factors sit at their prior scale.
    """
    n = data.n
    resid = [v.x.reshape(n, -1).copy() for v in data.views]
    Z = np.zeros((n, k))
    V = [np.zeros((v.d, k)) for v in data.views]
    group_u = [0.05 * gen.standard_normal((data.views[g[0]].l, k))
               for g in data.u_groups]
    start = gen.standard_normal((n, k))  # fixed draw order for determinism
    fits = {}
    for j in range(k):
        z, vs, us = _rank1_fit(data, resid, start[:, j], n_power)
        if not np.isfinite(z).all() or float(z @ z) == 0.0:
            break
        if not _above_noise_floor(data, resid, z, vs, us, margin):
            break
        fits[j] = (z, vs, us)
        _subtract_component(data, resid, z, vs, us)
    for _ in range(n_backfit):
        for j, (z, vs, us) in fits.items():
            _subtract_component(data, resid, z, vs, us, sign=-1.0)
            z, vs, us = _rank1_fit(data, resid, z, n_power)
            fits[j] = (z, vs, us)
            _subtract_component(data, resid, z, vs, us)
    for j, (z, vs, us) in fits.items():
        # normalize gauge: |z| -> sqrt(N), |u| -> sqrt(L), scale into v
        cz = np.linalg.norm(z) / np.sqrt(n)
        if cz == 0 or not np.isfinite(cz):
            continue
        z = z / cz
        us = dict(us)
        for g in us:
            un = np.linalg.norm(us[g])
            cu = un / np.sqrt(us[g].size) if un > 0 else 1.0
            us[g] = us[g] / cu
            for t in data.u_groups[g]:
                vs[t] = vs[t] * cu
        Z[:, j] = z
        for t in range(data.n_views):
            V[t][:, j] = vs[t] * cz
        for g in us:
            group_u[g][:, j] = us[g]
    return Z, V, group_u


def _warm_start(c, hp: HyperParams, rng):
    """Start shared by both samplers: (data, Z, V per view, U per group, pi),
    with (Z, V, U) from the deflation warm start and pi from its prior."""
    data = _as_data(c, hp)
    gen = _as_gen(rng)
    if data.n < hp.k:
        warnings.warn(f"fewer samples ({data.n}) than components ({hp.k}); "
                      "expect slow mixing")
    Z, V, U = _deflation_start(data, hp.k, gen)
    pi = _clip_unit(gen.beta(hp.a_pi, hp.b_pi, size=hp.k))
    return data, Z, V, U, pi


def init_state(c, hp: HyperParams, rng) -> MtfState:
    """Initial chain state: greedy rank-1 warm start for (Z, V, U), H all on,
    ARD precisions at their conditional posterior means, noise precision at
    its SNR-1 target."""
    data, Z, V, U, pi = _warm_start(c, hp, rng)
    # conditional posterior mean given the warm-start loadings; empty columns
    # start with a tight (spike-like) slab, so their activation race is run
    # on the data rather than decided by an over-diffuse slab
    alpha = [(hp.a_alpha + 0.5) / (hp.b_alpha + V[t] ** 2 / 2.0)
             for t in range(data.n_views)]
    H = np.ones((data.n_views, hp.k))
    tau = data.hp.a_tau / data.b_tau
    return MtfState(Z=Z, V=V, U=U, H=H, pi=pi, alpha=alpha, tau=tau.copy(),
                    group_of=dict(data.group_of))


def _recon_nld(state, t: int) -> np.ndarray:
    """Mean reconstruction of view t as (N, L, D), from the slab loadings of
    either model's state."""
    w = state.slab_loadings(t)[0]
    return (state.Z @ w.reshape(-1, state.k).T).reshape(-1, *w.shape[:2])


def reconstruct_mean(state, t: int) -> Tensor3:
    """Mean of view t: slab l is Z W_l^T (strict model: sum of z_k o v_k o u_k)."""
    return Tensor3(_recon_nld(state, t).transpose(0, 2, 1))


def _residual(state, data: ModelData, t: int) -> np.ndarray:
    """x - reconstruction, with masked entries held at zero."""
    v = data.views[t]
    r = v.x - _recon_nld(state, t)
    if v.obs is not None:
        r *= v.obs
    return r


def _residuals(state, data):
    return [_residual(state, data, t) for t in range(data.n_views)]


def z_conditional(blocks, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of the latent rows given per-slab loadings.

    ``blocks`` holds one (x, rows, W, tau) per view: x (N, L, D) with masked
    entries zeroed, W (L, D, K) and tau (L,) as from ``slab_loadings``, and
    rows (M, L*D) the 0/1 observation rows of a masked view, or None when
    it is fully observed.  Entry (l, d) adds tau_l x b to the linear term
    and tau_l b b^T to the precision, with b = w_{l,d}.  Returns (lin (N, K),
    prec): prec is one (K, K) matrix when no view has rows, otherwise the
    (M, K, K) stack whose row-specific terms are one GEMM per masked view.
    """
    lin, base, terms = 0.0, np.eye(k), []
    for x, rows, w, tau in blocks:
        b = w.reshape(-1, k)                                    # (L*D, K)
        tw = np.repeat(tau, w.shape[1])
        tb = tw[:, None] * b
        lin = lin + x.reshape(x.shape[0], -1) @ tb
        if rows is None:
            base = base + tb.T @ b
        else:
            terms.append((rows, b, tw))
    return lin, stacked_precisions(base, terms)


def _z_blocks(state, data: ModelData) -> list:
    """The ``z_conditional`` input of every view of a model state."""
    return [(v.x, None if v.obs is None else v.obs.reshape(data.n, -1),
             *state.slab_loadings(t)) for t, v in enumerate(data.views)]


def _draw_rows(lin: np.ndarray, prec: np.ndarray, rng) -> np.ndarray:
    """Row m from N(P_m^-1 lin_m, P_m^-1), for one shared (K, K) precision
    (one factorization) or an (M, K, K) stack (one batched Cholesky)."""
    if prec.ndim == 2:
        return draw_mvn_precision_chol(lin, _chol_jittered(prec), rng)
    return draw_mvn_rows(lin, cholesky_stack(prec), rng)


def update_z(state: MtfState, data: ModelData, rng) -> np.ndarray:
    """Resample every latent-variable row from its Gaussian full conditional.

    Precision for row n: I_K + sum_t tau_t sum_{(l,d) observed} b b^T with
    b = u_l * v_d, the entry (l, d) of the slab loadings; see
    ``z_conditional``.  Without masked views all rows share one
    factorization; otherwise the N precisions are factorized by one batched
    Cholesky and all rows drawn together.
    """
    state.Z = _draw_rows(*z_conditional(_z_blocks(state, data), state.k), rng)
    return state.Z


def _slab_evidence_logodds(m, prior_prec, prior_mean, s):
    """Per-feature log evidence ratio (slab vs spike) for a collapsed column.

    ``m`` and ``s`` are the likelihood linear and precision statistics of
    each coefficient; the slab prior is N(prior_mean, 1/prior_prec).
    """
    denom = prior_prec + s
    shifted = prior_prec * prior_mean + m
    terms = 0.5 * (np.log(prior_prec) - np.log(denom)) \
        + shifted ** 2 / (2.0 * denom) - prior_prec * prior_mean ** 2 / 2.0
    return float(np.sum(terms)), shifted / denom, denom


def update_vh(state: MtfState, data: ModelData, t: int, rng,
              residual: np.ndarray | None = None):
    """Joint spike-and-slab update of (V^(t), H_{t,:}), column by column.

    Each column is integrated out of the likelihood to score active vs
    inactive, then redrawn from its Gaussian conditional when active and set
    to exact zeros when not.  Returns (V^(t), H row, residual).
    """
    gen = _as_gen(rng)
    v = data.views[t]
    V, alpha, tau = state.V[t], state.alpha[t], state.tau[t]
    u = state.u_for_view(t)
    R = _residual(state, data, t) if residual is None else residual
    z2 = state.Z ** 2
    u2 = u ** 2
    if v.obs is None:
        zz = z2.sum(axis=0)
        uu = u2.sum(axis=0)
    for k in range(state.k):
        z_k, u_k = state.Z[:, k], u[:, k]
        if v.obs is None:
            sdata = np.full(v.d, zz[k] * uu[k])
        else:
            sdata = np.einsum("nld,n,l->d", v.obs, z2[:, k], u2[:, k], optimize=True)
        proj = np.einsum("nld,n,l->d", R, z_k, u_k, optimize=True)
        m = tau * (proj + V[:, k] * sdata)
        s = tau * sdata
        lo, post_mean, post_prec = _slab_evidence_logodds(m, alpha[:, k], 0.0, s)
        h_new = draw_bernoulli_logodds(_logit(state.pi[k]) + lo, gen)
        if h_new:
            v_new = post_mean + gen.standard_normal(v.d) / np.sqrt(post_prec)
        else:
            v_new = np.zeros(v.d)
        dv = V[:, k] - v_new
        if np.any(dv != 0.0):
            # swapping component k changes the reconstruction by -z dv u
            upd = z_k[:, None, None] * np.multiply.outer(u_k, dv)[None]
            if v.obs is not None:
                upd *= v.obs
            R += upd
        V[:, k] = v_new
        state.H[t, k] = float(h_new)
    return V, state.H[t], R


def update_u(state: MtfState, data: ModelData, g: int, rng) -> np.ndarray:
    """Resample the shared third-mode factors of one tensor-view group.

    Precision for slab l: I_K + sum_t tau_t sum_{(n,d) observed} b b^T with
    b = z_n * v_d.  Without masked member views all slabs share one
    factorization.  A masked view t adds a slab-specific term from one GEMM,
    M = obs_t^T @ Q with obs_t as (N, L*D) and row n of Q (N, K^2) equal to
    vec(z_n z_n^T): the term of slab l is tau_t sum_d M[(l, d)] * vec(v_d v_d^T).
    The L precisions are factorized by one batched Cholesky and all slabs
    drawn together.
    """
    members = data.u_groups[g]
    k = state.k
    n_slabs = data.views[members[0]].l
    lin = np.zeros((n_slabs, k))
    prec = np.eye(k)
    for t in members:
        v = data.views[t]
        t1 = v.x @ state.V[t]                       # (N, L, K)
        lin += state.tau[t] * np.einsum("nlk,nk->lk", t1, state.Z)
        if v.obs is None:
            prec = prec + state.tau[t] * ((state.Z.T @ state.Z) * (state.V[t].T @ state.V[t]))
        else:
            m = v.obs.reshape(data.n, -1).T @ outer_rows(state.Z)   # (L*D, K^2)
            m = m.reshape(n_slabs, v.d, k * k)
            prec = prec + state.tau[t] * np.einsum(
                "ldq,dq->lq", m, outer_rows(state.V[t])).reshape(n_slabs, k, k)
    state.U[g] = _draw_rows(lin, prec, rng)
    return state.U[g]


def _draw_ard(alpha: np.ndarray, h: np.ndarray, v: np.ndarray, hp: HyperParams,
              gen) -> np.ndarray:
    """ARD precisions (D, K) of the active columns of v redrawn from their
    Gamma conditional; inactive columns keep theirs (see ``update_hypers``)."""
    b_post = hp.b_alpha + h * v ** 2 / 2.0
    draws = gen.gamma(np.broadcast_to(hp.a_alpha + h / 2.0, b_post.shape), 1.0 / b_post)
    return np.where(h > 0, np.maximum(draws, _ALPHA_FLOOR), alpha)


def update_hypers(state: MtfState, data: ModelData, rng,
                  residuals: list[np.ndarray] | None = None):
    """Conjugate updates of pi, the ARD precisions, and the noise precisions.

    ARD precisions of inactive columns are left untouched (a valid partial
    scan: the coordinate selection depends only on H, which this update
    never changes).  Resampling them from the prior would make deactivation
    absorbing under the heavy-tailed default: Gamma(1e-3, 1e-3) draws are
    almost all numerically zero, which vetoes any later reactivation.
    """
    h = data.hp
    gen = _as_gen(rng)
    active = state.H.sum(axis=0)
    state.pi = _clip_unit(gen.beta(h.a_pi + active, h.b_pi + data.n_views - active))
    for t in range(data.n_views):
        state.alpha[t] = _draw_ard(state.alpha[t], state.H[t], state.V[t], h, gen)
    if residuals is None:
        residuals = _residuals(state, data)
    for t, v in enumerate(data.views):
        b_post = data.b_tau[t] + 0.5 * float(np.sum(residuals[t] ** 2))
        state.tau[t] = gen.gamma(h.a_tau + v.n_obs / 2.0, 1.0 / b_post)
    return state.pi, state.alpha, state.tau


def _rescale(state: MtfState, data: ModelData, x: np.ndarray, views, rng) -> np.ndarray:
    """Exact scale move along the likelihood-invariant direction of each
    component: x_k -> c_k x_k with v_tk -> v_tk / c_k and
    alpha_tk -> c_k^2 alpha_tk over the views in ``views`` active in k.

    alpha v^2 is unchanged, so s = c^2 has the conjugate conditional
    Gamma(R/2 + a_alpha D_k, ||x_k||^2 / 2 + b_alpha sum alpha_tk), where R
    is the number of rows of x and D_k the summed D_t over the active views
    (a group move in the sense of Liu & Wu 1999, JASA 94:1264).  All K
    scales come from one Gamma call; components active in none of the
    views keep c_k = 1.  Returns the rescaled x.
    """
    gen = _as_gen(rng)
    hp = data.hp
    act = state.H[list(views)] > 0                              # (|views|, K)
    d_act = np.array([data.views[t].d for t in views], dtype=np.float64) @ act
    alpha_sum = sum(np.where(act[i], state.alpha[t].sum(axis=0), 0.0)
                    for i, t in enumerate(views))
    on = d_act > 0
    rate = np.where(on, 0.5 * np.sum(x ** 2, axis=0) + hp.b_alpha * alpha_sum, 1.0)
    s = np.where(on, gen.gamma(0.5 * x.shape[0] + hp.a_alpha * d_act, 1.0 / rate), 1.0)
    c = np.sqrt(s)
    for i, t in enumerate(views):
        state.V[t] = state.V[t] / c
        state.alpha[t] = np.where(act[i], np.maximum(state.alpha[t] * s, _ALPHA_FLOOR),
                                  state.alpha[t])
    return x * c


def mtf_sweep(state: MtfState, data: ModelData, rng) -> list[np.ndarray]:
    """One full scan (z, then per-view (v,h), then per-group u, then hypers),
    closed by the exact rescaling moves of ``_rescale``: first z against
    every view, then each U group against its member views.

    The map z_k -> c z_k, v_tk -> v_tk / c leaves the likelihood unchanged,
    so the coordinate updates alone only random-walk along each
    component's scale; the moves sample that direction directly.  They
    draw 1 + (number of U groups) Gamma vectors per sweep.

    Returns the per-view residuals, exact as of the end of the sweep.
    """
    update_z(state, data, rng)
    residuals = _residuals(state, data)
    for t in range(data.n_views):
        update_vh(state, data, t, rng, residual=residuals[t])
    for g in range(len(data.u_groups)):
        update_u(state, data, g, rng)
    for t in range(data.n_views):
        if not data.views[t].is_matrix():
            residuals[t] = _residual(state, data, t)
    update_hypers(state, data, rng, residuals=residuals)
    state.Z = _rescale(state, data, state.Z, range(data.n_views), rng)
    for g, members in enumerate(data.u_groups):
        state.U[g] = _rescale(state, data, state.U[g], members, rng)
    return residuals


def _normal_lp(x, prec):
    """Elementwise log N(x | 0, 1/prec)."""
    return 0.5 * (np.log(prec) - _LOG2PI) - prec * x ** 2 / 2.0


def _gamma_lp(x, a: float, b) -> float:
    """Summed log Gamma(x | shape a, rate b) density."""
    return float(np.sum(a * np.log(b) - gammaln(a) + (a - 1) * np.log(x) - b * x))


def _ard_lp(alpha: np.ndarray, h: np.ndarray, v: np.ndarray, hp: HyperParams) -> float:
    """ARD slab density of the active columns of v (D, K), plus the Gamma
    prior of every ARD precision; the spike carries no density term."""
    act = h > 0
    return float(np.sum(_normal_lp(v[:, act], alpha[:, act]))) \
        + _gamma_lp(alpha, hp.a_alpha, hp.b_alpha)


def _shared_lp(state, data: ModelData, residuals) -> float:
    """Log joint terms common to both models: the Gaussian likelihood of the
    observed entries (per slab), the N(0, I) priors of Z and U, the
    Bernoulli(pi) activity of every entry of H and the Beta prior of pi."""
    hp = data.hp
    total = 0.0
    for t, (v, r) in enumerate(zip(data.views, residuals)):
        tau = np.broadcast_to(state.tau[t], v.obs_per_slab.shape)   # per slab
        rss = (r ** 2).sum(axis=(0, 2))
        total += float(np.sum(0.5 * v.obs_per_slab * (np.log(tau) - _LOG2PI) - 0.5 * tau * rss))
    for x in [state.Z, *state.U]:
        total += -0.5 * float(np.sum(x ** 2)) - 0.5 * x.size * _LOG2PI
    log_pi, log_1mpi = np.log(state.pi), np.log1p(-state.pi)
    total += sum(float(np.sum(np.where(h > 0, log_pi, log_1mpi))) for h in state.H)
    return total + float(np.sum((hp.a_pi - 1) * log_pi + (hp.b_pi - 1) * log_1mpi)) \
        - state.k * betaln(hp.a_pi, hp.b_pi)


def log_joint(state: MtfState, data: ModelData,
              residuals: list[np.ndarray] | None = None) -> float:
    """Log of the joint density over observed entries and all priors.

    Inactive columns contribute only their Bernoulli log(1 - pi_k) mass; the
    spike itself carries no density term.
    """
    h = data.hp
    if residuals is None:
        residuals = _residuals(state, data)
    total = _shared_lp(state, data, residuals)
    for t in range(data.n_views):
        total += _ard_lp(state.alpha[t], state.H[t], state.V[t], h)
    return total + _gamma_lp(state.tau, h.a_tau, data.b_tau)


def _run_chain(model: str, init, sweep_fn, log_joint_fn, c, hp: HyperParams, rng,
               chain_id: int, origins) -> PosteriorSamples:
    """Chain driver shared by both samplers: ``init``, then burn-in and
    thinned sweeps of ``sweep_fn``, with the log joint and the per-view mean
    squared residual (so every view needs an observed entry) recorded after
    every sweep.  An ``RngStream`` supplies the chain id."""
    data = _as_data(c, hp)
    for t, v in enumerate(data.views):
        if v.n_obs == 0:
            raise ValueError(f"view {t} ({v.name!r}) has no observed entries")
    gen = _as_gen(rng)
    state = init(data, hp, gen)
    total = hp.burn_in + hp.n_samples * hp.thin
    traces = np.empty((total, 1 + data.n_views))
    states, sweeps = [], []
    for sweep in range(1, total + 1):
        residuals = sweep_fn(state, data, gen)
        traces[sweep - 1, 0] = log_joint_fn(state, data, residuals=residuals)
        for t, v in enumerate(data.views):
            traces[sweep - 1, 1 + t] = np.sum(residuals[t] ** 2) / v.n_obs
        if sweep > hp.burn_in and (sweep - hp.burn_in) % hp.thin == 0:
            states.append(state.copy())
            sweeps.append(sweep)
    return PosteriorSamples(
        model=model, states=states, sweeps=sweeps,
        chain_id=getattr(rng, "stream_id", chain_id),
        trace_names=["log_joint"] + [f"mse_view_{t + 1}" for t in range(data.n_views)],
        traces=traces, hp=hp, view_names=data.names, origins=origins,
    )


def run_chain(c, hp: HyperParams, rng, chain_id: int = 0,
              origins: list[int] | None = None) -> PosteriorSamples:
    """Run one Gibbs chain and collect thinned snapshots after burn-in."""
    return _run_chain("mtf", init_state, mtf_sweep, log_joint, c, hp, rng, chain_id, origins)


@dataclass
class ComponentStructure:
    """Posterior activity summary: which components live in which views."""

    activity: np.ndarray        # (n_groups, K) posterior activity scores
    active: np.ndarray          # (n_groups, K) bool, score > threshold
    threshold: float
    n_shared: int
    n_specific: np.ndarray      # per (grouped) view
    n_empty: int

    @property
    def counts(self) -> tuple[int, tuple[int, ...], int]:
        return self.n_shared, tuple(int(x) for x in self.n_specific), self.n_empty

    @property
    def effective_cardinality(self) -> int:
        return self.activity.shape[1] - self.n_empty


def _activity_matrix(samples: PosteriorSamples) -> np.ndarray:
    """Per-(view, component) activity score averaged over snapshots.

    Strict model: posterior mean of h_{t,k}.  Relaxed model: the largest
    per-slab posterior mean, so a component counts as active in a tensor
    if any slab uses it.
    """
    first = samples.states[0]
    if samples.model == "mtf":
        return np.mean([st.H for st in samples.states], axis=0)
    t_views = len(first.H)
    k = first.H[0].shape[1]
    act = np.empty((t_views, k))
    for t in range(t_views):
        slab_means = np.mean([st.H[t] for st in samples.states], axis=0)  # (L, K)
        act[t] = slab_means.max(axis=0)
    return act


def component_structure(samples, threshold: float = 0.5,
                        view_groups: list[list[int]] | None = None) -> ComponentStructure:
    """Count shared / view-specific / empty components from posterior activity.

    ``samples`` may be one chain or a list of chains (snapshots pooled).
    ``view_groups`` merges views that came from unfolding one tensor: a
    component is active in the merged view if active in any member.
    """
    chains = samples if isinstance(samples, (list, tuple)) else [samples]
    if not chains or chains[0].n_snapshots == 0:
        raise ValueError("need at least one snapshot")
    acts = [_activity_matrix(s) for s in chains]
    activity = np.mean(acts, axis=0) if len(acts) > 1 else acts[0]
    if view_groups is not None:
        activity = np.stack([activity[g].max(axis=0) for g in view_groups])
    active = activity > threshold
    n_active_views = active.sum(axis=0)
    n_shared = int(np.sum(n_active_views >= 2))
    n_specific = np.array([
        int(np.sum(active[t] & (n_active_views == 1))) for t in range(active.shape[0])
    ])
    n_empty = int(np.sum(n_active_views == 0))
    return ComponentStructure(activity, active, threshold, n_shared, n_specific, n_empty)


# ---------------------------------------------------------------------------
# exact generative draws, used by the sampler-correctness harness


def _prior_latents(data: ModelData, hp: HyperParams, gen):
    """Z, U per group and pi drawn from their priors, the first draws of
    both models' prior states."""
    Z = gen.standard_normal((data.n, hp.k))
    U = [gen.standard_normal((data.views[g[0]].l, hp.k)) for g in data.u_groups]
    return Z, U, _clip_unit(gen.beta(hp.a_pi, hp.b_pi, size=hp.k))


def _ard_prior(d: int, h: np.ndarray, hp: HyperParams, gen):
    """ARD precisions (d, K) and spike-and-slab loadings (d, K) drawn from
    their priors given the activity row h."""
    a = np.maximum(gen.gamma(hp.a_alpha, 1.0 / hp.b_alpha, size=(d, hp.k)), _ALPHA_FLOOR)
    return a, gen.standard_normal((d, hp.k)) / np.sqrt(a) * h[None, :]


def sample_state_from_prior(data: ModelData, hp: HyperParams, rng) -> MtfState:
    """Draw every latent exactly from its prior (unlike init_state)."""
    gen = _as_gen(rng)
    Z, U, pi = _prior_latents(data, hp, gen)
    H = (gen.random((data.n_views, hp.k)) < pi[None, :]).astype(np.float64)
    alpha, V = map(list, zip(*(_ard_prior(v.d, H[t], hp, gen)
                               for t, v in enumerate(data.views))))
    tau = gen.gamma(hp.a_tau, 1.0 / data.b_tau)
    return MtfState(Z=Z, V=V, U=U, H=H, pi=pi, alpha=alpha, tau=tau,
                    group_of=dict(data.group_of))


def simulate_data(state, data: ModelData, rng) -> list[np.ndarray]:
    """Draw data from the likelihood given either model's state; arrays are
    (N, L, D)."""
    gen = _as_gen(rng)
    return [_recon_nld(state, t) + gen.standard_normal(v.x.shape)
            / np.sqrt(state.slab_loadings(t)[1])[:, None] for t, v in enumerate(data.views)]
