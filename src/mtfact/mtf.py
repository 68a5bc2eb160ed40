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

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas
from scipy.special import betaln, gammaln

from .core import Collection, Tensor3, fiber_moments, validate_collection
from .dist import (
    _as_gen,
    _chol_jittered,
    cholesky_stack,
    draw_bernoulli_logodds,
    draw_mvn_precision_chol,
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
    x2: np.ndarray                # (L,) squared norm of each slab of x
    name: str
    n_obs: int
    obs_per_slab: np.ndarray      # (L,) observed counts
    pattern_obs: np.ndarray | None = None   # (P, L*D) obs rows of each row pattern

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


@dataclass
class ModelData:
    """A collection compiled into sampling-ready arrays plus resolved priors;
    pattern p's rows are row_order[pattern_starts[p]:pattern_starts[p + 1]]."""

    views: list[ViewData]
    u_groups: list[list[int]]
    group_of: dict[int, int]
    patterns: np.ndarray          # (N,) joint missingness pattern of each row
    row_order: np.ndarray         # (N,) rows sorted (stably) by pattern
    pattern_starts: np.ndarray    # (P,) start of each pattern's rows in row_order
    hp: HyperParams | None = None
    b_tau: np.ndarray | None = None             # (T,) resolved noise-precision rates
    b_tau_slab: list[np.ndarray] | None = None  # per view (L_t,)

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
        v.x2 = np.einsum("nld,nld->l", v.x, v.x)


def _compile(c: Collection) -> ModelData:
    """``ModelData`` of a collection without priors (a test set's held-out
    slab has no observed variance to resolve them from): each row's joint
    missingness pattern across the masked views, numbered in the order
    ``np.unique`` gives their packed observation bits, with each masked
    view's (P, L*D) observation rows of the patterns, and the rows sorted by
    pattern with each pattern's segment start.  P = 1 when dense."""
    views = []
    for t, mv in enumerate(c.views):
        x = np.ascontiguousarray(mv.values.transpose(0, 2, 1))  # (N, L, D)
        obs_b = mv.observed.transpose(0, 2, 1)
        fully = bool(obs_b.all())
        obs = None if fully else np.ascontiguousarray(obs_b, dtype=np.float64)
        if not fully:
            x = x * obs
        views.append(ViewData(
            x=x, obs=obs, x2=np.einsum("nld,nld->l", x, x), name=c.names[t],
            n_obs=int(obs_b.sum()), obs_per_slab=obs_b.sum(axis=(0, 2)),
        ))
    n = c.n_samples
    masked = [v for v in views if v.obs is not None]
    patterns = np.zeros(n, dtype=np.intp)
    if masked:
        packed = np.packbits(np.concatenate([v.obs.reshape(n, -1) for v in masked], axis=1) > 0,
                             axis=1)
        _, first, patterns = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0],
                                       return_index=True, return_inverse=True)
        for v in masked:
            v.pattern_obs = v.obs.reshape(n, -1)[first]
    groups = c.u_groups()
    order = np.argsort(patterns, kind="stable")
    return ModelData(views, groups, {t: g for g, m in enumerate(groups) for t in m}, patterns,
                     order, np.flatnonzero(np.diff(patterns[order], prepend=-1)))


def prepare(c: Collection, hp: HyperParams, validate: bool = True) -> ModelData:
    """``_compile`` of a collection, checked unless ``validate`` is False,
    with its noise-precision rates resolved (see ``HyperParams``)."""
    if validate:
        problems = validate_collection(c)
        if problems:
            raise ValueError("invalid collection: " + "; ".join(problems))
    data = _compile(c)
    data.hp, data.b_tau, data.b_tau_slab = hp, np.empty(data.n_views), []
    for t, v in enumerate(data.views):
        if hp.b_tau is not None:
            data.b_tau[t], slab = hp.b_tau, np.full(v.l, hp.b_tau)
        else:
            counts, _, var = fiber_moments(c.views[t])
            ok, var = counts.T >= 2, var.T   # (L, D): fibers with 2+ entries, slab-major
            slab = np.array([row[k].mean() if k.any() else 0.0 for row, k in zip(var, ok)])
            if np.any(slab <= 0):   # also when no fiber has two entries
                raise ValueError(f"cannot resolve the SNR-1 noise prior for view {t} "
                                 "(no usable observed variance); pass an explicit b_tau")
            data.b_tau[t], slab = hp.a_tau * 0.5 * float(var[ok].mean()), hp.a_tau * 0.5 * slab
        data.b_tau_slab.append(slab)
    return data


def _as_data(c, hp: HyperParams) -> ModelData:
    return c if isinstance(c, ModelData) else prepare(c, hp)


class _LatentState:
    """What both models' states share: latent rows Z (N, K), per-view V,
    per-group U and the view -> U-group map ``group_of``."""

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

    def slab_mean(self, t: int) -> np.ndarray:
        """The trilinear slab loadings u_l * V_t (L, D, K) of view t: the
        strict model's slabs, and the relaxed model's slab prior mean."""
        return self.u_for_view(t)[:, None, :] * self.V[t][None, :, :]

    def copy(self):
        return copy.deepcopy(self)


@dataclass
class MtfState(_LatentState):
    """All latent variables of one chain, plus the view/group structure."""

    Z: np.ndarray                  # (N, K)
    V: list[np.ndarray]            # per view (D_t, K)
    U: list[np.ndarray]            # per third-mode group (L_g, K)
    H: np.ndarray                  # (T, K) exact 0/1
    pi: np.ndarray                 # (K,)
    alpha: list[np.ndarray]        # per view (D_t, K)
    tau: np.ndarray                # (T,)
    group_of: dict[int, int] = field(default_factory=dict)

    def slab_loadings(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-slab loadings W (L, D, K) of view t, slab l being u_l * V, and
        the noise precision of each slab (tau_t repeated)."""
        w = self.slab_mean(t)
        return w, np.full(w.shape[0], self.tau[t])


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


def _draw_pi(h_rows: np.ndarray, hp: HyperParams, gen) -> np.ndarray:
    """pi (K,) from its Beta conditional given the activity rows h_rows
    (R, K), R = 0 for its prior, kept strictly inside (0, 1): extreme Beta
    draws underflow."""
    act = h_rows.sum(axis=0)
    return np.clip(gen.beta(hp.a_pi + act, hp.b_pi + len(h_rows) - act),
                   1e-300, np.nextafter(1.0, 0.0))


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _loadings(data: ModelData, vs, us) -> list[np.ndarray]:
    """B_t = [vec(u_j v_tj^T)] (L*D, J) of each view, the Khatri-Rao product
    of its group's third-mode loadings and its own: v_t itself on a matrix view."""
    return [(us[data.group_of[t]][:, None] * v).reshape(data.views[t].l * len(v), -1)
            if t in data.group_of else v for t, v in enumerate(vs)]


def _cp_als(data: ModelData, resid, z, vs, us, n_iter: int):
    """CP-ALS updates (Kolda & Bader 2009, SIAM Review 51:455, sec. 3.4) of J
    components, z (N, J), vs per view (D, J) and us per group (L, J), fitted
    to Y_t = R_t + z B_t^T, each residual R_t as its (N, L*D) reshape (only
    read): R_t is zero at masked entries, so Y_t fills them with the entry's
    reconstruction (Tomasi & Bro 2005).  Each update solves the normal
    equations of v_t (P_t = z^T Y_t read as (J, L, D), Gram (z^T z) o (u^T u)),
    then u (the same P_t), then z (sum_t Y_t B_t, Gram sum_t B_t^T B_t), with
    z^T Y_t = z^T R_t + (z^T z0) B0_t^T and Y_t B = R_t B + z0 B0_t^T B.
    J = 1 from v = 0 is a rank-1 power iteration on the residual.  Every
    solve is min-norm least squares, so a singular Gram raises nothing.
    """
    z0, b0 = z, _loadings(data, vs, us)
    vs, us = list(vs), list(us)
    for _ in range(n_iter):
        zz, cross = z.T @ z, z.T @ z0
        proj = [(z.T @ r + cross @ b.T).reshape(-1, v.l, v.d)
                for r, b, v in zip(resid, b0, data.views)]
        for t, p in enumerate(proj):
            u = us[data.group_of[t]] if t in data.group_of else np.ones((1, z.shape[1]))
            vs[t] = np.linalg.lstsq(zz * (u.T @ u), np.einsum("lj,jld->jd", u, p),
                                    rcond=None)[0].T
        for g, members in enumerate(data.u_groups):
            us[g] = np.linalg.lstsq(sum(zz * (vs[t].T @ vs[t]) for t in members),
                                    sum(np.einsum("jld,dj->jl", proj[t], vs[t]) for t in members),
                                    rcond=None)[0].T
        bs = _loadings(data, vs, us)
        z = np.linalg.lstsq(sum(b.T @ b for b in bs),
                            sum(b.T @ r.T + (b.T @ c) @ z0.T for r, b, c in zip(resid, bs, b0)),
                            rcond=None)[0].T
    return z, vs, us


def _subtract_component(data: ModelData, resid, z, bs):
    """Subtract z B_t^T (z (N, J), B_t (L*D, J)) from each (N, L*D) residual
    in place: one BLAS GEMM update of its column-major transpose, then the
    observation mask on masked views, whose masked entries stay zero."""
    for t, b in enumerate(bs):
        resid[t] = blas.dgemm(-1.0, b, z, beta=1.0, c=resid[t].T, trans_b=True,
                              overwrite_c=True).T
        if data.views[t].obs is not None:
            resid[t] *= data.views[t].obs.reshape(data.n, -1)


def _above_noise_floor(data: ModelData, resid, z, bs) -> bool:
    """Keep a fitted component only if it captures more of some view's
    residual than 1.3 times the top singular direction of pure noise would
    (the Marchenko-Pastur edge for that view's matricized shape)."""
    for v, r, b in zip(data.views, resid, bs):
        cap = float(np.vdot(z, z) * np.vdot(b, b))
        total = float(np.dot(r.ravel(), r.ravel()))  # C-contiguous: no temporary
        if total <= 0:
            continue
        cols = v.d * v.l
        edge = (np.sqrt(data.n) + np.sqrt(cols)) ** 2 / (data.n * cols)
        if cap / total > 1.3 * edge:
            return True
    return False


def _deflation_start(data: ModelData, k: int, gen, n_polish: int = 5):
    """Greedy rank-1 warm start: peel dominant joint rank-1 structure off the
    residual one component at a time, then polish the kept ones jointly.

    A cold random start cannot bootstrap the spike-and-slab race (a random
    direction never accumulates activation evidence), slab-scale random
    loadings crush the latent rows into a degenerate gauge, and a principal
    subspace start leaves the components as mixtures that the race then
    entrenches.  Deflation stops at the noise floor; leftover budget
    components start empty, subject to the activation race like any other.

    The peel fits each component by 8 steps of ``_cp_als`` with J = 1 and,
    while ``_above_noise_floor`` keeps it, subtracts it from each view's
    residual, one (N, L*D) copy of its data.  The polish is ``n_polish``
    CP-ALS updates of all kept components at once, the residual refreshed
    in place after each (masked entries re-imputed).
    Unlike a subspace, components that a tensor view pins are unique up to
    scaling and permutation (Kruskal 1977, Linear Algebra Appl. 18:95), so
    this descent from the separated peeled components refines them rather
    than mixing them.
    Returns (Z, V per view, U per group), gauge-normalized so latent rows
    and third-mode factors sit at their prior scale.
    """
    n = data.n
    resid = [v.x.reshape(n, -1).copy() for v in data.views]
    group_u = [0.05 * gen.standard_normal((data.views[g[0]].l, k))
               for g in data.u_groups]
    start = gen.standard_normal((n, k))  # fixed draw order for determinism
    z, vs, us = start[:, :0], [np.zeros((v.d, 0)) for v in data.views], [u[:, :0] for u in group_u]
    for j in range(k):
        zj, vj, uj = _cp_als(data, resid, start[:, j:j + 1],
                             [np.zeros((v.d, 1)) for v in data.views],
                             [np.full((len(u), 1), len(u) ** -0.5) for u in group_u], 8)
        bs = _loadings(data, vj, uj)
        if not np.isfinite(zj).all() or not zj.any():
            break
        if not _above_noise_floor(data, resid, zj, bs):
            break
        _subtract_component(data, resid, zj, bs)
        z = np.hstack([z, zj])
        vs = [np.hstack(p) for p in zip(vs, vj)]
        us = [np.hstack(p) for p in zip(us, uj)]
    for i in range(n_polish):
        if i:
            for r, v in zip(resid, data.views):
                np.copyto(r, v.x.reshape(n, -1))
            _subtract_component(data, resid, z, _loadings(data, vs, us))
        z, vs, us = _cp_als(data, resid, z, vs, us, 1)
    # normalize gauge: |z| -> sqrt(N), |u| -> sqrt(L), scale into v
    cz = np.linalg.norm(z, axis=0) / np.sqrt(n)
    keep = np.flatnonzero(np.isfinite(cz) & (cz > 0))
    for g, u in enumerate(us):
        cu = np.linalg.norm(u, axis=0) / np.sqrt(len(u))
        cu[cu == 0] = 1.0
        group_u[g][:, keep] = (u / cu)[:, keep]
        for t in data.u_groups[g]:
            vs[t] = vs[t] * cu
    Z, V = np.zeros((n, k)), [np.zeros((v.d, k)) for v in data.views]
    Z[:, keep] = z[:, keep] / cz[keep]
    for t, v in enumerate(vs):
        V[t][:, keep] = v[:, keep] * cz[keep]
    return Z, V, group_u


def init_state(c, hp: HyperParams, rng) -> MtfState:
    """Initial chain state, also the relaxed model's start (``rmtf_init``):
    (Z, V, U) from the deflation warm start, then pi from its prior, H all
    on, ARD precisions at their conditional posterior means and noise
    precisions at their SNR-1 targets."""
    data = _as_data(c, hp)
    gen = _as_gen(rng)
    if data.n < hp.k:
        warnings.warn(f"fewer samples ({data.n}) than components ({hp.k}); "
                      "expect slow mixing")
    Z, V, U = _deflation_start(data, hp.k, gen)
    # conditional posterior mean given the warm-start loadings; empty columns
    # start with a tight (spike-like) slab, so their activation race is run
    # on the data rather than decided by an over-diffuse slab
    alpha = [(hp.a_alpha + 0.5) / (hp.b_alpha + v ** 2 / 2.0) for v in V]
    return MtfState(Z=Z, V=V, U=U, H=np.ones((data.n_views, hp.k)),
                    pi=_draw_pi(np.zeros((0, hp.k)), hp, gen), alpha=alpha,
                    tau=data.hp.a_tau / data.b_tau, group_of=dict(data.group_of))


def _recon_nld(state, t: int) -> np.ndarray:
    """Mean reconstruction of view t as (N, L, D), from the slab loadings of
    either model's state."""
    w = state.slab_loadings(t)[0]
    return (state.Z @ w.reshape(-1, state.k).T).reshape(-1, *w.shape[:2])


def reconstruct_mean(state, t: int) -> Tensor3:
    """Mean of view t: slab l is Z W_l^T (strict model: sum of z_k o v_k o u_k)."""
    return Tensor3(_recon_nld(state, t).transpose(0, 2, 1))


def z_conditional(blocks, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of the latent rows given per-slab loadings.

    ``blocks`` holds one (x, rows, W, tau) per view: x (N, L, D) with masked
    entries zeroed, W (L, D, K) and tau (L,) as from ``slab_loadings``, and
    rows the view's ``pattern_obs`` (0/1 observation rows of the P row
    patterns) or None.  Entry (l, d) adds tau_l x b to the linear term and
    tau_l b b^T to the precision, with b = w_{l,d}: on a fully observed view,
    the GEMM W^T diag(tau) W over its L*D entries.  The linear term's GEMM
    is ((tau B)^T X^T)^T, its fast orientation.  Returns (lin (N, K), prec):
    one (K, K) precision when no view has rows, else the (P, K, K) pattern
    precisions, one GEMM per masked view.
    """
    lin, base, terms = 0.0, np.eye(k), []
    for x, rows, w, tau in blocks:
        b = w.reshape(-1, k)                                    # (L*D, K)
        tw = np.repeat(tau, w.shape[1])
        tb = tw[:, None] * b
        lin = lin + (tb.T @ x.reshape(x.shape[0], -1).T).T
        if rows is None:
            base = base + tb.T @ b
        else:
            terms.append((rows, b, tw))
    return lin, stacked_precisions(base, terms)


def _rss(state, data: ModelData) -> list[np.ndarray]:
    """Per-slab residual sums of squares of every view of either model's
    state, by ``_slab_rss`` on its slab loadings."""
    return [_slab_rss(v.x2, _view_stats(data, t, state.Z), state.slab_loadings(t)[0])
            for t, v in enumerate(data.views)]


def _z_blocks(state, data: ModelData) -> list:
    """The ``z_conditional`` input of every view of a model state."""
    return [(v.x, v.pattern_obs, *state.slab_loadings(t)) for t, v in enumerate(data.views)]


def _factors(prec: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors (P, K, K) of a precision stack, or of one
    shared (K, K) precision as a stack of one."""
    return _chol_jittered(prec)[None] if prec.ndim == 2 else cholesky_stack(prec)


def update_z(state, data: ModelData, rng) -> np.ndarray:
    """Resample every latent row of either model from its Gaussian conditional.

    Precision for row n: I_K + sum_t sum_{(l,d) observed} tau_l b b^T with
    b = w_{l,d}, the entry (l, d) of the slab loadings (``z_conditional``),
    u_l * v_d in the strict model.  Rows of one missingness pattern share a
    precision, factorized once, and are drawn together; the normals are one
    (N, K) block in row order.
    """
    lin, prec = z_conditional(_z_blocks(state, data), state.k)
    state.Z = draw_mvn_precision_chol(lin, _factors(prec), data.patterns,
                                      _as_gen(rng).standard_normal(lin.shape))
    return state.Z


def _slab_evidence(xb, g, tau, rho, mu):
    """What ``_column_step`` forms once per call, for the Gram diagonal g:
    the posterior precisions rho + tau g, their square roots and halved
    inverses, and tau xb + rho mu, component-major (K, S, .) at the
    broadcast shape of their inputs, and the evidence constants
    sum_d [log(rho / precision) - rho mu^2] / 2 (K, S).  Returns
    ``evidence(k, cross)``: column k's log evidence ratio summed over D
    (S,), posterior mean (S, D), precision and standard deviation."""
    tau = np.reshape(tau, (-1, 1, 1))
    prec = rho + tau * g
    half_log = 0.5 * (np.log(rho) - np.log(prec))
    const = half_log.sum(axis=1) * (xb.shape[1] // half_log.shape[1])  # D terms if d-constant
    base = tau * xb
    if np.ndim(mu) or mu:
        rho_mu = rho * mu
        base, const = base + rho_mu, const - np.vecdot(rho_mu, mu, axis=1) / 2.0
    base, prec, const = base.transpose(2, 0, 1).copy(), prec.transpose(2, 0, 1).copy(), const.T
    sd, half, tau = np.sqrt(prec), 0.5 / prec, tau[..., 0]

    def evidence(k, cross):
        shifted = base[k] - tau * cross
        return const[k] + np.vecdot(shifted, shifted * half[k]), shifted / prec[k], prec[k], sd[k]
    return evidence


def _column_step(xb, gram, w, tau, rho, mu, logit_pi, h, gen):
    """Collapsed spike-and-slab update, in place, of the loadings w (S, D, K)
    and activity h (S, K) of S independent columns per component.

    Column (s, k) has likelihood statistics tau_s (xb[s, :, k] - c) and
    tau_s gram[s, :, k, k], with cross term c = sum_{j != k} w[s, :, j]
    gram[s, :, k, j], from the projected data xb (S, D, K) and the
    per-feature Gram: (K, K) when shared, else broadcastable to (S, D, K, K).
    tau is (S,), or a scalar when S = 1.  Slab N(mu, 1/rho), both
    broadcastable to w; spike exact zero.  Only c depends on the other
    columns, so ``_slab_evidence`` forms everything else once per call and
    the component loop carries c (w with column k zeroed times Gram row k),
    the log odds and the draws.  Per component: S uniforms (also at a log
    odds of +-inf; a NaN one raises ValueError), then the active columns'
    normals in slab order.
    """
    evidence = _slab_evidence(xb, np.diagonal(gram, axis1=-2, axis2=-1), tau, rho, mu)
    for k in range(w.shape[-1]):
        w[..., k] = 0.0
        cross = w @ gram[k] if gram.ndim == 2 else np.vecdot(w, gram[..., k, :])
        lo, mean, _, sd = evidence(k, cross)
        h[:, k] = draw_bernoulli_logodds(logit_pi[k] + lo, gen)
        on = h[:, k] > 0
        w[on, :, k] = mean[on] + gen.standard_normal((on.sum(), w.shape[1])) / sd[on]


def _view_stats(data: ModelData, t: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sufficient statistics of view t given Z, one GEMM each: X^T Z per slab
    (L, D, K), masked entries zero, as (Z^T X)^T (the fast orientation), and
    the Gram: Z^T Z (K, K) on a fully observed view, else the per-entry M
    (L, D, K, K), M[l, d] = sum_n obs[n, l, d] z_n z_n^T = sum_p obs_p[l, d]
    S_p over the P row patterns, with S_p = sum_{n in p} z_n z_n^T one
    segment sum of the rows in pattern order (skipped when P = N)."""
    v, k = data.views[t], z.shape[1]
    if v.obs is None:
        gram = z.T @ z
    else:
        s = outer_rows(z[data.row_order])
        if len(data.pattern_starts) < data.n:
            s = np.add.reduceat(s, data.pattern_starts)
        gram = (v.pattern_obs.T @ s).reshape(v.l, v.d, k, k)
    return (z.T @ v.x.reshape(v.n, -1)).T.reshape(v.l, v.d, k), gram


def _slab_rss(x2: np.ndarray, stats, w: np.ndarray) -> np.ndarray:
    """Residual sum of squares of each slab from sufficient statistics,
    RSS_l = ||X_l||^2 - 2 <(X^T Z)_l, W_l> + sum_d w_ld^T G_ld w_ld, given
    x2 = ||X_l||^2 (L,), stats = (X^T Z, G) of ``_view_stats`` and the
    loadings w (L, D, K); the strict sweep passes ``_strict_stats`` and w = U.
    Rounding can make an exact fit's RSS -eps, so it is clamped at 0."""
    xb, gram = stats
    wg = w @ gram if gram.ndim == 2 else (w[..., None, :] @ gram)[..., 0, :]
    return np.maximum(x2 + ((wg - 2.0 * xb) * w).reshape(w.shape[0], -1).sum(axis=1), 0.0)


def _strict_stats(stats, v_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_view_stats`` contracted with V (D, K): P_lk = sum_d (X^T Z)_ldk v_dk
    (L, K) and the Gram (V^T V) * (Z^T Z), or sum_d M_ld * v_d v_d^T per slab."""
    xtz, g = stats
    vv = (v_t.T @ v_t) * g if g.ndim == 2 else \
        np.einsum("ldkj,dkj->lkj", g, v_t[:, :, None] * v_t[:, None, :])
    return np.einsum("ldk,dk->lk", xtz, v_t), vv


def update_vh(state: MtfState, data: ModelData, t: int, rng, stats=None):
    """Joint spike-and-slab update of (V^(t), H_{t,:}) by ``_column_step``,
    one column (design z_k o u_k) per component; returns (V^(t), H row).

    GFA statistics (Virtanen et al. 2012, AISTATS; Klami et al. 2015, IEEE
    TNNLS 26:2136): xb = sum_l u_l * (X^T Z)_l and the elementwise product
    (Z^T Z) * (U^T U), or on a masked view per feature d the Gram
    sum_l (u_l u_l^T) * M[l, d], from ``_view_stats`` of the current Z
    (stats[t] if given, else formed here).
    """
    v = data.views[t]
    u = state.u_for_view(t)
    xtz, g = _view_stats(data, t, state.Z) if stats is None else stats[t]
    gram = g * (u.T @ u) if g.ndim == 2 else \
        np.einsum("ldkj,lkj->dkj", g, u[:, :, None] * u[:, None, :])
    xb = np.einsum("ldk,lk->dk", xtz, u)[None]
    _column_step(xb, gram, state.V[t][None], state.tau[t], state.alpha[t], 0.0,
                 _logit(state.pi), state.H[t:t + 1], _as_gen(rng))
    return state.V[t], state.H[t]


def update_u(state: MtfState, data: ModelData, g: int, rng, ustats=None) -> np.ndarray:
    """Resample the shared third-mode factors of one tensor-view group.

    Precision for slab l: I_K + sum_t tau_t sum_{(n,d) observed} b b^T with
    b = z_n * v_d, and linear term sum_t tau_t P_t[l], from (P_t, Gram) of
    ``_strict_stats`` (ustats[t] if given, else formed here).  Without
    masked member views all slabs are pattern 0 with one shared
    precision; otherwise slab l is pattern l.
    """
    members = data.u_groups[g]
    lin, prec = 0.0, np.eye(state.k)
    for t in members:
        p, a = _strict_stats(_view_stats(data, t, state.Z), state.V[t]) \
            if ustats is None else ustats[t]
        lin = lin + state.tau[t] * p
        prec = prec + state.tau[t] * a
    chols = _factors(prec)
    state.U[g] = draw_mvn_precision_chol(lin, chols, np.arange(len(lin)) % len(chols),
                                         _as_gen(rng).standard_normal(lin.shape))
    return state.U[g]


def _draw_ard(alpha: np.ndarray, h, v: np.ndarray, a: float, b: float, gen) -> np.ndarray:
    """ARD precisions (D, K) of the active columns of v (activity row h, or
    1 for all columns) redrawn from their Gamma conditional under the
    Gamma(a, b) prior; inactive columns keep theirs (see ``update_hypers``)."""
    b_post = b + h * v ** 2 / 2.0
    draws = gen.gamma(np.broadcast_to(a + h / 2.0, b_post.shape), 1.0 / b_post)
    return np.where(h > 0, np.maximum(draws, _ALPHA_FLOOR), alpha)


def update_hypers(state: MtfState, data: ModelData, rng, rss: list[np.ndarray] | None = None):
    """Conjugate updates of pi, the ARD precisions, and the noise precisions,
    given the per-slab residual sums of squares (``_rss`` when not given).

    ARD precisions of inactive columns are left untouched (a valid partial
    scan: the coordinate selection depends only on H, which this update
    never changes).  Resampling them from the prior would make deactivation
    absorbing under the heavy-tailed default: Gamma(1e-3, 1e-3) draws are
    almost all numerically zero, which vetoes any later reactivation.
    """
    h = data.hp
    gen = _as_gen(rng)
    state.pi = _draw_pi(state.H, h, gen)
    for t in range(data.n_views):
        state.alpha[t] = _draw_ard(state.alpha[t], state.H[t], state.V[t],
                                   h.a_alpha, h.b_alpha, gen)
    if rss is None:
        rss = _rss(state, data)
    for t, v in enumerate(data.views):
        b_post = data.b_tau[t] + 0.5 * float(np.sum(rss[t]))
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

    Each view's X^T Z and Gram (``_view_stats``) are formed once, after the
    z-step, and contracted with V once, after the (v,h) steps; those serve
    the u-step and the per-slab residual sums of squares (``_slab_rss``).

    The map z_k -> c z_k, v_tk -> v_tk / c leaves the likelihood unchanged,
    so the coordinate updates alone only random-walk along each
    component's scale; the moves sample that direction directly.  They
    draw 1 + (number of U groups) Gamma vectors per sweep.

    Returns the per-slab residual sums of squares, exact after the moves.
    """
    update_z(state, data, rng)
    stats = [_view_stats(data, t, state.Z) for t in range(data.n_views)]
    for t in range(data.n_views):
        update_vh(state, data, t, rng, stats)
    ustats = [_strict_stats(s, vt) for s, vt in zip(stats, state.V)]
    for g in range(len(data.u_groups)):
        update_u(state, data, g, rng, ustats)
    rss = [_slab_rss(v.x2, s, state.u_for_view(t))
           for t, (v, s) in enumerate(zip(data.views, ustats))]
    update_hypers(state, data, rng, rss=rss)
    state.Z = _rescale(state, data, state.Z, range(data.n_views), rng)
    for g, members in enumerate(data.u_groups):
        state.U[g] = _rescale(state, data, state.U[g], members, rng)
    return rss


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


def _shared_lp(state, data: ModelData, rss) -> float:
    """Log joint terms common to both models: the Gaussian likelihood of the
    observed entries (per slab, from its residual sum of squares), the N(0, I)
    priors of Z and U, the Bernoulli(pi) activity of H and the Beta prior of pi."""
    hp = data.hp
    total = 0.0
    for t, v in enumerate(data.views):
        tau = np.broadcast_to(state.tau[t], v.obs_per_slab.shape)   # per slab
        total += float(np.sum(0.5 * v.obs_per_slab * (np.log(tau) - _LOG2PI) - 0.5 * tau * rss[t]))
    for x in [state.Z, *state.U]:
        total += -0.5 * float(np.sum(x ** 2)) - 0.5 * x.size * _LOG2PI
    log_pi, log_1mpi = np.log(state.pi), np.log1p(-state.pi)
    total += sum(float(np.sum(np.where(h > 0, log_pi, log_1mpi))) for h in state.H)
    return total + float(np.sum((hp.a_pi - 1) * log_pi + (hp.b_pi - 1) * log_1mpi)) \
        - state.k * betaln(hp.a_pi, hp.b_pi)


def log_joint(state: MtfState, data: ModelData, rss: list[np.ndarray] | None = None) -> float:
    """Log of the joint density over observed entries and all priors, given
    the per-slab residual sums of squares (``_rss`` when not given).

    Inactive columns contribute only their Bernoulli log(1 - pi_k) mass; the
    spike itself carries no density term.
    """
    h = data.hp
    total = _shared_lp(state, data, _rss(state, data) if rss is None else rss)
    for t in range(data.n_views):
        total += _ard_lp(state.alpha[t], state.H[t], state.V[t], h)
    return total + _gamma_lp(state.tau, h.a_tau, data.b_tau)


def _run_chain(model: str, init, sweep_fn, log_joint_fn, c, hp: HyperParams,
               rng) -> PosteriorSamples:
    """Chain driver shared by both samplers: ``init``, then burn-in and
    thinned sweeps of ``sweep_fn``, with the log joint and the per-view mean
    squared residual (so every view needs an observed entry) recorded after
    every sweep, both from the residual sums of squares the sweep returns.
    The chain id is the ``RngStream``'s stream id (0 for a bare Generator)."""
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
        rss = sweep_fn(state, data, gen)
        traces[sweep - 1, 0] = log_joint_fn(state, data, rss=rss)
        for t, v in enumerate(data.views):
            traces[sweep - 1, 1 + t] = np.sum(rss[t]) / v.n_obs
        if sweep > hp.burn_in and (sweep - hp.burn_in) % hp.thin == 0:
            states.append(state.copy())
            sweeps.append(sweep)
    return PosteriorSamples(
        model=model, states=states, sweeps=sweeps, chain_id=getattr(rng, "stream_id", 0),
        trace_names=["log_joint"] + [f"mse_view_{t + 1}" for t in range(data.n_views)],
        traces=traces, hp=hp, view_names=data.names,
    )


def run_chain(c, hp: HyperParams, rng) -> PosteriorSamples:
    """Run one Gibbs chain on ``c`` (a collection or ``ModelData``) from
    ``init_state`` and collect thinned snapshots after burn-in.  ``rng`` is
    an ``RngStream`` (its stream id is the chain id) or a Generator (id 0);
    ``origins`` is left unset (``fitting.fit_model`` sets it for GFA)."""
    return _run_chain("mtf", init_state, mtf_sweep, log_joint, c, hp, rng)


@dataclass
class ComponentStructure:
    """Posterior activity summary: which components live in which views."""

    activity: np.ndarray        # (n_groups, K) posterior activity scores
    active: np.ndarray          # (n_groups, K) bool, score > 0.5
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
    """Per-(view, component) activity score averaged over snapshots: the
    largest over a view's slabs of the posterior mean of h (one row per
    view in the strict model), so a component counts as active in a tensor
    if any slab uses it."""
    return np.array([np.mean([np.atleast_2d(st.H[t]) for st in samples.states], axis=0)
                     .max(axis=0) for t in range(len(samples.states[0].H))])


def component_structure(samples) -> ComponentStructure:
    """Count shared / view-specific / empty components from posterior activity.

    ``samples`` may be one chain or a list of chains (snapshots pooled).
    Chains fit on unfolded tensors count per source view (their ``origins``):
    a component is active in a source view if active in any of its slabs.
    """
    chains = samples if isinstance(samples, (list, tuple)) else [samples]
    if not chains or chains[0].n_snapshots == 0:
        raise ValueError("need at least one snapshot")
    acts = [_activity_matrix(s) for s in chains]
    activity = np.mean(acts, axis=0) if len(acts) > 1 else acts[0]
    if chains[0].origins is not None:
        origins = np.asarray(chains[0].origins)
        activity = np.stack([activity[origins == o].max(axis=0) for o in np.unique(origins)])
    active = activity > 0.5
    n_active_views = active.sum(axis=0)
    n_shared = int(np.sum(n_active_views >= 2))
    n_specific = np.array([
        int(np.sum(active[t] & (n_active_views == 1))) for t in range(active.shape[0])
    ])
    n_empty = int(np.sum(n_active_views == 0))
    return ComponentStructure(activity, active, n_shared, n_specific, n_empty)


# ---------------------------------------------------------------------------
# exact generative draws, used by the sampler-correctness harness


def _prior_latents(data: ModelData, hp: HyperParams, gen):
    """Z, U per group and pi drawn from their priors, the first draws of
    both models' prior states."""
    Z = gen.standard_normal((data.n, hp.k))
    U = [gen.standard_normal((data.views[g[0]].l, hp.k)) for g in data.u_groups]
    return Z, U, _draw_pi(np.zeros((0, hp.k)), hp, gen)


def _ard_prior(d: int, h: np.ndarray, a: float, b: float, gen):
    """ARD precisions (d, K) under the Gamma(a, b) prior and spike-and-slab
    loadings (d, K) drawn from their priors given the activity row h (K,)."""
    prec = np.maximum(gen.gamma(a, 1.0 / b, size=(d, h.size)), _ALPHA_FLOOR)
    return prec, gen.standard_normal((d, h.size)) / np.sqrt(prec) * h


def sample_state_from_prior(data: ModelData, hp: HyperParams, rng) -> MtfState:
    """Draw every latent exactly from its prior (unlike init_state)."""
    gen = _as_gen(rng)
    Z, U, pi = _prior_latents(data, hp, gen)
    H = (gen.random((data.n_views, hp.k)) < pi[None, :]).astype(np.float64)
    alpha, V = map(list, zip(*(_ard_prior(v.d, H[t], hp.a_alpha, hp.b_alpha, gen)
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
