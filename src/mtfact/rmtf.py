"""Gibbs sampler for the relaxed joint factorization.

Every tensor slab l of view t gets its own loading matrix W_l whose active
columns are shrunk toward the rank-1 pattern u_{l,k} v_{d,k} with a learned
tightness lambda: large lambda pins the slabs to the strict trilinear
factorization, small lambda lets each slab behave like an independent matrix
view.  Matrix views keep the strict model's zero-mean ARD slab, so on an
all-matrices collection both samplers coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dist import _as_gen, draw_mvn_precision_chol
from .mtf import (
    HyperParams,
    ModelData,
    PosteriorSamples,
    _LatentState,
    _ard_lp,
    _ard_prior,
    _as_data,
    _column_step,
    _draw_ard,
    _draw_pi,
    _factors,
    _gamma_lp,
    _logit,
    _normal_lp,
    _prior_latents,
    _rss,
    _run_chain,
    _shared_lp,
    _slab_rss,
    _view_stats,
    _z_blocks,
    init_state,
    z_conditional,
)

__all__ = [
    "RmtfState",
    "rmtf_init",
    "rmtf_sweep",
    "rmtf_run_chain",
    "rmtf_log_joint",
    "rmtf_sample_state_from_prior",
]


@dataclass
class RmtfState(_LatentState):
    """Latents of one relaxed-model chain.

    ``lam`` is a scalar array for the global mode, a (K,) array for
    per_component, or a per-view list of (L_t,) arrays for per_slab (None
    entries for matrix views, which use alpha instead).
    """

    Z: np.ndarray                       # (N, K)
    W: list[np.ndarray]                 # per view (L_t, D_t, K)
    V: list[np.ndarray]                 # per view (D_t, K); zeros for matrices
    U: list[np.ndarray]                 # per group (L_g, K)
    H: list[np.ndarray]                 # per view (L_t, K) exact 0/1
    pi: np.ndarray                      # (K,)
    alpha: list[np.ndarray | None]      # matrix views only (D_t, K)
    beta: list[np.ndarray | None]       # tensor views only (D_t, K)
    lam: np.ndarray | list
    tau: list[np.ndarray]               # per view (L_t,)
    lambda_mode: str = "global"
    group_of: dict[int, int] = field(default_factory=dict)

    def slab_loadings(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-slab loadings W (L, D, K) and noise precisions (L,) of view t."""
        return self.W[t], self.tau[t]

    def lam_lk(self, t: int, n_slabs: int) -> np.ndarray:
        """Slab-similarity precision broadcast to (L_t, K) for tensor view t."""
        if self.lambda_mode == "global":
            return np.broadcast_to(np.asarray(self.lam), (n_slabs, self.k))
        if self.lambda_mode == "per_component":
            return np.broadcast_to(np.asarray(self.lam)[None, :], (n_slabs, self.k))
        return np.broadcast_to(self.lam[t][:, None], (n_slabs, self.k))

    def lam_values(self) -> np.ndarray:
        """Every slab-similarity precision of the state, as one flat array."""
        lams = self.lam if self.lambda_mode == "per_slab" else [self.lam]
        return np.concatenate([np.zeros(0)] + [np.ravel(x) for x in lams if x is not None])


def _lam_layout(mode: str, k: int, data: ModelData, fill):
    """lambda in the layout of ``mode`` (see ``RmtfState``), each array made
    by ``fill(shape)``: () for global, (K,) per_component, (L_t,) per_slab."""
    if mode == "global":
        return np.asarray(fill(()))
    if mode == "per_component":
        return fill(k)
    return [None if v.is_matrix() else fill(v.l) for v in data.views]


def rmtf_init(c, hp: HyperParams, rng) -> RmtfState:
    """Initial state: the strict start (``init_state``) with free slabs, each
    active and at its trilinear mean ``slab_mean`` (V_t[None] on a matrix
    view, whose V is then zero and which keeps the strict alpha); tensor
    views' beta at its conditional posterior mean given V, lambda at its
    prior mean and each slab's noise precision at its SNR-1 target."""
    data = _as_data(c, hp)
    s = init_state(data, hp, rng)
    mats = [v.is_matrix() for v in data.views]
    return RmtfState(
        Z=s.Z, W=[s.slab_mean(t) for t in range(data.n_views)],
        V=[np.zeros_like(v) if m else v for v, m in zip(s.V, mats)], U=s.U,
        H=[np.ones((v.l, hp.k)) for v in data.views], pi=s.pi,
        alpha=[a if m else None for a, m in zip(s.alpha, mats)],
        beta=[None if m else (hp.a_beta + 0.5) / (hp.b_beta + v ** 2 / 2.0)
              for v, m in zip(s.V, mats)],
        lam=_lam_layout(hp.lambda_mode, hp.k, data,
                        lambda shape: np.full(shape, hp.a_lambda / hp.b_lambda)),
        tau=[hp.a_tau / b for b in data.b_tau_slab],
        lambda_mode=hp.lambda_mode, group_of=s.group_of)


def _update_z(state: RmtfState, data: ModelData, gen):
    """Latent rows from their Gaussian conditionals: the strict sampler's
    Z-step on the slab loadings W_l, weighted by tau_l, with one precision
    per missingness pattern of the rows (see ``mtf.update_z``)."""
    lin, prec = z_conditional(_z_blocks(state, data), state.k)
    state.Z = draw_mvn_precision_chol(lin, _factors(prec), data.patterns,
                                      gen.standard_normal(lin.shape))


def _update_wh(state: RmtfState, data: ModelData, t: int, gen, stats=None):
    """Collapsed spike-and-slab update of (W^(t), H^(t)) by ``_column_step``,
    one column (design z_k) per slab and component, on X_l^T Z per slab and
    Z^T Z or the per-entry Gram M (``_view_stats``: stats[t] if given, else
    formed here).  The slab is N(u_l v, 1/lambda) on tensors, N(0, 1/alpha)
    on matrices.  The slab columns of one component are conditionally
    independent, so they are drawn together, per component.
    """
    v = data.views[t]
    xtz, gram = _view_stats(v, state.Z) if stats is None else stats[t]
    if v.is_matrix():
        rho, mu = state.alpha[t], 0.0
    else:
        rho, mu = state.lam_lk(t, v.l)[:, None, :], state.slab_mean(t)
    _column_step(xtz, gram, state.W[t], state.tau[t], rho, mu,
                 _logit(state.pi), state.H[t], gen)
    return state.W[t], state.H[t]


def _update_v(state: RmtfState, data: ModelData, t: int, gen):
    """Trilinear mean profile of a tensor view: Gaussian given active slabs' W.
    A component off in every slab keeps its profile and beta (every column
    is drawn, then those are kept): the partial scan of ``mtf.update_hypers``,
    so a persistently inactive profile cannot random-walk with its beta."""
    v = data.views[t]
    u = state.u_for_view(t)
    gate = state.H[t] * state.lam_lk(t, v.l)              # (L, K)
    prec = state.beta[t] + (gate * u ** 2).sum(axis=0)[None, :]   # (D, K)
    num = np.einsum("lk,ldk->dk", gate * u, state.W[t])
    drawn = num / prec + gen.standard_normal((v.d, state.k)) / np.sqrt(prec)
    state.V[t] = np.where(state.H[t].max(axis=0) > 0, drawn, state.V[t])


def _update_u(state: RmtfState, data: ModelData, g: int, gen):
    """Per-(slab, component) scalar Gaussians for one tensor-view group."""
    members = data.u_groups[g]
    n_slabs = data.views[members[0]].l
    prec = np.ones((n_slabs, state.k))
    num = np.zeros((n_slabs, state.k))
    for t in members:
        gate = state.H[t] * state.lam_lk(t, n_slabs)
        prec += gate * (state.V[t] ** 2).sum(axis=0)
        num += gate * np.einsum("ldk,dk->lk", state.W[t], state.V[t])
    state.U[g] = num / prec + gen.standard_normal((n_slabs, state.k)) / np.sqrt(prec)


def _lambda_stats(state: RmtfState, data: ModelData):
    """(view, active-triple counts (L, K), squared deviations (w - u v)^2
    (L, D, K)) of each tensor view."""
    return [(t, state.H[t] * v.d, (state.W[t] - state.slab_mean(t)) ** 2 * state.H[t][:, None, :])
            for t, v in enumerate(data.views) if not v.is_matrix()]


def _update_lambda(state: RmtfState, data: ModelData, hp: HyperParams, gen):
    stats = _lambda_stats(state, data)
    if not stats:
        return
    if state.lambda_mode == "global":
        n_act = sum(counts.sum() for _, counts, _ in stats)
        ss = sum(devs.sum() for _, _, devs in stats)
        state.lam = np.asarray(gen.gamma(hp.a_lambda + 0.5 * n_act,
                                         1.0 / (hp.b_lambda + 0.5 * ss)))
    elif state.lambda_mode == "per_component":
        n_act = sum(counts.sum(axis=0) for _, counts, _ in stats)
        ss = sum(devs.sum(axis=(0, 1)) for _, _, devs in stats)
        state.lam = gen.gamma(hp.a_lambda + 0.5 * n_act, 1.0 / (hp.b_lambda + 0.5 * ss))
    else:  # per_slab: one lambda per (view, slab)
        for t, counts, devs in stats:
            state.lam[t] = gen.gamma(hp.a_lambda + 0.5 * counts.sum(axis=1),
                                     1.0 / (hp.b_lambda + 0.5 * devs.sum(axis=(1, 2))))


def _update_scales_and_noise(state: RmtfState, data: ModelData, hp: HyperParams,
                             gen, rss):
    for t, v in enumerate(data.views):
        if v.is_matrix():
            state.alpha[t] = _draw_ard(state.alpha[t], state.H[t][0], state.W[t][0],
                                       hp.a_alpha, hp.b_alpha, gen)
        else:   # the mean profile's precisions, of components on in some slab
            state.beta[t] = _draw_ard(state.beta[t], state.H[t].max(axis=0), state.V[t],
                                      hp.a_beta, hp.b_beta, gen)
    for t, v in enumerate(data.views):
        b_post = data.b_tau_slab[t] + 0.5 * rss[t]
        state.tau[t] = gen.gamma(hp.a_tau + v.obs_per_slab / 2.0, 1.0 / b_post)


def _update_pi(state: RmtfState, data: ModelData, hp: HyperParams, gen):
    state.pi = _draw_pi(np.concatenate(state.H), hp, gen)


def rmtf_sweep(state: RmtfState, data: ModelData, rng) -> list[np.ndarray]:
    """One full conditional scan: z, per-view (w, h), v, per-group u, lambda,
    then slab scales, noise and pi.  The (w, h) step draws per component
    across slabs (see ``_update_wh``).  Each view's X^T Z and Gram
    (``_view_stats``) are formed once, after the z-step, for the (w, h)
    step and the per-slab residual sums of squares (``_slab_rss``) that the
    noise update takes and the sweep returns."""
    gen = _as_gen(rng)
    hp = data.hp
    _update_z(state, data, gen)
    stats = [_view_stats(v, state.Z) for v in data.views]
    for t in range(data.n_views):
        _update_wh(state, data, t, gen, stats)
    for t, v in enumerate(data.views):
        if not v.is_matrix():
            _update_v(state, data, t, gen)
    for g in range(len(data.u_groups)):
        _update_u(state, data, g, gen)
    _update_lambda(state, data, hp, gen)
    rss = [_slab_rss(v.x2, s, w) for v, s, w in zip(data.views, stats, state.W)]
    _update_scales_and_noise(state, data, hp, gen, rss)
    _update_pi(state, data, hp, gen)
    return rss


def rmtf_log_joint(state: RmtfState, data: ModelData, rss=None) -> float:
    """Log joint of the relaxed model; ``rss`` as for ``mtf.log_joint``."""
    h = data.hp
    total = _shared_lp(state, data, _rss(state, data) if rss is None else rss)
    for t, v in enumerate(data.views):
        if v.is_matrix():
            total += _ard_lp(state.alpha[t], state.H[t][0], state.W[t][0], h)
        else:
            lam = state.lam_lk(t, v.l)[:, None, :]
            dev = state.W[t] - state.slab_mean(t)
            total += float(np.sum(state.H[t][:, None, :] * _normal_lp(dev, lam)))
            total += float(np.sum(_normal_lp(state.V[t], state.beta[t]))) \
                + _gamma_lp(state.beta[t], h.a_beta, h.b_beta)
        total += _gamma_lp(state.tau[t], h.a_tau, data.b_tau_slab[t])
    return total + _gamma_lp(state.lam_values(), h.a_lambda, h.b_lambda)


def rmtf_run_chain(c, hp: HyperParams, rng) -> PosteriorSamples:
    """Run one relaxed-model chain from ``rmtf_init`` through the strict
    model's chain driver; ``rng`` and the chain id as for ``mtf.run_chain``."""
    return _run_chain("rmtf", rmtf_init, rmtf_sweep, rmtf_log_joint, c, hp, rng)


# ---------------------------------------------------------------------------
# exact generative draws for the sampler-correctness harness


def rmtf_sample_state_from_prior(data: ModelData, hp: HyperParams, rng) -> RmtfState:
    gen = _as_gen(rng)
    k = hp.k
    Z, U, pi = _prior_latents(data, hp, gen)
    lam = _lam_layout(hp.lambda_mode, k, data,
                      lambda shape: gen.gamma(hp.a_lambda, 1.0 / hp.b_lambda, size=shape))
    state = RmtfState(Z=Z, W=[], V=[], U=U, H=[], pi=pi, alpha=[], beta=[],
                      lam=lam, tau=[], lambda_mode=hp.lambda_mode,
                      group_of=dict(data.group_of))
    for t, v in enumerate(data.views):
        H = (gen.random((v.l, k)) < pi[None, :]).astype(np.float64)
        state.H.append(H)
        if v.is_matrix():
            a, w = _ard_prior(v.d, H[0], hp.a_alpha, hp.b_alpha, gen)
            state.alpha.append(a)
            state.beta.append(None)
            state.V.append(np.zeros((v.d, k)))
            state.W.append(w[None])
        else:
            state.alpha.append(None)
            b, vmat = _ard_prior(v.d, np.ones(k), hp.a_beta, hp.b_beta, gen)
            state.beta.append(b)
            state.V.append(vmat)
            sd = 1.0 / np.sqrt(state.lam_lk(t, v.l))[:, None, :]
            w = (state.slab_mean(t) + gen.standard_normal((v.l, v.d, k)) * sd) * H[:, None, :]
            state.W.append(w)
        state.tau.append(gen.gamma(hp.a_tau, 1.0 / data.b_tau_slab[t]))
    return state
