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

from .dist import _as_gen, draw_bernoulli_logodds
from .mtf import (
    _ALPHA_FLOOR,
    HyperParams,
    ModelData,
    PosteriorSamples,
    _ard_lp,
    _ard_prior,
    _clip_unit,
    _draw_ard,
    _draw_rows,
    _gamma_lp,
    _logit,
    _normal_lp,
    _prior_latents,
    _residuals,
    _run_chain,
    _shared_lp,
    _slab_evidence_logodds,
    _warm_start,
    _z_blocks,
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
class RmtfState:
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

    @property
    def k(self) -> int:
        return self.Z.shape[1]

    @property
    def n_views(self) -> int:
        return len(self.W)

    def u_for_view(self, t: int) -> np.ndarray:
        if t in self.group_of:
            return self.U[self.group_of[t]]
        return np.ones((1, self.k))

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

    def copy(self) -> "RmtfState":
        if isinstance(self.lam, list):
            lam = [a.copy() if a is not None else None for a in self.lam]
        else:
            lam = np.array(self.lam, copy=True)
        return RmtfState(
            Z=self.Z.copy(),
            W=[w.copy() for w in self.W],
            V=[v.copy() for v in self.V],
            U=[u.copy() for u in self.U],
            H=[h.copy() for h in self.H],
            pi=self.pi.copy(),
            alpha=[a.copy() if a is not None else None for a in self.alpha],
            beta=[b.copy() if b is not None else None for b in self.beta],
            lam=lam,
            tau=[t.copy() for t in self.tau],
            lambda_mode=self.lambda_mode,
            group_of=dict(self.group_of),
        )


def _init_lam(mode: str, value: float, k: int, data: ModelData):
    if mode == "global":
        return np.asarray(value, dtype=np.float64)
    if mode == "per_component":
        return np.full(k, value)
    return [None if v.is_matrix() else np.full(v.l, value) for v in data.views]


def rmtf_init(c, hp: HyperParams, rng) -> RmtfState:
    """Initial state: greedy rank-1 warm start shared with the strict model,
    slabs starting at their trilinear mean u v, everything active.

    Heavy-tailed precision priors start at their prior means.
    """
    data, Z, V0, U, pi = _warm_start(c, hp, rng)
    k = hp.k
    lam_mean = hp.a_lambda / hp.b_lambda
    state = RmtfState(
        Z=Z, W=[], V=[], U=U, H=[], pi=pi, alpha=[], beta=[],
        lam=_init_lam(hp.lambda_mode, lam_mean, k, data),
        tau=[hp.a_tau / data.b_tau_slab[t] for t in range(data.n_views)],
        lambda_mode=hp.lambda_mode, group_of=dict(data.group_of),
    )
    for t, v in enumerate(data.views):
        state.H.append(np.ones((v.l, k)))
        if v.is_matrix():
            state.W.append(V0[t][None, :, :].copy())
            # conditional posterior mean given the warm-start loadings
            state.alpha.append((hp.a_alpha + 0.5) / (hp.b_alpha + V0[t] ** 2 / 2.0))
            state.beta.append(None)
            state.V.append(np.zeros((v.d, k)))
        else:
            u = state.u_for_view(t)
            state.W.append(u[:, None, :] * V0[t][None, :, :])
            state.alpha.append(None)
            state.beta.append((hp.a_beta + 0.5) / (hp.b_beta + V0[t] ** 2 / 2.0))
            state.V.append(V0[t].copy())
    return state


def _update_z(state: RmtfState, data: ModelData, gen):
    """Latent rows from their Gaussian conditionals: the strict sampler's
    Z-step on the slab loadings W_l, weighted by tau_l."""
    state.Z = _draw_rows(*z_conditional(_z_blocks(state, data), state.k), gen)


def _update_wh(state: RmtfState, data: ModelData, t: int, gen,
               residual: np.ndarray) -> np.ndarray:
    """Collapsed spike-and-slab update of (W^(t), H^(t)), one (slab, component)
    column at a time; returns the maintained residual."""
    v = data.views[t]
    W, H = state.W[t], state.H[t]
    u = state.u_for_view(t)
    if v.is_matrix():
        prior_prec_dk = state.alpha[t]            # (D, K), mean 0
        prior_mean = None
    else:
        lam = state.lam_lk(t, v.l)                # (L, K)
        prior_mean = u[:, None, :] * state.V[t][None, :, :]   # (L, D, K)
    z2 = state.Z ** 2
    zz = z2.sum(axis=0)
    for l in range(v.l):
        r_l = residual[:, l, :]                   # (N, D) slice view
        tau_l = state.tau[t][l]
        obs_l = None if v.obs is None else v.obs[:, l, :]
        for k in range(state.k):
            z_k = state.Z[:, k]
            sdata = np.full(v.d, zz[k]) if obs_l is None \
                else obs_l.T @ z2[:, k]
            m = tau_l * (r_l.T @ z_k + W[l, :, k] * sdata)
            s = tau_l * sdata
            if v.is_matrix():
                rho, mu = prior_prec_dk[:, k], 0.0
            else:
                rho, mu = lam[l, k], prior_mean[l, :, k]
            lo, post_mean, post_prec = _slab_evidence_logodds(m, rho, mu, s)
            h_new = draw_bernoulli_logodds(_logit(state.pi[k]) + lo, gen)
            if h_new:
                w_new = post_mean + gen.standard_normal(v.d) / np.sqrt(post_prec)
            else:
                w_new = np.zeros(v.d)
            dw = W[l, :, k] - w_new
            if np.any(dw != 0.0):
                upd = np.outer(z_k, dw)
                if obs_l is not None:
                    upd *= obs_l
                r_l += upd
            W[l, :, k] = w_new
            H[l, k] = float(h_new)
    return residual


def _update_v(state: RmtfState, data: ModelData, t: int, gen):
    """Trilinear mean profile of a tensor view: Gaussian given active slabs' W."""
    v = data.views[t]
    u = state.u_for_view(t)
    lam = state.lam_lk(t, v.l)
    gate = state.H[t] * lam                               # (L, K)
    prec = state.beta[t] + (gate * u ** 2).sum(axis=0)[None, :]   # (D, K)
    num = np.einsum("lk,ldk->dk", gate * u, state.W[t], optimize=True)
    state.V[t] = num / prec + gen.standard_normal((v.d, state.k)) / np.sqrt(prec)


def _update_u(state: RmtfState, data: ModelData, g: int, gen):
    """Per-(slab, component) scalar Gaussians for one tensor-view group."""
    members = data.u_groups[g]
    n_slabs = data.views[members[0]].l
    prec = np.ones((n_slabs, state.k))
    num = np.zeros((n_slabs, state.k))
    for t in members:
        lam = state.lam_lk(t, n_slabs)
        gate = state.H[t] * lam
        sv2 = (state.V[t] ** 2).sum(axis=0)               # (K,)
        prec += gate * sv2[None, :]
        num += gate * np.einsum("ldk,dk->lk", state.W[t], state.V[t], optimize=True)
    state.U[g] = num / prec + gen.standard_normal((n_slabs, state.k)) / np.sqrt(prec)


def _lambda_stats(state: RmtfState, data: ModelData):
    """Active-triple counts and squared deviations (w - u v)^2, per view."""
    counts, devs = [], []
    for t, v in enumerate(data.views):
        if v.is_matrix():
            counts.append(None)
            devs.append(None)
            continue
        u = state.u_for_view(t)
        mean = u[:, None, :] * state.V[t][None, :, :]
        dev2 = (state.W[t] - mean) ** 2 * state.H[t][:, None, :]
        counts.append(state.H[t] * v.d)                   # (L, K) active d-counts
        devs.append(dev2)
    return counts, devs


def _update_lambda(state: RmtfState, data: ModelData, hp: HyperParams, gen):
    counts, devs = _lambda_stats(state, data)
    tensor_ts = [t for t, v in enumerate(data.views) if not v.is_matrix()]
    if not tensor_ts:
        return
    if state.lambda_mode == "global":
        n_act = sum(counts[t].sum() for t in tensor_ts)
        ss = sum(devs[t].sum() for t in tensor_ts)
        state.lam = np.asarray(gen.gamma(hp.a_lambda + 0.5 * n_act,
                                         1.0 / (hp.b_lambda + 0.5 * ss)))
    elif state.lambda_mode == "per_component":
        n_act = sum(counts[t].sum(axis=0) for t in tensor_ts)
        ss = sum(devs[t].sum(axis=(0, 1)) for t in tensor_ts)
        state.lam = gen.gamma(hp.a_lambda + 0.5 * n_act, 1.0 / (hp.b_lambda + 0.5 * ss))
    else:  # per_slab: one lambda per (view, slab)
        for t in tensor_ts:
            n_act = counts[t].sum(axis=1)
            ss = devs[t].sum(axis=(1, 2))
            state.lam[t] = gen.gamma(hp.a_lambda + 0.5 * n_act,
                                     1.0 / (hp.b_lambda + 0.5 * ss))


def _update_scales_and_noise(state: RmtfState, data: ModelData, hp: HyperParams,
                             gen, residuals):
    for t, v in enumerate(data.views):
        if v.is_matrix():
            state.alpha[t] = _draw_ard(state.alpha[t], state.H[t][0], state.W[t][0], hp, gen)
        else:
            b_post = hp.b_beta + state.V[t] ** 2 / 2.0
            draws = gen.gamma(hp.a_beta + 0.5, 1.0 / b_post)
            state.beta[t] = np.maximum(draws, _ALPHA_FLOOR)
    for t, v in enumerate(data.views):
        rss = (residuals[t] ** 2).sum(axis=(0, 2))        # per slab
        b_post = data.b_tau_slab[t] + 0.5 * rss
        state.tau[t] = gen.gamma(hp.a_tau + v.obs_per_slab / 2.0, 1.0 / b_post)


def _update_pi(state: RmtfState, data: ModelData, hp: HyperParams, gen):
    act = sum(h.sum(axis=0) for h in state.H)
    total = sum(v.l for v in data.views)
    state.pi = _clip_unit(gen.beta(hp.a_pi + act, hp.b_pi + total - act))


def rmtf_sweep(state: RmtfState, data: ModelData, rng) -> list[np.ndarray]:
    """One full conditional scan; returns end-of-sweep per-view residuals."""
    gen = _as_gen(rng)
    hp = data.hp
    _update_z(state, data, gen)
    residuals = _residuals(state, data)
    for t in range(data.n_views):
        _update_wh(state, data, t, gen, residuals[t])
    for t, v in enumerate(data.views):
        if not v.is_matrix():
            _update_v(state, data, t, gen)
    for g in range(len(data.u_groups)):
        _update_u(state, data, g, gen)
    _update_lambda(state, data, hp, gen)
    residuals = _residuals(state, data)  # exact, decoupled from incremental drift
    _update_scales_and_noise(state, data, hp, gen, residuals)
    _update_pi(state, data, hp, gen)
    return residuals


def rmtf_log_joint(state: RmtfState, data: ModelData, residuals=None) -> float:
    h = data.hp
    if residuals is None:
        residuals = _residuals(state, data)
    total = _shared_lp(state, data, residuals)
    for t, v in enumerate(data.views):
        if v.is_matrix():
            total += _ard_lp(state.alpha[t], state.H[t][0], state.W[t][0], h)
        else:
            lam = state.lam_lk(t, v.l)[:, None, :]
            dev = state.W[t] - state.u_for_view(t)[:, None, :] * state.V[t][None, :, :]
            total += float(np.sum(state.H[t][:, None, :] * _normal_lp(dev, lam)))
            total += float(np.sum(_normal_lp(state.V[t], state.beta[t]))) \
                + _gamma_lp(state.beta[t], h.a_beta, h.b_beta)
        total += _gamma_lp(state.tau[t], h.a_tau, data.b_tau_slab[t])
    return total + _gamma_lp(state.lam_values(), h.a_lambda, h.b_lambda)


def rmtf_run_chain(c, hp: HyperParams, rng, chain_id: int = 0,
                   origins: list[int] | None = None) -> PosteriorSamples:
    """Run one relaxed-model chain through the strict model's chain driver."""
    return _run_chain("rmtf", rmtf_init, rmtf_sweep, rmtf_log_joint, c, hp, rng,
                      chain_id, origins)


# ---------------------------------------------------------------------------
# exact generative draws for the sampler-correctness harness


def rmtf_sample_state_from_prior(data: ModelData, hp: HyperParams, rng) -> RmtfState:
    gen = _as_gen(rng)
    k = hp.k
    Z, U, pi = _prior_latents(data, hp, gen)
    if hp.lambda_mode == "global":
        lam = np.asarray(gen.gamma(hp.a_lambda, 1.0 / hp.b_lambda))
    elif hp.lambda_mode == "per_component":
        lam = gen.gamma(hp.a_lambda, 1.0 / hp.b_lambda, size=k)
    else:
        lam = [None if v.is_matrix()
               else gen.gamma(hp.a_lambda, 1.0 / hp.b_lambda, size=v.l)
               for v in data.views]
    state = RmtfState(Z=Z, W=[], V=[], U=U, H=[], pi=pi, alpha=[], beta=[],
                      lam=lam, tau=[], lambda_mode=hp.lambda_mode,
                      group_of=dict(data.group_of))
    for t, v in enumerate(data.views):
        H = (gen.random((v.l, k)) < pi[None, :]).astype(np.float64)
        state.H.append(H)
        if v.is_matrix():
            a, w = _ard_prior(v.d, H[0], hp, gen)
            state.alpha.append(a)
            state.beta.append(None)
            state.V.append(np.zeros((v.d, k)))
            state.W.append(w[None])
        else:
            state.alpha.append(None)
            b = np.maximum(gen.gamma(hp.a_beta, 1.0 / hp.b_beta, size=(v.d, k)),
                           _ALPHA_FLOOR)
            state.beta.append(b)
            vmat = gen.standard_normal((v.d, k)) / np.sqrt(b)
            state.V.append(vmat)
            u = state.u_for_view(t)
            mean = u[:, None, :] * vmat[None, :, :]
            sd = 1.0 / np.sqrt(state.lam_lk(t, v.l))[:, None, :]
            w = (mean + gen.standard_normal((v.l, v.d, k)) * sd) * H[:, None, :]
            state.W.append(w)
        state.tau.append(gen.gamma(hp.a_tau, 1.0 / data.b_tau_slab[t]))
    return state
