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
from scipy.special import betaln, gammaln

from .core import Collection, Tensor3
from .mtf import (
    _ALPHA_FLOOR,
    _clip_unit,
    _deflation_start,
    HyperParams,
    ModelData,
    PosteriorSamples,
    _as_data,
    _logit,
    _slab_evidence_logodds,
    prepare,
)
from .dist import (
    RngStream,
    _chol_jittered,
    cholesky_stack,
    draw_bernoulli_logodds,
    draw_mvn_precision_chol,
    draw_mvn_rows,
    stacked_precisions,
)

__all__ = [
    "RmtfState",
    "rmtf_init",
    "rmtf_sweep",
    "rmtf_run_chain",
    "rmtf_reconstruct_mean",
    "rmtf_log_joint",
    "rmtf_sample_state_from_prior",
    "rmtf_simulate_data",
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

    def lam_lk(self, t: int, n_slabs: int) -> np.ndarray:
        """Slab-similarity precision broadcast to (L_t, K) for tensor view t."""
        if self.lambda_mode == "global":
            return np.broadcast_to(np.asarray(self.lam), (n_slabs, self.k))
        if self.lambda_mode == "per_component":
            return np.broadcast_to(np.asarray(self.lam)[None, :], (n_slabs, self.k))
        return np.broadcast_to(self.lam[t][:, None], (n_slabs, self.k))

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
    data = _as_data(c, hp)
    gen = rng.gen if isinstance(rng, RngStream) else rng
    n, k = data.n, hp.k
    Z, V0, U = _deflation_start(data, k, gen)
    pi = _clip_unit(gen.beta(hp.a_pi, hp.b_pi, size=k))
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


def _recon_nld(state: RmtfState, t: int) -> np.ndarray:
    return np.einsum("nk,ldk->nld", state.Z, state.W[t], optimize=True)


def rmtf_reconstruct_mean(state: RmtfState, t: int) -> Tensor3:
    """Slab l of the mean reconstruction is Z W_l^T."""
    return Tensor3(_recon_nld(state, t).transpose(0, 2, 1))


def _residual(state, data: ModelData, t: int) -> np.ndarray:
    v = data.views[t]
    r = v.x - _recon_nld(state, t)
    if v.obs is not None:
        r *= v.obs
    return r


def _residuals(state, data):
    return [_residual(state, data, t) for t in range(data.n_views)]


def _update_z(state: RmtfState, data: ModelData, gen):
    """Latent rows from their Gaussian conditionals; as the strict sampler's
    ``update_z`` with b = w_{l,d} and weight tau_l for the entry in slab l."""
    n, k = state.Z.shape
    lin = np.zeros((n, k))
    base = np.eye(k)
    terms = []
    for t, v in enumerate(data.views):
        lin += np.einsum("nld,l,ldk->nk", v.x, state.tau[t], state.W[t], optimize=True)
        if v.obs is None:
            base += np.einsum("l,ldk,ldj->kj", state.tau[t], state.W[t], state.W[t],
                              optimize=True)
        else:
            terms.append((v.obs.reshape(n, -1), state.W[t].reshape(-1, k),
                          np.repeat(state.tau[t], v.d)))
    if not terms:
        state.Z = draw_mvn_precision_chol(lin, _chol_jittered(base), gen)
    else:
        state.Z = draw_mvn_rows(lin, cholesky_stack(stacked_precisions(base, terms)), gen)


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
            # inactive columns keep their ARD precision (see the strict
            # sampler's update_hypers for why)
            h_row = state.H[t][0]                         # (K,)
            w0 = state.W[t][0]
            a_post = hp.a_alpha + h_row / 2.0
            b_post = hp.b_alpha + h_row * w0 ** 2 / 2.0
            draws = gen.gamma(np.broadcast_to(a_post, b_post.shape), 1.0 / b_post)
            state.alpha[t] = np.where(h_row > 0,
                                      np.maximum(draws, _ALPHA_FLOOR),
                                      state.alpha[t])
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
    gen = rng.gen if isinstance(rng, RngStream) else rng
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


def rmtf_log_joint(state: RmtfState, c, hp: HyperParams | None = None,
                   residuals=None) -> float:
    data = _as_data(c, hp)
    h = data.hp
    if residuals is None:
        residuals = _residuals(state, data)
    log2pi = np.log(2.0 * np.pi)
    total = 0.0
    for t, v in enumerate(data.views):
        rss = (residuals[t] ** 2).sum(axis=(0, 2))
        total += float(np.sum(0.5 * v.obs_per_slab * (np.log(state.tau[t]) - log2pi)
                              - 0.5 * state.tau[t] * rss))
    total += -0.5 * float(np.sum(state.Z ** 2)) - 0.5 * state.Z.size * log2pi
    for u in state.U:
        total += -0.5 * float(np.sum(u ** 2)) - 0.5 * u.size * log2pi
    for t, v in enumerate(data.views):
        H = state.H[t]
        if v.is_matrix():
            act = H[0] > 0
            if act.any():
                a, w0 = state.alpha[t][:, act], state.W[t][0][:, act]
                total += float(np.sum(0.5 * (np.log(a) - log2pi) - a * w0 ** 2 / 2.0))
            a = state.alpha[t]
            total += float(np.sum(h.a_alpha * np.log(h.b_alpha) - gammaln(h.a_alpha)
                                  + (h.a_alpha - 1) * np.log(a) - h.b_alpha * a))
        else:
            u = state.u_for_view(t)
            lam = state.lam_lk(t, v.l)
            mean = u[:, None, :] * state.V[t][None, :, :]
            dev2 = (state.W[t] - mean) ** 2
            gate = H[:, None, :]
            total += float(np.sum(gate * (0.5 * (np.log(lam)[:, None, :] - log2pi)
                                          - lam[:, None, :] * dev2 / 2.0)))
            b = state.beta[t]
            total += float(np.sum(0.5 * (np.log(b) - log2pi)
                                  - b * state.V[t] ** 2 / 2.0))
            total += float(np.sum(h.a_beta * np.log(h.b_beta) - gammaln(h.a_beta)
                                  + (h.a_beta - 1) * np.log(b) - h.b_beta * b))
        total += float(np.sum(np.where(H > 0, np.log(state.pi)[None, :],
                                       np.log1p(-state.pi)[None, :])))
    total += float(np.sum((h.a_pi - 1) * np.log(state.pi)
                          + (h.b_pi - 1) * np.log1p(-state.pi))) \
        - state.k * betaln(h.a_pi, h.b_pi)
    lam_vals = []
    if state.lambda_mode == "per_slab":
        lam_vals = [x for x in state.lam if x is not None]
    else:
        lam_vals = [np.atleast_1d(np.asarray(state.lam))]
    for lv in lam_vals:
        total += float(np.sum(h.a_lambda * np.log(h.b_lambda) - gammaln(h.a_lambda)
                              + (h.a_lambda - 1) * np.log(lv) - h.b_lambda * lv))
    for t in range(data.n_views):
        bt = data.b_tau_slab[t]
        total += float(np.sum(h.a_tau * np.log(bt) - gammaln(h.a_tau)
                              + (h.a_tau - 1) * np.log(state.tau[t])
                              - bt * state.tau[t]))
    return float(total)


def rmtf_run_chain(c, hp: HyperParams, rng, chain_id: int = 0,
                   origins: list[int] | None = None) -> PosteriorSamples:
    """Run one relaxed-model chain on the strict model's schedule machinery."""
    data = _as_data(c, hp)
    if isinstance(rng, RngStream):
        chain_id = rng.stream_id
    state = rmtf_init(data, hp, rng)
    total = hp.burn_in + hp.n_samples * hp.thin
    traces = np.empty((total, 1 + data.n_views))
    states, sweeps = [], []
    for sweep in range(1, total + 1):
        residuals = rmtf_sweep(state, data, rng)
        traces[sweep - 1, 0] = rmtf_log_joint(state, data, residuals=residuals)
        for t, v in enumerate(data.views):
            traces[sweep - 1, 1 + t] = np.sum(residuals[t] ** 2) / v.n_obs
        if sweep > hp.burn_in and (sweep - hp.burn_in) % hp.thin == 0:
            states.append(state.copy())
            sweeps.append(sweep)
    return PosteriorSamples(
        model="rmtf", states=states, sweeps=sweeps, chain_id=chain_id,
        trace_names=["log_joint"] + [f"mse_view_{t + 1}" for t in range(data.n_views)],
        traces=traces, hp=hp, view_names=data.names, origins=origins,
    )


# ---------------------------------------------------------------------------
# exact generative draws for the sampler-correctness harness


def rmtf_sample_state_from_prior(data: ModelData, hp: HyperParams, rng) -> RmtfState:
    gen = rng.gen if isinstance(rng, RngStream) else rng
    n, k = data.n, hp.k
    Z = gen.standard_normal((n, k))
    U = [gen.standard_normal((data.views[g[0]].l, k)) for g in data.u_groups]
    pi = _clip_unit(gen.beta(hp.a_pi, hp.b_pi, size=k))
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
            a = np.maximum(gen.gamma(hp.a_alpha, 1.0 / hp.b_alpha, size=(v.d, k)),
                           _ALPHA_FLOOR)
            state.alpha.append(a)
            state.beta.append(None)
            state.V.append(np.zeros((v.d, k)))
            w = gen.standard_normal((1, v.d, k)) / np.sqrt(a)[None] * H[:, None, :]
            state.W.append(w)
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


def rmtf_simulate_data(state: RmtfState, data: ModelData, rng) -> list[np.ndarray]:
    gen = rng.gen if isinstance(rng, RngStream) else rng
    out = []
    for t, v in enumerate(data.views):
        sd = 1.0 / np.sqrt(state.tau[t])[None, :, None]
        out.append(_recon_nld(state, t) + gen.standard_normal(v.x.shape) * sd)
    return out
