"""Two-stage out-of-sample prediction and error metrics.

Stage one is ordinary training: a posterior archive over the loading-side
parameters.  Stage two freezes, per stored snapshot, everything a new sample
couples to (V, U, tau; plus W and lambda for the relaxed model), runs a short
Gibbs chain over the test samples' latent rows and the masked target entries,
and averages the predicted draws over all snapshots and stage-two samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Collection
from .dist import RngStream, cholesky_stack, draw_mvn_precision_chol, stacked_precisions
from .mtf import MtfState, PosteriorSamples
from .rmtf import RmtfState

__all__ = [
    "PredictionTask",
    "PredictionResult",
    "two_stage_predict",
    "rmse",
    "mse",
    "match_components",
]


@dataclass
class PredictionTask:
    """A trained archive plus a test collection whose masked entries are targets."""

    trained: PosteriorSamples | list
    test: Collection
    n_stage2_sweeps: int = 50      # burn-in sweeps per snapshot
    n_stage2_samples: int = 10     # retained draws per snapshot
    snapshot_stride: int = 1       # use every stride-th stored snapshot

    @property
    def chains(self) -> list:
        return list(self.trained) if isinstance(self.trained, (list, tuple)) \
            else [self.trained]


@dataclass
class PredictionResult:
    view_names: list[str]
    mean: list[np.ndarray]        # (N, D, L); zeros off-target
    std: list[np.ndarray]
    targets: list[np.ndarray]     # bool (N, D, L)
    n_draws: int

    def rows(self):
        """Yield (view_index, sample, feature, slab, mean, std) per target."""
        for t, tgt in enumerate(self.targets):
            for n, d, l in zip(*np.nonzero(tgt)):
                yield t, int(n), int(d), int(l), self.mean[t][n, d, l], self.std[t][n, d, l]


def _frozen_view_params(state, t: int):
    """Per-slab loading matrices (L, D, K) and per-slab noise precisions."""
    if isinstance(state, RmtfState):
        return state.W[t], state.tau[t]
    u = state.u_for_view(t)
    w = state.V[t][None, :, :] * u[:, None, :]
    return w, np.full(u.shape[0], state.tau[t])


def _check_compat(state, test: Collection):
    if len(test.views) != state.n_views:
        raise ValueError(
            f"test collection has {len(test.views)} views, archive has {state.n_views}"
        )
    for t, v in enumerate(test.views):
        w, _ = _frozen_view_params(state, t)
        if (v.shape[1], v.shape[2]) != (w.shape[1], w.shape[0]):
            raise ValueError(
                f"view {t}: test shape D={v.shape[1]}, L={v.shape[2]} does not match "
                f"trained D={w.shape[1]}, L={w.shape[0]}"
            )
    train_groups = {}
    for t, g in state.group_of.items():
        train_groups.setdefault(g, set()).add(t)
    test_groups = {frozenset(g) for g in test.u_groups()}
    if {frozenset(g) for g in train_groups.values()} != test_groups:
        raise ValueError("third-mode grouping of the test collection differs from training")


def two_stage_predict(task: PredictionTask, rng) -> PredictionResult:
    """Predict every masked test entry; returns per-entry posterior mean and std."""
    gen = rng.gen if isinstance(rng, RngStream) else rng
    chains = task.chains
    if not chains or chains[0].n_snapshots == 0:
        raise ValueError("no trained snapshots")
    test = task.test
    _check_compat(chains[0].states[0], test)

    n = test.n_samples
    xs, obs, tgt_idx = [], [], []
    n_targets = 0
    for v in test.views:
        x = np.ascontiguousarray(v.values.transpose(0, 2, 1))       # (N, L, D)
        ob = np.ascontiguousarray(v.observed.transpose(0, 2, 1), dtype=np.float64)
        xs.append(x * ob)
        obs.append(None if ob.all() else ob)
        idx = np.nonzero(~v.observed.transpose(0, 2, 1))            # (n, l, d) tuples
        tgt_idx.append(idx)
        n_targets += idx[0].size
    if n_targets == 0:
        raise ValueError("test collection has no masked entries to predict")

    masked_views = [t for t in range(len(xs)) if obs[t] is not None]
    flat = np.concatenate([obs[t].reshape(n, -1) for t in masked_views], axis=1)
    patterns, inverse = np.unique(flat, axis=0, return_inverse=True)
    row_groups = [np.nonzero(inverse == p)[0] for p in range(patterns.shape[0])]
    offs = np.cumsum([0] + [obs[t][0].size for t in masked_views])

    acc = [np.zeros(idx[0].size) for idx in tgt_idx]
    acc_sq = [np.zeros(idx[0].size) for idx in tgt_idx]
    n_draws = 0
    k = chains[0].states[0].k

    for samples in chains:
        for state in samples.states[::task.snapshot_stride]:
            frozen = [_frozen_view_params(state, t) for t in range(len(xs))]
            base = np.eye(k)
            lin = np.zeros((n, k))
            for t, (w, tau_l) in enumerate(frozen):
                lin += np.einsum("nld,l,ldk->nk", xs[t], tau_l, w, optimize=True)
                if obs[t] is None:
                    base += np.einsum("l,ldk,ldj->kj", tau_l, w, w, optimize=True)
            # one factorization per missingness pattern, reused by every sweep
            terms = []
            for j, t in enumerate(masked_views):
                w, tau_l = frozen[t]
                terms.append((patterns[:, offs[j]:offs[j + 1]], w.reshape(-1, k),
                              np.repeat(tau_l, w.shape[1])))
            chols = cholesky_stack(stacked_precisions(base, terms))
            z = np.empty((n, k))
            for sweep in range(task.n_stage2_sweeps + task.n_stage2_samples):
                for p, rows in enumerate(row_groups):
                    z[rows] = draw_mvn_precision_chol(lin[rows], chols[p], gen)
                if sweep < task.n_stage2_sweeps:
                    continue
                for t, idx in enumerate(tgt_idx):
                    if idx[0].size == 0:
                        continue
                    w, tau_l = frozen[t]
                    ni, li, di = idx
                    mean_vals = np.einsum("jk,jk->j", z[ni], w[li, di, :])
                    draws = mean_vals + gen.standard_normal(ni.size) / np.sqrt(tau_l[li])
                    acc[t] += draws
                    acc_sq[t] += draws ** 2
                n_draws += 1

    means, stds, targets = [], [], []
    for t, v in enumerate(test.views):
        m = acc[t] / n_draws
        var = np.maximum(acc_sq[t] / n_draws - m ** 2, 0.0)
        mean_arr = np.zeros(v.shape)
        std_arr = np.zeros(v.shape)
        ni, li, di = tgt_idx[t]
        mean_arr[ni, di, li] = m
        std_arr[ni, di, li] = np.sqrt(var)
        means.append(mean_arr)
        stds.append(std_arr)
        targets.append(~v.observed)
    return PredictionResult(list(test.names), means, stds, targets, n_draws)


def mse(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared error over the masked (target) entries only."""
    pred, truth, mask = np.asarray(pred), np.asarray(truth), np.asarray(mask, bool)
    if pred.shape != truth.shape or pred.shape != mask.shape:
        raise ValueError("pred, truth and mask must share a shape")
    if not mask.any():
        raise ValueError("empty target mask")
    diff = pred[mask] - truth[mask]
    return float(np.mean(diff ** 2))


def rmse(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sqrt(mse(pred, truth, mask)))


def _sign_aligned_slab_mean(w: np.ndarray) -> np.ndarray:
    """Average (L, D, K) slab loadings over slabs, aligning slab signs first.

    The factorization is sign-unidentified per component; aligning each slab
    to the largest one before averaging keeps a common profile from
    cancelling itself.
    """
    L, D, K = w.shape
    out = np.zeros((D, K))
    for k in range(K):
        cols = w[:, :, k]
        norms = np.linalg.norm(cols, axis=1)
        ref = int(np.argmax(norms))
        if norms[ref] == 0:
            continue
        signs = np.sign(cols @ cols[ref])
        signs[signs == 0] = 1.0
        out[:, k] = (signs[:, None] * cols).mean(axis=0)
    return out


def _chain_loading_summary(samples: PosteriorSamples, view: int) -> np.ndarray:
    """Posterior-mean loading profile (D, K) of one view for one chain."""
    if samples.origins is not None:
        members = [i for i, o in enumerate(samples.origins) if o == view]
        if not members:
            raise ValueError(f"no archived views originate from view {view}")
        if len(members) > 1:
            stacks = [np.stack([st.V[m] for m in members]) for st in samples.states]
            return _sign_aligned_slab_mean(np.mean(stacks, axis=0))
        view = members[0]
    first = samples.states[0]
    if isinstance(first, RmtfState):
        if first.W[view].shape[0] > 1:
            w_mean = np.mean([st.W[view] for st in samples.states], axis=0)
            return _sign_aligned_slab_mean(w_mean)
        return np.mean([st.W[view][0] for st in samples.states], axis=0)
    return np.mean([st.V[view] for st in samples.states], axis=0)


def match_components(true_loadings, samples, view: int) -> np.ndarray:
    """Best absolute correlation between each true loading vector and any
    inferred component profile of the given view.

    For multi-chain input the match is computed per chain (each chain has its
    own sign gauge) and averaged.  Inferred all-zero columns match nothing.
    """
    chains = list(samples) if isinstance(samples, (list, tuple)) else [samples]
    true_mat = np.atleast_2d(np.asarray(true_loadings, dtype=np.float64))
    sds = true_mat.std(axis=1)
    if np.any(sds == 0):
        raise ValueError("true loading vector has zero variance")
    per_chain = []
    for chain in chains:
        prof = _chain_loading_summary(chain, view)
        p_sd = prof.std(axis=0)
        usable = p_sd > 0
        best = np.zeros(true_mat.shape[0])
        if usable.any():
            pc = (prof[:, usable] - prof[:, usable].mean(axis=0)) / p_sd[usable]
            tc = (true_mat - true_mat.mean(axis=1, keepdims=True)) / sds[:, None]
            corr = np.abs(tc @ pc) / true_mat.shape[1]
            best = corr.max(axis=1)
        per_chain.append(best)
    return np.mean(per_chain, axis=0)
