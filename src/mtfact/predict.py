"""Two-stage out-of-sample prediction and error metrics.

Stage one is ordinary training: a posterior archive over the loading-side
parameters.  Stage two freezes, per stored snapshot, everything a new sample
couples to (V, U, tau; plus W and lambda for the relaxed model).  Given a
snapshot, the test samples' latent rows have one fixed Gaussian conditional
on their observed entries (targets are never conditioned on), so each
stage-two draw of z is exact and independent; each draw predicts the
targets with their noise, and the draws are averaged over all snapshots.
The test collection is compiled as for training (``mtf._compile``), so a
snapshot's conditional has one precision per row missingness pattern, and
every retained draw comes from one batched Gaussian row draw keyed by each
row's pattern index (``dist.draw_mvn_precision_chol``).

``predict_collection`` is the one path from a test collection in data units
to scored predictions.  It unfolds the test and truth collections when the
chains were fit on unfolded views (``origins`` set), standardizes the test
collection with the fit's transform and runs ``two_stage_predict``.  It maps
the result back by scaling every mean and std by the fiber scale and adding
the fiber centre on targets only, so off-target entries stay zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Collection, PreprocessTransform, apply_transform, unfold_collection
from .dist import _as_gen, draw_mvn_precision_chol
from .mtf import PosteriorSamples, _compile, _factors, _z_blocks, z_conditional
from .rmtf import RmtfState

__all__ = [
    "PredictionTask",
    "PredictionResult",
    "two_stage_predict",
    "predict_collection",
    "target_rmse",
    "match_components",
    "match_tensor_specific",
]


@dataclass
class PredictionTask:
    """A trained archive plus a test collection whose masked entries are targets."""

    trained: PosteriorSamples | list
    test: Collection
    # burn-in draws per snapshot; draws are exact, so these only advance the stream
    n_stage2_sweeps: int = 50
    n_stage2_samples: int = 10     # retained draws per snapshot
    snapshot_stride: int = 1       # use every stride-th stored snapshot

    def __post_init__(self):
        if self.n_stage2_samples < 1 or self.n_stage2_sweeps < 0 or self.snapshot_stride < 1:
            raise ValueError(
                "need n_stage2_samples >= 1, n_stage2_sweeps >= 0 and snapshot_stride >= 1, "
                f"got {self.n_stage2_samples}, {self.n_stage2_sweeps} and {self.snapshot_stride}")

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


def _check_compat(state, test: Collection):
    if len(test.views) != state.n_views:
        raise ValueError(
            f"test collection has {len(test.views)} views, archive has {state.n_views}"
        )
    for t, v in enumerate(test.views):
        w = state.slab_loadings(t)[0]
        if (v.shape[1], v.shape[2]) != (w.shape[1], w.shape[0]):
            raise ValueError(
                f"view {t}: test shape D={v.shape[1]}, L={v.shape[2]} does not match "
                f"trained D={w.shape[1]}, L={w.shape[0]}"
            )
    train_groups = {frozenset(t for t, h in state.group_of.items() if h == g)
                    for g in state.group_of.values()}
    if train_groups != {frozenset(g) for g in test.u_groups()}:
        raise ValueError("third-mode grouping of the test collection differs from training")


def two_stage_predict(task: PredictionTask, rng) -> PredictionResult:
    """Predict every masked test entry; returns per-entry posterior mean and std."""
    gen = _as_gen(rng)
    chains = task.chains
    if not chains or chains[0].n_snapshots == 0:
        raise ValueError("no trained snapshots")
    test = task.test
    _check_compat(chains[0].states[0], test)

    data = _compile(test)
    tgt_idx = [(np.empty(0, np.intp),) * 3 if v.obs is None else np.nonzero(v.obs == 0.0)
               for v in data.views]                                 # (n, l, d) tuples
    if sum(idx[0].size for idx in tgt_idx) == 0:
        raise ValueError("test collection has no masked entries to predict")

    acc = [np.zeros(idx[0].size) for idx in tgt_idx]
    acc_sq = [np.zeros(idx[0].size) for idx in tgt_idx]
    n_draws = 0
    n, k = data.n, chains[0].states[0].k
    n_keep = task.n_stage2_samples
    # per retained draw: each pattern's (rows, K) normals, then each view's
    # target noise, in the order of a draw-by-draw loop; row n's normals sit
    # at its rank among the rows sorted by pattern
    ends = np.cumsum([n * k] + [i[0].size for i in tgt_idx])
    rank = np.argsort(data.row_order)
    # per view, each row pattern with targets there: its rows (ascending), their
    # target entries (flat l * D + d) and the rows' places in the view's targets
    segments = np.split(data.row_order, data.pattern_starts[1:])
    gathers = []
    for v, (ni, li, di) in zip(data.views, tgt_idx):
        gathers.append([])
        for p, rows in enumerate(segments):
            places = np.flatnonzero(data.patterns[ni] == p).reshape(len(rows), -1)
            if places.size:
                gathers[-1].append((rows, (li * v.d + di)[places[0]], places))

    for samples in chains:
        for state in samples.states[::task.snapshot_stride]:
            blocks = _z_blocks(state, data)
            lin, precs = z_conditional(blocks, k)
            chols = _factors(precs)
            # z | snapshot is one fixed Gaussian, so every draw is exact:
            # burn-in only advances the stream, as many normals as its draws
            gen.standard_normal(task.n_stage2_sweeps * n * k)
            eps = np.split(gen.standard_normal((n_keep, ends[-1])), ends[:-1], axis=1)
            z = draw_mvn_precision_chol(lin, chols, data.patterns,
                                        eps[0].reshape(n_keep, n, k)[:, rank])
            for (_, li, _), view_gathers, (_, _, w, tau_l), e, a, a_sq in zip(
                    tgt_idx, gathers, blocks, eps[1:], acc, acc_sq):
                draws = np.empty(e.shape)
                for rows, cols, places in view_gathers:   # one GEMM per row pattern
                    draws[:, places] = (z[:, rows].reshape(-1, k) @ w.reshape(-1, k)[cols].T
                                        ).reshape(n_keep, *places.shape)
                draws += e / np.sqrt(tau_l[li])
                for d in draws:      # summed in draw order, which fixes the rounding
                    a += d
                    a_sq += d ** 2
            n_draws += n_keep

    means, stds = [], []
    for v, (ni, li, di), a, a_sq in zip(test.views, tgt_idx, acc, acc_sq):
        m = a / n_draws
        means.append(np.zeros(v.shape))
        stds.append(np.zeros(v.shape))
        means[-1][ni, di, li] = m
        stds[-1][ni, di, li] = np.sqrt(np.maximum(a_sq / n_draws - m ** 2, 0.0))
    return PredictionResult(list(test.names), means, stds, [~v.observed for v in test.views],
                            n_draws)


def target_rmse(means, truth: Collection, targets) -> float:
    """RMSE over the target entries of every view: squared errors summed per
    view, the view sums added in view order."""
    se = 0.0
    for m, v, tgt in zip(means, truth.views, targets):
        se += float(np.sum((m[tgt] - v.values[tgt]) ** 2))
    return float(np.sqrt(se / sum(int(tgt.sum()) for tgt in targets)))


def predict_collection(task: PredictionTask, transform: PreprocessTransform | None, rng,
                       truth: Collection | None = None):
    """Predict ``task.test`` as the module docstring says; it and ``truth`` are in
    data units.  Returns (result in data units, truth in the result's view
    layout, ``target_rmse`` against it), the last two None without truth."""
    test = task.test
    if task.chains and task.chains[0].origins is not None:
        test = unfold_collection(test)[0]
        if truth is not None:
            truth = unfold_collection(truth)[0]
    if transform is not None:
        test = apply_transform(transform, test)
    result = two_stage_predict(replace(task, test=test), rng)
    if transform is not None:
        for t, tgt in enumerate(result.targets):
            sc = transform.scales[t][None, :, :]
            result.mean[t] = result.mean[t] * sc + transform.centers[t][None, :, :] * tgt
            result.std[t] = result.std[t] * sc
    if truth is None:
        return result, None, None
    return result, truth, target_rmse(result.mean, truth, result.targets)


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
    if isinstance(samples.states[0], RmtfState):
        return _sign_aligned_slab_mean(np.mean([st.W[view] for st in samples.states], axis=0))
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


def match_tensor_specific(h, v_tensor, samples) -> np.ndarray | None:
    """``match_components`` against view 1 of the true components on in the
    tensor view and off in the matrix view (rows 1 and 0 of the true activity
    ``h``), given the true tensor loadings ``v_tensor`` (D, K); None if none is."""
    cols = np.nonzero((h[1] > 0) & (h[0] == 0))[0]
    return match_components(v_tensor[:, cols].T, samples, view=1) if cols.size else None
