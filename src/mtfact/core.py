"""Dense 3-way tensor containers, coupled collections, and preprocessing.

A *view* is one matrix or tensor sharing its first (sample) mode with the
rest of the collection.  Matrices are stored as tensors whose third mode has
extent one, so every view is an ``N x D x L`` array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor3",
    "MaskedTensor3",
    "Collection",
    "PreprocessTransform",
    "validate_collection",
    "fiber_moments",
    "center_and_normalize",
    "apply_transform",
    "inverse_transform",
    "unfold_to_matrices",
    "unfold_collection",
]


def _readonly(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Tensor3:
    """Dense N x D x L array of observations; a matrix is the L = 1 case."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 2:  # accept matrices directly
            vals = vals[:, :, None]
        if vals.ndim != 3:
            raise ValueError(f"expected a 3-way array, got ndim={vals.ndim}")
        if min(vals.shape) < 1:
            raise ValueError(f"all extents must be >= 1, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tensor entries must be finite; use MaskedTensor3 for missing data")
        object.__setattr__(self, "values", _readonly(vals, np.float64))

    @property
    def n_slabs(self) -> int:
        return self.values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class MaskedTensor3:
    """A tensor plus a boolean observation mask of the same shape.

    Masked (unobserved) entries are ignored by every likelihood computation;
    their stored values are placeholders.  Valid data has at least one
    observed entry (checked by :func:`validate_collection`, not here, so that
    degenerate all-masked views can still be built for prior-recovery
    studies).
    """

    tensor: Tensor3
    observed: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed)
        if obs.ndim == 2:
            obs = obs[:, :, None]
        if obs.shape != self.tensor.shape:
            raise ValueError(
                f"mask shape {obs.shape} does not match tensor shape {self.tensor.shape}"
            )
        object.__setattr__(self, "observed", _readonly(obs, bool))

    @classmethod
    def fully_observed(cls, values) -> "MaskedTensor3":
        t = values if isinstance(values, Tensor3) else Tensor3(values)
        return cls(t, np.ones(t.shape, dtype=bool))

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.tensor.shape

    @property
    def n_observed(self) -> int:
        return int(self.observed.sum())

    def is_matrix(self) -> bool:
        return self.tensor.n_slabs == 1


@dataclass(frozen=True)
class Collection:
    """Views coupled on the sample mode.

    ``third_mode_groups`` lists groups of tensor-view indices that share
    their third-mode latent factors; views in one group must have identical
    slab counts.  Tensor views absent from every group get their own private
    third-mode factors; matrix views may not be grouped.
    """

    views: tuple[MaskedTensor3, ...]
    third_mode_groups: tuple[tuple[int, ...], ...] = ()
    names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "views", tuple(self.views))
        object.__setattr__(
            self, "third_mode_groups", tuple(tuple(g) for g in self.third_mode_groups)
        )
        names = tuple(self.names) if self.names else tuple(
            f"view_{i}" for i in range(len(self.views))
        )
        if len(names) != len(self.views):
            raise ValueError("names must match the number of views")
        object.__setattr__(self, "names", names)

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    def u_groups(self) -> list[list[int]]:
        """Declared groups plus singleton groups for ungrouped tensor views."""
        grouped = {t for g in self.third_mode_groups for t in g}
        groups = [list(g) for g in self.third_mode_groups]
        for t, v in enumerate(self.views):
            if not v.is_matrix() and t not in grouped:
                groups.append([t])
        return groups


def validate_collection(c: Collection) -> list[str]:
    """Return the list of broken invariants (empty means valid)."""
    violations = []
    if c.n_views == 0:
        return ["collection has no views"]
    n = c.views[0].shape[0]
    for t, v in enumerate(c.views):
        if v.shape[0] != n:
            violations.append(f"first-mode mismatch view {t}: N={v.shape[0]} != {n}")
        if v.n_observed == 0:
            violations.append(f"view {t} has no observed entries")
    seen: dict[int, int] = {}
    for gi, g in enumerate(c.third_mode_groups):
        if len(g) == 0:
            violations.append(f"group {gi} is empty")
            continue
        slabs = set()
        for t in g:
            if t < 0 or t >= c.n_views:
                violations.append(f"group {gi} references missing view {t}")
                continue
            if t in seen:
                violations.append(f"view {t} appears in groups {seen[t]} and {gi}")
            seen[t] = gi
            if c.views[t].is_matrix():
                violations.append(f"matrix in U-group: view {t} (L=1) in group {gi}")
            else:
                slabs.add(c.views[t].shape[2])
        if len(slabs) > 1:
            violations.append(f"group {gi} mixes slab counts {sorted(slabs)}")
    return violations


@dataclass(frozen=True)
class PreprocessTransform:
    """Per-(view, feature, slab) centering and positive scaling."""

    centers: tuple[np.ndarray, ...]  # each (D_t, L_t)
    scales: tuple[np.ndarray, ...]

    def __post_init__(self):
        centers = tuple(_readonly(a, np.float64) for a in self.centers)
        scales = tuple(_readonly(a, np.float64) for a in self.scales)
        for t, s in enumerate(scales):
            if s.shape != centers[t].shape:
                raise ValueError(f"center/scale shape mismatch in view {t}")
            if not np.all(s > 0):
                raise ValueError(f"non-positive scale in view {t}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "scales", scales)


def fiber_moments(v: MaskedTensor3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observed count, mean and unbiased (count - 1) variance of every
    (feature, slab) fiber of a view across samples, each (D, L); the
    variance is 0 where fewer than two entries are observed."""
    counts = v.observed.sum(axis=0)
    x = np.where(v.observed, v.values, 0.0)
    mean = x.sum(axis=0) / np.maximum(counts, 1)
    return counts, mean, ((x - mean) ** 2 * v.observed).sum(axis=0) / np.maximum(counts - 1, 1)


def center_and_normalize(c: Collection) -> tuple[Collection, PreprocessTransform]:
    """Standardize every (feature, slab) fiber of observed entries across
    samples by its ``fiber_moments``.  Fibers with fewer than two observed
    entries or zero variance are rejected, naming the offending fiber.
    """
    centers, scales = [], []
    for t, v in enumerate(c.views):
        counts, mean, var = fiber_moments(v)
        if np.any(counts < 2):
            d, l = np.argwhere(counts < 2)[0]
            raise ValueError(
                f"view {t} fiber (feature {d}, slab {l}) has {counts[d, l]} observed "
                "entries; need at least 2 to standardize"
            )
        if np.any(var == 0):
            d, l = np.argwhere(var == 0)[0]
            raise ValueError(f"view {t} fiber (feature {d}, slab {l}) is constant")
        centers.append(mean)
        scales.append(np.sqrt(var))
    transform = PreprocessTransform(tuple(centers), tuple(scales))
    return apply_transform(transform, c), transform


def _map_views(t: PreprocessTransform, c: Collection, fn) -> Collection:
    """``c`` with each view's values x replaced by fn(x, center, scale) of
    its fibers, after checking that ``t`` covers its views and shapes."""
    if len(t.centers) != c.n_views:
        raise ValueError(f"transform covers {len(t.centers)} views, collection has {c.n_views}")
    for i, v in enumerate(c.views):
        if t.centers[i].shape != v.shape[1:]:
            raise ValueError(
                f"view {i}: transform shape {t.centers[i].shape} != data shape {v.shape[1:]}"
            )
    views = tuple(MaskedTensor3(Tensor3(fn(v.values, t.centers[i], t.scales[i])), v.observed)
                  for i, v in enumerate(c.views))
    return Collection(views, c.third_mode_groups, c.names)


def apply_transform(t: PreprocessTransform, c: Collection) -> Collection:
    return _map_views(t, c, lambda x, center, scale: (x - center) / scale)


def inverse_transform(t: PreprocessTransform, c: Collection) -> Collection:
    return _map_views(t, c, lambda x, center, scale: x * scale + center)


def unfold_to_matrices(v: MaskedTensor3) -> list[MaskedTensor3]:
    """Split an N x D x L view into L matrix views, masks carried through."""
    return [
        MaskedTensor3(Tensor3(v.values[:, :, l : l + 1]), v.observed[:, :, l : l + 1])
        for l in range(v.shape[2])
    ]


def unfold_collection(c: Collection) -> tuple[Collection, list[int]]:
    """Replace every tensor view by its slab matrices.

    Returns the all-matrices collection and, per new view, the index of the
    source view it came from.  This is how the multi-view matrix
    factorization baseline is run with the same sampler.
    """
    views, names, origins = [], [], []
    for t, v in enumerate(c.views):
        if v.is_matrix():
            views.append(v)
            names.append(c.names[t])
            origins.append(t)
        else:
            for l, m in enumerate(unfold_to_matrices(v)):
                views.append(m)
                names.append(f"{c.names[t]}.slab{l}")
                origins.append(t)
    return Collection(tuple(views), (), tuple(names)), origins
