"""Synthetic coupled matrix + tensor generators for the simulation studies.

Three designs: strictly trilinear tensor structure (``cp``), the same with
per-slab distortion of the shared component (``relaxed_cp``), and a
bilinear/trilinear blend with held-out test samples (``continuum``).  Signal
is rescaled per view so its empirical per-element second moment equals
``signal_var``; with the defaults (signal 8, noise 1) predicting the truth
gives RMSE 1 and predicting zero gives RMSE 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Collection, MaskedTensor3, Tensor3
from .dist import RngStream, _as_gen
from .mtf import MtfState, _recon_nld

__all__ = ["SimSpec", "SimTruth", "gen_cp", "gen_relaxed_cp", "gen_continuum", "generate"]


@dataclass
class SimSpec:
    """Sizes, component counts and scales for one synthetic design."""

    scenario: str = "cp"            # cp | relaxed_cp | continuum
    n: int | None = None            # default 300, or 15 for continuum
    d1: int = 50
    d2: int = 50
    l: int = 30
    k_shared: int = 1
    k_matrix: int = 2
    k_tensor: int = 8
    rho: float = 1.0                # trilinearity weight, continuum only
    signal_var: float = 8.0
    noise_var: float = 1.0
    n_test: int = 100               # continuum only
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in ("cp", "relaxed_cp", "continuum"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if min(self.k_shared, self.k_matrix, self.k_tensor) < 0:
            raise ValueError("component counts must be >= 0")
        if self.scenario == "continuum" and not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.signal_var <= 0 or self.noise_var < 0:
            raise ValueError("signal_var must be positive and noise_var non-negative")
        if self.scenario == "relaxed_cp" and self.l < 2:
            raise ValueError("relaxed_cp needs at least two slabs")

    @property
    def n_train(self) -> int:
        if self.n is not None:
            return self.n
        return 15 if self.scenario == "continuum" else 300

    @property
    def k_total(self) -> int:
        return self.k_shared + self.k_matrix + self.k_tensor


@dataclass
class SimTruth:
    """Ground-truth factors behind one generated collection."""

    Z: np.ndarray                       # (N, K_true), training samples
    V: list[np.ndarray]                 # per view (D, K_true)
    U: np.ndarray                       # (L, K_true)
    H: np.ndarray                       # (2, K_true) activity pattern
    noise: list[np.ndarray]             # per view (N, D, L) training noise
    W_tensor: np.ndarray | None = None  # (L, D2, K_true) per-slab tensor loadings
    slab_curves: np.ndarray | None = None   # (L, D2) shared-component curves
    Z_test: np.ndarray | None = None
    test_full: Collection | None = None
    state: MtfState | None = None       # exact generating state (cp only)


def _activity_pattern(spec: SimSpec) -> np.ndarray:
    h = np.zeros((2, spec.k_total))
    h[0, : spec.k_shared + spec.k_matrix] = 1.0
    h[1, : spec.k_shared] = 1.0
    h[1, spec.k_shared + spec.k_matrix:] = 1.0
    return h


def _standardized_sine(d: int) -> np.ndarray:
    s = np.sin(2.0 * np.pi * np.arange(d) / d)  # one full period across features
    return (s - s.mean()) / s.std(ddof=1)


def _draw_loadings(gen, d: int, active: np.ndarray, sine_col: int | None) -> np.ndarray:
    k = active.size
    v = gen.standard_normal((d, k)) * active[None, :]
    if sine_col is not None and active[sine_col]:
        v[:, sine_col] = _standardized_sine(d)
    return v


def _msq(x: np.ndarray) -> float:
    return float(np.mean(x ** 2))


def _scale_to(x_msq: float, target: float) -> float:
    """Multiplier taking a signal of mean square x_msq to mean square target."""
    return np.sqrt(target / x_msq) if x_msq > 0 else 1.0


def _collection(mat, tens, tens_observed=None) -> Collection:
    """A fully observed matrix view and a tensor view observed where
    ``tens_observed`` is True (everywhere when None)."""
    if tens_observed is None:
        tens_observed = np.ones(tens.shape, dtype=bool)
    return Collection((MaskedTensor3.fully_observed(Tensor3(mat)),
                       MaskedTensor3(Tensor3(tens), tens_observed)), (), ("matrix", "tensor"))


def _signals(Z, Vm, W) -> list[np.ndarray]:
    """Noise-free matrix (N, D1, 1) and tensor (N, D2, L) of latent rows Z
    (N, K), matrix loadings Vm (D1, K) and slab loadings W (L, D2, K)."""
    return [(Z @ Vm.T)[:, :, None],
            np.einsum("nk,ldk->nld", Z, W, optimize=True).transpose(0, 2, 1)]


def _noisy(gen, spec: SimSpec, signals):
    """(values, noise) of the views: each signal plus N(0, noise_var) noise,
    drawn in view order."""
    noise = [gen.standard_normal(sig.shape) * np.sqrt(spec.noise_var) for sig in signals]
    return [sig + eps for sig, eps in zip(signals, noise)], noise


def _signed_power(v: np.ndarray, p: float) -> np.ndarray:
    return np.sign(v) * np.abs(v) ** p


def distortion_powers(l: int) -> np.ndarray:
    """Per-slab distortion exponents: 0.5, 1.5, then an even grid on [0.3, 1.7]."""
    if l < 2:
        raise ValueError("need at least two slabs")
    rest = np.linspace(0.3, 1.7, l - 2) if l > 2 else np.empty(0)
    return np.concatenate([[0.5, 1.5], rest])


def _factors(spec: SimSpec, scenario: str, rng, n: int):
    """The draws every design starts from, after checking that ``spec`` is
    for ``scenario``: latent rows Z (n, K), third-mode factors U (L, K),
    then matrix and tensor loadings with the sine in the shared column.

    Returns (generator, activity pattern H, sine column or None, Z, U,
    V_matrix, V_tensor).
    """
    if spec.scenario != scenario:
        raise ValueError(f"spec.scenario must be {scenario!r}")
    gen = _as_gen(rng)
    h = _activity_pattern(spec)
    sine_col = 0 if spec.k_shared > 0 else None
    Z = gen.standard_normal((n, spec.k_total))
    U = gen.standard_normal((spec.l, spec.k_total))
    Vm = _draw_loadings(gen, spec.d1, h[0], sine_col)
    return gen, h, sine_col, Z, U, Vm, _draw_loadings(gen, spec.d2, h[1], sine_col)


def gen_cp(spec: SimSpec, rng) -> tuple[Collection, SimTruth]:
    """Strictly trilinear design: shared sine component plus CP specifics.

    The returned collection equals the truth state's reconstruction plus the
    stored noise, exactly.
    """
    gen, h, _, Z, U, Vm, Vt = _factors(spec, "cp", rng, spec.n_train)
    state = MtfState(
        Z=Z, V=[Vm, Vt], U=[U], H=h.copy(), pi=np.full(spec.k_total, 0.5),
        alpha=[np.ones_like(Vm), np.ones_like(Vt)], tau=np.ones(2), group_of={1: 0},
    )
    for t in (0, 1):
        state.V[t] *= _scale_to(_msq(_recon_nld(state, t)), spec.signal_var)
    values, noise = _noisy(gen, spec, [_recon_nld(state, t).transpose(0, 2, 1) for t in (0, 1)])
    truth = SimTruth(Z=Z, V=list(state.V), U=U, H=h, noise=noise, state=state)
    return _collection(*values), truth


def gen_relaxed_cp(spec: SimSpec, rng) -> tuple[Collection, SimTruth]:
    """As gen_cp, but the shared component's tensor loadings are distorted per
    slab by a signed power of the sine; truth carries the per-slab curves."""
    gen, h, sine_col, Z, U, Vm, Vt = _factors(spec, "relaxed_cp", rng, spec.n_train)
    powers = distortion_powers(spec.l)
    W = U[:, None, :] * Vt[None, :, :]          # (L, D2, K)
    curves = None
    if sine_col is not None:
        curves = np.stack([_signed_power(Vt[:, sine_col], p) for p in powers])
        W[:, :, sine_col] = U[:, sine_col][:, None] * curves

    sig_m, sig_t = _signals(Z, Vm, W)
    Vm = Vm * _scale_to(_msq(sig_m), spec.signal_var)
    ft = _scale_to(_msq(sig_t), spec.signal_var)
    W, Vt = W * ft, Vt * ft
    values, noise = _noisy(gen, spec, _signals(Z, Vm, W))
    truth = SimTruth(Z=Z, V=[Vm, Vt], U=U, H=h, noise=noise,
                     W_tensor=W, slab_curves=curves)
    return _collection(*values), truth


def gen_continuum(spec: SimSpec, rng) -> tuple[Collection, Collection, SimTruth]:
    """Blend of bilinear and trilinear tensor structure, with test samples.

    Slab loadings mix the shared trilinear pattern (weight rho) with
    independent per-slab draws (weight 1 - rho); both parts are variance
    matched before blending so the overall signal level is the same at every
    rho.  Test samples come from the same parameters; slab 1 of the test
    tensor is masked as the prediction target.
    """
    n, n_test = spec.n_train, spec.n_test
    gen, h, _, Z_all, U, Vm, Vt = _factors(spec, "continuum", rng, n + n_test)
    # independent per-slab loadings for the bilinear part (tensor-active cols)
    Vslab = gen.standard_normal((spec.l, spec.d2, spec.k_total)) * h[1][None, None, :]

    sig_m = Z_all @ Vm.T
    Vm = Vm * _scale_to(_msq(sig_m), spec.signal_var)

    W_tri = U[:, None, :] * Vt[None, :, :]      # (L, D2, K)
    tri = np.einsum("nk,ldk->nld", Z_all, W_tri, optimize=True)
    bil = np.einsum("nk,ldk->nld", Z_all, Vslab, optimize=True)
    W = spec.rho * W_tri * _scale_to(_msq(tri), 1.0) \
        + (1 - spec.rho) * Vslab * _scale_to(_msq(bil), 1.0)
    # variance-match each slab: prediction difficulty must not depend on the
    # slab draw; a per-slab factor is absorbed by the third-mode weights, so
    # the trilinear structure is preserved exactly
    blend = np.einsum("nk,ldk->nld", Z_all, W, optimize=True)
    for l in range(spec.l):
        W[l] *= _scale_to(_msq(blend[:, l, :]), spec.signal_var)

    (mat, tens), (eps_m, eps_t) = _noisy(gen, spec, _signals(Z_all, Vm, W))
    train = _collection(mat[:n], tens[:n])
    test_full = _collection(mat[n:], tens[n:])
    tens_mask = np.ones((n_test, spec.d2, spec.l), dtype=bool)
    tens_mask[:, :, 0] = False                  # slab 1 is the prediction target
    test = _collection(mat[n:], tens[n:], tens_mask)
    truth = SimTruth(
        Z=Z_all[:n], V=[Vm, Vt], U=U, H=h, noise=[eps_m[:n], eps_t[:n]],
        W_tensor=W, Z_test=Z_all[n:], test_full=test_full,
    )
    return train, test, truth


def generate(spec: SimSpec, rng=None):
    """Dispatch on spec.scenario; seeds a fresh stream from spec.seed if no rng."""
    if rng is None:
        rng = RngStream(spec.seed)
    if spec.scenario == "cp":
        return gen_cp(spec, rng)
    if spec.scenario == "relaxed_cp":
        return gen_relaxed_cp(spec, rng)
    return gen_continuum(spec, rng)
