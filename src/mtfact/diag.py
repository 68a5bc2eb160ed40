"""Convergence diagnostics and the sampler-correctness harness.

A correct sampler leaves the joint distribution of parameters and data
invariant.  ``transition_test`` checks that on independent prior draws,
one transition each; ``joint_distribution_test`` compares forward
simulation against a Gibbs chain interleaved with data resimulation, so
every statistic's two estimates must agree.  Deliberately broken
transition kernels are shipped as fixtures to prove the harness has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import mtf as _mtf
from . import rmtf as _rmtf
from .core import Collection, MaskedTensor3, Tensor3
from .dist import _as_gen
from .mtf import HyperParams, ModelData, PosteriorSamples, component_structure, prepare
from .rmtf import RmtfState

__all__ = [
    "geweke_z",
    "spectral_variance",
    "joint_distribution_test",
    "transition_test",
    "toy_collection",
    "toy_grouped",
    "toy_masks",
    "JointDistResult",
    "buggy_transitions",
    "summarize_run",
    "RunSummary",
]


def spectral_variance(x: np.ndarray) -> float:
    """Spectral density at zero (n * variance of the mean) by Geyer's initial
    monotone sequence estimator (Geyer 1992, Statistical Science 7(4)).

    Sums of adjacent-lag autocovariance pairs are kept up to the first
    non-positive pair and forced to be non-increasing; the estimate is
    -gamma_0 + 2 * (sum of the kept pairs), clipped at zero.  The truncation
    lag adapts to the trace, so short windows whose autocorrelation time is
    long compared with sqrt(n) are not understated.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError(f"trace segment too short for the variance estimate (n={n})")
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * f.conj(), nfft)[:n] / n
    pairs = acov[0:n - 1:2] + acov[1:n:2]
    stop = np.flatnonzero(pairs <= 0)
    pairs = np.minimum.accumulate(pairs[: stop[0] if stop.size else pairs.size])
    return max(float(2.0 * pairs.sum() - acov[0]), 0.0)


def geweke_z(trace) -> float:
    """Z-score comparing the means of the first 10 % and last half of a trace.

    The spectral density at zero is estimated once, on the late segment, by
    Geyer's initial monotone sequence estimator, and that one value scales
    both segment means.  Under the null hypothesis of a stationary chain the
    late segment is the stationary reference (Heidelberger & Welch 1983,
    Operations Research 31(6)); the short early segment is too brief to
    estimate its own autocorrelation reliably, and an estimate taken there
    understates the variance whenever the autocorrelation time is a sizeable
    share of the segment.  Errors on traces shorter than 100 or with a
    zero-variance late segment.
    """
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    n = trace.size
    if n < 100:
        raise ValueError(f"trace too short for the diagnostic (n={n} < 100)")
    a = trace[: int(0.1 * n)]
    b = trace[n - int(0.5 * n):]
    s = spectral_variance(b)
    if s == 0:
        raise ValueError("zero-variance trace segment")
    return float((a.mean() - b.mean()) / np.sqrt(s / a.size + s / b.size))


# ---------------------------------------------------------------------------
# joint-distribution test


def _toy(sizes, masks, groups, names) -> Collection:
    """Views of 0.1: an (n, d, 1) matrix, then one (n, d, l) tensor per further name."""
    n, d, l = sizes
    shapes = [(n, d, 1)] + [(n, d, l)] * (len(names) - 1)
    masks = [np.ones(shape, dtype=bool) for shape in shapes] if masks is None else masks
    return Collection(tuple(MaskedTensor3(Tensor3(np.zeros(shape) + 0.1), obs)
                            for shape, obs in zip(shapes, masks)), groups, names)


def toy_collection(sizes, masks=None) -> Collection:
    """Harness toy of ``sizes`` (n, d, l): a matrix and a tensor (a second
    matrix when l = 1, which exercises the all-matrices path), fully
    observed unless ``masks`` gives their (n, d, 1) and (n, d, l)
    observation masks (see ``toy_masks``)."""
    return _toy(sizes, masks, (), ("m", "t"))


def toy_grouped(sizes, masks=None) -> Collection:
    """Harness toy of ``sizes`` (n, d, l), l >= 2, whose two (n, d, l)
    tensors share one third-mode (U) group beside an (n, d, 1) matrix;
    fully observed unless ``masks`` gives the three views' observation
    masks (see ``toy_masks``)."""
    return _toy(sizes, masks, ((1, 2),), ("m", "t1", "t2"))


def toy_masks(sizes, n_tensors: int = 1) -> list[np.ndarray]:
    """Observation masks for the harness toys of ``sizes`` (n, d, l) that
    exercise the masked conditionals: an (n, d, 1) matrix mask and
    ``n_tensors`` (n, d, l) tensor masks (two for ``toy_grouped``).  Row 0
    is masked in every view, and entry (i, j, m) of every other row is
    masked when i + j + m + s is a multiple of 3, with s = 0 for the matrix
    and the first tensor and s = 1 for the second, so the rows, and the
    two grouped tensors, have distinct missingness patterns."""
    n, d, l = sizes
    shapes = [(n, d, 1)] + [(n, d, l)] * n_tensors
    masks = [(np.indices(shape).sum(axis=0) + max(s - 1, 0)) % 3 != 0
             for s, shape in enumerate(shapes)]
    for obs in masks:
        obs[0] = False
    return masks


def _odd(q) -> float:
    """Mean of the bounded odd transform q / sqrt(1 + q^2)."""
    return float(np.mean(q / np.hypot(1.0, q)))


def _even(q) -> float:
    """Mean of log1p(q^2), written so that huge |q| cannot overflow."""
    return float(np.mean(2.0 * np.log(np.hypot(1.0, q))))


def _log_moments(x) -> tuple[float, float]:
    """Means of log x and (log x)^2 for a positive precision."""
    lx = np.log(x)
    return float(np.mean(lx)), float(np.mean(lx ** 2))


def _flat(arrays) -> np.ndarray:
    """All entries of an array or of a list of arrays, as one vector."""
    return np.concatenate([np.ravel(a) for a in arrays])


def _mtf_stats(state, data: ModelData):
    v = _flat(state.V)
    out = {
        "z_mean": _odd(state.Z),
        "z_sq": _even(state.Z),
        "v_mean": _odd(v),
        "v_sq": _even(v),
        "h_mean": float(_flat(state.H).mean()),
        "pi_mean": state.pi.mean(),
        "pi_sq": (state.pi ** 2).mean(),
    }
    out["tau_mean"], out["tau_sq"] = _log_moments(_flat(state.tau))
    if state.U:
        u = _flat(state.U)
        out["u_mean"], out["u_sq"] = _odd(u), _even(u)
    return out


def _rmtf_stats(state: RmtfState, data: ModelData):
    out = _mtf_stats(state, data)
    w = _flat(state.W)
    out["w_mean"], out["w_sq"] = _odd(w), _even(w)
    out["lam_mean"], out["lam_sq"] = _log_moments(state.lam_values())
    return out


def _x_stats(arrays, name: str = "x"):
    x = _flat(arrays)
    return {f"{name}_mean": _odd(x), f"{name}_sq": _even(x)}


_ALPHA = 0.005  # family-wise level of the harness verdicts


@dataclass
class JointDistResult:
    stat_names: list[str]
    z_scores: np.ndarray
    threshold: float
    alpha: float
    n_iter: int

    @property
    def passed(self) -> bool:
        return bool(np.all(np.abs(self.z_scores) < self.threshold))

    def __str__(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}  "
                 f"(threshold {self.threshold:.2f}, alpha {self.alpha}, "
                 f"n_iter {self.n_iter})"]
        for name, z in zip(self.stat_names, self.z_scores):
            flag = "" if abs(z) < self.threshold else "  <-- FAIL"
            lines.append(f"  {name:10s} z = {z:+7.2f}{flag}")
        return "\n".join(lines)


def joint_distribution_test(model: str, toy: Collection, hp: HyperParams, n_iter: int,
                            rng, transition=None) -> JointDistResult:
    """Compare forward simulation against the Gibbs transition, moment by moment.

    ``toy`` gives the shapes, third-mode groups and observation masks of
    the test collection (``toy_collection``, ``toy_grouped``); its values
    are replaced by simulated data.  Masked entries are simulated like the
    others but never reach the transition.
    ``transition(state, data, rng) -> state`` may be overridden to test the
    shipped bug fixtures.  hp.b_tau must be explicit: the noise prior has to
    stay fixed while the data are resimulated.

    Every statistic has finite moments for any positive prior shape, so each
    z-score is well defined: ``*_mean`` and ``*_sq`` are the means of
    q / sqrt(1 + q^2) and log1p(q^2) over the entries q of z, v, u, w and the
    data x, and for the precisions tau and lambda they are the means of
    log and log^2.  Raw moments would not do: under Gamma(a, b) priors,
    E[1/lambda] is infinite for a_lambda <= 1, so w and x have no finite
    second moment, and E[1/tau^2] and E[1/alpha^2] are infinite for shapes
    <= 2, so the squares of x and v have no finite variance.  The successive
    chain's variance uses the Geyer estimator of ``spectral_variance``.
    """
    data, gen, (sample_prior, sweep, stats_fn) = _harness_setup(model, toy, hp, rng)
    simulate = _mtf.simulate_data

    # forward: independent draws from prior + likelihood
    fwd_rows = []
    for _ in range(n_iter):
        st = sample_prior(data, hp, gen)
        xs = simulate(st, data, gen)
        row = stats_fn(st, data)
        row.update(_x_stats(xs))
        fwd_rows.append(row)
    names = sorted(fwd_rows[0])
    fwd = np.array([[r[k] for k in names] for r in fwd_rows])

    # successive: Gibbs transition interleaved with data resimulation
    state = sample_prior(data, hp, gen)
    suc = np.empty((n_iter, len(names)))
    for i in range(n_iter):
        xs = simulate(state, data, gen)
        for t in range(data.n_views):
            data.set_values(t, xs[t])
        if transition is None:
            sweep(state, data, gen)
        else:
            state = transition(state, data, gen)
        row = stats_fn(state, data)
        row.update(_x_stats(xs))
        suc[i] = [row[k] for k in names]

    se2 = np.array([np.var(fwd[:, j], ddof=1) / n_iter + spectral_variance(suc[:, j]) / n_iter
                    for j in range(len(names))])
    return _verdict(names, fwd.mean(axis=0) - suc.mean(axis=0), se2, n_iter)


def _residuals(state, data: ModelData) -> list[np.ndarray]:
    """x - reconstruction of every view as (N, L, D), masked entries held at
    zero; the samplers use ``mtf._rss``, which tests check against this."""
    out = []
    for t, v in enumerate(data.views):
        r = v.x - _mtf._recon_nld(state, t)
        if v.obs is not None:
            r *= v.obs
        out.append(r)
    return out


def transition_test(model: str, toy: Collection, hp: HyperParams, n_draws: int, rng,
                    transition=None) -> JointDistResult:
    """One-transition invariance check of the Gibbs kernel (the
    marginal-conditional simulator of Geweke 2004, JASA 99:799).

    Each of ``n_draws`` independent draws takes theta from the prior, data
    y | theta, and one sweep theta -> theta' given y.  A kernel that leaves
    the posterior invariant leaves the law of (theta, y) unchanged, so
    every stat(theta', y) - stat(theta, y) has mean zero.  The draws are
    iid, so each z-score is the mean difference over its plain standard
    error: no spectral variance, and the verdict does not depend on how
    well the chain mixes.  The statistics are those of
    ``joint_distribution_test`` on theta, plus ``r_mean`` and ``r_sq`` of
    the residuals y - E[y | theta] (masked entries held at zero); the data
    statistics would not move.  ``toy``, ``hp`` and ``transition`` are
    as for ``joint_distribution_test``, and both judge at ``_ALPHA``.
    """
    data, gen, (sample_prior, sweep, stats_fn) = _harness_setup(model, toy, hp, rng)

    def stats(state):
        row = stats_fn(state, data)
        row.update(_x_stats(_residuals(state, data), "r"))
        return row

    diffs = []
    for _ in range(n_draws):
        state = sample_prior(data, hp, gen)
        for t, x in enumerate(_mtf.simulate_data(state, data, gen)):
            data.set_values(t, x)
        before = stats(state)
        if transition is None:
            sweep(state, data, gen)
        else:
            state = transition(state, data, gen)
        after = stats(state)
        diffs.append([after[k] - before[k] for k in sorted(before)])
    diffs = np.array(diffs)
    return _verdict(sorted(before), diffs.mean(axis=0),
                    np.var(diffs, axis=0, ddof=1) / n_draws, n_draws)


def _harness_setup(model: str, toy: Collection, hp: HyperParams, rng):
    """(data, generator, (prior draw, sweep, statistics)) of a harness run."""
    if hp.b_tau is None:
        raise ValueError("the harness needs an explicit b_tau (data-independent prior)")
    kernels = {"mtf": (_mtf.sample_state_from_prior, _mtf.mtf_sweep, _mtf_stats),
               "rmtf": (_rmtf.rmtf_sample_state_from_prior, _rmtf.rmtf_sweep, _rmtf_stats)}
    if model not in kernels:
        raise ValueError(f"unknown model {model!r}")
    return prepare(toy, hp), _as_gen(rng), kernels[model]


def _verdict(names, diff, se2, n_iter: int) -> JointDistResult:
    """z-scores diff / sqrt(se2) against the Bonferroni threshold at
    ``_ALPHA``; a constant statistic (se2 = 0) scores 0, or inf if it moved."""
    z = np.empty(len(names))
    for j, (d, v) in enumerate(zip(diff, se2)):
        if v == 0:  # degenerate constant statistic (e.g. all-matrix v's)
            z[j] = 0.0 if d == 0 else np.inf
        else:
            z[j] = d / np.sqrt(v)
    threshold = float(ndtri(1.0 - _ALPHA / (2 * len(names))))
    return JointDistResult(list(names), z, threshold, _ALPHA, n_iter)


def buggy_transitions() -> dict[str, tuple[str, callable]]:
    """Deliberately wrong Gibbs kernels; each must fail the harness.

    Returns name -> (model, transition).
    """

    def tau_rate_halved(state, data, rng):
        gen = _as_gen(rng)
        rss = _mtf.mtf_sweep(state, data, gen)
        for t, v in enumerate(data.views):
            b_post = data.b_tau[t] + 0.25 * float(np.sum(rss[t]))
            state.tau[t] = gen.gamma(data.hp.a_tau + v.n_obs / 2.0, 1.0 / b_post)
        return state

    def z_prior_dropped(state, data, rng):
        gen = _as_gen(rng)
        _mtf.mtf_sweep(state, data, gen)
        # redraw Z from a conditional missing the unit prior precision; the
        # 1e-10 I left over is a numerical guard only
        lin, prec = _mtf.z_conditional(_mtf._z_blocks(state, data), state.k)
        state.Z = _mtf.draw_mvn_precision_chol(
            lin, _mtf._factors(prec - (1.0 - 1e-10) * np.eye(state.k)), data.patterns,
            gen.standard_normal(lin.shape))
        return state

    def lambda_shape_halved(state, data, rng):
        gen = _as_gen(rng)
        _rmtf.rmtf_sweep(state, data, gen)
        stats = _rmtf._lambda_stats(state, data)
        n_act = sum(counts.sum() for _, counts, _ in stats)
        ss = sum(devs.sum() for _, _, devs in stats)
        state.lam = np.asarray(gen.gamma(data.hp.a_lambda + 0.25 * n_act,
                                         1.0 / (data.hp.b_lambda + 0.5 * ss)))
        return state

    return {
        "tau_rate_halved": ("mtf", tau_rate_halved),
        "z_prior_dropped": ("mtf", z_prior_dropped),
        "lambda_shape_halved": ("rmtf", lambda_shape_halved),
    }


# ---------------------------------------------------------------------------
# run summaries


@dataclass
class RunSummary:
    chain_ids: list[int]
    geweke: dict[str, list[float]]        # trace name -> z per chain
    flags: list[str]
    structure: object                     # ComponentStructure
    effective_cardinality: int
    lambda_mean: float | None
    lambda_std: float | None

    @property
    def converged(self) -> bool:
        return not self.flags

    def __str__(self):
        lines = [f"chains: {self.chain_ids}"]
        for name, zs in self.geweke.items():
            zs_txt = ", ".join("n/a" if z is None else f"{z:+.2f}" for z in zs)
            lines.append(f"geweke[{name}]: {zs_txt}")
        sh, spec, emp = self.structure.counts
        lines.append(f"components: shared={sh} specific={list(spec)} empty={emp} "
                     f"(effective {self.effective_cardinality})")
        if self.lambda_mean is not None:
            lines.append(f"lambda posterior: {self.lambda_mean:.4g} "
                         f"+- {self.lambda_std:.4g}")
        lines.append("flags: " + ("none" if not self.flags else "; ".join(self.flags)))
        return "\n".join(lines)


def summarize_run(samples) -> RunSummary:
    """Aggregate Geweke checks, component structure and the slab-similarity
    posterior over one or more chains; flags chains whose |Geweke z| exceeds 2.

    Traces too short to test are flagged; exactly constant traces (e.g. the
    reconstruction error of an all-off model) are reported as untestable but
    not flagged, since a non-moving statistic is stationary.
    """
    chains = list(samples) if isinstance(samples, (list, tuple)) else [samples]
    geweke: dict[str, list[float]] = {}
    flags = []
    for chain in chains:
        post = chain.traces[chain.hp.burn_in:]
        for j, name in enumerate(chain.trace_names):
            zs = geweke.setdefault(name, [])
            try:
                z = geweke_z(post[:, j])
            except ValueError as err:
                zs.append(None)
                if "zero-variance" not in str(err):
                    flags.append(f"chain {chain.chain_id}: trace {name} untestable")
                continue
            zs.append(z)
            if abs(z) > 2.0:
                flags.append(f"chain {chain.chain_id}: |geweke z|={abs(z):.2f} on {name}")
    structure = component_structure(chains)
    lam_mean = lam_std = None
    if chains[0].model == "rmtf":
        vals = []
        for chain in chains:
            vals += [float(np.mean(st.lam_values())) for st in chain.states]
        lam_mean, lam_std = float(np.mean(vals)), float(np.std(vals))
    return RunSummary(
        chain_ids=[c.chain_id for c in chains], geweke=geweke, flags=flags,
        structure=structure, effective_cardinality=structure.effective_cardinality,
        lambda_mean=lam_mean, lambda_std=lam_std,
    )
