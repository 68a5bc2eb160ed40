"""Convergence diagnostics and the sampler-correctness harness.

The harness compares forward simulation from the generative model against
the Gibbs transition interleaved with data resimulation; a correct sampler
leaves the joint distribution invariant, so every statistic's two estimates
must agree.  Deliberately broken transition kernels are shipped as fixtures
to prove the harness has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from . import mtf as _mtf
from . import rmtf as _rmtf
from .core import Collection, MaskedTensor3, Tensor3
from .mtf import HyperParams, ModelData, PosteriorSamples, component_structure, prepare
from .rmtf import RmtfState

__all__ = [
    "geweke_z",
    "spectral_variance",
    "joint_distribution_test",
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


def geweke_z(trace, first_frac: float = 0.1, last_frac: float = 0.5) -> float:
    """Z-score comparing the means of the early and late segments of a trace.

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
    if not (0 < first_frac and 0 < last_frac and first_frac + last_frac <= 1):
        raise ValueError("need 0 < first_frac, last_frac and first_frac + last_frac <= 1")
    a = trace[: int(first_frac * n)]
    b = trace[n - int(last_frac * n):]
    s = spectral_variance(b)
    if s == 0:
        raise ValueError("zero-variance trace segment")
    return float((a.mean() - b.mean()) / np.sqrt(s / a.size + s / b.size))


# ---------------------------------------------------------------------------
# joint-distribution test


def _toy_collection(n: int, d: int, l: int, masks=None) -> Collection:
    """Placeholder matrix + tensor pair (tensor only if l > 1), fully
    observed unless ``masks`` gives their (n, d, 1) and (n, d, l)
    observation masks."""
    shapes = ((n, d, 1), (n, d, l))
    if masks is None:
        masks = [np.ones(shape, dtype=bool) for shape in shapes]
    views = [MaskedTensor3(Tensor3(np.zeros(shape) + 0.1), obs)
             for shape, obs in zip(shapes, masks)]
    return Collection(tuple(views), (), ("m", "t"))


def toy_masks(sizes) -> list[np.ndarray]:
    """Observation masks for the harness toy of ``sizes`` (n, d, l) that
    exercise the masked conditionals: row 0 is masked in both views, and
    entry (i, j, m) of every other row is masked when i + j + m is a
    multiple of 3, so the rows have distinct missingness patterns."""
    n, d, l = sizes
    masks = [np.indices(shape).sum(axis=0) % 3 != 0 for shape in ((n, d, 1), (n, d, l))]
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
    lam = state.lam
    if state.lambda_mode == "per_slab":
        lam = _flat([x for x in lam if x is not None])
    out["lam_mean"], out["lam_sq"] = _log_moments(lam)
    return out


def _x_stats(arrays):
    x = _flat(arrays)
    return {"x_mean": _odd(x), "x_sq": _even(x)}


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

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.stat_names, self.z_scores))

    def __str__(self):
        lines = [f"{'PASS' if self.passed else 'FAIL'}  "
                 f"(threshold {self.threshold:.2f}, alpha {self.alpha}, "
                 f"n_iter {self.n_iter})"]
        for name, z in zip(self.stat_names, self.z_scores):
            flag = "" if abs(z) < self.threshold else "  <-- FAIL"
            lines.append(f"  {name:10s} z = {z:+7.2f}{flag}")
        return "\n".join(lines)


def joint_distribution_test(model: str, sizes, hp: HyperParams, n_iter: int, rng,
                            transition=None, alpha: float = 0.005,
                            masks=None) -> JointDistResult:
    """Compare forward simulation against the Gibbs transition, moment by moment.

    ``sizes`` is (n, d, l); the test collection is one matrix and one tensor
    (a second matrix when l = 1, which exercises the all-matrices path).
    Both are fully observed unless ``masks`` gives their (n, d, 1) and
    (n, d, l) boolean observation masks (see ``toy_masks``); masked entries
    are simulated like the others but never reach the transition.
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
    if hp.b_tau is None:
        raise ValueError("the harness needs an explicit b_tau (data-independent prior)")
    n, d, l = sizes
    gen = rng.gen if hasattr(rng, "gen") else rng
    data = prepare(_toy_collection(n, d, l, masks), hp)
    if model == "mtf":
        sample_prior, simulate = _mtf.sample_state_from_prior, _mtf.simulate_data
        stats_fn = _mtf_stats

        def default_transition(state, data, rng):
            _mtf.mtf_sweep(state, data, rng)
            return state
    elif model == "rmtf":
        sample_prior, simulate = _rmtf.rmtf_sample_state_from_prior, _rmtf.rmtf_simulate_data
        stats_fn = _rmtf_stats

        def default_transition(state, data, rng):
            _rmtf.rmtf_sweep(state, data, rng)
            return state
    else:
        raise ValueError(f"unknown model {model!r}")
    transition = transition or default_transition

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
        state = transition(state, data, gen)
        row = stats_fn(state, data)
        row.update(_x_stats(xs))
        suc[i] = [row[k] for k in names]

    z = np.empty(len(names))
    for j in range(len(names)):
        se2 = np.var(fwd[:, j], ddof=1) / n_iter + spectral_variance(suc[:, j]) / n_iter
        diff = fwd[:, j].mean() - suc[:, j].mean()
        if se2 == 0:  # degenerate constant statistic (e.g. all-matrix v's)
            z[j] = 0.0 if diff == 0 else np.inf
        else:
            z[j] = diff / np.sqrt(se2)
    threshold = float(norm.ppf(1.0 - alpha / (2 * len(names))))
    return JointDistResult(list(names), z, threshold, alpha, n_iter)


def buggy_transitions() -> dict[str, tuple[str, callable]]:
    """Deliberately wrong Gibbs kernels; each must fail the harness.

    Returns name -> (model, transition).
    """

    def tau_rate_halved(state, data, rng):
        gen = rng.gen if hasattr(rng, "gen") else rng
        residuals = _mtf.mtf_sweep(state, data, gen)
        for t, v in enumerate(data.views):
            b_post = data.b_tau[t] + 0.25 * float(np.sum(residuals[t] ** 2))
            state.tau[t] = gen.gamma(data.hp.a_tau + v.n_obs / 2.0, 1.0 / b_post)
        return state

    def z_prior_dropped(state, data, rng):
        gen = rng.gen if hasattr(rng, "gen") else rng
        _mtf.mtf_sweep(state, data, gen)
        # redraw Z from a conditional missing the unit prior precision
        k = state.k
        lin = np.zeros((data.n, k))
        prec = np.zeros((k, k))
        for t in range(data.n_views):
            u = state.u_for_view(t)
            t1 = data.views[t].x @ state.V[t]
            lin += state.tau[t] * np.einsum("nlk,lk->nk", t1, u)
            prec += state.tau[t] * ((state.V[t].T @ state.V[t]) * (u.T @ u))
        prec += 1e-10 * np.eye(k)  # numerical guard only, not the prior
        state.Z = _mtf.draw_mvn_precision_chol(lin, _mtf._chol_jittered(prec), gen)
        return state

    def lambda_shape_halved(state, data, rng):
        gen = rng.gen if hasattr(rng, "gen") else rng
        _rmtf.rmtf_sweep(state, data, gen)
        counts, devs = _rmtf._lambda_stats(state, data)
        tensor_ts = [t for t, v in enumerate(data.views) if not v.is_matrix()]
        n_act = sum(counts[t].sum() for t in tensor_ts)
        ss = sum(devs[t].sum() for t in tensor_ts)
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


def summarize_run(samples, threshold: float = 0.5, flag_z: float = 2.0) -> RunSummary:
    """Aggregate Geweke checks, component structure and the slab-similarity
    posterior over one or more chains; flags chains that look unconverged.

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
            if abs(z) > flag_z:
                flags.append(f"chain {chain.chain_id}: |geweke z|={abs(z):.2f} on {name}")
    structure = component_structure(chains, threshold=threshold)
    lam_mean = lam_std = None
    if chains[0].model == "rmtf":
        vals = []
        for chain in chains:
            for st in chain.states:
                if st.lambda_mode == "per_slab":
                    vals.append(np.mean(np.concatenate(
                        [x for x in st.lam if x is not None])))
                else:
                    vals.append(float(np.mean(st.lam)))
        lam_mean, lam_std = float(np.mean(vals)), float(np.std(vals))
    return RunSummary(
        chain_ids=[c.chain_id for c in chains], geweke=geweke, flags=flags,
        structure=structure, effective_cardinality=structure.effective_cardinality,
        lambda_mean=lam_mean, lambda_std=lam_std,
    )
