"""The benchmark's workloads: inputs made from a seed, and one measured round.

Every round runs the paper's simulation-study loop once: simulate, fit the
strict (MTF) and relaxed (rMTF) models, and predict the held-out tensor slab
from the rMTF fit.  The ``cp_*`` workloads do it in memory at paper scale with
different missingness in the training data; ``continuum_cli`` does it through
``mtfact.cli.main`` and files.  The inputs of a workload depend only on the
seed, so every round of a run repeats the same computation.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from io import StringIO

import numpy as np

from mtfact import cli, fitting, predict, simgen
from mtfact.core import Collection, MaskedTensor3, Tensor3, apply_transform
from mtfact.dist import RngStream
from mtfact.mtf import HyperParams

MODELS = ("mtf", "rmtf")
PREDICT_MODEL = "rmtf"   # the paper's proposed model; both are fitted
# simgen scales signal so that predicting zero scores RMSE 3 and predicting
# the noiseless truth scores 1; a prediction must beat zero by this margin.
RMSE_LIMIT = 3.0 - 0.5
# Late in-sample MSE per view, in standardized units where predicting zero
# scores 1; the generator's noise share is 1/9.
MSE_LIMIT = 0.5


@dataclass(frozen=True)
class Size:
    """Problem sizes and sampling schedules.

    ``schedules`` maps a workload to {model: (burn_in, n_samples, thin,
    n_chains)}.  In memory, ``simulate`` and ``predict`` take milliseconds, so
    a ``cp_*`` round repeats them ``simulate_reps`` / ``predict_reps`` times
    and keeps the median.
    """

    cp_n_train: int
    cli_n_train: int
    n_test: int
    dims: dict
    k: int
    schedules: dict
    stage2: tuple            # (burn-in sweeps, retained draws) per snapshot
    setup_probes: int
    simulate_reps: int
    predict_reps: int


SIZES = {
    # paper scale: N=300, D=50+50, L=30, K=15; continuum N=15 with 100 test rows
    "paper": Size(
        cp_n_train=300, cli_n_train=15, n_test=100,
        dims=dict(d1=50, d2=50, l=30, k_shared=1, k_matrix=2, k_tensor=8),
        k=15,
        schedules={
            # the rMTF fit keeps more snapshots: prediction runs stage 2 per snapshot
            "cp_dense": {"mtf": (36, 2, 2, 1), "rmtf": (30, 10, 1, 1)},
            # a masked MTF sweep costs several rMTF sweeps; both fits last seconds
            "cp_masked_entries": {"mtf": (0, 1, 1, 1), "rmtf": (0, 4, 1, 1)},
            "cp_missing_slabs": {"mtf": (0, 2, 1, 1), "rmtf": (0, 4, 1, 1)},
            # 5 snapshots per chain, so the archive I/O is real work; with N=15 an
            # MTF sweep takes milliseconds, so it runs longer than the warm start
            "continuum_cli": {"mtf": (100, 5, 2, 2), "rmtf": (20, 5, 2, 2)},
        },
        stage2=(50, 10), setup_probes=3, simulate_reps=10, predict_reps=5,
    ),
    # seconds-long version of the same code paths, for the smoke test
    "toy": Size(
        cp_n_train=30, cli_n_train=8, n_test=10,
        dims=dict(d1=6, d2=6, l=6, k_shared=1, k_matrix=1, k_tensor=2),
        k=5,
        schedules={w: {m: (6, 2, 1, 1) for m in ("mtf", "rmtf")}
                   for w in ("cp_dense", "cp_masked_entries", "cp_missing_slabs",
                             "continuum_cli")},
        stage2=(5, 2), setup_probes=1, simulate_reps=2, predict_reps=2,
    ),
}


class Ops:
    """Operations attempted and failed.  One operation is one call into the
    program; it fails when it raises or a check on its output fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception as exc:
            problems.append(f"raised {exc!r}")
            raise
        finally:
            if problems:
                self.failed += 1
                self.failures.append(f"{name}: " + "; ".join(problems))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _check_traces(chains, problems, check_mse: bool):
    for ch in chains:
        if not np.all(np.isfinite(ch.traces)):
            problems.append(f"chain {ch.chain_id}: non-finite trace")
        if check_mse:
            late = ch.traces[-max(1, len(ch.traces) // 4):, 1:].mean(axis=0)
            for name, m in zip(ch.trace_names[1:], late):
                if not m < MSE_LIMIT:
                    problems.append(f"chain {ch.chain_id}: late {name} {m:.3f} >= {MSE_LIMIT}")


def _check_prediction(n_targets: int, expected: int, rmse: float, problems):
    if n_targets != expected:
        problems.append(f"predicted {n_targets} entries, expected {expected}")
    if not rmse < RMSE_LIMIT:
        problems.append(f"rmse {rmse:.4f} >= {RMSE_LIMIT}")


def _round_metrics(simulate_s, fit_s, predict_s, sweeps):
    """End-to-end values of one round; ``sweeps`` maps model to (sweeps, fit_model seconds)."""
    out = {
        "simulate_s": simulate_s,
        "fit_s": fit_s,
        "predict_s": predict_s,
        "pipeline_s": simulate_s + fit_s + predict_s,
    }
    for model, (n, secs) in sweeps.items():
        out[f"{model}_sweeps_per_s"] = n / secs
    return out


@dataclass
class Workload:
    """One workload at one size and seed.  ``mask`` is the missingness of the
    ``cp_*`` training rows: None, "entries" or "slabs"."""

    name: str
    mask: str | None
    size: Size
    seed: int

    def __post_init__(self):
        self.train_masks = None if self.is_cli else self._draw_masks()

    @property
    def is_cli(self) -> bool:
        return self.name == "continuum_cli"

    def hyperparams(self, model: str) -> HyperParams:
        burn_in, n_samples, thin, n_chains = self.size.schedules[self.name][model]
        return HyperParams(k=self.size.k, burn_in=burn_in, n_samples=n_samples,
                           thin=thin, n_chains=n_chains)

    def spec(self) -> simgen.SimSpec:
        if self.is_cli:
            return simgen.SimSpec(scenario="continuum", n=self.size.cli_n_train,
                                  n_test=self.size.n_test, seed=self.seed, **self.size.dims)
        return simgen.SimSpec(scenario="cp", n=self.size.cp_n_train + self.size.n_test,
                              seed=self.seed, **self.size.dims)

    # -- inputs -----------------------------------------------------------

    def training_collection(self) -> Collection:
        """The training collection of one round, which set-up starts from."""
        if self.is_cli:
            return simgen.generate(self.spec())[0]
        return self._split(simgen.generate(self.spec())[0])[0]

    def _draw_masks(self) -> list[np.ndarray]:
        """Observation masks of the matrix and tensor training rows."""
        rng = np.random.default_rng([self.seed, 7])
        n, dims = self.size.cp_n_train, self.size.dims
        masks = [np.ones((n, dims["d1"], 1), dtype=bool),
                 np.ones((n, dims["d2"], dims["l"]), dtype=bool)]
        if self.mask == "entries":
            # 10 % of each view's entries, every (feature, slab) fiber keeping
            # at least 2 observed entries so standardization is defined
            for obs in masks:
                obs[...] = rng.random(obs.shape) >= 0.1
                for d, l in np.argwhere(obs.sum(axis=0) < 2):
                    obs[rng.choice(n, 2, replace=False), d, l] = True
        elif self.mask == "slabs":
            # three row patterns: tensor complete, first third of the slabs
            # missing, or last third missing
            pattern = rng.permutation(np.arange(n) % 3)
            third = dims["l"] // 3
            masks[1][pattern == 1, :, :third] = False
            masks[1][pattern == 2, :, dims["l"] - third:] = False
        return masks

    def _split(self, full: Collection):
        """(masked training rows, test rows with tensor slab 1 masked, test rows)."""
        n = self.size.cp_n_train
        train = Collection(
            tuple(MaskedTensor3(Tensor3(v.values[:n]), m)
                  for v, m in zip(full.views, self.train_masks)),
            full.third_mode_groups, full.names)
        test_full = Collection(
            tuple(MaskedTensor3.fully_observed(Tensor3(v.values[n:])) for v in full.views),
            full.third_mode_groups, full.names)
        tens_obs = np.ones(test_full.views[1].shape, dtype=bool)
        tens_obs[:, :, 0] = False
        test = Collection((test_full.views[0], MaskedTensor3(test_full.views[1].tensor, tens_obs)),
                          full.third_mode_groups, full.names)
        return train, test, test_full

    def expected_targets(self) -> int:
        return self.size.n_test * self.size.dims["d2"]

    # -- one round ----------------------------------------------------------

    def run_round(self, ops: Ops, calib, workdir: str, tracer=None) -> dict:
        """One round; ``calib.sample()`` runs between the timed steps."""
        if self.is_cli:
            return self._cli_round(ops, calib, workdir, tracer)
        return self._memory_round(ops, calib)

    def _memory_round(self, ops: Ops, calib) -> dict:
        calib.sample()
        sim_times = []
        for _ in range(self.size.simulate_reps):
            with ops.op("simulate"):
                secs, (full, _) = _timed(simgen.generate, self.spec())
            sim_times.append(secs)
        train, test, test_full = self._split(full)
        fits, sweeps, fit_s = {}, {}, 0.0
        for model in MODELS:
            calib.sample()
            with ops.op(f"fit {model}") as problems:
                secs, (chains, transform, _) = _timed(
                    fitting.fit_model, train, self.hyperparams(model), model=model,
                    seed=self.seed, jobs=1)
                _check_traces(chains, problems, check_mse=True)
            fits[model] = (chains, transform)
            sweeps[model] = (sum(len(ch.traces) for ch in chains), secs)
            fit_s += secs
        chains, transform = fits[PREDICT_MODEL]
        s2_sweeps, s2_samples = self.size.stage2
        calib.sample()
        pred_times = []
        for _ in range(self.size.predict_reps):
            with ops.op("predict") as problems:
                t0 = time.perf_counter()
                task = predict.PredictionTask(chains, apply_transform(transform, test),
                                              n_stage2_sweeps=s2_sweeps,
                                              n_stage2_samples=s2_samples)
                result = predict.two_stage_predict(task, RngStream(self.seed, 10_000))
                pred_times.append(time.perf_counter() - t0)
                se, n_t = 0.0, 0
                for t, tgt in enumerate(result.targets):
                    pred = result.mean[t] * transform.scales[t][None] + transform.centers[t][None]
                    se += float(np.sum((pred[tgt] - test_full.views[t].values[tgt]) ** 2))
                    n_t += int(tgt.sum())
                _check_prediction(n_t, self.expected_targets(), np.sqrt(se / max(n_t, 1)),
                                  problems)
        return _round_metrics(statistics.median(sim_times), fit_s,
                              statistics.median(pred_times), sweeps)

    def _cli_round(self, ops: Ops, calib, workdir: str, tracer) -> dict:
        root = tempfile.mkdtemp(prefix="round-", dir=workdir)
        try:
            return self._cli_steps(ops, calib, root)
        finally:
            if tracer is not None:
                tracer.collect_io_bytes()
            shutil.rmtree(root, ignore_errors=True)

    def _cli_steps(self, ops: Ops, calib, root: str) -> dict:
        spec = self.spec()
        sim = os.path.join(root, "sim")
        sim_args = ["simulate", "--scenario", "continuum", "--seed", str(self.seed),
                    "--n", str(spec.n), "--n-test", str(spec.n_test), "--out", sim]
        for key in ("d1", "d2", "l", "k_shared", "k_matrix", "k_tensor"):
            sim_args += ["--" + key.replace("_", "-"), str(getattr(spec, key))]
        calib.sample()
        with ops.op("cli simulate"):
            simulate_s, (code, _) = _timed(_cli, sim_args)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
        fit_s, sweeps = 0.0, {}
        for model in MODELS:
            calib.sample()
            with ops.op(f"cli fit {model}") as problems:
                hp = self.hyperparams(model)
                calls = []
                with _timing_binding(cli, "fit_model", calls):
                    secs, (code, _) = _timed(_cli, [
                        "fit", "--model", model, "--k", str(hp.k),
                        "--chains", str(hp.n_chains), "--burnin", str(hp.burn_in),
                        "--samples", str(hp.n_samples), "--thin", str(hp.thin),
                        "--seed", str(self.seed), "--jobs", "1",
                        sim, os.path.join(root, f"fit_{model}")])
                if code != 0 or len(calls) != 1:
                    raise RuntimeError(f"exit code {code}, {len(calls)} fit_model calls")
                fit_secs, (chains, _, _) = calls[0]
                _check_traces(chains, problems, check_mse=False)
            fit_s += secs
            sweeps[model] = (sum(len(ch.traces) for ch in chains), fit_secs)
        s2_sweeps, s2_samples = self.size.stage2
        calib.sample()
        with ops.op("cli predict") as problems:
            predict_s, (code, out) = _timed(_cli, [
                "predict", "--archive", os.path.join(root, f"fit_{PREDICT_MODEL}"),
                "--test", os.path.join(sim, "test"),
                "--truth", os.path.join(sim, "test_full"),
                "--seed", str(self.seed), "--stage2-sweeps", str(s2_sweeps),
                "--stage2-samples", str(s2_samples),
                "--out", os.path.join(root, "pred.csv")])
            m = re.search(r"predicted (\d+) entries .*\(rmse ([0-9.eE+-]+)\)", out)
            if code != 0 or m is None:
                problems.append(f"exit code {code}, output {out.strip()!r}")
            else:
                _check_prediction(int(m.group(1)), self.expected_targets(),
                                  float(m.group(2)), problems)
        return _round_metrics(simulate_s, fit_s, predict_s, sweeps)


def _cli(argv: list[str]) -> tuple[int, str]:
    """``mtfact.cli.main`` in this process; returns (exit code, its stdout)."""
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@contextlib.contextmanager
def _timing_binding(module, name: str, sink: list):
    """Time calls through ``module.name``; appends (seconds, result) to ``sink``."""
    orig = getattr(module, name)

    def timed(*args, **kwargs):
        secs, out = _timed(orig, *args, **kwargs)
        sink.append((secs, out))
        return out

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, orig)


# Workload name -> missingness of the cp training rows.  BENCHMARK.json gives
# each workload's reason in one line.
WORKLOADS = {
    # only the dense sampler paths run: V/H (MTF) and W/H (rMTF) column loops lead
    "cp_dense": None,
    # every row has its own pattern: 300 row factorizations per MTF Z-step
    "cp_masked_entries": "entries",
    # three shared row patterns: the masked U-step leads and Z is cheap
    "cp_missing_slabs": "slabs",
    # the io, diag and cli layers, which the cp_* workloads never reach
    "continuum_cli": None,
}


def make_workload(name: str, seed: int, size: str) -> Workload:
    return Workload(name=name, mask=WORKLOADS[name], size=SIZES[size], seed=seed)
