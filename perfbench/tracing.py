"""Spans around calls into ``mtfact``, installed from outside the package.

The package imports functions by name (``from .dist import
draw_mvn_precision_chol``), so a function is wrapped by replacing every
module attribute of the package that is bound to it.  Spans are kept in
memory and aggregated once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# <module>.<function> of every span the traced run reports, in report order.
SPANS = (
    "core.center_and_normalize",
    "simgen.generate",
    "fitting.fit_model",
    "mtf.prepare",
    "mtf.init_state",
    "mtf.run_chain",
    "mtf.mtf_sweep",
    "mtf.update_z",
    "mtf.update_vh",
    "mtf.update_u",
    "mtf.update_hypers",
    "mtf.log_joint",
    "mtf._chol_jittered",
    "rmtf.rmtf_init",
    "rmtf.rmtf_run_chain",
    "rmtf.rmtf_sweep",
    "rmtf._update_z",
    "rmtf._update_wh",
    "rmtf._update_v",
    "rmtf._update_u",
    "rmtf._update_lambda",
    "rmtf._update_scales_and_noise",
    "rmtf._update_pi",
    "rmtf.rmtf_log_joint",
    "dist.cholesky_precision",
    "dist.draw_mvn_precision_chol",
    "dist.draw_bernoulli_logodds",
    "predict.two_stage_predict",
    "io.write_collection",
    "io.read_collection",
    "io.write_arrays",
    "io.write_archive",
    "io.read_archive",
    "io.write_prediction_report",
    "diag.summarize_run",
    "cli.cmd_simulate",
    "cli.cmd_fit",
    "cli.cmd_predict",
)

# Counters reported beside the spans.
COUNTERS = ("io.bytes_written", "io.bytes_read", "predict.n_draws", "dist.jitter_rescues")

# First argument of these is the file or directory written / read.
_IO_WRITES = {"io.write_collection", "io.write_arrays", "io.write_archive",
              "io.write_prediction_report"}
_IO_READS = {"io.read_collection", "io.read_archive"}


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    units = {"io.bytes_written": "bytes", "io.bytes_read": "bytes",
             "predict.n_draws": "count", "dist.jitter_rescues": "count"}
    return out + [(c, units[c]) for c in COUNTERS]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mtfact" or name.startswith("mtfact."))]


def tree_bytes(path: str) -> int:
    """Total size of a file, or of every file under a directory."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


class Tracer:
    """Records one span per call of each wrapped function.

    ``install`` patches the package; ``uninstall`` restores every original
    binding.  A span name whose function no longer exists is listed in
    ``absent`` instead of raising.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, float, float]] = []  # (name, parent, t0, t1)
        self.absent: list[str] = []
        self.io_paths: list[tuple[str, str]] = []             # ("w"|"r", path)
        self.n_draws = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        importlib.import_module("mtfact.cli")  # load every module that binds names
        self.absent = []
        for idx, span in enumerate(SPANS):
            module, func = span.split(".", 1)
            try:
                orig = getattr(importlib.import_module(f"mtfact.{module}"), func, None)
            except ModuleNotFoundError:
                orig = None
            if orig is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(idx, span, orig)
            for mod in _package_modules():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    def _wrap(self, idx: int, span: str, fn):
        spans, stack = self.spans, self._stack
        io_kind = "w" if span in _IO_WRITES else "r" if span in _IO_READS else None
        counts_draws = span == "predict.two_stage_predict"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append((idx, stack[-1] if stack else -1, 0.0, 0.0))
            stack.append(me)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[me] = (idx, spans[me][1], t0, t1)
            if io_kind is not None:
                self.io_paths.append((io_kind, os.fspath(args[0])))
            if counts_draws:
                self.n_draws += result.n_draws
            return result

        return traced

    def collect_io_bytes(self):
        """Add the sizes of the files behind the recorded I/O calls to the byte
        counters; call before those files are removed."""
        for kind, path in self.io_paths:
            if kind == "w":
                self.bytes_written += tree_bytes(path)
            else:
                self.bytes_read += tree_bytes(path)
        self.io_paths = []

    def aggregate(self):
        """Per-span calls and self time, per-(parent, child) total time, and
        Cholesky jitter rescues."""
        n = len(SPANS)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.spans)
        edges: dict[tuple[str, str], float] = {}
        chol = SPANS.index("dist.cholesky_precision")
        jit = SPANS.index("mtf._chol_jittered")
        chol_in_jitter = 0
        for idx, parent, t0, t1 in self.spans:
            dur = t1 - t0
            calls[idx] += 1
            total[idx] += dur
            pname = "<harness>"
            if parent >= 0:
                child[parent] += dur
                pidx = self.spans[parent][0]
                pname = SPANS[pidx]
                if idx == chol and pidx == jit:
                    chol_in_jitter += 1
            key = (pname, SPANS[idx])
            edges[key] = edges.get(key, 0.0) + dur
        self_s = list(total)
        for i, (idx, _, _, _) in enumerate(self.spans):
            self_s[idx] -= child[i]
        return {
            "calls": dict(zip(SPANS, calls)),
            "self_s": dict(zip(SPANS, self_s)),
            "edges": edges,
            "jitter_rescues": chol_in_jitter - calls[jit],
        }
