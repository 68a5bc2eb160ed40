"""Run one seeded toy CLI pipeline in two checkouts and compare every output
file byte for byte, or numeric fields within a tolerance.

    python3 scripts/cli_identity.py --parent PARENT_TREE --change . [--rtol R --atol A]

``--parent`` and ``--change`` are two checkouts of the repository; a parent
tree can be made with ``git archive HEAD~1 | tar -x -C PARENT_TREE``.  In each
tree, ``python -m mtfact.cli`` runs the same steps in a fresh directory, with
that tree's ``src`` on the path and one BLAS thread: ``simulate`` (cp,
continuum and relaxed_cp), ``fit`` (mtf and rmtf on cp; on continuum mtf,
rmtf with global, per_component and per_slab lambda, and gfa), ``predict`` of the
continuum test set from every continuum fit, with and without ``--truth``,
and of a multi-pattern test set from the mtf and global-lambda rmtf fits,
then the gfa fit again with ``--jobs 2``, whose chains run in worker
processes, and two masked-training fits.  The multi-pattern test set
(``test_patterns``, written into the work directory by the tree's own
``read_collection`` and ``write_collection``) is the continuum test set with
some observed entries masked (``drop_row``), so its rows fall into several
missingness patterns, lone rows among them, where every row of the
simulated test set shares one.  The masked-training fits fit mtf and rmtf on
the continuum test set, whose held-out slab is masked in every row, with
``--no-preprocess --b-tau 1``, so they reach the masked Z- and U-steps (the
other fits' training data is fully observed).  Last come the option layers
and batch layouts: ``simulate --reps 2`` and ``fit --reps 2`` over its
``rep_*`` directories, an mtf fit of the cp data whose model and schedule
come from a ``--config`` file (``config.json``, written into the work
directory) under ``--preset strong-reg``, and ``report --truth`` over that
fit and the first cp fit.
Each step's standard output is kept as a file too.

Posterior archives (the directories that hold a ``run_manifest.json``) and
tensor collections (those that hold a ``manifest.json``) are compared as
arrays, not as files, so that a tree writing one format can be compared with
a tree writing another.  Each side's archives are read by that tree's own
``read_archive``: every snapshot array of every chain must match bit for
bit, and the manifests must be equal apart from their ``version`` and
``snapshot_stacks``.  Each side's collections are read by that tree's own
``read_collection``: every view's values must match bit for bit and its
mask exactly, and the manifests must be equal apart from their ``version``
and each view's file names (``values``, ``observed``).  The files these
comparisons cover (an archive's manifest, ``snapshots.csv`` and ``*.npy``
stacks; every file of a collection) are left out of the file comparison; an
archive's other files (traces, sweeps, transform) are compared as files.

With ``--rtol R --atol A``, a CSV or JSON file whose bytes differ still
matches when every numeric field of the change, b, and of the parent, a,
satisfies |a - b| <= A + R |b| and every other field, the rows and the keys
are equal; each such file's largest relative difference |a - b| / |b| is
printed.  Float arrays and manifests of archives and collections are then
held to the same tolerance, with the largest relative difference printed per
directory; masks must still be equal.  Other files must match byte for byte.

Prints every file that differs or exists on one side only.  Exits 0 when all
files match, 1 when any differ (the work directories are then kept for
inspection) and 2 when a step fails.
"""

import argparse
import csv
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

SIM_CP = ["--scenario", "cp", "--seed", "3", "--n", "24", "--d1", "6", "--d2", "7",
          "--l", "4", "--k-shared", "1", "--k-matrix", "1", "--k-tensor", "2"]
SIM_CONTINUUM = ["--scenario", "continuum", "--seed", "4", "--n", "12", "--d1", "5",
                 "--d2", "6", "--l", "4", "--k-shared", "1", "--k-matrix", "1",
                 "--k-tensor", "1", "--n-test", "9", "--rho", "1.0"]
FIT = ["--k", "3", "--chains", "2", "--burnin", "10", "--samples", "4", "--thin", "2",
       "--jobs", "1"]
CONTINUUM_FITS = {"mtf": ["--model", "mtf"],
                  "rmtf_global": ["--model", "rmtf", "--lambda-mode", "global"],
                  "rmtf_per_component": ["--model", "rmtf", "--lambda-mode", "per_component"],
                  "rmtf_per_slab": ["--model", "rmtf", "--lambda-mode", "per_slab"],
                  "gfa": ["--model", "gfa"]}
# the config file of the fit_config step; its burnin must beat strong-reg's
CONFIG = {"model": "mtf", "k": 3, "chains": 2, "burnin": 8, "samples": 3, "thin": 2,
          "jobs": 1}


def drop_row(i: int, sample: int) -> bool:
    """Whether the i-th observed entry, in C order, of a view of
    ``test_patterns`` is masked (in a version-1 collection, data row i of the
    view's table): one entry in 13 among samples 0-5, so those samples get
    patterns of their own and samples 6-8 keep the shared one."""
    return i % 13 == 0 and sample < 6


# Run with one tree's src on the path: reads the collection argv[1] with that
# tree's read_collection and writes it to argv[2] with that tree's
# write_collection, with the entries that ``drop_row`` names masked.
WRITE_PATTERNS = inspect.getsource(drop_row) + """
import sys
import numpy as np
from mtfact.core import Collection, MaskedTensor3
from mtfact.io import read_collection, write_collection
src, dst = sys.argv[1:]
c = read_collection(src)
views = []
for v in c.views:
    idx = np.nonzero(v.observed)
    keep = np.array([not drop_row(i, int(n)) for i, n in enumerate(idx[0])], dtype=bool)
    observed = np.zeros_like(v.observed)
    observed[tuple(j[keep] for j in idx)] = True
    views.append(MaskedTensor3(v.tensor, observed))
write_collection(dst, Collection(tuple(views), c.third_mode_groups, c.names))
"""


def steps() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every step, in run order; paths are relative."""
    out = [("simulate_cp", ["simulate", *SIM_CP, "--out", "sim_cp"]),
           ("simulate_continuum", ["simulate", *SIM_CONTINUUM, "--out", "sim_continuum"]),
           ("fit_cp_mtf", ["fit", "--model", "mtf", *FIT, "--seed", "5", "sim_cp",
                           "fit_cp_mtf"]),
           ("fit_cp_rmtf", ["fit", "--model", "rmtf", *FIT, "--seed", "11", "sim_cp",
                            "fit_cp_rmtf"])]
    for i, (name, model) in enumerate(CONTINUUM_FITS.items()):
        out.append((f"fit_{name}", ["fit", *model, *FIT, "--seed", str(6 + i),
                                    "sim_continuum", f"fit_{name}"]))
    for i, name in enumerate(CONTINUUM_FITS):
        base = ["predict", "--archive", f"fit_{name}", "--test", "sim_continuum/test",
                "--seed", str(20 + i), "--stage2-sweeps", "7", "--stage2-samples", "3"]
        out.append((f"predict_{name}", [*base, "--out", f"pred_{name}.csv"]))
        out.append((f"predict_{name}_truth", [*base, "--truth", "sim_continuum/test_full",
                                              "--out", f"pred_{name}_truth.csv"]))
    for i, name in enumerate(("mtf", "rmtf_global")):
        out.append((f"predict_patterns_{name}",
                    ["predict", "--archive", f"fit_{name}", "--test", "test_patterns",
                     "--seed", str(50 + i), "--stage2-sweeps", "7", "--stage2-samples", "3",
                     "--out", f"pred_patterns_{name}.csv"]))
    # the gfa fit again over two worker processes (chains carry the unfold map)
    out.append(("fit_gfa_jobs2", ["fit", "--model", "gfa", *FIT, "--jobs", "2", "--seed", "10",
                                  "sim_continuum", "fit_gfa_jobs2"]))
    for i, model in enumerate(("mtf", "rmtf")):
        out.append((f"fit_masked_{model}", ["fit", "--model", model, *FIT, "--seed", str(30 + i),
                                            "--no-preprocess", "--b-tau", "1",
                                            "sim_continuum/test", f"fit_masked_{model}"]))
    out += [("simulate_relaxed_cp", ["simulate", *SIM_CP[2:], "--scenario", "relaxed_cp",
                                     "--seed", "40", "--out", "sim_relaxed_cp"]),
            ("simulate_reps", ["simulate", *SIM_CP, "--reps", "2", "--out", "sim_reps"]),
            ("fit_reps", ["fit", "--model", "mtf", *FIT, "--seed", "41", "--reps", "2",
                          "sim_reps", "fit_reps"]),
            ("fit_config", ["--config", "config.json", "fit", "--preset", "strong-reg",
                            "--seed", "42", "sim_cp", "fit_config"]),
            ("report_truth", ["report", "fit_cp_mtf", "fit_config", "--truth", "sim_cp/truth",
                              "--out", "report.csv"])]
    return out


def run_tree(tree: str, work: str) -> str | None:
    """Run every step of the pipeline from ``tree`` in ``work``; an error or None."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    os.makedirs(os.path.join(work, "stdout"))
    with open(os.path.join(work, "config.json"), "w") as fh:
        json.dump(CONFIG, fh)
    for name, argv in steps():
        proc = subprocess.run([sys.executable, "-m", "mtfact.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            return f"{tree}: step {name} exited {proc.returncode}: {proc.stderr.strip()}"
        with open(os.path.join(work, "stdout", f"{name}.txt"), "w") as fh:
            fh.write(proc.stdout)
        if name == "simulate_continuum":
            proc = subprocess.run([sys.executable, "-c", WRITE_PATTERNS, "sim_continuum/test",
                                   "test_patterns"], cwd=work, env=env, capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                return f"{tree}: writing test_patterns exited {proc.returncode}: " \
                       f"{proc.stderr.strip()}"
    return None


# Run with one tree's src on the path: reads every archive and collection
# under argv[1] with that tree's read_archive and read_collection and writes,
# under argv[2] at the directory's relative path, its arrays (``arrays.npz``:
# an archive's snapshot arrays keyed chain/snapshot/field/item, a collection's
# values and masks keyed view/values and view/observed) and its manifest
# without the keys that name the format and the files (``manifest.json``).
READ_ARRAYS = """
import json, os, sys
import numpy as np
from mtfact.io import read_archive, read_collection
work, out = sys.argv[1:]
for d, _, files in os.walk(work):
    arrays = {}
    if "run_manifest.json" in files:
        chains, _, manifest = read_archive(d)
        for chain in chains:
            for s, state in enumerate(chain.states):
                for name, value in vars(state).items():
                    for i, a in enumerate(value) if isinstance(value, list) else [("", value)]:
                        if a is not None and not isinstance(a, (dict, str)):
                            arrays[f"{chain.chain_id}/{s}/{name}/{i}"] = np.asarray(a)
        manifest.pop("snapshot_stacks", None)
    elif "manifest.json" in files:
        c = read_collection(d)
        for name, v in zip(c.names, c.views):
            arrays[f"{name}/values"], arrays[f"{name}/observed"] = v.values, v.observed
        with open(os.path.join(d, "manifest.json")) as fh:
            manifest = json.load(fh)
        for view in manifest["views"]:
            view.pop("values", None)
            view.pop("observed", None)
    else:
        continue
    manifest.pop("version", None)
    target = os.path.join(out, os.path.relpath(d, work))
    os.makedirs(target)
    np.savez(os.path.join(target, "arrays.npz"), **arrays)
    with open(os.path.join(target, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True)
"""


def read_arrays(tree: str, work: str, out: str) -> str | None:
    """Dump every archive and collection under ``work`` into ``out`` with
    ``tree``'s readers (``READ_ARRAYS``); an error or None."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", READ_ARRAYS, work, out], env=env,
                          capture_output=True, text=True, timeout=600)
    return None if proc.returncode == 0 else \
        f"{tree}: reading the archives and collections exited {proc.returncode}: " \
        f"{proc.stderr.strip()}"


def tree_files(root: str) -> dict[str, str]:
    """Relative path -> absolute path of every file under ``root``."""
    return {os.path.relpath(os.path.join(d, f), root): os.path.join(d, f)
            for d, _, files in os.walk(root) for f in files}


def _number(x):
    """x as a float if it is a number (a JSON number or a numeric CSV field), else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _close(x, y, rtol: float, atol: float, rel: list[float]) -> bool:
    """Whether the parsed fields x (parent) and y (change) match, numbers
    within |x - y| <= atol + rtol |y|; appends each pair's relative difference."""
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() \
            and all(_close(x[k], y[k], rtol, atol, rel) for k in x)
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) \
            and all(_close(p, q, rtol, atol, rel) for p, q in zip(x, y))
    a, b = _number(x), _number(y)
    if a is None or b is None:  # text, or a container on the change side only
        return type(x) is type(y) and x == y
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    rel.append(abs(a - b) / abs(b) if b != 0 else (0.0 if a == 0 else math.inf))
    return abs(a - b) <= atol + rtol * abs(b)


def _arrays_close(x, y, rtol: float | None, atol: float | None, rel: list[float]) -> bool:
    """Whether the arrays x (parent) and y (change) match: bit for bit without
    a tolerance, else as `_close` matches numbers; appends the largest
    relative difference."""
    if x.shape != y.shape or x.dtype != y.dtype:
        return False
    if rtol is None or x.dtype.kind != "f":
        return x.tobytes() == y.tobytes()
    finite = np.isfinite(x) & np.isfinite(y)
    if not np.array_equal(x[~finite], y[~finite], equal_nan=True):
        return False
    diff, scale = np.abs(x[finite] - y[finite]), np.abs(y[finite])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel.append(float(np.where(diff == 0, 0.0, diff / scale).max(initial=0.0)))
    return bool(np.all(diff <= atol + rtol * scale))


def compare_dump(a: str, b: str, rtol: float | None, atol: float | None,
                 rel: list[float]) -> bool:
    """Whether the dumps ``a`` (parent) and ``b`` (change) of one archive or
    collection match."""
    with np.load(os.path.join(a, "arrays.npz")) as x, \
            np.load(os.path.join(b, "arrays.npz")) as y:
        if sorted(x.files) != sorted(y.files):
            return False
        same = all([_arrays_close(x[k], y[k], rtol, atol, rel) for k in x.files])
    ma, mb = (_parse(os.path.join(d, "manifest.json")) for d in (a, b))
    return same and (ma == mb if rtol is None else _close(ma, mb, rtol, atol, rel))


# the kinds of directory compared as arrays, by the manifest each holds
KINDS = {"run_manifest.json": "archive", "manifest.json": "collection"}


def array_dirs(root: str) -> dict[str, str]:
    """Relative path -> kind ("archive" or "collection") of every directory
    under ``root`` that is compared as arrays."""
    return {os.path.relpath(d, root): kind for d, _, files in os.walk(root)
            for manifest, kind in KINDS.items() if manifest in files}


def array_file(path: str, dirs: dict[str, str]) -> bool:
    """Whether ``path`` is a file that the array comparison covers: any file
    of a collection, or an archive's manifest or one of its snapshot files."""
    d, name = os.path.split(path)
    if dirs.get(d) == "collection":
        return True
    if name == "run_manifest.json":
        return dirs.get(d) == "archive"
    return (name == "snapshots.csv" or name.endswith(".npy")) \
        and os.path.basename(d).startswith("chain_") \
        and dirs.get(os.path.dirname(d)) == "archive"


def _parse(path: str):
    """Rows of a CSV file or the document of a JSON file."""
    with open(path, newline="") as fh:
        return json.load(fh) if path.endswith(".json") else list(csv.reader(fh))


def compare(a: str, b: str, dumps: tuple[str, str], rtol: float | None = None,
            atol: float | None = None) -> list[str]:
    """Lines naming every file, archive or collection that differs between the
    work trees ``a`` and ``b``, whose archives and collections are dumped in
    ``dumps``; with a tolerance, also each CSV or JSON file's and each dump's
    largest relative difference."""
    dirs = {side: array_dirs(root) for side, root in (("parent", a), ("change", b))}
    fa, fb = ({p: f for p, f in tree_files(root).items() if not array_file(p, dirs[side])}
              for side, root in (("parent", a), ("change", b)))
    lines = [f"only in parent: {p}" for p in sorted(fa.keys() - fb.keys())]
    lines += [f"only in change: {p}" for p in sorted(fb.keys() - fa.keys())]
    lines += [f"{dirs['parent'][p]} only in parent: {p}"
              for p in sorted(dirs["parent"].keys() - dirs["change"].keys())]
    lines += [f"{dirs['change'][p]} only in change: {p}"
              for p in sorted(dirs["change"].keys() - dirs["parent"].keys())]
    for p in sorted(dirs["parent"].keys() & dirs["change"].keys()):
        kind = dirs["parent"][p]
        rel: list[float] = []
        ok = kind == dirs["change"][p] and \
            compare_dump(*(os.path.join(d, p) for d in dumps), rtol, atol, rel)
        if rtol is not None:
            print(f"max relative difference {max(rel, default=0.0):.3g}: {kind} {p}")
        if not ok:
            lines.append(f"{kind} differs: {p}")
    for p in sorted(fa.keys() & fb.keys()):
        with open(fa[p], "rb") as x, open(fb[p], "rb") as y:
            same = x.read() == y.read()
        if rtol is None or not p.endswith((".csv", ".json")):
            if not same:
                lines.append(f"differs: {p}")
            continue
        rel: list[float] = []
        ok = _close(_parse(fa[p]), _parse(fb[p]), rtol, atol, rel)
        print(f"max relative difference {max(rel, default=0.0):.3g}: {p}")
        if not ok:
            lines.append(f"differs: {p}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--rtol", type=float, help="relative tolerance of numeric CSV/JSON fields")
    ap.add_argument("--atol", type=float, help="absolute tolerance of numeric CSV/JSON fields")
    args = ap.parse_args()
    if (args.rtol is None) != (args.atol is None):
        ap.error("--rtol and --atol go together")
    root = tempfile.mkdtemp(prefix="cli_identity_")
    work = {side: os.path.join(root, side) for side in ("parent", "change")}
    dumps = {side: os.path.join(root, f"{side}_arrays") for side in work}
    for side in work:
        tree = os.path.abspath(getattr(args, side))
        error = run_tree(tree, work[side]) or read_arrays(tree, work[side], dumps[side])
        if error is not None:
            print(error, file=sys.stderr)
            shutil.rmtree(root)
            return 2
    diffs = compare(work["parent"], work["change"], (dumps["parent"], dumps["change"]),
                    args.rtol, args.atol)
    n_files = len(tree_files(work["parent"]).keys() | tree_files(work["change"]).keys())
    kinds = list({**array_dirs(work["parent"]), **array_dirs(work["change"])}.values())
    for line in diffs:
        print(line)
    print(f"{n_files} files ({kinds.count('archive')} archives, "
          f"{kinds.count('collection')} collections) compared, {len(diffs)} differ")
    if diffs:
        print(f"outputs kept in {root}")
        return 1
    shutil.rmtree(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
