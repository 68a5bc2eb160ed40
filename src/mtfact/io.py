"""On-disk formats: collections, posterior archives, named arrays, prediction reports.

Arrays are ``.npy`` files named by a JSON manifest: a collection's values and
masks (``manifest.json``, version 2), an archive's snapshot stacks
(``run_manifest.json``, version 3) and named float64 arrays (``arrays.json``:
truth arrays, an archive's ``transform/``).  A collection of version 1, or an
archive of version 1 or 2, is refused by name.

Traces and prediction reports are CSV tables (`_write_table`), of which traces
are read back (`_read_table`), in sweep order.  A header row names the columns;
floats are written as ``%.17g``, so a round trip is bit exact (nan, inf, -inf
and -0 included); rows follow the ``csv`` module's defaults: CRLF line ends,
and quotes only around a field that holds a comma, a quote or a line break
(only a prediction report's view names can).  A read header other than the one
its writer writes raises ValueError naming the file and both headers.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, fields

import numpy as np
from numpy.dtypes import StringDType

from .core import Collection, MaskedTensor3, PreprocessTransform, Tensor3
from .mtf import HyperParams, MtfState, PosteriorSamples
from .rmtf import RmtfState

__all__ = [
    "write_collection", "read_collection", "write_archive", "read_archive", "write_arrays",
    "read_arrays", "write_prediction_report",
]

_FMT = "%.17g"
_COMMA = np.array(",", dtype=StringDType())


def _json_dump(path: str, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_load(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the table dialect


def _cells(column: np.ndarray) -> list:
    """A column's Python values, floats formatted with `_FMT`."""
    values = column.tolist()
    return list(map(_FMT.__mod__, values)) if column.dtype.kind == "f" else values


def _write_table(path: str, header: list[str], columns: list, footer: str = ""):
    """Write one table from whole column arrays; ``footer`` follows the rows
    as is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*map(_cells, columns)))
        fh.write(footer)


def _read_table(path: str, expected) -> list[np.ndarray]:
    """The columns of one table, each a numpy string array in file row order,
    converted in bulk by the caller (``astype(np.float64)``).  The header must
    be ``expected``, the one its writer writes.  Rows split at every comma: no
    table that is read back holds a quoted field."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header != expected:
            raise ValueError(f"{path}: expected the header {','.join(expected)}, "
                             f"found {','.join(header) or 'none'}")
        rows = np.array(fh.read().splitlines(), dtype=StringDType())
    columns, ragged = [], np.zeros(rows.shape, dtype=bool)
    for _ in header[1:]:
        column, comma, rows = np.strings.partition(rows, _COMMA)
        columns.append(column)
        ragged |= comma == ""
    ragged = np.flatnonzero(ragged | (np.strings.find(rows, _COMMA) >= 0))
    if ragged.size:
        raise ValueError(f"{path}, row {ragged[0] + 1}: expected {len(header)} fields")
    return columns + [rows]


# ---------------------------------------------------------------------------
# collections


def _manifest(path: str, kind: str, version: int) -> dict:
    """The manifest in ``path``; ValueError naming it unless it is an object of
    format ``kind`` and ``version`` whose ``views`` are a list of objects.  An
    earlier version is refused by name."""
    m = _json_load(path)
    found = m.get("version") if isinstance(m, dict) and m.get("format") == kind else None
    if found in range(1, version):
        raise ValueError(f"{path}: a {kind.replace('-', ' ')} of version {found}, which is no "
                         f"longer read; re-simulate or re-fit to write version {version}")
    if found != version:
        raise ValueError(f"{path}: not a {kind.replace('-', ' ')} of version {version}")
    views = _require(path, m, ["views"])[0]
    if not isinstance(views, list) or not all(isinstance(v, dict) for v in views):
        raise ValueError(f"{path}: 'views' is not a list of objects")
    return m


def _require(path: str, entry: dict, keys, where: str = "") -> list:
    """The values of ``keys`` in ``entry``; ValueError naming ``path`` if one is absent."""
    for key in keys:
        if key not in entry:
            raise ValueError(f"{path}: {where}no {key!r}")
    return [entry[key] for key in keys]


def _plain(path: str, names, where: str):
    """ValueError naming ``path`` for a name that is not one plain path
    component, or if ``names`` is not a list: no file that a manifest names
    leaves its directory."""
    if not isinstance(names, list):
        raise ValueError(f"{path}: {where}not a list of file names")
    for f in names:
        if not isinstance(f, str) or f in ("", ".", "..") or os.path.basename(f) != f:
            raise ValueError(f"{path}: {where}{f!r} is not a plain file name")


def _load_npy(path: str, dtype: str, shape: tuple) -> np.ndarray:
    """The array in ``path``; ValueError naming it if absent, unreadable, not
    ``dtype`` or not of ``shape``, whose "N" axes may have any length."""
    try:
        arr = np.load(path, allow_pickle=False) if os.path.isfile(path) else None
    except (ValueError, OSError, EOFError) as err:
        raise ValueError(f"{path}: not a readable .npy file ({err})") from None
    if (arr is None or arr.dtype != dtype or arr.ndim != len(shape)
            or any(a not in (b, "N") for a, b in zip(shape, arr.shape))):
        want = str(shape).replace("'", "")
        raise ValueError(f"{path}: expected {dtype} {want}, found "
                         + ("none" if arr is None else f"{arr.dtype} {arr.shape}"))
    return arr


def write_collection(directory: str, c: Collection):
    """Version 2: per view, ``<name>.values.npy`` (float64 (N, D, L), 0.0 where
    unobserved) and ``<name>.observed.npy`` (bool), named in ``manifest.json``."""
    os.makedirs(directory, exist_ok=True)
    group_of = {t: g for g, members in enumerate(c.third_mode_groups) for t in members}
    views = []
    for t, (name, v) in enumerate(zip(c.names, c.views)):
        files = {"values": f"{name}.values.npy", "observed": f"{name}.observed.npy"}
        np.save(os.path.join(directory, files["values"]), np.where(v.observed, v.values, 0.0))
        np.save(os.path.join(directory, files["observed"]), v.observed)
        views.append({"name": name, "n": v.shape[0], "d": v.shape[1], "l": v.shape[2],
                      "group": group_of.get(t), **files})
    _json_dump(os.path.join(directory, "manifest.json"),
               {"format": "tensor-collection", "version": 2, "views": views})


def read_collection(directory: str) -> Collection:
    """A `write_collection` directory, 0.0 where unobserved; ValueError names the
    manifest if its format, version, keys or file names are not `write_collection`'s,
    or a bad array's file."""
    path = os.path.join(directory, "manifest.json")
    manifest = _manifest(path, "tensor-collection", 2)
    views, groups = [], {}
    for t, meta in enumerate(manifest["views"]):
        name, n, d, l, *arrays = _require(path, meta, ["name", "n", "d", "l", "values",
                                                       "observed"], f"view {t}: ")
        _plain(path, [name, *arrays], f"view {t}: ")
        values, observed = (_load_npy(os.path.join(directory, f), dt, (n, d, l))
                            for f, dt in zip(arrays, ("float64", "bool")))
        views.append(MaskedTensor3(Tensor3(np.where(observed, values, 0.0)), observed))
        if meta.get("group") is not None:
            groups.setdefault(meta["group"], []).append(t)
    third = tuple(tuple(groups[g]) for g in sorted(groups))
    return Collection(tuple(views), third, tuple(m["name"] for m in manifest["views"]))


# ---------------------------------------------------------------------------
# named arrays (truth arrays, an archive's transform)


def write_arrays(directory: str, arrays: dict[str, np.ndarray]):
    """Each array as float64 ``<name>.npy``, its shape named in ``arrays.json``."""
    os.makedirs(directory, exist_ok=True)
    _json_dump(os.path.join(directory, "arrays.json"),
               {name: list(np.shape(a)) for name, a in arrays.items()})
    for name, a in arrays.items():
        np.save(os.path.join(directory, f"{name}.npy"), np.asarray(a, dtype=np.float64))


def read_arrays(directory: str) -> dict[str, np.ndarray]:
    """A `write_arrays` directory; ValueError names ``arrays.json`` unless it maps
    plain file names to shapes (lists of ints >= 0), or a bad array's file."""
    path = os.path.join(directory, "arrays.json")
    meta = _json_load(path)
    if not isinstance(meta, dict) or not all(
            isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
            for shape in meta.values()):
        raise ValueError(f"{path}: not an object of shapes (lists of non-negative integers)")
    _plain(path, list(meta), "")
    return {name: _load_npy(os.path.join(directory, f"{name}.npy"), "float64", tuple(shape))
            for name, shape in meta.items()}


# ---------------------------------------------------------------------------
# posterior archives


def _latents(state_cls) -> list[tuple[str, str]]:
    """(field, param) of every latent a snapshot stores, in file order."""
    return [(f.name, "lambda" if f.name == "lam" else f.name) for f in fields(state_cls)
            if f.name not in ("lambda_mode", "group_of")]


def _write_snapshots(cdir: str, states: list) -> list[str]:
    """One float64 stack per latent array, snapshots along axis 0, named
    ``f"{param}_{view}"``: a list field gives one per view (U: per group) that
    is not None.  Returns the file names, in field order."""
    stacks: dict[str, list] = {}
    for state in states:
        for name, param in _latents(type(state)):
            value = getattr(state, name)
            entries = enumerate(value) if isinstance(value, list) else [("", value)]
            for view, arr in entries:
                if arr is not None:
                    stacks.setdefault(f"{param}_{view}".rstrip("_") + ".npy", []).append(arr)
    for name, arrays in stacks.items():
        np.save(os.path.join(cdir, name), np.stack(arrays, dtype=np.float64))
    return list(stacks)


def _stack_shapes(manifest: dict, hp: HyperParams) -> dict[str, tuple]:
    """{name: snapshot shape} of every stack `_write_snapshots` writes for this
    manifest; Z has any number "N" of rows."""
    views, k, mode = manifest["views"], hp.k, hp.lambda_mode
    rmtf = manifest["model"] == "rmtf"
    shapes = {"Z": ("N", k), "pi": (k,)}
    shapes.update((f"U_{m['u_group']}", (m["l"], k)) for m in views if m["u_group"] is not None)
    if not rmtf:
        shapes.update(H=(len(views), k), tau=(len(views),))
    elif mode != "per_slab":
        shapes["lambda"] = () if mode == "global" else (k,)
    for t, m in enumerate(views):
        d, l = m["d"], m["l"]
        shapes[f"V_{t}"] = (d, k)
        shapes[f"{'beta' if rmtf and l > 1 else 'alpha'}_{t}"] = (d, k)
        if rmtf:
            shapes.update({f"W_{t}": (l, d, k), f"H_{t}": (l, k), f"tau_{t}": (l,)})
        if rmtf and mode == "per_slab" and l > 1:
            shapes[f"lambda_{t}"] = (l,)
    return shapes


def _read_states(path: str, cdir: str, manifest: dict, hp: HyperParams, n: int) -> list:
    """The ``n`` snapshot states of chain directory ``cdir``: each stack is loaded
    once and snapshot s takes its slice ``[s]``.  ValueError names a stack that
    the manifest ``path`` does not list, or whose file is absent, unreadable, not
    float64 or not of n snapshots of its `_stack_shapes` shape."""
    stacks = {}
    for name, shape in _stack_shapes(manifest, hp).items():
        if f"{name}.npy" not in manifest["snapshot_stacks"]:
            raise ValueError(f"{path}: snapshot_stacks: no '{name}.npy'")
        stacks[name] = _load_npy(os.path.join(cdir, f"{name}.npy"), "float64", (n, *shape))
    cls = RmtfState if manifest["model"] == "rmtf" else MtfState
    group_of = {t: m["u_group"] for t, m in enumerate(manifest["views"])
                if m["u_group"] is not None}
    states = []
    for s in range(n):
        snap = {name: stack[s, ...] for name, stack in stacks.items()}
        kw = {"group_of": group_of}
        for name, param in _latents(cls):
            count = manifest["n_u_groups"] if param == "U" else len(manifest["views"])
            kw[name] = snap[param] if param in snap else [snap.get(f"{param}_{i}")
                                                          for i in range(count)]
        if cls is RmtfState:
            kw["lambda_mode"] = hp.lambda_mode
        states.append(cls(**kw))
    return states


def write_archive(directory: str, chains: list[PosteriorSamples],
                  transform: PreprocessTransform | None = None,
                  extra: dict | None = None):
    """Version-3 posterior archive: run manifest, optional transform (``transform/``,
    `write_arrays` of ``center_<t>`` and ``scale_<t>`` per view t) and, per
    ``chain_<id>/``, ``sweeps.json``, ``traces.csv`` and the stacks of
    `_write_snapshots` (``Z.npy``, ``W_1.npy``, ...), named in the manifest."""
    os.makedirs(directory, exist_ok=True)
    first = chains[0]
    state = first.states[0]
    data_views = []
    for t, name in enumerate(first.view_names):
        l, d, _ = state.slab_loadings(t)[0].shape
        data_views.append({"name": name, "d": d, "l": l, "u_group": state.group_of.get(t)})
    manifest = {
        "format": "posterior-archive",
        "version": 3,
        "model": first.model,
        "hyperparams": asdict(first.hp),
        "n_chains": len(chains),
        "chain_ids": [c.chain_id for c in chains],
        "views": data_views,
        "n_u_groups": len(state.U),
        "trace_names": first.trace_names,
        "origins": first.origins,
        "preprocessed": transform is not None,
    }
    if extra:
        manifest.update(extra)
    if transform is not None:
        write_arrays(os.path.join(directory, "transform"), {
            f"{kind}_{t}": a for kind, arrays in (("center", transform.centers),
                                                  ("scale", transform.scales))
            for t, a in enumerate(arrays)})
    for chain in chains:
        cdir = os.path.join(directory, f"chain_{chain.chain_id}")
        os.makedirs(cdir, exist_ok=True)
        manifest["snapshot_stacks"] = _write_snapshots(cdir, chain.states)
        with open(os.path.join(cdir, "sweeps.json"), "w") as fh:
            json.dump(chain.sweeps, fh)
            fh.write("\n")
        traces = np.asarray(chain.traces, dtype=np.float64)
        _write_table(os.path.join(cdir, "traces.csv"), ["sweep"] + chain.trace_names,
                     [np.arange(1, len(traces) + 1), *traces.T])
    _json_dump(os.path.join(directory, "run_manifest.json"), manifest)


def read_archive(directory: str):
    """Returns (chains, transform or None, manifest dict) of a `write_archive`
    directory.  A manifest of another format or version, or that lacks a key the
    reader uses (also in a view entry), or whose ``hyperparams`` are not
    ``HyperParams`` fields, ``chain_ids`` not a list of ints, ``trace_names`` not a
    list of strings or ``snapshot_stacks`` not a list of plain file names raises
    ValueError, as does a bad stack (`_read_states`) or transform array (`_load_npy`
    of the view's (d, l)), or a ``traces.csv`` whose ``sweep`` column is not 1, 2,
    ... in file order.  A preprocessed archive without ``transform/`` raises
    FileNotFoundError: its predictions would stay standardized."""
    path = os.path.join(directory, "run_manifest.json")
    manifest = _manifest(path, "posterior-archive", 3)
    _require(path, manifest, ("model", "hyperparams", "chain_ids", "views", "n_u_groups",
                              "trace_names", "snapshot_stacks"))
    _plain(path, manifest["snapshot_stacks"], "snapshot_stacks: ")
    for t, meta in enumerate(manifest["views"]):
        _require(path, meta, ("name", "d", "l", "u_group"), f"view {t}: ")
    for key, kind, what in (("chain_ids", int, "integers"), ("trace_names", str, "strings")):
        if not isinstance(manifest[key], list) or any(type(x) is not kind for x in manifest[key]):
            raise ValueError(f"{path}: {key!r} is not a list of {what}")
    try:
        hp = HyperParams(**manifest["hyperparams"])
    except TypeError as err:
        raise ValueError(f"{path}: 'hyperparams' are not HyperParams fields ({err})") from None
    transform = None
    if manifest.get("preprocessed"):
        tdir = os.path.join(directory, "transform")
        if not os.path.isdir(tdir):
            raise FileNotFoundError(f"{tdir}: absent, so predictions would stay standardized")
        transform = PreprocessTransform(*(
            [_load_npy(os.path.join(tdir, f"{kind}_{t}.npy"), "float64", (m["d"], m["l"]))
             for t, m in enumerate(manifest["views"])] for kind in ("center", "scale")))
    chains = []
    for cid in manifest["chain_ids"]:
        cdir = os.path.join(directory, f"chain_{cid}")
        sweeps = _json_load(os.path.join(cdir, "sweeps.json"))
        states = _read_states(path, cdir, manifest, hp, len(sweeps))
        tpath = os.path.join(cdir, "traces.csv")
        sweep, *columns = _read_table(tpath, ["sweep"] + manifest["trace_names"])
        bad = np.flatnonzero(sweep != np.arange(1, sweep.size + 1).astype(StringDType()))
        if bad.size:
            raise ValueError(f"{tpath}, row {bad[0] + 1}: sweep {sweep[bad[0]]}, "
                             f"expected {bad[0] + 1}")
        traces = np.stack([c.astype(np.float64) for c in columns], axis=1)
        chains.append(PosteriorSamples(
            model=manifest["model"], states=states, sweeps=sweeps, chain_id=cid,
            trace_names=manifest["trace_names"], traces=traces, hp=hp,
            view_names=[m["name"] for m in manifest["views"]],
            origins=manifest.get("origins"),
        ))
    return chains, transform, manifest


# ---------------------------------------------------------------------------
# prediction reports


def write_prediction_report(path: str, result, truth: Collection | None = None):
    """CSV of per-target predictions plus a trailing summary comment block."""
    idx = [np.nonzero(tgt) for tgt in result.targets]
    counts = [i[0].size for i in idx]
    n_targets = sum(counts)
    predicted = np.concatenate([m[i] for m, i in zip(result.mean, idx)])
    header = ["view", "sample", "feature", "slab", "predicted", "posterior_std"]
    columns = [np.repeat(np.array(result.view_names, dtype=object), counts),
               *(np.concatenate(c) for c in zip(*idx)), predicted,
               np.concatenate([s[i] for s, i in zip(result.std, idx)])]
    footer = f"\n# n_targets,{n_targets}\n"
    if truth is not None:
        header.append("truth")
        columns.append(np.concatenate([v.values[i] for v, i in zip(truth.views, idx)]))
        if n_targets:
            # Squared by the C library's pow, as `x ** 2` on a float is, and
            # summed in row order, so that the figures match earlier reports
            # to the last bit.
            sq = ((predicted - columns[-1]).astype(object) ** 2).astype(np.float64)
            mse = np.cumsum(sq)[-1] / n_targets
            footer += f"# mse,{_FMT % mse}\n# rmse,{_FMT % np.sqrt(mse)}\n"
    _write_table(path, header, columns, footer)
    return n_targets
