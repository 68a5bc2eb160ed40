"""On-disk formats: collections, posterior archives, prediction reports.

Every file is a JSON manifest, a ``.npy`` array that a manifest names (a view's
values or mask, `write_collection`; an archive stack's snapshots, `write_archive`)
or a CSV table: transforms, traces, truth arrays and reports, in one dialect
(`_write_table`, `_read_table`):

- a header row names the columns;
- each row holds one value (or one value per value column), after its
  0-based integer indices;
- floats are written as ``%.17g``, 17 significant digits, so a round trip is
  bit exact (nan, inf, -inf and -0 included);
- rows follow the ``csv`` module's defaults: CRLF line ends, and quotes only
  around a field that holds a comma, a quote or a line break (of all fields,
  only view names in prediction reports can);
- rows may come in any order.

A read header other than the one its writer writes raises ValueError naming
the file and both headers, and a read index outside the shape its manifest
records raises ValueError naming the file and the data row.  Collections and
archives are of version 2; the CSV tables of version 1 are no longer read.
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
    "write_collection", "read_collection", "write_transform", "read_transform",
    "write_archive", "read_archive", "write_array", "read_array", "write_arrays",
    "read_arrays", "write_prediction_report",
]

_FMT = "%.17g"
_COMMA = np.array(",", dtype=StringDType())
# the header of a transform (an array file's: `_array_header`)
_TRANSFORM_HEADER = ["view", "feature", "slab", "center", "scale"]


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


def _read_table(path: str, expected) -> tuple[list[str], list[np.ndarray]]:
    """The header and the columns of one table, each column a numpy string
    array in file row order, converted in bulk by the caller (`_indices`,
    ``astype(np.float64)``).  The header must be ``expected``, the one its
    writer writes.  Rows split at every comma: no table that is read back
    holds a quoted field."""
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
    return header, columns + [rows]


def _indices(path: str, header, columns, bounds) -> tuple[np.ndarray, ...]:
    """Index columns as int64 arrays, each in [0, bound); a bound is a number
    or one per row."""
    out = []
    for name, column, bound in zip(header, columns, bounds):
        idx = column.astype(np.int64)
        bad = np.flatnonzero((idx < 0) | (idx >= bound))
        if bad.size:
            r = bad[0]
            raise ValueError(f"{path}, row {r + 1}: {name} {idx[r]} is outside "
                             f"[0, {np.broadcast_to(bound, idx.shape)[r]})")
        out.append(idx)
    return tuple(out)


def _grid(shape) -> list[np.ndarray]:
    """Index columns of every entry of an array of this shape, in C order."""
    return [g.ravel() for g in np.indices(shape)]


# ---------------------------------------------------------------------------
# collections


def _manifest(path: str, kind: str) -> dict:
    """The manifest in ``path``; ValueError naming it unless it is an object of
    format ``kind`` and version 2 whose ``views`` are a list of objects."""
    m = _json_load(path)
    version = m.get("version") if isinstance(m, dict) and m.get("format") == kind else None
    if version == 1:
        raise ValueError(f"{path}: a {kind.replace('-', ' ')} of version 1, which is no "
                         "longer read; re-simulate or re-fit to write version 2")
    if version != 2:
        raise ValueError(f"{path}: not a {kind.replace('-', ' ')} of version 2")
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
    manifest = _manifest(path, "tensor-collection")
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
# preprocessing transforms


def write_transform(path: str, transform: PreprocessTransform):
    grids = [_grid(c.shape) for c in transform.centers]
    _write_table(path, _TRANSFORM_HEADER, [
        np.repeat(np.arange(len(grids)), [c.size for c in transform.centers]),
        *(np.concatenate(g) for g in zip(*grids)),
        np.concatenate([c.ravel() for c in transform.centers]),
        np.concatenate([s.ravel() for s in transform.scales]),
    ])


def read_transform(path: str, shapes: list[tuple[int, int]]) -> PreprocessTransform:
    header, columns = _read_table(path, _TRANSFORM_HEADER)
    (view,) = _indices(path, header, columns, [len(shapes)])
    d, l = _indices(path, header[1:], columns[1:], np.array(shapes).T[:, view])
    center, scale = (c.astype(np.float64) for c in columns[3:])
    centers = [np.zeros(sh) for sh in shapes]
    scales = [np.ones(sh) for sh in shapes]
    for t in range(len(shapes)):
        rows = view == t
        centers[t][d[rows], l[rows]] = center[rows]
        scales[t][d[rows], l[rows]] = scale[rows]
    return PreprocessTransform(tuple(centers), tuple(scales))


# ---------------------------------------------------------------------------
# generic named arrays (truth archives, report tables)


def _array_header(ndim: int) -> list[str]:
    return [f"i{j}" for j in range(ndim)] + ["value"]


def write_array(path: str, arr: np.ndarray):
    arr = np.asarray(arr)
    _write_table(path, _array_header(arr.ndim),
                 [*_grid(arr.shape), arr.astype(np.float64).ravel()])


def read_array(path: str, shape) -> np.ndarray:
    """One array file of the given shape (``arrays.json`` records it)."""
    header, (*index, value) = _read_table(path, _array_header(len(shape)))
    idx = _indices(path, header, index, shape)
    out = np.zeros(shape)
    # flat positions, which also serve a 0-d array
    np.put(out, np.ravel_multi_index(idx, out.shape), value.astype(np.float64))
    return out


def write_arrays(directory: str, arrays: dict[str, np.ndarray]):
    os.makedirs(directory, exist_ok=True)
    _json_dump(os.path.join(directory, "arrays.json"),
               {name: list(np.asarray(a).shape) for name, a in arrays.items()})
    for name, a in arrays.items():
        write_array(os.path.join(directory, f"{name}.csv"), a)


def read_arrays(directory: str) -> dict[str, np.ndarray]:
    meta = _json_load(os.path.join(directory, "arrays.json"))
    return {name: read_array(os.path.join(directory, f"{name}.csv"), shape)
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
    """Version-2 posterior archive: run manifest, optional transform and, per
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
        "version": 2,
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
        write_transform(os.path.join(directory, "transform.csv"), transform)
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
    ValueError, as does a bad stack (`_read_states`).  A preprocessed archive
    without ``transform.csv`` raises FileNotFoundError: its predictions would stay
    standardized."""
    path = os.path.join(directory, "run_manifest.json")
    manifest = _manifest(path, "posterior-archive")
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
        shapes = [(m["d"], m["l"]) for m in manifest["views"]]
        transform = read_transform(os.path.join(directory, "transform.csv"), shapes)
    chains = []
    for cid in manifest["chain_ids"]:
        cdir = os.path.join(directory, f"chain_{cid}")
        sweeps = _json_load(os.path.join(cdir, "sweeps.json"))
        states = _read_states(path, cdir, manifest, hp, len(sweeps))
        _, (_, *columns) = _read_table(os.path.join(cdir, "traces.csv"),
                                       ["sweep"] + manifest["trace_names"])
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
