import csv
import json
import os
import re
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from mtfact import io as mio
from mtfact.core import Collection, MaskedTensor3, Tensor3, center_and_normalize
from mtfact.dist import RngStream
from mtfact.fitting import fit_model
from mtfact.mtf import HyperParams, run_chain
from mtfact.predict import PredictionResult, PredictionTask, two_stage_predict
from mtfact.rmtf import RmtfState, rmtf_run_chain

from conftest import make_collection, swap_index_columns


class TestCollectionRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        c = make_collection(rng, masked=True)
        mio.write_collection(tmp_path / "c", c)
        back = mio.read_collection(tmp_path / "c")
        assert back.names == c.names
        for a, b in zip(back.views, c.views):
            np.testing.assert_array_equal(a.observed, b.observed)
            assert np.array_equal(a.values[a.observed], b.values[b.observed])

    def test_groups_preserved(self, tmp_path, rng):
        views = (
            MaskedTensor3.fully_observed(rng.standard_normal((5, 3, 2))),
            MaskedTensor3.fully_observed(rng.standard_normal((5, 4, 2))),
        )
        c = Collection(views, ((0, 1),), ("a", "b"))
        mio.write_collection(tmp_path / "c", c)
        back = mio.read_collection(tmp_path / "c")
        assert back.third_mode_groups == ((0, 1),)

    def test_extreme_values_roundtrip(self, tmp_path):
        vals = np.array([[[1e-308, 1.0 + 2**-52]], [[-1e200, 3.141592653589793]]])
        c = Collection((MaskedTensor3.fully_observed(vals),))
        mio.write_collection(tmp_path / "c", c)
        back = mio.read_collection(tmp_path / "c")
        assert np.array_equal(back.views[0].values, vals)


class TestTransformRoundTrip:
    def test_roundtrip(self, tmp_path, rng):
        c = make_collection(rng)
        _, tr = center_and_normalize(c)
        mio.write_transform(tmp_path / "t.csv", tr)
        shapes = [ct.shape for ct in tr.centers]
        back = mio.read_transform(tmp_path / "t.csv", shapes)
        for a, b in zip(back.centers, tr.centers):
            assert np.array_equal(a, b)
        for a, b in zip(back.scales, tr.scales):
            assert np.array_equal(a, b)


class TestArrays:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
                  "c": rng.standard_normal((2, 2, 2))}
        mio.write_arrays(tmp_path / "arr", arrays)
        back = mio.read_arrays(tmp_path / "arr")
        for k in arrays:
            assert np.array_equal(back[k], arrays[k])


def _hp(**kw):
    base = dict(k=2, a_alpha=2.0, b_alpha=2.0, b_tau=0.5,
                burn_in=3, n_samples=3, thin=2, n_chains=1)
    base.update(kw)
    return HyperParams(**base)


class TestArchiveRoundTrip:
    def test_mtf_states_and_traces(self, tmp_path, rng):
        c = make_collection(rng, n=8)
        chains = [run_chain(c, _hp(), RngStream(3, i)) for i in range(2)]
        mio.write_archive(tmp_path / "arch", chains)
        back, transform, manifest = mio.read_archive(tmp_path / "arch")
        assert transform is None
        assert manifest["model"] == "mtf"
        assert len(back) == 2
        for orig, rb in zip(chains, back):
            assert rb.sweeps == orig.sweeps
            np.testing.assert_array_equal(rb.traces, orig.traces)
            for so, sr in zip(orig.states, rb.states):
                np.testing.assert_array_equal(so.Z, sr.Z)
                np.testing.assert_array_equal(so.H, sr.H)
                np.testing.assert_array_equal(so.tau, sr.tau)
                for t in range(2):
                    np.testing.assert_array_equal(so.V[t], sr.V[t])
                    np.testing.assert_array_equal(so.alpha[t], sr.alpha[t])
                for g in range(len(so.U)):
                    np.testing.assert_array_equal(so.U[g], sr.U[g])
                assert sr.group_of == so.group_of

    def test_rmtf_states(self, tmp_path, rng):
        c = make_collection(rng, n=8)
        chains = [rmtf_run_chain(c, _hp(), RngStream(4, 0))]
        mio.write_archive(tmp_path / "arch", chains)
        back, _, manifest = mio.read_archive(tmp_path / "arch")
        assert manifest["model"] == "rmtf"
        so, sr = chains[0].states[-1], back[0].states[-1]
        np.testing.assert_array_equal(so.W[1], sr.W[1])
        np.testing.assert_array_equal(so.V[1], sr.V[1])
        np.testing.assert_array_equal(so.H[1], sr.H[1])
        np.testing.assert_array_equal(np.asarray(so.lam), np.asarray(sr.lam))
        np.testing.assert_array_equal(so.tau[1], sr.tau[1])
        assert sr.beta[0] is None and sr.alpha[1] is None
        np.testing.assert_array_equal(so.alpha[0], sr.alpha[0])
        np.testing.assert_array_equal(so.beta[1], sr.beta[1])

    def test_reloaded_archive_predicts_identically(self, tmp_path, rng):
        c = make_collection(rng, n=10)
        chains = [run_chain(c, _hp(), RngStream(5, 0))]
        mio.write_archive(tmp_path / "arch", chains)
        back, _, _ = mio.read_archive(tmp_path / "arch")
        test_vals = np.random.default_rng(0).standard_normal((4, 6, 4))
        mask = np.ones_like(test_vals, dtype=bool)
        mask[:, :, 0] = False
        test = Collection((
            MaskedTensor3.fully_observed(np.random.default_rng(1)
                                         .standard_normal((4, 5, 1))),
            MaskedTensor3(Tensor3(test_vals), mask),
        ), (), ("mat", "tens"))
        a = two_stage_predict(PredictionTask(chains, test, 5, 3), RngStream(9))
        b = two_stage_predict(PredictionTask(back, test, 5, 3), RngStream(9))
        np.testing.assert_array_equal(a.mean[1], b.mean[1])


    def test_preprocessed_archive_without_transform_raises(self, tmp_path, rng):
        chains, transform, extra = _archive("gfa", rng)
        mio.write_archive(tmp_path / "arch", chains, transform, extra=extra)
        os.remove(tmp_path / "arch" / "transform.csv")
        with pytest.raises(FileNotFoundError, match="transform.csv"):
            mio.read_archive(tmp_path / "arch")


class TestPredictionReport:
    def test_columns_and_summary(self, tmp_path, rng):
        c = make_collection(rng, n=10)
        chains = [run_chain(c, _hp(), RngStream(6, 0))]
        vals = np.random.default_rng(2).standard_normal((4, 6, 4))
        mask = np.ones_like(vals, dtype=bool)
        mask[:, 2, 1] = False
        test = Collection((
            MaskedTensor3.fully_observed(np.random.default_rng(3)
                                         .standard_normal((4, 5, 1))),
            MaskedTensor3(Tensor3(vals), mask),
        ), (), ("mat", "tens"))
        result = two_stage_predict(PredictionTask(chains, test, 4, 2), RngStream(10))
        truth = Collection((
            test.views[0],
            MaskedTensor3.fully_observed(vals),
        ), (), ("mat", "tens"))
        n = mio.write_prediction_report(tmp_path / "pred.csv", result, truth)
        text = (tmp_path / "pred.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "view,sample,feature,slab,predicted,posterior_std,truth"
        assert n == 4
        assert any(line.startswith("# rmse,") for line in lines)
        assert any(line.startswith("# n_targets,4") for line in lines)

    def test_truthless_report_has_no_truth_column(self, tmp_path, rng):
        c = make_collection(rng, n=10)
        chains = [run_chain(c, _hp(), RngStream(7, 0))]
        vals = np.random.default_rng(4).standard_normal((4, 6, 4))
        mask = np.ones_like(vals, dtype=bool)
        mask[0, 0, 0] = False
        test = Collection((
            MaskedTensor3.fully_observed(np.random.default_rng(5)
                                         .standard_normal((4, 5, 1))),
            MaskedTensor3(Tensor3(vals), mask),
        ), (), ("mat", "tens"))
        result = two_stage_predict(PredictionTask(chains, test, 4, 2), RngStream(11))
        mio.write_prediction_report(tmp_path / "pred.csv", result, None)
        lines = (tmp_path / "pred.csv").read_text().splitlines()
        assert lines[0] == "view,sample,feature,slab,predicted,posterior_std"
        assert not any(line.startswith("# rmse") for line in lines)


# ---------------------------------------------------------------------------
# The on-disk format, pinned: the writers as they were before the columnar
# table codec, one csv row per entry, kept as the reference.  Every writer
# must produce their bytes, and every reader must read their files back
# bit exactly.

def _ref_f(x):
    return "%.17g" % x


def ref_write_collection(directory, c):
    os.makedirs(directory, exist_ok=True)
    group_of = {t: g for g, members in enumerate(c.third_mode_groups) for t in members}
    manifest = {"format": "tensor-collection", "version": 1, "views": [
        {"name": c.names[t], "n": v.shape[0], "d": v.shape[1], "l": v.shape[2],
         "group": group_of.get(t)} for t, v in enumerate(c.views)]}
    mio._json_dump(os.path.join(directory, "manifest.json"), manifest)
    for t, v in enumerate(c.views):
        idx = np.nonzero(v.observed)
        with open(os.path.join(directory, f"{c.names[t]}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sample_index", "feature_index", "slab_index", "value"])
            for n, d, l, x in zip(*idx, v.values[idx]):
                w.writerow([n, d, l, _ref_f(x)])


def ref_write_transform(path, transform):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["view", "feature", "slab", "center", "scale"])
        for t, (c, s) in enumerate(zip(transform.centers, transform.scales)):
            for d in range(c.shape[0]):
                for l in range(c.shape[1]):
                    w.writerow([t, d, l, _ref_f(c[d, l]), _ref_f(s[d, l])])


def ref_write_arrays(directory, arrays):
    os.makedirs(directory, exist_ok=True)
    mio._json_dump(os.path.join(directory, "arrays.json"),
                   {name: list(np.asarray(a).shape) for name, a in arrays.items()})
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        with open(os.path.join(directory, f"{name}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"i{j}" for j in range(arr.ndim)] + ["value"])
            for idx in np.ndindex(*arr.shape):
                w.writerow(list(idx) + [_ref_f(arr[idx])])


def ref_state_entries(state):
    yield "Z", "", state.Z
    if isinstance(state, RmtfState):
        for t, w in enumerate(state.W):
            yield "W", t, w
        for t, v in enumerate(state.V):
            yield "V", t, v
        for g, u in enumerate(state.U):
            yield "U", g, u
        for t, h in enumerate(state.H):
            yield "H", t, h
        yield "pi", "", state.pi
        for t, a in enumerate(state.alpha):
            if a is not None:
                yield "alpha", t, a
        for t, b in enumerate(state.beta):
            if b is not None:
                yield "beta", t, b
        if state.lambda_mode == "per_slab":
            for t, lam in enumerate(state.lam):
                if lam is not None:
                    yield "lambda", t, lam
        else:
            yield "lambda", "", np.atleast_1d(np.asarray(state.lam))
        for t, tau in enumerate(state.tau):
            yield "tau", t, tau
    else:
        for t, v in enumerate(state.V):
            yield "V", t, v
        for g, u in enumerate(state.U):
            yield "U", g, u
        yield "H", "", state.H
        yield "pi", "", state.pi
        for t, a in enumerate(state.alpha):
            yield "alpha", t, a
        yield "tau", "", state.tau


def ref_write_snapshots(path, states):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["snapshot", "param", "view", "i0", "i1", "i2", "value"])
        for s, state in enumerate(states):
            for param, view, arr in ref_state_entries(state):
                arr = np.asarray(arr)
                if arr.ndim == 0:
                    arr = arr[None]
                for idx in np.ndindex(*arr.shape):
                    pad = list(idx) + [""] * (3 - len(idx))
                    w.writerow([s, param, view] + pad + [_ref_f(arr[idx])])


def ref_write_archive(directory, chains, transform=None, extra=None):
    os.makedirs(directory, exist_ok=True)
    first = chains[0]
    state = first.states[0]
    data_views = []
    for t, name in enumerate(first.view_names):
        if isinstance(state, RmtfState):
            l, d, _ = state.W[t].shape
        else:
            d = state.V[t].shape[0]
            l = state.u_for_view(t).shape[0] if t in state.group_of else 1
        data_views.append({"name": name, "d": d, "l": l, "u_group": state.group_of.get(t)})
    manifest = {
        "format": "posterior-archive", "version": 1, "model": first.model,
        "hyperparams": asdict(first.hp), "n_chains": len(chains),
        "chain_ids": [c.chain_id for c in chains], "views": data_views,
        "n_u_groups": len(state.U), "trace_names": first.trace_names,
        "origins": first.origins, "preprocessed": transform is not None,
    }
    if extra:
        manifest.update(extra)
    mio._json_dump(os.path.join(directory, "run_manifest.json"), manifest)
    if transform is not None:
        ref_write_transform(os.path.join(directory, "transform.csv"), transform)
    for chain in chains:
        cdir = os.path.join(directory, f"chain_{chain.chain_id}")
        os.makedirs(cdir, exist_ok=True)
        ref_write_snapshots(os.path.join(cdir, "snapshots.csv"), chain.states)
        with open(os.path.join(cdir, "sweeps.json"), "w") as fh:
            json.dump(chain.sweeps, fh)
            fh.write("\n")
        with open(os.path.join(cdir, "traces.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sweep"] + chain.trace_names)
            for i, row in enumerate(chain.traces):
                w.writerow([i + 1] + [_ref_f(x) for x in row])


def ref_write_prediction_report(path, result, truth=None):
    n_targets, se_sum = 0, 0.0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["view", "sample", "feature", "slab", "predicted", "posterior_std"]
        if truth is not None:
            header.append("truth")
        w.writerow(header)
        for t, tgt in enumerate(result.targets):
            for n, d, l in zip(*np.nonzero(tgt)):
                m, s = result.mean[t][n, d, l], result.std[t][n, d, l]
                row = [result.view_names[t], int(n), int(d), int(l), _ref_f(m), _ref_f(s)]
                if truth is not None:
                    tv = truth.views[t].values[n, d, l]
                    row.append(_ref_f(tv))
                    se_sum += (m - tv) ** 2
                w.writerow(row)
                n_targets += 1
        fh.write("\n")
        fh.write(f"# n_targets,{n_targets}\n")
        if truth is not None and n_targets:
            mse_val = se_sum / n_targets
            fh.write(f"# mse,{_ref_f(mse_val)}\n")
            fh.write(f"# rmse,{_ref_f(np.sqrt(mse_val))}\n")
    return n_targets


def _tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def _bits_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _states_equal(sa, sb):
    """Every field of two snapshot states, bit for bit (None where absent)."""
    assert type(sa) is type(sb)
    for name, va in vars(sa).items():
        vb = getattr(sb, name)
        if isinstance(va, list):
            assert len(va) == len(vb), name
            for x, y in zip(va, vb):
                assert (x is None and y is None) or _bits_equal(x, y), name
        elif isinstance(va, (dict, str)):
            assert va == vb, name
        else:
            assert _bits_equal(va, vb), name


EXTREMES = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308,
                     1.0 + 2**-52, -1e-308, 0.1])


ARCHIVES = ["mtf", "rmtf_global", "rmtf_per_component", "rmtf_per_slab", "gfa"]


def _archive(which, rng):
    """(chains, transform, extra) of a small fit: MTF, rMTF in one lambda mode,
    or gfa (preprocessed, so its archive holds a transform)."""
    c = make_collection(rng, masked=True, n=8)
    if which == "mtf":
        return [run_chain(c, _hp(), RngStream(3, i)) for i in range(2)], None, None
    if which == "gfa":
        chains, transform, _ = fit_model(c, _hp(), model="gfa", seed=5)
        return chains, transform, {"seed": 5, "requested_model": "gfa"}
    mode = which.removeprefix("rmtf_")
    return [rmtf_run_chain(c, _hp(lambda_mode=mode), RngStream(4, 0))], None, None


def _report_inputs(rng):
    """A prediction result with many targets and view names that need quoting,
    and a truth collection for it."""
    shapes = [(40, 5, 1), (40, 6, 30)]
    targets = [rng.random(sh) < 0.5 for sh in shapes]
    result = PredictionResult(
        view_names=["mat, quoted", 'ten"sor'],
        mean=[rng.standard_normal(sh) * tg for sh, tg in zip(shapes, targets)],
        std=[rng.random(sh) * tg for sh, tg in zip(shapes, targets)],
        targets=targets, n_draws=3)
    truth = Collection(tuple(MaskedTensor3.fully_observed(rng.standard_normal(sh) * 3)
                             for sh in shapes), (), tuple(result.view_names))
    return result, truth


class TestOnDiskFormatPinned:
    def test_collection_reads(self, tmp_path, rng):
        # The writer writes version 2: per view a values and a mask .npy
        # where the reference writes one CSV table, and a manifest that
        # differs in "version" and the file names.  Both read back alike.
        c = make_collection(rng, masked=True)
        ref_write_collection(tmp_path / "ref", c)
        mio.write_collection(tmp_path / "new", c)
        assert set(_tree(tmp_path / "ref")) == {"manifest.json", "mat.csv", "tens.csv"}
        assert set(_tree(tmp_path / "new")) == {"manifest.json", "mat.values.npy",
                                                "mat.observed.npy", "tens.values.npy",
                                                "tens.observed.npy"}
        ref, new = (json.loads((tmp_path / d / "manifest.json").read_text())
                    for d in ("ref", "new"))
        assert ref.pop("version") == 1 and new.pop("version") == 2
        for meta in new["views"]:
            assert meta.pop("values") == f"{meta['name']}.values.npy"
            assert meta.pop("observed") == f"{meta['name']}.observed.npy"
        assert new == ref
        _assert_collections_bit_equal(mio.read_collection(tmp_path / "new"),
                                      mio.read_collection(tmp_path / "ref"))

    def test_transform_bytes(self, tmp_path, rng):
        _, tr = center_and_normalize(make_collection(rng))
        ref_write_transform(tmp_path / "ref.csv", tr)
        mio.write_transform(tmp_path / "new.csv", tr)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_arrays_bytes_and_reads(self, tmp_path, rng):
        arrays = {"scalar": np.float64(-0.0), "vec": EXTREMES,
                  "cube": np.concatenate([EXTREMES, rng.standard_normal(15)]).reshape(2, 3, 4),
                  "ints": np.arange(6).reshape(2, 3), "flags": np.array([True, False])}
        ref_write_arrays(tmp_path / "ref", arrays)
        mio.write_arrays(tmp_path / "new", arrays)
        assert _tree(tmp_path / "new") == _tree(tmp_path / "ref")
        back = mio.read_arrays(tmp_path / "ref")
        for name, a in arrays.items():
            assert _bits_equal(back[name], a), name
            assert _bits_equal(mio.read_array(tmp_path / "ref" / f"{name}.csv"), a), name

    @pytest.mark.parametrize("which", ARCHIVES)
    def test_archive_bytes_and_reads(self, tmp_path, rng, which):
        # The writer writes version 2: its snapshots are .npy stacks, not the
        # reference's snapshots.csv, and its manifest differs in "version" and
        # "snapshot_stacks".  Every other file keeps the reference's bytes,
        # and both versions read back to the same chains.
        chains, transform, extra = _archive(which, rng)
        ref_write_archive(tmp_path / "ref", chains, transform, extra)
        mio.write_archive(tmp_path / "new", chains, transform, extra)
        ref, new = _tree(tmp_path / "ref"), _tree(tmp_path / "new")
        assert ref.keys() - new.keys() \
            == {os.path.join(f"chain_{c.chain_id}", "snapshots.csv") for c in chains}
        assert new.keys() - ref.keys() == {p for p in new if p.endswith(".npy")}
        assert all(new[p] == ref[p] for p in ref.keys() & new.keys() - {"run_manifest.json"})
        back, tr, manifest = mio.read_archive(tmp_path / "ref")
        assert manifest == json.loads((tmp_path / "ref" / "run_manifest.json").read_text())
        assert back[0].hp == chains[0].hp and back[0].origins == chains[0].origins
        for orig, rb in zip(chains, back):
            assert rb.sweeps == orig.sweeps and _bits_equal(rb.traces, orig.traces)
            assert len(rb.states) == len(orig.states)
            for so, sr in zip(orig.states, rb.states):
                _states_equal(so, sr)
        if transform is not None:
            for a, b in zip(tr.centers + tr.scales, transform.centers + transform.scales):
                assert _bits_equal(a, b)
        back2, tr2, manifest2 = mio.read_archive(tmp_path / "new")
        assert manifest2.pop("version") == 2 and manifest.pop("version") == 1
        assert manifest2.pop("snapshot_stacks") and manifest2 == manifest
        assert (tr2 is None) == (tr is None)
        if tr is not None:
            for a, b in zip(tr.centers + tr.scales, tr2.centers + tr2.scales):
                assert _bits_equal(a, b)
        for ra, rb in zip(back, back2, strict=True):
            assert rb.sweeps == ra.sweeps and _bits_equal(rb.traces, ra.traces)
            assert rb.hp == ra.hp and rb.origins == ra.origins
            assert len(rb.states) == len(ra.states)
            for sa, sb in zip(ra.states, rb.states):
                _states_equal(sa, sb)

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_prediction_report_bytes(self, tmp_path, rng, with_truth):
        result, truth = _report_inputs(rng)
        truth = truth if with_truth else None
        n_ref = ref_write_prediction_report(tmp_path / "ref.csv", result, truth)
        n_new = mio.write_prediction_report(tmp_path / "new.csv", result, truth)
        assert n_new == n_ref > 1000
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert b'"mat, quoted"' in (tmp_path / "new.csv").read_bytes()

    def test_report_mse_of_a_square_pow_rounds_apart(self, tmp_path):
        # x * x and the C library's pow(x, 2) round this square differently
        x = float.fromhex("0x1.731dc1c47773dp-2")
        assert np.float64(x) ** 2 != x * x
        result = PredictionResult(["v"], [np.full((1, 1, 1), x)], [np.ones((1, 1, 1))],
                                  [np.ones((1, 1, 1), dtype=bool)], 1)
        truth = Collection((MaskedTensor3.fully_observed(np.zeros((1, 1, 1))),), (), ("v",))
        ref_write_prediction_report(tmp_path / "ref.csv", result, truth)
        mio.write_prediction_report(tmp_path / "new.csv", result, truth)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _assert_collections_bit_equal(a, b):
    """Names, groups, masks and every value (unobserved ones included), bit for bit."""
    assert a.names == b.names and a.third_mode_groups == b.third_mode_groups
    for va, vb in zip(a.views, b.views, strict=True):
        np.testing.assert_array_equal(va.observed, vb.observed)
        assert _bits_equal(va.values, vb.values)


def _shuffle_rows(path, seed):
    with open(path, newline="") as fh:
        header, *rows = fh.read().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(rows))
    with open(path, "w", newline="") as fh:
        fh.write(header + "".join(rows[i] for i in order))


class TestRowsInAnyOrder:
    def test_collection(self, tmp_path, rng):
        c = make_collection(rng, masked=True)
        ref_write_collection(tmp_path / "c", c)
        for name in c.names:
            _shuffle_rows(tmp_path / "c" / f"{name}.csv", 1)
        back = mio.read_collection(tmp_path / "c")
        for a, b in zip(back.views, c.views):
            np.testing.assert_array_equal(a.observed, b.observed)
            assert _bits_equal(a.values[a.observed], b.values[b.observed])

    @pytest.mark.parametrize("which", ["mtf", "rmtf_per_slab"])
    def test_snapshots(self, tmp_path, rng, which):
        chains, transform, extra = _archive(which, rng)
        ref_write_archive(tmp_path, chains, transform, extra)
        for c in chains:
            _shuffle_rows(tmp_path / f"chain_{c.chain_id}" / "snapshots.csv", 2)
        back, _, _ = mio.read_archive(tmp_path)
        for orig, rb in zip(chains, back):
            for so, sr in zip(orig.states, rb.states):
                _states_equal(so, sr)


class TestBadIndices:
    def _collection_with_row(self, tmp_path, row):
        c = Collection((MaskedTensor3.fully_observed(np.arange(12.0).reshape(3, 2, 2)),),
                       (), ("x",))
        ref_write_collection(tmp_path, c)
        with open(tmp_path / "x.csv", "a", newline="") as fh:
            fh.write(row + "\r\n")
        return tmp_path

    @pytest.mark.parametrize("row, field", [("-1,0,0,5.0", "sample_index -1"),
                                            ("3,0,0,5.0", "sample_index 3"),
                                            ("0,2,0,5.0", "feature_index 2"),
                                            ("0,0,-2,5.0", "slab_index -2")])
    def test_out_of_range_names_file_and_row(self, tmp_path, row, field):
        d = self._collection_with_row(tmp_path, row)
        with pytest.raises(ValueError, match=rf"x\.csv, row 13: {field} is outside"):
            mio.read_collection(d)

    def test_negative_snapshot_index(self, tmp_path, rng):
        c = make_collection(rng, n=8)
        ref_write_archive(tmp_path / "a", [run_chain(c, _hp(), RngStream(3, 0))])
        path = tmp_path / "a" / "chain_0" / "snapshots.csv"
        path.write_bytes(path.read_bytes().replace(b"\r\n0,Z,,0,0,", b"\r\n0,Z,,-1,0,", 1))
        with pytest.raises(ValueError, match="i0 -1 is outside"):
            mio.read_archive(tmp_path / "a")

    @pytest.mark.parametrize("row", ["0,0,5.0", "0,0,0,5.0,1"])
    def test_ragged_row(self, tmp_path, row):
        d = self._collection_with_row(tmp_path, row)
        with pytest.raises(ValueError, match=r"x\.csv, row 13: expected 4 fields"):
            mio.read_collection(d)


class TestHeaders:
    """A table whose header is not the one its writer writes is refused."""

    def _view_file(self, tmp_path):
        # N = D = 3, so a file with the first two columns swapped holds only
        # in-range indices and would read back transposed
        values = np.random.default_rng(0).standard_normal((3, 3, 2))
        ref_write_collection(tmp_path, Collection((MaskedTensor3.fully_observed(values),),
                                                  (), ("x",)))
        return tmp_path / "x.csv"

    def test_empty_view_file(self, tmp_path):
        self._view_file(tmp_path).write_bytes(b"")
        with pytest.raises(ValueError, match=r"x\.csv: expected the header sample_index,"
                                             r"feature_index,slab_index,value, found none"):
            mio.read_collection(tmp_path)

    def test_swapped_index_columns(self, tmp_path):
        path = self._view_file(tmp_path)
        swap_index_columns(path)
        with pytest.raises(ValueError, match=r"x\.csv: .* found feature_index,sample_index,"):
            mio.read_collection(tmp_path)

    def test_array_file(self, tmp_path, rng):
        mio.write_arrays(tmp_path, {"a": rng.standard_normal((2, 3))})
        swap_index_columns(tmp_path / "a.csv")
        for read, arg in ((mio.read_arrays, tmp_path), (mio.read_array, tmp_path / "a.csv")):
            with pytest.raises(ValueError, match=r"a\.csv: expected the header i0,i1,value, "
                                                 r"found i1,i0,value"):
                read(arg)


# ---------------------------------------------------------------------------
# archive versions


V1_FIXTURES = os.path.join(os.path.dirname(__file__), "data", "archive_v1")


def ref_read_table(path):
    """The data rows of a CSV table, one csv row at a time."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class TestArchiveVersions:
    @pytest.mark.parametrize("which", ["mtf", "rmtf_per_slab"])
    def test_version1_fixture_reads_bit_exactly(self, which):
        # tests/data/archive_v1 was written by the version-1 writer: a toy MTF
        # fit of two chains and an rMTF fit with per-slab lambda
        root = os.path.join(V1_FIXTURES, which)
        chains, _, manifest = mio.read_archive(root)
        assert manifest["version"] == 1 and manifest["model"] == which.split("_")[0]
        assert [c.chain_id for c in chains] == manifest["chain_ids"]
        for chain in chains:
            cdir = os.path.join(root, f"chain_{chain.chain_id}")
            want = {(int(s), p, v, tuple(int(i) for i in idx if i)): float(x).hex()
                    for s, p, v, *idx, x in ref_read_table(os.path.join(cdir, "snapshots.csv"))}
            got = {(s, p, str(v), idx): float(a[idx]).hex()
                   for s, state in enumerate(chain.states)
                   for p, v, arr in ref_state_entries(state)
                   for a in [np.atleast_1d(arr)] for idx in np.ndindex(a.shape)}
            assert got == want
            rows = ref_read_table(os.path.join(cdir, "traces.csv"))
            assert [float(x).hex() for r in rows for x in r[1:]] \
                == [float(x).hex() for x in np.ravel(chain.traces)]
            with open(os.path.join(cdir, "sweeps.json")) as fh:
                assert chain.sweeps == json.load(fh) and len(chain.sweeps) == len(chain.states)

    @pytest.mark.parametrize("key, value", [("format", "tensor-collection"), ("version", 3),
                                            ("version", None)])
    def test_unknown_format_or_version_is_refused(self, tmp_path, rng, key, value):
        chains, _, _ = _archive("mtf", rng)
        mio.write_archive(tmp_path, chains)
        path = tmp_path / "run_manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"run_manifest\.json: not a posterior archive "
                                             r"of version 1 or 2"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("case", ["missing", "float32", "snapshot_added", "snapshot_dropped"])
    def test_bad_stack_names_its_file(self, tmp_path, rng, case):
        chains, _, _ = _archive("rmtf_per_slab", rng)
        mio.write_archive(tmp_path, chains)
        path = tmp_path / "chain_0" / "W_1.npy"
        stack = np.load(path)
        if case == "missing":
            os.remove(path)
        elif case == "float32":
            np.save(path, stack.astype(np.float32))
        else:
            np.save(path, np.concatenate([stack, stack[:1]]) if case == "snapshot_added"
                    else stack[1:])
        found = {"missing": "none", "float32": "float32"}.get(case, "float64")
        with pytest.raises(ValueError, match=rf"chain_0/W_1\.npy: expected a float64 stack "
                                             rf"of {len(chains[0].states)} snapshots, "
                                             rf"found {found}"):
            mio.read_archive(tmp_path)

    @staticmethod
    def _edited_manifest(tmp_path, rng, version, edit):
        """An MTF archive of ``version`` in tmp_path (the committed fixture for
        version 1) whose manifest ``edit`` has changed in place."""
        if version == 1:
            shutil.copytree(os.path.join(V1_FIXTURES, "mtf"), tmp_path, dirs_exist_ok=True)
        else:
            mio.write_archive(tmp_path, _archive("mtf", rng)[0])
        path = tmp_path / "run_manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("version, key", [
        (v, key) for v in (1, 2)
        for key in ("model", "hyperparams", "chain_ids", "views", "n_u_groups", "trace_names",
                    *["snapshot_stacks"] * (v == 2))])
    def test_manifest_without_key_names_it(self, tmp_path, rng, version, key):
        self._edited_manifest(tmp_path, rng, version, lambda m: m.pop(key))
        with pytest.raises(ValueError, match=rf"run_manifest\.json: no '{key}'"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_manifest_hyperparams_not_fields_refused(self, tmp_path, rng, version):
        self._edited_manifest(tmp_path, rng, version,
                              lambda m: m["hyperparams"].update(n_sweeps=10))
        with pytest.raises(ValueError, match=r"run_manifest\.json: 'hyperparams' are not "
                                             r"HyperParams fields .*'n_sweeps'"):
            mio.read_archive(tmp_path)


# ---------------------------------------------------------------------------
# collection versions


COLLECTION_V1 = os.path.join(os.path.dirname(__file__), "data", "collection_v1")


class TestCollectionVersions:
    def test_version1_fixture_reads_bit_exactly(self):
        # tests/data/collection_v1 was written by the version-1 writer: two
        # tensor views in one third-mode group, with masked entries and
        # observed -0, subnormals, the largest float and 1 + 2**-52
        c = mio.read_collection(COLLECTION_V1)
        assert c.names == ("a", "b") and c.third_mode_groups == ((0, 1),)
        for name, v in zip(c.names, c.views):
            want = {tuple(int(i) for i in idx): float(x).hex()
                    for *idx, x in ref_read_table(os.path.join(COLLECTION_V1, f"{name}.csv"))}
            got = {idx: float(v.values[idx]).hex() for idx in zip(*np.nonzero(v.observed))}
            assert got == want
            assert not v.observed.all()
            assert _bits_equal(v.values[~v.observed], np.zeros(np.count_nonzero(~v.observed)))
        assert float(c.views[0].values[0, 0, 0]).hex() == "-0x0.0p+0"

    def test_version2_round_trip_is_bit_exact(self, tmp_path):
        c = mio.read_collection(COLLECTION_V1)
        mio.write_collection(tmp_path, c)
        assert json.loads((tmp_path / "manifest.json").read_text())["version"] == 2
        _assert_collections_bit_equal(mio.read_collection(tmp_path), c)

    def test_views_named_a_and_a_observed_do_not_collide(self, tmp_path, rng):
        masks = [rng.random((3, 2, 2)) > 0.3 for _ in range(2)]
        views = tuple(MaskedTensor3(Tensor3(np.where(m, rng.standard_normal(m.shape), 0.0)), m)
                      for m in masks)
        c = Collection(views, (), ("a", "a.observed"))
        mio.write_collection(tmp_path, c)
        assert len(os.listdir(tmp_path)) == 1 + 4
        _assert_collections_bit_equal(mio.read_collection(tmp_path), c)

    def test_version2_unobserved_values_read_as_zero(self, tmp_path):
        # a hand-made file may hold any placeholder, nan included, where masked
        values = np.array([[[1.5, np.nan]], [[np.inf, -0.0]]])
        observed = np.array([[[True, False]], [[False, True]]])
        mio.write_collection(tmp_path, Collection(
            (MaskedTensor3(Tensor3(np.zeros((2, 1, 2))), observed),), (), ("x",)))
        np.save(tmp_path / "x.values.npy", values)
        back = mio.read_collection(tmp_path).views[0]
        assert _bits_equal(back.values, np.array([[[1.5, 0.0]], [[0.0, -0.0]]]))

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_observed_non_finite_value_is_refused(self, tmp_path, version, value):
        # a collection holds finite values only (Tensor3): a missing entry is masked
        shutil.copytree(COLLECTION_V1, tmp_path, dirs_exist_ok=True)
        if version == 1:
            path = tmp_path / "b.csv"
            path.write_bytes(path.read_bytes().replace(b"0,0,0,-0", b"0,0,0," + value.encode()))
        else:
            mio.write_collection(tmp_path, mio.read_collection(COLLECTION_V1))
            values = np.load(tmp_path / "b.values.npy")
            values[0, 0, 0] = float(value)
            np.save(tmp_path / "b.values.npy", values)
        with pytest.raises(ValueError, match="tensor entries must be finite"):
            mio.read_collection(tmp_path)

    @pytest.mark.parametrize("array", ["values", "observed"])
    @pytest.mark.parametrize("case", ["missing", "dtype", "shape"])
    def test_bad_array_names_its_file(self, tmp_path, array, case):
        mio.write_collection(tmp_path, mio.read_collection(COLLECTION_V1))
        path = tmp_path / f"b.{array}.npy"
        arr = np.load(path)
        if case == "missing":
            os.remove(path)
        elif case == "dtype":
            np.save(path, np.ones(arr.shape, np.float32 if array == "values" else np.uint8))
        else:
            np.save(path, arr[:, :, :1])
        want = "float64" if array == "values" else "bool"
        found = {"missing": "none", "dtype": "float32" if array == "values" else "uint8",
                 "shape": rf"{want} \(4, 2, 1\)"}[case]
        with pytest.raises(ValueError, match=rf"b\.{array}\.npy: expected {want} "
                                             rf"\(4, 2, 2\), found {found}"):
            mio.read_collection(tmp_path)

    @staticmethod
    def _edited_manifest(tmp_path, version, edit):
        """The fixture collection, as written by the version-``version``
        writer, in tmp_path with its manifest changed in place by ``edit``."""
        if version == 1:
            shutil.copytree(COLLECTION_V1, tmp_path, dirs_exist_ok=True)
        else:
            mio.write_collection(tmp_path, mio.read_collection(COLLECTION_V1))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("key, value", [("format", "nonsense"), ("format", None),
                                            ("version", 9), ("version", None)])
    def test_unknown_format_or_version_is_refused(self, tmp_path, key, value):
        self._edited_manifest(tmp_path, 2, lambda m: m.update({key: value}))
        with pytest.raises(ValueError, match=r"manifest\.json: not a tensor collection "
                                             r"of version 1 or 2"):
            mio.read_collection(tmp_path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_manifest_without_views_names_it(self, tmp_path, version):
        self._edited_manifest(tmp_path, version, lambda m: m.pop("views"))
        with pytest.raises(ValueError, match=r"manifest\.json: no 'views'"):
            mio.read_collection(tmp_path)

    @pytest.mark.parametrize("version, key", [
        (v, key) for v in (1, 2)
        for key in ("name", "n", "d", "l", *["values", "observed"] * (v == 2))])
    def test_view_without_key_names_it(self, tmp_path, version, key):
        self._edited_manifest(tmp_path, version, lambda m: m["views"][1].pop(key))
        with pytest.raises(ValueError, match=rf"manifest\.json: view 1: no '{key}'"):
            mio.read_collection(tmp_path)

    @pytest.mark.parametrize("version, key", [(1, "name"), (2, "name"), (2, "values"),
                                              (2, "observed")])
    @pytest.mark.parametrize("name", ["../x", "sub/x", "/tmp/x", "..", ".", "", 3])
    def test_file_name_outside_the_directory_is_refused(self, tmp_path, version, key, name):
        # a view named ../x would make the version-1 reader open ../x.csv
        self._edited_manifest(tmp_path, version, lambda m: m["views"][0].update({key: name}))
        with pytest.raises(ValueError, match=rf"manifest\.json: view 0: {re.escape(repr(name))} "
                                             r"is not a plain file name"):
            mio.read_collection(tmp_path)
