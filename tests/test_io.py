import csv
import json
import os
import re
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from mtfact import io as mio
from mtfact.core import Collection, MaskedTensor3, PreprocessTransform, Tensor3
from mtfact.dist import RngStream
from mtfact.fitting import fit_model
from mtfact.mtf import HyperParams, run_chain
from mtfact.predict import PredictionResult, PredictionTask, two_stage_predict
from mtfact.rmtf import RmtfState, rmtf_run_chain

from conftest import make_collection


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
        # through an archive, bit for bit: centers that hold nan, -0 and +-inf,
        # and positive scales from the smallest subnormal to inf
        chains, tr, extra = _archive("gfa", rng)
        tr = PreprocessTransform(tuple(np.resize(EXTREMES, c.shape) for c in tr.centers),
                                 tuple(np.resize(EXTREMES[EXTREMES > 0], s.shape)
                                       for s in tr.scales))
        mio.write_archive(tmp_path, chains, tr, extra)
        back = mio.read_archive(tmp_path)[1]
        for a, b in zip(back.centers + back.scales, tr.centers + tr.scales, strict=True):
            assert _bits_equal(a, b)


class TestArrays:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
                  "c": rng.standard_normal((2, 2, 2))}
        mio.write_arrays(tmp_path / "arr", arrays)
        back = mio.read_arrays(tmp_path / "arr")
        for k in arrays:
            assert np.array_equal(back[k], arrays[k])

    @pytest.mark.parametrize("meta", [[1, 2], "a", {"a": 2}, {"a": [-1]}, {"a": [2.0]},
                                      {"a": [True]}, {"a": ["2"]}])
    def test_not_an_object_of_shapes_is_refused(self, tmp_path, meta):
        # an arrays.json of [1, 2] used to end in an AttributeError
        mio.write_arrays(tmp_path, {"a": np.zeros(2)})
        (tmp_path / "arrays.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"arrays\.json: not an object of shapes"):
            mio.read_arrays(tmp_path)

    @pytest.mark.parametrize("name", ["../outside_dir/secret", "sub/a", "/tmp/a", "..", ".", ""])
    def test_name_outside_the_directory_is_refused(self, tmp_path, name):
        # the name ../outside_dir/secret used to read a file beside the directory
        mio.write_arrays(tmp_path / "outside_dir", {"secret": np.zeros(2)})
        mio.write_arrays(tmp_path / "arr", {"a": np.zeros(2)})
        (tmp_path / "arr" / "arrays.json").write_text(json.dumps({name: [2]}))
        with pytest.raises(ValueError, match=rf"arrays\.json: {re.escape(repr(name))} is not a "
                                             r"plain file name"):
            mio.read_arrays(tmp_path / "arr")


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
        shutil.rmtree(tmp_path / "arch" / "transform")
        with pytest.raises(FileNotFoundError, match="arch/transform: absent"):
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
# The on-disk format, pinned: reference writers, the CSV tables as they were
# before the columnar table codec, one csv row per entry.  Every writer must
# produce their bytes (an archive's snapshot stacks and its manifest's
# "snapshot_stacks" aside), and every reader must read the files back bit
# exactly.

def _ref_f(x):
    return "%.17g" % x


def ref_write_arrays(directory, arrays):
    os.makedirs(directory, exist_ok=True)
    mio._json_dump(os.path.join(directory, "arrays.json"),
                   {name: list(np.asarray(a).shape) for name, a in arrays.items()})
    for name, arr in arrays.items():
        np.save(os.path.join(directory, f"{name}.npy"), np.asarray(arr).astype(np.float64))


def ref_write_archive(directory, chains, transform=None, extra=None):
    """Every file of an archive but its snapshot stacks, and a manifest
    without "snapshot_stacks"."""
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
        "format": "posterior-archive", "version": 3, "model": first.model,
        "hyperparams": asdict(first.hp), "n_chains": len(chains),
        "chain_ids": [c.chain_id for c in chains], "views": data_views,
        "n_u_groups": len(state.U), "trace_names": first.trace_names,
        "origins": first.origins, "preprocessed": transform is not None,
    }
    if extra:
        manifest.update(extra)
    mio._json_dump(os.path.join(directory, "run_manifest.json"), manifest)
    if transform is not None:
        ref_write_arrays(os.path.join(directory, "transform"),
                         {**{f"center_{t}": c for t, c in enumerate(transform.centers)},
                          **{f"scale_{t}": s for t, s in enumerate(transform.scales)}})
    for chain in chains:
        cdir = os.path.join(directory, f"chain_{chain.chain_id}")
        os.makedirs(cdir, exist_ok=True)
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


def _grouped_collection():
    """Two tensor views, a (4, 3, 2) and b (4, 2, 2), in one third-mode group,
    with masked entries and, observed at the front of each, -0, the smallest
    subnormal, the largest float and 1 + 2**-52."""
    gen = np.random.default_rng(7)
    views = []
    for shape in ((4, 3, 2), (4, 2, 2)):
        values = gen.standard_normal(shape)
        values.flat[:4] = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 + 2**-52]
        observed = gen.random(shape) > 0.3
        observed.flat[:4] = True
        views.append(MaskedTensor3(Tensor3(np.where(observed, values, 0.0)), observed))
    return Collection(tuple(views), ((0, 1),), ("a", "b"))


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
    def test_collection_reads(self, tmp_path):
        # per view a values and a mask .npy, both named in the manifest beside
        # the view's name, shape and third-mode group; read back bit exactly
        c = _grouped_collection()
        mio.write_collection(tmp_path, c)
        assert set(_tree(tmp_path)) == {"manifest.json", "a.values.npy", "a.observed.npy",
                                        "b.values.npy", "b.observed.npy"}
        assert json.loads((tmp_path / "manifest.json").read_text()) == {
            "format": "tensor-collection", "version": 2, "views": [
                {"name": name, "n": 4, "d": d, "l": 2, "group": 0,
                 "values": f"{name}.values.npy", "observed": f"{name}.observed.npy"}
                for name, d in (("a", 3), ("b", 2))]}
        _assert_collections_bit_equal(mio.read_collection(tmp_path), c)

    def test_arrays_bytes_and_reads(self, tmp_path, rng):
        # one float64 .npy per array, named with its shape in arrays.json
        arrays = {"scalar": np.float64(-0.0), "vec": EXTREMES,
                  "cube": np.concatenate([EXTREMES, rng.standard_normal(15)]).reshape(2, 3, 4),
                  "ints": np.arange(6).reshape(2, 3), "flags": np.array([True, False])}
        ref_write_arrays(tmp_path / "ref", arrays)
        mio.write_arrays(tmp_path / "new", arrays)
        assert _tree(tmp_path / "new") == _tree(tmp_path / "ref")
        assert set(_tree(tmp_path / "new")) == {"arrays.json"} | {f"{a}.npy" for a in arrays}
        back = mio.read_arrays(tmp_path / "ref")
        for name, a in arrays.items():
            assert _bits_equal(back[name], a) and back[name].dtype == np.float64, name

    @pytest.mark.parametrize("which", ARCHIVES)
    def test_archive_bytes_and_reads(self, tmp_path, rng, which):
        # Every file keeps the reference's bytes but the .npy stacks, which
        # the reference does not write, and the manifest, whose
        # "snapshot_stacks" names them.  The archive reads back to the same
        # chains.
        chains, transform, extra = _archive(which, rng)
        ref_write_archive(tmp_path / "ref", chains, transform, extra)
        mio.write_archive(tmp_path / "new", chains, transform, extra)
        ref, new = _tree(tmp_path / "ref"), _tree(tmp_path / "new")
        stacks = {p for p in new if p.startswith("chain_") and p.endswith(".npy")}
        assert new.keys() - ref.keys() == stacks and ref.keys() <= new.keys()
        assert all(new[p] == ref[p] for p in ref.keys() - {"run_manifest.json"})
        back, tr, manifest = mio.read_archive(tmp_path / "new")
        assert manifest == json.loads(new["run_manifest.json"])
        listed = manifest.pop("snapshot_stacks")
        assert {os.path.join(f"chain_{c.chain_id}", f) for c in chains for f in listed} == stacks
        assert manifest == json.loads(ref["run_manifest.json"])
        assert back[0].hp == chains[0].hp and back[0].origins == chains[0].origins
        for orig, rb in zip(chains, back, strict=True):
            assert rb.sweeps == orig.sweeps and _bits_equal(rb.traces, orig.traces)
            assert len(rb.states) == len(orig.states)
            for so, sr in zip(orig.states, rb.states):
                _states_equal(so, sr)
        assert (tr is None) == (transform is None)
        if transform is not None:
            for a, b in zip(tr.centers + tr.scales, transform.centers + transform.scales):
                assert _bits_equal(a, b)

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


def _with_row(path, row):
    """Append one data row to a table file."""
    with open(path, "a", newline="") as fh:
        fh.write(row + "\r\n")


class TestBadIndices:
    """Rows of a chain's ``traces.csv``: one field per column, and the sweep
    index 1, 2, ... in file order."""

    @pytest.mark.parametrize("row", ["0,0,5.0", "0,0,0,5.0,1"])
    def test_ragged_row(self, tmp_path, rng, row):
        mio.write_archive(tmp_path, _archive("mtf", rng)[0])
        path = tmp_path / "chain_1" / "traces.csv"
        _with_row(path, row)
        with pytest.raises(ValueError, match=r"chain_1/traces\.csv, row 10: expected 4 fields"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("order", ["reversed", "swapped", "renumbered"])
    def test_rows_out_of_sweep_order_are_refused(self, tmp_path, rng, order):
        # reversed rows used to read back as a reversed trace
        mio.write_archive(tmp_path, _archive("mtf", rng)[0])
        path = tmp_path / "chain_1" / "traces.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        if order == "reversed":
            rows.reverse()
        elif order == "swapped":
            rows[3:5] = rows[4:2:-1]
        else:
            rows[3] = "7" + rows[3][1:]
        path.write_text(header + "".join(rows))
        want = {"reversed": "row 1: sweep 9, expected 1", "swapped": "row 4: sweep 5, expected 4",
                "renumbered": "row 4: sweep 7, expected 4"}[order]
        with pytest.raises(ValueError, match=rf"chain_1/traces\.csv, {want}"):
            mio.read_archive(tmp_path)


class TestHeaders:
    """A table whose header is not the one its writer writes is refused."""

    def test_traces_file(self, tmp_path, rng):
        # the trace names are columns in the manifest's order
        mio.write_archive(tmp_path, _archive("mtf", rng)[0])
        path = tmp_path / "chain_1" / "traces.csv"
        header, rest = path.read_text().split("\n", 1)
        names = header.split(",")
        path.write_text(",".join([names[0], names[2], names[1], *names[3:]]) + "\n" + rest)
        with pytest.raises(ValueError, match=rf"chain_1/traces\.csv: expected the header "
                                             rf"{re.escape(header.strip())}, found"):
            mio.read_archive(tmp_path)


# ---------------------------------------------------------------------------
# archives


# The format versions the readers read: collections and archives.  The tests
# of a manifest's checks are parametrized by them, so that each test id names
# the version it checks.
VERSIONS = [2]
ARCHIVE_VERSIONS = [3]


class TestArchiveVersions:
    @pytest.mark.parametrize("key, value", [("format", "tensor-collection"), ("version", 4),
                                            ("version", None)])
    def test_unknown_format_or_version_is_refused(self, tmp_path, rng, key, value):
        chains, _, _ = _archive("mtf", rng)
        mio.write_archive(tmp_path, chains)
        path = tmp_path / "run_manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"run_manifest\.json: not a posterior archive "
                                             r"of version 3"):
            mio.read_archive(tmp_path)

    def test_version_2_archive_is_refused(self, tmp_path, rng):
        # version 2 kept its transform as an index-column CSV table
        self._edited_manifest(tmp_path, rng, lambda m: m.update(version=2))
        with pytest.raises(ValueError, match=r"run_manifest\.json: a posterior archive of "
                                             r"version 2, which is no longer read; re-simulate "
                                             r"or re-fit to write version 3"):
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
        with pytest.raises(ValueError, match=rf"chain_0/W_1\.npy: expected float64 "
                                             rf"\({len(chains[0].states)}, 4, 6, 2\), "
                                             rf"found {found}"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("listed", ["all_but_Z", "none"])
    def test_stack_the_manifest_does_not_list_is_refused(self, tmp_path, rng, listed):
        # it used to read back as a list of None (Z.npy dropped), or end in
        # "max() arg is an empty sequence" (no stack listed)
        self._edited_manifest(tmp_path, rng, lambda m: m.update(snapshot_stacks=[
            f for f in m["snapshot_stacks"] if listed == "all_but_Z" and f != "Z.npy"]))
        with pytest.raises(ValueError, match=r"run_manifest\.json: snapshot_stacks: "
                                             r"no 'Z\.npy'"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("name, axis, want", [("V_1", 1, (3, 6, 2)), ("H", 2, (3, 2, 2))],
                             ids=["V_1_one_feature_short", "H_one_component_short"])
    def test_mis_shaped_stack_names_its_file(self, tmp_path, rng, name, axis, want):
        # a V_1 one feature short used to be blamed on the test data by
        # predict, and an H one component short ended in numpy's
        # "inhomogeneous shape" in diagnose and report
        mio.write_archive(tmp_path, _archive("mtf", rng)[0])
        path = tmp_path / "chain_0" / f"{name}.npy"
        np.save(path, np.delete(np.load(path), 0, axis=axis))
        with pytest.raises(ValueError, match=rf"chain_0/{name}\.npy: expected float64 "
                                             rf"{re.escape(str(want))}, found float64"):
            mio.read_archive(tmp_path)

    @staticmethod
    def _edited_manifest(tmp_path, rng, edit, version=3):
        """An MTF archive of ``version`` in tmp_path whose manifest ``edit`` has
        changed in place."""
        mio.write_archive(tmp_path, _archive("mtf", rng)[0])
        path = tmp_path / "run_manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["version"] == version
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("version, key", [
        (v, key) for v in ARCHIVE_VERSIONS
        for key in ("model", "hyperparams", "chain_ids", "views", "n_u_groups", "trace_names",
                    "snapshot_stacks")])
    def test_manifest_without_key_names_it(self, tmp_path, rng, version, key):
        self._edited_manifest(tmp_path, rng, lambda m: m.pop(key), version)
        with pytest.raises(ValueError, match=rf"run_manifest\.json: no '{key}'"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("version", ARCHIVE_VERSIONS)
    @pytest.mark.parametrize("key", ["name", "d", "l", "u_group"])
    def test_view_entry_without_key_names_it(self, tmp_path, rng, version, key):
        # it used to end in a KeyError
        self._edited_manifest(tmp_path, rng, lambda m: m["views"][1].pop(key), version)
        with pytest.raises(ValueError, match=rf"run_manifest\.json: view 1: no '{key}'"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("version", ARCHIVE_VERSIONS)
    def test_manifest_hyperparams_not_fields_refused(self, tmp_path, rng, version):
        self._edited_manifest(tmp_path, rng, lambda m: m["hyperparams"].update(n_sweeps=10),
                              version)
        with pytest.raises(ValueError, match=r"run_manifest\.json: 'hyperparams' are not "
                                             r"HyperParams fields .*'n_sweeps'"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("name", ["../../Z_outside.npy", "sub/Z.npy", "/tmp/Z.npy",
                                      "..", "", 3])
    def test_stack_outside_the_archive_is_refused(self, tmp_path, rng, name):
        # a stack named ../../Z_outside.npy would load a file beside the archive
        self._edited_manifest(tmp_path / "arch", rng,
                              lambda m: m["snapshot_stacks"].__setitem__(0, name))
        shutil.copy(tmp_path / "arch" / "chain_0" / "Z.npy", tmp_path / "Z_outside.npy")
        with pytest.raises(ValueError, match=rf"run_manifest\.json: snapshot_stacks: "
                                             rf"{re.escape(repr(name))} is not a plain file name"):
            mio.read_archive(tmp_path / "arch")

    @pytest.mark.parametrize("version", ARCHIVE_VERSIONS)
    @pytest.mark.parametrize("cid", ["0", "../x", 0.0, True, None])
    def test_chain_id_not_an_int_is_refused(self, tmp_path, rng, version, cid):
        self._edited_manifest(tmp_path, rng, lambda m: m["chain_ids"].__setitem__(0, cid),
                              version)
        with pytest.raises(ValueError, match=r"run_manifest\.json: 'chain_ids' is not a list "
                                             r"of integers"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("chain_ids", 0, r"'chain_ids' is not a list of integers"),
        ("chain_ids", "0", r"'chain_ids' is not a list of integers"),
        ("chain_ids", {"0": 0}, r"'chain_ids' is not a list of integers"),
        ("trace_names", "log_joint", r"'trace_names' is not a list of strings"),
        ("trace_names", ["log_joint", 1], r"'trace_names' is not a list of strings"),
        ("snapshot_stacks", "Z.npy", r"snapshot_stacks: not a list of file names"),
        ("snapshot_stacks", {"Z": "Z.npy"}, r"snapshot_stacks: not a list of file names")])
    def test_manifest_list_that_is_not_a_list_is_refused(self, tmp_path, rng, key, value,
                                                         message):
        self._edited_manifest(tmp_path, rng, lambda m: m.__setitem__(key, value))
        with pytest.raises(ValueError, match=rf"run_manifest\.json: {message}"):
            mio.read_archive(tmp_path)

    @pytest.mark.parametrize("case", ["truncated", "pickled"])
    def test_unreadable_stack_names_its_file(self, tmp_path, rng, case):
        mio.write_archive(tmp_path, _archive("mtf", rng)[0])
        damage_npy(tmp_path / "chain_0" / "Z.npy", case)
        with pytest.raises(ValueError, match=r"chain_0/Z\.npy: not a readable \.npy file"):
            mio.read_archive(tmp_path)


def damage_npy(path, case):
    """Cut a .npy file inside its header, or replace it by a pickled array."""
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:90])
    else:
        np.save(path, np.array([{"a": 1}], dtype=object), allow_pickle=True)


@pytest.mark.parametrize("reader, manifest", [(mio.read_collection, "manifest.json"),
                                              (mio.read_archive, "run_manifest.json")])
class TestManifestShape:
    """A manifest that is JSON but not the object its reader expects is
    refused with its path named, for a collection and for an archive."""

    @staticmethod
    def _written(tmp_path, rng, reader):
        if reader is mio.read_collection:
            mio.write_collection(tmp_path, _grouped_collection())
        else:
            mio.write_archive(tmp_path, _archive("mtf", rng)[0])

    @pytest.mark.parametrize("text", ["[]", '"manifest"', "3", "null"])
    def test_not_an_object(self, tmp_path, rng, reader, manifest, text):
        self._written(tmp_path, rng, reader)
        (tmp_path / manifest).write_text(text)
        with pytest.raises(ValueError, match=rf"{re.escape(manifest)}: not a (tensor collection "
                                             r"of version 2|posterior archive of version 3)"):
            reader(tmp_path)

    @pytest.mark.parametrize("views", [{"a": 1}, "ab", 3, [1], [[]], [None]])
    def test_views_not_a_list_of_objects(self, tmp_path, rng, reader, manifest, views):
        self._written(tmp_path, rng, reader)
        path = tmp_path / manifest
        path.write_text(json.dumps({**json.loads(path.read_text()), "views": views}))
        with pytest.raises(ValueError, match=rf"{re.escape(manifest)}: 'views' is not a list "
                                             r"of objects"):
            reader(tmp_path)

    def test_version_1_is_refused(self, tmp_path, rng, reader, manifest):
        # version 1 (CSV tables) is no longer read, whatever files it holds
        self._written(tmp_path, rng, reader)
        path = tmp_path / manifest
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": 1}))
        with pytest.raises(ValueError, match=rf"{re.escape(manifest)}: a (tensor collection"
                                             r"|posterior archive) of version 1, which is no "
                                             r"longer read; re-simulate or re-fit"):
            reader(tmp_path)


# ---------------------------------------------------------------------------
# collections


class TestCollectionVersions:
    def test_version2_round_trip_is_bit_exact(self, tmp_path):
        c = _grouped_collection()
        assert all(not v.observed.all() for v in c.views)
        mio.write_collection(tmp_path, c)
        assert json.loads((tmp_path / "manifest.json").read_text())["version"] == 2
        back = mio.read_collection(tmp_path)
        _assert_collections_bit_equal(back, c)
        assert float(back.views[0].values[0, 0, 0]).hex() == "-0x0.0p+0"

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

    @pytest.mark.parametrize("version", VERSIONS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_observed_non_finite_value_is_refused(self, tmp_path, version, value):
        # a collection holds finite values only (Tensor3): a missing entry is masked
        self._edited_manifest(tmp_path, lambda m: None, version)
        values = np.load(tmp_path / "b.values.npy")
        values[0, 0, 0] = float(value)
        np.save(tmp_path / "b.values.npy", values)
        with pytest.raises(ValueError, match="tensor entries must be finite"):
            mio.read_collection(tmp_path)

    @staticmethod
    def _written(tmp_path, rng, array):
        """(path, reader) of one array file of a directory written in tmp_path:
        view b's values or mask of `_grouped_collection`, a truth array, or a
        transform array of a gfa archive."""
        if array == "truth":
            mio.write_arrays(tmp_path, {"a": rng.standard_normal(3),
                                        "b": rng.standard_normal((4, 2, 2))})
            return tmp_path / "b.npy", mio.read_arrays
        if array == "transform":
            mio.write_archive(tmp_path, *_archive("gfa", rng))
            return tmp_path / "transform" / "scale_1.npy", mio.read_archive
        mio.write_collection(tmp_path, _grouped_collection())
        return tmp_path / f"b.{array}.npy", mio.read_collection

    @pytest.mark.parametrize("array", ["values", "observed", "truth", "transform"])
    @pytest.mark.parametrize("case", ["missing", "dtype", "shape"])
    def test_bad_array_names_its_file(self, tmp_path, rng, array, case):
        path, read = self._written(tmp_path, rng, array)
        arr = np.load(path)
        if case == "missing":
            os.remove(path)
        elif case == "dtype":
            np.save(path, np.ones(arr.shape, np.uint8 if array == "observed" else np.float32))
        else:
            np.save(path, arr[..., :-1])
        want = "bool" if array == "observed" else "float64"
        found = {"missing": "none", "dtype": "uint8" if array == "observed" else "float32",
                 "shape": re.escape(f"{want} {arr[..., :-1].shape}")}[case]
        with pytest.raises(ValueError, match=rf"{re.escape(path.name)}: expected {want} "
                                             rf"{re.escape(str(arr.shape))}, found {found}"):
            read(tmp_path)

    @pytest.mark.parametrize("array", ["values", "observed", "truth", "transform"])
    @pytest.mark.parametrize("case", ["truncated", "pickled"])
    def test_unreadable_array_names_its_file(self, tmp_path, rng, array, case):
        path, read = self._written(tmp_path, rng, array)
        damage_npy(path, case)
        with pytest.raises(ValueError, match=rf"{re.escape(path.name)}: not a readable "
                                             r"\.npy file"):
            read(tmp_path)

    @staticmethod
    def _edited_manifest(tmp_path, edit, version=2):
        """`_grouped_collection` in tmp_path, of ``version``, its manifest changed
        in place by ``edit``."""
        mio.write_collection(tmp_path, _grouped_collection())
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["version"] == version
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("key, value", [("format", "nonsense"), ("format", None),
                                            ("version", 9), ("version", None)])
    def test_unknown_format_or_version_is_refused(self, tmp_path, key, value):
        self._edited_manifest(tmp_path, lambda m: m.update({key: value}))
        with pytest.raises(ValueError, match=r"manifest\.json: not a tensor collection "
                                             r"of version 2"):
            mio.read_collection(tmp_path)

    @pytest.mark.parametrize("version", VERSIONS)
    def test_manifest_without_views_names_it(self, tmp_path, version):
        self._edited_manifest(tmp_path, lambda m: m.pop("views"), version)
        with pytest.raises(ValueError, match=r"manifest\.json: no 'views'"):
            mio.read_collection(tmp_path)

    @pytest.mark.parametrize("version, key", [
        (v, key) for v in VERSIONS for key in ("name", "n", "d", "l", "values", "observed")])
    def test_view_without_key_names_it(self, tmp_path, version, key):
        self._edited_manifest(tmp_path, lambda m: m["views"][1].pop(key), version)
        with pytest.raises(ValueError, match=rf"manifest\.json: view 1: no '{key}'"):
            mio.read_collection(tmp_path)

    @pytest.mark.parametrize("version, key", [
        (v, key) for v in VERSIONS for key in ("name", "values", "observed")])
    @pytest.mark.parametrize("name", ["../x", "sub/x", "/tmp/x", "..", ".", "", 3])
    def test_file_name_outside_the_directory_is_refused(self, tmp_path, version, key, name):
        # a values file named ../x would load a file beside the collection,
        # and a view named ../x would be written outside it by write_collection
        self._edited_manifest(tmp_path, lambda m: m["views"][0].update({key: name}), version)
        with pytest.raises(ValueError, match=rf"manifest\.json: view 0: {re.escape(repr(name))} "
                                             r"is not a plain file name"):
            mio.read_collection(tmp_path)
