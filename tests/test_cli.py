import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from mtfact import cli
from mtfact import io as mio
from mtfact.cli import main
from mtfact.core import Collection
from mtfact.predict import match_components

from conftest import swap_index_columns


def run(*argv):
    return main([str(a) for a in argv])


def test_cold_import_loads_no_scipy_stats():
    # scipy.stats alone took most of the package's import time
    code = ("import sys, mtfact, mtfact.cli; "
            "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mio.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


SIM_SMALL = ["--n", "24", "--d1", "6", "--d2", "7", "--l", "4",
             "--k-shared", "1", "--k-matrix", "1", "--k-tensor", "2"]
FIT_SMALL = ["--k", "3", "--chains", "1", "--burnin", "10", "--samples", "4",
             "--thin", "2"]


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        assert run("simulate", "--scenario", "cp", "--seed", "7", *SIM_SMALL,
                   "--out", tmp_path / "a") == 0
        assert run("simulate", "--scenario", "cp", "--seed", "7", *SIM_SMALL,
                   "--out", tmp_path / "b") == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a == b

    def test_invalid_rho_exit_2(self, tmp_path, capsys):
        assert run("simulate", "--scenario", "continuum", "--rho", "1.2",
                   "--out", tmp_path / "x") == 2

    def test_default_cp_dims(self, tmp_path):
        assert run("simulate", "--scenario", "cp", "--seed", "1",
                   "--out", tmp_path / "full") == 0
        manifest = json.loads((tmp_path / "full" / "train" / "manifest.json").read_text())
        dims = [(v["n"], v["d"], v["l"]) for v in manifest["views"]]
        assert dims == [(300, 50, 1), (300, 50, 30)]

    def test_reps_layout(self, tmp_path):
        assert run("simulate", "--scenario", "cp", "--seed", "3", *SIM_SMALL,
                   "--reps", "2", "--out", tmp_path / "batch") == 0
        assert (tmp_path / "batch" / "rep_000" / "train" / "manifest.json").exists()
        assert (tmp_path / "batch" / "rep_001" / "train" / "manifest.json").exists()

    def test_zero_reps_exit_2(self, tmp_path, capsys):
        # it used to exit 0 and write nothing
        assert run("simulate", "--scenario", "cp", *SIM_SMALL, "--reps", "0",
                   "--out", tmp_path / "x") == 2
        assert "--reps must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


@pytest.fixture
def small_sim(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--scenario", "cp", "--seed", "5", *SIM_SMALL,
               "--out", out) == 0
    return out


class TestFit:
    def test_smoke_under_budget(self, small_sim, tmp_path):
        t0 = time.time()
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "2",
                   small_sim, tmp_path / "arch") == 0
        assert time.time() - t0 < 10.0
        assert (tmp_path / "arch" / "run_manifest.json").exists()
        assert (tmp_path / "arch" / "summary.txt").exists()

    def test_seed_determinism_bytes(self, small_sim, tmp_path):
        for name in ("a", "b"):
            assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "9",
                       small_sim, tmp_path / name) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_gfa_archive_has_no_u(self, small_sim, tmp_path):
        assert run("fit", "--model", "gfa", *FIT_SMALL, "--seed", "3",
                   small_sim, tmp_path / "g") == 0
        manifest = json.loads((tmp_path / "g" / "run_manifest.json").read_text())
        assert manifest["n_u_groups"] == 0
        assert manifest["requested_model"] == "gfa"
        assert len(manifest["views"]) == 1 + 4  # matrix + unfolded slabs
        stacks = os.listdir(tmp_path / "g" / "chain_0")
        assert "Z.npy" in stacks and not any(f.startswith("U") for f in stacks)
        assert not any(f.startswith("U") for f in manifest["snapshot_stacks"])

    def test_gfa_fit_line_matches_report(self, small_sim, tmp_path, capsys):
        # both count per source view, not per unfolded slab
        assert run("fit", "--model", "gfa", *FIT_SMALL, "--seed", "3",
                   small_sim, tmp_path / "g") == 0
        fit_line = capsys.readouterr().out
        assert run("report", tmp_path / "g") == 0
        sh, *specific, emp = capsys.readouterr().out.splitlines()[2].split(",")[2:]
        assert len(specific) == 2
        assert f"(shared={sh} specific=[{', '.join(specific)}] empty={emp})" in fit_line

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(format="nonsense", version=9),
         "manifest.json: not a tensor collection of version 2"),
        (lambda m: m.update(version=1), "manifest.json: a tensor collection of version 1, "
                                        "which is no longer read; re-simulate or re-fit"),
        (lambda m: m["views"][0].pop("n"), "manifest.json: view 0: no 'n'"),
        (lambda m: m["views"][1].update(values="../x.npy"),
         "manifest.json: view 1: '../x.npy' is not a plain file name"),
        (lambda m: m.update(views={"matrix": {}}),
         "manifest.json: 'views' is not a list of objects")])
    def test_bad_collection_manifest_exit_2(self, small_sim, tmp_path, capsys, edit, message):
        path = small_sim / "train" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        assert run("fit", *FIT_SMALL, small_sim, tmp_path / "a") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_collection_manifest_not_an_object_exit_2(self, small_sim, tmp_path, capsys):
        (small_sim / "train" / "manifest.json").write_text("[]")
        assert run("fit", *FIT_SMALL, small_sim, tmp_path / "a") == 2
        assert "manifest.json: not a tensor collection of version 2" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("value", ["four", "0", "-3"])
    def test_malformed_jobs_variable_exit_2(self, small_sim, tmp_path, capsys, monkeypatch,
                                            value):
        # a non-integer or a count below 1 is an error, not one job
        monkeypatch.setenv("MTFACT_JOBS", value)
        assert run("fit", "--model", "mtf", *FIT_SMALL, small_sim, tmp_path / "a") == 2
        assert f"MTFACT_JOBS must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("flag", ["--reps", "--jobs"])
    def test_count_below_one_exit_2(self, small_sim, tmp_path, capsys, flag):
        # --reps 0 used to fit once, and --jobs 0 to run
        assert run("fit", *FIT_SMALL, flag, "0", small_sim, tmp_path / "a") == 2
        assert f"{flag} must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_more_reps_than_rep_directories_exit_2(self, tmp_path, capsys):
        # it used to fit the two there are
        sim = tmp_path / "sim"
        assert run("simulate", "--scenario", "cp", "--seed", "3", *SIM_SMALL, "--reps", "2",
                   "--out", sim) == 0
        assert run("fit", *FIT_SMALL, "--reps", "5", sim, tmp_path / "a") == 2
        assert f"--reps 5, but {sim} holds 2 rep_* directories" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_rmtf_smoke(self, small_sim, tmp_path):
        assert run("fit", "--model", "rmtf", *FIT_SMALL, "--seed", "4",
                   small_sim, tmp_path / "r") == 0
        manifest = json.loads((tmp_path / "r" / "run_manifest.json").read_text())
        assert manifest["model"] == "rmtf"

    def test_bad_flag_values_exit_2(self, small_sim, tmp_path):
        # argparse rejects invalid choices with the usage exit code
        for flags in (["--model", "bogus"], ["--preset", "nope"]):
            with pytest.raises(SystemExit) as e:
                run("fit", *flags, *FIT_SMALL, small_sim, tmp_path / "x")
            assert e.value.code == 2

    def test_config_file_override(self, small_sim, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "burnin": 4, "samples": 2,
                                   "thin": 1, "chains": 1}))
        assert run("--config", cfg, "fit", "--model", "mtf", "--seed", "1",
                   small_sim, tmp_path / "c") == 0
        manifest = json.loads((tmp_path / "c" / "run_manifest.json").read_text())
        assert manifest["hyperparams"]["k"] == 2
        assert manifest["hyperparams"]["burn_in"] == 4

    def test_strong_reg_preset(self, small_sim, tmp_path):
        assert run("fit", "--model", "mtf", "--preset", "strong-reg",
                   "--k", "3", "--chains", "1", "--burnin", "6",
                   "--samples", "2", "--thin", "1", "--seed", "1",
                   small_sim, tmp_path / "s") == 0
        hp = json.loads((tmp_path / "s" / "run_manifest.json").read_text())["hyperparams"]
        assert hp["a_pi"] == 1e-3 and hp["b_pi"] == 1e3
        assert hp["burn_in"] == 6  # explicit flag wins over the preset


class _FitCalled(Exception):
    pass


class TestOptionLayers:
    """Each fit option comes from the flag, else the config file, else the
    preset, else the library default."""

    def _hyperparams(self, monkeypatch, tmp_path, small_sim, config, *argv):
        seen = []

        def fit_model(c, hp, **kw):
            seen.append(hp)
            raise _FitCalled

        monkeypatch.setattr(cli, "fit_model", fit_model)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(_FitCalled):
            run("--config", cfg, "fit", *argv, small_sim, tmp_path / "a")
        return seen[0]

    def test_config_beats_preset(self, monkeypatch, tmp_path, small_sim):
        hp = self._hyperparams(monkeypatch, tmp_path, small_sim, {"burnin": 1200},
                               "--preset", "strong-reg")
        assert hp.burn_in == 1200 and hp.a_pi == 1e-3

    def test_flag_beats_config_and_preset(self, monkeypatch, tmp_path, small_sim):
        hp = self._hyperparams(monkeypatch, tmp_path, small_sim, {"burnin": 1200},
                               "--preset", "strong-reg", "--burnin", "9")
        assert hp.burn_in == 9

    def test_preset_beats_library_default(self, monkeypatch, tmp_path, small_sim):
        hp = self._hyperparams(monkeypatch, tmp_path, small_sim, {}, "--preset", "strong-reg")
        assert hp.burn_in == 5000

    def test_library_defaults(self, monkeypatch, tmp_path, small_sim):
        hp = self._hyperparams(monkeypatch, tmp_path, small_sim, {})
        assert (hp.k, hp.burn_in, hp.n_samples, hp.thin, hp.n_chains) == (15, 3000, 40, 10, 7)

    def test_other_commands_keys_accepted(self, monkeypatch, tmp_path, small_sim):
        # one config file serves the whole pipeline
        hp = self._hyperparams(monkeypatch, tmp_path, small_sim,
                               {"burnin": 7, "stage2_sweeps": 3, "scenario": "cp",
                                "out": "sim", "no_preprocess": True})
        assert hp.burn_in == 7

    @pytest.mark.parametrize("config", [{"k": "3"}, {"burn_in": 2}, {"model": "bogus"},
                                        {"preset": "nope"}, {"k": True},
                                        {"no_preprocess": 1}, {"stage2_sweeps": 2.5}])
    def test_bad_config_key_or_value_exits_2(self, monkeypatch, tmp_path, small_sim, capsys,
                                             config):
        monkeypatch.setattr(cli, "fit_model", lambda *a, **kw: pytest.fail("fit started"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("--config", cfg, "fit", small_sim, tmp_path / "a") == 2
        assert repr(next(iter(config))) in capsys.readouterr().err


class TestPredictCli:
    @pytest.fixture
    def continuum(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--scenario", "continuum", "--seed", "11",
                   "--n", "12", "--d1", "5", "--d2", "6", "--l", "4",
                   "--k-shared", "1", "--k-matrix", "1", "--k-tensor", "1",
                   "--n-test", "9", "--rho", "1.0", "--out", out) == 0
        arch = tmp_path / "arch"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "12",
                   out / "train", arch) == 0
        return out, arch

    def test_predict_with_truth_prints_rmse(self, continuum, tmp_path, capsys):
        sim, arch = continuum
        out = tmp_path / "pred_mtf.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test",
                   "--truth", sim / "test_full", "--seed", "1",
                   "--stage2-sweeps", "5", "--stage2-samples", "3",
                   "--out", out) == 0
        assert "rmse" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("view,sample,feature,slab,predicted,posterior_std,truth")
        assert "# rmse," in text

    def test_truthless_prediction(self, continuum, tmp_path):
        sim, arch = continuum
        out = tmp_path / "pred.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test",
                   "--seed", "1", "--stage2-sweeps", "4",
                   "--stage2-samples", "2", "--out", out) == 0
        assert "truth" not in out.read_text().splitlines()[0]

    def test_truth_with_other_sample_count_exit_2(self, continuum, tmp_path, capsys):
        sim, arch = continuum
        out = tmp_path / "pred.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test",
                   "--truth", sim / "train", "--out", out) == 2
        err = capsys.readouterr().err
        assert "--truth shape (N, D, L) (12, 5, 1)" in err and "(9, 5, 1)" in err
        assert not out.exists()

    def test_archive_of_unknown_version_exit_2(self, continuum, tmp_path, capsys):
        sim, arch = continuum
        path = arch / "run_manifest.json"
        path.write_text(path.read_text().replace('"version": 3', '"version": 4'))
        out = tmp_path / "pred.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test", "--out", out) == 2
        assert "run_manifest.json: not a posterior archive of version 3" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("manifest", ["run_manifest", "manifest"])
    def test_version_1_input_exit_2(self, continuum, tmp_path, capsys, manifest):
        sim, arch = continuum
        path = (arch if manifest == "run_manifest" else sim / "test") / f"{manifest}.json"
        path.write_text(re.sub(r'"version": \d', '"version": 1', path.read_text()))
        out = tmp_path / "pred.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test", "--out", out) == 2
        what = "posterior archive" if manifest == "run_manifest" else "tensor collection"
        assert (f"{path.name}: a {what} of version 1, which is no longer read; re-simulate "
                "or re-fit") in capsys.readouterr().err
        assert not out.exists()

    def test_archive_manifest_without_key_exit_2(self, continuum, tmp_path, capsys):
        sim, arch = continuum
        path = arch / "run_manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["snapshot_stacks"]
        path.write_text(json.dumps(manifest))
        out = tmp_path / "pred.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test", "--out", out) == 2
        assert "run_manifest.json: no 'snapshot_stacks'" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_missing_a_view_exit_2(self, continuum, tmp_path, capsys):
        sim, arch = continuum
        full = mio.read_collection(sim / "test_full")
        mio.write_collection(tmp_path / "one_view",
                             Collection(full.views[:1], (), full.names[:1]))
        out = tmp_path / "pred.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test",
                   "--truth", tmp_path / "one_view", "--out", out) == 2
        assert "--truth has 1 views, --test 2" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_archive_exit_1(self, continuum, tmp_path):
        sim, _ = continuum
        assert run("predict", "--archive", tmp_path / "nope",
                   "--test", sim / "test", "--out", tmp_path / "p.csv") == 1

    def test_preprocessed_archive_without_transform_exit_1(self, continuum, tmp_path, capsys):
        sim, arch = continuum
        shutil.rmtree(arch / "transform")
        out = tmp_path / "pred.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test",
                   "--truth", sim / "test_full", "--out", out) == 1
        assert "arch/transform: absent" in capsys.readouterr().err
        assert not out.exists()

    def test_gfa_prediction_roundtrips(self, continuum, tmp_path):
        sim, _ = continuum
        arch = tmp_path / "garch"
        assert run("fit", "--model", "gfa", *FIT_SMALL, "--seed", "13",
                   sim / "train", arch) == 0
        out = tmp_path / "pred_gfa.csv"
        assert run("predict", "--archive", arch, "--test", sim / "test",
                   "--truth", sim / "test_full", "--seed", "2",
                   "--stage2-sweeps", "4", "--stage2-samples", "2",
                   "--out", out) == 0
        assert "# rmse," in out.read_text()


class TestDiagnoseAndReport:
    def test_diagnose_runs(self, small_sim, tmp_path, capsys):
        arch = tmp_path / "arch"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "21",
                   small_sim, arch) == 0
        code = run("diagnose", "--archive", arch)
        out = capsys.readouterr().out
        assert "components:" in out
        # short smoke chains are usually flagged; both outcomes are legal
        assert code in (0, 1)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["views"][0].pop("u_group"), "run_manifest.json: view 0: no 'u_group'"),
        (lambda m: m.update(trace_names="log_joint"),
         "run_manifest.json: 'trace_names' is not a list of strings"),
        (lambda m: m.update(version=1), "run_manifest.json: a posterior archive of version 1, "
                                        "which is no longer read; re-simulate or re-fit"),
        (lambda m: m.update(version=2), "run_manifest.json: a posterior archive of version 2, "
                                        "which is no longer read; re-simulate or re-fit to "
                                        "write version 3")])
    def test_diagnose_malformed_archive_exit_2(self, small_sim, tmp_path, capsys, edit, message):
        # these used to end in a KeyError or a TypeError
        arch = tmp_path / "arch"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "21", small_sim, arch) == 0
        path = arch / "run_manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        assert run("diagnose", "--archive", arch) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["empty", "swapped"])
    def test_traces_header_mismatch_exit_2(self, small_sim, tmp_path, capsys, damage):
        # an empty traces file, or one whose first two columns are swapped,
        # is refused, not diagnosed
        arch = tmp_path / "arch"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "21", small_sim, arch) == 0
        path = arch / "chain_0" / "traces.csv"
        if damage == "empty":
            path.write_bytes(b"")
        else:
            swap_index_columns(path)
        assert run("diagnose", "--archive", arch) == 2
        assert "traces.csv: expected the header sweep,log_joint," in capsys.readouterr().err

    def test_report_single_archive(self, small_sim, tmp_path, capsys):
        arch = tmp_path / "arch"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "22",
                   small_sim, arch) == 0
        assert run("report", arch, "--truth", small_sim / "truth") == 0
        out = capsys.readouterr().out
        assert "# component structure" in out
        assert "mean_abs_corr" in out

    def test_report_reads_each_archive_once(self, small_sim, tmp_path, capsys, monkeypatch):
        archives = [tmp_path / "a1", tmp_path / "a2"]
        for seed, arch in zip((25, 26), archives):
            assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", seed, small_sim,
                       arch) == 0
        truth = mio.read_arrays(small_sim / "truth")
        h = truth["h"]
        true_loadings = truth["v_tensor"][:, (h[1] > 0) & (h[0] == 0)].T
        match = [f"{a},{np.mean(match_components(true_loadings, mio.read_archive(a)[0], 1)):.6f}"
                 for a in archives]
        capsys.readouterr()
        assert run("report", *archives) == 0
        structure = capsys.readouterr().out
        calls, read = [], mio.read_archive
        monkeypatch.setattr(mio, "read_archive", lambda path: calls.append(path) or read(path))
        assert run("report", *archives, "--truth", small_sim / "truth") == 0
        assert calls == [str(a) for a in archives]
        assert capsys.readouterr().out == structure + "\n".join(
            ["", "# component match correlations (tensor-specific truth)", "archive,mean_abs_corr",
             *match]) + "\n"

    def test_report_truth_without_tensor_specific_component(self, tmp_path, capsys):
        # the match field stays empty, as in run_structure_study.py's table
        sim, arch = tmp_path / "sim", tmp_path / "arch"
        assert run("simulate", "--scenario", "cp", "--seed", "5", *SIM_SMALL[:-1], "0",
                   "--out", sim) == 0
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "27", sim, arch) == 0
        capsys.readouterr()
        assert run("report", arch, "--truth", sim / "truth") == 0
        assert capsys.readouterr().out.endswith("archive,mean_abs_corr\n" f"{arch},\n")

    @pytest.mark.parametrize("case", ["csv", "list", "outside"])
    def test_report_bad_truth_exit_2(self, small_sim, tmp_path, capsys, case):
        # an arrays.json of [1, 2] used to end in an AttributeError (exit 1), and
        # the name ../outside_dir/secret to read a file beside the truth directory
        truth, arch = small_sim / "truth", tmp_path / "arch"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "28", small_sim, arch) == 0
        meta = json.loads((truth / "arrays.json").read_text())
        if case == "csv":  # the layout before .npy: one index-column table per array
            for name, shape in meta.items():
                values = np.load(truth / f"{name}.npy")
                rows = [",".join([f"i{j}" for j in range(len(shape))] + ["value"])]
                rows += [",".join([*map(str, i), repr(float(values[i]))])
                         for i in np.ndindex(*shape)]
                (truth / f"{name}.csv").write_text("\r\n".join(rows) + "\r\n")
                os.remove(truth / f"{name}.npy")
        else:
            os.makedirs(small_sim / "outside_dir")
            np.save(small_sim / "outside_dir" / "secret.npy", np.zeros(2))
            meta = [1, 2] if case == "list" else {**meta, "../outside_dir/secret": [2]}
            (truth / "arrays.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert run("report", arch, "--truth", truth) == 2
        assert re.search({"csv": r"truth/h\.npy: expected float64 \(2, \d+\), found none",
                          "list": r"truth/arrays\.json: not an object of shapes",
                          "outside": r"truth/arrays\.json: '\.\./outside_dir/secret' is not a "
                                     r"plain file name"}[case], capsys.readouterr().err)

    def test_report_mixed_models_rejected(self, small_sim, tmp_path):
        a1, a2 = tmp_path / "m", tmp_path / "r"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "23",
                   small_sim, a1) == 0
        assert run("fit", "--model", "rmtf", *FIT_SMALL, "--seed", "24",
                   small_sim, a2) == 0
        assert run("report", a1, a2) == 2
        assert run("report", a1, a2, "--allow-mixed") == 0

    def test_report_rmse_table(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run("simulate", "--scenario", "continuum", "--seed", "31",
                   "--n", "12", "--d1", "5", "--d2", "6", "--l", "4",
                   "--k-shared", "1", "--k-matrix", "1", "--k-tensor", "1",
                   "--n-test", "8", "--rho", "0.5", "--out", sim) == 0
        arch = tmp_path / "arch"
        assert run("fit", "--model", "mtf", *FIT_SMALL, "--seed", "32",
                   sim / "train", arch) == 0
        assert run("predict", "--archive", arch, "--test", sim / "test",
                   "--truth", sim / "test_full", "--seed", "3",
                   "--stage2-sweeps", "4", "--stage2-samples", "2",
                   "--out", sim / "pred_mtf.csv") == 0
        capsys.readouterr()
        assert run("report", arch, sim) == 0
        out = capsys.readouterr().out
        assert "# prediction error" in out
        assert "0.5,mtf," in out
