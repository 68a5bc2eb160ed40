import numpy as np
import pytest
from scipy import stats

from mtfact.diag import (
    JointDistResult,
    buggy_transitions,
    geweke_z,
    joint_distribution_test,
    spectral_variance,
    summarize_run,
    toy_collection,
    toy_grouped,
    toy_masks,
    transition_test,
)
from mtfact.dist import RngStream
from mtfact.mtf import HyperParams, run_chain

from conftest import make_collection


class TestGeweke:
    def test_null_rate(self):
        gen = np.random.default_rng(0)
        zs = np.array([geweke_z(gen.standard_normal(10_000)) for _ in range(1000)])
        assert np.mean(np.abs(zs) < 3.0) >= 0.99

    def test_null_is_standard_normal(self):
        gen = np.random.default_rng(1)
        zs = np.array([geweke_z(gen.standard_normal(2_000)) for _ in range(1000)])
        assert stats.kstest(zs, "norm").pvalue > 0.01

    def test_level_shift_detected(self):
        gen = np.random.default_rng(2)
        trace = gen.standard_normal(2_000)
        trace[1_000:] += 5.0
        assert abs(geweke_z(trace)) > 5.0

    def test_constant_trace_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            geweke_z(np.ones(500))

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            geweke_z(np.zeros(99))

    def test_frac_validation(self):
        with pytest.raises(ValueError):
            geweke_z(np.random.default_rng(0).standard_normal(500),
                     first_frac=0.6, last_frac=0.6)

    def test_autocorrelated_null_covered(self):
        # AR(1) traces must not blow up the false-alarm rate
        gen = np.random.default_rng(3)
        hits = 0
        for _ in range(200):
            eps = gen.standard_normal(5_000)
            trace = np.empty(5_000)
            trace[0] = eps[0]
            for i in range(1, 5_000):
                trace[i] = 0.7 * trace[i - 1] + eps[i]
            hits += abs(geweke_z(trace)) > 3.0
        assert hits <= 10

    def test_spectral_variance_iid(self):
        gen = np.random.default_rng(4)
        vals = [spectral_variance(gen.standard_normal(4_000)) for _ in range(200)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.05)


def _harness_hp(**kw):
    base = dict(k=2, a_pi=1.0, b_pi=1.0, a_alpha=2.0, b_alpha=2.0,
                a_tau=2.0, b_tau=1.0, a_beta=2.0, b_beta=2.0,
                a_lambda=2.0, b_lambda=2.0,
                burn_in=0, n_samples=1, thin=1, n_chains=1)
    base.update(kw)
    return HyperParams(**base)


class TestJointDistributionHarness:
    def test_requires_fixed_noise_prior(self):
        with pytest.raises(ValueError, match="b_tau"):
            joint_distribution_test("mtf", toy_collection((4, 3, 2)), _harness_hp(b_tau=None),
                                    100, RngStream(0))

    def test_battery_and_smoke(self):
        res = joint_distribution_test("mtf", toy_collection((4, 3, 2)), _harness_hp(), 2_000,
                                      RngStream(1))
        assert isinstance(res, JointDistResult)
        for name in ("z_mean", "z_sq", "v_mean", "v_sq", "u_mean", "u_sq",
                     "pi_mean", "pi_sq", "tau_mean", "tau_sq", "x_mean", "x_sq"):
            assert name in res.stat_names
        assert np.isfinite(res.z_scores).all()

    def test_all_matrix_configuration(self):
        # l=1 exercises the multi-view matrix (no U) path
        res = joint_distribution_test("mtf", toy_collection((4, 3, 1)), _harness_hp(k=1),
                                      2_000, RngStream(2))
        assert "u_mean" not in res.stat_names
        assert np.isfinite(res.z_scores).all()

    def test_rmtf_battery(self):
        res = joint_distribution_test("rmtf", toy_collection((4, 3, 2)), _harness_hp(), 1_000,
                                      RngStream(3))
        for name in ("w_mean", "w_sq", "lam_mean", "lam_sq"):
            assert name in res.stat_names

    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["mtf", "rmtf"])
    def test_masked_smoke(self, model):
        # masked entries with per-row patterns and an all-masked row run the
        # stacked Z- and U-step conditionals
        sizes = (4, 3, 2)
        res = joint_distribution_test(model, toy_collection(sizes, toy_masks(sizes)),
                                      _harness_hp(), 15_000, RngStream(31))
        assert np.max(np.abs(res.z_scores)) < 5.0

    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["mtf", "rmtf"])
    def test_grouped_smoke(self, model):
        # two tensors sharing one third-mode group run the grouped U-step
        res = joint_distribution_test(model, toy_grouped((4, 3, 2)), _harness_hp(), 15_000,
                                      RngStream(31))
        assert np.max(np.abs(res.z_scores)) < 5.0

    @pytest.mark.slow
    @pytest.mark.parametrize("model", ["mtf", "rmtf"])
    def test_masked_grouped_smoke(self, model):
        # masks on two tensors sharing one third-mode group: the masked U-step
        # sums over member views, and the masked strict Gram weights M by u u^T
        sizes = (4, 3, 2)
        toy = toy_grouped(sizes, toy_masks(sizes, n_tensors=2))
        res = joint_distribution_test(model, toy, _harness_hp(), 15_000, RngStream(31))
        assert np.max(np.abs(res.z_scores)) < 5.0

    def test_fixture_registry(self):
        fixtures = buggy_transitions()
        assert len(fixtures) == 3
        assert {m for m, _ in fixtures.values()} == {"mtf", "rmtf"}


def _transition_toys(sizes=(4, 3, 2)):
    return {"observed": toy_collection(sizes),
            "masked": toy_collection(sizes, toy_masks(sizes)),
            "grouped": toy_grouped(sizes),
            "masked_grouped": toy_grouped(sizes, toy_masks(sizes, n_tensors=2))}


class TestTransitionTest:
    def test_statistics(self):
        res = transition_test("mtf", _transition_toys()["observed"], _harness_hp(), 200,
                              RngStream(40))
        assert {"z_mean", "v_sq", "tau_mean", "r_mean", "r_sq"} <= set(res.stat_names)
        assert "x_mean" not in res.stat_names     # the data do not move
        assert res.n_iter == 200 and np.isfinite(res.z_scores).all()

    @pytest.mark.parametrize("toy", list(_transition_toys()))
    @pytest.mark.parametrize("model, mode", [("mtf", "global"), ("rmtf", "global"),
                                             ("rmtf", "per_component"), ("rmtf", "per_slab")])
    def test_invariant(self, model, mode, toy):
        # one sweep from exact prior draws leaves the joint law unchanged; the
        # relaxed kernel draws its slab columns per component
        res = transition_test(model, _transition_toys()[toy], _harness_hp(lambda_mode=mode),
                              2_000, RngStream(41))
        assert np.max(np.abs(res.z_scores)) < 5.0

    @pytest.mark.parametrize("name", list(buggy_transitions()))
    def test_detects_fixture(self, name):
        model, transition = buggy_transitions()[name]
        res = transition_test(model, _transition_toys()["observed"], _harness_hp(), 2_000,
                              RngStream(43), transition=transition)
        assert not res.passed


class TestSummarizeRun:
    def test_converged_run_unflagged(self):
        # model-generated data, long trace: no convergence flags at this seed
        from mtfact.simgen import SimSpec, gen_cp
        spec = SimSpec(scenario="cp", n=60, d1=8, d2=8, l=5,
                       k_shared=1, k_matrix=1, k_tensor=1, seed=1)
        c, _ = gen_cp(spec, RngStream(50))
        hp = HyperParams(k=4, a_alpha=2.0, b_alpha=2.0, b_tau=0.5,
                         burn_in=400, n_samples=100, thin=5, n_chains=1)
        samples = run_chain(c, hp, RngStream(51))
        summary = summarize_run(samples)
        assert summary.converged
        assert summary.effective_cardinality == 4 - summary.structure.n_empty

    def test_underburned_run_flagged(self):
        c = make_collection(np.random.default_rng(6), n=25)
        hp = HyperParams(k=2, a_alpha=2, b_alpha=2, b_tau=0.5,
                         burn_in=0, n_samples=10, thin=1, n_chains=1)
        samples = run_chain(c, hp, RngStream(7))
        summary = summarize_run(samples)
        assert not summary.converged

    def test_effective_cardinality_counting(self):
        c = make_collection(np.random.default_rng(7), n=10)
        hp = HyperParams(k=10, a_alpha=2, b_alpha=2, b_tau=0.5,
                         burn_in=0, n_samples=2, thin=1, n_chains=1)
        samples = run_chain(c, hp, RngStream(8))
        h = np.zeros((2, 10))
        h[:, :4] = 1.0
        for st in samples.states:
            st.H = h.copy()
        summary = summarize_run(samples)
        assert summary.structure.n_empty == 6
        assert summary.effective_cardinality == 4

    def test_lambda_summary_for_relaxed(self):
        from mtfact.rmtf import rmtf_run_chain
        c = make_collection(np.random.default_rng(8), n=15)
        hp = HyperParams(k=2, a_alpha=2, b_alpha=2, b_tau=0.5,
                         burn_in=2, n_samples=3, thin=1, n_chains=1)
        samples = rmtf_run_chain(c, hp, RngStream(9))
        summary = summarize_run(samples)
        assert summary.lambda_mean is not None and summary.lambda_mean > 0
