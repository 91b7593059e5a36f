import numpy as np
import pytest

from ttdbeam.core import SystemConfig, zero_config
from ttdbeam.evaluation import (
    Ecdf,
    EvalReport,
    EvalScenario,
    direction_grid,
    ecdf,
    monte_carlo,
    report_csv_lines,
    runtime_bench,
    spectral_efficiency,
    summary_dict,
    upper_bound_se,
)
from ttdbeam.hdb import DictionaryCompatibilityError, make_hdb_synthesizer
from ttdbeam.solvers import constant_direction_config
from ttdbeam.splitbeam import DirectionMap


def scenario_for(cfg, dictionary, trials=20, g=3, seed=7):
    return EvalScenario(
        cfg=cfg,
        n_subbands=g,
        snr_linear=10.0,
        direction_grid_size=dictionary.direction_grid_size,
        n_trials=trials,
        master_seed=seed,
    )


class TestSpectralEfficiency:
    def test_full_gain_value(self, cfg_dict):
        # broadside zero config reaches |gain|^2 = N at direction 0
        se = spectral_efficiency(zero_config(16), DirectionMap(np.array([0.0])), 1, 10.0, cfg_dict)
        assert se == pytest.approx(np.log2(1 + 160.0), abs=1e-12)
        assert se == pytest.approx(7.3309, abs=1e-3)

    def test_zero_gain(self):
        cfg = SystemConfig(2, 4, 10e9, 1e9)
        from ttdbeam.core import ArrayConfig

        phi = ArrayConfig(np.zeros(2), np.array([0.0, np.pi]))
        se = spectral_efficiency(phi, DirectionMap(np.array([0.0])), 2, 10.0, cfg)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_snr(self, cfg_dict):
        se = spectral_efficiency(zero_config(16), DirectionMap(np.array([0.0])), 1, 1e-12, cfg_dict)
        assert se < 1e-10

    def test_upper_bound(self, cfg_dict):
        assert upper_bound_se(cfg_dict, 10.0) == pytest.approx(np.log2(161.0))


class TestDirectionGrid:
    def test_endpoints_exact(self):
        g = direction_grid(499)
        assert g[0] == -1.0 and g[-1] == 1.0
        assert g.size == 499

    def test_formula(self):
        g = direction_grid(5)
        np.testing.assert_allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])


class TestMonteCarlo:
    def test_deterministic_same_seed(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict)
        synth = make_hdb_synthesizer(small_dict)
        r1 = monte_carlo(scen, synth, workers=1)
        r2 = monte_carlo(scen, synth, workers=1)
        np.testing.assert_array_equal(r1.se_per_subcarrier, r2.se_per_subcarrier)

    def test_worker_count_invariant(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict)
        synth = make_hdb_synthesizer(small_dict)
        r1 = monte_carlo(scen, synth, workers=1)
        r2 = monte_carlo(scen, synth, workers=2)
        lines1 = list(report_csv_lines(r1, scen))
        lines2 = list(report_csv_lines(r2, scen))
        assert lines1 == lines2

    def test_single_user_near_bound(self, small_dict, cfg_dict):
        # one subband is exact closed-form steering: near the bound everywhere
        scen = scenario_for(cfg_dict, small_dict, trials=5, g=1)
        report = monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=1)
        ub = report.upper_bound
        close = report.se_per_subcarrier >= ub - 0.2
        assert close.mean() >= 0.90

    def test_se_within_bound(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict)
        report = monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=2)
        assert np.all(report.se_per_subcarrier <= report.upper_bound + 1e-9)
        assert np.all(report.se_per_subcarrier >= 0.0)

    def test_failures_recorded_not_fatal(self, small_dict, cfg_dict):
        calls = {"n": 0}

        def flaky(dmap, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("injected")
            return constant_direction_config(float(dmap.directions[0]), cfg)

        scen = scenario_for(cfg_dict, small_dict, trials=4, g=1)
        report = monte_carlo(scen, flaky, workers=1)
        assert report.n_trials == 3
        assert len(report.failures) == 1
        assert report.failures[0][0] == 1
        assert "injected" in report.failures[0][1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_programming_errors_propagate(self, small_dict, cfg_dict, workers):
        def broken(dmap, cfg):
            raise TypeError("injected")

        scen = scenario_for(cfg_dict, small_dict, trials=4, g=1)
        with pytest.raises(TypeError, match="injected"):
            monte_carlo(scen, broken, workers=workers)

    def test_incompatible_dictionary_propagates(self, small_dict):
        other = SystemConfig(16, 120, 27e9, 3e9)
        scen = scenario_for(other, small_dict, trials=2)
        with pytest.raises(DictionaryCompatibilityError):
            monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=1)

    def test_report_names_synthesizer(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict, trials=3)
        report = monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=1)
        assert report.synthesizer == "hdb"


class TestAggregates:
    def test_ase_matches_scalar_loop(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict, trials=6)
        report = monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=1)
        se = report.se_per_subcarrier
        block = cfg_dict.n_subcarriers // 3
        for b in range(3):
            acc, count = 0.0, 0
            for t in range(se.shape[0]):
                for m in range(b * block, (b + 1) * block):
                    acc += se[t, m]
                    count += 1
            assert report.ase_per_subband[b] == pytest.approx(acc / count, rel=1e-12)

    def test_constant_matrix_mean(self, cfg_dict):
        report = EvalReport(
            se_per_subcarrier=np.full((4, 120), 3.5),
            trial_directions=np.zeros((4, 3)),
            upper_bound=7.0,
            synthesizer="x",
            master_seed=0,
        )
        np.testing.assert_allclose(report.ase_per_subband, 3.5)
        assert report.ase_per_subband.shape == (3,)
        np.testing.assert_allclose(report.ase_per_subcarrier, 3.5)
        assert report.ase_per_subcarrier.shape == (120,)

    @pytest.mark.parametrize(
        "se_shape, dirs_shape",
        [((4, 120), (3, 3)), ((4, 120), (4, 7)), ((4, 120), (4, 0)), ((480,), (4, 3))],
        ids=["trial_count", "indivisible", "no_subbands", "flat_se"],
    )
    def test_inconsistent_shapes_rejected(self, se_shape, dirs_shape):
        with pytest.raises(ValueError):
            EvalReport(np.zeros(se_shape), np.zeros(dirs_shape), upper_bound=7.0, synthesizer="x", master_seed=0)


class TestEcdf:
    def test_quantile_extremes(self):
        e = Ecdf(np.sort(np.array([1.0, 4.0, 2.0, 3.0])))
        assert e.quantile(0.0) == 1.0
        assert e.quantile(1.0) == 4.0

    def test_step_function(self):
        e = Ecdf(np.full(10, 2.0))
        for q in (0.0, 0.3, 1.0):
            assert e.quantile(q) == 2.0

    def test_fraction_below_matches_count(self, rng):
        vals = np.sort(rng.normal(size=200))
        e = Ecdf(vals)
        assert e.fraction_below(0.1) == np.mean(vals < 0.1)

    def test_quantile_definition(self):
        e = Ecdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert e.quantile(0.5) == 2.0
        assert e.quantile(0.51) == 3.0

    def test_report_ecdf(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict, trials=3)
        report = monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=1)
        dist = ecdf(report)
        assert dist.values.size == 3 * cfg_dict.n_subcarriers
        assert np.all(np.diff(dist.values) >= 0)
        np.testing.assert_array_equal(dist.values, np.sort(report.se_per_subcarrier, axis=None))

    def test_empty_report_rejected(self):
        empty = EvalReport(np.zeros((0, 120)), np.zeros((0, 3)), upper_bound=7.0, synthesizer="x", master_seed=0)
        with pytest.raises(ValueError, match="empty report"):
            ecdf(empty)


class TestBenchAndOutputs:
    def test_user_count_scaling_band(self, small_dict, cfg_dict):
        # synthesis work grows linearly with the subband count, so eight
        # users should cost no more than ~4x three users
        synth = make_hdb_synthesizer(small_dict)
        means = {}
        for g in (3, 8):
            scen = scenario_for(cfg_dict, small_dict, trials=1, g=g)
            means[g] = runtime_bench(scen, {"hdb": synth}, {"hdb": 1500}, warmup=50)["hdb"]
        assert means[8] / means[3] <= 4.0

    def test_repeat_timing_stability(self, small_dict, cfg_dict):
        synth = make_hdb_synthesizer(small_dict)
        scen = scenario_for(cfg_dict, small_dict, trials=1)
        a = runtime_bench(scen, {"hdb": synth}, {"hdb": 1500}, warmup=50)["hdb"]
        b = runtime_bench(scen, {"hdb": synth}, {"hdb": 1500}, warmup=50)["hdb"]
        assert abs(a - b) <= 0.5 * max(a, b)

    def test_runtime_bench_orders(self, small_dict, cfg_dict):
        from ttdbeam.solvers import SolverParams, default_max_delay, make_jpta_synthesizer

        scen = scenario_for(cfg_dict, small_dict, trials=1)
        params = SolverParams(max_delay=default_max_delay(cfg_dict), n_iterations=2, delay_grid_size=8192)
        means = runtime_bench(
            scen,
            {"hdb": make_hdb_synthesizer(small_dict), "jpta": make_jpta_synthesizer(params)},
            {"hdb": 50, "jpta": 3},
            warmup=1,
        )
        assert means["hdb"] > 0.0 and means["jpta"] > 0.0
        assert means["hdb"] < means["jpta"]

    def test_csv_shape(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict, trials=2)
        report = monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=1)
        lines = list(report_csv_lines(report, scen))
        assert lines[0] == "trial,m,subband,direction,se_bps_hz"
        assert len(lines) == 1 + 2 * cfg_dict.n_subcarriers
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1" and first[2] == "1"

    @pytest.mark.parametrize("g", [3, 8])
    def test_csv_bytes_match_row_by_row_formatter(self, cfg_dict, rng, g):
        # the plain per-row formatter the CSV format was defined by
        def oracle(report, scenario):
            yield "trial,m,subband,direction,se_bps_hz"
            m_count = scenario.cfg.n_subcarriers
            block = m_count // scenario.n_subbands
            for t in range(report.n_trials):
                dirs = [repr(float(x)) for x in report.trial_directions[t]]
                row = report.se_per_subcarrier[t]
                for m in range(1, m_count + 1):
                    band = (m - 1) // block + 1
                    yield f"{t + 1},{m},{band},{dirs[band - 1]},{float(row[m - 1])!r}"

        trials = 11
        dirs = rng.uniform(-1.0, 1.0, size=(trials, g))
        dirs[0, 0], dirs[1, -1], dirs[2, 1] = -0.0, 1.0, 1e-300
        se = rng.exponential(4.0, size=(trials, cfg_dict.n_subcarriers))
        se[0, :3] = (0.0, 5e-324, 1e22)
        report = EvalReport(se, dirs, upper_bound=7.0, synthesizer="hdb", master_seed=3)
        scen = EvalScenario(cfg_dict, g, 10.0, 41, trials, 3)
        new = "\n".join(report_csv_lines(report, scen)).encode("ascii")
        assert new == "\n".join(oracle(report, scen)).encode("ascii")
        assert ",-0.0," in new.decode("ascii").splitlines()[1]

    def test_summary_contents(self, small_dict, cfg_dict):
        scen = scenario_for(cfg_dict, small_dict, trials=2)
        report = monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=1)
        doc = summary_dict(report, scen)
        assert set(doc["ecdf_quantiles_pct"]) == {"1", "5", "10", "50", "90"}
        assert doc["upper_bound"] == pytest.approx(np.log2(161.0))
        assert len(doc["ase_per_subband"]) == 3
        assert len(doc["ecdf_curve"]) == 101
        assert doc["config"]["n"] == 16
        assert doc["rng"] == "pcg64-seedsequence(master_seed, trial)"


class TestScenarioValidation:
    def test_divisibility(self, cfg_dict):
        with pytest.raises(ValueError):
            EvalScenario(cfg=cfg_dict, n_subbands=7, snr_linear=10.0, direction_grid_size=41, n_trials=5, master_seed=0)

    @pytest.mark.parametrize("g", [0, -1])
    def test_at_least_one_subband(self, cfg_dict, g):
        with pytest.raises(ValueError, match="at least one subband"):
            EvalScenario(cfg=cfg_dict, n_subbands=g, snr_linear=10.0, direction_grid_size=41, n_trials=5, master_seed=0)

    def test_positive_snr(self, cfg_dict):
        with pytest.raises(ValueError):
            EvalScenario(cfg=cfg_dict, n_subbands=3, snr_linear=0.0, direction_grid_size=41, n_trials=5, master_seed=0)
