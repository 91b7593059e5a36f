import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttdbeam import evaluation
from ttdbeam.core import SystemConfig, gain_at_directions
from ttdbeam.dictionary import GeneratorDictionary, offset_grid
from ttdbeam.evaluation import (
    Ecdf,
    EvalReport,
    EvalScenario,
    direction_grid,
    ecdf,
    monte_carlo,
    report_csv_lines,
    runtime_bench,
    summary_dict,
    upper_bound_se,
)
from ttdbeam.hdb import DictionaryCompatibilityError, make_hdb_synthesizer
from ttdbeam.solvers import constant_direction_config
from ttdbeam.splitbeam import DirectionMap, expand_directions


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

    def test_trials_run_in_order_on_the_calling_thread(self, small_dict, cfg_dict):
        seen = []
        hdb = make_hdb_synthesizer(small_dict)

        def recording(dmap, cfg):
            seen.append((threading.get_ident(), float(dmap.directions[0])))
            return hdb(dmap, cfg)

        scen = scenario_for(cfg_dict, small_dict, trials=6)
        report = monte_carlo(scen, recording, workers=2)
        assert {ident for ident, _ in seen} == {threading.get_ident()}
        assert [d for _, d in seen] == report.trial_directions[:, 0].tolist()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_validated(self, small_dict, cfg_dict, workers):
        scen = scenario_for(cfg_dict, small_dict, trials=2)
        with pytest.raises(ValueError, match="worker count"):
            monte_carlo(scen, make_hdb_synthesizer(small_dict), workers=workers)

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


def _same_report(a, b):
    assert a.se_per_subcarrier.tobytes() == b.se_per_subcarrier.tobytes()
    assert a.trial_directions.tobytes() == b.trial_directions.tobytes()
    assert a.failures == b.failures


def _assert_scored_alone(report, scen, synth, trials):
    """Row i of the report is trial ``trials[i]`` run on its own through the single-config functions."""
    grid = direction_grid(scen.direction_grid_size)
    assert report.n_trials == len(trials)
    for row, t in enumerate(trials):
        rng = np.random.default_rng(np.random.SeedSequence(scen.master_seed, spawn_key=(t,)))
        dmap = DirectionMap(grid[rng.integers(0, grid.size, size=scen.n_subbands)])
        gains = gain_at_directions(synth(dmap, scen.cfg), expand_directions(dmap, scen.cfg), scen.cfg)
        se = np.log2(1.0 + (gains.real**2 + gains.imag**2) * scen.snr_linear)
        assert report.trial_directions[row].tobytes() == dmap.directions.tobytes()
        assert report.se_per_subcarrier[row].tobytes() == se.tobytes()


class TestChunks:
    """Trials are synthesized in one batch and scored in chunks; no trial's bits depend on either."""

    @pytest.mark.parametrize("g", [1, 3, 8])
    def test_bits_do_not_depend_on_the_chunk(self, small_dict, cfg_dict, monkeypatch, g):
        scen = scenario_for(cfg_dict, small_dict, trials=37, g=g)
        synth = make_hdb_synthesizer(small_dict)
        monkeypatch.setattr(evaluation, "_CHUNK_TRIALS", 1)
        one = monte_carlo(scen, synth)
        monkeypatch.setattr(evaluation, "_CHUNK_TRIALS", 64)
        whole = monte_carlo(scen, synth)
        _same_report(one, whole)
        _assert_scored_alone(whole, scen, synth, range(scen.n_trials))

    @given(
        n=st.integers(1, 5),
        g=st.sampled_from([1, 2, 3, 4, 6]),
        blocks=st.integers(1, 4),
        fc=st.floats(1e9, 100e9),
        bw_ratio=st.floats(1e-3, 1.9),
        a=st.sampled_from([2, 3, 5, 9]),
        trials=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.integers(1, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_bits_do_not_depend_on_the_chunk_property(self, n, g, blocks, fc, bw_ratio, a, trials, seed, chunk):
        cfg = SystemConfig(n, 2 * g * blocks, fc, bw_ratio * fc)
        rng = np.random.default_rng(seed)
        d = 2 * a - 1
        table = GeneratorDictionary(
            offset_grid(a), rng.normal(0.0, 3e-10, (d, n)), rng.uniform(-7.0, 7.0, (d, n)), cfg, a
        )
        scen = EvalScenario(cfg=cfg, n_subbands=g, snr_linear=10.0, direction_grid_size=a,
                            n_trials=trials, master_seed=seed)
        synth = make_hdb_synthesizer(table)
        with mock.patch.object(evaluation, "_CHUNK_TRIALS", chunk):
            chunked = monte_carlo(scen, synth)
        with mock.patch.object(evaluation, "_CHUNK_TRIALS", trials):
            whole = monte_carlo(scen, synth)
        _same_report(chunked, whole)

    def test_synthesizer_without_batch_gives_the_same_report(self, small_dict, cfg_dict):
        hdb = make_hdb_synthesizer(small_dict)

        def plain(dmap, cfg):
            return hdb(dmap, cfg)

        scen = scenario_for(cfg_dict, small_dict, trials=37, g=8)
        _same_report(monte_carlo(scen, plain), monte_carlo(scen, hdb))

    def test_failing_batch_falls_back_to_per_trial_calls(self, small_dict, cfg_dict, monkeypatch):
        monkeypatch.setattr(evaluation, "_CHUNK_TRIALS", 4)
        hdb = make_hdb_synthesizer(small_dict)
        bad = {1, 2, 4, 5, 6, 7, 13}  # gain chunks of the kept trials: 0, 3, 8, 9 | 10, 11, 12
        scen = scenario_for(cfg_dict, small_dict, trials=14)
        grid = direction_grid(scen.direction_grid_size)
        bad_rows = {evaluation._draw(scen, grid, t).tobytes() for t in bad}

        def plain(dmap, cfg):
            if dmap.directions.tobytes() in bad_rows:
                raise ValueError("injected")
            return hdb(dmap, cfg)

        calls = []

        def flaky(dmap, cfg):
            calls.append(1)
            return plain(dmap, cfg)

        def batch(directions, cfg):
            calls.append(len(directions))
            if any(row.tobytes() in bad_rows for row in directions):
                raise ValueError("injected")
            return hdb.batch(directions, cfg)

        flaky.batch = batch
        report = monte_carlo(scen, flaky)
        assert calls == [14] + [1] * 14
        assert [trial for trial, _ in report.failures] == sorted(bad)
        _assert_scored_alone(report, scen, hdb, sorted(set(range(14)) - bad))
        _same_report(report, monte_carlo(scen, plain))

    def test_every_trial_failing_is_an_error(self, small_dict, cfg_dict):
        def broken(dmap, cfg):
            raise ValueError("injected")

        broken.batch = lambda directions, cfg: broken(None, cfg)
        with pytest.raises(RuntimeError, match="every trial failed; first error: ValueError: injected"):
            monte_carlo(scenario_for(cfg_dict, small_dict, trials=3), broken)

    def test_batch_programming_error_propagates(self, small_dict, cfg_dict):
        hdb = make_hdb_synthesizer(small_dict)

        def synth(dmap, cfg):
            return hdb(dmap, cfg)

        def batch(directions, cfg):
            raise TypeError("injected")

        synth.batch = batch
        with pytest.raises(TypeError, match="injected"):
            monte_carlo(scenario_for(cfg_dict, small_dict, trials=3), synth)


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

    @pytest.mark.parametrize("q", [1.5, -0.1, np.nan])
    def test_quantile_range(self, q):
        with pytest.raises(ValueError, match="quantile must lie in"):
            Ecdf(np.array([1.0, 2.0])).quantile(q)

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
            means[g] = runtime_bench(scen, {"hdb": synth}, {"hdb": 1500})["hdb"]
        assert means[8] / means[3] <= 4.0

    def test_repeat_timing_stability(self, small_dict, cfg_dict):
        synth = make_hdb_synthesizer(small_dict)
        scen = scenario_for(cfg_dict, small_dict, trials=1)
        a = runtime_bench(scen, {"hdb": synth}, {"hdb": 1500})["hdb"]
        b = runtime_bench(scen, {"hdb": synth}, {"hdb": 1500})["hdb"]
        assert abs(a - b) <= 0.5 * max(a, b)

    def test_runtime_bench_orders(self, small_dict, cfg_dict):
        from ttdbeam.solvers import SolverParams, default_max_delay, make_jpta_synthesizer

        scen = scenario_for(cfg_dict, small_dict, trials=1)
        params = SolverParams(max_delay=default_max_delay(cfg_dict), n_iterations=2, delay_grid_size=8192)
        means = runtime_bench(
            scen,
            {"hdb": make_hdb_synthesizer(small_dict), "jpta": make_jpta_synthesizer(params)},
            {"hdb": 50, "jpta": 3},
        )
        assert means["hdb"] > 0.0 and means["jpta"] > 0.0
        assert means["hdb"] < means["jpta"]

    @pytest.mark.parametrize("calls", [0, -1])
    def test_runtime_bench_needs_a_timed_call(self, small_dict, cfg_dict, calls):
        scen = scenario_for(cfg_dict, small_dict, trials=1)
        with pytest.raises(ValueError, match="need at least one timed call for 'hdb'"):
            runtime_bench(scen, {"hdb": make_hdb_synthesizer(small_dict)}, {"hdb": calls})

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("master_seed", -1),
            ("master_seed", 2.5),
            ("master_seed", 3.0),
            ("n_trials", 4.5),
            ("direction_grid_size", 40.5),
            ("n_subbands", 1.5),
        ],
    )
    def test_counts_and_seed_are_whole_numbers(self, cfg_dict, field, value):
        args = dict(cfg=cfg_dict, n_subbands=3, snr_linear=10.0, direction_grid_size=41, n_trials=5, master_seed=0)
        EvalScenario(**args)
        with pytest.raises(ValueError, match=field):
            EvalScenario(**{**args, field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [("direction_grid_size", 1, "at least 2 points"), ("n_trials", 0, "at least one trial")],
    )
    def test_grid_and_trial_counts(self, cfg_dict, field, value, message):
        args = dict(cfg=cfg_dict, n_subbands=3, snr_linear=10.0, direction_grid_size=41, n_trials=5, master_seed=0)
        with pytest.raises(ValueError, match=message):
            EvalScenario(**{**args, field: value})

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_finite_snr(self, cfg_dict, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            EvalScenario(cfg=cfg_dict, n_subbands=3, snr_linear=bad, direction_grid_size=41, n_trials=5, master_seed=0)
