import tracemalloc

import numpy as np
import pytest

from ttdbeam import solvers as solvers_module

from ttdbeam.core import (
    ArrayConfig,
    PsiGrid,
    SystemConfig,
    argmax_directions,
    beampattern_of_precoder,
    gain_at_directions,
    precoder_matrix,
    subcarrier_freqs,
    zero_config,
)
from ttdbeam.solvers import (
    SolverParams,
    _best_correlations,
    _correlation_scores,
    constant_direction_config,
    default_max_delay,
    delay_grid,
    exhaustive_oracle,
    fold_delay_periods,
    jpta_approx,
    make_jpta_synthesizer,
    objective,
)
from ttdbeam.splitbeam import DirectionMap, _steering_precoder, expand_directions, ideal_split_precoder


def params_for(cfg, size=65536, iters=30):
    return SolverParams(max_delay=default_max_delay(cfg), n_iterations=iters, delay_grid_size=size)


class TestConstantDirection:
    def test_zero_gives_zero_config(self, cfg_small):
        phi = constant_direction_config(0.0, cfg_small)
        np.testing.assert_array_equal(phi.delays, np.zeros(16))
        np.testing.assert_array_equal(phi.phases, np.zeros(16))

    def test_last_antenna_delay(self):
        cfg = SystemConfig(16, 1200, 28e9, 3e9)
        phi = constant_direction_config(0.4, cfg)
        assert phi.delays[15] == pytest.approx(-0.4 * 15 / (2 * 28e9), rel=1e-12)
        assert phi.delays[15] == pytest.approx(-1.0714e-10, rel=1e-4)

    def test_steers_all_subcarriers(self, cfg_small):
        grid = PsiGrid.uniform(801)
        phi = constant_direction_config(-0.35, cfg_small)
        p = beampattern_of_precoder(precoder_matrix(phi, cfg_small), cfg_small, grid)
        assert np.max(np.abs(argmax_directions(p) + 0.35)) <= grid.step + 1e-12

    def test_domain(self, cfg_small):
        constant_direction_config(-1.0, cfg_small)
        constant_direction_config(1.0, cfg_small)
        with pytest.raises(ValueError):
            constant_direction_config(1.1, cfg_small)


class TestObjective:
    def test_self_is_zero(self, cfg_small, rng):
        phi = ArrayConfig(rng.uniform(0, 1e-9, 16), rng.uniform(-np.pi, np.pi, 16))
        assert objective(phi, precoder_matrix(phi, cfg_small), cfg_small) == 0.0

    def test_antipodal_target(self, cfg_small, rng):
        phi = ArrayConfig(rng.uniform(0, 1e-9, 16), rng.uniform(-np.pi, np.pi, 16))
        v = -precoder_matrix(phi, cfg_small)
        assert objective(phi, v, cfg_small) == pytest.approx(4.0 * cfg_small.n_subcarriers, rel=1e-12)

    def test_matches_scalar_loop(self, cfg_small, rng):
        phi = ArrayConfig(rng.uniform(0, 1e-9, 16), rng.uniform(-np.pi, np.pi, 16))
        v = rng.normal(size=(16, 48)) + 1j * rng.normal(size=(16, 48))
        ref = 0.0
        vp = precoder_matrix(phi, cfg_small)
        for n in range(16):
            for m in range(48):
                ref += abs(vp[n, m] - v[n, m]) ** 2
        assert objective(phi, v, cfg_small) == pytest.approx(ref, rel=1e-10)

    def test_shape_mismatch(self, cfg_small):
        with pytest.raises(ValueError):
            objective(zero_config(16), np.ones((4, 4)), cfg_small)

    @pytest.mark.parametrize(
        "fit",
        [lambda v, cfg: jpta_approx(v, params_for(cfg), cfg),
         lambda v, cfg: exhaustive_oracle(v, cfg, np.zeros(4), np.zeros(4))],
        ids=["jpta_approx", "exhaustive_oracle"],
    )
    def test_fits_check_the_target_shape(self, cfg_small, fit):
        with pytest.raises(ValueError, match=r"target shape \(16, 47\) does not match \(16, 48\)"):
            fit(np.ones((16, 47)), cfg_small)


class TestJptaApprox:
    def test_planted_target_recovered(self, cfg_tiny, rng):
        params = params_for(cfg_tiny, size=64)
        grid = delay_grid(params.max_delay, 64)
        planted = ArrayConfig(grid[rng.integers(0, 64, 4)], rng.uniform(-np.pi, np.pi, 4))
        phi = jpta_approx(precoder_matrix(planted, cfg_tiny), params, cfg_tiny)
        assert objective(phi, precoder_matrix(planted, cfg_tiny), cfg_tiny) < 1e-9

    def test_split_target_fidelity(self, cfg_dict):
        params = params_for(cfg_dict)
        dmap = DirectionMap(np.array([0.0, 0.2]))
        phi = jpta_approx(ideal_split_precoder(dmap, cfg_dict), params, cfg_dict)
        grid = PsiGrid.uniform(1001)
        p = beampattern_of_precoder(precoder_matrix(phi, cfg_dict), cfg_dict, grid)
        peaks = argmax_directions(p)
        half = cfg_dict.n_subcarriers // 2
        # check at the subband-center subcarriers
        assert abs(peaks[half // 2] - 0.0) <= 2 * grid.step + 1e-12
        assert abs(peaks[half + half // 2] - 0.2) <= 2 * grid.step + 1e-12

    def test_iterations_have_no_effect(self, cfg_tiny, rng):
        v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        configs = [
            jpta_approx(v, SolverParams(max_delay=default_max_delay(cfg_tiny), n_iterations=iters,
                                        delay_grid_size=128), cfg_tiny)
            for iters in (1, 3)
        ]
        assert configs[0].delays.tobytes() == configs[1].delays.tobytes()
        assert configs[0].phases.tobytes() == configs[1].phases.tobytes()

    def test_deterministic(self, cfg_tiny, rng):
        v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        params = params_for(cfg_tiny, size=256)
        a = jpta_approx(v, params, cfg_tiny)
        b = jpta_approx(v, params, cfg_tiny)
        np.testing.assert_array_equal(a.delays, b.delays)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_fft_path_matches_direct(self, cfg_tiny, rng):
        # max_delay == M/BW triggers the FFT evaluation; a slightly different
        # max_delay forces the direct path; both must agree on the fine scale.
        # Off a power of two (3000) the unnormalized FFT may move the last bit.
        v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        max_delay = default_max_delay(cfg_tiny)
        for size in (512, 3000):
            grid = delay_grid(max_delay, size)
            s_fft = _correlation_scores(v, cfg_tiny, grid, max_delay)
            s_direct = _correlation_scores(v, cfg_tiny, grid, max_delay * (1 + 1e-9))
            assert s_fft.shape == s_direct.shape == (4, size)
            assert np.max(np.abs(s_fft - s_direct)) < 1e-6


def _strided_scores(v, cfg, size):
    """The line search's baseband correlation on the grid-major (size, N) layout: c[k, n]."""
    folded = np.zeros((size, cfg.n_antennas), dtype=np.complex128)
    np.add.at(folded, np.arange(1, cfg.n_subcarriers + 1) % size, v.T)
    return size * np.fft.ifft(folded, axis=0)


def _absolute_scores(v, cfg, t_grid):
    """Correlation at the absolute subcarrier frequencies, by one exp-matmul: c[n, k]."""
    return v @ np.exp(1j * 2.0 * np.pi * np.outer(subcarrier_freqs(cfg), t_grid))


class TestCorrelationLayout:
    @pytest.mark.parametrize("delta", [-1.7, -0.45, 0.05, 0.3, 1.0, 1.9])
    def test_bitwise_equal_to_strided_search(self, cfg_dict, delta):
        size = 65536
        params = params_for(cfg_dict, size=size)
        t_grid = delay_grid(params.max_delay, size)
        v = _steering_precoder(np.repeat([0.0, delta], cfg_dict.n_subcarriers // 2), cfg_dict)
        baseband = _strided_scores(v, cfg_dict, size)
        scores = _correlation_scores(v, cfg_dict, t_grid, params.max_delay)
        assert scores.shape == (16, size) and scores.flags.c_contiguous
        assert scores.tobytes() == np.ascontiguousarray(baseband.T).tobytes()
        # absolute-frequency correlation: the baseband times the carrier factor exp(j*2*pi*f0*t_k)
        f0 = cfg_dict.carrier_freq - cfg_dict.bandwidth / 2.0
        reference = baseband * np.exp(1j * 2.0 * np.pi * f0 * t_grid)[:, None]
        best_k = np.argmax(np.abs(reference), axis=0)
        phi = jpta_approx(v, params, cfg_dict)
        assert phi.delays.tobytes() == t_grid[best_k].tobytes()
        assert phi.phases.tobytes() == np.angle(reference[best_k, np.arange(16)]).tobytes()

    def test_fft_matches_direct_across_systems(self, rng):
        systems = [
            (SystemConfig(4, 8, 28e9, 3e9), 256),
            (SystemConfig(4, 8, 28e9, 2e9), 256),
            (SystemConfig(4, 8, 30e9, 3e9), 256),
            (SystemConfig(4, 8, 28e9, 3e9), 384),
        ]
        v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        for cfg, size in systems + systems[::-1]:
            max_delay = default_max_delay(cfg)
            grid = delay_grid(max_delay, size)
            s_fft = _correlation_scores(v, cfg, grid, max_delay)
            s_direct = _correlation_scores(v, cfg, grid, max_delay * (1 + 1e-9))
            assert np.max(np.abs(s_fft - s_direct)) < 1e-6

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.7])
    def test_direct_path_matches_absolute_frequency_oracle(self, cfg_dict, rng, ratio):
        params = SolverParams(max_delay=ratio * default_max_delay(cfg_dict), delay_grid_size=4096)
        t_grid = delay_grid(params.max_delay, params.delay_grid_size)
        rows = np.arange(cfg_dict.n_antennas)
        for _ in range(3):
            dmap = DirectionMap(rng.uniform(-1.0, 1.0, size=3))
            v = ideal_split_precoder(dmap, cfg_dict)
            oracle = _absolute_scores(v, cfg_dict, t_grid)
            best_k = np.argmax(np.abs(oracle), axis=1)
            phi = jpta_approx(v, params, cfg_dict)
            np.testing.assert_array_equal(phi.delays, t_grid[best_k])
            dphase = np.angle(np.exp(1j * (phi.phases - np.angle(oracle[rows, best_k]))))
            assert np.max(np.abs(dphase)) < 1e-9


def _whole_matrix_search(v, size):
    """First argmax of |c| per row and c there, on the whole (N, K) matrix folded and transformed in place."""
    scores = np.zeros((v.shape[0], size), dtype=np.complex128)
    np.add.at(scores, (slice(None), np.arange(1, v.shape[1] + 1) % size), v)
    np.fft.ifft(scores, axis=1, norm="forward", out=scores)
    best_k = np.argmax(np.abs(scores), axis=1)
    return scores, best_k, scores[np.arange(v.shape[0]), best_k]


class TestBlockedSearch:
    # (N, M, K): full scale, K < M (every column aliases), K = M + 1, one antenna, K = M
    SHAPES = [(16, 1200, 65536), (5, 1200, 512), (7, 24, 16), (1, 1200, 1201), (16, 1200, 1200)]

    @pytest.mark.parametrize("n, m, size", SHAPES)
    @pytest.mark.parametrize("budget", [1, 3 * 512, 3 * 65536, 2**17, 2**19, 2**30])
    def test_bitwise_equal_to_whole_matrix_search(self, monkeypatch, rng, n, m, size, budget):
        # budgets of 3 rows leave a last block of 1 or 2 rows (N = 16 at K = 65536, N = 5 at K = 512)
        monkeypatch.setattr(solvers_module, "_SEARCH_VALUES", budget)
        cfg = SystemConfig(n, m, 28e9, 3e9)
        params = params_for(cfg, size=size)
        t_grid = delay_grid(params.max_delay, size)
        v = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        scores, best_k, best = _whole_matrix_search(v, size)
        assert _correlation_scores(v, cfg, t_grid, params.max_delay).tobytes() == scores.tobytes()
        got_k, got = _best_correlations(v, cfg, t_grid, params.max_delay)
        assert got_k.tobytes() == best_k.tobytes()
        assert got.tobytes() == best.tobytes()
        phi = jpta_approx(v, params, cfg)
        assert phi.delays.tobytes() == t_grid[best_k].tobytes()

    @pytest.mark.parametrize("periods, size", [(1.0, 65536), (0.9, 4096)], ids=["one-period", "other-range"])
    def test_full_scale_call_holds_its_working_set(self, periods, size):
        # one period: 2-row blocks of the 65 536-point grid, 2 MiB of correlations and 1 MiB of magnitudes,
        # against 16 MiB and 8 MiB for the whole matrix; any other range: the 1 MiB matrix and chunks of
        # 109 delays' exponentials, 2 MiB, against all 4096 delays' 75 MiB in one chunk
        cfg = SystemConfig(16, 1200, 28e9, 3e9)
        v = ideal_split_precoder(DirectionMap(np.array([-0.4, 0.1, 0.6])), cfg)
        params = SolverParams(max_delay=periods * default_max_delay(cfg), delay_grid_size=size)
        tracemalloc.start()
        try:
            jpta_approx(v, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestDelayGrid:
    @pytest.mark.parametrize(
        "max_delay, size, message",
        [(0.0, 8, "max_delay must be positive"), (-1e-9, 8, "max_delay must be positive"),
         (np.nan, 8, "max_delay must be positive"), (1e-9, 1, "at least 2 points")],
    )
    def test_rejected(self, max_delay, size, message):
        with pytest.raises(ValueError, match=message):
            delay_grid(max_delay, size)


class TestExhaustiveOracle:
    @pytest.mark.parametrize(
        "cfg, size, message",
        [(SystemConfig(4, 8, 28e9, 3e9), 1001, "grid too large"), (SystemConfig(7, 8, 28e9, 3e9), 4, "N <= 6")],
    )
    def test_refuses_problems_over_the_cap(self, cfg, size, message):
        # 1001 delays x 1001 phases x 4 antennas is just over 4e6 evaluations
        grid = np.linspace(0.0, 1e-9, size)
        with pytest.raises(ValueError, match=message):
            exhaustive_oracle(np.ones((cfg.n_antennas, 8)), cfg, grid, grid)

    def test_planted_on_grid(self, cfg_tiny, rng):
        d = delay_grid(default_max_delay(cfg_tiny), 16)
        p = np.linspace(-np.pi, np.pi, 13)
        planted = ArrayConfig(d[rng.integers(0, 16, 4)], p[rng.integers(0, 13, 4)])
        v = precoder_matrix(planted, cfg_tiny)
        found = exhaustive_oracle(v, cfg_tiny, d, p)
        assert objective(found, v, cfg_tiny) < 1e-9

    def test_matches_naive_double_loop(self, cfg_tiny, rng):
        v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        d = delay_grid(default_max_delay(cfg_tiny), 12)
        p = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        found = exhaustive_oracle(v, cfg_tiny, d, p)
        f = subcarrier_freqs(cfg_tiny)
        for n in range(4):
            best = None
            for di in d:
                for pi in p:
                    entry = np.exp(1j * (-2 * np.pi * f * di + pi)) / 2.0
                    val = np.sum(np.abs(entry - v[n]) ** 2)
                    if best is None or val < best[0] - 1e-15:
                        best = (val, di, pi)
            assert found.delays[n] == best[1]
            assert found.phases[n] == best[2]

    def test_dominance_of_closed_form_phase(self, cfg_tiny, rng):
        # with the same delay grid, the solver's closed-form phase cannot lose
        # to any phase-grid choice
        d = delay_grid(default_max_delay(cfg_tiny), 64)
        p = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        params = SolverParams(max_delay=default_max_delay(cfg_tiny), n_iterations=2, delay_grid_size=64)
        for _ in range(10):
            v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
            o_jpta = objective(jpta_approx(v, params, cfg_tiny), v, cfg_tiny)
            o_oracle = objective(exhaustive_oracle(v, cfg_tiny, d, p), v, cfg_tiny)
            assert o_jpta <= o_oracle + 1e-9

    def test_separability_vs_joint_bruteforce(self, rng):
        # per-antenna optimization equals the joint grid optimum
        cfg = SystemConfig(2, 4, 10e9, 2e9)
        v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        d = delay_grid(default_max_delay(cfg), 8)
        p = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        found = exhaustive_oracle(v, cfg, d, p)
        best = np.inf
        for d0 in d:
            for p0 in p:
                for d1 in d:
                    for p1 in p:
                        phi = ArrayConfig(np.array([d0, d1]), np.array([p0, p1]))
                        best = min(best, objective(phi, v, cfg))
        assert objective(found, v, cfg) == pytest.approx(best, rel=1e-12)

    def test_closed_form_phase_optimality(self, cfg_tiny, rng):
        # no phase on a dense grid beats the closed form beyond quantization
        v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        t = rng.uniform(0, default_max_delay(cfg_tiny), 4)
        c = (v * np.exp(1j * 2 * np.pi * np.outer(t, subcarrier_freqs(cfg_tiny)))).sum(axis=1)
        dense = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
        for n in range(4):
            closed = np.abs(c[n])  # score of the closed-form phase
            grid_best = np.max(np.real(c[n] * np.exp(-1j * dense)))
            assert grid_best <= closed + 1e-9

    def test_size_caps(self, cfg_small, rng):
        v = rng.normal(size=(16, 48)) + 1j * rng.normal(size=(16, 48))
        with pytest.raises(ValueError):
            exhaustive_oracle(v, cfg_small, np.zeros(4), np.zeros(4))


class TestFoldDelayPeriods:
    def test_response_preserved(self, cfg_dict, rng):
        period = default_max_delay(cfg_dict)
        phi = ArrayConfig(rng.uniform(0, period, 16), rng.uniform(0, 2 * np.pi, 16))
        folded = fold_delay_periods(phi, cfg_dict)
        psi = rng.uniform(-1, 1, cfg_dict.n_subcarriers)
        g1 = gain_at_directions(phi, psi, cfg_dict)
        g2 = gain_at_directions(folded, psi, cfg_dict)
        assert np.max(np.abs(g1 - g2)) < 1e-7

    def test_delays_small(self, cfg_dict, rng):
        period = default_max_delay(cfg_dict)
        phi = ArrayConfig(rng.uniform(0, period, 16), np.zeros(16))
        folded = fold_delay_periods(phi, cfg_dict)
        assert np.all(np.abs(folded.delays) <= period / 2 + 1e-18)

    def test_idempotent_on_small_delays(self, cfg_dict):
        phi = ArrayConfig(np.full(16, 1e-10), np.full(16, 0.5))
        folded = fold_delay_periods(phi, cfg_dict)
        np.testing.assert_array_equal(folded.delays, phi.delays)
        np.testing.assert_array_equal(folded.phases, phi.phases)


class TestRegistry:
    def test_jpta_synthesizer_runs(self, cfg_dict):
        fn = make_jpta_synthesizer(params_for(cfg_dict, size=4096, iters=2))
        phi = fn(DirectionMap(np.array([0.0, 0.3])), cfg_dict)
        psi = expand_directions(DirectionMap(np.array([0.0, 0.3])), cfg_dict)
        gains = np.abs(gain_at_directions(phi, psi, cfg_dict))
        assert gains.mean() > 0.5 * 4.0


class TestSolverParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverParams(max_delay=0.0)
        with pytest.raises(ValueError):
            SolverParams(max_delay=1e-7, n_iterations=0)
        with pytest.raises(ValueError):
            SolverParams(max_delay=1e-7, delay_grid_size=1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_nonfinite_max_delay_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverParams(max_delay=bad)
