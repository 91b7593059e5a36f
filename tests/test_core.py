import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttdbeam.core import (
    ArrayConfig,
    Beampattern,
    PsiGrid,
    SystemConfig,
    _column_patterns,
    _comb_factors,
    _gains_at_directions,
    _pattern,
    argmax_directions,
    beampattern_of_precoder,
    config_from_json_dict,
    config_to_json_dict,
    direction_grid,
    gain_at_directions,
    precoder_matrix,
    subcarrier_freqs,
    wrap_sine,
    zero_config,
)
from ttdbeam.solvers import constant_direction_config
from ttdbeam.splitbeam import DirectionMap, ideal_split_precoder


def direct_response(delays, phases, psi, f, cfg):
    """Oracle: sum_n exp(j*(-2*pi*f*t_n + phi_n - n*pi*psi*f/fc)) / sqrt(N), one exponential per term.

    ``psi`` broadcasts against ``f`` (both at most 1-D).
    """
    psi, f = np.broadcast_arrays(np.asarray(psi, dtype=np.float64), np.asarray(f, dtype=np.float64))
    n = np.arange(delays.shape[0])
    phase = (
        -2.0 * np.pi * np.outer(delays, f)
        + phases[:, None]
        - np.pi * np.outer(n, psi * f / cfg.carrier_freq)
    )
    return np.exp(1j * phase).sum(axis=0) / np.sqrt(cfg.n_antennas)


def random_config(rng, n, delay_scale=2e-9):
    return ArrayConfig(
        rng.uniform(0.0, delay_scale, n), rng.uniform(-2 * np.pi, 2 * np.pi, n)
    )


class TestSystemConfig:
    def test_subcarrier_freqs_table_values(self):
        cfg = SystemConfig(16, 1200, 28e9, 3e9)
        f = subcarrier_freqs(cfg)
        assert f[0] == pytest.approx(26.5025e9, abs=1.0)
        assert f[-1] == pytest.approx(29.5e9, abs=1.0)

    def test_subcarrier_freqs_single(self):
        cfg = SystemConfig(2, 1, 10e9, 1e9)
        assert subcarrier_freqs(cfg)[0] == pytest.approx(10e9 + 0.5e9)

    def test_subcarrier_freqs_small_case(self):
        cfg = SystemConfig(2, 4, 1.0, 0.4)
        np.testing.assert_allclose(subcarrier_freqs(cfg), [0.9, 1.0, 1.1, 1.2])

    def test_strictly_increasing(self):
        cfg = SystemConfig(4, 64, 28e9, 3e9)
        assert np.all(np.diff(subcarrier_freqs(cfg)) > 0)

    @pytest.mark.parametrize(
        "n, m, fc, bw",
        [(0, 4, 1e9, 1e8), (4, 0, 1e9, 1e8), (4, 4, 1e8, 3e8), (4, 4, 1e9, 0.0), (4, 4, 1e9, -1e8),
         (4, 4, float("inf"), 1e8)],
    )
    def test_invalid_rejected(self, n, m, fc, bw):
        with pytest.raises(ValueError):
            SystemConfig(n, m, fc, bw)

    @pytest.mark.parametrize("m, ok", [(1024, True), (1025, False)])
    def test_subcarrier_spacing_resolved(self, m, ok):
        # at fc + BW/2 = 2**40 + 0.5 Hz one ulp is 2**-12 Hz, so BW = 1 Hz spans at most 1024
        # subcarriers 4 ulp apart
        if ok:
            assert SystemConfig(4, m, 2.0**40, 1.0).n_subcarriers == m
        else:
            with pytest.raises(ValueError, match="subcarrier spacing"):
                SystemConfig(4, m, 2.0**40, 1.0)

    def test_spacing_rule_builds_no_array(self):
        # M comes from an untrusted int32 header field; the rule is O(1) in M
        assert SystemConfig(1, 2**31 - 1, 28e9, 3e9).n_subcarriers == 2**31 - 1
        with pytest.raises(ValueError, match="subcarrier spacing"):
            SystemConfig(1, 2**31 - 1, 1e20, 1.0)


class TestArrayConfig:
    def test_addition_elementwise(self, rng):
        a = random_config(rng, 8)
        b = random_config(rng, 8)
        c = a + b
        np.testing.assert_array_equal(c.delays, a.delays + b.delays)
        np.testing.assert_array_equal(c.phases, a.phases + b.phases)

    def test_addition_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            random_config(rng, 8) + random_config(rng, 4)

    def test_addition_of_a_non_config(self, rng):
        with pytest.raises(TypeError):
            random_config(rng, 8) + 1

    def test_immutable(self):
        z = zero_config(4)
        with pytest.raises(ValueError):
            z.delays[0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["delays", "phases"])
    def test_nonfinite_rejected(self, bad, field):
        vectors = {"delays": np.zeros(5), "phases": np.zeros(5)}
        vectors[field][3] = bad
        with pytest.raises(ValueError, match="delays and phases must be finite"):
            ArrayConfig(**vectors)

    @pytest.mark.parametrize("field", ["delays", "phases"])
    def test_vectors_must_be_1d(self, field):
        vectors = {"delays": np.zeros(4), "phases": np.zeros(4), field: np.zeros((2, 2))}
        with pytest.raises(ValueError, match="must be 1-D vectors"):
            ArrayConfig(**vectors)


class TestPrecoder:
    def test_zero_config_uniform(self, cfg_small):
        v = precoder_matrix(zero_config(16), cfg_small)
        np.testing.assert_allclose(v, 1.0 / 4.0, atol=1e-15)

    def test_unit_modulus(self, cfg_small, rng):
        v = precoder_matrix(random_config(rng, 16), cfg_small)
        np.testing.assert_allclose(np.abs(v), 0.25, atol=1e-12)

    def test_half_period_delay(self):
        cfg = SystemConfig(1, 2, 10e9, 2e9)
        # f_1 equals fc; a half-period delay at fc flips the sign
        phi = ArrayConfig(np.array([1.0 / (2 * 10e9)]), np.array([0.0]))
        v = precoder_matrix(phi, cfg)
        assert v[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self, cfg_small):
        with pytest.raises(ValueError):
            precoder_matrix(zero_config(4), cfg_small)

    def test_additive_identity_elementwise_product(self, cfg_small, rng):
        # config addition maps to the sqrt(N)-scaled elementwise product
        for _ in range(20):
            a = random_config(rng, 16)
            b = random_config(rng, 16)
            lhs = precoder_matrix(a + b, cfg_small)
            rhs = 4.0 * precoder_matrix(a, cfg_small) * precoder_matrix(b, cfg_small)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(shift=st.integers(min_value=-3, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_phase_period(self, shift):
        cfg = SystemConfig(4, 8, 28e9, 3e9)
        rng = np.random.default_rng(11)
        t = rng.uniform(0, 1e-9, 4)
        ph = rng.uniform(-np.pi, np.pi, 4)
        a = precoder_matrix(ArrayConfig(t, ph), cfg)
        b = precoder_matrix(ArrayConfig(t, ph + 2 * np.pi * shift), cfg)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_carrier_delay_not_equivalent_off_carrier(self, cfg_small, rng):
        # adding 1/fc to every delay preserves only the carrier column: squint
        phi = random_config(rng, 16)
        shifted = ArrayConfig(phi.delays + 1.0 / cfg_small.carrier_freq, phi.phases)
        grid = PsiGrid.uniform(64)
        p1 = beampattern_of_precoder(precoder_matrix(phi, cfg_small), cfg_small, grid)
        p2 = beampattern_of_precoder(precoder_matrix(shifted, cfg_small), cfg_small, grid)
        assert np.max(np.abs(p1.gains - p2.gains)) > 1e-3


class TestBeampattern:
    def test_broadside_peak(self, cfg_small):
        grid = PsiGrid.uniform(101)
        p = beampattern_of_precoder(precoder_matrix(zero_config(16), cfg_small), cfg_small, grid)
        mid = 50  # psi = 0
        np.testing.assert_allclose(np.abs(p.gains[mid]), 4.0, atol=1e-12)
        assert np.max(np.abs(p.gains)) <= 4.0 + 1e-9

    def test_split_precoder_subband_maxima(self, cfg_small):
        dmap = DirectionMap(np.array([-0.4, 0.4, -0.1]))
        v = ideal_split_precoder(dmap, cfg_small)
        p = beampattern_of_precoder(v, cfg_small, PsiGrid.uniform(1001))
        peaks = argmax_directions(p)
        m_per = cfg_small.n_subcarriers // 3
        for b, target in enumerate([-0.4, 0.4, -0.1]):
            band = peaks[b * m_per : (b + 1) * m_per]
            assert np.max(np.abs(band - target)) <= p.grid.step + 1e-12

    def test_matches_scalar_loop_oracle(self, cfg_small, rng):
        v = rng.normal(size=(16, 48)) + 1j * rng.normal(size=(16, 48))
        grid = PsiGrid(np.array([-0.73, 0.11, 0.98]))
        p = beampattern_of_precoder(v, cfg_small, grid)
        f = subcarrier_freqs(cfg_small)
        for gi, psi in enumerate(grid.points):
            for m in (0, 17, 47):
                acc = 0.0 + 0.0j
                for n in range(16):
                    acc += v[n, m] * np.exp(-1j * n * np.pi * psi * f[m] / cfg_small.carrier_freq)
                assert abs(p.gains[gi, m] - acc) < 1e-12

    def test_linearity(self, cfg_small, rng):
        v1 = rng.normal(size=(16, 48)) + 1j * rng.normal(size=(16, 48))
        v2 = rng.normal(size=(16, 48)) + 1j * rng.normal(size=(16, 48))
        grid = PsiGrid.uniform(33)
        a, b = 1.7, -0.4 + 0.9j
        lhs = beampattern_of_precoder(a * v1 + b * v2, cfg_small, grid).gains
        rhs = (
            a * beampattern_of_precoder(v1, cfg_small, grid).gains
            + b * beampattern_of_precoder(v2, cfg_small, grid).gains
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_shape_validation(self, cfg_small):
        with pytest.raises(ValueError):
            beampattern_of_precoder(np.ones((3, 3)), cfg_small, PsiGrid.uniform(11))

    @pytest.mark.parametrize("shape", [(10, 4), (11,), (11, 4, 1)])
    def test_gains_must_match_the_grid(self, shape):
        with pytest.raises(ValueError, match="inconsistent with grid of 11 points"):
            Beampattern(np.zeros(shape), PsiGrid.uniform(11))

    def test_constant_direction_squint_free(self, cfg_small):
        grid = PsiGrid.uniform(1001)
        phi = constant_direction_config(0.4, cfg_small)
        p = beampattern_of_precoder(precoder_matrix(phi, cfg_small), cfg_small, grid)
        peaks = argmax_directions(p)
        assert np.max(np.abs(peaks - 0.4)) <= grid.step + 1e-12


class TestCompose:
    def test_zero_config_is_identity(self, cfg_small, rng):
        phi = random_config(rng, 16)
        grid = PsiGrid.uniform(101)
        direct = beampattern_of_precoder(precoder_matrix(phi, cfg_small), cfg_small, grid)
        composed = beampattern_of_precoder(precoder_matrix(phi + zero_config(16), cfg_small), cfg_small, grid)
        np.testing.assert_array_equal(direct.gains, composed.gains)

    def test_direction_addition(self, cfg_small):
        grid = PsiGrid.uniform(1001)
        phi = constant_direction_config(0.3, cfg_small) + constant_direction_config(0.2, cfg_small)
        p = beampattern_of_precoder(precoder_matrix(phi, cfg_small), cfg_small, grid)
        peaks = argmax_directions(p)
        assert np.max(np.abs(peaks - 0.5)) <= grid.step + 1e-12

    def test_circular_convolution_oracle(self, rng):
        # sample both patterns over one full period of the response phase
        # variable per column; direct convolution sum is the reference
        cfg = SystemConfig(4, 6, 20e9, 2e9)
        a = random_config(rng, 4)
        b = random_config(rng, 4)
        va = precoder_matrix(a, cfg)
        vb = precoder_matrix(b, cfg)
        vab = precoder_matrix(a + b, cfg)
        n = np.arange(4)
        K = 16
        omegas = 2 * np.pi * np.arange(K) / K
        basis = np.exp(-1j * np.outer(omegas, n))  # (K, N)
        for m in range(6):
            pa = basis @ va[:, m]
            pb = basis @ vb[:, m]
            pab = basis @ vab[:, m]
            conv = np.empty(K, dtype=complex)
            for k in range(K):
                acc = 0.0 + 0.0j
                for l in range(K):
                    acc += pa[l] * pb[(k - l) % K]
                conv[k] = 2.0 * acc / K  # sqrt(N) = 2
            assert np.max(np.abs(pab - conv)) < 1e-8


class TestGainAt:
    def test_broadside(self, cfg_small):
        gains = gain_at_directions(zero_config(16), np.zeros(cfg_small.n_subcarriers), cfg_small)
        assert gains == pytest.approx(np.full(cfg_small.n_subcarriers, 4.0))

    def test_matches_grid(self, cfg_small, rng):
        phi = random_config(rng, 16)
        grid = PsiGrid.uniform(41)
        p = beampattern_of_precoder(precoder_matrix(phi, cfg_small), cfg_small, grid)
        for gi in (0, 13, 40):
            g = gain_at_directions(phi, np.full(cfg_small.n_subcarriers, grid.points[gi]), cfg_small)
            assert np.max(np.abs(g - p.gains[gi])) < 1e-12

    def test_destructive_interference(self):
        cfg = SystemConfig(2, 4, 10e9, 1e9)
        phi = ArrayConfig(np.zeros(2), np.array([0.0, np.pi]))
        assert np.max(np.abs(gain_at_directions(phi, np.zeros(4), cfg))) < 1e-12

    @pytest.mark.parametrize("count", [47, 49])
    def test_vectorized_needs_one_direction_per_subcarrier(self, cfg_small, count):
        with pytest.raises(ValueError, match="one direction per subcarrier"):
            gain_at_directions(zero_config(16), np.zeros(count), cfg_small)

    @pytest.mark.parametrize("bad", [1.5, np.nan])
    def test_vectorized_range_checked(self, cfg_small, bad):
        psi = np.zeros(cfg_small.n_subcarriers)
        psi[7] = bad
        with pytest.raises(ValueError, match="lie in"):
            gain_at_directions(zero_config(16), psi, cfg_small)


class TestResponse:
    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        psi=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_precoder_times_steering(self, n, m, seed, psi):
        # psi beyond [-1, 1] is evaluated as its alias, with no range check
        cfg = SystemConfig(n, m, 28e9, 3e9)
        phi = random_config(np.random.default_rng(seed), n)
        f = subcarrier_freqs(cfg)
        steering = np.exp(1j * np.pi * np.outer(np.arange(n), psi * f / cfg.carrier_freq)) / np.sqrt(n)
        v = precoder_matrix(phi, cfg)
        expected = np.sqrt(n) * np.sum(v * np.conj(steering), axis=0)
        for got in (direct_response(phi.delays, phi.phases, psi, f, cfg), _pattern(v[::-1], psi, f, cfg.carrier_freq)):
            assert np.max(np.abs(got - expected)) < 1e-9

    @given(
        n=st.integers(min_value=1, max_value=8),
        # even, odd and prime comb sizes; a prime M has no divisor Q > 1 to split on
        m=st.sampled_from([1, 2, 7, 9, 11, 12, 13, 15, 16]),
        block_constant=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_gain_matches_the_direct_sum(self, n, m, block_constant, seed):
        # M <= 16 keeps the phases 2*pi*f*t below about 1e3 rad, where both
        # formulas round to well within 1e-12
        cfg = SystemConfig(n, m, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        period = m / cfg.bandwidth
        phi = ArrayConfig(rng.uniform(-period, period, n), rng.uniform(-2 * np.pi, 2 * np.pi, n))
        if block_constant:
            blocks = int(rng.choice([g for g in range(1, m + 1) if m % g == 0]))
            psi = np.repeat(rng.uniform(-1.0, 1.0, blocks), m // blocks)
        else:
            psi = rng.uniform(-1.0, 1.0, m)
        f = subcarrier_freqs(cfg)
        tol = 1e-12 * np.sqrt(n)

        expected = direct_response(phi.delays, phi.phases, psi, f, cfg)
        assert np.max(np.abs(gain_at_directions(phi, psi, cfg) - expected)) <= tol

        weights = np.exp(1j * (phi.phases[:, None] - 2.0 * np.pi * np.outer(phi.delays, f))) / np.sqrt(n)
        assert np.max(np.abs(precoder_matrix(phi, cfg) - weights)) <= 1e-12

    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.sampled_from([1, 2, 7, 12, 13, 1200]),
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_gains_are_bitwise_the_single_ones(self, n, m, batch, seed):
        cfg = SystemConfig(n, m, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        period = m / cfg.bandwidth
        delays = rng.uniform(-period, period, (batch, n))
        phases = rng.uniform(-2 * np.pi, 2 * np.pi, (batch, n))
        psi = rng.uniform(-1.0, 1.0, (batch, m))
        got = _gains_at_directions(delays, phases, psi, cfg)
        assert got.shape == (batch, m)
        for b in range(batch):
            alone = gain_at_directions(ArrayConfig(delays[b], phases[b]), psi[b], cfg)
            assert got[b].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n, batch", [(2, 2), (4, 3), (16, 17)])
    def test_single_subcarrier_gains_do_not_depend_on_the_batch(self, n, batch):
        # numpy 2.4 rounds an in-place product of a lone 1-element complex array unlike its
        # vector loop, which had a config alone at M = 1 differ from its row of a batch
        cfg = SystemConfig(n, 1, 28e9, 3e9)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            delays = rng.uniform(-1e-9, 1e-9, (batch, n))
            phases = rng.uniform(-2 * np.pi, 2 * np.pi, (batch, n))
            psi = rng.uniform(-1.0, 1.0, (batch, 1))
            got = _gains_at_directions(delays, phases, psi, cfg)
            for b in range(batch):
                alone = gain_at_directions(ArrayConfig(delays[b], phases[b]), psi[b], cfg)
                assert got[b].tobytes() == alone.tobytes(), (seed, b)

    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.sampled_from([1, 7, 12, 13, 1200]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_precoder_is_the_written_out_comb_product(self, n, m, seed):
        cfg = SystemConfig(n, m, 28e9, 3e9)
        phi = random_config(np.random.default_rng(seed), n)
        coarse, fine = _comb_factors(phi.delays, phi.phases, cfg)
        p_count, q_count = coarse.shape[1], fine.shape[1]
        assert p_count * q_count == m
        expected = np.empty((n, m), dtype=np.complex128)
        for p in range(p_count):
            for q in range(q_count):
                expected[:, q_count * p + q] = coarse[:, p] * fine[:, q]
        assert precoder_matrix(phi, cfg).tobytes() == expected.tobytes()

    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.sampled_from([1, 7, 12, 13, 150, 151, 1200, 10007]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.floats(min_value=1e-2, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_column_patterns_are_bitwise_the_matrix_columns(self, n, m, seed, scale):
        # what render --config draws and the build's peak check reads: a few columns, formed without the others
        cfg = SystemConfig(n, m, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        period = scale * m / cfg.bandwidth
        delays, phases = rng.uniform(-period, period, (2, n)), rng.uniform(-2 * np.pi, 2 * np.pi, (2, n))
        cols, grid = np.unique(rng.integers(0, m, 150)), PsiGrid.uniform(21)
        got = _column_patterns(delays, phases, cols, grid.points, cfg)
        assert got.shape == (2, cols.size, len(grid))
        for b in range(2):
            phi = ArrayConfig(delays[b], phases[b])
            alone = _column_patterns(phi.delays, phi.phases, cols, grid.points, cfg)
            expected = beampattern_of_precoder(precoder_matrix(phi, cfg), cfg, grid).gains[:, cols].T
            assert alone.tobytes() == expected.tobytes(), b
            assert got[b].tobytes() == alone.tobytes(), b

    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.sampled_from([1, 7, 12, 16]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_from_a_generator_match_the_reversed_array(self, n, m, seed):
        cfg = SystemConfig(n, m, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        v = precoder_matrix(random_config(rng, n), cfg)
        psi, f = rng.uniform(-2.0, 2.0, (3, 1)), subcarrier_freqs(cfg)
        expected = _pattern(v[::-1], psi, f, cfg.carrier_freq)
        got = _pattern((v[k].copy() for k in range(n - 1, -1, -1)), psi, f, cfg.carrier_freq)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("blocks", [3, 1200])
    def test_full_scale_comb_matches_the_direct_sum(self, seed, blocks):
        # the production split, Q = 30 and P = 40 at M = 1200, with delays up
        # to +-M/BW: the phase 2*pi*f*t reaches about 7e4 rad, and float64
        # rounds it, in either formula, to about eps times that
        cfg = SystemConfig(16, 1200, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        period = cfg.n_subcarriers / cfg.bandwidth
        phi = ArrayConfig(rng.uniform(-period, period, 16), rng.uniform(-2 * np.pi, 2 * np.pi, 16))
        psi = np.repeat(rng.uniform(-1.0, 1.0, blocks), cfg.n_subcarriers // blocks)
        f = subcarrier_freqs(cfg)
        max_phase = 2.0 * np.pi * f.max() * np.abs(phi.delays).max()
        tol = 8.0 * np.finfo(np.float64).eps * (1.0 + max_phase)

        weights = np.exp(1j * (phi.phases[:, None] - 2.0 * np.pi * np.outer(phi.delays, f))) / 4.0
        assert np.max(np.abs(precoder_matrix(phi, cfg) - weights)) <= tol
        expected = direct_response(phi.delays, phi.phases, psi, f, cfg)
        assert np.max(np.abs(gain_at_directions(phi, psi, cfg) - expected)) <= 4.0 * tol


class TestWrapSine:
    @pytest.mark.parametrize(
        "x, expected",
        [(0.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (1.5, -0.5), (-1.5, 0.5), (2.0, 0.0), (3.2, -0.8)],
    )
    def test_values(self, x, expected):
        assert wrap_sine(x) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=200, deadline=None)
    def test_range_and_congruence(self, x):
        w = wrap_sine(x)
        assert -1.0 < w <= 1.0
        assert abs((x - w) / 2.0 - round((x - w) / 2.0)) < 1e-9


class TestPsiGrid:
    def test_uniform_default(self):
        g = PsiGrid.uniform()
        assert len(g) == 1001
        assert g.points[0] == -1.0 and g.points[-1] == 1.0

    @pytest.mark.parametrize("n", [2, 5, 41, 61, 499, 1001])
    def test_uniform_is_direction_grid(self, n):
        # one formula for the A-point grid: bitwise, with an exact +0.0 midpoint at odd n
        points = PsiGrid.uniform(n).points
        assert points.tobytes() == direction_grid(n).tobytes()
        if n % 2:
            assert points[n // 2] == 0.0 and not np.signbit(points[n // 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            PsiGrid(np.array([0.0]))
        with pytest.raises(ValueError):
            PsiGrid(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            PsiGrid(np.array([-1.5, 0.0]))


class TestConfigJson:
    def test_round_trip(self, cfg_small, rng):
        phi = random_config(rng, 16)
        doc = config_to_json_dict(phi, cfg_small)
        assert set(doc) == {"n", "delays_s", "phases_rad", "fc_hz", "bw_hz", "m"}
        phi2, cfg2 = config_from_json_dict(doc)
        np.testing.assert_array_equal(phi.delays, phi2.delays)
        np.testing.assert_array_equal(phi.phases, phi2.phases)
        assert cfg2 == cfg_small

    @pytest.mark.parametrize("key", ["n", "m", "fc_hz", "bw_hz"])
    @pytest.mark.parametrize("kind", [str, bool, int])
    def test_rejects_a_field_that_is_not_a_number(self, cfg_small, key, kind):
        # int: an integer no float64 holds
        doc = config_to_json_dict(zero_config(16), cfg_small)
        value = {str: str(doc[key]), bool: True, int: 10**400}[kind]
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            config_from_json_dict({**doc, key: value})

    @pytest.mark.parametrize("key", ["delays_s", "phases_rad"])
    @pytest.mark.parametrize("value", ["1e-10", True, False, None, 10**400, [0.0]],
                             ids=["str", "true", "false", "null", "huge-int", "list"])
    def test_rejects_an_element_that_is_not_a_number(self, cfg_small, key, value):
        # numpy would parse the string and take the bools as 1 and 0
        doc = config_to_json_dict(zero_config(16), cfg_small)
        doc[key][3] = value
        with pytest.raises(ValueError, match=f"{key} must be a list of numbers"):
            config_from_json_dict(doc)

    @pytest.mark.parametrize("key", ["delays_s", "phases_rad"])
    def test_rejects_vectors_that_are_not_lists(self, cfg_small, key):
        doc = config_to_json_dict(zero_config(16), cfg_small)
        with pytest.raises(ValueError, match=f"{key} must be a list of numbers"):
            config_from_json_dict({**doc, key: "0.0"})

    @pytest.mark.parametrize("delay, ok", [(0.999, True), (-0.999, True), (1.001, False), (-1.001, False),
                                           (1e300, False), pytest.param(10**300, False, id="int-False")])
    def test_delay_phase_bound(self, cfg_small, delay, ok):
        # the largest delay phase 2*pi*(fc + BW/2)*max|t| may reach 2**42 rad, no further;
        # delays below 1e10 are in units of the delay at that bound
        if abs(delay) < 1e10:
            delay *= 2**42 / (2.0 * np.pi * (cfg_small.carrier_freq + cfg_small.bandwidth / 2.0))
        doc = config_to_json_dict(zero_config(16), cfg_small)
        doc["delays_s"][5] = delay
        if ok:
            assert config_from_json_dict(doc)[0].delays[5] == delay
        else:
            with pytest.raises(ValueError, match=r"beyond the bound of 2\*\*42 rad"):
                config_from_json_dict(doc)

    def test_flags_negative_delays(self, cfg_small):
        phi = ArrayConfig(np.full(16, -1e-12), np.zeros(16))
        with pytest.warns(UserWarning):
            config_to_json_dict(phi, cfg_small)
