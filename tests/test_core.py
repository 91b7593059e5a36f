import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttdbeam.core import (
    ArrayConfig,
    PsiGrid,
    SystemConfig,
    _response,
    argmax_directions,
    beampattern_of_config,
    beampattern_of_precoder,
    compose,
    config_from_json_dict,
    config_to_json_dict,
    direction_grid,
    gain_at,
    gain_at_directions,
    precoder_matrix,
    subcarrier_freqs,
    wrap_sine,
    zero_config,
)
from ttdbeam.solvers import constant_direction_config
from ttdbeam.splitbeam import DirectionMap, ideal_split_precoder


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
        [(0, 4, 1e9, 1e8), (4, 0, 1e9, 1e8), (4, 4, 1e8, 3e8), (4, 4, 1e9, 0.0), (4, 4, 1e9, -1e8)],
    )
    def test_invalid_rejected(self, n, m, fc, bw):
        with pytest.raises(ValueError):
            SystemConfig(n, m, fc, bw)


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

    def test_immutable(self):
        z = zero_config(4)
        with pytest.raises(ValueError):
            z.delays[0] = 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(np.array([np.nan]), np.array([0.0]))


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
        p1 = beampattern_of_config(phi, cfg_small, grid)
        p2 = beampattern_of_config(shifted, cfg_small, grid)
        assert np.max(np.abs(p1.gains - p2.gains)) > 1e-3


class TestBeampattern:
    def test_broadside_peak(self, cfg_small):
        grid = PsiGrid.uniform(101)
        p = beampattern_of_config(zero_config(16), cfg_small, grid)
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

    def test_constant_direction_squint_free(self, cfg_small):
        grid = PsiGrid.uniform(1001)
        p = beampattern_of_config(constant_direction_config(0.4, cfg_small), cfg_small, grid)
        peaks = argmax_directions(p)
        assert np.max(np.abs(peaks - 0.4)) <= grid.step + 1e-12


class TestCompose:
    def test_zero_config_is_identity(self, cfg_small, rng):
        phi = random_config(rng, 16)
        grid = PsiGrid.uniform(101)
        direct = beampattern_of_config(phi, cfg_small, grid)
        composed = compose(phi, zero_config(16), cfg_small, grid)
        np.testing.assert_array_equal(direct.gains, composed.gains)

    def test_direction_addition(self, cfg_small):
        grid = PsiGrid.uniform(1001)
        p = compose(
            constant_direction_config(0.3, cfg_small),
            constant_direction_config(0.2, cfg_small),
            cfg_small,
            grid,
        )
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
        assert gain_at(zero_config(16), 0.0, 1, cfg_small) == pytest.approx(4.0)

    def test_matches_grid(self, cfg_small, rng):
        phi = random_config(rng, 16)
        grid = PsiGrid.uniform(41)
        p = beampattern_of_config(phi, cfg_small, grid)
        for gi in (0, 13, 40):
            for m in (1, 30, 48):
                g = gain_at(phi, float(grid.points[gi]), m, cfg_small)
                assert abs(g - p.gains[gi, m - 1]) < 1e-12

    def test_destructive_interference(self):
        cfg = SystemConfig(2, 4, 10e9, 1e9)
        phi = ArrayConfig(np.zeros(2), np.array([0.0, np.pi]))
        assert abs(gain_at(phi, 0.0, 2, cfg)) < 1e-12

    def test_index_validation(self, cfg_small):
        with pytest.raises(IndexError):
            gain_at(zero_config(16), 0.0, 0, cfg_small)
        with pytest.raises(IndexError):
            gain_at(zero_config(16), 0.0, 49, cfg_small)
        with pytest.raises(ValueError):
            gain_at(zero_config(16), 1.5, 1, cfg_small)

    def test_vectorized_matches_scalar(self, cfg_small, rng):
        phi = random_config(rng, 16)
        psi = rng.uniform(-1, 1, cfg_small.n_subcarriers)
        gains = gain_at_directions(phi, psi, cfg_small)
        for m in (1, 25, 48):
            assert abs(gains[m - 1] - gain_at(phi, float(psi[m - 1]), m, cfg_small)) < 1e-12

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
        expected = np.sqrt(n) * np.sum(precoder_matrix(phi, cfg) * np.conj(steering), axis=0)
        got = _response(phi.delays, phi.phases, psi, f, cfg)
        assert np.max(np.abs(got - expected)) < 1e-9


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

    def test_flags_negative_delays(self, cfg_small):
        phi = ArrayConfig(np.full(16, -1e-12), np.zeros(16))
        with pytest.warns(UserWarning):
            config_to_json_dict(phi, cfg_small)

    def test_flags_range_overflow(self, cfg_small):
        phi = ArrayConfig(np.full(16, 2e-9), np.zeros(16))
        with pytest.warns(UserWarning):
            config_to_json_dict(phi, cfg_small, t_max=1e-9)
