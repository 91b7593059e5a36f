import numpy as np
import pytest

from ttdbeam.core import (
    PsiGrid,
    SystemConfig,
    argmax_directions,
    beampattern_of_precoder,
    gain_at_directions,
    precoder_matrix,
    subcarrier_freqs,
    wrap_sine,
    zero_config,
)
from ttdbeam.splitbeam import (
    DirectionMap,
    expand_directions,
    ideal_split_precoder,
    subband_width,
)


class TestDirectionMap:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DirectionMap(np.array([0.0, 1.2]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            DirectionMap(np.array([0.2, np.nan]))

    @pytest.mark.parametrize("directions", [[], [[0.1, 0.2]], [[0.1], [0.2]]])
    def test_one_vector_of_at_least_one_direction(self, directions):
        with pytest.raises(ValueError, match="need at least one direction"):
            DirectionMap(np.array(directions))

    def test_divisibility_enforced(self):
        cfg = SystemConfig(4, 10, 1e9, 1e8)
        with pytest.raises(ValueError):
            expand_directions(DirectionMap(np.array([0.0, 0.1, 0.2])), cfg)


class TestExpandDirections:
    def test_block_expansion(self):
        cfg = SystemConfig(4, 6, 1e9, 1e8)
        psi = expand_directions(DirectionMap(np.array([-0.4, 0.4, -0.1])), cfg)
        np.testing.assert_array_equal(psi, [-0.4, -0.4, 0.4, 0.4, -0.1, -0.1])

    def test_single_subband(self):
        cfg = SystemConfig(4, 4, 1e9, 1e8)
        psi = expand_directions(DirectionMap(np.array([0.5])), cfg)
        np.testing.assert_array_equal(psi, [0.5, 0.5, 0.5, 0.5])

    def test_one_per_subcarrier(self):
        cfg = SystemConfig(4, 4, 1e9, 1e8)
        dirs = np.array([0.1, -0.2, 0.3, 0.9])
        np.testing.assert_array_equal(expand_directions(DirectionMap(dirs), cfg), dirs)


class TestSubbandWidth:
    @pytest.mark.parametrize("g, m", [(1, 12), (3, 12), (12, 12), (3, 1200), (8, 1200)])
    def test_width(self, g, m):
        assert subband_width(g, m) == m / g

    @pytest.mark.parametrize("g, m", [(5, 12), (13, 12), (7, 1200), (0, 12), (-3, 12)])
    def test_one_message(self, g, m):
        with pytest.raises(ValueError, match=f"^{g} subbands do not divide {m} subcarriers$"):
            subband_width(g, m)


class TestIdealSplitPrecoder:
    def test_broadside_equals_zero_config(self, cfg_small):
        v = ideal_split_precoder(DirectionMap(np.array([0.0])), cfg_small)
        np.testing.assert_allclose(v, precoder_matrix(zero_config(16), cfg_small), atol=1e-15)

    def test_unit_modulus(self, cfg_small):
        v = ideal_split_precoder(DirectionMap(np.array([-0.4, 0.4, -0.1])), cfg_small)
        np.testing.assert_allclose(np.abs(v), 0.25, atol=1e-12)

    def test_squint_free_peak_gain(self, cfg_small):
        dmap = DirectionMap(np.array([-0.4, 0.4, -0.1]))
        v = ideal_split_precoder(dmap, cfg_small)
        psi = expand_directions(dmap, cfg_small)
        f = subcarrier_freqs(cfg_small)
        n = np.arange(16)
        for m in range(cfg_small.n_subcarriers):
            steer = np.exp(-1j * n * np.pi * psi[m] * f[m] / cfg_small.carrier_freq)
            assert abs(v[:, m] @ steer) == pytest.approx(4.0, abs=1e-10)


class TestDirichletGain:
    def test_first_null(self, cfg_small):
        # the N-element periodic sinc's first null sits at psi = 2*fc/(N*f_m)
        null = 2.0 * cfg_small.carrier_freq / (16 * subcarrier_freqs(cfg_small))
        assert np.max(np.abs(gain_at_directions(zero_config(16), null, cfg_small))) < 1e-9

    def test_matches_ideal_pattern(self, cfg_small):
        # the ideal split pattern is the periodic sinc
        # sum_n exp(-j*pi*n*(psi - psi_m)*f_m/fc) / sqrt(N)
        dmap = DirectionMap(np.array([0.2]))
        v = ideal_split_precoder(dmap, cfg_small)
        grid = PsiGrid.uniform(41)
        p = beampattern_of_precoder(v, cfg_small, grid)
        f = subcarrier_freqs(cfg_small)
        n = np.arange(16)
        for gi in (0, 20, 40):
            for m in (1, 48):
                offset = float(grid.points[gi]) - 0.2
                expected = np.exp(-1j * np.pi * n * offset * f[m - 1] / cfg_small.carrier_freq).sum() / 4.0
                assert abs(p.gains[gi, m - 1] - expected) < 1e-12


class TestDirectionAddition:
    def test_composed_peaks_add(self, rng):
        # composing ideal patterns adds their per-subcarrier peak directions;
        # directions sampled away from the visible edge so the peak (not an
        # alias) is the global argmax on the grid
        cfg = SystemConfig(16, 24, 28e9, 3e9)
        grid = PsiGrid.uniform(1001)
        for _ in range(25):
            while True:
                d1 = rng.uniform(-0.88, 0.88, 3)
                d2 = rng.uniform(-0.88, 0.88, 3)
                if np.all(np.abs(d1 + d2) <= 0.88):
                    break
            peaks1 = argmax_directions(
                beampattern_of_precoder(ideal_split_precoder(DirectionMap(d1), cfg), cfg, grid)
            )
            peaks2 = argmax_directions(
                beampattern_of_precoder(ideal_split_precoder(DirectionMap(d2), cfg), cfg, grid)
            )
            peaks12 = argmax_directions(
                beampattern_of_precoder(ideal_split_precoder(DirectionMap(d1 + d2), cfg), cfg, grid)
            )
            for m in range(cfg.n_subcarriers):
                err = abs(wrap_sine(peaks12[m] - wrap_sine(peaks1[m] + peaks2[m])))
                err = min(err, 2.0 - err)
                assert err <= grid.step + 1e-12
