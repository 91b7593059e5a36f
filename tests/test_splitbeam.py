import numpy as np
import pytest

from ttdbeam.core import (
    PsiGrid,
    SystemConfig,
    argmax_directions,
    beampattern_of_precoder,
    precoder_matrix,
    subcarrier_freqs,
    wrap_sine,
    zero_config,
)
from ttdbeam.splitbeam import (
    DirectionMap,
    dirichlet_gain,
    expand_directions,
    ideal_split_precoder,
    subband_of,
    subband_width,
)


class TestDirectionMap:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DirectionMap(np.array([0.0, 1.2]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            DirectionMap(np.array([0.2, np.nan]))

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


class TestSubbandOf:
    def test_boundary(self):
        assert subband_of(400, 3, 1200) == 1
        assert subband_of(401, 3, 1200) == 2

    def test_last(self):
        assert subband_of(1200, 3, 1200) == 3

    def test_single_band(self):
        for m in (1, 7, 12):
            assert subband_of(m, 1, 12) == 1

    def test_errors(self):
        with pytest.raises(IndexError):
            subband_of(0, 3, 1200)
        with pytest.raises(ValueError):
            subband_of(1, 5, 12)


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
    def test_peak(self, cfg_small):
        assert dirichlet_gain(0.0, 1, cfg_small) == pytest.approx(4.0)

    def test_first_null(self, cfg_small):
        f = subcarrier_freqs(cfg_small)
        for m in (1, 24, 48):
            null = 2.0 * cfg_small.carrier_freq / (16 * f[m - 1])
            assert abs(dirichlet_gain(null, m, cfg_small)) < 1e-9

    def test_matches_ideal_pattern(self, cfg_small):
        # the ideal split pattern is this kernel evaluated at psi - psi_m
        dmap = DirectionMap(np.array([0.2]))
        v = ideal_split_precoder(dmap, cfg_small)
        grid = PsiGrid.uniform(41)
        p = beampattern_of_precoder(v, cfg_small, grid)
        for gi in (0, 20, 40):
            for m in (1, 48):
                expected = dirichlet_gain(float(grid.points[gi]) - 0.2, m, cfg_small)
                assert abs(p.gains[gi, m - 1] - expected) < 1e-12

    def test_index_validation(self, cfg_small):
        with pytest.raises(IndexError):
            dirichlet_gain(0.0, 0, cfg_small)


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
