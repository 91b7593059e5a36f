import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttdbeam.core import (
    ArrayConfig,
    PsiGrid,
    SystemConfig,
    argmax_directions,
    beampattern_of_config,
    precoder_matrix,
    wrap_sine,
)
from ttdbeam.dictionary import _gain_profile
from ttdbeam.evaluation import direction_grid
from ttdbeam.hdb import (
    DictionaryCompatibilityError,
    decompose,
    generator_bands,
    generator_set,
    make_hdb_synthesizer,
    scale_shift,
    synthesize,
)
from ttdbeam.solvers import constant_direction_config
from ttdbeam.splitbeam import DirectionMap, expand_directions


class TestDecompose:
    def test_forward_differences(self):
        d = decompose(DirectionMap(np.array([-0.4, 0.4, -0.1])))
        np.testing.assert_allclose(d, [-0.4, 0.8, -0.5], atol=1e-15)

    def test_single_subband(self):
        np.testing.assert_array_equal(decompose(DirectionMap(np.array([0.5]))), [0.5])

    def test_unwrap_with_carryover(self):
        d = decompose(DirectionMap(np.array([0.9, -0.9, 0.9])))
        np.testing.assert_allclose(d, [0.9, 0.2, -0.2], atol=1e-12)
        np.testing.assert_allclose(np.cumsum(d), [0.9, 1.1, 0.9], atol=1e-12)

    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8)
    )
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, dirs):
        phi = np.array(dirs)
        d = decompose(DirectionMap(phi))
        assert np.all(np.abs(d) <= 1.0 + 1e-15)
        resid = (np.cumsum(d) - phi) / 2.0
        assert np.max(np.abs(resid - np.round(resid))) < 1e-12


class TestGeneratorBands:
    def test_three_subband_values(self):
        cfg = SystemConfig(16, 1200, 28e9, 3e9)
        fc2, bw2 = generator_bands(2, 3, cfg)
        assert fc2 == pytest.approx(27.5e9)
        assert bw2 == pytest.approx(4e9)

    def test_two_subband_identity(self, cfg_small):
        fc2, bw2 = generator_bands(2, 2, cfg_small)
        assert fc2 == cfg_small.carrier_freq
        assert bw2 == cfg_small.bandwidth

    def test_width_independent_of_index(self, cfg_small):
        widths = {generator_bands(g, 5, cfg_small)[1] for g in range(1, 6)}
        assert len(widths) == 1

    def test_index_validation(self, cfg_small):
        with pytest.raises(IndexError):
            generator_bands(0, 3, cfg_small)
        with pytest.raises(IndexError):
            generator_bands(4, 3, cfg_small)

    def test_boundaries_distinct(self, cfg_small):
        for g_count in (2, 3, 4, 8):
            boundaries = [generator_bands(g, g_count, cfg_small)[0] for g in range(2, g_count + 1)]
            assert len(set(boundaries)) == len(boundaries)


class TestScaleShift:
    def test_identity(self, cfg_small, rng):
        phi = constant_direction_config(0.3, cfg_small)
        out = scale_shift(phi, cfg_small.carrier_freq, cfg_small.bandwidth, cfg_small)
        np.testing.assert_allclose(out.delays, phi.delays, atol=1e-24)
        np.testing.assert_allclose(out.phases, phi.phases, atol=1e-12)

    def test_zero_config_fixed_point(self, cfg_small):
        from ttdbeam.core import zero_config

        out = scale_shift(zero_config(16), 30e9, 6e9, cfg_small)
        np.testing.assert_array_equal(out.delays, np.zeros(16))
        np.testing.assert_array_equal(out.phases, np.zeros(16))

    def test_band_remap_preserves_behavior(self, cfg_small):
        # the remapped config at new-band subcarrier k responds like the
        # original at old-band subcarrier k
        phi = constant_direction_config(0.25, cfg_small)
        fc_new, bw_new = 27.0e9, 4.5e9
        out = scale_shift(phi, fc_new, bw_new, cfg_small)
        f_old = cfg_small.carrier_freq + np.arange(1, 49) * cfg_small.bandwidth / 48 - cfg_small.bandwidth / 2
        f_new = fc_new + np.arange(1, 49) * bw_new / 48 - bw_new / 2
        w_old = np.exp(1j * (-2 * np.pi * np.outer(phi.delays, f_old) + phi.phases[:, None]))
        w_new = np.exp(1j * (-2 * np.pi * np.outer(out.delays, f_new) + out.phases[:, None]))
        assert np.max(np.abs(w_old - w_new)) < 1e-9

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fc_new=st.floats(min_value=20e9, max_value=40e9),
        bw_new=st.floats(min_value=0.5e9, max_value=12e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, seed, fc_new, bw_new):
        cfg = SystemConfig(16, 48, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        phi = ArrayConfig(rng.uniform(-2e-9, 2e-9, 16), rng.uniform(-2 * np.pi, 2 * np.pi, 16))
        there = scale_shift(phi, fc_new, bw_new, cfg)
        back = scale_shift(there, cfg.carrier_freq, cfg.bandwidth, SystemConfig(16, 48, fc_new, bw_new))
        np.testing.assert_allclose(back.delays, phi.delays, rtol=1e-9, atol=0)
        np.testing.assert_allclose(back.phases, phi.phases, rtol=0, atol=1e-9)

    def test_rejects_nonpositive_bandwidth(self, cfg_small):
        with pytest.raises(ValueError):
            scale_shift(constant_direction_config(0.1, cfg_small), 28e9, 0.0, cfg_small)


class TestSynthesize:
    def test_single_subband_is_closed_form(self, small_dict, cfg_dict):
        phi = synthesize(DirectionMap(np.array([0.42])), small_dict, cfg_dict)
        ref = constant_direction_config(0.42, cfg_dict)
        np.testing.assert_array_equal(phi.delays, ref.delays)
        np.testing.assert_array_equal(phi.phases, ref.phases)

    def test_incompatible_dictionary_rejected(self, small_dict):
        other = SystemConfig(16, 120, 27e9, 3e9)
        with pytest.raises(DictionaryCompatibilityError):
            synthesize(DirectionMap(np.array([0.0, 0.2])), small_dict, other)

    def test_generator_set_sums_to_targets(self, cfg_dict):
        dmap = DirectionMap(np.array([0.9, -0.9, 0.3]))
        plan = generator_set(dmap, cfg_dict)
        np.testing.assert_allclose(np.cumsum(plan.deltas), dmap.directions, atol=1e-15)
        assert len(plan.bands) == 3

    def test_plan_offsets_bitwise_numpy_diff(self, cfg_dict, rng):
        grid = direction_grid(41)
        for i in range(400):
            g = int(rng.choice([1, 2, 3, 4, 6, 8]))
            dirs = rng.choice(grid, g) if i % 2 else rng.uniform(-1.0, 1.0, g)
            if i % 7 == 0:
                dirs[0] = -0.0
            plan = generator_set(DirectionMap(dirs), cfg_dict)
            assert plan.deltas.tobytes() == np.diff(dirs, prepend=0.0).tobytes()

    def test_homomorphic_consistency(self, small_dict, cfg_dict):
        # the synthesized config's precoder equals the scaled elementwise
        # product of its generators' precoders, independent of entry quality
        dmap = DirectionMap(np.array([-0.3, 0.5, 0.1]))
        plan = generator_set(dmap, cfg_dict)
        parts = [constant_direction_config(float(plan.deltas[0]), cfg_dict)]
        for g in (2, 3):
            entry = small_dict.lookup(float(plan.deltas[g - 1]))
            parts.append(scale_shift(entry, *plan.bands[g - 1], cfg_dict))
        total = synthesize(dmap, small_dict, cfg_dict)
        lhs = precoder_matrix(total, cfg_dict)
        rhs = precoder_matrix(parts[0], cfg_dict)
        for part in parts[1:]:
            rhs = 4.0 * rhs * precoder_matrix(part, cfg_dict)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_per_subband_mean_gain(self, small_dict, cfg_dict):
        # straightforward three-user target: healthy average gain per subband
        dmap = DirectionMap(np.array([0.0, 0.2, 0.4]))
        phi = synthesize(dmap, small_dict, cfg_dict)
        psi = expand_directions(dmap, cfg_dict)
        block = cfg_dict.n_subcarriers // 3
        for b in range(3):
            gains = _gain_profile(phi, float(dmap.directions[b]), cfg_dict)[
                b * block : (b + 1) * block
            ]
            assert gains.mean() >= 0.7 * 4.0

    def test_composition_fidelity_on_grid(self, small_dict, cfg_dict):
        # per-subband peaks match the targets within 2 direction-grid steps
        # for nearly all random on-grid targets
        a = small_dict.direction_grid_size
        grid_dirs = direction_grid(a)
        step = 2.0 / (a - 1)
        rng = np.random.default_rng(5)
        psi_grid = PsiGrid.uniform(801)
        hits = 0
        trials = 40
        for _ in range(trials):
            for g_count in (2, 3, 4):
                dirs = grid_dirs[rng.integers(0, a, size=g_count)]
                phi = synthesize(DirectionMap(dirs), small_dict, cfg_dict)
                pattern = beampattern_of_config(phi, cfg_dict, psi_grid)
                peaks = argmax_directions(pattern)
                block = cfg_dict.n_subcarriers // g_count
                ok = True
                for b in range(g_count):
                    center = b * block + block // 2
                    err = abs(wrap_sine(peaks[center] - dirs[b]))
                    err = min(err, 2.0 - err)
                    if err > 2 * step + 1e-12:
                        ok = False
                hits += ok
        assert hits >= 0.95 * trials * 3

    def test_hdb_synthesizer_wrapper(self, small_dict, cfg_dict):
        fn = make_hdb_synthesizer(small_dict)
        dmap = DirectionMap(np.array([0.1, -0.2]))
        a = fn(dmap, cfg_dict)
        b = synthesize(dmap, small_dict, cfg_dict)
        np.testing.assert_array_equal(a.delays, b.delays)
