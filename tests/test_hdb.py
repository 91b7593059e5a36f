import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttdbeam.core import (
    ArrayConfig,
    PsiGrid,
    SystemConfig,
    _gain_profiles,
    argmax_directions,
    beampattern_of_precoder,
    precoder_matrix,
    wrap_sine,
)
from ttdbeam.dictionary import GeneratorDictionary, offset_grid
from ttdbeam.evaluation import direction_grid
from ttdbeam.hdb import (
    DictionaryCompatibilityError,
    _band_plan,
    _compose,
    _rescale,
    decompose,
    generator_bands,
    generator_set,
    make_hdb_synthesizer,
    scale_shift,
    synthesize,
    synthesize_batch,
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

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fc_new=st.floats(min_value=20e9, max_value=40e9),
        bw_new=st.floats(min_value=0.5e9, max_value=12e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear(self, seed, fc_new, bw_new):
        # scale_shift(a + b) = scale_shift(a) + scale_shift(b), to rounding
        # of the terms: 4 eps of the delays, 8 eps of the largest phase term
        cfg = SystemConfig(16, 48, 28e9, 3e9)
        rng = np.random.default_rng(seed)
        a, b = (ArrayConfig(rng.uniform(-2e-9, 2e-9, 16), rng.uniform(-2 * np.pi, 2 * np.pi, 16))
                for _ in range(2))
        whole = scale_shift(a + b, fc_new, bw_new, cfg)
        parts = [scale_shift(x, fc_new, bw_new, cfg) for x in (a, b)]
        eps = np.finfo(np.float64).eps
        delay_err = np.abs(whole.delays - (parts[0].delays + parts[1].delays))
        assert (delay_err <= 4 * eps * (np.abs(parts[0].delays) + np.abs(parts[1].delays))).all()
        f = max(cfg.carrier_freq, fc_new * cfg.bandwidth / bw_new)
        t_max = np.abs(a.delays).max() + np.abs(b.delays).max()
        p_max = np.abs(a.phases).max() + np.abs(b.phases).max()
        phase_err = np.abs(whole.phases - (parts[0].phases + parts[1].phases))
        assert phase_err.max() <= 8 * eps * (p_max + 2 * np.pi * f * t_max)

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

    def test_coinciding_band_boundaries_rejected(self):
        # at 1e20 Hz the float band boundaries 1/3 Hz apart would collide: the system itself is refused
        with pytest.raises(ValueError, match="subcarrier spacing"):
            SystemConfig(4, 6, 1e20, 1.0)

    def test_overflowing_sum_rejected(self):
        # no dictionary holds phases of 1e308 (its rows lie within 2**42 rad), but the sum still checks:
        # two such rows, each finite, sum to inf
        cfg = SystemConfig(4, 6, 28e9, 3e9)
        alpha, slope = _band_plan(3, cfg)
        with pytest.raises(ValueError, match="must be finite"), pytest.warns(RuntimeWarning, match="overflow"):
            _compose(np.zeros(4), np.zeros((2, 4)), np.full((2, 4), 1e308), alpha, slope, cfg)

    @pytest.mark.parametrize("dirs", [[0.3], [0.3, -0.5], [0.3, -0.5, 1.0]])
    def test_vectors_read_only_and_apart_from_the_table(self, small_dict, cfg_dict, dirs):
        phi = synthesize(DirectionMap(np.array(dirs)), small_dict, cfg_dict)
        for vector in (phi.delays, phi.phases):
            assert not vector.flags.writeable
            assert vector.dtype == np.float64 and vector.shape == (cfg_dict.n_antennas,)
            assert not np.shares_memory(vector, small_dict.delays)
            assert not np.shares_memory(vector, small_dict.phases)

    def test_generator_set_sums_to_targets(self, cfg_dict):
        dmap = DirectionMap(np.array([0.9, -0.9, 0.3]))
        deltas = generator_set(dmap)
        np.testing.assert_allclose(np.cumsum(deltas), dmap.directions, atol=1e-15)
        assert deltas.shape == (3,)

    def test_plan_offsets_bitwise_numpy_diff(self, cfg_dict, rng):
        grid = direction_grid(41)
        for i in range(400):
            g = int(rng.choice([1, 2, 3, 4, 6, 8]))
            dirs = rng.choice(grid, g) if i % 2 else rng.uniform(-1.0, 1.0, g)
            if i % 7 == 0:
                dirs[0] = -0.0
            deltas = generator_set(DirectionMap(dirs))
            assert deltas.tobytes() == np.diff(dirs, prepend=0.0).tobytes()

    def test_homomorphic_consistency(self, small_dict, cfg_dict):
        # the synthesized config's precoder equals the scaled elementwise
        # product of its generators' precoders, independent of entry quality
        dmap = DirectionMap(np.array([-0.3, 0.5, 0.1]))
        deltas = generator_set(dmap)
        parts = [constant_direction_config(float(deltas[0]), cfg_dict)]
        for g in (2, 3):
            entry = small_dict.lookup(float(deltas[g - 1]))
            parts.append(scale_shift(entry, *generator_bands(g, 3, cfg_dict), cfg_dict))
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
        profiles = _gain_profiles(phi.delays, phi.phases, dmap.directions, cfg_dict)
        for b in range(3):
            gains = profiles[b, b * block : (b + 1) * block]
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
                pattern = beampattern_of_precoder(precoder_matrix(phi, cfg_dict), cfg_dict, psi_grid)
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

    @pytest.mark.parametrize("a", [5, 61])
    def test_bitwise_the_config_sum(self, a):
        cfg = SystemConfig(16, 840, 28e9, 3e9)  # 840 subcarriers split into any G <= 8
        rng = np.random.default_rng(a)
        d = 2 * a - 1
        table = GeneratorDictionary(
            offset_grid(a), rng.normal(0.0, 3e-10, (d, 16)), rng.uniform(-7.0, 7.0, (d, 16)), cfg, a
        )
        grid = direction_grid(a)
        for i in range(1000):
            g_count = int(rng.integers(1, 9))
            dirs = grid[rng.integers(0, a, g_count)] if i % 2 else rng.uniform(-1.0, 1.0, g_count)
            dmap = DirectionMap(dirs)
            oracle = _config_sum(dmap, table, cfg)
            phi = synthesize(dmap, table, cfg)
            assert phi.delays.tobytes() == oracle.delays.tobytes()
            assert phi.phases.tobytes() == oracle.phases.tobytes()

    def test_hdb_synthesizer_wrapper(self, small_dict, cfg_dict):
        fn = make_hdb_synthesizer(small_dict)
        dmap = DirectionMap(np.array([0.1, -0.2]))
        a = fn(dmap, cfg_dict)
        b = synthesize(dmap, small_dict, cfg_dict)
        np.testing.assert_array_equal(a.delays, b.delays)


def _config_sum(dmap: DirectionMap, table: GeneratorDictionary, cfg: SystemConfig) -> ArrayConfig:
    """Oracle: the composition on ArrayConfig objects, summed with ArrayConfig.__add__."""
    deltas = generator_set(dmap)
    total = constant_direction_config(float(deltas[0]), cfg)
    for g in range(2, deltas.size + 1):
        entry = table.lookup(float(deltas[g - 1]))
        total = total + scale_shift(entry, *generator_bands(g, deltas.size, cfg), cfg)
    return total


def _random_table(cfg: SystemConfig, a: int, seed: int) -> GeneratorDictionary:
    rng = np.random.default_rng(seed)
    d = 2 * a - 1
    delays = rng.normal(0.0, 3e-10, (d, cfg.n_antennas))
    return GeneratorDictionary(offset_grid(a), delays, rng.uniform(-7.0, 7.0, (d, cfg.n_antennas)), cfg, a)


class TestRescale:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        g_count=st.sampled_from([2, 3, 4, 5, 6, 8]),
        fc=st.floats(min_value=1e9, max_value=100e9),
        bw_ratio=st.floats(min_value=1e-3, max_value=1.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_written_out_formula(self, seed, g_count, fc, bw_ratio):
        # delays / alpha and phases - 2*pi*fc*delays + (2*pi*fc_new/alpha)*delays, element by
        # element on Python floats, for the stacked rows of a plan and for scale_shift
        cfg = SystemConfig(16, 120, fc, bw_ratio * fc)
        rng = np.random.default_rng(seed)
        delays = rng.normal(0.0, 3e-10, (g_count - 1, 16))
        phases = rng.uniform(-7.0, 7.0, (g_count - 1, 16))
        alpha, slope = _band_plan(g_count, cfg)
        stacked = _rescale(delays, phases, alpha, slope, cfg)
        for row in range(g_count - 1):
            fc_new, bw_new = generator_bands(row + 2, g_count, cfg)
            a = bw_new / cfg.bandwidth
            expected_delays = np.array([t / a for t in delays[row].tolist()])
            expected_phases = np.array([
                p - 2.0 * math.pi * cfg.carrier_freq * t + (2.0 * math.pi * fc_new / a) * t
                for t, p in zip(delays[row].tolist(), phases[row].tolist())
            ])
            shifted = scale_shift(ArrayConfig(delays[row], phases[row]), fc_new, bw_new, cfg)
            for got_delays, got_phases in (
                (stacked[0][row], stacked[1][row]),
                (shifted.delays, shifted.phases),
            ):
                assert got_delays.tobytes() == expected_delays.tobytes()
                assert got_phases.tobytes() == expected_phases.tobytes()


class TestPlanCache:
    CFG = SystemConfig(4, 24, 28e9, 3e9)

    def test_interleaved_systems_stay_bitwise(self):
        # same G, a different carrier: a plan served for the wrong system would show in the bits
        systems = [self.CFG, SystemConfig(4, 24, 31e9, 3e9), SystemConfig(4, 24, 28e9, 2e9)]
        tables = [_random_table(cfg, 5, seed=k) for k, cfg in enumerate(systems)]
        rng = np.random.default_rng(16)
        for i in range(300):
            k = i % len(systems)
            dmap = DirectionMap(rng.uniform(-1.0, 1.0, int(rng.choice([1, 2, 3, 4, 6, 8]))))
            phi = synthesize(dmap, tables[k], systems[k])
            oracle = _config_sum(dmap, tables[k], systems[k])
            assert phi.delays.tobytes() == oracle.delays.tobytes()
            assert phi.phases.tobytes() == oracle.phases.tobytes()
            delays, phases = synthesize_batch(dmap.directions[None, :], tables[k], systems[k])
            assert delays.tobytes() == oracle.delays.tobytes()
            assert phases.tobytes() == oracle.phases.tobytes()

    def test_failed_checks_raise_on_every_call(self):
        table = _random_table(self.CFG, 5, seed=0)
        for _ in range(3):
            with pytest.raises(ValueError, match="5 subbands do not divide 24"):
                synthesize(DirectionMap(np.zeros(5)), table, self.CFG)
            with pytest.raises(ValueError, match="5 subbands do not divide 24"):
                synthesize_batch(np.zeros((2, 5)), table, self.CFG)

    def test_dictionary_checked_after_a_cached_success(self):
        other = SystemConfig(4, 24, 31e9, 3e9)
        table, other_table = _random_table(self.CFG, 5, seed=0), _random_table(other, 5, seed=1)
        dmap = DirectionMap(np.array([0.1, -0.2, 0.3]))
        synthesize(dmap, table, self.CFG)
        synthesize(dmap, other_table, other)
        for _ in range(2):
            with pytest.raises(DictionaryCompatibilityError):
                synthesize(dmap, table, other)
            with pytest.raises(DictionaryCompatibilityError):
                synthesize_batch(dmap.directions[None, :], other_table, self.CFG)

    def test_cached_columns_are_read_only(self):
        alpha, slope = _band_plan(3, self.CFG)
        assert alpha.shape == slope.shape == (2, 1)
        for column in (alpha, slope):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 1.0


def _stacked(directions, dictionary, cfg):
    configs = [synthesize(DirectionMap(row), dictionary, cfg) for row in directions]
    return np.stack([c.delays for c in configs]), np.stack([c.phases for c in configs])


class TestSynthesizeBatch:
    CFG = SystemConfig(4, 24, 28e9, 3e9)  # 24 subcarriers split into G in {1, 2, 3, 4, 6, 8, 12, 24}

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_the_stacked_calls(self, data):
        a = data.draw(st.sampled_from([2, 3, 5, 61]), label="a")
        g_count = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]), label="g")
        b_count = data.draw(st.integers(1, 6), label="targets")
        direction = st.one_of(
            st.sampled_from(direction_grid(a).tolist()),
            st.sampled_from([-1.0, 1.0, -0.0, 0.0]),
            st.floats(-1.0, 1.0),
        )
        directions = np.array(
            data.draw(st.lists(st.lists(direction, min_size=g_count, max_size=g_count),
                               min_size=b_count, max_size=b_count), label="directions")
        )
        table = _random_table(self.CFG, a, seed=a * 31 + g_count)
        delays, phases = synthesize_batch(directions, table, self.CFG)
        ref_delays, ref_phases = _stacked(directions, table, self.CFG)
        assert delays.tobytes() == ref_delays.tobytes()
        assert phases.tobytes() == ref_phases.tobytes()

    @pytest.mark.parametrize("g_count", [1, 2, 3])
    def test_signed_zeros_and_endpoints(self, g_count):
        # every G-tuple of -1, -0.0, 0.0 and 1: the first offset keeps the sign of a zero
        values = np.array([-1.0, -0.0, 0.0, 1.0])
        directions = values[np.indices((4,) * g_count).reshape(g_count, -1).T]
        table = _random_table(self.CFG, 5, seed=g_count)
        delays, phases = synthesize_batch(directions, table, self.CFG)
        ref_delays, ref_phases = _stacked(directions, table, self.CFG)
        assert delays.tobytes() == ref_delays.tobytes()
        assert phases.tobytes() == ref_phases.tobytes()

    def test_repeated_and_signed_zero_offsets(self):
        # each distinct offset is searched once: offsets repeat across targets and generators, and
        # column 1 holds both -0.0 and 0.0, which np.unique merges into one search
        base = np.array([[0.0, -0.0, 0.0, 0.5, 0.5, -0.25, 0.7, 0.7],
                         [0.0, 0.0, -0.0, 0.5, 0.0, -0.25, 0.45, 0.7]])
        directions = np.vstack([base, base[::-1], np.random.default_rng(8).uniform(-1, 1, (4, 8)).round(1)])
        deltas = np.diff(directions, axis=1)
        assert np.signbit(deltas[:2, 0]).tolist() == [True, False]
        assert np.unique(deltas).size < deltas.size / 2
        table = _random_table(self.CFG, 61, seed=8)
        delays, phases = synthesize_batch(directions, table, self.CFG)
        ref_delays, ref_phases = _stacked(directions, table, self.CFG)
        assert delays.tobytes() == ref_delays.tobytes()
        assert phases.tobytes() == ref_phases.tobytes()

    @pytest.mark.parametrize(
        "directions, cfg, error",
        [
            ([[0.0, 1.5]], CFG, ValueError),  # a direction, and so an offset, out of range
            ([[-0.5, 0.5], [0.25, np.nan]], CFG, ValueError),
            ([[0.0, 0.5]], SystemConfig(4, 48, 28e9, 3e9), DictionaryCompatibilityError),
            ([[0.0, 0.5, 0.0, 0.5, 0.0]], CFG, ValueError),  # 5 subbands do not divide 24
        ],
    )
    def test_same_exceptions_as_synthesize(self, directions, cfg, error):
        table = _random_table(self.CFG, 5, seed=0)
        with pytest.raises(error):
            _stacked(directions, table, cfg)
        with pytest.raises(error):
            synthesize_batch(np.array(directions), table, cfg)

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (2, 3, 1)])
    def test_needs_a_targets_by_subbands_array(self, shape):
        table = _random_table(self.CFG, 5, seed=0)
        with pytest.raises(ValueError, match=r"need a \(targets, subbands\) array"):
            synthesize_batch(np.zeros(shape), table, self.CFG)

    @given(
        m=st.integers(2, 360),
        exponent=st.integers(-30, 70),
        mantissa=st.floats(1.0, 2.0, exclude_max=True),
        slack=st.floats(1.0, 1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_coinciding_band_boundaries_rejected(self, m, exponent, mantissa, slack):
        # systems at the spacing rule's bound, BW/M near 4 ulp of fc + BW/2: every G dividing M
        # keeps its band boundaries apart; a spacing a quarter of the bound is refused
        fc = math.ldexp(mantissa, exponent)
        bw = 4.0 * slack * m * math.ulp(fc)
        try:
            cfg = SystemConfig(4, m, fc, bw)
        except ValueError:  # the ulp of fc + BW/2 can be twice the ulp of fc
            assume(False)
        for g_count in (g for g in range(2, m + 1) if m % g == 0):
            boundaries = [generator_bands(g, g_count, cfg)[0] for g in range(2, g_count + 1)]
            assert all(lo < hi for lo, hi in zip(boundaries, boundaries[1:]))
        with pytest.raises(ValueError, match="subcarrier spacing"):
            SystemConfig(4, 4 * m, fc, bw / slack)

    def test_hdb_synthesizer_batch(self, small_dict, cfg_dict):
        directions = direction_grid(41)[np.random.default_rng(3).integers(0, 41, (7, 3))]
        delays, phases = make_hdb_synthesizer(small_dict).batch(directions, cfg_dict)
        ref_delays, ref_phases = _stacked(directions, small_dict, cfg_dict)
        assert delays.tobytes() == ref_delays.tobytes()
        assert phases.tobytes() == ref_phases.tobytes()
