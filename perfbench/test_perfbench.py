"""Self-tests of the benchmark's own formulas and output checks.

    python3 -m pytest -q perfbench

The checks must pass on intact program output and fail on output that was
corrupted on purpose: one dictionary row negated, one SE value off by 1e-6,
one CSV row dropped, one phase of a direct config moved, one shifted delay
moved, a synthesis served from the wrong dictionary row.
"""

import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402,F401  (puts the checkout's src first on the path)
from tracer import SpanTable, Tracer  # noqa: E402

from ttdbeam import hdb  # noqa: E402
from ttdbeam.core import SystemConfig, gain_at_directions  # noqa: E402
from ttdbeam.dictionary import GeneratorDictionary, build_dictionary, save  # noqa: E402
from ttdbeam.evaluation import EvalScenario, monte_carlo, report_csv_lines, summary_dict  # noqa: E402
from ttdbeam.solvers import SolverParams, default_max_delay, make_jpta_synthesizer  # noqa: E402
from ttdbeam.splitbeam import DirectionMap, expand_directions  # noqa: E402

CFG = SystemConfig(16, 120, 28e9, 3e9)
SYS = (CFG.n_antennas, CFG.n_subcarriers, CFG.carrier_freq, CFG.bandwidth)
SOLVER = SolverParams(max_delay=default_max_delay(CFG), n_iterations=30, delay_grid_size=65536)
GRID = 9
SNR = 10.0


@pytest.fixture(scope="module")
def built():
    return build_dictionary(CFG, GRID, SOLVER, workers=1)


@pytest.fixture(scope="module")
def eval_output(built, tmp_path_factory):
    scenario = EvalScenario(CFG, 3, SNR, GRID, 5, 7)
    report = monte_carlo(scenario, hdb.make_hdb_synthesizer(built), workers=1)
    csv = ("\n".join(report_csv_lines(report, scenario)) + "\n").encode("ascii")
    return scenario, report, csv, summary_dict(report, scenario)


def _ttdd_blob(d, offsets, delays, phases) -> bytes:
    header = struct.pack("<4siiiiidd", b"TTDD", 1, CFG.n_antennas, GRID, offsets.size,
                         CFG.n_subcarriers, CFG.carrier_freq, CFG.bandwidth)
    return header + offsets.astype("<f8").tobytes() + np.hstack([delays, phases]).astype("<f8").tobytes()


def _eval_checks(scenario, report, csv: bytes, summary: dict, built):
    bound = float(np.log2(1.0 + CFG.n_antennas * SNR))
    ok_csv, _, se, dirs = checks.check_eval_csv(csv, report.n_trials, scenario.n_subbands, CFG.n_subcarriers)
    if se is None:
        return {"csv": ok_csv}
    synth = hdb.make_hdb_synthesizer(built)
    configs = [synth(DirectionMap(row), CFG) for row in dirs]
    return {
        "csv": ok_csv,
        "summary": checks.check_eval_summary(se, summary, scenario.n_trials, scenario.n_subbands, bound)[0],
        "se": checks.check_eval_se(se, dirs, [(c.delays, c.phases) for c in configs], SYS, SNR)[0],
    }


# -- the benchmark's own array response ------------------------------------------


def test_single_antenna_has_unit_gain():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = checks.response(rng.uniform(-1e-9, 1e-9, 1), rng.uniform(-7, 7, 1),
                            rng.uniform(-1, 1, CFG.n_subcarriers), CFG.n_subcarriers,
                            CFG.carrier_freq, CFG.bandwidth)
        assert np.allclose(np.abs(g), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("delta", [-1.0, -0.37, 0.0, 0.5, 1.0])
def test_constant_direction_config_has_full_gain_at_every_subcarrier(delta):
    n = np.arange(CFG.n_antennas)
    g = checks.response(-delta * n / (2 * CFG.carrier_freq), np.zeros(CFG.n_antennas), delta,
                        1200, CFG.carrier_freq, CFG.bandwidth)
    assert np.allclose(np.abs(g), np.sqrt(CFG.n_antennas), rtol=0, atol=1e-9)


def test_response_agrees_with_program_gains(built):
    rng = np.random.default_rng(1)
    dmaps = [DirectionMap(rng.uniform(-1, 1, 3)) for _ in range(10)]
    configs = [hdb.synthesize(d, built, CFG) for d in dmaps]
    gains = [gain_at_directions(c, expand_directions(d, CFG), CFG) for c, d in zip(configs, dmaps)]
    ok, detail = checks.check_response([(c.delays, c.phases) for c in configs],
                                       [d.directions for d in dmaps], gains, SYS)
    assert ok, detail
    gains[4] = gains[4] * (1 + 1e-6)
    assert not checks.check_response([(c.delays, c.phases) for c in configs],
                                     [d.directions for d in dmaps], gains, SYS)[0]


# -- dictionary -------------------------------------------------------------------


def test_dictionary_checks_pass_on_the_saved_file(built, tmp_path):
    save(built, tmp_path / "d.ttdd")
    blob = (tmp_path / "d.ttdd").read_bytes()
    assert blob == _ttdd_blob(built, built.offsets, built.delays, built.phases)
    results = checks.check_ttdd_file(blob, built.offsets, built.delays, built.phases, GRID, SYS)
    assert len(results) == 6
    assert all(ok for _, ok, _ in results), results


def test_dictionary_checks_fail_on_a_negated_row(built):
    delays, phases = built.delays.copy(), built.phases.copy()
    row = 2  # any entry but the zero offset
    delays[row], phases[row] = -delays[row], -phases[row]
    blob = _ttdd_blob(built, built.offsets, delays, phases)
    results = dict((name, ok) for name, ok, _ in
                   checks.check_ttdd_file(blob, built.offsets, delays, phases, GRID, SYS))
    assert results["dict.mirror"] is False
    assert results["dict.size"] and results["dict.offsets"] and results["dict.zero_entry"]


def test_dictionary_checks_fail_on_a_truncated_file(built):
    blob = _ttdd_blob(built, built.offsets, built.delays, built.phases)[:-8]
    results = checks.check_ttdd_file(blob, built.offsets, built.delays, built.phases, GRID, SYS)
    assert results[0][0] == "dict.size" and not results[0][1]


# -- synthesis --------------------------------------------------------------------


def test_shift_check(built):
    step = 2.0 / (GRID - 1)
    dmap = DirectionMap(np.array([-0.5, 0.25, -0.25]))
    base = hdb.synthesize(dmap, built, CFG)
    moved = hdb.synthesize(DirectionMap(dmap.directions + 2 * step), built, CFG)
    ok, detail = checks.check_shift([(base.delays, base.phases)], [(moved.delays, moved.phases)], [2 * step], SYS)
    assert ok, detail
    bad = moved.delays.copy()
    bad[3] += 1e-18
    assert not checks.check_shift([(base.delays, base.phases)], [(bad, moved.phases)], [2 * step], SYS)[0]


def test_nearest_offset_tie_rule():
    step = 2.0 / (GRID - 1)
    assert checks.nearest_offset_index(-2.0, GRID) == 0
    assert checks.nearest_offset_index(2.0, GRID) == 2 * GRID - 2
    assert checks.nearest_offset_index(0.5 * step, GRID) == GRID - 1  # tie takes the smaller offset
    assert checks.nearest_offset_index(0.51 * step, GRID) == GRID


def test_synthesis_check_rebuilds_configs_from_the_table(built):
    step = 2.0 / (GRID - 1)
    rng = np.random.default_rng(2)
    dmaps = [DirectionMap(rng.uniform(-1, 1, g)) for g in (2, 3, 5, 8)]
    dmaps.append(DirectionMap(np.array([0.0, 0.5 * step, -0.5])))  # a tie
    configs = [hdb.synthesize(d, built, CFG) for d in dmaps]
    dirs = [d.directions for d in dmaps]
    pairs = [(c.delays, c.phases) for c in configs]
    ok, detail, snap = checks.check_synthesis(pairs, dirs, built.delays, built.phases, GRID, SYS)
    assert ok, detail
    assert 0 < snap <= step / 2 + 1e-12


def test_synthesis_check_fails_when_a_wrong_row_is_served(built):
    # a dictionary whose rows sit one offset off: synthesis serves the neighbour's row
    shifted = GeneratorDictionary(built.offsets, np.roll(built.delays, 1, axis=0),
                                  np.roll(built.phases, 1, axis=0), built.meta, built.direction_grid_size)
    dmap = DirectionMap(np.array([-0.5, 0.25, -0.25]))
    phi = hdb.synthesize(dmap, shifted, CFG)
    ok, _, _ = checks.check_synthesis([(phi.delays, phi.phases)], [dmap.directions],
                                      built.delays, built.phases, GRID, SYS)
    assert not ok
    # and a phase moved by 1e-6 rad
    good = hdb.synthesize(dmap, built, CFG)
    phases = good.phases.copy()
    phases[7] += 1e-6
    assert not checks.check_synthesis([(good.delays, phases)], [dmap.directions],
                                      built.delays, built.phases, GRID, SYS)[0]


def test_direct_check():
    dmap = DirectionMap(np.array([0.5, -0.25, 0.75]))
    phi = make_jpta_synthesizer(SOLVER)(dmap, CFG)
    args = (SYS, SOLVER.max_delay, SOLVER.delay_grid_size, 512, 0)
    ok, detail = checks.check_direct([(phi.delays, phi.phases)], [dmap.directions], *args)
    assert ok, detail
    phases = phi.phases.copy()
    phases[5] += 1e-6
    assert not checks.check_direct([(phi.delays, phases)], [dmap.directions], *args)[0]
    delays = phi.delays.copy()
    delays[5] = (delays[5] + SOLVER.max_delay / 2) % SOLVER.max_delay  # a worse grid delay
    assert not checks.check_direct([(delays, phi.phases)], [dmap.directions], *args)[0]


# -- evaluation output ------------------------------------------------------------


def test_eval_checks_pass_on_intact_output(built, eval_output):
    results = _eval_checks(*eval_output, built)
    assert results == {"csv": True, "summary": True, "se": True}


def test_eval_checks_fail_on_an_se_value_off_by_1e_6(built, eval_output):
    scenario, report, csv, summary = eval_output
    lines = csv.decode("ascii").split("\n")
    fields = lines[77].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    lines[77] = ",".join(fields)
    results = _eval_checks(scenario, report, "\n".join(lines).encode("ascii"), summary, built)
    assert results["csv"] and not results["se"]


def test_eval_checks_fail_on_a_dropped_csv_row(built, eval_output):
    scenario, report, csv, summary = eval_output
    lines = csv.decode("ascii").split("\n")
    del lines[200]
    results = _eval_checks(scenario, report, "\n".join(lines).encode("ascii"), summary, built)
    assert results == {"csv": False}


def test_eval_summary_check_fails_on_miscounted_trials(built, eval_output):
    scenario, report, csv, summary = eval_output
    summary = json.loads(json.dumps(summary))
    summary["failures"] = [[0, "lost"]]
    assert not _eval_checks(scenario, report, csv, summary, built)["summary"]


def test_paper_claims_flag_a_low_subband():
    se = np.full((4, 120), 9.0)
    ok = checks.check_claims(checks.quality(se, 3, 10.0))
    assert all(v for _, v, _ in ok)
    se[:, :40] = 5.0
    bad = dict((n, v) for n, v, _ in checks.check_claims(checks.quality(se, 3, 10.0)))
    assert not bad["claim.ase_per_subband"] and not bad["claim.low_se_fraction"]


# -- tracer -----------------------------------------------------------------------


def test_tracer_spans_nest_and_originals_come_back(built):
    tracer = Tracer()
    original = hdb.synthesize
    with tracer.installed():
        assert hdb.synthesize is not original
        with tracer.span("phase.synth"):
            hdb.synthesize(DirectionMap(np.array([0.1, -0.2, 0.3])), built, CFG)
    assert hdb.synthesize is original
    table = SpanTable(tracer.spans)
    assert table.count("synth", "hdb.synthesize") == 1
    assert table.count("synth", "hdb.lookup") == 2
    assert table.self_sum_gap_ns("synth") == 0 and table.overlapping == 0
    assert "synth:hdb.plan" not in table.dead()
