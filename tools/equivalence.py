"""Hash every output of the ttdbeam equivalence set, for same-bytes checks.

Run from anywhere as ``python3 tools/equivalence.py`` (no options).  The
script imports ``ttdbeam`` from the ``src`` directory of the checkout it sits
in, builds the reference system's dictionaries at A=61 and A=499, runs the
CLI's ``synth``, ``eval`` (hdb, and jpta on the default delay range and at
A=61 on 0.9 of it) and ``render`` (of the A=61 hdb ``eval`` summary and of
the ``synth`` config) on them, and prints one
``sha256  label`` line per output file.  A change that claims the
same bytes diffs this output against the parent commit's.  A first line,
starting with ``#``, names the numpy version and the CPU dispatch level the
hashes were taken at: numpy's baseline targets and the dispatch targets
enabled on this host.  Compare hashes only between runs whose first lines
match.  ``tools/equivalence.expected`` records the output at each dispatch
level measured so far, one block per level starting with its ``#`` line;
``tests/test_equivalence.py`` checks this host's run against it, and a
change that moves bytes updates it.

The dictionaries are built through the API so that their ``build_warnings``
and ``degenerate`` lists can be hashed too (the CLI prints only their
counts); ``ttdbeam dict-build`` runs as well at A=61 to cover the CLI path.
After each scale's CLI runs, one more line hashes the delays and phases bytes
of ``hdb.synthesize`` over a seeded stream of targets on that dictionary.  A
next line hashes ``report_csv_lines`` over a seeded report of about 10**6
SE values chosen to stress the CSV's shortest-digit kernel, and the last one
the delays and phases of the dictionary fit over seeded systems and grids.
The builds take as many threads as the CPUs the process may run on; the
serial rerun, ``taskset -c 0 python3 tools/equivalence.py``, leaves them one
CPU and so one thread, and must print the same lines.
All work happens in a temporary directory that is removed on exit.
The script exits non-zero if a CLI run fails or leaves a ``*.tmp`` file in
that directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from numpy._core import _multiarray_umath  # noqa: E402

from ttdbeam import cli  # noqa: E402
from ttdbeam.core import SystemConfig, direction_grid  # noqa: E402
from ttdbeam.dictionary import _two_subband_fit, build_dictionary, save  # noqa: E402
from ttdbeam.evaluation import EvalReport, EvalScenario, report_csv_lines  # noqa: E402
from ttdbeam.hdb import synthesize  # noqa: E402
from ttdbeam.solvers import SolverParams, default_max_delay  # noqa: E402
from ttdbeam.splitbeam import DirectionMap  # noqa: E402

SYSTEM = SystemConfig(n_antennas=16, n_subcarriers=1200, carrier_freq=28e9, bandwidth=3e9)
SYSTEM_FLAGS = ["--n", "16", "--fc", "28e9", "--bw", "3e9", "--m", "1200"]

# (dictionary grid size, [(label, CLI argv, output suffixes)]); in the argv, {dict} is the
# dictionary, {out} this run's output prefix and {prev} the previous run's
RUNS = (
    (61, [
        ("dict-build", ["dict-build", *SYSTEM_FLAGS, "--grid", "61", "--out", "{out}.ttdd"],
         (".ttdd", ".ttdd.json")),
        ("eval --ues 8 --trials 200 --seed 7",
         ["eval", "--dict", "{dict}", "--ues", "8", "--trials", "200", "--seed", "7",
          "--out-prefix", "{out}"], (".csv", ".summary.json")),
        ("render --summary (of that eval summary)",
         ["render", "--summary", "{prev}.summary.json", "--out", "{out}.svg"], (".svg",)),
        ("eval --synth jpta --ues 3 --trials 40 --seed 11",
         ["eval", "--dict", "{dict}", "--synth", "jpta", "--ues", "3", "--trials", "40",
          "--seed", "11", "--out-prefix", "{out}"], (".csv", ".summary.json")),
        ("eval --synth jpta --tmax-s 3.6e-7 --delay-grid 4096 --ues 3 --trials 4",
         ["eval", "--dict", "{dict}", "--synth", "jpta", "--tmax-s", "3.6e-7", "--delay-grid", "4096",
          "--ues", "3", "--trials", "4", "--out-prefix", "{out}"], (".csv", ".summary.json")),
        ("synth --dirs -0.4,0.4,-0.1",
         ["synth", "--dict", "{dict}", "--dirs", "-0.4,0.4,-0.1", "--out", "{out}.json"],
         (".json",)),
        ("render --config (of that synth config)",
         ["render", "--config", "{prev}.json", "--out", "{out}.svg"], (".svg",)),
    ]),
    (499, [
        ("eval --ues 3 --trials 200 --seed 20260811",
         ["eval", "--dict", "{dict}", "--ues", "3", "--trials", "200", "--seed", "20260811",
          "--out-prefix", "{out}"], (".csv", ".summary.json")),
        ("eval --synth jpta --ues 3 --trials 20 --seed 5",
         ["eval", "--dict", "{dict}", "--synth", "jpta", "--ues", "3", "--trials", "20",
          "--seed", "5", "--out-prefix", "{out}"], (".csv", ".summary.json")),
    ]),
)


# dictionary grid size -> (targets, user counts drawn from, on the A-point grid?, seed)
STREAMS = {
    61: (2000, (1, 2, 3, 4, 5, 6, 8), False, 61),
    499: (1000, (3,), True, 499),
}


def _synth_stream_sha256(built, count: int, user_counts: tuple, on_grid: bool, seed: int) -> str:
    """sha256 of delays then phases bytes of every synthesized config of a seeded target stream."""
    rng = np.random.default_rng(seed)
    grid = direction_grid(built.direction_grid_size)
    digest = hashlib.sha256()
    for _ in range(count):
        g = int(rng.choice(user_counts))
        dirs = grid[rng.integers(0, grid.size, g)] if on_grid else rng.uniform(-1.0, 1.0, g)
        phi = synthesize(DirectionMap(dirs), built, SYSTEM)
        digest.update(phi.delays.tobytes())
        digest.update(phi.phases.tobytes())
    return digest.hexdigest()


def _adversarial_values() -> np.ndarray:
    """Doubles that stress a shortest round-trip digit kernel; tests/test_evaluation.py tests the same table.

    40 ulps either side of each 10**k and float("1e{k}") for k = -5 .. 16,
    powers of two, integers, decimals of 1 .. 17 significant digits, values
    halfway between two 17- or 16-digit decimals, and nan, +-inf, +-0,
    subnormals, 5e-324 and the largest double.
    """
    values = []
    for k in range(-5, 17):
        for base in (10.0**k, float(f"1e{k}")):
            up = down = base
            values.append(base)
            for _ in range(40):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                values += [up, down]
    values += [2.0**e for e in range(-20, 60)] + [-(2.0**e) for e in range(-3, 4)]
    values += [float(i) for i in range(1, 1001)] + [float(3**e) for e in range(40)]
    digits = np.random.default_rng(17)
    for n in range(1, 18):
        for _ in range(200):
            mantissa = int(digits.integers(10 ** (n - 1), 10**n))
            values.append(float(f"{mantissa}e{int(digits.integers(-6, 17)) - n + 1}"))
    for start in (2**50, 2**51, 2**52 - 200):  # quarters: x * 10 ends in .5, a 17-digit tie
        values += [start + i + q for i in range(50) for q in (0.25, 0.5, 0.75)]
    tiny = np.finfo(np.float64).tiny
    values += [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, tiny, tiny / 3, 1e-310, 2.5e-308,
               np.finfo(np.float64).max, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05]
    return np.array(values, dtype=np.float64)


def _adversarial_csv_sha256() -> str:
    """sha256 of the CSV of a seeded report of 834 trials x 1200 SE values, 1 000 800 in all.

    The report's values are the adversarial table above, then, in equal
    thirds, raw float64 bit patterns, bit patterns from 1e-4 to 1e16 (the
    digit kernel's range) and exponential SE-like values, all from seed 25.
    Its directions are raw bit patterns too.
    """
    rng = np.random.default_rng(25)
    trials, m_count = 834, SYSTEM.n_subcarriers
    table = _adversarial_values()
    third = -(-(trials * m_count - table.size) // 3)
    fast_bits = (int(np.float64(1e-4).view(np.uint64)), int(np.float64(1e16).view(np.uint64)))
    se = np.concatenate([
        table,
        rng.integers(0, 2**64, third, dtype=np.uint64, endpoint=False).view(np.float64),
        rng.integers(*fast_bits, third, dtype=np.uint64).view(np.float64),
        rng.exponential(4.0, third),
    ])[: trials * m_count].reshape(trials, m_count)
    dirs = rng.integers(0, 2**64, (trials, 8), dtype=np.uint64, endpoint=False).view(np.float64)
    report = EvalReport(se, dirs, upper_bound=7.0, synthesizer="hdb", master_seed=25)
    digest = hashlib.sha256()
    for item in report_csv_lines(report, EvalScenario(SYSTEM, 8, 10.0, 61, trials, 25)):
        digest.update(item.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _fit_sha256(count: int, seed: int) -> str:
    """sha256 of delays then phases bytes of ``_two_subband_fit`` over seeded draws of (delta, K, fc/BW).

    N = 16, M = 1200 and BW = 3 GHz on the default delay range (one period
    M/BW); delta is uniform in [0, 2], the grid size K in [M, 64M) and fc/BW
    in [0.6, 20].  With seed 26, 265 of the 300 fits are certified on every
    antenna by their inner lobe windows; in 32, 93 antennas in all fall back
    to the whole windows; and 3 have K < 2M and evaluate the whole grid.
    """
    rng = np.random.default_rng(seed)
    m_count = SYSTEM.n_subcarriers
    digest = hashlib.sha256()
    for _ in range(count):
        delta, size = float(rng.uniform(0.0, 2.0)), int(rng.integers(m_count, 64 * m_count))
        cfg = SystemConfig(16, m_count, float(rng.uniform(0.6, 20.0)) * SYSTEM.bandwidth, SYSTEM.bandwidth)
        solver = SolverParams(max_delay=default_max_delay(cfg), delay_grid_size=size)
        delays, phases = _two_subband_fit([delta], solver, cfg)  # one offset: rows (1, 16)
        digest.update(delays.tobytes())
        digest.update(phases.tobytes())
    return digest.hexdigest()


def _dispatch_level() -> str:
    """numpy's version, its baseline CPU targets, and the dispatch targets enabled on this host."""
    features = _multiarray_umath.__cpu_features__
    enabled = [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)]
    return (f"# numpy {np.__version__}, baseline {' '.join(_multiarray_umath.__cpu_baseline__)}, "
            f"dispatch {' '.join(enabled) or '(none)'}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv: list[str], work: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"ttdbeam {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    leftovers = sorted(p.name for p in work.glob("*.tmp"))
    if leftovers:
        raise SystemExit(f"ttdbeam {' '.join(argv)} left temporary files: {', '.join(leftovers)}")


def main() -> None:
    print(_dispatch_level())
    solver = SolverParams(max_delay=default_max_delay(SYSTEM), delay_grid_size=65536)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for grid, runs in RUNS:
            scale = f"A={grid}"
            dict_path = work / f"a{grid}.ttdd"
            built = build_dictionary(SYSTEM, grid, solver)
            save(built, dict_path)
            quality = work / f"a{grid}.quality.json"
            with open(quality, "w", encoding="utf-8") as fh:
                json.dump({"build_warnings": list(built.build_warnings),
                           "degenerate": list(built.degenerate)}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"{_sha256(dict_path)}  {scale} build .ttdd")
            print(f"{_sha256(Path(f'{dict_path}.json'))}  {scale} build sidecar")
            print(f"{_sha256(quality)}  {scale} build_warnings ({len(built.build_warnings)}) "
                  f"and degenerate ({len(built.degenerate)})")
            prev = None
            for i, (label, argv, suffixes) in enumerate(runs):
                out = work / f"a{grid}-run{i}"
                _cli([a.format(dict=dict_path, out=out, prev=prev) for a in argv], work)
                for suffix in suffixes:
                    print(f"{_sha256(Path(f'{out}{suffix}'))}  {scale} {label} {suffix}")
                prev = out
            count, user_counts, on_grid, seed = STREAMS[grid]
            kind = "on-grid" if on_grid else "off-grid"
            print(f"{_synth_stream_sha256(built, count, user_counts, on_grid, seed)}  {scale} "
                  f"hdb.synthesize {count} {kind} targets, G in {set(user_counts)}, seed {seed}")
            sys.stdout.flush()
    print(f"{_adversarial_csv_sha256()}  report_csv_lines of 1 000 800 adversarial SE values, seed 25")
    print(f"{_fit_sha256(300, 26)}  _two_subband_fit of 300 seeded (delta, K, fc/BW) draws, seed 26")


if __name__ == "__main__":
    main()
