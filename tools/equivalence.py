"""Hash every output of the ttdbeam equivalence set, for same-bytes checks.

Run from anywhere as ``python3 tools/equivalence.py`` (no options).  The
script imports ``ttdbeam`` from the ``src`` directory of the checkout it sits
in, builds the reference system's dictionaries at A=61 and A=499, runs the
CLI's ``synth``, ``eval`` (hdb and jpta) and ``render`` (of the A=61 hdb
``eval`` summary and of the ``synth`` config) on them, and prints one
``sha256  label`` line per output file.  A change that claims the
same bytes diffs this output against the parent commit's.

The dictionaries are built through the API so that their ``build_warnings``
and ``degenerate`` lists can be hashed too (the CLI prints only their
counts); ``ttdbeam dict-build`` runs as well at A=61 to cover the CLI path.
After each scale's CLI runs, one more line hashes the delays and phases bytes
of ``hdb.synthesize`` over a seeded stream of targets on that dictionary.
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

from ttdbeam import cli  # noqa: E402
from ttdbeam.core import SystemConfig, direction_grid  # noqa: E402
from ttdbeam.dictionary import build_dictionary, save  # noqa: E402
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


if __name__ == "__main__":
    main()
