"""Workload definitions and seeded input generation for the ttdbeam benchmark.

Both workloads use the reference system of the paper (N=16 antennas,
M=1200 subcarriers over 3 GHz at 28 GHz, 10 dB SNR) and the default solver
(one correlation period of delay, 65 536-point delay grid).  They differ in
the dictionary size and in the load put on it; README.md says why.

Importing this module puts the checkout's ``src`` directory first on the
import path and imports ``ttdbeam`` from there, so the benchmark always
measures the source tree it sits in.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    package = SRC / "ttdbeam"
    if not (package / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {package}; "
            "run the benchmark from the root of a ttdbeam checkout"
        )
    sys.path.insert(0, str(SRC))
    import ttdbeam

    if Path(ttdbeam.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported ttdbeam from {ttdbeam.__file__}, not {package}")
    return ttdbeam


ttdbeam = _import_program()

from ttdbeam.core import SystemConfig  # noqa: E402
from ttdbeam.evaluation import EvalScenario  # noqa: E402
from ttdbeam.solvers import SolverParams, default_max_delay  # noqa: E402
from ttdbeam.splitbeam import DirectionMap  # noqa: E402

SYSTEM = SystemConfig(n_antennas=16, n_subcarriers=1200, carrier_freq=28e9, bandwidth=3e9)
SOLVER = SolverParams(max_delay=default_max_delay(SYSTEM), n_iterations=30, delay_grid_size=65536)
SNR_LINEAR = 10.0  # 10 dB


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int  # direction grid size A; the dictionary has 2A-1 entries
    stream_len: int  # synthesis targets per synth round
    stream_g: tuple[int, ...]  # user counts the synthesis targets draw from
    on_grid: bool  # synthesis targets on the A-point grid, or uniform in [-1, 1]
    direct_calls: int  # direct (jpta) syntheses per direct round
    direct_g: int
    eval_g: int
    eval_trials: int  # Monte-Carlo trials per eval round
    eval_seed: int  # fixed, so the quality metrics are exact for the workload
    rebuild: bool  # build the dictionary again in every cycle, not only the first
    claims: bool  # check the paper's criteria 5-7 on the eval output


WORKLOADS = {
    "paper": Workload(
        name="paper",
        grid=499,
        stream_len=1000,
        stream_g=(3,),
        on_grid=True,
        direct_calls=3,
        direct_g=3,
        eval_g=3,
        eval_trials=200,
        eval_seed=20260811,  # the acceptance suite's seed
        rebuild=False,
        claims=True,
    ),
    "serve": Workload(
        name="serve",
        grid=61,
        stream_len=1500,
        stream_g=(2, 3, 4, 5, 6, 8),
        on_grid=False,
        direct_calls=3,
        direct_g=8,
        eval_g=8,
        eval_trials=500,
        eval_seed=61_008,
        rebuild=True,
        claims=False,
    ),
}


@dataclass(frozen=True)
class Inputs:
    stream: list  # DirectionMap per synthesis target
    direct: list  # DirectionMap per direct call
    shifts: np.ndarray  # whole grid steps to shift each stream target by (shift check)
    scenario: EvalScenario


def grid_points(size: int) -> np.ndarray:
    """The A-point direction grid -1 + 2a/(A-1)."""
    return -1.0 + 2.0 * np.arange(size, dtype=np.float64) / (size - 1)


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Everything the workload feeds the program, derived from ``seed`` alone."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, sum(map(ord, wl.name))]))
    grid = grid_points(wl.grid)
    stream = []
    shifts = np.zeros(wl.stream_len, dtype=np.int64)
    step = 2.0 / (wl.grid - 1)
    for i in range(wl.stream_len):
        g = int(rng.choice(wl.stream_g))
        if wl.on_grid:
            dirs = grid[rng.integers(0, wl.grid, size=g)]
        else:
            dirs = rng.uniform(-1.0, 1.0, size=g)
        stream.append(DirectionMap(dirs))
        # shift range that keeps every shifted direction inside [-1, 1],
        # with a margin so rounding in dirs + k*step cannot leave it
        lo = int(np.ceil((-1.0 - dirs.min()) / step + 1e-9))
        hi = int(np.floor((1.0 - dirs.max()) / step - 1e-9))
        shifts[i] = rng.integers(lo, hi + 1) if hi >= lo else 0
    direct = [
        DirectionMap(grid[rng.integers(0, wl.grid, size=wl.direct_g)])
        for _ in range(wl.direct_calls)
    ]
    scenario = EvalScenario(
        cfg=SYSTEM,
        n_subbands=wl.eval_g,
        snr_linear=SNR_LINEAR,
        direction_grid_size=wl.grid,
        n_trials=wl.eval_trials,
        master_seed=wl.eval_seed,
    )
    return Inputs(stream=stream, direct=direct, shifts=shifts, scenario=scenario)
