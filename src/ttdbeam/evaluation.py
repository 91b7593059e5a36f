"""Monte-Carlo spectral-efficiency evaluation over random user placements.

Each trial draws one direction per subband from a discrete uniform grid,
synthesizes a config with the procedure under test, and scores every
subcarrier as log2(1 + |gain at the assigned direction|^2 * SNR).  Trials are
seeded independently from the master seed, and every trial's directions are
drawn before any synthesis.  All trials are then synthesized, in one batch
call when the synthesizer offers one (the hdb synthesizer does) and one call
per trial otherwise or when the batch call fails, and their gains are
evaluated in fixed chunks of trials.  A trial's numbers do not depend on its
chunk, so a report is byte-identical from run to run.  A report stores the
SE rows and directions only; its means and ECDF are computed from them when
asked.
"""

from __future__ import annotations

import numbers
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .core import SystemConfig, _gains_at_directions, _readonly, _require_antennas, direction_grid
# gain_at_directions and expand_directions are no longer called here but stay
# importable as evaluation attributes, the paths perfbench/tracer.py wraps
from .core import gain_at_directions  # noqa: F401
from .dictionary import worker_count
from .solvers import SynthesisFn
from .splitbeam import DirectionMap, expand_directions, subband_width  # noqa: F401

__all__ = [
    "EvalScenario",
    "EvalReport",
    "Ecdf",
    "direction_grid",
    "upper_bound_se",
    "monte_carlo",
    "ecdf",
    "runtime_bench",
    "report_csv_lines",
    "summary_dict",
]

RNG_ALGORITHM = "pcg64-seedsequence(master_seed, trial)"
_WARMUP_CALLS = 3  # untimed calls per synthesizer in runtime_bench
_CHUNK_TRIALS = 16  # trials whose gains are evaluated together; their (chunk, M) arrays stay in cache


@dataclass(frozen=True)
class EvalScenario:
    """System, user count, SNR, direction grid, and trial budget for one experiment."""

    cfg: SystemConfig
    n_subbands: int
    snr_linear: float
    direction_grid_size: int
    n_trials: int
    master_seed: int

    def __post_init__(self) -> None:
        for name in ("n_subbands", "direction_grid_size", "n_trials", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.n_subbands < 1:
            raise ValueError(f"need at least one subband, got {self.n_subbands}")
        subband_width(self.n_subbands, self.cfg.n_subcarriers)
        if not 0.0 < self.snr_linear < np.inf:
            raise ValueError(f"snr_linear must be positive and finite, got {self.snr_linear}")
        if self.direction_grid_size < 2:
            raise ValueError("direction grid needs at least 2 points")
        if self.n_trials < 1:
            raise ValueError("need at least one trial")


def upper_bound_se(cfg: SystemConfig, snr_linear: float) -> float:
    """Spectral efficiency at the full beamforming gain sqrt(N)."""
    return float(np.log2(1.0 + cfg.n_antennas * snr_linear))


@dataclass(frozen=True)
class EvalReport:
    """Per-trial spectral efficiencies; the aggregates are derived from them on demand."""

    se_per_subcarrier: np.ndarray  # (successful trials, M)
    trial_directions: np.ndarray  # (successful trials, G)
    upper_bound: float
    synthesizer: str
    master_seed: int
    failures: tuple[tuple[int, str], ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("se_per_subcarrier", "trial_directions"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        se, dirs = self.se_per_subcarrier.shape, self.trial_directions.shape
        if len(se) != 2 or len(dirs) != 2 or se[0] != dirs[0] or dirs[1] < 1 or se[1] % dirs[1]:
            raise ValueError(f"SE {se} and directions {dirs}: need equal trial counts, G dividing M")

    @property
    def n_trials(self) -> int:
        return self.se_per_subcarrier.shape[0]

    @property
    def ase_per_subband(self) -> np.ndarray:
        """Mean SE over trials and subcarriers within each subband."""
        trials, m_count = self.se_per_subcarrier.shape
        g_count = self.trial_directions.shape[1]
        return self.se_per_subcarrier.reshape(trials, g_count, m_count // g_count).mean(axis=(0, 2))

    @property
    def ase_per_subcarrier(self) -> np.ndarray:
        """Mean SE over trials for each subcarrier."""
        return self.se_per_subcarrier.mean(axis=0)


def _draw(scenario: EvalScenario, grid: np.ndarray, trial: int) -> np.ndarray:
    """Trial ``trial``'s directions, from its own generator seeded by (master_seed, trial)."""
    rng = np.random.default_rng(np.random.SeedSequence(scenario.master_seed, spawn_key=(trial,)))
    return grid[rng.integers(0, grid.size, size=scenario.n_subbands)]


def _synthesize(
    synthesizer: SynthesisFn, directions: np.ndarray, cfg: SystemConfig, failures: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delays and phases (kept, N) of the trials whose synthesis succeeded, and those trials.

    One ``synthesizer.batch`` call for all trials when the synthesizer has
    one and it succeeds; otherwise one call per trial, in order, each
    failure recorded in ``failures``.
    """
    batch = getattr(synthesizer, "batch", None)
    if batch is not None:
        try:
            delays, phases = batch(directions, cfg)
            return delays, phases, np.arange(len(directions))
        except (ValueError, ArithmeticError):
            pass  # the per-trial calls below find and record the failing trials
    kept, delays, phases = [], [], []
    for trial, dirs in enumerate(directions):
        try:
            phi = synthesizer(DirectionMap(dirs), cfg)
            _require_antennas(phi, cfg)
        except (ValueError, ArithmeticError) as exc:  # recorded per trial, not fatal
            failures.append((trial, f"{type(exc).__name__}: {exc}"))
            continue
        kept.append(trial)
        delays.append(phi.delays)
        phases.append(phi.phases)
    shape = (len(kept), cfg.n_antennas)
    return np.reshape(delays, shape), np.reshape(phases, shape), np.array(kept, dtype=np.intp)


def monte_carlo(
    scenario: EvalScenario,
    synthesizer: SynthesisFn,
    *,
    workers: int | None = None,
) -> EvalReport:
    """Run all trials of ``synthesizer`` and aggregate; the report names it by ``__name__``.

    Three steps, in order on the calling thread.  Every trial's directions
    are drawn first, trial t from its own seed (master_seed, t).  Then all
    trials are synthesized: in one
    ``synthesizer.batch(directions[B, G], cfg) -> (delays[B, N], phases[B, N])``
    call when the synthesizer has that attribute (the hdb one does), one
    call per trial otherwise.  Last, the gains are evaluated
    ``_CHUNK_TRIALS`` trials at a time, with the formula of
    :func:`~ttdbeam.core.gain_at_directions` over the chunk.  A trial's bits
    do not depend on its chunk, so the report is reproducible bit-for-bit.
    ``workers`` is validated (>= 1 when given) and has no effect.  A trial
    whose synthesis fails with a ValueError or an ArithmeticError is
    recorded and skipped, not fatal; when the batch call fails so, every
    trial is synthesized again on its own to find the failing ones.  Any
    other exception propagates.
    """
    if workers is not None:
        worker_count(workers)
    cfg = scenario.cfg
    grid = direction_grid(scenario.direction_grid_size)
    directions = np.stack([_draw(scenario, grid, trial) for trial in range(scenario.n_trials)])
    failures: list[tuple[int, str]] = []
    delays, phases, trials = _synthesize(synthesizer, directions, cfg, failures)
    if trials.size == 0:
        raise RuntimeError(f"every trial failed; first error: {failures[0][1]}")
    directions = directions[trials]
    block = subband_width(scenario.n_subbands, cfg.n_subcarriers)
    se = np.empty((trials.size, cfg.n_subcarriers))
    for first in range(0, trials.size, _CHUNK_TRIALS):
        chunk = slice(first, first + _CHUNK_TRIALS)
        psi = np.repeat(directions[chunk], block, axis=1)  # expand_directions, row by row
        gains = _gains_at_directions(delays[chunk], phases[chunk], psi, cfg)
        se[chunk] = np.log2(1.0 + (gains.real**2 + gains.imag**2) * scenario.snr_linear)

    return EvalReport(
        se_per_subcarrier=se,
        trial_directions=directions,
        upper_bound=upper_bound_se(cfg, scenario.snr_linear),
        synthesizer=getattr(synthesizer, "__name__", "custom"),
        master_seed=scenario.master_seed,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class Ecdf:
    """Empirical distribution of all (trial, subcarrier) SE values."""

    values: np.ndarray  # sorted ascending

    def quantile(self, q: float) -> float:
        """Smallest value whose empirical CDF reaches q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        n = self.values.size
        idx = max(0, int(np.ceil(q * n)) - 1)
        return float(self.values[idx])

    def fraction_below(self, threshold: float) -> float:
        return float(np.searchsorted(self.values, threshold, side="left")) / self.values.size


def ecdf(report: EvalReport) -> Ecdf:
    """Distribution of every (trial, subcarrier) SE value in the report."""
    if report.se_per_subcarrier.size == 0:
        raise ValueError("empty report")
    return Ecdf(np.sort(report.se_per_subcarrier.ravel()))


def runtime_bench(
    scenario: EvalScenario, synthesizers: Mapping[str, SynthesisFn], calls: Mapping[str, int]
) -> dict[str, float]:
    """Mean wall time per synthesis call, monotone-clock based.

    The first 3 calls of each synthesizer are not timed.  Targets are drawn
    once from the scenario seed and cycled, so every synthesizer sees the
    same inputs.
    """
    grid = direction_grid(scenario.direction_grid_size)
    rng = np.random.default_rng(np.random.SeedSequence(scenario.master_seed, spawn_key=(0xBE, 0xCE)))
    pool = [
        DirectionMap(grid[rng.integers(0, scenario.direction_grid_size, size=scenario.n_subbands)])
        for _ in range(32)
    ]
    means: dict[str, float] = {}
    for name, synth in synthesizers.items():
        n_calls = calls[name]
        if n_calls < 1:
            raise ValueError(f"need at least one timed call for {name!r}")
        for i in range(_WARMUP_CALLS):
            synth(pool[i % len(pool)], scenario.cfg)
        start = time.perf_counter()
        for i in range(n_calls):
            synth(pool[i % len(pool)], scenario.cfg)
        means[name] = (time.perf_counter() - start) / n_calls
    return means


def report_csv_lines(report: EvalReport, scenario: EvalScenario):
    """Rows ``trial,m,subband,direction,se_bps_hz`` (1-based trial and m)."""
    yield "trial,m,subband,direction,se_bps_hz"
    m_count = scenario.cfg.n_subcarriers
    block = subband_width(scenario.n_subbands, m_count)
    bands = [m // block for m in range(m_count)]  # 0-based subband of each subcarrier
    middles = [f",{m + 1},{b + 1}," for m, b in enumerate(bands)]
    rows = zip(report.trial_directions, report.se_per_subcarrier)
    for trial, (directions, se_row) in enumerate(rows, start=1):
        dirs = [repr(x) for x in directions.tolist()]
        for middle, b, se in zip(middles, bands, se_row.tolist()):
            yield f"{trial}{middle}{dirs[b]},{se!r}"


def summary_dict(report: EvalReport, scenario: EvalScenario) -> dict:
    """JSON-ready aggregate: ASE vectors, tail quantiles, bound, seeds, config echo."""
    dist = ecdf(report)
    curve_q = np.linspace(0.0, 1.0, 101)
    return {
        "synthesizer": report.synthesizer,
        "rng": RNG_ALGORITHM,
        "master_seed": report.master_seed,
        "n_trials": report.n_trials,
        "failures": [list(f) for f in report.failures],
        "upper_bound": report.upper_bound,
        "ase_per_subband": [float(x) for x in report.ase_per_subband],
        "ase_per_subcarrier": [float(x) for x in report.ase_per_subcarrier],
        "ecdf_quantiles_pct": {
            str(p): dist.quantile(p / 100.0) for p in (1, 5, 10, 50, 90)
        },
        "ecdf_curve": [dist.quantile(float(q)) for q in curve_q],
        "config": {
            "n": scenario.cfg.n_antennas,
            "m": scenario.cfg.n_subcarriers,
            "fc_hz": scenario.cfg.carrier_freq,
            "bw_hz": scenario.cfg.bandwidth,
            "subbands": scenario.n_subbands,
            "snr_linear": scenario.snr_linear,
            "direction_grid_size": scenario.direction_grid_size,
        },
    }
