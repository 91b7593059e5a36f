"""Monte-Carlo spectral-efficiency evaluation over random user placements.

Each trial draws one direction per subband from a discrete uniform grid,
synthesizes a config with the procedure under test, and scores every
subcarrier as log2(1 + |gain at the assigned direction|^2 * SNR).  Trials are
seeded independently from the master seed, and every trial's directions are
drawn before any synthesis.  All trials are then synthesized, in one batch
call when the synthesizer offers one (the hdb synthesizer does) and one call
per trial otherwise, and their gains are
evaluated in fixed chunks of trials.  A trial's numbers do not depend on its
chunk, so a report is byte-identical from run to run.  A report stores the
SE rows and directions only; its means and ECDF are computed from them when
asked.  Its CSV writes every number as ``repr`` does: a numpy kernel
computes repr's shortest round-trip digits for a block of SE values at
once, and the few values it cannot settle exactly go through ``repr``.
"""

from __future__ import annotations

import functools
import numbers
import time
from collections.abc import Iterator, Mapping
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
_BLOCK_ROWS = 10_000  # CSV rows per block, in whole trials: 8 trials at M = 1200
_WORD = np.dtype("<u8")  # 8 CSV text bytes, the first the least significant
_POW10 = np.array([float(10**k) for k in range(23)])  # 1e0 .. 1e22, each exact in float64
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.dtype("<u2"))  # "00" .. "99"
_EDGE = 2.0**-40  # an interval bound this near a whole unit of the 17th digit is left to repr


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
    one, whose exceptions propagate; otherwise one call per trial, in order,
    each ValueError or ArithmeticError recorded in ``failures``.
    """
    batch = getattr(synthesizer, "batch", None)
    if batch is not None:
        delays, phases = batch(directions, cfg)
        return delays, phases, np.arange(len(directions))
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
    ``workers`` is validated (>= 1 when given) and has no effect.  A batch
    call's exceptions propagate.  On the per-trial path a trial whose
    synthesis fails with a ValueError or an ArithmeticError is recorded and
    skipped, not fatal, and any other exception propagates.
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


def report_csv_lines(report: EvalReport, scenario: EvalScenario) -> Iterator[str]:
    """The CSV ``trial,m,subband,direction,se_bps_hz`` (1-based trial and m), item by item.

    Every number is written as Python's ``repr`` writes it.  The header
    comes first, then blocks of whole trials, each block its rows joined by
    newlines with none at the end: writing every item followed by a
    newline, or joining the items with newlines, gives the file.  A block's
    SE values are formatted by a numpy kernel that computes repr's shortest
    round-trip digits; the few values it cannot settle exactly go through
    ``repr`` itself.
    """
    yield "trial,m,subband,direction,se_bps_hz"
    m_count = scenario.cfg.n_subcarriers
    block = subband_width(scenario.n_subbands, m_count)
    middles = _words([f",{m + 1},{m // block + 1}," for m in range(m_count)])
    per_block = max(1, _BLOCK_ROWS // m_count)
    for first in range(0, report.n_trials, per_block):
        trials = slice(first, first + per_block)
        yield _csv_block(first, report.trial_directions[trials], report.se_per_subcarrier[trials], middles)


def _csv_block(first: int, trial_directions: np.ndarray, se_rows: np.ndarray, middles: np.ndarray) -> str:
    """The rows of the trials from ``first`` (0-based) on, joined by newlines.

    Each row is laid out in slots of whole 8-byte words, each slot's text
    padded with 0 bytes: a newline and the trial, ``,m,subband,``, the
    direction and a comma, and the SE value.  Dropping the 0 bytes of the
    block's word matrix, and its first newline, leaves the rows in order.
    """
    trials, m_count = se_rows.shape
    g_count = trial_directions.shape[1]
    labels = _words([f"\n{t}" for t in range(first + 1, first + 1 + trials)])
    dirs = _words([f"{d!r}," for d in trial_directions.ravel().tolist()])
    se = _se_words(se_rows.ravel())
    slots = (labels[:, None, None, :], middles.reshape(g_count, -1, middles.shape[1]),
             dirs.reshape(trials, g_count, 1, -1), se.reshape(trials, g_count, -1, se.shape[1]))
    mat = np.empty((trials, g_count, m_count // g_count, sum(s.shape[-1] for s in slots)), _WORD)
    col = 0
    for slot in slots:
        for word in range(slot.shape[-1]):  # one word column at a time: long inner loops
            mat[..., col] = slot[..., word]
            col += 1
    text = mat.view(np.uint8)
    return text[text != 0][1:].tobytes().decode("ascii")


def _words(texts: list[str]) -> np.ndarray:
    """The texts as rows of 8-byte words, each padded with 0 bytes to the words the longest needs."""
    width = -(-max(map(len, texts)) // 8) * 8
    return np.array(texts, dtype=f"S{width}").view(_WORD).reshape(len(texts), -1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` exactly, each part with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """repr's digits of each float64 x: ``(exact, digits, n_digits, point)``.

    Where ``exact`` holds, repr writes x with the first ``n_digits`` digits
    of the 17-digit integer ``digits``, and x is 0.<those digits> times
    10**point.  It holds only for 1e-4 <= x < 1e16 that is not a power of
    two, where repr writes x without an exponent and the doubles that read
    back to x lie within half an ulp of it on either side.  repr's digits
    are then those of the coarsest decimal grid with a point in that
    interval, the point nearest x (Gay, 1990).  The arithmetic is exact:
    V = x * 10**scale, with V in [1e16, 1e17), is carried as d + r (d the
    nearest integer, |r| <= 1/2).  An interval bound within ``_EDGE`` of an
    integer, or a tie on the chosen grid, clears ``exact`` instead of
    guessing how repr rounds it.
    """
    exact = (x >= 1e-4) & (x < 1e16) & (x.view(np.uint64) << np.uint64(12) != 0)  # 0 mantissa: 2**k
    x = np.where(exact, x, 1.5)  # a harmless stand-in where repr decides
    scale, d, r = _scaled(x)
    exact &= (d >= 10**16) & (d < 10**17)
    # half an ulp of x, scaled like V: a power of two times an exact power of ten, so exact
    half = ((x.view(np.uint64) & np.uint64(0x7FF << 52)) - np.uint64(53 << 52)).view(np.float64)
    half *= _POW10.take(scale)
    low, high = r - half, r + half  # d + [low, high] is the interval that reads back to x
    exact &= (np.abs(low - np.rint(low)) > _EDGE) & (np.abs(high - np.rint(high)) > _EDGE)
    low, high = -np.ceil(low), np.floor(high)  # the integers d - low .. d + high read back to x
    # the interval is under 23 wide: it may hold several multiples of 10, but one of 100 at most
    tens = d // 10
    units = d - 10 * tens  # d's last digit
    last2 = units + 10 * (tens - tens // 10 * 10)  # its last two
    by_10 = (units <= low) | (units >= 10 - high)
    by_100 = (last2 <= low) | (last2 >= 100 - high)
    # the grid point nearest V: d itself, the nearest multiple of 10, or the one multiple of 100
    up = units + r > 5
    digits = np.where(by_10, d - units + 10 * up, d)
    digits = np.where(by_100, d - last2 + 100 * (last2 > low), digits)
    exact &= by_10 | (np.abs(r) != 0.5)  # a tie between two 17-digit neighbours
    exact &= by_100 | ~by_10 | (units != 5) | (r != 0)  # a tie between two multiples of 10
    dropped = by_10 + by_100.astype(np.intp)
    idx = np.flatnonzero(by_100)
    for k in range(3, 17):  # the multiple of 100 has k trailing zeros while this stays true
        idx = idx[digits.take(idx) % 10**k == 0]
        if not idx.size:
            break
        dropped[idx] = k
    exact &= digits < 10**17  # 10**17 itself, one place up: left to repr
    return exact, digits, 17 - dropped, 17 - scale


def _scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(scale, d, r)`` with x * 10**scale == d + r exactly, d an integer near [1e16, 1e17), |r| <= 1/2.

    The product is Dekker's two-product of x and the exact double
    10**scale, each split in halves by Veltkamp's method.
    """
    scale = 16 - np.floor(np.log10(x)).astype(np.intp)
    v = x * _POW10.take(scale)
    scale += v < 1e16  # log10 rounded across a power of ten
    scale -= v >= 1e17
    p_hi, p_lo = (part.take(scale) for part in _split(_POW10))
    x_hi, x_lo = _split(x)
    v = x * _POW10.take(scale)
    err = ((x_hi * p_hi - v) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo  # x * 10**scale == v + err
    nearest = np.rint(err)
    return scale, v.astype(np.int64) + nearest.astype(np.int64), err - nearest


def _se_words(x: np.ndarray) -> np.ndarray:
    """repr of each value in 24 bytes, as three words a row: the text, then 0 bytes.

    The kernel's digits are written as "0" and 17 digits.  The decimal
    point goes in, with the zeros that follow it when x < 1; the leading
    "0" goes out when x >= 1; and the text is cut to its length.  Each step
    shifts the row's words by a per-row count looked up by the value's
    decimal point.  A value the kernel leaves to repr gets repr's text, at
    most 24 bytes.
    """
    exact, digits, n_digits, point = _shortest_digits(x)
    keep, insert, shift, drop, cut = _layout()
    row = np.clip(point + 3, 0, shift.size - 1)
    shift, drop = shift.take(row), drop.take(row)
    length = np.where(point > 0, np.maximum(n_digits, point + 1) + 1, 2 - point + n_digits)
    length = np.minimum(length, 24)
    words, spill = [], 0
    for k, src in enumerate(_digit_words(digits)):  # the point in, with any zeros after it
        mask = keep[k].take(row)
        high = src & ~mask
        words.append((src & mask) | insert[k].take(row) | (high << shift) | spill)
        spill = high >> (64 - shift)
    out = np.empty((x.size, 3), _WORD)
    for k in range(3):  # the leading "0" out where x >= 1, and the text cut to its length
        upper = (words[k + 1] << (56 - drop)) << 8 if k < 2 else 0
        out[:, k] = ((words[k] >> drop) | upper) & cut[k].take(length)
    if not exact.all():
        out[~exact] = np.array([repr(v) for v in x[~exact].tolist()], dtype="S24").view(_WORD).reshape(-1, 3)
    return out


@functools.cache
def _layout() -> tuple[np.ndarray, ...]:
    """``_se_words``' tables, indexed by the decimal point -3 .. 16 and by a byte count 0 .. 24.

    Per point: masks of the bytes of "0" and 17 digits that stay in front of
    the decimal point, the bytes that go in there ("." and, when x < 1, its
    zeros), as three word arrays each; the bits the rest shifts by; and the
    bits the whole shifts down by, 8 to drop the leading "0" when x >= 1.
    Per count: masks of that many leading bytes, as three word arrays.
    """
    def words(values: list[int]) -> list[np.ndarray]:
        return [_readonly([(v >> 64 * k) & (2**64 - 1) for v in values], _WORD) for k in range(3)]

    points = range(-3, 17)
    kept = [1 + p if p > 0 else 1 for p in points]
    runs = [b"." + b"0" * max(-p, 0) for p in points]
    keep = words([(1 << 8 * k) - 1 for k in kept])
    insert = words([int.from_bytes(b"\0" * k + run, "little") for k, run in zip(kept, runs)])
    shift = _readonly([8 * len(run) for run in runs], _WORD)
    drop = _readonly([8 * (p > 0) for p in points], _WORD)
    return keep, insert, shift, drop, words([(1 << 8 * n) - 1 for n in range(25)])


def _digit_words(digits: np.ndarray) -> list[np.ndarray]:
    """Each integer in [0, 1e17) as "0" and its 17 digits, then 0 bytes, in three word arrays."""
    pairs = _DIGIT_PAIRS.astype(_WORD)
    head = digits // 10**8
    found = []  # the 9 pairs, last first
    for part, count in ((digits - head * 10**8, 4), (head, 5)):  # the last 8 digits; "0" and the first 9
        part = part.astype(np.uint32)
        for _ in range(count):
            rest = part // 100
            found.append(pairs.take(part - 100 * rest))
            part = rest
    found.reverse()
    return [found[0] | found[1] << 16 | found[2] << 32 | found[3] << 48,
            found[4] | found[5] << 16 | found[6] << 32 | found[7] << 48,
            found[8]]


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
