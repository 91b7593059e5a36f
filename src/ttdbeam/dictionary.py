"""Generator dictionary: precomputed two-subband split-beam configs per direction offset.

Entries are indexed by the direction offset between the two subbands.  The
offset grid is the full set of pairwise differences of an A-point uniform
direction grid on [-1, 1] (2A-1 values spanning [-2, 2]), so any difference
of two on-grid directions is itself an offset with its own entry; the
constructor rejects any other offsets.  Offsets beyond [-1, 1] are kept
unwrapped on purpose: a mod-2 direction shift is exact only at the carrier,
so fitting the true (aliased) target keeps the composed beam on target at
every subcarrier instead of drifting with the beam squint at the band edges.

Only the offsets delta > 0 are fitted; offset 0 is the zero config.  Entry
-delta is entry delta with delays and phases negated (no phase wrapping), so
the table is exactly mirror-symmetric.  A direct fit for -delta gives the
same config up to rounding and whole turns of phase: the target for -delta
is the complex conjugate of the target for delta, and every later step is
odd in (delays, phases).  Conjugating target and precoder leaves the fit
objective unchanged and the default one-period delay grid is symmetric
modulo its period; the fold maps a negated delay to the negated folded one;
the re-centring reads |gain| profiles, equal for a config toward psi and its
negation toward -psi, and applies the linear map of ``hdb.scale_shift``.

The fit itself has a closed form for every delay range: each antenna's
correlation with the two-subband target is a sum of two geometric series in
the delay, so it is evaluated in Dirichlet form on the delay grid, and its
maximum is the grid optimum the line search of ``jpta_approx`` would find on
the built N x M target.  On the default grid, which spans one correlation
period M/BW, only the grid points of the two main lobes are searched, and
first only an inner window of each lobe, whose maximum a bound on the rest
certifies.  One search, with one tie rule, serves every set of points.

The build works on chunks of consecutive offsets, not on one offset at a
time: the fit, the fold, the re-centring and the checks each run once over
all E*N antenna rows of a chunk, every element by the same operations as
alone, so a row has the same bits in any chunk and on any thread.  Only
builds of at least 80 offsets delta >= 0 map their chunks over threads.

Binary layout (little-endian): 40-byte header (magic "TTDD", version,
N, A, D, M as int32, fc and bw as float64), then D offsets as float64, then
D rows of 2N float64 (N delays followed by N phases).  A JSON sidecar
mirroring the header is written next to the file for inspection.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import hdb
from .core import (
    _MAX_DELAY_PHASE,
    ArrayConfig,
    SystemConfig,
    _check_delay_phase,
    _column_patterns,
    _gain_profiles,
    _readonly,
    direction_grid,
    subcarrier_freqs,
)
# jpta_approx and fold_delay_periods are unused here; perfbench/tracer.py wraps these names
from .solvers import (  # noqa: F401
    SolverParams,
    _fold,
    _spans_one_period,
    _winning_phases,
    fold_delay_periods,
    jpta_approx,
)

__all__ = [
    "GeneratorDictionary",
    "DictionaryFormatError",
    "worker_count",
    "offset_grid",
    "build_dictionary",
    "save",
    "load",
]

_MAGIC = b"TTDD"
_VERSION = 1
_HEADER = struct.Struct("<4siiiiidd")
_GAIN_THRESHOLD = 0.5  # build warning when a subband's gain dips below this fraction of sqrt(N)
MAX_BUILD_VALUES = 2**24  # a build's table values (2A - 1)*2N, and each array of one offset (_offset_sizes)
_CHUNK_POINTS = 2**16  # the most values, offsets x the largest per-offset array (_offset_sizes), of one chunk
# the fewest offsets delta >= 0 a build maps over threads: threads built A = 61 faster but raised
# the peak RSS of a run with it 12-15 %, as each thread's malloc arena keeps a chunk's temporaries
_POOL_OFFSETS = 80
_BAND_VALUES = 2**20  # the most values, delays and phases, one dictionary's band tables hold together (8 MiB)
_BANDS_LOCK = threading.Lock()  # held while a band table is made; a cached one is read without it


class DictionaryFormatError(Exception):
    """Raised when a dictionary file is corrupt or has an unknown format."""


@dataclass(frozen=True, eq=False)
class GeneratorDictionary:
    """Immutable two-subband configs, one per offset; ``offsets`` is bitwise ``offset_grid(A)``.

    Beside the table, a private cache holds it rescaled onto the generator bands of each G
    served (:meth:`_band_tables`); ``==``, ``repr`` and :func:`save` leave the cache out.
    """

    offsets: np.ndarray
    delays: np.ndarray
    phases: np.ndarray
    meta: SystemConfig
    direction_grid_size: int
    degenerate: tuple[int, ...] = field(default=())
    build_warnings: tuple[str, ...] = field(default=())
    _bands: dict = field(default_factory=dict, init=False, repr=False)  # G -> _band_tables(G)

    def __post_init__(self) -> None:
        for name in ("offsets", "delays", "phases"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        a = self.direction_grid_size
        d = 2 * a - 1
        # the size test first, so a huge A is refused before its grid is built
        if self.offsets.shape != (d,) or self.offsets.tobytes() != offset_grid(a).tobytes():
            raise ValueError(f"offsets must be the {d}-point offset grid of a {a}-point direction grid")
        n = self.meta.n_antennas
        if self.delays.shape != (d, n) or self.phases.shape != (d, n):
            raise ValueError(
                f"config arrays must be ({d}, {n}), got {self.delays.shape} and {self.phases.shape}"
            )
        if not (np.isfinite(self.delays).all() and np.isfinite(self.phases).all()):
            raise ValueError("config rows must be finite")
        _check_delay_phase(float(np.abs(self.delays).max()), self.meta)
        # a rescaled row's phase is then at most 3 * 2**42 rad, so no generator sum overflows
        phase = float(np.abs(self.phases).max())
        if not phase <= _MAX_DELAY_PHASE:
            raise ValueError(f"row phases reach {phase:.3e} rad, beyond the bound of 2**42 rad")

    @property
    def n_entries(self) -> int:
        return self.offsets.size

    def config(self, index: int) -> ArrayConfig:
        """Entry ``index`` as a config over read-only views of the table's rows, without a copy."""
        return ArrayConfig._of_rows(self.delays[index], self.phases[index])

    def index(self, delta: float) -> int:
        """Row of the nearest offset to delta; ties take the smaller offset.

        Bitwise ``argmin(abs(offsets - delta))`` in O(1): the grid formula
        offsets[i] = 2(i - (A-1))/(A-1) names the candidate row, and the
        first minimum of abs(offsets[j] - delta) over its neighbours decides.
        """
        if not -2.0 <= delta <= 2.0:
            raise ValueError(f"offset must lie in [-2, 2], got {delta}")
        denom = self.direction_grid_size - 1
        guess = min(max(round(delta * denom / 2.0) + denom, 1), 2 * denom - 1)
        below, at, above = self.offsets[guess - 1 : guess + 2].tolist()
        errors = (abs(below - delta), abs(at - delta), abs(above - delta))
        return guess - 1 + errors.index(min(errors))

    def lookup(self, delta: float, band: tuple[np.ndarray, np.ndarray] | None = None) -> ArrayConfig:
        """Nearest-neighbor entry for a direction offset; ties take the smaller offset.

        With ``band``, one generator's (delays, phases) pair of :meth:`_band_tables`,
        the entry is read from that table's row instead: the entry already
        rescaled onto the generator's band, again as read-only views.
        """
        index = self.index(delta)
        if band is None:
            return self.config(index)
        return ArrayConfig._of_rows(band[0][index], band[1][index])

    def _band_tables(self, g_count: int):
        """The whole table rescaled onto the bands of generators 2..G, or None past the cache's bound.

        A tuple: read-only (G-1, D, N) delays and phases, then their (D, N)
        pair per generator.  Made by one ``hdb._rescale`` onto ``hdb._band_plan``
        on the first call with G, so each row has the bits the rescale of that
        row alone gives it, and cached unless it would take this dictionary's
        tables past ``_BAND_VALUES`` values.  The check that G divides M raises
        on every call until one succeeds.
        """
        tables = self._bands.get(g_count)
        if tables is not None:
            return tables
        with _BANDS_LOCK:
            tables = self._bands.get(g_count)
            if tables is not None:  # made by another thread meanwhile
                return tables
            alpha, slope = hdb._band_plan(g_count, self.meta)
            held = sum(2 * delays.size for delays, _, _ in self._bands.values())
            if held + 2 * alpha.size * self.delays.size > _BAND_VALUES:
                return None
            delays, phases = hdb._rescale(self.delays, self.phases, alpha[..., None], slope[..., None], self.meta)
            delays.setflags(write=False)
            phases.setflags(write=False)
            tables = delays, phases, tuple(zip(delays, phases))
            self._bands[g_count] = tables
            return tables

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorDictionary):
            return NotImplemented
        return (
            self.meta == other.meta
            and self.direction_grid_size == other.direction_grid_size
            and self.delays.tobytes() == other.delays.tobytes()
            and self.phases.tobytes() == other.phases.tobytes()
        )


def offset_grid(direction_grid_size: int) -> np.ndarray:
    """All pairwise differences of the A-point direction grid: 2A-1 values in [-2, 2]."""
    if direction_grid_size < 2:
        raise ValueError("direction grid needs at least 2 points")
    denom = direction_grid_size - 1
    k = np.arange(-denom, denom + 1, dtype=np.float64)
    return 2.0 * k / denom


def _geometric_sum(phi: np.ndarray, first: int, count: int) -> np.ndarray:
    """sum_{m=first}^{first+count-1} exp(j*m*phi) in Dirichlet form, elementwise.

    phi is first reduced to [-pi, pi]: near a whole turn sin(phi/2) would
    otherwise be a rounding residue (about 1e-16 at 2*pi) instead of 0.
    """
    phi = phi - 2.0 * np.pi * np.round(phi / (2.0 * np.pi))
    den = np.sin(phi / 2.0)
    ratio = np.divide(np.sin(count * phi / 2.0), den, out=np.full(phi.shape, float(count)),
                      where=den != 0.0)
    return np.exp(1j * (first + (count - 1) / 2.0) * phi) * ratio


# radius of the certified inner windows in lobe widths K/M; below 2, so that they lie
# inside the whole windows, which reach more than 2K/M steps
_INNER_LOBE_WIDTHS = 1.2
_CERTIFY_MARGIN = 1e-9  # relative; far above the rounding of |c| near the bound


def _theta(k: np.ndarray, periods: float, size: int) -> np.ndarray:
    """theta = 2*pi*BW*t_k/M at grid indices k of a K = size grid spanning ``periods`` periods M/BW."""
    return 2.0 * np.pi * k * periods / size


def _lobe_windows(centers: np.ndarray, r: int) -> np.ndarray:
    """Grid indices, not yet mod K, of the windows of radius r around k = 0 and each antenna's centre.

    Row n holds the k = 0 window, then the D points of antenna n's second
    window farthest from k = 0, with D the most any second window reaches
    out of the first (at most its 2r + 1 points): each point of the two
    windows, and a few of them twice.
    """
    steps = np.arange(-r, r + 1)
    away = np.where(centers > 0, -1, 1)[:, None]  # from a centre's far edge toward k = 0
    extra = min(int(np.abs(centers).max()), 2 * r + 1)
    return np.hstack([np.broadcast_to(steps, (centers.size, steps.size)),
                      centers[:, None] + away * (np.arange(extra) - r)])


def _window_peak(
    k: np.ndarray, periods: float, size: int, half: int, s: np.ndarray, jump: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each antenna's smallest grid index mod K at its maximum |c|, c there, and that maximum.

    k holds grid indices not yet reduced mod K: one row for all antennas or
    one per antenna; it is reduced in place.  The first series depends on k
    alone, so it is evaluated once per grid index, on the span of all rows.
    """
    lo, hi = int(k.min()), int(k.max())
    # the common 1/sqrt(N) moves neither the maximum nor the phase and is left out
    first = _geometric_sum(_theta(np.arange(lo, hi + 1) % size, periods, size), 1, half)[k - lo]
    k %= size
    c = first + jump[:, None] * _geometric_sum(_theta(k, periods, size) + s[:, None], half + 1, half)
    mag = np.abs(c)
    peak = mag.max(axis=1)
    at = np.where(mag == peak[:, None], k, size)
    n = np.arange(s.size)
    best = np.argmin(at, axis=1)
    return at[n, best], c[n, best], peak


def _fit_windows(solver: SolverParams, cfg: SystemConfig) -> tuple[tuple[int, int] | None, int, int]:
    """Radii (r, reach) of the fit's inner and whole lobe windows, None on the whole grid, and W on each.

    W, the points of an antenna row, is at most 2(2r + 1) on windows of radius r (:func:`_lobe_windows`).
    """
    size, m_count = solver.delay_grid_size, cfg.n_subcarriers
    reach = -(-2 * size // m_count) + 1
    whole = 2 * (2 * reach + 1)
    if not _spans_one_period(solver.max_delay, cfg) or size < 2 * m_count or whole >= size:
        return None, size, size
    r = int(_INNER_LOBE_WIDTHS * (size // (2 * (m_count // 2))))
    return (r, reach), 2 * (2 * r + 1), whole


def _offset_sizes(solver: SolverParams, cfg: SystemConfig, direction_grid_size: int) -> tuple[int, int, int, int]:
    """Values in each array one offset delta > 0 makes in a build; its chunks and the CLI's bound read them.

    The fit's N*W points on the inner windows, and on the whole windows that the antennas the inner ones
    leave uncertified search; the 2M of the two |gain| profiles; the 4A of the peak check's patterns
    (mirror and entry, two centre columns, A directions).
    """
    _, inner, whole = _fit_windows(solver, cfg)
    return cfg.n_antennas * inner, cfg.n_antennas * whole, 2 * cfg.n_subcarriers, 4 * direction_grid_size


def _two_subband_fit(deltas, solver: SolverParams, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Delays and phases (E, N) ``jpta_approx`` fits to the ideal [0, delta] two-subband targets, in closed form.

    At grid delay t_k = k*max_delay/K, antenna n's baseband correlation with
    the target is two geometric series in theta = 2*pi*BW*t_k/M,

        c_n(theta) = (sum_{m=1..H} e^{j*m*theta}
                      + e^{j*pi*n*delta*f0/fc} * sum_{m=H+1..M} e^{j*m*(theta + s_n)}) / sqrt(N),

    with H = M/2, f0 = fc - BW/2 and s_n = pi*n*delta*BW/(M*fc).  On a grid
    spanning one correlation period (max_delay = M/BW) the grid maximum lies
    in the main lobe of one series, around k = 0 or around k = -s_n*K/(2*pi)
    (mod K); a lobe reaches 2K/M steps either side.  One search,
    ``_window_peak``, finds every maximum, on one of three sets of points:
    the whole grid, for any other range, a grid too coarse to resolve the
    lobes (K < 2M), or one the windows cover anyway; else an inner window of
    each lobe; and, for the antennas those do not certify, both whole
    windows.  Its one tie rule takes the smallest k mod K at the maximum, so
    that ties keep the smaller delay as in ``jpta_approx``.  The delays are
    the line search's except where two grid points tie exactly (rational
    fc/BW, delta and K can place both lobe peaks on the grid; a range of
    whole periods meets each peak more than once): rounding then picks the
    winner, and may pick the other optimum.  The E offsets' antennas are the
    E*N rows of each search, so a row may get more copies of its window
    points than alone, and the same maximum at the same smallest k.

    The inner windows reach r = floor(1.2*floor(K/M)) steps from each centre,
    r measured in lobe widths (64 at K = 65536 and M = 1200, against 111 for
    the whole windows).  A grid point outside them is at least r + 1 steps
    from k = 0 and from the second window's centre, the grid index nearest the
    second series' real centre, so at least r + 1/2 from that.  As
    |sum_{m=a+1..a+H} e^{j*m*phi}| <= 1/|sin(phi/2)| for phi in [-pi, pi],
    |c_n| there is at most U = 1/sin(pi*(r+1)/K) + 1/sin(pi*(r+1/2)/K), one
    constant per (K, r): 644 at full scale, where the smallest inner maximum
    over the A = 499 and A = 61 builds is 730.  If antenna n's inner maximum
    L_n exceeds U*(1 + 1e-9), a margin far above the rounding of |c|, then its
    whole windows' smallest k where |c_n| equals their maximum is the inner
    one: every point is evaluated by the same expressions, elementwise, so it
    has the same bits either way (numpy's loops give an element the same bits
    in any length and layout; tests/test_dictionary.py checks the ufuncs
    used).  Only antennas the bound fails to certify (none at N = 16; some of
    larger arrays, whose lobes part) are searched again, on their whole
    windows.
    """
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 1)
    n_count, m_count, size = cfg.n_antennas, cfg.n_subcarriers, solver.delay_grid_size
    one_period = _spans_one_period(solver.max_delay, cfg)
    periods = 1.0 if one_period else solver.max_delay * cfg.bandwidth / m_count  # range in periods M/BW
    half = m_count // 2
    n = np.arange(n_count)
    s = (np.pi * n * deltas * cfg.bandwidth / (m_count * cfg.carrier_freq)).ravel()
    jump = np.exp(1j * np.pi * n * deltas * (cfg.carrier_freq - cfg.bandwidth / 2.0) / cfg.carrier_freq).ravel()
    radii = _fit_windows(solver, cfg)[0]
    if radii is None:
        k_best, c_best, _ = _window_peak(np.arange(size), periods, size, half, s, jump)
    else:
        r, reach = radii
        centers = np.rint(-s * size / (2.0 * np.pi)).astype(np.int64)
        k_best, c_best, peak = _window_peak(_lobe_windows(centers, r), 1.0, size, half, s, jump)
        bound = 1.0 / math.sin(math.pi * (r + 1) / size) + 1.0 / math.sin(math.pi * (r + 0.5) / size)
        rest = ~(peak > bound * (1.0 + _CERTIFY_MARGIN))
        if rest.any():
            k_best[rest], c_best[rest], _ = _window_peak(
                _lobe_windows(centers[rest], reach), 1.0, size, half, s[rest], jump[rest])
    t_best = k_best * (solver.max_delay / size)
    shape = (deltas.size, n_count)
    return t_best.reshape(shape), _winning_phases(t_best, c_best, cfg).reshape(shape)


def _recenter(
    delays: np.ndarray, phases: np.ndarray, deltas: np.ndarray, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-center two-subband configs (E, N) at their offsets: new rows, and which are degenerate.

    Each band is rescaled so the two gain maxima land half the band apart, and
    shifted so their frequency midpoint maps to the carrier.  Degenerate rows
    (both maxima on one subcarrier) keep their input.  Both |gain| profiles of
    every config come from one stacked ``np.matmul``, and ``hdb._rescale``
    puts each row onto its own band, with the bits ``hdb.scale_shift`` gives it.
    """
    directions = np.stack([np.zeros(deltas.shape), deltas], axis=-1)  # each entry's (0, delta)
    m1, m2 = np.argmax(_gain_profiles(delays, phases, directions, cfg), axis=-1).T
    degenerate = m1 == m2
    ok = ~degenerate
    m1, m2 = m1[ok], m2[ok]
    alpha = cfg.n_subcarriers / (2.0 * np.abs(m2 - m1))
    f = subcarrier_freqs(cfg)
    fc_new = cfg.carrier_freq - ((f[m1] + f[m2]) / 2.0 - cfg.carrier_freq) * alpha
    alpha = cfg.bandwidth * alpha / cfg.bandwidth  # scale_shift's ratio of the new bandwidth, as it rounds
    delays, phases = delays.copy(), phases.copy()
    delays[ok], phases[ok] = hdb._rescale(
        delays[ok], phases[ok], alpha[:, None], (2.0 * np.pi * fc_new / alpha)[:, None], cfg)
    return delays, phases, degenerate


def _build_chunk(
    deltas, cfg: SystemConfig, solver: SolverParams, direction_grid_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], list[str]]:
    """Build the entries of offsets delta > 0 and check them and their mirrors at -delta.

    Returns (delays, phases, degenerate, warnings for the -delta entries,
    warnings for the +delta entries): rows (E, N), flags (E,), and the
    warnings in ascending order of their offsets.  Entry -delta is entry
    delta negated, degenerate exactly when it is.  The fit, the fold, the
    re-centring and the checks each run once over all the chunk's entries.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    delays, phases, degenerate = _recenter(*_fold(*_two_subband_fit(deltas, solver, cfg), cfg), deltas, cfg)
    ok = ~degenerate
    mirror_warnings, warnings = _entry_diagnostics(deltas[ok], delays[ok], phases[ok], cfg, direction_grid_size)
    return (delays, phases, degenerate,
            [w for found in mirror_warnings[::-1] for w in found], [w for found in warnings for w in found])


def _build_one(
    delta: float, cfg: SystemConfig, solver: SolverParams, direction_grid_size: int
) -> tuple[ArrayConfig, bool, list[str], list[str]]:
    """:func:`_build_chunk` of one offset delta > 0: (config, degenerate, warnings for -delta, for +delta)."""
    delays, phases, degenerate, mirror_warnings, warnings = _build_chunk(
        [delta], cfg, solver, direction_grid_size)
    return ArrayConfig(delays[0], phases[0]), bool(degenerate[0]), mirror_warnings, warnings


def _entry_diagnostics(
    deltas: np.ndarray, delays: np.ndarray, phases: np.ndarray, cfg: SystemConfig, direction_grid_size: int
) -> tuple[list[list[str]], list[list[str]]]:
    """Fidelity checks, peak placement and minimum gain, for non-degenerate entries (E, N) and their mirrors.

    Returns (warnings for each config negated at -delta, warnings for each
    config at delta), one list per entry.  Both use the smallest |gain| of
    each half band toward its own direction (0, then delta) for the entry:
    the negated config toward -delta has bitwise the same |gain| profiles.
    Peaks are read at each subband's centre subcarrier, for every config and
    its mirror in one elementwise Horner evaluation.  The checks run on
    arrays; Python only formats the warnings they find.
    """
    half = cfg.n_subcarriers // 2
    profiles = _gain_profiles(delays, phases, np.stack([np.zeros(deltas.shape), deltas], axis=-1), cfg)
    minima = np.stack([profiles[:, 0, :half].min(axis=-1), profiles[:, 1, half:].min(axis=-1)], axis=-1)
    points = direction_grid(direction_grid_size)
    step = points[1] - points[0]
    floor = _GAIN_THRESHOLD * np.sqrt(cfg.n_antennas)
    centres = np.array([half // 2, half + half // 2])  # subband-centre subcarriers
    f_c = subcarrier_freqs(cfg)[centres]
    sign = np.array([[-1.0], [1.0]])  # the mirror, then the entry
    gains = _column_patterns(sign * delays[:, None], sign * phases[:, None], centres, points, cfg)
    peaks = points[np.argmax(np.abs(gains), axis=-1)]  # (entry, sign, band)
    offsets = sign.T * deltas[:, None]
    targets = np.stack([np.zeros(offsets.shape), offsets], axis=-1)
    # the visible peak of direction d at frequency f_m is its alias d - 2k*fc/f_m brought into [-1, 1]
    k = np.round(targets * f_c / (2.0 * cfg.carrier_freq))
    expected = targets - 2.0 * k * cfg.carrier_freq / f_c
    miss = np.abs(peaks - expected)
    dips, far = minima < floor, miss > 2.0 * step + 1e-12
    found = ([[] for _ in deltas], [[] for _ in deltas])
    for e, s, b in zip(*np.nonzero(dips[:, None, :] | far)):
        offset = offsets[e, s]
        if dips[e, b]:
            found[s][e].append(f"offset {offset:+.6f}: subband {b + 1} gain dips to {minima[e, b]:.3f} "
                               f"(< {floor:.3f})")
        if far[e, s, b]:
            found[s][e].append(f"offset {offset:+.6f}: subband {b + 1} peak at {peaks[e, s, b]:+.6f}, "
                               f"{miss[e, s, b] / step:.1f} grid steps from expected {expected[e, s, b]:+.6f}")
    return found


def worker_count(requested: int | None = None) -> int:
    """Number of threads a dictionary build may use: ``requested``, or else the CPUs this process may run on.

    Those are its CPU affinity where the platform has one (so ``taskset`` and
    cpusets cap a build), else ``os.cpu_count()``.
    """
    if requested is not None:
        if requested < 1:
            raise ValueError("worker count must be >= 1")
        return requested
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def build_dictionary(
    cfg: SystemConfig, direction_grid_size: int, solver: SolverParams, *, workers: int | None = None
) -> GeneratorDictionary:
    """Build the offset-indexed config table for a system.

    Each offset delta > 0 gets the two-subband config fitted against the
    ideal [0, delta] target, delay-folded, then re-centered.  The fit is the
    closed form of :func:`_two_subband_fit` for every ``solver.max_delay``;
    no target is built.  The table is laid out once: the mirror rows, entry
    -delta being entry delta negated (target(-delta) = conj(target(delta))
    and every later step is odd in (delays, phases); see the module
    docstring), then the zero config at offset 0, then the fitted rows.

    The A - 1 fitted offsets are built in chunks of consecutive offsets, as
    many as keep E times the largest per-offset array of :func:`_offset_sizes`
    (the fit on the inner windows, the profiles or the peak check's
    patterns) at 2**16 values, and at least one; each layer runs once per
    chunk (:func:`_build_chunk`).
    Builds of at least 80 offsets delta >= 0 (A >= 80) map their chunks over
    ``worker_count(workers)`` threads; smaller builds, and one worker, run on
    the calling thread.  No process starts, and the result is identical
    regardless of worker count.
    Fidelity diagnostics for delta and -delta run with the chunk's entries.
    Their findings are attached as ``build_warnings`` and degenerate entries
    listed in ``degenerate``, both in ascending offset order; neither
    affects equality or persistence.
    """
    if cfg.n_subcarriers % 2 != 0:
        raise ValueError("dictionary construction needs an even subcarrier count")
    offsets = offset_grid(direction_grid_size)
    zero = direction_grid_size - 1  # index of offset 0; offsets[zero + k] = -offsets[zero - k]
    deltas = offsets[zero + 1 :]
    fit, _, profiles, patterns = _offset_sizes(solver, cfg, direction_grid_size)
    per_chunk = max(1, _CHUNK_POINTS // max(fit, profiles, patterns))
    chunks = [deltas[i : i + per_chunk] for i in range(0, deltas.size, per_chunk)]
    args = (chunks, repeat(cfg), repeat(solver), repeat(direction_grid_size))

    n_workers = worker_count(workers)
    if n_workers > 1 and direction_grid_size >= _POOL_OFFSETS:
        from concurrent.futures import ThreadPoolExecutor  # imported here: it pulls in logging
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            built = list(pool.map(_build_chunk, *args))
    else:
        built = list(map(_build_chunk, *args))

    delays, phases, degenerate, mirror_warnings, warnings = zip(*built)
    delays, phases = np.concatenate(delays), np.concatenate(phases)
    zeros = np.zeros((1, cfg.n_antennas))
    flagged = np.flatnonzero(np.concatenate(degenerate)).tolist()
    return GeneratorDictionary(
        offsets=offsets,
        delays=np.concatenate([-delays[::-1], zeros, delays]),
        phases=np.concatenate([-phases[::-1], zeros, phases]),
        meta=cfg,
        direction_grid_size=direction_grid_size,
        degenerate=tuple([zero - 1 - k for k in reversed(flagged)] + [zero + 1 + k for k in flagged]),
        build_warnings=tuple(w for found in (*mirror_warnings[::-1], *warnings) for w in found),
    )


@contextlib.contextmanager
def _replacing(path: str, mode: str = "w"):
    """Yield a file whose contents replace ``path`` once the block ends without error.

    The file is a new one next to ``path``, moved over it with ``os.replace``
    and removed if the write or the move fails, so ``path`` keeps what it held.
    An existing ``path`` that is not a regular file (a symlink, a FIFO, a device
    such as /dev/stdout) is written through in place.  Text is UTF-8 with "\n" line ends.
    Of two nested blocks the inner file moves first: flush the outer one inside it.
    """
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, mode, **text) as fh:
            yield fh
        return
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **text)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save(dictionary: GeneratorDictionary, path: str | os.PathLike) -> None:
    """Write the binary dictionary plus a JSON sidecar mirroring the header.

    Both files are first written in full to temporary files in the target
    directory and only then moved over their targets with ``os.replace``, so
    a write that fails leaves any previous dictionary and sidecar untouched.
    """
    cfg = dictionary.meta
    sidecar = {  # header fields in header order; json.dumps sorts the keys
        "magic": _MAGIC.decode("ascii"),
        "version": _VERSION,
        "n": cfg.n_antennas,
        "a": dictionary.direction_grid_size,
        "d": dictionary.n_entries,
        "m": cfg.n_subcarriers,
        "fc_hz": cfg.carrier_freq,
        "bw_hz": cfg.bandwidth,
    }
    header = _HEADER.pack(_MAGIC, *list(sidecar.values())[1:])
    rows = np.hstack([dictionary.delays, dictionary.phases]).astype("<f8")
    path = os.fspath(path)
    # the binary moves first; a failed write of either file, or of the binary's move, moves neither
    with _replacing(f"{path}.json") as side, _replacing(path, "wb") as fh:
        fh.write(header + dictionary.offsets.astype("<f8").tobytes() + rows.tobytes())
        side.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        side.flush()  # a write held in its buffer fails here, before the binary moves


def load(path: str | os.PathLike) -> GeneratorDictionary:
    """Read a dictionary written by :func:`save`; rejects corrupt files whole.

    Beyond magic, version, payload length and an M that a build can make
    (2M at most ``MAX_BUILD_VALUES``), the file must pass the constructor's
    checks: offsets bitwise the A-point offset grid (so the entry count is
    2A-1), finite rows within the delay-phase bound of
    :func:`~ttdbeam.core.config_from_json_dict` and a header that is a valid system.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DictionaryFormatError("file shorter than header")
    magic, version, n, a, d, m, fc, bw = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise DictionaryFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise DictionaryFormatError(f"unsupported version {version}")
    if n < 1 or d < 1 or m < 1 or a < 2:
        raise DictionaryFormatError("implausible header counts")
    if 2 * m > MAX_BUILD_VALUES:  # the one header size the payload length leaves unbounded
        raise DictionaryFormatError(f"header M = {m} is beyond any build: its two |gain| profiles hold 2M "
                                    f"values, and the bound is {MAX_BUILD_VALUES} (2**24)")
    expected = _HEADER.size + d * 8 + d * 2 * n * 8
    if len(blob) != expected:
        raise DictionaryFormatError(
            f"payload length {len(blob)} does not match header (expected {expected})"
        )
    # read-only views of the blob; the constructor copies them
    offsets = np.frombuffer(blob, dtype="<f8", count=d, offset=_HEADER.size)
    rows = np.frombuffer(blob, dtype="<f8", count=d * 2 * n, offset=_HEADER.size + d * 8).reshape(d, 2 * n)
    try:
        return GeneratorDictionary(
            offsets=offsets,
            delays=rows[:, :n],
            phases=rows[:, n:],
            meta=SystemConfig(n, m, fc, bw),
            direction_grid_size=a,
        )
    except ValueError as exc:
        raise DictionaryFormatError(str(exc)) from None
