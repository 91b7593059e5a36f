"""Split-beam synthesis by generator composition.

Adding two array configs multiplies their precoders entry-wise (up to the
sqrt(N) normalization), which composes their beampatterns.  A G-subband
split target therefore decomposes into G simple generators: one constant
direction (closed form) plus G-1 two-subband offsets read from a precomputed
dictionary, each rescaled onto its own sub-band of the system bandwidth.
The target's config is just the sum of the generator configs.

:func:`synthesize` and :func:`synthesize_batch` share one closed form for the
first generator, one nearest-row search (``GeneratorDictionary.index``), a
band plan cached per (G, system) and one generator sum (:func:`_compose`), so
a config is bitwise the sum of its generator configs under
``ArrayConfig.__add__`` and a batch is bitwise the stacked calls.

Two offset conventions coexist here.  :func:`decompose` reports offsets
wrapped into the visible direction range, which is the natural invariant
form (running sum congruent to the target mod 2, every offset within
[-1, 1]).  :func:`synthesize` works with the raw, unwrapped differences of
:func:`generator_set` instead: a mod-2 direction shift is a pattern symmetry
only at the carrier, so wrapped offsets would steer band-edge subcarriers off
target as the beam squints, while the raw offsets keep every subcarrier
exactly on target; the dictionary carries entries for their full range.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .core import ArrayConfig, SystemConfig, wrap_sine
# constant_direction_config is no longer called here but stays importable as
# hdb.constant_direction_config, the path perfbench/tracer.py wraps
from .solvers import SynthesisFn, constant_direction_config, constant_direction_delays  # noqa: F401
from .splitbeam import DirectionMap, subband_width

if TYPE_CHECKING:
    from .dictionary import GeneratorDictionary

__all__ = [
    "DictionaryCompatibilityError",
    "decompose",
    "generator_bands",
    "generator_set",
    "scale_shift",
    "synthesize",
    "synthesize_batch",
    "make_hdb_synthesizer",
]


class DictionaryCompatibilityError(Exception):
    """Dictionary metadata does not match the system being synthesized for."""


def _raw_offsets(directions: np.ndarray) -> np.ndarray:
    """``[d0, d1 - d0, ...]`` along the last axis; a -0.0 first direction stays -0.0, as ``-0.0 - 0.0`` does."""
    out = directions.copy()
    out[..., 1:] -= directions[..., :-1]
    return out


def generator_set(dmap: DirectionMap) -> np.ndarray:
    """Raw generator offsets ``[d0, d1 - d0, ...]``, spanning [-2, 2], whose running sum is the target."""
    return _raw_offsets(dmap.directions)


def decompose(dmap: DirectionMap) -> np.ndarray:
    """Direction offsets whose running sum reproduces the target directions.

    Solves the lower-triangular all-ones system by forward differences, then
    moves whole direction periods (multiples of 2 in sine space) from any
    out-of-range offset onto the first one, which is finally wrapped into
    (-1, 1].  The running sum stays congruent to the target mod 2 and every
    offset ends up with magnitude at most 1.
    """
    deltas = generator_set(dmap)
    for g in range(1, deltas.size):
        if abs(deltas[g]) > 1.0:
            shift = 2.0 * round(deltas[g] / 2.0)
            deltas[g] -= shift
            deltas[0] += shift
    deltas[0] = wrap_sine(deltas[0])
    return deltas


def generator_bands(g: int, n_subbands: int, cfg: SystemConfig) -> tuple[float, float]:
    """Center frequency and bandwidth the g-th generator is rescaled onto.

    ``fc_g = fc - BW/2 + (g-1)*BW/G`` places the generator's internal subband
    boundary exactly on the system's subband boundary g-1 | g, so boundaries
    of distinct generators never coincide.  The stretched width is
    ``2*BW*(G-1)/G`` for every g.  The g=1 band is unused (that generator is
    the closed-form constant-direction config).
    """
    if not 1 <= g <= n_subbands:
        raise IndexError(f"generator index {g} out of range 1..{n_subbands}")
    fc_g = cfg.carrier_freq - cfg.bandwidth / 2.0 + (g - 1) * cfg.bandwidth / n_subbands
    bw_g = 2.0 * cfg.bandwidth * (n_subbands - 1) / n_subbands
    return fc_g, bw_g


def _rescale(
    delays: np.ndarray, phases: np.ndarray, alpha, slope, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """New (delays, phases) of :func:`scale_shift` onto width ``alpha*BW`` at fc_new.

    ``slope`` is ``2*pi*fc_new/alpha``.  ``alpha`` and ``slope`` are scalars,
    or columns that put stacked rows each onto its own band; every element
    takes the same operations.
    """
    return delays / alpha, phases - 2.0 * np.pi * cfg.carrier_freq * delays + slope * delays


def scale_shift(phi: ArrayConfig, fc_new: float, bw_new: float, cfg: SystemConfig) -> ArrayConfig:
    """Remap a config onto a band of width bw_new centered at fc_new.

    The returned config responds at the new band's subcarrier k exactly as
    the input responded at the original band's subcarrier k: delays shrink by
    the bandwidth ratio and phases absorb the carrier shift.
    """
    if not bw_new > 0.0:
        raise ValueError(f"new bandwidth must be positive, got {bw_new}")
    alpha = bw_new / cfg.bandwidth
    return ArrayConfig(*_rescale(phi.delays, phi.phases, alpha, 2.0 * np.pi * fc_new / alpha, cfg))


@functools.lru_cache(maxsize=64)
def _band_plan(g_count: int, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (G-1, 1) columns ``alpha`` and ``slope`` of :func:`_rescale` for generators 2..G.

    Checks that G divides M; ``SystemConfig`` keeps the generators' band
    boundaries distinct.  Cached per (G, cfg); a failed check is not cached,
    so it raises again on every call.
    """
    subband_width(g_count, cfg.n_subcarriers)
    bands = [generator_bands(g, g_count, cfg) for g in range(2, g_count + 1)]
    fc_g, bw_g = np.array(bands, dtype=np.float64).reshape(-1, 2).T[:, :, None]
    alpha = bw_g / cfg.bandwidth
    slope = 2.0 * np.pi * fc_g / alpha
    alpha.setflags(write=False)
    slope.setflags(write=False)
    return alpha, slope


def _checked_plan(g_count: int, dictionary: "GeneratorDictionary", cfg: SystemConfig):
    """:func:`_band_plan` for (G, cfg), after checking the dictionary was built for cfg."""
    if dictionary.meta != cfg:
        raise DictionaryCompatibilityError(
            f"dictionary built for {dictionary.meta}, synthesizing for {cfg}"
        )
    return _band_plan(g_count, cfg)


def _compose(delays, entry_delays, entry_phases, alpha, slope, cfg: SystemConfig):
    """Closed-form ``delays`` (added to in place) and zero phases plus the G-1 rescaled entries.

    The (G-1, ..., N) entries take one :func:`_rescale` onto the plan's bands
    and are added left to right; then each sum is checked finite once.
    """
    entry_delays, entry_phases = _rescale(entry_delays, entry_phases, alpha, slope, cfg)
    phases = np.zeros(delays.shape)  # the closed-form config's phases: a -0.0 row sums to 0.0
    for row_delays, row_phases in zip(entry_delays, entry_phases):
        delays += row_delays
        phases += row_phases
    for x in (delays, phases):
        if np.count_nonzero(np.isfinite(x)) != x.size:
            raise ValueError("delays and phases must be finite")
    return delays, phases


def synthesize(dmap: DirectionMap, dictionary: "GeneratorDictionary", cfg: SystemConfig) -> ArrayConfig:
    """Config for a split target: sum of its generator configs.

    Uses the raw direction differences, whose running sum reproduces the
    target exactly at every subcarrier (see the module docstring).  Per
    generator one O(1) ``dictionary.lookup``; per call one cached band plan
    and one :func:`_compose`, whose frozen sums the config holds uncopied.
    Bitwise ``constant_direction_config(d_1) + sum(scale_shift(lookup(d_g), *generator_bands(g)))``.
    Requires a dictionary built for the same (N, M, fc, BW).
    """
    alpha, slope = _checked_plan(dmap.n_subbands, dictionary, cfg)
    deltas = generator_set(dmap)
    entries = [dictionary.lookup(delta) for delta in deltas[1:].tolist()]
    delays, phases = _compose(
        constant_direction_delays(float(deltas[0]), cfg),
        np.array([entry.delays for entry in entries]), np.array([entry.phases for entry in entries]),
        alpha, slope, cfg,
    )
    delays.setflags(write=False)
    phases.setflags(write=False)
    return ArrayConfig._of_rows(delays, phases)


def synthesize_batch(
    directions: np.ndarray, dictionary: "GeneratorDictionary", cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Delays and phases (B, N) of B split targets, given as directions (B, G), in one pass.

    Row b is bitwise ``synthesize(DirectionMap(directions[b]), dictionary, cfg)``:
    the same raw offsets, rows (``dictionary.index`` of each distinct offset,
    laid out (G-1, B)) and :func:`_compose`, with no per-target objects.
    Makes the checks of ``DirectionMap`` and :func:`synthesize` and raises the
    same exception types.
    """
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim != 2 or directions.shape[1] < 1:
        raise ValueError(f"need a (targets, subbands) array of directions, got shape {directions.shape}")
    if not (np.abs(directions) <= 1.0).all():
        raise ValueError("directions must lie in [-1, 1]")
    alpha, slope = _checked_plan(directions.shape[1], dictionary, cfg)
    deltas = _raw_offsets(directions)
    # each distinct offset searched once; -0.0 and 0.0 merge, and index gives both one row
    offsets, inverse = np.unique(deltas[:, 1:].T, return_inverse=True)
    rows = np.array([dictionary.index(delta) for delta in offsets.tolist()], dtype=np.intp)[inverse]
    return _compose(constant_direction_delays(deltas[:, :1], cfg), dictionary.delays[rows],
                    dictionary.phases[rows], alpha[..., None], slope[..., None], cfg)


def make_hdb_synthesizer(dictionary: "GeneratorDictionary") -> SynthesisFn:
    """Dictionary-backed synthesis procedure for the evaluation harness.

    Its ``batch`` attribute is :func:`synthesize_batch` on the same dictionary.
    """

    def hdb(dmap: DirectionMap, cfg: SystemConfig) -> ArrayConfig:
        return synthesize(dmap, dictionary, cfg)

    def batch(directions: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
        return synthesize_batch(directions, dictionary, cfg)

    hdb.batch = batch
    return hdb
