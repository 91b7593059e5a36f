"""Split-beam synthesis by generator composition.

Adding two array configs multiplies their precoders entry-wise (up to the
sqrt(N) normalization), which composes their beampatterns.  A G-subband
split target therefore decomposes into G simple generators: one constant
direction (closed form) plus G-1 two-subband offsets read from a precomputed
dictionary, each rescaled onto its own sub-band of the system bandwidth.
The target's config is just the sum of the generator configs.

:func:`synthesize` composes that sum on raw arrays: per generator one
dictionary lookup and a few length-N array operations, with one
:class:`ArrayConfig` built at the end of the call.  The closed-form delays and
the band rescaling come from the same helpers as
:func:`~ttdbeam.solvers.constant_direction_config` and :func:`scale_shift`, so
the result is bitwise the sum of those configs under ``ArrayConfig.__add__``.
:func:`synthesize_batch` runs the same steps on B targets at once and returns
their delays and phases as two (B, N) arrays, bitwise the stacked calls.

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

from typing import TYPE_CHECKING

import numpy as np

from .core import ArrayConfig, SystemConfig, wrap_sine
# constant_direction_config is no longer called here but stays importable as
# hdb.constant_direction_config, the path perfbench/tracer.py wraps
from .solvers import SynthesisFn, constant_direction_config, constant_direction_delays  # noqa: F401
from .splitbeam import DirectionMap

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


def generator_set(dmap: DirectionMap) -> np.ndarray:
    """Raw generator offsets ``[d0, d1 - d0, ...]``, spanning [-2, 2], whose running sum is the target.

    Bit for bit ``np.diff(directions, prepend=0.0)``: the copy keeps a -0.0
    first direction as -0.0 (as ``-0.0 - 0.0`` does) and skips the broadcast
    np.diff makes of its scalar ``prepend``.
    """
    directions = dmap.directions
    out = directions.copy()
    out[1:] -= directions[:-1]
    return out


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
    delays: np.ndarray, phases: np.ndarray, fc_new: float, bw_new: float, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """New (delays, phases) arrays of :func:`scale_shift`."""
    if not bw_new > 0.0:
        raise ValueError(f"new bandwidth must be positive, got {bw_new}")
    alpha = bw_new / cfg.bandwidth
    return delays / alpha, (
        phases
        - 2.0 * np.pi * cfg.carrier_freq * delays
        + (2.0 * np.pi * fc_new / alpha) * delays
    )


def scale_shift(phi: ArrayConfig, fc_new: float, bw_new: float, cfg: SystemConfig) -> ArrayConfig:
    """Remap a config onto a band of width bw_new centered at fc_new.

    The returned config responds at the new band's subcarrier k exactly as
    the input responded at the original band's subcarrier k: delays shrink by
    the bandwidth ratio and phases absorb the carrier shift.
    """
    return ArrayConfig(*_rescale(phi.delays, phi.phases, fc_new, bw_new, cfg))


def _generator_bands_checked(g_count: int, dictionary: "GeneratorDictionary", cfg: SystemConfig):
    """Bands of generators 2..G, after the checks every synthesis makes on (dictionary, G, cfg)."""
    if dictionary.meta != cfg:
        raise DictionaryCompatibilityError(
            f"dictionary built for {dictionary.meta}, synthesizing for {cfg}"
        )
    if cfg.n_subcarriers % g_count != 0:
        raise ValueError(f"{g_count} subbands do not divide {cfg.n_subcarriers} subcarriers")
    bands = [generator_bands(g, g_count, cfg) for g in range(2, g_count + 1)]
    if len({fc_g for fc_g, _ in bands}) != len(bands):
        raise AssertionError("generator subband boundaries must not coincide")
    return bands


def synthesize(dmap: DirectionMap, dictionary: "GeneratorDictionary", cfg: SystemConfig) -> ArrayConfig:
    """Config for a split target: sum of its generator configs.

    Uses the raw direction differences, whose running sum reproduces the
    target exactly at every subcarrier (see the module docstring).  Per
    generator one O(1) ``dictionary.lookup`` and a few length-N array
    operations, summed left to right into two length-N vectors; one
    ``ArrayConfig`` per call, O(N*G) total.  Bitwise equal to
    ``constant_direction_config(d_1) + sum(scale_shift(lookup(d_g), *generator_bands(g)))``.
    Requires a dictionary built for the same (N, M, fc, BW).
    """
    bands = _generator_bands_checked(dmap.n_subbands, dictionary, cfg)
    deltas = generator_set(dmap)
    delays = constant_direction_delays(float(deltas[0]), cfg)
    phases = np.zeros(cfg.n_antennas)
    for delta, (fc_g, bw_g) in zip(deltas[1:].tolist(), bands):
        entry = dictionary.lookup(delta)
        entry_delays, entry_phases = _rescale(entry.delays, entry.phases, fc_g, bw_g, cfg)
        delays += entry_delays
        phases += entry_phases
    return ArrayConfig(delays, phases)


def synthesize_batch(
    directions: np.ndarray, dictionary: "GeneratorDictionary", cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Delays and phases (B, N) of B split targets, given as directions (B, G), in one pass.

    Row b is bitwise ``synthesize(DirectionMap(directions[b]), dictionary, cfg)``:
    the same raw offsets, nearest rows (``dictionary.indices``), rescaling and
    left-to-right sum, each applied to all B targets at once, with no
    per-target objects.  Makes the checks of ``DirectionMap`` and
    :func:`synthesize` and raises the same exception types.
    """
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim != 2 or directions.shape[1] < 1:
        raise ValueError(f"need a (targets, subbands) array of directions, got shape {directions.shape}")
    if not (np.abs(directions) <= 1.0).all():
        raise ValueError("directions must lie in [-1, 1]")
    bands = _generator_bands_checked(directions.shape[1], dictionary, cfg)
    deltas = np.diff(directions, axis=1, prepend=0.0)  # generator_set, row by row
    # constant_direction_delays of each first offset
    delays = -deltas[:, :1] * np.arange(cfg.n_antennas, dtype=np.float64) / (2.0 * cfg.carrier_freq)
    phases = np.zeros_like(delays)
    rows = dictionary.indices(deltas[:, 1:])
    for g, (fc_g, bw_g) in enumerate(bands):
        entry_delays, entry_phases = _rescale(
            dictionary.delays[rows[:, g]], dictionary.phases[rows[:, g]], fc_g, bw_g, cfg
        )
        delays += entry_delays
        phases += entry_phases
    if not (np.isfinite(delays).all() and np.isfinite(phases).all()):
        raise ValueError("delays and phases must be finite")
    return delays, phases


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
