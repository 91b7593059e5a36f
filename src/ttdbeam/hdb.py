"""Split-beam synthesis by generator composition.

Adding two array configs multiplies their precoders entry-wise (up to the
sqrt(N) normalization), which composes their beampatterns.  A G-subband
split target therefore decomposes into G simple generators: one constant
direction (closed form) plus G-1 two-subband offsets read from a precomputed
dictionary, each rescaled onto its own sub-band of the system bandwidth.
The target's config is just the sum of the generator configs.

Two offset conventions coexist here.  :func:`decompose` reports offsets
wrapped into the visible direction range, which is the natural invariant
form (running sum congruent to the target mod 2, every offset within
[-1, 1]).  :func:`synthesize` works with the raw, unwrapped differences
instead: a mod-2 direction shift is a pattern symmetry only at the carrier,
so wrapped offsets would steer band-edge subcarriers off target as the beam
squints, while the raw offsets keep every subcarrier exactly on target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ArrayConfig, SystemConfig, _readonly, wrap_sine
from .solvers import SynthesisFn, constant_direction_config
from .splitbeam import DirectionMap

if TYPE_CHECKING:
    from .dictionary import GeneratorDictionary

__all__ = [
    "GeneratorSet",
    "DictionaryCompatibilityError",
    "decompose",
    "generator_bands",
    "generator_set",
    "scale_shift",
    "synthesize",
    "make_hdb_synthesizer",
]


class DictionaryCompatibilityError(Exception):
    """Dictionary metadata does not match the system being synthesized for."""


def _forward_differences(directions: np.ndarray) -> np.ndarray:
    """``[d0, d1 - d0, d2 - d1, ...]``, bit for bit ``np.diff(directions, prepend=0.0)``.

    The copy keeps a -0.0 first direction as -0.0 (as ``-0.0 - 0.0`` does) and
    skips the broadcast np.diff makes of its scalar ``prepend``.
    """
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
    deltas = _forward_differences(dmap.directions)
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


@dataclass(frozen=True)
class GeneratorSet:
    """Synthesis plan for a split target: offsets plus per-generator bands.

    The offsets here are the raw forward differences of the target
    directions (first entry is the first direction itself), so they span
    [-2, 2] and their running sum equals the target exactly.  Wrapping them
    mod 2 would keep the beams on target only at the carrier; the dictionary
    therefore carries entries for the full raw range.
    """

    deltas: np.ndarray
    bands: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", _readonly(self.deltas))
        if len(self.bands) != self.deltas.size:
            raise ValueError("need one band per generator")


def generator_set(dmap: DirectionMap, cfg: SystemConfig) -> GeneratorSet:
    g_count = dmap.n_subbands
    return GeneratorSet(
        deltas=_forward_differences(dmap.directions),
        bands=tuple(generator_bands(g, g_count, cfg) for g in range(1, g_count + 1)),
    )


def scale_shift(phi: ArrayConfig, fc_new: float, bw_new: float, cfg: SystemConfig) -> ArrayConfig:
    """Remap a config onto a band of width bw_new centered at fc_new.

    The returned config responds at the new band's subcarrier k exactly as
    the input responded at the original band's subcarrier k: delays shrink by
    the bandwidth ratio and phases absorb the carrier shift.
    """
    if not bw_new > 0.0:
        raise ValueError(f"new bandwidth must be positive, got {bw_new}")
    alpha = bw_new / cfg.bandwidth
    delays = phi.delays / alpha
    phases = (
        phi.phases
        - 2.0 * np.pi * cfg.carrier_freq * phi.delays
        + (2.0 * np.pi * fc_new / alpha) * phi.delays
    )
    return ArrayConfig(delays, phases)


def synthesize(dmap: DirectionMap, dictionary: "GeneratorDictionary", cfg: SystemConfig) -> ArrayConfig:
    """Config for a split target: sum of its generator configs.

    Uses the raw direction differences, whose running sum reproduces the
    target exactly at every subcarrier (see the module docstring).  One
    dictionary read and one length-N linear pass per generator, O(N*G)
    total.  Requires a dictionary built for the same (N, M, fc, BW).
    """
    if dictionary.meta != cfg:
        raise DictionaryCompatibilityError(
            f"dictionary built for {dictionary.meta}, synthesizing for {cfg}"
        )
    dmap.validate_with(cfg)
    plan = generator_set(dmap, cfg)
    total = constant_direction_config(float(plan.deltas[0]), cfg)
    boundaries = [band[0] for band in plan.bands[1:]]
    if len(set(boundaries)) != len(boundaries):
        raise AssertionError("generator subband boundaries must not coincide")
    for g in range(2, dmap.n_subbands + 1):
        entry = dictionary.lookup(float(plan.deltas[g - 1]))
        fc_g, bw_g = plan.bands[g - 1]
        total = total + scale_shift(entry, fc_g, bw_g, cfg)
    return total


def make_hdb_synthesizer(dictionary: "GeneratorDictionary") -> SynthesisFn:
    """Dictionary-backed synthesis procedure for the evaluation harness."""

    def hdb(dmap: DirectionMap, cfg: SystemConfig) -> ArrayConfig:
        return synthesize(dmap, dictionary, cfg)

    return hdb
