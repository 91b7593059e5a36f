"""Target split beampatterns: subband-to-direction maps and their ideal precoders.

A split beampattern partitions the M subcarriers into G equal contiguous
subbands and points each subband at its own direction.  The ideal precoder
below realizes that target exactly (squint-free) but is generally not
realizable by delay/phase hardware; it serves as the optimization target and
as the reference the synthesized patterns are judged against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SystemConfig, _readonly, subcarrier_freqs

__all__ = [
    "DirectionMap",
    "expand_directions",
    "ideal_split_precoder",
    "subband_width",
]


@dataclass(frozen=True)
class DirectionMap:
    """One sine-space direction per subband."""

    directions: np.ndarray

    def __post_init__(self) -> None:
        d = _readonly(self.directions)
        object.__setattr__(self, "directions", d)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("need at least one direction")
        if not (np.abs(d) <= 1.0).all():
            raise ValueError("directions must lie in [-1, 1]")

    @property
    def n_subbands(self) -> int:
        return self.directions.size


def subband_width(n_subbands: int, n_subcarriers: int) -> int:
    """Subcarriers per subband, M/G; ValueError unless G >= 1 divides M."""
    if n_subbands < 1 or n_subcarriers % n_subbands != 0:
        raise ValueError(f"{n_subbands} subbands do not divide {n_subcarriers} subcarriers")
    return n_subcarriers // n_subbands


def expand_directions(dmap: DirectionMap, cfg: SystemConfig) -> np.ndarray:
    """Per-subcarrier direction vector: block-constant over the G subbands."""
    return np.repeat(dmap.directions, subband_width(dmap.n_subbands, cfg.n_subcarriers))


def _steering_precoder(psi: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """N x M weights ``exp(j*pi*n*psi_m*f_m/fc) / sqrt(N)`` for per-subcarrier psi_m.

    psi_m may lie outside [-1, 1]; the formula extends smoothly.
    """
    f = subcarrier_freqs(cfg)
    n = np.arange(cfg.n_antennas)
    phase = np.pi * np.outer(n, psi * f / cfg.carrier_freq)
    return np.exp(1j * phase) / np.sqrt(cfg.n_antennas)


def ideal_split_precoder(dmap: DirectionMap, cfg: SystemConfig) -> np.ndarray:
    """Frequency-dependent weights steering each subcarrier at its subband direction.

    Entry (n, m) is ``exp(j*pi*n*psi_m*f_m/fc) / sqrt(N)``.  The f_m/fc factor
    makes the steering exact at every subcarrier; delay/phase hardware cannot
    produce the direction jump between subbands, so this is a target, not a
    realizable config.
    """
    return _steering_precoder(expand_directions(dmap, cfg), cfg)

