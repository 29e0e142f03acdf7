"""Closed-form transmission-overhead model for the three countermeasures.

All quantities are ratios of expected wasted bits (corrupted bits
forwarded, hash bits spent, valid bits dropped alongside corrupted ones)
to total bits received at one relay node, for a per-packet attack
probability p:

* end-to-end error correction forwards everything: ratio p,
* per-packet detection drops bad packets at a hash cost of h_p bits per
  packet: ratio max(0, h_p - n p) / n,
* per-generation detection drops whole generations at a hash cost of h_g
  bits per generation: ratio max(0, h_g + p_g (1-p) n G - p n G) / (n G),
  with drop probability p_g = 1 - (1-p)^G.

The clamp at zero applies to the per-time-unit expectation: once dropping
corrupted traffic saves more than the hashes cost, the scheme is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .algebra import _as_int

SCHEMES = ("error-correction", "packet", "generation")

DEFAULT_N = 1000
DEFAULT_G = 10
DEFAULT_HP_FRACTION = 0.06
DEFAULT_HG_FRACTION = 0.02


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")


@dataclass(frozen=True)
class SchemeParams:
    """All tunables of the overhead model for one operating point.

    Every ratio is per bit received, so the packet rate cancels and is
    not a parameter.
    """

    n: float  # packet size in bits
    G: int  # generation size
    h_p: float  # per-packet hash bits
    h_g: float  # per-generation hash bits
    p: float  # attack probability

    def __post_init__(self):
        _check_probability(self.p)
        if self.n <= 0:
            raise ValueError("n must be positive")
        if _as_int(self.G, "G") < 1:
            raise ValueError("G must be >= 1")
        if not 0 <= self.h_p <= self.n:
            raise ValueError("h_p must lie in [0, n]")
        if not 0 <= self.h_g <= self.n * self.G:
            raise ValueError("h_g must lie in [0, n*G]")

    @classmethod
    def defaults(cls, p: float, n: float = DEFAULT_N, G: int = DEFAULT_G,
                 hp_fraction: float = DEFAULT_HP_FRACTION,
                 hg_fraction: float = DEFAULT_HG_FRACTION) -> "SchemeParams":
        """Standard parameterization: h_p = 6% of n, h_g = 2% of nG."""
        return cls(n=n, G=G, h_p=hp_fraction * n,
                   h_g=hg_fraction * n * G, p=p)

    def at(self, p: float) -> "SchemeParams":
        return replace(self, p=p)


@dataclass(frozen=True)
class OverheadPoint:
    """One (attack probability, scheme) -> analytic overhead ratio record."""

    scheme: str
    params: SchemeParams
    ratio: float

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("overhead ratio must lie in [0, 1]")


def overhead_error_correction(p: float) -> float:
    """Forward-everything baseline: the corrupted fraction itself."""
    _check_probability(p)
    return p


def overhead_packet(p: float, n: float, h_p: float) -> float:
    """Per-packet detection: hash cost minus bandwidth saved, clamped."""
    _check_probability(p)
    if n <= 0 or not 0 <= h_p <= n:
        raise ValueError("need n > 0 and 0 <= h_p <= n")
    return max(0.0, h_p - n * p) / n


def drop_probability(p: float, G: int) -> float:
    """Probability a generation of G packets contains a corrupted one."""
    _check_probability(p)
    if _as_int(G, "G") < 1:
        raise ValueError("G must be >= 1")
    return 1.0 - (1.0 - p) ** G


def overhead_generation(p: float, n: float, G: int, h_g: float) -> float:
    """Per-generation detection: hash plus valid-bits-dropped minus saved.

    The linear accounting can nominally exceed the bits received when h_g
    approaches its n*G cap at large G (hash bits counted on top of fully
    dropped generations); since a ratio of wasted to received bits cannot,
    the result is clamped to [0, 1].  The upper clamp never binds at the
    standard parameterizations.
    """
    _check_probability(p)
    if n <= 0 or _as_int(G, "G") < 1 or not 0 <= h_g <= n * G:
        raise ValueError("need n > 0, G >= 1 and 0 <= h_g <= n*G")
    p_g = drop_probability(p, G)
    raw = (h_g + p_g * (1.0 - p) * n * G - p * n * G) / (n * G)
    return min(1.0, max(0.0, raw))


def goodput_fraction_packet(n: float, h_p: float) -> float:
    """Fraction of forwarded bits that are data under per-packet hashing."""
    if n <= 0 or not 0 <= h_p <= n:
        raise ValueError("need n > 0 and 0 <= h_p <= n")
    return 1.0 - h_p / n


def goodput_fraction_generation(n: float, G: int, h_g: float) -> float:
    """Fraction of forwarded bits that are data under per-generation hashing."""
    if n <= 0 or _as_int(G, "G") < 1 or not 0 <= h_g <= n * G:
        raise ValueError("need n > 0, G >= 1 and 0 <= h_g <= n*G")
    return 1.0 - h_g / (n * G)


def generation_limit(p: float) -> float:
    """Large-G limit of the generation scheme with the hash size held fixed.

    As G grows, almost every generation contains a corrupted packet and is
    dropped, so the overhead tends to the valid traffic lost minus the
    corrupted traffic avoided: max(0, 1 - 2p).
    """
    _check_probability(p)
    return max(0.0, 1.0 - 2.0 * p)


def peak_attack_probability(G: int) -> float:
    """Attack probability maximizing the generation scheme's overhead.

    Stationary point of (1 - (1-p)^G)(1-p) - p, valid when the hash term
    scales with nG (so it is flat in p): p* = 1 - (2/(G+1))^(1/G).  For
    G = 1 the expression decreases on (0, 1], so the peak sits at p = 0.
    """
    if _as_int(G, "G") < 1:
        raise ValueError("G must be >= 1")
    if G == 1:
        return 0.0
    return 1.0 - (2.0 / (G + 1.0)) ** (1.0 / G)


def crossover_ec_vs_packet(n: float, h_p: float) -> float:
    """Attack probability where error correction stops beating per-packet
    detection: the unique solution of p = (h_p - n p)/n, i.e. h_p / 2n."""
    if n <= 0 or not 0 <= h_p <= n:
        raise ValueError("need n > 0 and 0 <= h_p <= n")
    return h_p / (2.0 * n)


def overhead_for(scheme: str, params: SchemeParams) -> float:
    """Dispatch the analytic ratio for a named scheme."""
    if scheme == "error-correction":
        return overhead_error_correction(params.p)
    if scheme == "packet":
        return overhead_packet(params.p, params.n, params.h_p)
    if scheme == "generation":
        return overhead_generation(params.p, params.n, params.G, params.h_g)
    raise ValueError(f"unknown scheme {scheme!r}")


def overhead_point(scheme: str, params: SchemeParams) -> OverheadPoint:
    return OverheadPoint(scheme=scheme, params=params,
                         ratio=overhead_for(scheme, params))
