"""Combinatorial and topological volume lower bounds.

The topological invariants consumed here (Euler characteristic of guts,
doubled Gromov norms, twist numbers) are inputs supplied by the caller;
computing them from triangulations or diagrams is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .hypkernel import TubeData, V3, V8, filled_volume_lower_bound

__all__ = [
    "AlternatingDiagram",
    "GutsData",
    "alternating_volume_window",
    "guts_bound_tiers",
    "guts_lower_bound",
    "haken_double_bound",
    "miyamoto_lower_bound",
    "min_volume_scan",
]


@dataclass(frozen=True)
class GutsData:
    """Invariants of the guts of a manifold cut along an incompressible
    surface: Euler characteristic (always <= 0) and, optionally, the Gromov
    norm of the double of the cut-open manifold."""

    euler_characteristic: int
    double_gromov_norm: float | None = None

    def __post_init__(self):
        if self.euler_characteristic > 0:
            raise DomainError("GutsData: euler_characteristic must be <= 0")
        if self.double_gromov_norm is not None:
            norm = self.double_gromov_norm
            if not (math.isfinite(norm) and norm >= 0.0):
                raise DomainError("GutsData: double_gromov_norm must be >= 0")


@dataclass(frozen=True)
class AlternatingDiagram:
    """Twist number of a prime alternating hyperbolic link diagram."""

    twist_number: int

    def __post_init__(self):
        if self.twist_number < 2:
            raise DomainError("AlternatingDiagram: twist_number must be >= 2")


def miyamoto_lower_bound(chi: int) -> float:
    """Miyamoto's bound -V8 * chi for a hyperbolic manifold with totally
    geodesic boundary of Euler characteristic chi <= 0."""
    if chi > 0:
        raise DomainError("miyamoto_lower_bound: chi must be <= 0")
    return V8 * -chi  # not -V8 * chi, which is -0.0 at chi = 0


def guts_bound_tiers(g: GutsData) -> tuple[float | None, float]:
    """Both tiers of the guts volume bound: the Gromov-norm tier
    (V3/2 * norm, None when the norm is not supplied) and the
    Euler-characteristic tier -V8 * chi."""
    chi_tier = miyamoto_lower_bound(g.euler_characteristic)
    if g.double_gromov_norm is None:
        return None, chi_tier
    return haken_double_bound(g.double_gromov_norm), chi_tier


def guts_lower_bound(g: GutsData) -> float:
    """Best available volume lower bound from guts data: the max of the
    Gromov-norm tier (when present) and the Euler-characteristic tier."""
    norm_tier, chi_tier = guts_bound_tiers(g)
    if norm_tier is None:
        return chi_tier
    return max(norm_tier, chi_tier)


def alternating_volume_window(d: AlternatingDiagram) -> tuple[float, float]:
    """Two-sided volume bounds for a hyperbolic alternating link with twist
    number t: V8 * (t/2 - 1) <= vol <= 10 * V3 * (t - 1)."""
    t = d.twist_number
    return V8 * (t / 2.0 - 1.0), 10.0 * V3 * (t - 1.0)


def haken_double_bound(double_gromov_norm: float) -> float:
    """Volume lower bound V3/2 times the Gromov norm of the double, for a
    manifold with minimal surface boundary."""
    if not (math.isfinite(double_gromov_norm) and double_gromov_norm >= 0.0):
        raise DomainError("haken_double_bound: norm must be >= 0")
    return 0.5 * V3 * double_gromov_norm


def min_volume_scan(v_cusped_min: float, radius: float, l_max: float) -> float:
    """The filled-volume lower bound v_cusped_min / C_P(R) - pi L sinh(R)^2
    sech(2R) at L = l_max, where it is least over L in (0, l_max].  It bounds
    the closed manifold's volume only when ``l_max`` bounds the length of the
    drilled geodesic; the caller owns that hypothesis."""
    if not (math.isfinite(v_cusped_min) and v_cusped_min > 0.0):
        raise DomainError("min_volume_scan: v_cusped_min must be positive")
    if not (math.isfinite(l_max) and l_max > 0.0):
        raise DomainError("min_volume_scan: l_max must be positive")
    return filled_volume_lower_bound(v_cusped_min, TubeData(l_max, radius))
