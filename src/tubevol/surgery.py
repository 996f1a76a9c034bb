"""Volume-change predictors under hyperbolic Dehn filling.

A filling that deforms through cone manifolds changes volume by half the
integral of the core length against cone angle; this module integrates
sampled cone-angle profiles and checks the short-geodesic asymptotics and
the monotone-profile volume bound against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, ParseError, parse_number, read_lines
from .hypkernel import STRICT_FLOATS

__all__ = [
    "BridgemanResult",
    "ConeProfile",
    "bridgeman_check",
    "hodgson_kerckhoff_regime",
    "neumann_zagier_estimate",
    "read_profile",
    "schlafli_delta_v",
]

_TAU = 2.0 * math.pi
_ENDPOINT_TOL = 1e-9


@dataclass(frozen=True)
class ConeProfile:
    """Sampled cone-angle-to-core-length function on [0, 2*pi].

    Angles are strictly increasing from exactly 0 to exactly 2*pi (values
    within 1e-9 are snapped).  Lengths are positive, except that the sample
    at angle 0 may be 0: it is the drilled limit, where the core degenerates.
    """

    angles: tuple[float, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        lengths = tuple(float(v) for v in self.lengths)
        if len(angles) != len(lengths):
            raise DomainError("ConeProfile: angles and lengths differ in size")
        if len(angles) < 2:
            raise DomainError("ConeProfile: need at least 2 samples")
        if not all(map(math.isfinite, angles + lengths)):
            raise DomainError("ConeProfile: angles and lengths must be finite")
        if abs(angles[0]) > _ENDPOINT_TOL or abs(angles[-1] - _TAU) > _ENDPOINT_TOL:
            raise DomainError("ConeProfile: angles must run from 0 to 2*pi")
        angles = (0.0,) + angles[1:-1] + (_TAU,)
        if any(a2 <= a1 for a1, a2 in zip(angles, angles[1:])):
            raise DomainError("ConeProfile: angles must be strictly increasing")
        if lengths[0] < 0.0 or any(v <= 0.0 for v in lengths[1:]):
            raise DomainError(
                "ConeProfile: lengths must be positive (0 allowed only at angle 0)"
            )
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def sampled(cls, func: Callable[[float], float], count: int) -> "ConeProfile":
        """Profile from ``count`` uniform samples of ``func`` over [0, 2*pi]."""
        if count < 2:
            raise DomainError("ConeProfile.sampled: count must be >= 2")
        angles = [_TAU * i / (count - 1) for i in range(count)]
        angles[-1] = _TAU
        return cls(tuple(angles), tuple(func(a) for a in angles))


@np.errstate(**STRICT_FLOATS)
def schlafli_delta_v(p: ConeProfile, method: str = "trapezoid") -> float:
    """Volume increase under drilling: half the integral of the core length
    over cone angles in [0, 2*pi], by composite quadrature of the samples.

    ``trapezoid`` accepts any profile and is exact for piecewise-linear
    ones; ``simpson`` requires an odd count of uniformly spaced samples and
    is exact through quadratics.
    """
    angles = np.asarray(p.angles)
    lengths = np.asarray(p.lengths)
    if method == "trapezoid":
        return 0.5 * float(np.trapezoid(lengths, angles))
    if method == "simpson":
        n = len(angles)
        if n < 3 or n % 2 == 0:
            raise DomainError("schlafli_delta_v: simpson needs an odd sample count >= 3")
        h = np.diff(angles)
        step = _TAU / (n - 1)
        if np.max(np.abs(h - step)) > 1e-9 * step:
            raise DomainError("schlafli_delta_v: simpson needs uniform spacing")
        weights = np.ones(n)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return 0.5 * float(step / 3.0 * np.dot(weights, lengths))
    raise DomainError(f"schlafli_delta_v: unknown method {method!r}")


def neumann_zagier_estimate(length: float) -> float:
    """Leading-order volume increase pi * L / 2 for a short core geodesic."""
    if not (math.isfinite(length) and length > 0.0):
        raise DomainError("neumann_zagier_estimate: length must be positive")
    return 0.5 * math.pi * length


class BridgemanResult(NamedTuple):
    monotone: bool
    bound_holds: bool
    delta_v: float
    pi_l: float


def bridgeman_check(p: ConeProfile) -> BridgemanResult:
    """Check the volume increase against pi times the final core length.

    The bound delta_v <= pi * L(2*pi) is a consequence of the integral
    formula whenever the profile is monotone nondecreasing; the comparison
    carries a 1e-12 relative slack so quadrature roundoff cannot break that
    implication on sampled data.
    """
    delta_v = schlafli_delta_v(p, "trapezoid")
    pi_l = math.pi * p.lengths[-1]
    monotone = all(v2 >= v1 for v1, v2 in zip(p.lengths, p.lengths[1:]))
    bound_holds = delta_v <= pi_l + 1e-12 * max(abs(delta_v), abs(pi_l))
    return BridgemanResult(monotone, bound_holds, delta_v, pi_l)


def hodgson_kerckhoff_regime(length, radius):
    """Whether (L, R) lies in the regime L <= 0.16 and R >= 0.66, where the
    monotone-profile volume bound is known unconditionally.  Floats give a
    bool, arrays a bool array."""
    length, radius = np.asarray(length, dtype=np.float64), np.asarray(radius, dtype=np.float64)
    if not np.all(np.isfinite(length) & (length > 0.0)):
        raise DomainError("hodgson_kerckhoff_regime: length must be positive")
    if not np.all(np.isfinite(radius) & (radius > 0.0)):
        raise DomainError("hodgson_kerckhoff_regime: radius must be positive")
    regime = (length <= 0.16) & (radius >= 0.66)
    return bool(regime) if regime.ndim == 0 else regime


def read_profile(path) -> ConeProfile:
    """Read a two-column CSV ``theta,length`` from ``errors.read_lines``; the
    header line is optional."""
    angles = []
    lengths = []
    first_data = True
    for lineno, line in read_lines(path):
        parts = [p.strip() for p in line.split(",")]
        if first_data:
            first_data = False
            if parts == ["theta", "length"]:
                continue
        if len(parts) != 2:
            raise ParseError(f"{path}: line {lineno}: expected 2 columns")
        try:
            angles.append(parse_number(parts[0]))
            lengths.append(parse_number(parts[1]))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    try:
        return ConeProfile(tuple(angles), tuple(lengths))
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
