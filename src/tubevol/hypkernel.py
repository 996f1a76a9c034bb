"""Scalar kernel: the Lobachevsky function, ideal-polyhedron volume
constants, and the closed-form tube/drilling volume estimates.

Everything here is a pure function of binary64 inputs.  The quantities all
concern a closed geodesic of length ``L`` with an embedded open tube of
radius ``R`` inside a hyperbolic 3-manifold of volume ``v_fill``, whose
complement (the drilled manifold) has volume ``v_drill``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Factor",
    "TubeData",
    "V3",
    "V8",
    "VolumePair",
    "bound_base_B",
    "drilled_volume_bound",
    "drilling_estimates",
    "drilling_factors",
    "drilling_terms",
    "factor_co",
    "factor_cp",
    "filled_volume_lower_bound",
    "horocusp_volume",
    "lobachevsky",
    "mean_curvature",
    "overshoot_ratio",
    "tube_boundary_area",
    "tube_volume",
]


# ---------------------------------------------------------------------------
# Lobachevsky function

# Coefficients z_n / (n (2n + 1)), n = 1..24, of the series below, where
# z_n = zeta(2n) / pi^(2n) is rational: x cot x = 1 - 2 sum_{n>=1} z_n x^(2n).
# On [0, pi/2] term n is below 4^-n, so 24 terms reach rounding.
_SERIES_COEFFS = (
    0.05555555555555555, 0.0011111111111111111, 5.039052658100277e-05,
    2.9394473838918285e-06, 1.9434362868706303e-07, 1.3874386415425623e-08,
    1.0440927548511323e-09, 8.167135584551352e-11, 6.581241671581577e-12,
    5.429797905855281e-13, 4.5664886559293725e-14, 3.9019511366374804e-15,
    3.379062307725592e-16, 2.9599033661708997e-17, 2.6184896805573514e-18,
    2.3365234891261436e-19, 2.100812837917715e-20, 1.9016489757812576e-21,
    1.73175571544037e-22, 1.585591247569346e-23, 1.4588733690007642e-24,
    1.3482499313926238e-25, 1.2510658289125953e-26, 1.165195473796748e-27,
)


# pi as three parts (Cody-Waite), summing to pi within 2e-31: the first
# two carry 24 bits each, so k times either is exact for |k| < 2^29
_PI_PARTS = (3.1415927410125732, -8.742277657347586e-08, -3.4302489988857658e-15)


def lobachevsky(theta: float) -> float:
    """Lobachevsky function Lambda(theta) = -int_0^theta log|2 sin t| dt.

    The argument is reduced using oddness and pi-periodicity to x in
    [0, pi/2], where Lambda(x) = x - x log(2x) + sum_{n>=1} z_n x^(2n+1) /
    (n (2n+1)) with z_n = zeta(2n) / pi^(2n) (Milnor).  The result is
    accurate to rounding for |theta| < 2^29 pi (about 1.7e9); beyond that
    the reduction loses bits as |theta| grows (error about 6e-6 at 1e12).
    """
    if not math.isfinite(theta):
        raise DomainError("lobachevsky: theta must be finite")
    # Lambda(theta + k*pi) = Lambda(theta); reduce to x in [-pi/2, pi/2]
    k = round(theta / math.pi)
    x = theta
    for part in _PI_PARTS:
        x -= k * part
    sign = 1.0
    if x < 0.0:
        sign, x = -1.0, -x
    if x == 0.0:
        return 0.0
    x2 = x * x
    tail = 0.0
    for c in reversed(_SERIES_COEFFS):
        tail = tail * x2 + c
    return sign * (x - x * math.log(2.0 * x) + tail * x2 * x)


# Volumes of the regular ideal tetrahedron, 3 Lambda(pi/3), and octahedron,
# 8 Lambda(pi/4), correctly rounded (the series gives 3 Lambda(pi/3) one ulp
# above).
V3 = 1.0149416064096537
V8 = 3.663862376708876


# ---------------------------------------------------------------------------
# Domain types


def _require_positive_finite(value: float, what: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{what} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class TubeData:
    """Length of a closed geodesic and the radius of an embedded open tube
    about it, both in hyperbolic length units."""

    length: float
    radius: float

    def __post_init__(self):
        _require_positive_finite(self.length, "TubeData.length")
        _require_positive_finite(self.radius, "TubeData.radius")


@dataclass(frozen=True)
class VolumePair:
    """Volumes of a closed manifold and of its drilled complement.

    Drilling strictly increases volume, so 0 < v_fill < v_drill is enforced.
    """

    v_fill: float
    v_drill: float

    def __post_init__(self):
        _require_positive_finite(self.v_fill, "VolumePair.v_fill")
        _require_positive_finite(self.v_drill, "VolumePair.v_drill")
        if not self.v_drill > self.v_fill:
            raise DomainError(
                f"VolumePair: v_drill ({self.v_drill!r}) must strictly exceed "
                f"v_fill ({self.v_fill!r})"
            )


class Factor(enum.Enum):
    """Which multiplicative constant the drilled-volume estimate uses."""

    PERELMAN = "perelman"
    OLD = "old"


# ---------------------------------------------------------------------------
# Tube geometry


def tube_volume(t: TubeData) -> float:
    """Volume pi * L * sinh(R)^2 of the radius-R tube about the geodesic."""
    return math.pi * t.length * math.sinh(t.radius) ** 2


def tube_boundary_area(t: TubeData) -> float:
    """Area pi * L * sinh(2R) of the tube boundary torus."""
    return math.pi * t.length * math.sinh(2.0 * t.radius)


def mean_curvature(radius: float) -> float:
    """Mean curvature coth(2R) of the boundary of a radius-R tube.

    Equals (coth R + tanh R)/2; always > 1, tending to 1 as R grows.
    """
    _require_positive_finite(radius, "radius")
    return 1.0 / math.tanh(2.0 * radius)


def horocusp_volume(t: TubeData) -> float:
    """Volume of the horocusp whose boundary matches the tube boundary's
    area and mean curvature: (1/2) pi L sinh(2R) tanh(2R)."""
    two_r = 2.0 * t.radius
    return 0.5 * math.pi * t.length * math.sinh(two_r) * math.tanh(two_r)


# ---------------------------------------------------------------------------
# Drilling estimates


# The array kernel below is the only implementation of B, C_O, C_P and the
# estimates C B, so no verdict depends on the path that computed it.  Inputs
# become contiguous arrays of at least one dimension: numpy rounds sinh, cosh
# and powers differently on 0-d or non-contiguous input.  No domain checks.
# Array code runs with numpy's floating-point errors ignored: a result beyond
# binary64 is inf or nan, which _finite names, here or where it is printed.


def _finite(name: str, value, **inputs):
    """``value``; if an entry is not finite, a DomainError naming the
    quantity, then the ``inputs``, which broadcast to it, at the first one,
    whose flat index the error carries as ``index``."""
    finite = np.isfinite(value)
    if not finite.all():
        at = int(np.argmin(finite))
        where = ", ".join(
            f"{key} {float(np.broadcast_to(x, finite.shape).flat[at])!r}" for key, x in inputs.items()
        )
        error = DomainError(f"{name} overflows binary64" + (f" at {where}" if where else ""))
        error.index = at
        raise error
    return value


@np.errstate(all="ignore")
def drilling_factors(radius) -> tuple[np.ndarray, np.ndarray]:
    """C_O = (coth R coth 2R)^(3/2) and C_P = coth(2R)^3 over an array of R.
    A factor that overflows binary64 is a DomainError naming it and the
    first radius where it does."""
    radius = np.ascontiguousarray(radius, dtype=np.float64)
    tanh_r, tanh_2r = np.tanh(radius), np.tanh(2.0 * radius)
    c_o, c_p = (1.0 / (tanh_r * tanh_2r)) ** 1.5, (1.0 / tanh_2r) ** 3
    return _finite("C_O", c_o, radius=radius), _finite("C_P", c_p, radius=radius)


@np.errstate(all="ignore")
def drilling_terms(v_fill, length, radius) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B = v_fill + pi L sinh(R)^2 sech(2R) over broadcast arrays, then C_O
    and C_P as drilling_factors(radius); with v_fill = 0, B is the tube term.
    Where B overflows binary64 (sinh(R)^2 does above R = 355), a DomainError
    names it and the first such record."""
    v_fill, length, radius = (
        np.ascontiguousarray(x, dtype=np.float64) for x in (v_fill, length, radius)
    )
    b = v_fill + np.pi * length * np.sinh(radius) ** 2 / np.cosh(2.0 * radius)
    return (_finite("B", b, v_fill=v_fill, length=length, radius=radius), *drilling_factors(radius))


@np.errstate(all="ignore")
def drilling_estimates(v_fill, length, radius) -> tuple[np.ndarray, ...]:
    """B, C_O and C_P as drilling_terms, then the estimates C_O B and C_P B;
    where one overflows binary64, a DomainError names it and the first such
    record."""
    b, c_o, c_p = drilling_terms(v_fill, length, radius)
    record = dict(v_fill=v_fill, length=length, radius=radius)
    v_old = _finite("V_est_old", c_o * b, **record)
    return b, c_o, c_p, v_old, _finite("V_est_perelman", c_p * b, **record)


def bound_base_B(v_fill: float, t: TubeData) -> float:
    """Base term B = v_fill + pi L sinh(R)^2 sech(2R) of the drilling
    estimates; algebraically equal to v_fill + (pi/2) L tanh(R) tanh(2R)."""
    _require_positive_finite(v_fill, "v_fill")
    return float(drilling_terms(v_fill, t.length, t.radius)[0][0])


def factor_co(radius: float) -> float:
    """Multiplier (coth R coth 2R)^(3/2) of the older drilling estimate."""
    _require_positive_finite(radius, "radius")
    return float(drilling_factors(radius)[0][0])


def factor_cp(radius: float) -> float:
    """Multiplier coth(2R)^3 of the sharper drilling estimate."""
    _require_positive_finite(radius, "radius")
    return float(drilling_factors(radius)[1][0])


def _factor_value(old, perelman, factor: Factor):
    if factor is Factor.PERELMAN:
        return perelman
    if factor is Factor.OLD:
        return old
    raise DomainError(f"unknown factor {factor!r}")


def drilled_volume_bound(v_fill: float, t: TubeData, factor: Factor) -> float:
    """Upper bound C(R) * B for the volume of the drilled manifold.

    ``factor`` selects C = coth(2R)^3 (PERELMAN) or (coth R coth 2R)^(3/2)
    (OLD); the former is smaller, hence sharper, for every R.
    """
    _require_positive_finite(v_fill, "v_fill")
    _, _, _, v_old, v_perelman = drilling_estimates(v_fill, t.length, t.radius)
    return float(_factor_value(v_old, v_perelman, factor)[0])


def overshoot_ratio(p: VolumePair, t: TubeData, factor: Factor = Factor.PERELMAN) -> float:
    """Estimate error (V_est - v_drill) / (v_drill - v_fill), where V_est is
    the drilled-volume bound.  Negative iff the record violates the bound."""
    v_est = drilled_volume_bound(p.v_fill, t, factor)
    return (v_est - p.v_drill) / (p.v_drill - p.v_fill)


def filled_volume_lower_bound(
    v_drill: float, t: TubeData, factor: Factor = Factor.PERELMAN
) -> float:
    """Lower bound for the filled volume, inverting the drilled-volume bound:
    v_drill / C(R) - pi L sinh(R)^2 sech(2R).  May be <= 0 (vacuous)."""
    _require_positive_finite(v_drill, "v_drill")
    correction, c_o, c_p = (float(x[0]) for x in drilling_terms(0.0, t.length, t.radius))
    return v_drill / _factor_value(c_o, c_p, factor) - correction
