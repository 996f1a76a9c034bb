"""Reference values computed apart from the program, in mpmath.

This module never imports ``tubevol``.  Every expected value the benchmark
compares the program's outputs against comes from here: the closed-form
tube and drilling quantities, the verdicts of the four census
inequalities, the figure curves, the exact integral of a piecewise-linear
cone profile, and distances between geodesics of upper half-space.

Inputs are binary64 floats (as written to the generated files, which hold
``repr`` values); ``mpf(float)`` converts them exactly, so the reference is
the exact real value at the program's inputs, rounded only at the working
precision below.
"""

from __future__ import annotations

import itertools

import mpmath
from mpmath import mp, mpf, mpc

mp.dps = 40

PI = mpmath.pi
# binary64 unit roundoff
U = mpf(2) ** -53


# ---------------------------------------------------------------------------
# Closed forms of the drilling estimates


def tube_quantities(v_fill: float, length: float, radius: float) -> dict:
    """Every row of ``tubevol estimate`` for one (v_fill, L, R), exactly."""
    v, l, r = mpf(v_fill), mpf(length), mpf(radius)
    sh, sh2, ch2 = mpmath.sinh(r), mpmath.sinh(2 * r), mpmath.cosh(2 * r)
    coth_r, coth_2r = mpmath.coth(r), mpmath.coth(2 * r)
    b = v + PI * l * sh**2 / ch2
    c_o = (coth_r * coth_2r) ** mpf(1.5)
    c_p = coth_2r**3
    return {
        "tube_volume": PI * l * sh**2,
        "tube_boundary_area": PI * l * sh2,
        "mean_curvature": coth_2r,
        "horocusp_volume": PI * l * sh2 * mpmath.tanh(2 * r) / 2,
        "B": b,
        "C_O": c_o,
        "C_P": c_p,
        "V_est_old": c_o * b,
        "V_est_perelman": c_p * b,
    }


def factor_co(radius) -> mpf:
    r = mpf(radius)
    return (mpmath.coth(r) * mpmath.coth(2 * r)) ** mpf(1.5)


def factor_cp(radius) -> mpf:
    return mpmath.coth(2 * mpf(radius)) ** 3


def filled_volume_bound(v_drill: float, length: float, radius: float) -> mpf:
    """v_drill / C_P(R) - pi L sinh^2(R) sech(2R)."""
    r = mpf(radius)
    return mpf(v_drill) / factor_cp(r) - PI * mpf(length) * mpmath.sinh(r) ** 2 / mpmath.cosh(
        2 * r
    )


# ---------------------------------------------------------------------------
# Census records

VERDICT_COLUMNS = ("perelman_ok", "old_ok", "bridgeman_ok", "b_le_vdrill")


def record_report(v_fill: float, v_drill: float, length: float, radius: float) -> dict:
    """The numeric report columns and the four verdicts of one record."""
    q = tube_quantities(v_fill, length, radius)
    vf, vd = mpf(v_fill), mpf(v_drill)
    dv = vd - vf
    pi_l = PI * mpf(length)
    out = {
        "b": q["B"],
        "c_o": q["C_O"],
        "c_p": q["C_P"],
        "v_est_old": q["V_est_old"],
        "v_est_perelman": q["V_est_perelman"],
        "overshoot_old": (q["V_est_old"] - vd) / dv,
        "overshoot_perelman": (q["V_est_perelman"] - vd) / dv,
        "delta_v": dv,
        "dv_over_pi_l": dv / pi_l,
        "b_over_vdrill": q["B"] / vd,
        "perelman_ok": vd <= q["V_est_perelman"],
        "old_ok": vd <= q["V_est_old"],
        "bridgeman_ok": dv <= pi_l,
        "b_le_vdrill": q["B"] <= vd,
    }
    # error scale of each column as the program evaluates it in binary64:
    # the overshoots cancel v_est against v_drill before dividing by dv
    out["_scale"] = {
        "overshoot_old": (q["V_est_old"] + vd) / dv,
        "overshoot_perelman": (q["V_est_perelman"] + vd) / dv,
    }
    return out


def agrees(printed: str, exact, scale=None, ulps: int = 64) -> bool:
    """Whether a value printed with 12 significant digits agrees with the
    exact value: within half a unit of the 12th digit of the exact value,
    plus ``ulps`` binary64 roundings of ``scale`` (the size of the terms
    the program's formula cancels; by default the value itself)."""
    exact = mpf(exact)
    err = abs(mpf(printed) - exact)
    scale = abs(exact) if scale is None else abs(mpf(scale))
    return err <= mpf("5e-12") * abs(exact) + ulps * U * scale


# ---------------------------------------------------------------------------
# Cone profiles


def trapezoid_half_integral(angles, lengths) -> mpf:
    """Half the integral over [0, 2 pi] of the piecewise-linear function
    through the samples; exact at the working precision."""
    total = mpf(0)
    for a0, a1, l0, l1 in zip(angles, angles[1:], lengths, lengths[1:]):
        total += (mpf(a1) - mpf(a0)) * (mpf(l0) + mpf(l1)) / 2
    return total / 2


# ---------------------------------------------------------------------------
# Upper half-space geometry

INF = None  # the ideal point at infinity


def normalized(entries) -> tuple:
    """A 2x2 complex matrix (a, b, c, d) scaled to determinant 1."""
    a, b, c, d = (mpc(e) for e in entries)
    s = mpmath.sqrt(a * d - b * c)
    return (a / s, b / s, c / s, d / s)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def apply(m, z):
    a, b, c, d = m
    if z is INF:
        return INF if c == 0 else a / c
    den = c * z + d
    if den == 0:
        return INF
    return (a * z + b) / den


def fixed_points(m):
    """The two fixed points of a loxodromic matrix."""
    a, b, c, d = m
    if c == 0:
        return (b / (d - a), INF)
    disc = mpmath.sqrt((a - d) ** 2 + 4 * b * c)
    return ((a - d + disc) / (2 * c), (a - d - disc) / (2 * c))


def complex_length(m) -> mpc:
    """ell + i theta with ell > 0: the translation length is 2 log of the
    larger eigenvalue's modulus."""
    t = m[0] + m[3]
    s = mpmath.sqrt(t * t - 4)
    eig = max((t + s) / 2, (t - s) / 2, key=abs)
    return 2 * mpmath.log(eig)


def _cross_ratio(p1, q1, p2, q2):
    # image of (p2, q2) under the map sending p1 -> 0 and q1 -> INF
    def to_zero_inf(z):
        if z is INF:
            return mpc(1) if q1 is not INF else INF
        if q1 is INF:
            return z - p1
        return (z - p1) / (z - q1)

    u, v = to_zero_inf(p2), to_zero_inf(q2)
    if u is INF or v is INF or u == 0 or v == 0:
        return None  # the lines share an ideal endpoint
    return u / v


def line_distance(line1, line2) -> mpf:
    """Distance between two geodesics given by endpoint pairs.

    With x the cross-ratio of the four endpoints, the complex distance eta
    satisfies tanh^2(eta/2) = x, so the real distance is
    |log |(1 + sqrt x) / (1 - sqrt x)||; it is 0 when the lines meet.
    """
    x = _cross_ratio(*line1, *line2)
    if x is None:
        return mpf(0)
    s = mpmath.sqrt(x)
    return abs(mpmath.log(abs((1 + s) / (1 - s))))


def _chordal(p, q) -> mpf:
    if p is INF and q is INF:
        return mpf(0)
    if p is INF or q is INF:
        z = q if p is INF else p
        return 2 / mpmath.sqrt(1 + abs(z) ** 2)
    return 2 * abs(p - q) / (mpmath.sqrt(1 + abs(p) ** 2) * mpmath.sqrt(1 + abs(q) ** 2))


def same_line(line1, line2, tol=mpf("1e-20")) -> bool:
    (p1, q1), (p2, q2) = line1, line2
    return (_chordal(p1, p2) < tol and _chordal(q1, q2) < tol) or (
        _chordal(p1, q2) < tol and _chordal(q1, p2) < tol
    )


def word_matrix(generators, word: str):
    """Product of normalized generator matrices spelled by ``word``
    ('a'..'z' generators, capitals their inverses)."""
    m = (mpc(1), mpc(0), mpc(0), mpc(1))
    for ch in word:
        g = generators[ord(ch.lower()) - ord("a")]
        m = mat_mul(m, mat_inv(g) if ch.isupper() else g)
    return m


def is_reduced(word: str, n_generators: int) -> bool:
    letters = {chr(ord("a") + i) for i in range(n_generators)}
    letters |= {c.upper() for c in letters}
    if not word or any(c not in letters for c in word):
        return False
    return all(x != y.swapcase() for x, y in zip(word, word[1:]))


def reduced_words(n_generators: int, max_length: int):
    letters = []
    for i in range(n_generators):
        letters += [chr(ord("a") + i), chr(ord("A") + i)]
    for k in range(1, max_length + 1):
        for word in itertools.product(letters, repeat=k):
            w = "".join(word)
            if is_reduced(w, n_generators):
                yield w


def lift_distance(generators, core_word: str, word: str) -> mpf | None:
    """Distance from the core's axis to its image under ``word``; None when
    the word maps the axis onto itself."""
    core_axis = fixed_points(word_matrix(generators, core_word))
    m = word_matrix(generators, word)
    image = (apply(m, core_axis[0]), apply(m, core_axis[1]))
    if same_line(core_axis, image):
        return None
    return line_distance(core_axis, image)


def brute_force_min_distance(generators, core_word: str, max_length: int) -> mpf:
    """Minimum distance from the core's axis to a distinct lift, over all
    reduced words of length at most ``max_length``."""
    best = mpmath.inf
    for word in reduced_words(len(generators), max_length):
        d = lift_distance(generators, core_word, word)
        if d is not None and d < best:
            best = d
    return best


# ---------------------------------------------------------------------------
# Noise model of the synthetic census


def clipped_normal_std(sigma: float, k: float = 3.0) -> mpf:
    """Standard deviation of N(0, sigma^2) clipped to [-k sigma, k sigma]."""
    k = mpf(k)
    phi = mpmath.npdf(k)
    cdf = mpmath.ncdf(k)
    second = (2 * cdf - 1) - 2 * k * phi + 2 * k**2 * (1 - cdf)
    return mpf(sigma) * mpmath.sqrt(second)
