import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubevol.errors import DomainError
from tubevol import hypkernel
from tubevol.hypkernel import (
    Factor,
    TubeData,
    V3,
    V8,
    VolumePair,
    bound_base_B,
    drilled_volume_bound,
    drilling_terms,
    factor_co,
    factor_cp,
    filled_volume_lower_bound,
    horocusp_volume,
    lobachevsky,
    mean_curvature,
    overshoot_ratio,
    tube_boundary_area,
    tube_volume,
)

HALF_LN3 = 0.5 * math.log(3.0)

# reference values computed independently with mpmath tanh-sinh quadrature
# of the defining integral at 40 digits
LOB_REFERENCE = {
    math.pi / 3.0: 0.3383138688032178750070675180915,
    math.pi / 4.0: 0.4579827970886095075273017574662,
    math.pi / 6.0: 0.5074708032048268125106012771373,
    0.2: 0.3837029470213387418918266218197,
    1.0: 0.3635730254316396237149191273042,
    2.5: -0.4964100662734783593546277300628,
}
V3_REFERENCE = 1.0149416064096536250212025542745
V8_REFERENCE = 3.6638623767088760602184140597295

radii = st.floats(min_value=0.05, max_value=8.0)
lengths = st.floats(min_value=1e-3, max_value=50.0)
volumes = st.floats(min_value=1e-2, max_value=100.0)


class TestLobachevsky:
    @pytest.mark.parametrize("theta,expected", sorted(LOB_REFERENCE.items()))
    def test_reference_values(self, theta, expected):
        assert lobachevsky(theta) == pytest.approx(expected, abs=1e-12)

    def test_zero(self):
        assert lobachevsky(0.0) == 0.0

    def test_vanishes_at_half_pi(self):
        assert abs(lobachevsky(math.pi / 2.0)) < 1e-12

    def test_quadrature_oracle(self):
        # tanh-sinh quadrature of the defining integrand, whose nodes never
        # reach the integrable log singularity at 0
        for theta in (0.05, 0.3, 0.9, 1.3, math.pi / 2.0):
            oracle = mpmath.quad(lambda t: -mpmath.log(2 * mpmath.sin(t)), [0, theta])
            assert lobachevsky(theta) == pytest.approx(float(oracle), abs=1e-15)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_odd(self, theta):
        assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta), abs=1e-11)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_pi_periodic(self, theta):
        assert lobachevsky(theta + math.pi) == pytest.approx(
            lobachevsky(theta), abs=1e-11
        )

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_duplication(self, theta):
        lhs = lobachevsky(2.0 * theta)
        rhs = 2.0 * lobachevsky(theta) + 2.0 * lobachevsky(theta + math.pi / 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, theta):
        with pytest.raises(DomainError):
            lobachevsky(theta)

    # Lambda(pi/2) = 0, and Lambda(1e-300) is mpmath's clsin(2, 2e-300)/2
    @pytest.mark.parametrize(
        "theta,expected",
        sorted(LOB_REFERENCE.items())
        + [(math.pi / 2.0, 0.0), (1e-300, 6.91082380717653777188817956547e-298)],
    )
    def test_series_reaches_rounding(self, theta, expected):
        assert abs(lobachevsky(theta) - expected) <= 1e-15

    # mpmath clsin(2, 2 theta) / 2 at 50 digits; binary64 pi alone as the
    # period left errors of 8.8e-15, 2.9e-11 and 1.4e-9 at 1e3, 1e6, 1e9
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (1e3, 0.377119364266551698198759754008),
            (1e6, -0.479999297140839192888855145071),
            (314159265.0, -0.480501398165126794732270392871),
            (1e9, 0.505063697052423327127971603527),
            (1.6e9, -0.47032587148703168426492845199),
        ],
    )
    def test_large_arguments_reach_rounding(self, theta, expected):
        assert abs(lobachevsky(theta) - expected) <= 1e-16
        assert abs(lobachevsky(-theta) + expected) <= 1e-16

    def test_series_coefficients(self):
        # x cot x = (x cos x) / sin x = 1 - 2 sum z_n x^(2n), divided as
        # power series in x^2 with exact rationals
        terms = len(hypkernel._SERIES_COEFFS)
        cos = [Fraction((-1) ** k, math.factorial(2 * k)) for k in range(terms + 1)]
        sinc = [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(terms + 1)]
        quotient = [Fraction(1)]
        for n in range(1, terms + 1):
            quotient.append(cos[n] - sum(sinc[k] * quotient[n - k] for k in range(1, n + 1)))
        expected = [float(-quotient[n] / 2 / (n * (2 * n + 1))) for n in range(1, terms + 1)]
        assert list(hypkernel._SERIES_COEFFS) == expected
        assert expected[:2] == [1.0 / 18.0, 1.0 / 900.0]  # zeta(2) = pi^2/6, zeta(4) = pi^4/90


class TestConstants:
    # the literals parse to the nearest binary64, so these check correct rounding
    def test_v3(self):
        assert V3 == V3_REFERENCE

    def test_v8(self):
        assert V8 == V8_REFERENCE

    def test_printed_digits(self):
        assert f"{2.0 * V3:.6g}" == "2.02988"
        assert f"{V8:.3g}" == "3.66"

    def test_derived_from_lobachevsky(self):
        assert abs(V3 - 3.0 * lobachevsky(math.pi / 3.0)) < 1e-12
        assert abs(V8 - 8.0 * lobachevsky(math.pi / 4.0)) < 1e-12


class TestDomainTypes:
    @pytest.mark.parametrize("length,radius", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                               (math.inf, 1.0), (1.0, math.nan)])
    def test_tube_data_rejects(self, length, radius):
        with pytest.raises(DomainError):
            TubeData(length, radius)

    @pytest.mark.parametrize("v_fill,v_drill", [(1.0, 1.0), (2.0, 1.5), (0.0, 1.0),
                                                (-1.0, 2.0), (1.0, math.inf)])
    def test_volume_pair_rejects(self, v_fill, v_drill):
        with pytest.raises(DomainError):
            VolumePair(v_fill, v_drill)


class TestTubeGeometry:
    def test_tube_volume_closed_form(self):
        # sinh(ln3 / 2) = 1/sqrt(3)
        assert tube_volume(TubeData(1.0, HALF_LN3)) == pytest.approx(
            math.pi / 3.0, rel=1e-14
        )

    @given(radii)
    def test_tube_volume_linear_in_length(self, radius):
        one = tube_volume(TubeData(1.0, radius))
        two = tube_volume(TubeData(2.0, radius))
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_tube_volume_degenerate_limit(self):
        values = [tube_volume(TubeData(1.0, r)) for r in (1e-4, 1e-6, 1e-8)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-15

    def test_boundary_area_closed_form(self):
        # sinh(ln 3) = 4/3
        assert tube_boundary_area(TubeData(1.0, HALF_LN3)) == pytest.approx(
            math.pi * 4.0 / 3.0, rel=1e-14
        )

    def test_boundary_area_degenerate_limit(self):
        values = [tube_boundary_area(TubeData(1.0, r)) for r in (1e-4, 1e-6, 1e-8)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-7

    @given(lengths, radii)
    def test_boundary_area_double_angle(self, length, radius):
        expected = 2.0 * math.pi * length * math.sinh(radius) * math.cosh(radius)
        assert tube_boundary_area(TubeData(length, radius)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_mean_curvature_anchor(self):
        # coth(ln 3) = 5/4
        assert mean_curvature(HALF_LN3) == pytest.approx(1.25, rel=1e-15)

    def test_mean_curvature_limit(self):
        assert mean_curvature(20.0) == pytest.approx(1.0, abs=1e-12)
        assert mean_curvature(5.0) > 1.0

    @pytest.mark.parametrize("radius", [0.1, 0.5, 1.0, 2.0])
    def test_mean_curvature_identity(self, radius):
        avg = 0.5 * (1.0 / math.tanh(radius) + math.tanh(radius))
        assert abs(avg - mean_curvature(radius)) < 1e-12

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_mean_curvature_domain(self, radius):
        with pytest.raises(DomainError):
            mean_curvature(radius)

    def test_horocusp_anchor(self):
        # tanh(ln 3) = 4/5
        assert horocusp_volume(TubeData(1.0, HALF_LN3)) == pytest.approx(
            8.0 * math.pi / 15.0, rel=1e-14
        )

    @given(lengths, radii)
    def test_horocusp_consistency(self, length, radius):
        t = TubeData(length, radius)
        expected = tube_boundary_area(t) / (2.0 * mean_curvature(radius))
        assert horocusp_volume(t) == pytest.approx(expected, rel=1e-12)

    def test_horocusp_short_limit(self):
        assert horocusp_volume(TubeData(1e-12, 1.0)) < 1e-10


class TestBoundBase:
    def test_short_geodesic_limit(self):
        v = bound_base_B(3.5, TubeData(1e-14, 1.0))
        assert v == pytest.approx(3.5, rel=1e-12)

    def test_anchor(self):
        # sinh^2 = 1/3 and sech(ln 3) = 3/5 give a pi/5 correction
        v = bound_base_B(2.0 * V3, TubeData(1.0, HALF_LN3))
        assert v == pytest.approx(2.0 * V3 + math.pi / 5.0, rel=1e-14)

    @pytest.mark.parametrize("length", [0.3, 1.0])
    @pytest.mark.parametrize("radius", [0.4, 1.5])
    def test_two_forms_agree(self, length, radius):
        first = bound_base_B(1.0, TubeData(length, radius)) - 1.0
        second = (
            0.5 * math.pi * length * math.tanh(radius) * math.tanh(2.0 * radius)
        )
        assert abs(first - second) <= 1e-12 * abs(second)


# The scalar math-module formulas the array kernel replaced, kept as its
# reference.  Each side rounds a few transcendental calls, a reciprocal and
# a power, so they may differ by several ulps; the tolerance is fixed at
# 8 ulps of binary64 relative error.
KERNEL_REL_TOL = 8 * np.finfo(np.float64).eps


def reference_b(v_fill, length, radius):
    return v_fill + math.pi * length * math.sinh(radius) ** 2 / math.cosh(2.0 * radius)


def reference_co(radius):
    return (1.0 / (math.tanh(radius) * math.tanh(2.0 * radius))) ** 1.5


def reference_cp(radius):
    return (1.0 / math.tanh(2.0 * radius)) ** 3


class TestKernel:
    def test_agrees_with_math_reference(self):
        radius, length = np.meshgrid(np.linspace(0.02, 8.0, 400), np.linspace(1e-3, 50.0, 50))
        radius, length = radius.ravel(), length.ravel()
        b, c_o, c_p = drilling_terms(2.5, length, radius)
        for got, ref in (
            (b, [reference_b(2.5, l, r) for l, r in zip(length.tolist(), radius.tolist())]),
            (c_o, [reference_co(r) for r in radius.tolist()]),
            (c_p, [reference_cp(r) for r in radius.tolist()]),
        ):
            np.testing.assert_allclose(got, ref, rtol=KERNEL_REL_TOL, atol=0.0)

    def test_scalar_functions_are_kernel_entries(self):
        rng = np.random.default_rng(5)
        v_fill = rng.uniform(0.5, 20.0, 257)
        length = rng.uniform(0.01, 5.0, 257)
        radius = rng.uniform(0.05, 4.0, 257)
        b, c_o, c_p = drilling_terms(v_fill, length, radius)
        for i in range(257):
            t = TubeData(float(length[i]), float(radius[i]))
            assert bound_base_B(float(v_fill[i]), t) == b[i]
            assert factor_co(t.radius) == c_o[i]
            assert factor_cp(t.radius) == c_p[i]

    def test_broadcasts_and_keeps_shape(self):
        b, c_o, c_p = drilling_terms(1.0, 2.0, np.array([0.5, 1.0, 1.5]))
        assert b.shape == c_o.shape == c_p.shape == (3,)
        assert drilling_terms(1.0, 2.0, 0.5)[0].shape == (1,)


class TestFactors:
    def test_cp_anchor(self):
        assert factor_cp(HALF_LN3) == 125.0 / 64.0

    def test_co_anchor(self):
        # coth(ln3 / 2) = 2 exactly
        assert factor_co(HALF_LN3) == pytest.approx(
            (5.0 / 2.0) ** 1.5, rel=1e-13
        )
        assert factor_co(HALF_LN3) == pytest.approx(
            3.9528470752104741649986169305409, rel=1e-13
        )

    @given(radii)
    def test_ordering(self, radius):
        assert factor_co(radius) > factor_cp(radius) > 1.0

    def test_monotone_decreasing(self):
        # strictly decreasing while the values are resolvable in binary64;
        # past R ~ 8.5 adjacent grid values differ by less than one ulp of 1.0
        # and only ties remain
        grid = [0.02 + 0.02 * i for i in range(400)]
        co = [factor_co(r) for r in grid]
        cp = [factor_cp(r) for r in grid]
        assert all(x > y for x, y in zip(co, co[1:]))
        assert all(x > y for x, y in zip(cp, cp[1:]))
        tail = [factor_cp(r) for r in (9.2, 9.6, 10.0)]
        assert all(x >= y for x, y in zip(tail, tail[1:]))

    def test_tend_to_one(self):
        assert factor_co(15.0) == pytest.approx(1.0, abs=1e-10)
        assert factor_cp(15.0) == pytest.approx(1.0, abs=1e-10)

    def test_ratio_limits(self):
        assert factor_co(1e-6) / factor_cp(1e-6) == pytest.approx(
            2.0 ** 1.5, abs=1e-4
        )
        assert factor_co(12.0) / factor_cp(12.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -0.3])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            factor_co(bad)
        with pytest.raises(DomainError):
            factor_cp(bad)


class TestDrilledVolumeBound:
    def test_anchor(self):
        t = TubeData(1.0, HALF_LN3)
        expected = (125.0 / 64.0) * (2.0 * V3 + math.pi / 5.0)
        assert drilled_volume_bound(2.0 * V3, t, Factor.PERELMAN) == pytest.approx(
            expected, rel=1e-14
        )

    @given(volumes, lengths, radii)
    def test_old_dominates(self, v_fill, length, radius):
        t = TubeData(length, radius)
        old = drilled_volume_bound(v_fill, t, Factor.OLD)
        new = drilled_volume_bound(v_fill, t, Factor.PERELMAN)
        assert old > new

    def test_monotonicity(self):
        t = TubeData(1.0, 0.8)
        assert drilled_volume_bound(2.0, t, Factor.PERELMAN) < drilled_volume_bound(
            3.0, t, Factor.PERELMAN
        )
        assert drilled_volume_bound(
            2.0, TubeData(1.0, 0.8), Factor.PERELMAN
        ) < drilled_volume_bound(2.0, TubeData(2.0, 0.8), Factor.PERELMAN)
        assert drilled_volume_bound(
            2.0, TubeData(1.0, 1.2), Factor.PERELMAN
        ) < drilled_volume_bound(2.0, TubeData(1.0, 0.8), Factor.PERELMAN)

    def test_large_radius_limit(self):
        # factor -> 1 and the correction term -> pi L / 2
        v = drilled_volume_bound(2.0, TubeData(1.0, 14.0), Factor.PERELMAN)
        assert v == pytest.approx(2.0 + math.pi / 2.0, abs=1e-9)

    def test_factor_is_a_factor_not_its_name(self):
        with pytest.raises(DomainError, match="unknown factor"):
            drilled_volume_bound(2.0, TubeData(1.0, 0.8), "perelman")


class TestOvershootRatio:
    def test_exact_estimate_is_zero(self):
        t = TubeData(0.7, 0.9)
        v_fill = 2.2
        v_est = drilled_volume_bound(v_fill, t, Factor.PERELMAN)
        assert overshoot_ratio(VolumePair(v_fill, v_est), t) == 0.0

    def test_divergence_direction(self):
        t = TubeData(1.0, 1.0)
        values = [
            overshoot_ratio(VolumePair(1.0, 1.0 + eps), t)
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert values[0] < values[1] < values[2]
        assert values[2] > 1e5

    def test_synthetic_record(self):
        # frozen via 40-digit arithmetic on the closed forms
        t = TubeData(1.0, 1.0)
        ratio = overshoot_ratio(VolumePair(1.0, 1.5), t)
        assert ratio == pytest.approx(1.8068564176826531431983342814387, rel=1e-13)

    def test_factor_selection(self):
        t = TubeData(1.0, 1.0)
        pair = VolumePair(1.0, 1.5)
        assert overshoot_ratio(pair, t, Factor.OLD) > overshoot_ratio(pair, t)


class TestFilledVolumeLowerBound:
    def test_short_geodesic_anchor(self):
        v = filled_volume_lower_bound(2.0 * V3, TubeData(1e-15, HALF_LN3))
        assert v == pytest.approx(1.0393002049634853120217114155771, rel=1e-12)

    def test_anchor_with_length(self):
        v = filled_volume_lower_bound(2.0 * V3, TubeData(1.0, HALF_LN3))
        assert v == pytest.approx(0.4109816742455266643291827389212, rel=1e-12)

    @given(volumes, lengths, radii)
    @settings(max_examples=200)
    def test_round_trip(self, v_fill, length, radius):
        t = TubeData(length, radius)
        for factor in (Factor.PERELMAN, Factor.OLD):
            forward = drilled_volume_bound(v_fill, t, factor)
            back = filled_volume_lower_bound(forward, t, factor)
            assert back == pytest.approx(v_fill, rel=1e-12)

    def test_can_be_vacuous(self):
        assert filled_volume_lower_bound(0.1, TubeData(5.0, 0.5)) < 0.0
