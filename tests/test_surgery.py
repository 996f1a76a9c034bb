import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubevol import errors
from tubevol.errors import DomainError, ParseError
from tubevol.surgery import (
    ConeProfile,
    bridgeman_check,
    hodgson_kerckhoff_regime,
    neumann_zagier_estimate,
    read_profile,
    schlafli_delta_v,
)

TAU = 2.0 * math.pi


def ramp(final_length: float, count: int = 9) -> ConeProfile:
    return ConeProfile.sampled(lambda a: a / TAU * final_length, count)


@st.composite
def monotone_profiles(draw):
    increments = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40)
    )
    scale = draw(st.floats(min_value=1e-3, max_value=4.0))
    k = len(increments)
    angles = tuple(TAU * i / k for i in range(k)) + (TAU,)
    total = sum(increments) or 1.0
    cumulative = tuple(
        1e-6 + scale * sum(increments[: i + 1]) / total for i in range(k)
    )
    return ConeProfile(angles, (1e-6,) + cumulative)


class TestConeProfile:
    def test_requires_full_angle_range(self):
        with pytest.raises(DomainError):
            ConeProfile((0.0, 3.0), (1.0, 1.0))
        with pytest.raises(DomainError):
            ConeProfile((0.1, TAU), (1.0, 1.0))
        # a nan endpoint passes a range comparison, so it must not be snapped
        for angles in ((math.nan, 3.0, TAU), (0.0, 3.0, math.nan), (0.0, math.inf, TAU)):
            with pytest.raises(DomainError):
                ConeProfile(angles, (1.0, 1.0, 1.0))

    def test_requires_increasing_angles(self):
        with pytest.raises(DomainError):
            ConeProfile((0.0, 4.0, 4.0, TAU), (1.0, 1.0, 1.0, 1.0))

    def test_requires_positive_lengths(self):
        with pytest.raises(DomainError):
            ConeProfile((0.0, 3.0, TAU), (1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            ConeProfile((0.0, TAU), (1.0, -1.0))

    def test_drilled_limit_sample_may_vanish(self):
        profile = ConeProfile((0.0, TAU), (0.0, 1.0))
        assert profile.lengths[0] == 0.0

    def test_snaps_endpoints(self):
        profile = ConeProfile((1e-12, TAU + 1e-12), (1.0, 1.0))
        assert profile.angles[0] == 0.0
        assert profile.angles[-1] == TAU

    def test_minimum_samples(self):
        with pytest.raises(DomainError):
            ConeProfile((0.0,), (1.0,))
        with pytest.raises(DomainError, match="differ in size"):
            ConeProfile((0.0, TAU), (1.0,))

    def test_sampled_needs_two_samples(self):
        with pytest.raises(DomainError, match="count must be >= 2"):
            ConeProfile.sampled(lambda a: 1.0, 1)


class TestSchlafli:
    def test_constant_profile(self):
        for c in (0.5, 2.0):
            profile = ConeProfile.sampled(lambda a: c, 7)
            assert schlafli_delta_v(profile) == pytest.approx(math.pi * c, rel=1e-15)

    def test_linear_ramp_exact(self):
        final = 0.8
        assert schlafli_delta_v(ramp(final)) == pytest.approx(
            math.pi * final / 2.0, rel=1e-15
        )

    def test_quadratic_simpson_exact(self):
        profile = ConeProfile.sampled(lambda a: a * a if a > 0.0 else 0.0, 101)
        expected = 4.0 * math.pi ** 3 / 3.0
        value = schlafli_delta_v(profile, "simpson")
        assert abs(value - expected) <= 1e-9 * expected

    def test_simpson_beats_trapezoid_on_quadratic(self):
        profile = ConeProfile.sampled(lambda a: a * a if a > 0.0 else 0.0, 41)
        expected = 4.0 * math.pi ** 3 / 3.0
        err_simpson = abs(schlafli_delta_v(profile, "simpson") - expected)
        err_trap = abs(schlafli_delta_v(profile, "trapezoid") - expected)
        assert err_simpson < err_trap

    def test_trapezoid_dyadic_refinement(self):
        # trapezoid overestimates convex integrands, less so as the grid refines
        expected = 4.0 * math.pi ** 3 / 3.0
        values = [
            schlafli_delta_v(
                ConeProfile.sampled(lambda a: a * a if a > 0.0 else 0.0, n)
            )
            for n in (9, 17, 33, 65)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= expected - 1e-12 for v in values)

    def test_simpson_needs_odd_count(self):
        profile = ConeProfile.sampled(lambda a: 1.0, 10)
        with pytest.raises(DomainError):
            schlafli_delta_v(profile, "simpson")

    def test_simpson_needs_uniform_spacing(self):
        profile = ConeProfile((0.0, 1.0, TAU), (1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            schlafli_delta_v(profile, "simpson")

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            schlafli_delta_v(ramp(1.0), "midpoint")

    @given(monotone_profiles())
    @settings(max_examples=200)
    def test_mean_value_bounds(self, profile):
        value = schlafli_delta_v(profile)
        low = math.pi * min(profile.lengths)
        high = math.pi * max(profile.lengths)
        slack = 1e-12 * max(1.0, high)
        assert low - slack <= value <= high + slack


class TestNeumannZagier:
    def test_values(self):
        assert neumann_zagier_estimate(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert neumann_zagier_estimate(0.3) == pytest.approx(0.15 * math.pi, rel=1e-15)

    def test_matches_linear_ramp(self):
        final = 1.7
        assert schlafli_delta_v(ramp(final)) == neumann_zagier_estimate(final)

    def test_domain(self):
        with pytest.raises(DomainError):
            neumann_zagier_estimate(0.0)


class TestBridgeman:
    def test_constant_profile_tight(self):
        result = bridgeman_check(ConeProfile.sampled(lambda a: 1.3, 9))
        assert result.monotone
        assert result.bound_holds
        assert result.delta_v == pytest.approx(result.pi_l, rel=1e-14)

    def test_linear_ramp(self):
        result = bridgeman_check(ramp(0.9))
        assert result.monotone
        assert result.bound_holds
        assert result.delta_v == pytest.approx(0.5 * result.pi_l, rel=1e-14)

    def test_violating_profile(self):
        # spike at small angles decaying to a short final length
        profile = ConeProfile((0.0, math.pi, TAU), (3.0, 3.0, 1.0))
        result = bridgeman_check(profile)
        assert not result.monotone
        assert not result.bound_holds
        assert result.delta_v == pytest.approx(2.5 * math.pi, rel=1e-14)
        assert result.pi_l == pytest.approx(math.pi, rel=1e-15)

    @given(monotone_profiles())
    @settings(max_examples=300)
    def test_monotone_implies_bound(self, profile):
        result = bridgeman_check(profile)
        assert result.monotone
        assert result.bound_holds


class TestHodgsonKerckhoff:
    @pytest.mark.parametrize(
        "length,radius,expected",
        [(0.16, 0.66, True), (0.17, 0.66, False), (0.16, 0.65, False), (0.1, 1.0, True)],
    )
    def test_regime(self, length, radius, expected):
        assert hodgson_kerckhoff_regime(length, radius) is expected

    def test_domain(self):
        with pytest.raises(DomainError):
            hodgson_kerckhoff_regime(0.0, 1.0)
        with pytest.raises(DomainError):
            hodgson_kerckhoff_regime(1.0, -1.0)


class TestProfileIO:
    def test_read_fixture(self, data_dir):
        profile = read_profile(data_dir / "profile_ramp.csv")
        assert len(profile.angles) == 5
        assert schlafli_delta_v(profile) == pytest.approx(0.4 * math.pi, rel=1e-14)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(
            "theta,length\n0,0.5\n3.141592653589793,0.7\n6.283185307179586,0.9\n"
        )
        profile = read_profile(path)
        assert profile.lengths == (0.5, 0.7, 0.9)

    def test_headerless(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("0,0.5\n6.283185307179586,0.9\n")
        assert read_profile(path).lengths == (0.5, 0.9)

    def test_malformed(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("theta,length\n0,0.5,9\n6.283185307179586,0.9\n")
        with pytest.raises(ParseError, match="line 2"):
            read_profile(path)

    def test_undecodable_file_closed_before_its_error_leaves(self, tmp_path, monkeypatch):
        # an error kept with its traceback must not keep the reader suspended
        # with its file open
        path = tmp_path / "profile.csv"
        path.write_bytes(b"theta,length\n0,0.5\xff\n6.283185307179586,0.9\n")
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(errors, "open", recording_open, raising=False)
        with pytest.raises(ParseError, match="line 2: not UTF-8 text") as kept:
            read_profile(path)
        assert kept.value.__traceback__ is not None
        assert len(handles) == 1 and handles[0].closed

    def test_bad_domain_reported_as_parse_error(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("theta,length\n0,0.5\n3.0,0.9\n")
        with pytest.raises(ParseError):
            read_profile(path)
