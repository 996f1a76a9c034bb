import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubevol.errors import DomainError
from tubevol.hypkernel import V3, V8, TubeData, filled_volume_lower_bound
from tubevol.topobounds import (
    AlternatingDiagram,
    GutsData,
    alternating_volume_window,
    guts_bound_tiers,
    guts_lower_bound,
    haken_double_bound,
    min_volume_scan,
    miyamoto_lower_bound,
)

HALF_LN3 = 0.5 * math.log(3.0)


class TestMiyamoto:
    def test_values(self):
        assert miyamoto_lower_bound(0) == 0.0
        assert miyamoto_lower_bound(-1) == V8
        assert miyamoto_lower_bound(-3) == pytest.approx(3.0 * V8, rel=1e-15)

    def test_positive_chi_rejected(self):
        with pytest.raises(DomainError):
            miyamoto_lower_bound(1)


class TestGuts:
    def test_no_data(self):
        assert guts_lower_bound(GutsData(0)) == 0.0

    def test_chi_only(self):
        assert guts_lower_bound(GutsData(-1)) == V8

    def test_norm_tier_wins(self):
        # V3/2 * 8 = 4 V3 ~ 4.0598 beats V8 ~ 3.6639
        bound = guts_lower_bound(GutsData(-1, 8.0))
        assert bound == pytest.approx(4.0 * V3, rel=1e-15)
        assert bound > V8

    def test_chi_tier_wins_for_small_norm(self):
        assert guts_lower_bound(GutsData(-1, 1.0)) == V8

    def test_tiers_exposed(self):
        norm_tier, chi_tier = guts_bound_tiers(GutsData(-2, 3.0))
        assert norm_tier == pytest.approx(1.5 * V3, rel=1e-15)
        assert chi_tier == pytest.approx(2.0 * V8, rel=1e-15)
        assert guts_bound_tiers(GutsData(-2))[0] is None

    def test_validation(self):
        with pytest.raises(DomainError):
            GutsData(1)
        with pytest.raises(DomainError):
            GutsData(-1, -0.5)

    @given(st.integers(min_value=-20, max_value=0),
           st.floats(min_value=0.0, max_value=50.0))
    def test_monotone_in_inputs(self, chi, norm):
        base = guts_lower_bound(GutsData(chi, norm))
        assert guts_lower_bound(GutsData(chi - 1, norm)) >= base
        assert guts_lower_bound(GutsData(chi, norm + 1.0)) >= base


class TestAlternatingWindow:
    def test_minimal_diagram(self):
        lower, upper = alternating_volume_window(AlternatingDiagram(2))
        assert lower == 0.0
        assert upper == pytest.approx(10.0 * V3, rel=1e-15)

    def test_borromean_anchor(self):
        lower, upper = alternating_volume_window(AlternatingDiagram(6))
        assert lower == pytest.approx(2.0 * V8, rel=1e-15)
        assert upper == pytest.approx(50.0 * V3, rel=1e-15)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_window_ordered(self, twist):
        lower, upper = alternating_volume_window(AlternatingDiagram(twist))
        assert 0.0 <= lower < upper
        assert (lower == 0.0) == (twist == 2)

    def test_small_twist_rejected(self):
        with pytest.raises(DomainError):
            AlternatingDiagram(1)


class TestHakenDouble:
    def test_values(self):
        assert haken_double_bound(0.0) == 0.0
        assert haken_double_bound(2.0) == pytest.approx(V3, rel=1e-15)
        assert haken_double_bound(8.0) == pytest.approx(4.0 * V3, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            haken_double_bound(-1.0)


class TestMinVolumeScan:
    def test_short_length_limit(self):
        v = min_volume_scan(2.0 * V3, HALF_LN3, 1e-9)
        assert v == pytest.approx(1.0393002049634853, rel=1e-8)

    def test_matches_endpoint_value(self):
        l_max = 0.58775953104788788
        v = min_volume_scan(2.0 * V3, HALF_LN3, l_max)
        direct = filled_volume_lower_bound(2.0 * V3, TubeData(l_max, HALF_LN3))
        assert v == direct
        assert v == pytest.approx(0.67, abs=1e-9)

    @pytest.mark.parametrize(
        "v, radius, l_max, samples",
        [
            (2.0 * V3, HALF_LN3, 0.58775953104788788, 1000),
            (0.9813688288922, 0.05, 3.7, 257),
            (7.5, 2.4, 0.013, 1),
            (1.0, 0.8, 12.0, 999),
        ],
    )
    def test_equals_per_length_minimum(self, v, radius, l_max, samples):
        # the bound decreases in L, so its least value over a grid of
        # lengths up to l_max is the one at l_max, bit for bit
        lengths = [l_max * i / samples for i in range(1, samples)] + [l_max]
        per_length = [filled_volume_lower_bound(v, TubeData(L, radius)) for L in lengths]
        scan = min_volume_scan(v, radius, l_max)
        assert scan == filled_volume_lower_bound(v, TubeData(l_max, radius))
        assert scan == min(per_length)

    def test_monotone_in_l_max(self):
        values = [min_volume_scan(2.0 * V3, HALF_LN3, lm) for lm in (0.2, 0.5, 1.0)]
        assert values[0] > values[1] > values[2]

    def test_validation(self):
        with pytest.raises(DomainError):
            min_volume_scan(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            min_volume_scan(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            min_volume_scan(1.0, 0.0, 1.0)
