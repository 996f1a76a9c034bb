import cmath
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubevol import kleinian
from tubevol.errors import DomainError, NonLoxodromicError, ParseError
from tubevol.kleinian import (
    INFINITY,
    GeodesicLine,
    GroupPresentation,
    H3Point,
    MobiusClass,
    MobiusTransform,
    axis,
    classify,
    complex_length,
    evaluate_word,
    is_infinity,
    line_distance,
    point_distance,
    read_presentation,
    tube_radius_upper_bound,
)

import kleinian_reference
from kleinian_reference import line_distance_oracle

LN2 = math.log(2.0)


def translation_matrix(s: float) -> MobiusTransform:
    """Translation by s along the geodesic with endpoints -1 and 1."""
    return MobiusTransform(
        math.cosh(s / 2.0), math.sinh(s / 2.0), math.sinh(s / 2.0), math.cosh(s / 2.0)
    )


finite_complex = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)

conjugators = (
    st.tuples(finite_complex, finite_complex, finite_complex, finite_complex)
    .filter(lambda t: abs(t[0] * t[3] - t[1] * t[2]) > 0.1)
    .map(lambda t: MobiusTransform(*t))
)

loxodromics = st.tuples(
    st.floats(min_value=0.1, max_value=2.5),
    st.floats(min_value=-3.0, max_value=3.0),
    conjugators,
).map(
    lambda t: t[2]
    @ MobiusTransform(cmath.exp((t[0] + 1j * t[1]) / 2.0), 0, 0, cmath.exp(-(t[0] + 1j * t[1]) / 2.0))
    @ t[2].inverse()
)


class TestMobiusTransform:
    def test_normalizes_determinant(self):
        m = MobiusTransform(2.0, 0.0, 0.0, 2.0)
        assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            MobiusTransform(1.0, 1.0, 1.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            MobiusTransform(math.inf, 0.0, 0.0, 1.0)

    def test_overflowing_determinant_rejected(self):
        # ad - bc is nan: no comparison with it holds, so neither the
        # normalization nor its check fired
        big = complex(1e308, 1e308)
        with pytest.raises(DomainError):
            MobiusTransform(big, big, 5e-324, big)

    def test_inverse_composes_to_identity(self):
        m = MobiusTransform(1.0 + 2.0j, 0.5, -0.25j, 1.0)
        prod = m @ m.inverse()
        assert abs(prod.a - 1.0) < 1e-12 and abs(prod.b) < 1e-12
        assert abs(prod.c) < 1e-12 and abs(prod.d - 1.0) < 1e-12

    def test_apply_points(self):
        m = MobiusTransform(1.0, 1.0, 0.0, 1.0)  # z + 1
        assert m.apply(0.0 + 0j) == 1.0
        assert is_infinity(m.apply(INFINITY))
        inv = MobiusTransform(0.0, 1.0, 1.0, 0.0)  # 1/z
        assert is_infinity(inv.apply(0j))
        assert inv.apply(INFINITY) == 0.0


class TestClassify:
    def test_loxodromic(self):
        r = math.sqrt(2.0)
        assert classify(MobiusTransform(r, 0.0, 0.0, 1.0 / r)) is MobiusClass.LOXODROMIC

    def test_parabolic(self):
        assert classify(MobiusTransform(1.0, 1.0, 0.0, 1.0)) is MobiusClass.PARABOLIC

    def test_elliptic(self):
        t = math.pi / 4.0
        m = MobiusTransform(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))
        assert classify(m) is MobiusClass.ELLIPTIC

    def test_identity_both_signs(self):
        assert classify(MobiusTransform(1.0, 0.0, 0.0, 1.0)) is MobiusClass.IDENTITY
        assert classify(MobiusTransform(-1.0, 0.0, 0.0, -1.0)) is MobiusClass.IDENTITY

    def test_complex_trace_is_loxodromic(self):
        m = MobiusTransform(cmath.exp(0.2 + 0.9j), 0.0, 0.0, cmath.exp(-0.2 - 0.9j))
        assert classify(m) is MobiusClass.LOXODROMIC


class TestComplexLength:
    def test_real_translation(self):
        m = MobiusTransform(math.exp(0.25), 0.0, 0.0, math.exp(-0.25))
        assert complex_length(m) == pytest.approx(0.5 + 0.0j, abs=1e-14)

    def test_with_rotation(self):
        lam = 0.3 + 0.7j
        m = MobiusTransform(cmath.exp(lam / 2.0), 0.0, 0.0, cmath.exp(-lam / 2.0))
        assert complex_length(m) == pytest.approx(lam, abs=1e-13)

    @given(loxodromics, conjugators)
    @settings(max_examples=150)
    # renormalizing the product's determinant by a noisy sqrt(det) cost
    # 1.2e-10 of length here
    @example(
        m=MobiusTransform(
            -10.857566061149807, 34.39229016258732, -4.168762443949979, 13.11281799156257
        ),
        conj=MobiusTransform(2.5j, 1j, 3j, 1j),
    )
    def test_conjugation_invariant(self, m, conj):
        lam = complex_length(m)
        lam_conj = complex_length(conj @ m @ conj.inverse())
        assert lam_conj.real == pytest.approx(lam.real, abs=1e-10)
        # rotation angle matches up to sign of the chosen eigenvalue branch
        assert min(
            abs(lam_conj.imag - lam.imag), abs(lam_conj.imag + lam.imag)
        ) == pytest.approx(0.0, abs=1e-9)

    @given(loxodromics)
    @settings(max_examples=150)
    def test_trace_round_trip(self, m):
        lam = complex_length(m)
        assert lam.real > 0.0
        assert -math.pi < lam.imag <= math.pi
        tr = 2.0 * cmath.cosh(lam / 2.0)
        assert min(abs(tr - m.trace()), abs(tr + m.trace())) < 1e-10

    def test_rejects_non_loxodromic(self):
        with pytest.raises(NonLoxodromicError):
            complex_length(MobiusTransform(1.0, 1.0, 0.0, 1.0))

    def test_negated_trace(self):
        # -M is M in PSL(2,C): trace -3i takes the other eigenvalue, whose
        # rotation lands on -pi and is mapped to pi; trace -3 also takes it
        def with_trace(t):
            return complex_length(MobiusTransform(t, 1.0, -1.0, 0.0))

        assert with_trace(-3j) == with_trace(3j)
        assert with_trace(-3j).real == pytest.approx(2.389526434574219, rel=1e-15)
        assert with_trace(-3j).imag == math.pi
        assert with_trace(-3.0) == with_trace(3.0)
        assert with_trace(-3.0).real == pytest.approx(1.9248473002384139, rel=1e-15)
        assert with_trace(-3.0).imag == 0.0


class TestAxis:
    def test_diagonal(self):
        line = axis(MobiusTransform(2.0, 0.0, 0.0, 0.5))
        assert is_infinity(line.p)
        assert line.q == 0.0

    def test_translated(self):
        shift = MobiusTransform(1.0, 1.0, 0.0, 1.0)  # z + 1
        m = shift @ MobiusTransform(2.0, 0.0, 0.0, 0.5) @ shift.inverse()
        line = axis(m)
        assert is_infinity(line.p)
        assert line.q == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_own_action(self):
        m = translation_matrix(1.3)
        line = axis(m)
        assert m.apply_to_line(line).same_line(line)

    @given(loxodromics)
    @settings(max_examples=100)
    # a subnormal c: the image a / c of INFINITY overflows
    @example(m=MobiusTransform(1.6487212707001282, 0, -2.4167890471777e-311, 0.6065306597126334))
    def test_axis_fixed_setwise(self, m):
        line = axis(m)
        assert m.apply_to_line(line).same_line(line, tol=1e-6)

    def test_rejects_non_loxodromic(self):
        with pytest.raises(NonLoxodromicError):
            axis(MobiusTransform(1.0, 0.0, 0.0, 1.0))


class TestGeodesicLine:
    def test_unordered(self):
        assert GeodesicLine(1.0, 2.0) == GeodesicLine(2.0, 1.0)
        assert GeodesicLine(INFINITY, 0.0) == GeodesicLine(0.0, INFINITY)

    def test_distinct_endpoints_required(self):
        with pytest.raises(DomainError):
            GeodesicLine(1.0, 1.0)
        with pytest.raises(DomainError):
            GeodesicLine(INFINITY, INFINITY)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            GeodesicLine(complex(math.nan, 0.0), 1.0)


class TestPointDistance:
    def test_vertical_axis(self):
        assert point_distance(H3Point(0j, 1.0), H3Point(0j, math.e)) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_zero_iff_equal(self):
        p = H3Point(1.0 + 1.0j, 0.7)
        assert point_distance(p, p) == 0.0

    @given(
        st.tuples(finite_complex, st.floats(min_value=0.1, max_value=5.0)),
        st.tuples(finite_complex, st.floats(min_value=0.1, max_value=5.0)),
        st.tuples(finite_complex, st.floats(min_value=0.1, max_value=5.0)),
    )
    # p1 and p3 1e-9 apart: acosh(1 + q) rounds their distance to 0
    @example(t1=(1e-9 + 0j, 1.0), t2=(-1 + 0j, 1.0), t3=(0j, 1.0))
    def test_symmetry_and_triangle(self, t1, t2, t3):
        p1, p2, p3 = (H3Point(w, h) for w, h in (t1, t2, t3))
        d12 = point_distance(p1, p2)
        assert d12 == pytest.approx(point_distance(p2, p1), rel=1e-12)
        assert d12 <= point_distance(p1, p3) + point_distance(p3, p2) + 1e-12

    def test_bad_height(self):
        with pytest.raises(DomainError):
            point_distance(H3Point(0j, 0.0), H3Point(0j, 1.0))


def well_separated_lines():
    pts = st.lists(
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=-3.0, max_value=3.0),
        ),
        min_size=4,
        max_size=4,
    ).map(lambda ps: [complex(x, y) for x, y in ps])

    def separated(ps):
        return all(
            abs(a - b) > 0.35 for i, a in enumerate(ps) for b in ps[i + 1 :]
        )

    return pts.filter(separated).map(
        lambda ps: (GeodesicLine(ps[0], ps[1]), GeodesicLine(ps[2], ps[3]))
    )


class TestLineDistance:
    def test_perpendicular_intersection(self):
        cd = line_distance(GeodesicLine(0j, INFINITY), GeodesicLine(1.0, -1.0))
        assert cd.d == 0.0
        assert abs(cd.phi) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_translation_construction(self):
        # (1/3, 3) is the ln2-translate of (0, inf) along the (-1, 1) axis
        m = translation_matrix(LN2)
        assert m.apply(0j) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert m.apply(INFINITY) == pytest.approx(3.0, abs=1e-15)
        cd = line_distance(GeodesicLine(0j, INFINITY), GeodesicLine(1.0 / 3.0, 3.0))
        assert cd.d == pytest.approx(LN2, abs=1e-12)

    def test_asymptotic(self):
        cd = line_distance(GeodesicLine(0j, INFINITY), GeodesicLine(1.0, INFINITY))
        assert cd.d == 0.0
        assert not cd.same_line

    def test_shared_endpoint_at_zero(self):
        # asymptotic at the other end than test_asymptotic; phi is a convention
        cd = line_distance(GeodesicLine(0j, INFINITY), GeodesicLine(0j, 1.0))
        assert cd.d == 0.0
        assert not cd.same_line

    def test_same_line_flag(self):
        cd = line_distance(GeodesicLine(0j, INFINITY), GeodesicLine(INFINITY, 0j))
        assert cd.same_line
        assert cd.d == 0.0 and cd.phi == 0.0

    @given(well_separated_lines())
    @settings(max_examples=100)
    def test_symmetric_and_normalized(self, lines):
        g1, g2 = lines
        cd = line_distance(g1, g2)
        assert cd.d == pytest.approx(line_distance(g2, g1).d, abs=1e-11)
        assert cd.d >= 0.0
        assert -math.pi < cd.phi <= math.pi

    @given(well_separated_lines(), conjugators)
    @settings(max_examples=100)
    # m sends the subnormal endpoint to about 1e308, where a p overflows
    @example(
        lines=(GeodesicLine(1j, 2j), GeodesicLine(2.225073858507203e-309j, 1 + 0j)),
        m=MobiusTransform(0j, -0.5j, -2j, 0j),
    )
    def test_invariant_under_mobius(self, lines, m):
        g1, g2 = lines
        d = line_distance(g1, g2).d
        d_moved = line_distance(m.apply_to_line(g1), m.apply_to_line(g2)).d
        assert d_moved == pytest.approx(d, abs=1e-9)

    @given(well_separated_lines())
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, lines):
        g1, g2 = lines
        assert line_distance(g1, g2).d == pytest.approx(
            line_distance_oracle(g1, g2), abs=1e-6
        )


class TestLineDistanceOracle:
    def test_ln2_construction(self):
        d = line_distance_oracle(
            GeodesicLine(0j, INFINITY), GeodesicLine(1.0 / 3.0, 3.0)
        )
        assert d == pytest.approx(LN2, abs=1e-9)

    def test_intersecting(self):
        d = line_distance_oracle(GeodesicLine(0j, INFINITY), GeodesicLine(1.0, -1.0))
        assert d == pytest.approx(0.0, abs=1e-5)

    def test_refinement_monotone(self):
        g1 = GeodesicLine(-1.2 + 0.3j, 2.0 - 0.4j)
        g2 = GeodesicLine(0.5 + 1.8j, -2.2 - 1.1j)
        # 2^k + 1 point grids over the same span nest, so the coarse
        # minimum can only decrease
        coarse = [
            line_distance_oracle(g1, g2, grid=g, refine=False) for g in (17, 33, 65, 129)
        ]
        assert all(a >= b for a, b in zip(coarse, coarse[1:]))

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            line_distance_oracle(GeodesicLine(0j, INFINITY), GeodesicLine(1.0, 2.0), grid=1)

    @pytest.mark.parametrize("d", [1e-9, 1e-7])
    def test_concentric_lines_at_short_distance(self, d):
        # acosh(1 + q) rounded the distance 1e-9 to 0 and was 1% off at 1e-7
        g1, g2 = GeodesicLine(-1.0, 1.0), GeodesicLine(-math.exp(d), math.exp(d))
        assert line_distance_oracle(g1, g2) == pytest.approx(line_distance(g1, g2).d, rel=1e-6)


class TestWordEvaluation:
    def test_letters_and_inverses(self):
        g = MobiusTransform(2.0, 0.0, 0.0, 0.5)
        h = translation_matrix(LN2)
        word = evaluate_word((g, h), "aB")
        direct = g @ h.inverse()
        assert abs(word.a - direct.a) < 1e-12

    def test_long_product_keeps_unit_determinant(self):
        # Schottky group pairing radius-1 circles about +-3 and about +-3i,
        # written with non-integer entries: products of length 8 have
        # entries near 2e5, beyond any absolute determinant tolerance
        a = MobiusTransform(2.1, 5.6, 0.7, 2.1)
        b = MobiusTransform(2.1j, -7.0, 0.7, 2.1j)
        m = evaluate_word((a, b), "abABabAB")
        scale = abs(m.a * m.d) + abs(m.b * m.c)
        assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-14 * scale

    def test_bad_letter(self):
        g = MobiusTransform(2.0, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            evaluate_word((g,), "b")
        with pytest.raises(DomainError):
            evaluate_word((g,), "a1")
        with pytest.raises(DomainError):
            evaluate_word((g,), "")


class TestTubeRadius:
    def fixture_presentation(self):
        g = MobiusTransform(2.0, 0.0, 0.0, 0.5)
        h = translation_matrix(LN2)
        return GroupPresentation((g, h), "a")

    def test_presentation_limits(self):
        g = MobiusTransform(2.0, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError, match="at most 26 generators"):
            GroupPresentation((g,) * 27, "a")
        with pytest.raises(DomainError, match="core_word must be nonempty"):
            GroupPresentation((g,), "")

    def test_two_generator_fixture(self):
        result = tube_radius_upper_bound(self.fixture_presentation(), 1)
        assert result.radius == pytest.approx(0.5 * LN2, abs=1e-12)
        assert result.witness == "b"

    def test_single_generator_no_lift(self):
        pres = GroupPresentation((MobiusTransform(2.0, 0.0, 0.0, 0.5),), "a")
        result = tube_radius_upper_bound(pres, 5)
        assert math.isinf(result.radius)
        assert result.witness is None

    def test_search_stops_at_an_empty_frontier(self, data_dir, monkeypatch):
        # the only words are powers of the core, so no level after the first
        # holds a word; a search that kept going would run for hours
        calls = []

        def word_keys(words):
            calls.append(len(words))
            if len(calls) > 2:
                raise AssertionError("the search went on past an empty level")
            return real_word_keys(words)

        real_word_keys = kleinian._word_keys
        monkeypatch.setattr(kleinian, "_word_keys", word_keys)
        pres = read_presentation(data_dir / "single_gen.txt")
        assert tube_radius_upper_bound(pres, 10**9) == (math.inf, None)
        assert len(calls) <= 2

    def test_nonincreasing_in_word_length(self):
        pres = self.fixture_presentation()
        radii = [tube_radius_upper_bound(pres, k).radius for k in (1, 2, 3)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_radius_halves_witness_distance(self):
        pres = self.fixture_presentation()
        result = tube_radius_upper_bound(pres, 2)
        core_axis = axis(pres.core())
        moved = evaluate_word(pres.generators, result.witness).apply_to_line(core_axis)
        assert 2.0 * result.radius == pytest.approx(
            line_distance(core_axis, moved).d, abs=1e-15
        )

    def test_never_exceeds_any_candidate(self):
        pres = self.fixture_presentation()
        result = tube_radius_upper_bound(pres, 3)
        core_axis = axis(pres.core())
        for word in ("b", "B", "ba", "bb", "aab"):
            moved = evaluate_word(pres.generators, word).apply_to_line(core_axis)
            cd = line_distance(core_axis, moved)
            if not cd.same_line:
                assert result.radius <= 0.5 * cd.d + 1e-12

    def test_discrete_free_group_anchor(self):
        # discrete free group on [[1,1],[1,2]] and [[1,-1],[-1,2]]: the
        # closest length-1 translate of the core axis has endpoint
        # cross-ratio 4/9, so cosh(distance) = 13/5, i.e. distance is
        # exactly ln 5 (verified symbolically)
        a = MobiusTransform(1.0, 1.0, 1.0, 2.0)
        b = MobiusTransform(1.0, -1.0, -1.0, 2.0)
        result = tube_radius_upper_bound(GroupPresentation((a, b), "a"), 1)
        assert result.radius == pytest.approx(0.5 * math.log(5.0), abs=1e-12)
        assert result.witness in ("b", "B")  # both translates sit at ln 5

    def test_presentation_conjugation_invariance(self):
        a = MobiusTransform(1.0, 1.0, 1.0, 2.0)
        b = MobiusTransform(1.0, -1.0, -1.0, 2.0)
        base = tube_radius_upper_bound(GroupPresentation((a, b), "a"), 2)
        c = MobiusTransform(1.1 + 0.3j, -0.2 + 0.7j, 0.4 - 0.1j, 0.8 + 0.2j)
        moved = GroupPresentation((c @ a @ c.inverse(), c @ b @ c.inverse()), "a")
        conj = tube_radius_upper_bound(moved, 2)
        assert conj.radius == pytest.approx(base.radius, abs=1e-9)

    def test_figure_eight_knot_group(self, data_dir):
        # no longer word reaches a closer lift than b in this discrete group;
        # words with a power of the core inside drifted 1.6e-13 by length 9
        pres = read_presentation(data_dir / "figure_eight.txt")
        first = tube_radius_upper_bound(pres, 1)
        assert first.radius == pytest.approx(0.211824465097, rel=1e-11)
        for k in range(2, 11):
            radius = tube_radius_upper_bound(pres, k).radius
            assert radius == pytest.approx(first.radius, rel=1e-13, abs=0.0), k

    def test_validation(self):
        with pytest.raises(DomainError):
            GroupPresentation((), "a")
        with pytest.raises(NonLoxodromicError):
            GroupPresentation((MobiusTransform(1.0, 1.0, 0.0, 1.0),), "a")
        with pytest.raises(DomainError):
            tube_radius_upper_bound(self.fixture_presentation(), 0)


def rotation(order: int) -> MobiusTransform:
    """Rotation by 2 pi / order about the axis (0, INFINITY)."""
    half = cmath.exp(1j * math.pi / order)
    return MobiusTransform(half, 0.0, 0.0, 1.0 / half)


def _random_mobius(rng) -> MobiusTransform:
    while True:
        m = rng.uniform(-3.0, 3.0, 4) + 1j * rng.uniform(-3.0, 3.0, 4)
        if abs(m[0] * m[3] - m[1] * m[2]) > 0.1:
            return MobiusTransform(*m)


def _group_with_repeats(kind: int, seed: int) -> GroupPresentation:
    """A two-generator group with relations short enough that the search
    meets a matrix twice by word length 6: for kind 2..6, a rotation of
    that order beside a loxodromic core b; for kind 0 and 1, the parabolics
    [[1, 1], [0, 1]] and [[1, 0], [w, 1]] with core ab, for w = 1 (a
    subgroup of PSL(2, Z)) and w = -exp(2 pi i / 3) (the figure-eight knot
    group).  Each generator is moved by a conjugator drawn from ``seed``,
    the loxodromic by its own one too."""
    rng = np.random.default_rng(seed)
    c = _random_mobius(rng)
    if kind < 2:
        w = (1.0, complex(0.5, -math.sqrt(3.0) / 2.0))[kind]
        parabolics = (MobiusTransform(1.0, 1.0, 0.0, 1.0), MobiusTransform(1.0, 0.0, w, 1.0))
        return GroupPresentation(tuple(c @ p @ c.inverse() for p in parabolics), "ab")
    half = cmath.exp(complex(rng.uniform(0.3, 1.5), rng.uniform(-3.0, 3.0)) / 2.0)
    e = _random_mobius(rng)
    b = e @ MobiusTransform(half, 0.0, 0.0, 1.0 / half) @ e.inverse()
    return GroupPresentation((c @ rotation(kind) @ c.inverse(), b), "b")


def reference_search(pres: GroupPresentation, k: int):
    """The reference search's result, and how many words it dropped as
    repeats of a word of the same length and of a shorter word."""
    levels = []

    def word_keys(words):
        levels.append(real_word_keys(words))
        return levels[-1]

    real_word_keys = kleinian_reference._word_keys
    with mock.patch.object(kleinian_reference, "_word_keys", word_keys):
        result = kleinian_reference.tube_radius_upper_bound(pres, k)
    within = across = 0
    seen: set[bytes] = set()
    for keys in levels:
        level: set[bytes] = set()
        for key in keys:
            if key in seen:
                across += 1
            elif key in level:
                within += 1
            else:
                level.add(key)
        seen |= level
    return result, within, across


def assert_same_search(pres: GroupPresentation, k: int):
    """The search gives the reference's radius and witness bit for bit;
    returns the reference's counts of repeated words."""
    expected, within, across = reference_search(pres, k)
    result = tube_radius_upper_bound(pres, k)
    assert result.witness == expected.witness
    assert result.radius.hex() == expected.radius.hex()
    return within, across


class TestSearchMatchesReference:
    @pytest.mark.parametrize(
        "name, k",
        [("two_gen", 8), ("single_gen", 6), ("figure_eight", 9), ("picard", 6), ("rot4", 8)],
    )
    def test_fixtures(self, data_dir, name, k):
        pres = read_presentation(data_dir / f"{name}.txt")
        for length in range(1, k + 1):
            assert_same_search(pres, length)

    @given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.integers(5, 6))
    @settings(max_examples=100, deadline=None)
    def test_groups_with_repeated_words(self, kind, seed, k):
        within, across = assert_same_search(_group_with_repeats(kind, seed), k)
        assert within + across > 0

    def test_every_hash_colliding(self, data_dir, monkeypatch):
        # with one hash for every key, only the full comparison of keys
        # tells words apart
        monkeypatch.setattr(kleinian, "_key_hashes", lambda keys: np.zeros(len(keys), np.uint64))
        pres = read_presentation(data_dir / "figure_eight.txt")
        within, across = assert_same_search(pres, 7)
        assert within > 0 and across > 0


def _generic_group(seed: int) -> GroupPresentation:
    """Two generators drawn from ``seed`` by ``_random_mobius``, core a."""
    rng = np.random.default_rng(seed)
    return GroupPresentation((_random_mobius(rng), _random_mobius(rng)), "a")


def _search_groups(data_dir):
    return {
        "figure_eight": read_presentation(data_dir / "figure_eight.txt"),
        "generic_1": _generic_group(1),
        "generic_2": _generic_group(2),
    }


@pytest.fixture
def checked_new_rows(monkeypatch):
    """``_new_rows`` wrapped to check, at every level, that the earlier
    hashes are sorted and that the new rows come ordered by hash, so that
    inserting them keeps the earlier hashes sorted.  Returns how many levels
    had two new keys of one hash, and how many had a new key whose hash an
    earlier key has."""
    counts = {"within": 0, "across": 0}
    real = kleinian._new_rows

    def new_rows(keys, hashes, earlier_keys, earlier_hashes):
        assert (earlier_hashes[1:] >= earlier_hashes[:-1]).all()
        new = real(keys, hashes, earlier_keys, earlier_hashes)
        h = hashes[new]
        assert (h[1:] >= h[:-1]).all()
        counts["within"] += bool((h[1:] == h[:-1]).any())
        counts["across"] += bool(np.isin(h, earlier_hashes).any())
        return new

    monkeypatch.setattr(kleinian, "_new_rows", new_rows)
    return counts


def _levels(pres: GroupPresentation, k: int) -> list[bytes]:
    """The first k levels of the search, as bytes."""
    return [
        b"".join(x.dtype.str.encode() + repr(x.shape).encode() + x.tobytes() for x in level)
        for level in itertools.islice(kleinian._word_levels(pres), k)
    ]


class TestNewRows:
    """The search's levels do not depend on how its hashes collide."""

    @pytest.mark.parametrize("group", ["figure_eight", "generic_1", "generic_2"])
    @pytest.mark.parametrize("hash_bits", [0, 4])
    def test_colliding_hashes(self, data_dir, monkeypatch, checked_new_rows, group, hash_bits):
        pres = _search_groups(data_dir)[group]
        expected = _levels(pres, 9)
        real = kleinian._key_hashes
        mask = np.uint64(2**hash_bits - 1)
        assert checked_new_rows == {"within": 0, "across": 0}  # the real hash
        monkeypatch.setattr(kleinian, "_key_hashes", lambda keys: real(keys) & mask)
        assert _levels(pres, 9) == expected
        assert checked_new_rows["within"] > 0 and checked_new_rows["across"] > 0

    @pytest.mark.parametrize("group", ["generic_1", "generic_2"])
    def test_hashes_colliding_across_levels_only(
        self, data_dir, monkeypatch, checked_new_rows, group
    ):
        # no two words of these groups share a matrix by length 9, so the
        # rank of a key among the distinct keys of its level is a hash on
        # them: it never collides within a level and always with earlier ones
        pres = _search_groups(data_dir)[group]
        expected = _levels(pres, 9)

        def rank(keys):
            rows = keys.view(np.dtype((np.void, 64))).ravel()
            return np.unique(rows, return_inverse=True)[1].astype(np.uint64)

        assert checked_new_rows == {"within": 0, "across": 0}  # the real hash
        monkeypatch.setattr(kleinian, "_key_hashes", rank)
        assert _levels(pres, 9) == expected
        assert checked_new_rows["within"] == 0 and checked_new_rows["across"] == 8


def _sign_equal_pairs(words: np.ndarray, tol: float = 1e-12):
    """The pairs i < j of an (n, 2, 2) stack whose matrices agree up to sign
    to within ``tol`` in every entry."""
    flat = words.reshape(len(words), 4)
    pairs = []
    for start in range(0, len(flat), 256):
        block = flat[start : start + 256, None]
        near = np.minimum(abs(block - flat).max(axis=2), abs(block + flat).max(axis=2)) < tol
        pairs += [(i + start, j) for i, j in zip(*np.nonzero(near)) if i + start < j]
    return pairs


# integer matrices of determinant 1 with entries in -2..2
SMALL_CONJUGATORS = [
    MobiusTransform(*m)
    for m in itertools.product(range(-2, 3), repeat=4)
    if m[0] * m[3] - m[1] * m[2] == 1
]


class TestWordKeys:
    @pytest.mark.parametrize("core", [(2.0, 0.0, 0.0, 0.5), (2.0, 1.0, 1.0, 1.0)])
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_rotation_powers_equal_up_to_sign_share_a_key(self, core, order):
        # a rotation's entries in the core's frame may be real or imaginary,
        # where a sign read from one entry is rounding noise; the powers a^j
        # and A^j are built as the search builds them, one letter at a time
        b = MobiusTransform(*core)
        to_core = kleinian._to_zero_infinity(axis(b))
        frame, unframe = kleinian._matrix(to_core), kleinian._matrix(to_core.inverse())
        pairs = 0
        for c in SMALL_CONJUGATORS:
            a = c @ rotation(order) @ c.inverse()
            words = []
            for letter in (a, a.inverse()):
                step = frame @ kleinian._matrix(letter) @ unframe
                power = step
                for _ in range(2 * order):
                    words.append(power)
                    power = power @ step
            words = np.stack(words)
            keys = kleinian._word_keys(words)
            for i, j in _sign_equal_pairs(words):
                assert (keys[i] == keys[j]).all(), (c, i, j)
                pairs += 1
        assert pairs > 0

    def test_picard_words_are_distinct_up_to_sign(self, data_dir):
        # the Picard group PSL(2, Z[i]) has elements of orders 2 and 3, so
        # many of its words are one matrix up to sign
        pres = read_presentation(data_dir / "picard.txt")
        levels = list(itertools.islice(kleinian._word_levels(pres), 6))
        assert [len(level.words) for level in levels] == [6, 22, 62, 166, 424, 1056]
        assert _sign_equal_pairs(np.concatenate([level.words for level in levels])) == []


def test_tube_radius_golden(capsys, data_dir):
    # stdout of tube-radius on every fixture at k = 1..10, as first
    # recorded: the radius and the witness word must not change
    from tubevol.cli import main

    out = []
    for name in ("figure_eight.txt", "single_gen.txt", "two_gen.txt", "rot4.txt"):
        for k in range(1, 11):
            argv = ["tube-radius", str(data_dir / name), "--max-word-length", str(k)]
            assert main(argv) == 0
            out.append(f"$ tubevol tube-radius {name} --max-word-length {k}\n")
            out.append(capsys.readouterr().out)
    assert "".join(out) == (data_dir / "tube_radius_golden.txt").read_text()


class TestPresentationFile:
    def test_read_fixture(self, data_dir):
        pres = read_presentation(data_dir / "two_gen.txt")
        assert len(pres.generators) == 2
        assert pres.core_word == "a"
        result = tube_radius_upper_bound(pres, 1)
        assert result.radius == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_read_single(self, data_dir):
        pres = read_presentation(data_dir / "single_gen.txt")
        assert len(pres.generators) == 1

    def test_missing_core(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 0 0 0 0 0 0.5 0\n")
        with pytest.raises(ParseError):
            read_presentation(path)

    def test_second_core_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("core: b\n2 0 0 0 0 0 0.5 0\n1 0 1 0 1 0 2 0\ncore: a\n")
        with pytest.raises(ParseError, match="line 4: a second 'core:' line"):
            read_presentation(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 0 0 0\ncore: a\n")
        with pytest.raises(ParseError, match="line 1"):
            read_presentation(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 0 x 0 0 0 0.5 0\ncore: a\n")
        with pytest.raises(ParseError):
            read_presentation(path)
