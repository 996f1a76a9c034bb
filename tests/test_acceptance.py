"""Formal acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single pass/fail line (run pytest with -s to see
them inline).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from tubevol import census, hypkernel
from tubevol.cli import main as cli_main
from tubevol.hypkernel import (
    Factor,
    TubeData,
    V3,
    V8,
    bound_base_B,
    drilled_volume_bound,
    factor_co,
    factor_cp,
    filled_volume_lower_bound,
    lobachevsky,
    mean_curvature,
)
from tubevol.kleinian import (
    INFINITY,
    GeodesicLine,
    GroupPresentation,
    MobiusTransform,
    line_distance,
    tube_radius_upper_bound,
)
from tubevol.surgery import ConeProfile, bridgeman_check, neumann_zagier_estimate, schlafli_delta_v
from tubevol.topobounds import (
    AlternatingDiagram,
    alternating_volume_window,
    haken_double_bound,
    miyamoto_lower_bound,
)

from kleinian_reference import line_distance_oracle

HALF_LN3 = 0.5 * math.log(3.0)
TAU = 2.0 * math.pi


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def test_criterion_1_constants():
    with criterion(1, "ideal-polyhedron constants from the Lobachevsky function"):
        start = time.perf_counter()
        v3 = 3.0 * lobachevsky(math.pi / 3.0)
        v8 = 8.0 * lobachevsky(math.pi / 4.0)
        elapsed = time.perf_counter() - start
        assert f"{2.0 * v3:.6g}" == "2.02988"
        assert f"{v8:.3g}" == "3.66"
        assert abs(v3 - V3) < 1e-12 and abs(v8 - V8) < 1e-12
        assert elapsed < 1.0


def test_criterion_2_identity_suite():
    with criterion(2, "curvature and base-term identities on a 100x100 grid"):
        start = time.perf_counter()
        lengths = np.linspace(0.05, 5.0, 100)
        radii = np.linspace(0.05, 5.0, 100)
        for radius in radii:
            avg = 0.5 * (1.0 / math.tanh(radius) + math.tanh(radius))
            kappa = mean_curvature(radius)
            assert abs(avg - kappa) <= 1e-12 * kappa
            for length in lengths:
                first = math.pi * length * math.sinh(radius) ** 2 / math.cosh(2.0 * radius)
                second = 0.5 * math.pi * length * math.tanh(radius) * math.tanh(2.0 * radius)
                assert abs(first - second) <= 1e-12 * abs(second)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_3_closed_form_anchors():
    with criterion(3, "closed-form factor anchors and the small-radius limit"):
        assert factor_cp(HALF_LN3) == 125.0 / 64.0
        assert abs(factor_co(HALF_LN3) - (5.0 / 2.0) ** 1.5) <= 1e-12
        assert 1.0 / factor_cp(HALF_LN3) == 0.512
        ratio = factor_co(1e-6) / factor_cp(1e-6)
        assert abs(ratio - 2.0 ** 1.5) < 1e-4


def test_criterion_4_bound_ordering_and_inversion():
    with criterion(4, "factor ordering and exact inversion on 10^4 random inputs"):
        rng = np.random.default_rng(20240401)
        v_fills = rng.uniform(0.1, 20.0, 10_000)
        lengths = rng.uniform(0.01, 5.0, 10_000)
        radii = rng.uniform(0.05, 4.0, 10_000)
        for v_fill, length, radius in zip(v_fills, lengths, radii):
            t = TubeData(length, radius)
            old = drilled_volume_bound(v_fill, t, Factor.OLD)
            new = drilled_volume_bound(v_fill, t, Factor.PERELMAN)
            assert old >= new
            back = filled_volume_lower_bound(new, t)
            assert abs(back - v_fill) <= 1e-12 * v_fill


def test_criterion_5_kleinian_oracle_equivalence():
    with criterion(5, "line distance vs brute-force oracle and the tube fixture"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240402)
        checked = 0
        while checked < 200:
            pts = rng.uniform(-3.0, 3.0, (4, 2))
            zs = [complex(x, y) for x, y in pts]
            if min(
                abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1 :]
            ) < 0.35:
                continue
            g1 = GeodesicLine(zs[0], zs[1])
            g2 = GeodesicLine(zs[2], zs[3])
            assert line_distance(g1, g2).d == pytest.approx(
                line_distance_oracle(g1, g2), abs=1e-6
            )
            checked += 1

        constructed = line_distance(
            GeodesicLine(0j, INFINITY), GeodesicLine(1.0 / 3.0, 3.0)
        )
        assert abs(constructed.d - math.log(2.0)) < 1e-9

        s = math.log(2.0)
        presentation = GroupPresentation(
            (
                MobiusTransform(2.0, 0.0, 0.0, 0.5),
                MobiusTransform(
                    math.cosh(s / 2.0), math.sinh(s / 2.0), math.sinh(s / 2.0), math.cosh(s / 2.0)
                ),
            ),
            "a",
        )
        result = tube_radius_upper_bound(presentation, 1)
        assert abs(result.radius - 0.5 * math.log(2.0)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def test_criterion_6_surgery():
    with criterion(6, "quadrature exactness and the monotone-profile bound"):
        for c in (0.2, 1.0, 3.7):
            profile = ConeProfile.sampled(lambda a: c, 11)
            assert schlafli_delta_v(profile) == pytest.approx(math.pi * c, rel=1e-15)

        final = 1.3
        ramp = ConeProfile.sampled(lambda a: a / TAU * final, 9)
        assert schlafli_delta_v(ramp) == neumann_zagier_estimate(final)

        quadratic = ConeProfile.sampled(lambda a: a * a if a > 0.0 else 0.0, 101)
        expected = 4.0 * math.pi ** 3 / 3.0
        assert abs(schlafli_delta_v(quadratic, "simpson") - expected) <= 1e-9 * expected

        rng = np.random.default_rng(20240403)
        for _ in range(1000):
            count = int(rng.integers(2, 30))
            increments = rng.uniform(0.0, 1.0, count)
            lengths = 1e-6 + np.concatenate(([0.0], np.cumsum(increments)))
            angles = np.linspace(0.0, TAU, count + 1)
            angles[-1] = TAU
            result = bridgeman_check(ConeProfile(tuple(angles), tuple(lengths)))
            assert result.monotone
            assert result.bound_holds


def test_criterion_7_census_pipeline(tmp_path, capsys):
    with criterion(7, "25,709-record synthetic census verifies cleanly"):
        start = time.perf_counter()
        records = census.synthesize(25_709, seed=20240404, noise_sigma=0.017)
        dataset = tmp_path / "synthetic.csv"
        census.write_dataset(records, dataset)
        code = cli_main(["verify", str(dataset)])
        out = capsys.readouterr().out
        assert code == 0
        assert "perelman=0" in out
        stats = census.statistics(census.evaluate(records))
        assert abs(stats.mean_ratio - 0.5) < 0.001
        assert 0.015 <= stats.std_ratio <= 0.019
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0


def test_criterion_8_figure_reproduction():
    # The published scatter statistics (mean 0.5034, sigma 0.022) depend on
    # a real census export the user must supply; only the shape-level
    # contracts gate here.
    with criterion(8, "figure series shape contracts"):
        reports = census.evaluate(census.synthesize(2_000, seed=20240405))
        figs = census.figure_series(reports, r_range=(0.05, 3.0))
        ratio = figs["fig_ratio_curve"].curves["co_over_cp"]
        assert ratio[0] > 2.4
        assert all(a > b for a, b in zip(ratio, ratio[1:]))
        assert ratio[-1] < 1.01
        fig = figs["fig_b_over_vdrill"]
        for radius, ok, y in zip(reports["radius"], reports["perelman_ok"], fig.points["y"]):
            if ok:
                assert y >= 1.0 / factor_cp(radius) - 1e-12


def test_criterion_9_combinatorial_anchors():
    with criterion(9, "combinatorial bound anchors"):
        lower, _ = alternating_volume_window(AlternatingDiagram(6))
        assert lower == 2.0 * V8
        assert miyamoto_lower_bound(-1) == V8
        assert haken_double_bound(2.0) == V3
