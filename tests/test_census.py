import math
import os
import pathlib
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tubevol import census, errors
from tubevol.census import (
    INPUT_COLUMNS,
    REPORT_COLUMNS,
    Table,
    evaluate,
    figure_series,
    ingest,
    statistics,
    synthesize,
    write_dataset,
    write_report_csv,
)
from tubevol.errors import DomainError, IngestError
from tubevol.hypkernel import Factor, TubeData, drilled_volume_bound, factor_cp

HALF_LN3 = 0.5 * math.log(3.0)
# floats whose %.12g text is easy to get wrong: subnormal, huge, signed zero
GOLDEN_FLOATS = [
    1e-300, 1e300, 5e-324, -0.0, 0.5, 1.0 / 3.0, math.pi, -2.5e-7,
    123456789012.5, 1e16, math.inf, -math.inf, math.nan,
]  # fmt: skip
# the dtype census names are held in
STRINGS = np.dtypes.StringDType()


def table(*rows) -> Table:
    """Table of (name, v_fill, v_drill, length, radius) rows."""
    values = np.array([row[1:] for row in rows], dtype=np.float64).reshape(-1, 4)
    names = np.array([row[0] for row in rows], STRINGS)
    return Table(names, {key: values[:, i].copy() for i, key in enumerate(INPUT_COLUMNS)})


def take(tab: Table, index) -> Table:
    """The rows of ``tab`` picked by ``index`` (a mask, a slice or positions)."""
    return Table(tab.names[index], {key: col[index] for key, col in tab.columns.items()})


def tables_equal(a: Table, b: Table) -> bool:
    return (
        a.names.tolist() == b.names.tolist()
        and a.columns.keys() == b.columns.keys()
        and all(np.array_equal(a[key], b[key]) for key in a.columns)
    )


def exact_ratio_record(name: str, length: float, ratio: float = 0.5) -> tuple:
    """Row whose recovered delta_v / (pi L) is the given ratio to within
    one rounding; exactly the ratio when it is 0.5, since then both the
    halving and the doubling below are exact."""
    delta = ratio * (math.pi * length)
    return (name, delta, 2.0 * delta, length, 1.0)


class TestIngest:
    def write(self, tmp_path, body: str):
        path = tmp_path / "data.csv"
        path.write_text("name,v_fill,v_drill,length,radius\n" + body, encoding="utf-8")
        return path

    def test_fixture_loads(self, data_dir):
        records = ingest(data_dir / "sample20.csv")
        assert len(records) == 20
        assert len(set(records.names)) == 20
        assert records.names.dtype.kind == "T"

    def test_empty_file(self, tmp_path):
        assert len(ingest(self.write(tmp_path, ""))) == 0

    def test_comments_ignored(self, tmp_path):
        path = self.write(tmp_path, "# comment\nm1,1.0,2.0,0.5,0.7\n\n")
        assert len(ingest(path)) == 1

    def test_strictness_violation_rejected(self, tmp_path):
        path = self.write(tmp_path, "m1,2.0,1.5,0.5,0.7\n")
        with pytest.raises(IngestError) as err:
            ingest(path)
        (diag,) = err.value.diagnostics
        assert "line 2" in diag
        assert "strictly" in diag

    def test_equal_volumes_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            ingest(self.write(tmp_path, "m1,2.0,2.0,0.5,0.7\n"))

    def test_bad_geometry_rejected(self, tmp_path):
        with pytest.raises(IngestError) as err:
            ingest(self.write(tmp_path, "m1,1.0,2.0,0.0,0.7\nm2,1.0,2.0,0.5,-1.0\n"))
        assert len(err.value.diagnostics) == 2

    def test_duplicate_names_rejected(self, tmp_path):
        path = self.write(tmp_path, "m1,1.0,2.0,0.5,0.7\nm1,1.0,2.0,0.5,0.7\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest(path)

    def test_non_numeric_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="non-numeric"):
            ingest(self.write(tmp_path, "m1,abc,2.0,0.5,0.7\n"))

    def test_field_count_checked(self, tmp_path):
        with pytest.raises(IngestError, match="5 fields"):
            ingest(self.write(tmp_path, "m1,1.0,2.0,0.5\n"))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\nm1,1.0,2.0,0.5,0.7\n")
        with pytest.raises(IngestError, match="header"):
            ingest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest(tmp_path / "nope.csv")

    def test_census_file_needs_no_row_pass(self, tmp_path, monkeypatch):
        # a file shaped like a generated census (a BOM, CRLF, a leading and a
        # mid-file comment, a blank line, names with '_') over many blocks
        # is read by the block pass alone: the per-row pass must not run
        records = synthesize(600, seed=3)
        values = zip(*(records[key].tolist() for key in INPUT_COLUMNS))
        rows = [f"c003_{i:06d}," + ",".join(map(repr, row)) for i, row in enumerate(values)]
        lines = ["# generated census", census._CSV_HEADER, *rows[:300], "# mid", "", *rows[300:]]
        path = tmp_path / "census.csv"
        path.write_bytes(b"\xef\xbb\xbf" + "".join(line + "\r\n" for line in lines).encode())
        monkeypatch.setattr(census, "_row_diagnostics", pytest.fail)
        monkeypatch.setattr(errors, "_BLOCK_CHARS", 4096)
        assert len(list(errors.read_blocks(path))) > 2
        back = ingest(path)
        assert back.names.tolist() == [f"c003_{i:06d}" for i in range(len(records))]
        assert all(np.array_equal(back[key], records[key]) for key in INPUT_COLUMNS)

    def test_failing_file_is_opened_once(self, tmp_path, monkeypatch):
        # the diagnostics come from the one read, so a pipe can be a dataset
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(errors, "open", counting_open, raising=False)
        path = self.write(tmp_path, "m1,1.0,2.0,0.5,0.7\nm2,2.0,1.0,0.5,0.7\n")
        with pytest.raises(IngestError, match="line 3: v_drill"):
            ingest(path)
        assert opened == [path]

    def test_sink_gets_each_passing_block(self, tmp_path, monkeypatch):
        # the blocks handed on, stripped, add up to the table; none of a
        # failing file's blocks is handed on from the failing one on
        records = synthesize(300, seed=4)
        values = zip(*(records[key].tolist() for key in INPUT_COLUMNS))
        rows = [f" m{i}\t," + ",".join(map(repr, row)) for i, row in enumerate(values)]
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        monkeypatch.setattr(errors, "_BLOCK_CHARS", 1000)
        blocks = []
        table = ingest(path, sink=lambda names, values: blocks.append((list(names), values)))
        assert len(blocks) > 2
        assert [name for names, _ in blocks for name in names] == table.names.tolist()
        numbers = np.concatenate([values for _, values in blocks]).reshape(-1, 4)
        assert numbers.T.tobytes() == np.stack([table[key] for key in INPUT_COLUMNS]).tobytes()
        path.write_text(path.read_text() + "m7,1.0,2.0,0.5,0.7\n")
        handed = []
        with pytest.raises(IngestError, match="duplicate"):
            ingest(path, sink=lambda names, values: handed.append(list(names)))
        assert handed == [names for names, _ in blocks[:-1]]

    @pytest.mark.parametrize("bad", [(0, -1), (2,)], ids=["first_and_last", "middle"])
    def test_only_failing_blocks_are_checked_row_by_row(self, tmp_path, monkeypatch, bad):
        # a block that passes the bulk checks is read in bulk even after one
        # that fails: the row checker sees the lines of the failing blocks
        # alone, and the sink gets no block from the first failing one on
        records = synthesize(300, seed=5)
        values = zip(*(records[key].tolist() for key in INPUT_COLUMNS))
        rows = [f"m{i}," + ",".join(map(repr, row)) for i, row in enumerate(values)]
        path = self.write(tmp_path, "".join(row + "\n" for row in rows))
        monkeypatch.setattr(errors, "_BLOCK_CHARS", 1000)
        blocks = list(errors.read_blocks(path))
        assert len(blocks) > 4
        # line 1 is the header, line n the record rows[n - 2]
        starts = np.cumsum([1] + [len(block) for block in blocks])
        lines = [list(range(max(2, starts[i]), starts[i + 1])) for i in range(len(blocks))]
        bad = [lines[i] for i in bad]
        for lineno in (block[len(block) // 2] for block in bad):
            # v_fill and v_drill swapped, which keeps every line's length
            name, v_fill, v_drill, length, radius = rows[lineno - 2].split(",")
            rows[lineno - 2] = ",".join((name, v_drill, v_fill, length, radius))
        path = self.write(tmp_path, "".join(row + "\n" for row in rows))
        assert list(map(len, errors.read_blocks(path))) == list(map(len, blocks))

        checked = []
        row_diagnostics = census._row_diagnostics

        def spy(lines, *args):
            lines = list(lines)
            checked.append([lineno for lineno, _ in lines])
            return row_diagnostics(iter(lines), *args)

        monkeypatch.setattr(census, "_row_diagnostics", spy)
        handed = []
        with pytest.raises(IngestError) as caught:
            ingest(path, sink=lambda names, values: handed.append(list(names)))
        assert checked == bad
        assert len(caught.value.diagnostics) == len(bad)
        before = lines[: lines.index(bad[0])]
        assert handed == [[f"m{lineno - 2}" for lineno in block] for block in before]

    def test_round_trip_bit_identical(self, tmp_path):
        records = synthesize(25, seed=11)
        path = tmp_path / "rt.csv"
        write_dataset(records, path)
        back = ingest(path)
        assert len(back) == len(records)
        assert tables_equal(back, records)


class TestEvaluate:
    def test_exact_boundary_record(self):
        tube = TubeData(0.8, 0.9)
        v_fill = 2.5
        v_est = drilled_volume_bound(v_fill, tube, Factor.PERELMAN)
        report = evaluate(table(("edge", v_fill, v_est, 0.8, 0.9)))
        assert report["perelman_ok"][0]
        assert report["old_ok"][0]
        assert report["overshoot_perelman"][0] == 0.0

    def test_constructed_violation(self):
        tube = TubeData(0.8, 0.5)
        v_fill = 2.5
        v_est = drilled_volume_bound(v_fill, tube, Factor.PERELMAN)
        report = evaluate(table(("bad", v_fill, 1.01 * v_est, 0.8, 0.5)))
        assert not report["perelman_ok"][0]
        assert report["old_ok"][0]  # the older factor is much larger at this radius
        assert report["overshoot_perelman"][0] < 0.0

    def test_overflow_names_the_first_record(self):
        rows = [(f"m{i}", 1.0, 2.0, 1.0, 1.0) for i in range(5)]
        rows[2] = ("late", 1.0, 2.0, 1e308, 1.0)
        rows[4] = ("later", 1.0, 2.0, 1e308, 1.0)
        with pytest.raises(DomainError) as raised:
            evaluate(table(*rows))
        assert str(raised.value) == (
            "name 'late': B overflows binary64 at v_fill 1.0, length 1e+308, radius 1.0"
        )

    @given(
        v_fill=st.floats(min_value=0.5, max_value=20.0),
        length=st.floats(min_value=0.01, max_value=5.0),
        radius=st.floats(min_value=0.05, max_value=3.0),
        position=st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_bound_is_a_boundary_record(self, v_fill, length, radius, position):
        # the value `estimate` prints as V_est_perelman, put back in as
        # v_drill, sits exactly on the bound for every path: evaluate (with
        # the record at any position of a longer column) and synthesize's
        # acceptance check
        v_est = drilled_volume_bound(v_fill, TubeData(length, radius), Factor.PERELMAN)
        rows = [(f"fill{i}", 1.0 + i, 3.0 + i, 0.1 * (i + 1), 0.3 + 0.1 * i) for i in range(16)]
        rows.insert(position, ("edge", v_fill, v_est, length, radius))
        report = evaluate(table(*rows))
        assert report["perelman_ok"][position]
        assert report["overshoot_perelman"][position] == 0.0
        assert census._within_sharp_bound(v_fill, v_est, length, radius).all()

    def test_old_estimate_dominates(self):
        reports = evaluate(synthesize(200, seed=3))
        assert np.all(reports["v_est_old"] >= reports["v_est_perelman"])
        assert np.all(reports["old_ok"][reports["perelman_ok"]])

    def test_order_preserved(self):
        records = synthesize(50, seed=5)
        assert evaluate(records).names.tolist() == records.names.tolist()

    def test_record_order_does_not_change_reports(self):
        records = synthesize(50, seed=5)
        reports = evaluate(records)
        reversed_reports = evaluate(take(records, slice(None, None, -1)))
        assert tables_equal(take(reversed_reports, slice(None, None, -1)), reports)

    @pytest.mark.parametrize("chunk", [1, 3, 757, 2048, 4096, 65537])
    def test_chunks_evaluate_to_the_same_bits(self, chunk):
        # verify's report worker evaluates the records chunk by chunk
        records = synthesize(min(70_000, 3000 * chunk), seed=17)
        whole = evaluate(records)
        starts = range(0, len(records), chunk)
        parts = [evaluate(take(records, slice(i, i + chunk))) for i in starts]
        for key, column in whole.columns.items():
            assert np.concatenate([part[key] for part in parts]).tobytes() == column.tobytes()

    def test_tolerance_slack(self):
        tube = TubeData(0.8, 0.9)
        v_est = drilled_volume_bound(2.5, tube, Factor.PERELMAN)
        record = table(("edge", 2.5, v_est * (1.0 + 1e-12), 0.8, 0.9))
        assert not evaluate(record)["perelman_ok"][0]
        assert evaluate(record, tol=1e-9)["perelman_ok"][0]
        with pytest.raises(DomainError):
            evaluate(record, tol=-1e-9)

    def test_report_fields_consistent(self):
        records = synthesize(20, seed=13)
        reports = evaluate(records)
        for i in range(len(records)):
            v_fill, v_drill, length, radius = (float(records[key][i]) for key in INPUT_COLUMNS)
            assert reports["delta_v"][i] == v_drill - v_fill
            assert reports["b_over_vdrill"][i] == reports["b"][i] / v_drill
            assert reports["hk_regime"][i] == (length <= 0.16 and radius >= 0.66)


class TestStatistics:
    def test_exact_half_ratios(self):
        reports = evaluate(
            table(*(exact_ratio_record(f"m{i}", length) for i, length in enumerate((0.25, 0.5, 1.25))))
        )
        assert np.all(reports["dv_over_pi_l"] == 0.5)
        stats = statistics(reports)
        assert stats.mean_ratio == 0.5
        assert stats.std_ratio == 0.0

    def test_two_record_hand_value(self):
        reports = evaluate(
            table(exact_ratio_record("m1", 0.5, 0.4), exact_ratio_record("m2", 0.5, 0.6))
        )
        stats = statistics(reports)
        assert stats.mean_ratio == pytest.approx(0.5, abs=1e-14)
        assert stats.std_ratio == pytest.approx(math.sqrt(0.02), rel=1e-12)

    def test_single_record(self):
        stats = statistics(evaluate(table(exact_ratio_record("m", 0.5))))
        assert stats.count == 1
        assert stats.std_ratio == 0.0

    def test_histogram_bookkeeping(self):
        reports = evaluate(synthesize(500, seed=21))
        hist = figure_series(reports, bins=17)["fig_dv_over_pil"].hist
        assert len(hist["count"]) == len(hist["bin_left"]) == len(hist["bin_right"]) == 17
        assert hist["bin_left"][1:].tolist() == hist["bin_right"][:-1].tolist()
        assert sum(hist["count"]) == statistics(reports).count == 500

    def test_histogram_of_ratios_equal_to_rounding(self):
        # both ratios are 1/pi up to rounding: no room for 40 distinct bins
        reports = evaluate(table(("a", 2.0, 2.5, 0.5, 0.5), ("b", 3.0, 3.6, 0.6, 0.45)))
        hist = figure_series(reports)["fig_dv_over_pil"].hist
        assert sum(hist["count"]) == 2
        assert np.all(hist["bin_left"] < hist["bin_right"])
        assert hist["bin_left"][1:].tolist() == hist["bin_right"][:-1].tolist()

    def test_violation_tallies(self):
        tube = TubeData(0.8, 0.5)
        v_est = drilled_volume_bound(2.5, tube, Factor.PERELMAN)
        reports = evaluate(
            table(("good", 2.5, 0.99 * v_est, 0.8, 0.5), ("bad", 2.5, 1.01 * v_est, 0.8, 0.5))
        )
        stats = statistics(reports)
        assert stats.violations["perelman"] == 1
        assert stats.violations["old"] == 0
        assert stats.violations["perelman"] == np.count_nonzero(~reports["perelman_ok"])

    def test_ranges(self):
        reports = evaluate(synthesize(100, seed=2))
        stats = statistics(reports)
        lo, hi = stats.length_range
        assert 0.3 <= lo <= hi <= 2.5
        lo, hi = stats.radius_range
        assert 0.4 <= lo <= hi <= 1.6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            statistics(evaluate(table()))


# positive finite floats of every decimal exponent from -320 (subnormal) to 308
EXTREME = st.builds(
    lambda mantissa, exponent: float(f"{mantissa!r}e{exponent}"),
    st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
    st.integers(min_value=-320, max_value=308),
).filter(lambda x: 0.0 < x < math.inf)


class TestExtremeRecords:
    @given(st.lists(st.tuples(EXTREME, EXTREME, EXTREME, EXTREME), min_size=1, max_size=4))
    @example(rows=[(1.0, 1.7e308, 1.0, 1.0)] * 4)  # the mean of dv / (pi L) overflows
    @example(rows=[(1.0, 1.7e308, 1.0, 1.0), (1.0, 2.0, 1.0, 1.0)])  # and the deviation
    @example(rows=[(1e-300, 2e-300, 1e300, 1.0)])  # (V_est - v_drill) / delta_v overflows
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_finite_columns_or_a_named_record(self, rows):
        # each record as ingest accepts it: 0 < v_fill < v_drill, L, R > 0
        rows = [(f"r{i}", *sorted(row[:2]), *row[2:]) for i, row in enumerate(rows)]
        assume(all(v_fill < v_drill for _, v_fill, v_drill, _, _ in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails, as would FloatingPointError
            try:
                reports = evaluate(table(*rows))
            except DomainError as exc:
                # the record named, at the values of that record
                named = re.fullmatch(r"name 'r(\d)': \w+ overflows binary64 at (.*)", str(exc))
                record = dict(zip(INPUT_COLUMNS, rows[int(named[1])][1:]))
                for key, value in (pair.split(" ") for pair in named[2].split(", ")):
                    assert float(value) == record[key]
                return
            for key, column in reports.columns.items():
                assert column.dtype == bool or np.isfinite(column).all(), key
            try:
                stats = statistics(reports)
            except DomainError as exc:
                assert re.fullmatch(r"(mean|std) dv/\(pi L\) overflows binary64", str(exc))
                return
        assert math.isfinite(stats.mean_ratio) and math.isfinite(stats.std_ratio)


class TestFigureSeries:
    def test_curve_anchor(self):
        reports = evaluate(synthesize(10, seed=4))
        figs = figure_series(reports, r_range=(HALF_LN3, 3.0))
        curves = figs["fig_b_over_vdrill"].curves
        assert list(curves) == ["x", "inv_c_p", "inv_c_o"]
        assert curves["inv_c_p"][0] == 0.512

    def test_ratio_curve_shape(self):
        reports = evaluate(synthesize(10, seed=4))
        figs = figure_series(reports)
        y = figs["fig_ratio_curve"].curves["co_over_cp"]
        assert y[0] > 2.4
        assert all(a > b for a, b in zip(y, y[1:]))
        assert y[-1] < 1.01

    def test_scatter_above_curve(self):
        reports = evaluate(synthesize(400, seed=8))
        figs = figure_series(reports)
        fig = figs["fig_b_over_vdrill"]
        for radius, ok, y in zip(reports["radius"], reports["perelman_ok"], fig.points["y"]):
            if ok:
                assert y >= 1.0 / factor_cp(radius) - 1e-12

    def test_zoom_filters_radius(self):
        reports = evaluate(synthesize(300, seed=6))
        figs = figure_series(reports)
        zoom = figs["fig_overshoot_zoom"]
        assert all(r >= 0.6 for r in zoom.points["x"])
        expected = sum(1 for r in reports["radius"] if r >= 0.6)
        assert len(zoom.points["x"]) == expected

    def test_histogram_attached(self):
        reports = evaluate(synthesize(200, seed=14))
        fig = figure_series(reports, bins=12)["fig_dv_over_pil"]
        assert sum(fig.hist["count"]) == 200
        assert len(fig.hist["bin_left"]) == len(fig.hist["bin_right"]) == 12
        assert fig.points["name"][0] == reports.names[0]

    def test_names_carried(self):
        reports = evaluate(synthesize(5, seed=1))
        figs = figure_series(reports)
        assert figs["fig_overshoot"].points["name"].tolist() == reports.names.tolist()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            figure_series(evaluate(table()))

    def test_bad_range(self):
        reports = evaluate(synthesize(5, seed=1))
        with pytest.raises(DomainError):
            figure_series(reports, r_range=(0.0, 3.0))
        with pytest.raises(DomainError, match="curve_points"):
            figure_series(reports, curve_points=1)


class TestSynthesize:
    def test_deterministic(self):
        assert tables_equal(synthesize(40, seed=123), synthesize(40, seed=123))
        assert synthesize(40, seed=123).names.dtype.kind == "T"

    def test_seed_matters(self):
        assert not tables_equal(synthesize(40, seed=123), synthesize(40, seed=124))

    def test_noise_zero_ratio_half(self):
        reports = evaluate(synthesize(200, seed=31, noise_sigma=0.0))
        # the stored volume pair rounds once, so the recovered ratio can sit
        # a couple of ulps off the generated 1/2
        assert np.all(np.abs(reports["dv_over_pi_l"] - 0.5) < 5e-15)

    def test_ranges_respected(self):
        records = synthesize(300, seed=17)
        assert np.all((0.3 <= records["length"]) & (records["length"] <= 2.5))
        assert np.all((0.4 <= records["radius"]) & (records["radius"] <= 1.6))
        assert np.all((0.94 <= records["v_fill"]) & (records["v_fill"] <= 6.0))

    def test_always_satisfies_sharp_bound(self):
        reports = evaluate(synthesize(3000, seed=77, noise_sigma=0.02))
        assert np.all(reports["perelman_ok"])

    def test_tube_always_embeds(self):
        records = synthesize(300, seed=19)
        for length, radius, v_fill in zip(
            records["length"].tolist(), records["radius"].tolist(), records["v_fill"].tolist()
        ):
            assert math.pi * length * math.sinh(radius) ** 2 <= v_fill

    def test_mean_near_half(self):
        stats = statistics(evaluate(synthesize(4000, seed=42)))
        assert stats.mean_ratio == pytest.approx(0.5, abs=3.0 * 0.017 / math.sqrt(4000))

    def test_widest_noise_reingests(self, tmp_path):
        # eps clipped at -3 sigma, just above -1/2, leaves pi L (1/2 + eps)
        # below an ulp of v_fill, so v_drill can round to v_fill, which
        # ingest rejects
        records = synthesize(5000, seed=1, noise_sigma=math.nextafter(1.0 / 6.0, 0.0))
        write_dataset(records, tmp_path / "wide.csv")
        assert tables_equal(ingest(tmp_path / "wide.csv"), records)

    def test_full_size_mean_within_lln_bound(self):
        n = 25_709
        records = synthesize(n, seed=20240404)
        ratios = [
            (v_drill - v_fill) / (math.pi * length)
            for v_fill, v_drill, length in zip(
                *(records[key].tolist() for key in ("v_fill", "v_drill", "length"))
            )
        ]
        assert np.mean(ratios) == pytest.approx(0.5, abs=3.0 * 0.017 / math.sqrt(n))

    def test_validation(self):
        with pytest.raises(DomainError):
            synthesize(0, seed=1)
        for sigma in (-0.1, 1.0 / 6.0, 0.2, 1e308, math.inf, math.nan):
            with pytest.raises(DomainError, match="noise_sigma"):
                synthesize(5, seed=1, noise_sigma=sigma)
        with pytest.raises(DomainError):
            synthesize(10, seed=-1)


class TestReportCsv:
    def test_columns_and_booleans(self, tmp_path):
        reports = evaluate(synthesize(5, seed=55))
        path = tmp_path / "report.csv"
        write_report_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == reports.names[0]
        assert set(first[-5:]) <= {"true", "false"}
        # floats at 12 significant digits
        assert first[1] == f"{reports['b'][0]:.12g}"

    def test_report_bytes_pinned(self, tmp_path, data_dir):
        # all 32 combinations of the five verdicts, beside floats at the
        # edges of %.12g, against bytes written before the writer was tuned
        n = 32
        verdicts = REPORT_COLUMNS[-5:]
        columns = {
            key: np.array([GOLDEN_FLOATS[(i + j) % len(GOLDEN_FLOATS)] for i in range(n)])
            for j, key in enumerate(REPORT_COLUMNS[1:-5])
        }
        for j, key in enumerate(verdicts):
            columns[key] = (np.arange(n) >> (len(verdicts) - 1 - j)) & 1 == 1
        names = np.array([f"{('m_', 'é', 'c101_')[i % 3]}{i:02d}" for i in range(n)], STRINGS)
        path = tmp_path / "report.csv"
        write_report_csv(Table(names, columns), path)
        assert path.read_bytes() == (data_dir / "report_golden.csv").read_bytes()

    def test_dataset_bytes_pinned(self, tmp_path, data_dir):
        # floats by repr, names with a non-ASCII letter, '_' and a NUL byte
        n = 26
        columns = {
            key: np.array([GOLDEN_FLOATS[(i + j) % len(GOLDEN_FLOATS)] for i in range(n)])
            for j, key in enumerate(INPUT_COLUMNS)
        }
        stems = ("m_", "é", "x\x00y", "")
        names = np.array([f"{stems[i % 4]}{i:02d}" for i in range(n)], STRINGS)
        path = tmp_path / "dataset.csv"
        write_dataset(Table(names, columns), path)
        assert path.read_bytes() == (data_dir / "dataset_golden.csv").read_bytes()
        with pytest.raises(ValueError, match="one entry per name"):
            Table(names[1:], columns)

    @pytest.mark.parametrize(
        "filename", ["fig_b_over_vdrill_curves.csv", "fig_dv_over_pil_hist.csv"]
    )
    def test_figure_bytes_pinned(self, tmp_path, data_dir, filename):
        # a curves table of floats alone, and a histogram with an int column
        figs = figure_series(evaluate(ingest(data_dir / "sample20.csv")))
        census.write_figure_csv(figs[filename.rsplit("_", 1)[0]], tmp_path)
        golden = data_dir / filename.replace(".csv", "_golden.csv")
        assert (tmp_path / filename).read_bytes() == golden.read_bytes()

    def test_empty_figure_bytes_pinned(self, tmp_path):
        # no radius reaches the zoom's 0.6, so its CSV is the header alone
        figs = figure_series(evaluate(table(("m1", 1.0, 2.0, 0.5, 0.3))))
        (path,) = census.write_figure_csv(figs["fig_overshoot_zoom"], tmp_path)
        assert pathlib.Path(path).read_bytes() == b"name,x,y,overshoot_old\n"


# names with NUL bytes, non-ASCII text, more than the 15 bytes StringDType
# holds inline, and space that ingest strips
name_pieces = st.sampled_from(["a", "_", "\x00", "é", "名", " ", "多様体の測地線"])
pads = st.sampled_from(["", " ", "\t", "\u3000"])


@st.composite
def datasets(draw):
    """The lines of a valid dataset with awkward names."""
    lines = [census._CSV_HEADER]
    for i in range(draw(st.integers(1, 40))):
        name = f"n{i}_" + "".join(draw(st.lists(name_pieces, max_size=6)))
        pad = draw(pads)
        values = draw(
            st.tuples(
                st.floats(0.1, 4.0), st.floats(4.5, 9.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0)
            )
        )
        lines.append(",".join([pad + name + pad, *map(repr, values)]))
    return lines


class TestReportWriter:
    def written(self, path, tol: float = 0.0) -> bytes:
        """The report of the dataset at ``path`` as verify writes it."""
        report = path.with_suffix(".report")
        with census.ReportWriter(tol) as writer:
            reports = evaluate(ingest(path, sink=writer.sink), tol)
            writer.write(reports, report)
        return report.read_bytes()

    def serial(self, path, tol: float = 0.0) -> bytes:
        report = path.with_suffix(".serial")
        write_report_csv(evaluate(ingest(path), tol), report)
        return report.read_bytes()

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        lines=datasets(),
        block=st.sampled_from([1, 7, 40, 1 << 16]),
        chunk=st.sampled_from([1, 3, 5, 2048]),
        tol=st.sampled_from([0.0, 1e-9]),
    )
    def test_worker_writes_the_serial_bytes(self, tmp_path, forks, lines, block, chunk, tol):
        path = tmp_path / "census.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls = len(forks)
        with mock.patch.object(errors, "_BLOCK_CHARS", block):
            with mock.patch.object(census, "_CSV_CHUNK", chunk):
                assert self.written(path, tol) == self.serial(path, tol)
        assert len(forks) == calls + 1

    def test_worker_writes_the_fixture(self, data_dir, tmp_path, forks):
        path = tmp_path / "sample20.csv"
        path.write_bytes((data_dir / "sample20.csv").read_bytes())
        assert self.written(path) == self.serial(path)
        assert forks == [os.getpid()]

    @pytest.mark.parametrize("blocks", [True, False])
    def test_worker_gone_falls_back(self, data_dir, tmp_path, forks, monkeypatch, blocks):
        # a worker that has died finds its pipe closed to the first block
        # sent; it is reaped there, later blocks go nowhere, and write takes
        # the serial writer; where ingest sends none, write reaps it
        if not hasattr(os, "waitid"):
            pytest.skip("needs os.waitid")
        monkeypatch.setattr(census, "_report_worker", mock.Mock(side_effect=RuntimeError))
        path = tmp_path / "sample20.csv"
        path.write_bytes((data_dir / "sample20.csv").read_bytes())
        report = tmp_path / "report.csv"
        pids = []
        with census.ReportWriter() as writer, mock.patch.object(errors, "_BLOCK_CHARS", 100):
            # wait for the worker's exit, but leave it unreaped
            os.waitid(os.P_PID, writer._pid, os.WEXITED | os.WNOWAIT)

            def sink(names, values):
                pids.append(writer._pid)
                writer.sink(names, values)

            writer.write(evaluate(ingest(path, sink=sink if blocks else None)), report)
        assert len(forks) == 1
        if blocks:
            assert len(pids) > 2 and pids[0] is not None
            assert pids[1:] == [None] * (len(pids) - 1)
        assert report.read_bytes() == self.serial(path)

    def test_worker_stops_at_the_end_of_its_pipe(self, tmp_path):
        # the pipe's end after any whole notice ends the work, and the
        # report holds the header and the rows of the frames noticed
        records = synthesize(7, seed=3)
        for frames, rows in [(0, 0), (2, 5)]:
            read_end, write_end = os.pipe()
            with open(tmp_path / "frames", "wb+") as file, open(tmp_path / "out", "wb") as out:
                for part in [slice(0, 3), slice(3, 5), slice(5, None)][:frames]:
                    values = np.stack([records[key][part] for key in INPUT_COLUMNS], axis=1)
                    file.write(values.tobytes() + "\n".join(records.names[part].tolist()).encode())
                    file.flush()
                    os.write(write_end, census._NOTICE.pack(len(values), file.tell()))
                os.close(write_end)
                assert census._report_worker(read_end, file.fileno(), out, 0.0) is None
            write_report_csv(evaluate(take(records, slice(rows))), tmp_path / "serial")
            assert (tmp_path / "out").read_bytes() == (tmp_path / "serial").read_bytes()

    def test_notice_cut_short_falls_back(self, data_dir, tmp_path, forks):
        # the worker fails on half a notice, and write takes the serial writer
        path = tmp_path / "sample20.csv"
        path.write_bytes((data_dir / "sample20.csv").read_bytes())
        report = tmp_path / "report.csv"
        counted = mock.patch.object(census, "write_report_csv", wraps=census.write_report_csv)
        with census.ReportWriter() as writer, counted as write_report:
            reports = evaluate(ingest(path, sink=writer.sink))
            os.write(writer._notices, census._NOTICE.pack(1, 0)[:8])
            writer.write(reports, report)
        assert len(forks) == 1 and write_report.call_count == 1
        assert report.read_bytes() == self.serial(path)

    def test_second_temporary_file_refused(self, data_dir, tmp_path, forks, monkeypatch):
        # the first temporary file is closed at once, and no worker forked
        opened, temporary_file = [], tempfile.TemporaryFile

        def second_refused():
            if opened:
                raise OSError(28, "No space left on device")
            opened.append(temporary_file())
            return opened[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", second_refused)
        path = tmp_path / "sample20.csv"
        path.write_bytes((data_dir / "sample20.csv").read_bytes())
        report = tmp_path / "report.csv"
        with census.ReportWriter() as writer:
            assert writer.sink is None and opened[0].closed
            writer.write(evaluate(ingest(path, sink=writer.sink)), report)
        assert forks == []
        assert report.read_bytes() == self.serial(path)
