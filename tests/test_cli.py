import ast
import inspect
import math
import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tubevol
from tubevol import census, errors
from tubevol.cli import _build_parser, _fmt, main
from tubevol.hypkernel import TubeData, filled_volume_lower_bound

HALF_LN3 = 0.5 * math.log(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_value(out: str, key: str) -> str:
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == key:
            return parts[-1]
    raise AssertionError(f"{key!r} not in output:\n{out}")


class TestEstimate:
    def test_anchor_values(self, capsys):
        code, out, _ = run(capsys, "estimate", "2.02988", "1.0", repr(HALF_LN3))
        assert code == 0
        assert table_value(out, "C_P") == "1.953125"
        assert table_value(out, "mean_curvature") == "1.25"
        assert float(table_value(out, "V_est_old")) >= float(
            table_value(out, "V_est_perelman")
        )

    def test_zero_radius_is_domain_error(self, capsys):
        code, _, err = run(capsys, "estimate", "2.0", "1.0", "0")
        assert code == 2
        assert "domain error" in err

    def test_overflowing_radius_is_domain_error(self, capsys):
        code, out, err = run(capsys, "estimate", "2.0", "1.0", "400")
        # one readable line naming the row, not math's (errno, message)
        assert (code, out) == (2, "")
        assert err == (
            "domain error: tube_volume overflows binary64 at v_fill 2.0, length 1.0, "
            "radius 400.0\n"
        )

    @pytest.mark.parametrize("csv", [[], ["--csv"]], ids=["table", "csv"])
    def test_overflowing_row_prints_no_partial_table(self, capsys, csv):
        # tube_volume is 1.17e308, the boundary area pi L sinh(2R) inf
        code, out, err = run(capsys, "estimate", *csv, "1", "5e304", "4")
        assert (code, out) == (2, "")
        assert err == (
            "domain error: tube_boundary_area overflows binary64 at v_fill 1.0, "
            "length 5e+304, radius 4.0\n"
        )

    @pytest.mark.parametrize(
        "radius, error",
        [
            # tanh R tanh 2R underflows to 0, so C_O divides by zero
            ("1e-300", "domain error: C_O overflows binary64 at radius 1e-300\n"),
            # coth R coth 2R is finite, its power 3/2 is not
            ("1e-150", "domain error: C_O overflows binary64 at radius 1e-150\n"),
        ],
    )
    def test_tiny_radius_names_the_factor(self, capsys, radius, error):
        code, out, err = run(capsys, "estimate", "2", "1", radius)
        assert (code, out, err) == (2, "", error)

    @pytest.mark.parametrize(
        "argv, error",
        [
            # C_O B, with C_O(0.1) about 354
            (
                ("1e306", "1", "0.1"),
                "domain error: V_est_old overflows binary64 at v_fill 1e+306, length 1.0, "
                "radius 0.1\n",
            ),
            # pi L
            (
                ("1", "1e308", "1"),
                "domain error: B overflows binary64 at v_fill 1.0, length 1e+308, radius 1.0\n",
            ),
        ],
        ids=["V_est_old", "B"],
    )
    def test_overflow_names_the_quantity(self, capsys, argv, error):
        code, out, err = run(capsys, "estimate", *argv)
        assert (code, out, err) == (2, "", error)

    def test_negative_volume_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "estimate", "-2.0", "1.0", "0.5")
        assert code == 2

    def test_csv_mode(self, capsys):
        code, out, _ = run(capsys, "estimate", "--csv", "2.0", "1.0", "0.8")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "tube_volume"
        values = row.split(",")
        assert len(values) == len(header.split(","))
        float(values[0])

    def test_factor_selection(self, capsys):
        _, out_old, _ = run(capsys, "estimate", "--factor", "old", "2.0", "1.0", "0.8")
        assert "V_est_old" in out_old and "V_est_perelman" not in out_old
        _, out_new, _ = run(capsys, "estimate", "--factor", "perelman", "2.0", "1.0", "0.8")
        assert "V_est_perelman" in out_new and "V_est_old" not in out_new

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run(capsys, "estimate", "2.0", "1.0", "0.8")
        import tubevol.hypkernel as hk

        expected = f"{hk.bound_base_B(2.0, hk.TubeData(1.0, 0.8)):.12g}"
        assert table_value(out, "B") == expected


class TestVerify:
    def test_bundled_fixture_passes(self, capsys, tmp_path, data_dir):
        dataset = tmp_path / "sample20.csv"
        shutil.copy(data_dir / "sample20.csv", dataset)
        code, out, _ = run(capsys, "verify", str(dataset))
        assert code == 0
        assert "perelman=0" in out
        assert (tmp_path / "sample20.csv.report.csv").exists()

    def test_injected_violation_fails(self, capsys, tmp_path, data_dir):
        lines = (data_dir / "sample20.csv").read_text().splitlines()
        name, v_fill, v_drill, length, radius = lines[1].split(",")
        lines[1] = ",".join([name, v_fill, repr(float(v_drill) * 40.0), length, radius])
        dataset = tmp_path / "tampered.csv"
        dataset.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(dataset))
        assert code == 3
        assert "perelman=1" in out
        assert "FAIL" in err

    def test_empty_dataset(self, capsys, tmp_path):
        dataset = tmp_path / "empty.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\n")
        code, _, err = run(capsys, "verify", str(dataset))
        assert code == 1
        assert "no records" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        dataset = tmp_path / "bad.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\nm1,2.0,1.0,0.5,0.7\n")
        code, _, err = run(capsys, "verify", str(dataset))
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_overflowing_radius_is_domain_error(self, capsys, tmp_path):
        # sinh(R)^2 overflows binary64 for R above about 355; no verdict may
        # come from the resulting inf or nan
        dataset = tmp_path / "huge_radius.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\nbig,2.0,2.5,0.5,400\n")
        code, out, err = run(capsys, "verify", str(dataset))
        assert code == 2
        assert "domain error" in err
        assert "violations" not in out

    def test_tiny_radius_names_the_factor(self, capsys, tmp_path):
        dataset = tmp_path / "tiny_radius.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\ntiny,2.0,2.5,0.5,1e-300\n")
        report = tmp_path / "tiny_radius.report.csv"
        code, out, err = run(capsys, "verify", str(dataset), "--report", str(report))
        assert (code, out) == (2, "")
        assert err == "domain error: name 'tiny': C_O overflows binary64 at radius 1e-300\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "row, error",
        [
            (
                "x,1e306,1.5e306,1,0.1",
                "V_est_old overflows binary64 at v_fill 1e+306, length 1.0, radius 0.1",
            ),
            ("x,1,2,1e308,1", "B overflows binary64 at v_fill 1.0, length 1e+308, radius 1.0"),
            # sinh(R)^2 and cosh(2R) both overflow
            ("x,2.0,2.5,0.5,400", "B overflows binary64 at v_fill 2.0, length 0.5, radius 400.0"),
        ],
        ids=["V_est_old", "B_at_length", "B_at_radius"],
    )
    def test_overflow_names_the_quantity(self, capsys, tmp_path, row, error):
        dataset = tmp_path / "huge.csv"
        dataset.write_text(f"name,v_fill,v_drill,length,radius\nm0,1,2,1,1\n{row}\n")
        report = tmp_path / "huge.report.csv"
        code, out, err = run(capsys, "verify", str(dataset), "--report", str(report))
        assert (code, out, err) == (2, "", f"domain error: name 'x': {error}\n")
        assert not report.exists()

    @pytest.mark.parametrize("text", ["", "# only\n\n  # comments\n"], ids=["empty", "comments"])
    def test_no_header_line(self, capsys, tmp_path, text):
        dataset = tmp_path / "headless.csv"
        dataset.write_text(text)
        report = tmp_path / "headless.report.csv"
        code, out, err = run(capsys, "verify", str(dataset), "--report", str(report))
        assert (code, out, err) == (1, "", "error: file has no header line\n")
        assert not report.exists()

    def test_tol_flag_relaxes_verdict(self, capsys, tmp_path, data_dir):
        import tubevol.hypkernel as hk

        tube = hk.TubeData(0.8, 0.9)
        v_est = hk.drilled_volume_bound(2.5, tube, hk.Factor.PERELMAN)
        dataset = tmp_path / "edge.csv"
        dataset.write_text(
            "name,v_fill,v_drill,length,radius\n"
            f"edge,2.5,{v_est * (1.0 + 1e-12)!r},0.8,0.9\n"
        )
        assert run(capsys, "verify", str(dataset))[0] == 3
        assert run(capsys, "verify", str(dataset), "--tol", "1e-9")[0] == 0

    def test_bins_is_not_a_verify_option(self, capsys, tmp_path, data_dir):
        # verify shows no histogram, so it takes no bin count
        report = str(tmp_path / "out.csv")
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(data_dir / "sample20.csv"), "--report", report, "--bins", "50"])
        assert exc.value.code == 2
        assert "--bins" in capsys.readouterr().err

    def test_report_flag(self, capsys, tmp_path, data_dir):
        report = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "verify", str(data_dir / "sample20.csv"), "--report", str(report)
        )
        assert code == 0
        assert report.read_text().splitlines()[0].startswith("name,b,c_o,c_p")

    @pytest.mark.parametrize("via_config", [False, True])
    def test_report_over_dataset_refused(self, capsys, tmp_path, data_dir, via_config):
        # the report path names the dataset by another spelling; the dataset
        # must survive and verify again
        dataset = tmp_path / "census.csv"
        shutil.copy(data_dir / "sample20.csv", dataset)
        (tmp_path / "sub").mkdir()
        report = str(tmp_path / "sub" / ".." / "census.csv")
        if via_config:
            config = tmp_path / "run.conf"
            config.write_text(f"report = {report}\n")
            code, out, err = run(capsys, "--config", str(config), "verify", str(dataset))
        else:
            code, out, err = run(capsys, "verify", str(dataset), "--report", report)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert dataset.read_bytes() == (data_dir / "sample20.csv").read_bytes()
        assert run(capsys, "verify", str(dataset))[0] == 0


    @pytest.mark.parametrize("via_config", [False, True])
    def test_empty_report_path_refused(self, capsys, tmp_path, data_dir, via_config):
        # an empty path once meant the default one, written with no check
        dataset = tmp_path / "census.csv"
        shutil.copy(data_dir / "sample20.csv", dataset)
        if via_config:
            config = tmp_path / "run.conf"
            config.write_text("report =\n")
            code, out, err = run(capsys, "--config", str(config), "verify", str(dataset))
        else:
            code, out, err = run(capsys, "verify", str(dataset), "--report", "")
        assert (code, out) == (1, "")
        assert err == "error: the report path is empty; name a report file\n"
        assert sorted(os.listdir(tmp_path)) == sorted(["census.csv"] + ["run.conf"] * via_config)


# line 3 breaks the strict drilling inequality
FAILING_ROWS = b"name,v_fill,v_drill,length,radius\nm1,1.0,2.0,0.5,0.7\nm2,2.0,1.0,0.5,0.7\n"
LINE_3_ERROR = (
    "error: line 3: v_drill (1.0) must strictly exceed v_fill (2.0): "
    "drilling strictly increases volume\n"
)


def tubevol_process(*argv, env=(), **kwargs):
    """``tubevol`` run as its own process on this checkout's package, with
    ``env`` added to its environment and stdout and stderr piped unless
    ``kwargs`` says otherwise."""
    env = dict(os.environ, PYTHONPATH=str(Path(tubevol.__file__).parents[1]), **dict(env))
    argv = [sys.executable, "-m", "tubevol.cli", *argv]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    return subprocess.Popen(argv, env=env, **{**pipes, **kwargs})


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_verify_reads_a_failing_dataset_from_stdin():
    proc = tubevol_process("verify", "/dev/stdin", stdin=subprocess.PIPE)
    out, err = proc.communicate(FAILING_ROWS, timeout=60)
    assert (proc.returncode, out, err.decode()) == (1, b"", LINE_3_ERROR)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_verify_reads_a_failing_dataset_from_a_named_pipe(tmp_path):
    fifo = tmp_path / "census.csv"
    os.mkfifo(fifo)
    proc = tubevol_process("verify", str(fifo))
    # opening the pipe for writing waits for the reader, so a thread writes
    writer = threading.Thread(target=fifo.write_bytes, args=(FAILING_ROWS,), daemon=True)
    writer.start()
    try:
        out, err = proc.communicate(timeout=60)
    finally:  # a second open of the pipe would wait for a writer forever
        proc.kill()
    writer.join(timeout=10)
    assert (proc.returncode, out, err.decode()) == (1, b"", LINE_3_ERROR)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_verify_wants_a_report_path_for_a_dataset_from_stdin(data_dir):
    # the default report would be /dev/stdin.report.csv
    default = Path("/dev/stdin.report.csv")
    existed = default.exists()
    proc = tubevol_process("verify", "/dev/stdin", stdin=subprocess.PIPE)
    out, err = proc.communicate((data_dir / "sample20.csv").read_bytes(), timeout=60)
    assert (proc.returncode, out) == (1, b"")
    assert err.startswith(b"error: dataset '/dev/stdin' is not a regular file")
    assert len(err.splitlines()) == 1
    assert default.exists() == existed


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_verify_refuses_an_empty_report_path_for_a_dataset_from_stdin(data_dir):
    default = Path("/dev/stdin.report.csv")
    existed = default.exists()
    proc = tubevol_process("verify", "/dev/stdin", "--report", "", stdin=subprocess.PIPE)
    out, err = proc.communicate((data_dir / "sample20.csv").read_bytes(), timeout=60)
    assert (proc.returncode, out) == (1, b"")
    assert err == b"error: the report path is empty; name a report file\n"
    assert default.exists() == existed


# stdout block-buffered fails at the last flush, unbuffered at the first print
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_141_in_silence(data_dir, tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = tubevol_process(
            "verify",
            str(data_dir / "sample20.csv"),
            "--report",
            str(tmp_path / "report.csv"),
            env={"PYTHONUNBUFFERED": unbuffered},
            stdout=write_end,
        )
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


# dataset rows, and the exit code of verify on them
EXITS = [
    (["m1,1.0,2.0,0.5,0.7"], 0),
    (["m1,1.0,2.0,0.5,0.7", "m2,2.0,1.0,0.5,0.7"], 1),
    (["big,2.0,2.5,0.5,400"], 2),
    (["m1,1.0,40.0,0.5,0.7"], 3),
    (["m1,1.0,2.0,0.5,0.7"], 141),  # stdout closed
]


def serial_report(dataset, tol: float = 0.0) -> bytes:
    """The report of a dataset as ``write_report_csv`` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "serial.csv"
        census.write_report_csv(census.evaluate(census.ingest(dataset), tol), path)
        return path.read_bytes()


class TestVerifyWorker:
    """verify with a worker process formatting its report beside ingest."""

    @pytest.mark.parametrize("tol", [None, "1e-9"])
    def test_report_bytes(self, capsys, tmp_path, data_dir, forks, tol):
        report = tmp_path / "report.csv"
        argv = ["verify", str(data_dir / "sample20.csv"), "--report", str(report)]
        code, _, err = run(capsys, *argv, *(["--tol", tol] if tol else []))
        assert (code, err) == (0, "")
        assert forks == [os.getpid()]
        assert report.read_bytes() == serial_report(data_dir / "sample20.csv", float(tol or 0))

    def test_golden_names(self, capsys, tmp_path, forks):
        # the names of report_golden.csv, over blocks and chunks that split
        # unevenly
        stems = ("m_", "é", "c101_")
        lines = [f"{stems[i % 3]}{i:02d},1.5,{1.6 + i / 1000!r},0.5,0.7" for i in range(32)]
        dataset = tmp_path / "golden.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\n" + "\n".join(lines) + "\n")
        report = tmp_path / "report.csv"
        with mock.patch.object(errors, "_BLOCK_CHARS", 90):
            with mock.patch.object(census, "_CSV_CHUNK", 5):
                assert run(capsys, "verify", str(dataset), "--report", str(report))[0] == 0
        assert len(forks) == 1
        assert report.read_bytes() == serial_report(dataset)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_dataset_writes_no_report(self, capsys, tmp_path, data_dir, forks, existing):
        # blocks of valid rows reach the worker before a late row fails
        rows = (data_dir / "sample20.csv").read_text().splitlines()
        dataset = tmp_path / "late.csv"
        dataset.write_text("\n".join(rows + [rows[5]]) + "\n")
        report = tmp_path / "report.csv"
        if existing:
            report.write_bytes(b"kept\n")
        with mock.patch.object(errors, "_BLOCK_CHARS", 200):
            code, out, err = run(capsys, "verify", str(dataset), "--report", str(report))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 22: duplicate name")
        assert len(forks) == 1
        if existing:
            assert report.read_bytes() == b"kept\n"
        else:
            assert not report.exists()

    def test_failing_formatter_falls_back(self, capsys, tmp_path, data_dir, forks, monkeypatch):
        parent, float_cells = os.getpid(), census._float_cells

        def failing_in_the_worker(x):
            if os.getpid() != parent:
                raise RuntimeError("the worker's formatter failed")
            return float_cells(x)

        monkeypatch.setattr(census, "_float_cells", failing_in_the_worker)
        report = tmp_path / "report.csv"
        argv = ["verify", str(data_dir / "sample20.csv"), "--report", str(report)]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(forks) == 1
        monkeypatch.undo()
        assert report.read_bytes() == serial_report(data_dir / "sample20.csv")

    @pytest.mark.parametrize("failing", ["fork", "TemporaryFile"])
    def test_no_worker_to_be_had(self, capsys, tmp_path, data_dir, monkeypatch, failing):
        # a fork or a temporary file refused by the system leaves the serial
        # writer, with no file descriptor closed twice
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        module = os if failing == "fork" else tempfile
        monkeypatch.setattr(module, failing, mock.Mock(side_effect=BlockingIOError(11, "again")))
        report = tmp_path / "report.csv"
        argv = ["verify", str(data_dir / "sample20.csv"), "--report", str(report)]
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert report.read_bytes() == serial_report(data_dir / "sample20.csv")

    @pytest.mark.parametrize("rows, code", EXITS[:4])
    def test_no_worker_outlives_verify(self, capsys, tmp_path, forks, rows, code):
        # the forks fixture finds no child left after each exit code
        dataset = tmp_path / "data.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\n" + "\n".join(rows) + "\n")
        assert run(capsys, "verify", str(dataset), "--report", str(tmp_path / "r.csv"))[0] == code
        assert len(forks) == 1

    @pytest.mark.parametrize("why", ["one CPU", "a second thread"])
    def test_no_fork_without_a_free_cpu(self, capsys, tmp_path, data_dir, monkeypatch, why):
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
        stop = threading.Event()
        if why == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            threading.Thread(target=stop.wait, daemon=True).start()
        report = tmp_path / "report.csv"
        argv = ["verify", str(data_dir / "sample20.csv"), "--report", str(report)]
        try:
            code, _, _ = run(capsys, *argv)
        finally:
            stop.set()
        assert code == 0
        assert report.read_bytes() == serial_report(data_dir / "sample20.csv")


def test_verify_forks_without_a_warning(data_dir, tmp_path):
    # Python 3.12 and later warn when a process with threads forks
    argv = ["verify", str(data_dir / "sample20.csv"), "--report", str(tmp_path / "report.csv")]
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-m", "tubevol.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(Path(tubevol.__file__).parents[1])),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.skipif(
    not (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1),
    reason="verify forks no worker on one CPU",
)
@pytest.mark.parametrize("rows, code", EXITS)
def test_no_worker_outlives_a_verify_process(tmp_path, rows, code):
    # every process that holds the write end of a pipe keeps its read end
    # from seeing EOF, and a worker inherits it
    dataset = tmp_path / "data.csv"
    dataset.write_text("name,v_fill,v_drill,length,radius\n" + "\n".join(rows) + "\n")
    held_read, held_write = os.pipe()
    closed_read, closed_write = os.pipe()
    os.close(closed_read)
    stdout = {"stdout": closed_write} if code == 141 else {}
    try:
        argv = ["verify", str(dataset), "--report", str(tmp_path / "report.csv")]
        proc = tubevol_process(*argv, pass_fds=(held_write,), **stdout)
    finally:
        os.close(held_write)
        os.close(closed_write)
    proc.communicate(timeout=60)
    try:
        assert proc.returncode == code
        assert select.select([held_read], [], [], 0)[0], "a process still holds the pipe"
        assert os.read(held_read, 1) == b""
    finally:
        os.close(held_read)


class TestFigures:
    EXPECTED = [
        "fig_ratio_curve.csv",
        "fig_ratio_curve.svg",
        "fig_overshoot.csv",
        "fig_overshoot.svg",
        "fig_overshoot_zoom.csv",
        "fig_overshoot_zoom.svg",
        "fig_b_over_vdrill.csv",
        "fig_b_over_vdrill_curves.csv",
        "fig_b_over_vdrill.svg",
        "fig_dv_over_pil.csv",
        "fig_dv_over_pil_hist.csv",
        "fig_dv_over_pil.svg",
    ]

    def test_writes_all_series(self, capsys, tmp_path, data_dir):
        out_dir = tmp_path / "figs"
        code, out, _ = run(capsys, "figures", str(data_dir / "sample20.csv"), str(out_dir))
        assert code == 0
        for filename in self.EXPECTED:
            assert (out_dir / filename).exists(), filename
        header = (out_dir / "fig_b_over_vdrill.csv").read_text().splitlines()[0]
        assert header == "name,x,y"

    def test_no_record_in_zoom_range(self, capsys, tmp_path):
        # every radius is below 0.6, so the zoom figure has nothing to plot
        dataset = tmp_path / "small_radii.csv"
        dataset.write_text(
            "name,v_fill,v_drill,length,radius\nx1,2.0,2.1,1.0,0.5\nx2,2.0,2.1,1.0,0.55\n"
        )
        out_dir = tmp_path / "figs"
        code, _, err = run(capsys, "figures", str(dataset), str(out_dir))
        assert code == 0
        assert "Traceback" not in err
        zoom = out_dir / "fig_overshoot_zoom.csv"
        assert zoom.read_text() == "name,x,y,overshoot_old\n"
        root = ET.parse(out_dir / "fig_overshoot_zoom.svg").getroot()
        assert not [el for el in root.iter() if el.tag.endswith("circle")]

    def test_ratios_equal_to_rounding(self, capsys, tmp_path):
        # both dv/(pi L) are 1/pi up to rounding, too close for 40 bins
        dataset = tmp_path / "flat.csv"
        dataset.write_text(
            "name,v_fill,v_drill,length,radius\na,2.0,2.5,0.5,0.5\nb,3.0,3.6,0.6,0.45\n"
        )
        code, out, err = run(capsys, "verify", str(dataset))
        assert code == 0
        assert "records            2" in out
        assert "Traceback" not in err
        out_dir = tmp_path / "figs"
        code, _, err = run(capsys, "figures", str(dataset), str(out_dir))
        assert code == 0
        assert "Traceback" not in err
        rows = (out_dir / "fig_dv_over_pil_hist.csv").read_text().splitlines()[1:]
        assert sum(int(row.split(",")[2]) for row in rows) == 2

    def test_one_huge_ratio(self, capsys, tmp_path):
        # dv/(pi L) is about 3e299, where a unit of padding is below rounding
        dataset = tmp_path / "huge.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\na,1.0,1e300,1.0,1.0\n")
        out_dir = tmp_path / "figs"
        code, _, err = run(capsys, "figures", str(dataset), str(out_dir))
        assert code == 0
        assert err == ""
        rows = (out_dir / "fig_dv_over_pil_hist.csv").read_text().splitlines()[1:]
        assert sum(int(row.split(",")[2]) for row in rows) == 1
        ET.parse(out_dir / "fig_dv_over_pil.svg")

    @pytest.mark.parametrize("bins", ["0", "-2"])
    def test_bins_below_one_is_domain_error(self, capsys, tmp_path, data_dir, bins):
        sample = str(data_dir / "sample20.csv")
        code, out, err = run(capsys, "figures", sample, str(tmp_path / "figs"), "--bins", bins)
        assert code == 2
        assert out == ""
        assert err.startswith("domain error:") and len(err.splitlines()) == 1

    def test_overflow_names_the_record(self, capsys, tmp_path):
        dataset = tmp_path / "huge.csv"
        dataset.write_text("name,v_fill,v_drill,length,radius\nm0,1,2,1,1\nx,1,2,1e308,1\n")
        out_dir = tmp_path / "figs"
        code, out, err = run(capsys, "figures", str(dataset), str(out_dir))
        assert (code, out) == (2, "")
        assert err == (
            "domain error: name 'x': B overflows binary64 at v_fill 1.0, length 1e+308, "
            "radius 1.0\n"
        )
        assert not out_dir.exists()

    def test_unwritable_out_dir(self, capsys, tmp_path, data_dir):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code, _, err = run(
            capsys, "figures", str(data_dir / "sample20.csv"), str(blocker)
        )
        assert code == 1


class TestTubeRadius:
    def test_two_generator_fixture(self, capsys, data_dir):
        # at depth 1 the closest distinct lift is the b-translate at distance
        # ln 2; deeper words reach a crossing conjugate, so pin the depth
        code, out, _ = run(
            capsys, "tube-radius", str(data_dir / "two_gen.txt"), "--max-word-length", "1"
        )
        assert code == 0
        assert table_value(out, "witness") == "b"
        radius = float(out.split("tube radius bound")[1].split()[0])
        assert radius == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
        assert f"{2.0 * math.log(2.0):.12g}" in out  # core length line

    def test_single_generator(self, capsys, data_dir):
        code, out, _ = run(capsys, "tube-radius", str(data_dir / "single_gen.txt"))
        assert code == 0
        assert "infinite (no distinct lift found)" in out

    def test_radius_never_increases_with_depth(self, capsys, data_dir):
        values = []
        for k in ("1", "2", "3"):
            _, out, _ = run(
                capsys, "tube-radius", str(data_dir / "two_gen.txt"), "--max-word-length", k
            )
            values.append(float(out.split("tube radius bound")[1].split()[0]))
        assert values[0] >= values[1] >= values[2]

    def test_zero_bound_warns(self, capsys, data_dir):
        code, out, err = run(
            capsys, "tube-radius", str(data_dir / "two_gen.txt"), "--max-word-length", "3"
        )
        assert code == 0
        assert out.split("tube radius bound")[1].split()[0] == "0"
        assert table_value(out, "witness") == "baB"
        assert len(err.splitlines()) == 1
        assert "baB" in err and "not discrete" in err

    def test_long_words_of_schottky_group(self, capsys, tmp_path):
        # the classical Schottky group pairing radius-1 circles about +-3 and
        # about +-3i, with non-integer entries: words of length 5 outgrew an
        # absolute determinant tolerance
        path = tmp_path / "schottky.txt"
        path.write_text("2.1 0 5.6 0 0.7 0 2.1 0\n0 2.1 -7 0 0.7 0 0 2.1\ncore: a\n")
        for k in ("5", "8"):
            code, out, err = run(capsys, "tube-radius", str(path), "--max-word-length", k)
            assert code == 0, err
            assert float(out.split("tube radius bound")[1].split()[0]) > 0.0

    def test_core_powers_fix_the_axis(self, capsys, tmp_path):
        # the same group with integer entries: AAAAA once passed for a
        # distinct lift at distance 0
        path = tmp_path / "schottky.txt"
        path.write_text("3 0 8 0 1 0 3 0\n0 3 -10 0 1 0 0 3\ncore: a\n")
        bounds = {}
        for k in ("1", "5"):
            code, out, _ = run(capsys, "tube-radius", str(path), "--max-word-length", k)
            assert code == 0
            bounds[k] = float(out.split("tube radius bound")[1].split()[0])
            witness = table_value(out, "witness")
        assert bounds["1"] == pytest.approx(1.82499145376, rel=1e-11)
        assert bounds["5"] == pytest.approx(bounds["1"], rel=1e-9)
        assert witness.strip("aA")

    def test_long_words_keep_the_length_one_bound(self, capsys, tmp_path):
        # every a^j b lies at the length-1 distance; measured directly, a^7 b
        # drifted by 1e-7, a^9 b by 1e-4, and length 11 divided by zero
        path = tmp_path / "schottky.txt"
        path.write_text("3 0 8 0 1 0 3 0\n0 3 -10 0 1 0 0 3\ncore: a\n")
        for k in range(8, 13):
            code, out, err = run(capsys, "tube-radius", str(path), "--max-word-length", str(k))
            assert code == 0, err
            bound = float(out.split("tube radius bound")[1].split()[0])
            assert bound == pytest.approx(1.82499145376, rel=1e-12), k

    def test_non_loxodromic_core(self, capsys, tmp_path):
        path = tmp_path / "parabolic.txt"
        path.write_text("1 0 1 0 0 0 1 0\ncore: a\n")
        code, _, err = run(capsys, "tube-radius", str(path))
        assert code == 2

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\ncore: a\n")
        code, _, _ = run(capsys, "tube-radius", str(path))
        assert code == 1

    def test_overflowing_word_search_is_domain_error(self, capsys, tmp_path):
        # a^3 has entries of 1e360, so words such as baaa overflow binary64
        path = tmp_path / "huge.txt"
        path.write_text("1e120 0 0 0 0 0 1e-120 0\n2 0 1 0 1 0 1 0\ncore: a\n")
        code, out, err = run(capsys, "tube-radius", str(path), "--max-word-length", "2")
        assert (code, err) == (0, "")
        assert table_value(out, "witness") == "b"
        code, out, err = run(capsys, "tube-radius", str(path), "--max-word-length", "4")
        assert (code, out) == (2, "")
        assert err == "domain error: overflow encountered in matmul\n"

    @pytest.mark.parametrize(
        "text, where",
        [
            ("2 0 0 0 0 0 0.5 0\ncore:\n", "line 2: core word ''"),
            ("2 0 0 0 0 0 0.5 0\ncore: a1\n", "line 2: core word 'a1'"),
            ("2 0 0 0 0 0 0.5 0\n\ncore: ab\n", "line 3: core word 'ab'"),
            ("# none\ncore: a\n", "no generator lines"),
            ("2 0 0 0 0 0 0.5 0\n" * 27 + "core: a\n", "line 27: more than 26 generators"),
            ("1 0 2 0 0.5 0 1 0\ncore: a\n", "line 1: MobiusTransform: matrix is singular"),
            ("2 0 0 0 0 0 inf 0\ncore: a\n", "line 1: MobiusTransform: entries and determinant"),
            # scaled to determinant 1, the first entry is 1e310
            (
                "1e300 0 0 0 0 0 1e-320 0\ncore: a\n",
                "line 1: MobiusTransform: could not normalize determinant",
            ),
        ],
        ids=[
            "empty-core",
            "non-letter",
            "no-generator",
            "no-generators",
            "27-generators",
            "singular-generator",
            "infinite-generator",
            "unscalable-generator",
        ],
    )
    def test_malformed_presentation_is_input_error(self, capsys, tmp_path, text, where):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, "tube-radius", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: {where}") and len(err.splitlines()) == 1


class TestSurgery:
    def test_ramp_fixture(self, capsys, data_dir):
        code, out, _ = run(capsys, "surgery", str(data_dir / "profile_ramp.csv"))
        assert code == 0
        delta = float(out.split("delta_v trapezoid")[1].split()[0])
        # output carries 12 significant digits
        assert delta == pytest.approx(0.4 * math.pi, rel=1e-10)
        assert table_value(out, "nz_estimate") == f"{0.4 * math.pi:.12g}"
        assert table_value(out, "monotone") == "true"

    def test_radius_flag(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "surgery", str(data_dir / "profile_ramp.csv"), "--radius", "0.7"
        )
        assert code == 0
        assert table_value(out, "hk_regime") == "false"  # final length 0.8 > 0.16

    def test_simpson_unavailable_note(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("theta,length\n0,0.1\n1.0,0.2\n6.283185307179586,0.3\n")
        code, out, _ = run(capsys, "surgery", str(path))
        assert code == 0
        assert "n/a" in out

    def test_domain_error_prints_no_result(self, capsys, data_dir):
        code, out, err = run(capsys, "surgery", str(data_dir / "profile_ramp.csv"), "--radius", "0")
        assert (code, out) == (2, "")
        assert err == "domain error: hodgson_kerckhoff_regime: radius must be positive\n"

    def test_header_with_extra_column(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("theta,length,extra\n0,0.1\n6.283185307179586,0.3\n")
        code, out, err = run(capsys, "surgery", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: line 1: expected 2 columns\n"

    def test_malformed_profile(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("theta,length\n0,0.1\nnope\n")
        code, _, _ = run(capsys, "surgery", str(path))
        assert code == 1


class TestSynthesize:
    def test_deterministic_output(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(capsys, "synthesize", "30", "7", str(first))[0] == 0
        assert run(capsys, "synthesize", "30", "7", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_verifies_cleanly(self, capsys, tmp_path):
        dataset = tmp_path / "synth.csv"
        run(capsys, "synthesize", "100", "99", str(dataset))
        assert run(capsys, "verify", str(dataset))[0] == 0

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synthesize", "5", "1", str(tmp_path / "no" / "dir.csv"))
        assert code == 1

    def test_bad_count(self, capsys, tmp_path):
        code, _, _ = run(capsys, "synthesize", "0", "1", str(tmp_path / "x.csv"))
        assert code == 2

    @pytest.mark.parametrize("sigma", [repr(1.0 / 6.0), "0.2"])
    def test_noise_beyond_one_sixth(self, capsys, tmp_path, sigma):
        # eps down to -3 sigma would leave v_drill <= v_fill
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "synthesize", "10", "1", str(out), "--noise-sigma", sigma)
        assert code == 2
        assert err == "domain error: synthesize: noise_sigma must be >= 0 and below 1/6\n"
        assert not out.exists()

    def test_negative_seed(self, capsys, tmp_path):
        code, _, err = run(capsys, "synthesize", "10", "-1", str(tmp_path / "x.csv"))
        assert code == 2
        assert "domain error" in err


class TestBounds:
    def test_miyamoto(self, capsys):
        code, out, _ = run(capsys, "bounds", "--chi", "-1")
        assert code == 0
        import tubevol.hypkernel as hk

        assert table_value(out, "miyamoto_lower_bound") == f"{hk.V8:.12g}"

    @pytest.mark.parametrize(
        "norm, lines",
        [
            ([], ["miyamoto_lower_bound  0"]),
            (
                ["--gromov-norm", "0"],
                ["guts_norm_tier    0", "guts_chi_tier     0", "guts_lower_bound  0"],
            ),
            (
                ["--gromov-norm", "-0"],
                ["guts_norm_tier    0", "guts_chi_tier     0", "guts_lower_bound  0"],
            ),
            (["--double-norm", "-0"], ["miyamoto_lower_bound  0", "haken_double_bound    0"]),
        ],
    )
    def test_chi_zero_prints_no_negative_zero(self, capsys, norm, lines):
        assert run(capsys, "bounds", "--chi", "0", *norm) == (0, "\n".join(lines) + "\n", "")

    def test_guts_tiers(self, capsys):
        code, out, _ = run(capsys, "bounds", "--chi", "-1", "--gromov-norm", "8")
        assert code == 0
        import tubevol.hypkernel as hk

        assert table_value(out, "guts_lower_bound") == f"{4.0 * hk.V3:.12g}"

    def test_window_and_double(self, capsys):
        code, out, _ = run(capsys, "bounds", "--twist", "6", "--double-norm", "2")
        assert code == 0
        import tubevol.hypkernel as hk

        assert table_value(out, "alternating_lower") == f"{2.0 * hk.V8:.12g}"
        assert table_value(out, "haken_double_bound") == f"{hk.V3:.12g}"

    def test_min_scan(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--min-scan", "2.0298832128193074",
            repr(HALF_LN3), "0.58775953104788788",
        )
        assert code == 0
        assert float(table_value(out, "min_volume_scan")) == pytest.approx(0.67, abs=1e-9)

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        v=st.floats(0.01, 100.0),
        radius=st.floats(0.01, 8.0),
        l_max=st.floats(1e-6, 100.0),
    )
    def test_min_scan_is_the_filled_volume_bound(self, capsys, v, radius, l_max):
        bound = filled_volume_lower_bound(v, TubeData(l_max, radius))
        code, out, err = run(capsys, "bounds", "--min-scan", repr(v), repr(radius), repr(l_max))
        assert (code, out, err) == (0, f"min_volume_scan  {_fmt(bound)}\n", "")
        # v / coth(2R)^3 - pi L sinh(R)^2 sech(2R), to 1e-12 of the larger term
        with mpmath.workdps(50):
            r = mpmath.mpf(radius)
            filled = mpmath.mpf(v) * mpmath.tanh(2 * r) ** 3
            tube = mpmath.pi * mpmath.mpf(l_max) * mpmath.sinh(r) ** 2 / mpmath.cosh(2 * r)
            assert abs(bound - (filled - tube)) <= 1e-12 * max(filled, tube)

    def test_min_scan_at_a_huge_length(self, capsys):
        # a finite bound prints however large L_MAX is: nothing scales it up
        assert run(capsys, "bounds", "--min-scan", "2", "0.5", "1e306") == (
            0,
            "min_volume_scan  -5.5283505416e+305\n",
            "",
        )

    def test_steps_is_not_a_bounds_option(self, capsys):
        # --min-scan evaluates the bound once, so it takes no grid size
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--min-scan", "2", "0.5", "1", "--steps", "10"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --steps 10" in err

    def test_no_invariants(self, capsys):
        code, _, err = run(capsys, "bounds")
        assert code == 1
        assert "invariant" in err

    @pytest.mark.parametrize("others", [[], ["--twist", "4"], ["--double-norm", "2"]])
    def test_gromov_norm_without_chi(self, capsys, others):
        code, out, err = run(capsys, "bounds", "--gromov-norm", "8", *others)
        assert (code, out) == (1, "")
        assert err == "error: --gromov-norm needs --chi: the guts bound takes both\n"

    def test_domain_error(self, capsys):
        code, _, _ = run(capsys, "bounds", "--chi", "2")
        assert code == 2

    def test_overflowing_row_prints_no_partial_table(self, capsys):
        # V8 (t/2 - 1) is 1.8e308 at t = 10^308
        code, out, err = run(capsys, "bounds", "--chi", "-2", "--twist", str(10**308))
        assert (code, out, err) == (2, "", "domain error: alternating_lower overflows binary64\n")


# each config key (README's list) with a command line that reads it and a
# value other than its flag's default, then a value its flag rejects (None:
# every text is a path)
CONFIG_KEYS = {
    "factor": (["estimate", "3", "1", "0.5"], "old", "bogus"),
    "report": (["verify", "SAMPLE"], "OUT/r.csv", None),
    "tol": (["verify", "OVER", "--report", "OUT/r.csv"], "0.5", "abc"),
    "bins": (["figures", "SAMPLE", "OUT"], "7", "1.5"),
    "r_min": (["figures", "SAMPLE", "OUT"], "0.2", "x"),
    "r_max": (["figures", "SAMPLE", "OUT"], "2", "2_0"),
    "curve_points": (["figures", "SAMPLE", "OUT"], "64", "many"),
    "max_word_length": (["tube-radius", "TWO_GEN"], "1", "3.0"),
    "radius": (["surgery", "PROFILE"], "0.7", "wide"),
    "noise_sigma": (["synthesize", "5", "1", "OUT/s.csv"], "0.05", ""),
}


def test_config_keys_are_the_settable_flags():
    _, options = _build_parser()
    assert sorted(options) == sorted(CONFIG_KEYS)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert all(f"`{key}`" in readme for key in CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_config_value_acts_as_its_flag(capsys, tmp_path, data_dir, key):
    argv, value, bad = CONFIG_KEYS[key]
    out_dir = tmp_path / "out"
    # verify with no --report writes beside its dataset
    sample = tmp_path / "sample20.csv"
    shutil.copy(data_dir / "sample20.csv", sample)
    # v_drill is 14% above V_est_perelman: a violation only without slack
    over = tmp_path / "over.csv"
    over.write_text("name,v_fill,v_drill,length,radius\nm,4.35,12,1.786,0.5569\n")
    places = {
        "SAMPLE": sample,
        "OVER": over,
        "TWO_GEN": data_dir / "two_gen.txt",
        "PROFILE": data_dir / "profile_ramp.csv",
    }
    argv = [str(places[a]) if a in places else a.replace("OUT", str(out_dir)) for a in argv]
    value = value.replace("OUT", str(out_dir))
    config = tmp_path / "run.conf"

    def outcome(*args):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        code, out, _ = run(capsys, *args)
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        return code, out, files

    flag = "--" + key.replace("_", "-")
    config.write_text(f"{key} = {value}\n")
    by_flag = outcome(*argv, flag, value)
    assert by_flag == outcome("--config", str(config), *argv)
    assert by_flag != outcome(*argv)
    if bad is None:
        return
    action = _build_parser()[1][key]
    try:
        (action.type or str)(bad)
        reason = f"{bad!r} is not one of {', '.join(action.choices)}"
    except ValueError as exc:
        reason = str(exc)
    config.write_text(f"{key} = {bad}\n")
    code, out, err = run(capsys, "--config", str(config), *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {config}: bad value for {key!r}: {reason}\n"


def test_flag_defaults_are_the_library_defaults():
    # each of these defaults is declared as a flag and again as a keyword
    # default of the library call the command makes
    _, options = _build_parser()

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    series = census.figure_series
    assert options["bins"].default == default(series, "bins")
    assert options["curve_points"].default == default(series, "curve_points")
    assert (options["r_min"].default, options["r_max"].default) == default(series, "r_range")
    assert options["noise_sigma"].default == default(census.synthesize, "noise_sigma")
    assert options["tol"].default == default(census.evaluate, "tol")
    assert options["tol"].default == default(census.ReportWriter, "tol")


def test_cli_golden(capsys, data_dir, tmp_path, monkeypatch):
    # stdout of every labelled output (estimate, the verify summary,
    # surgery, bounds) as first recorded, byte for byte
    for name in ("sample20.csv", "profile_ramp.csv"):
        shutil.copy(data_dir / name, tmp_path)
    monkeypatch.chdir(tmp_path)
    out = []
    for argv in (
        ["estimate", "2.02988", "1.0", "0.5493061443340549"],
        ["estimate", "--csv", "2.0", "1.0", "0.8"],
        ["estimate", "--factor", "old", "2", "1", "0.8"],
        ["verify", "sample20.csv", "--report", "r.csv"],
        ["surgery", "profile_ramp.csv"],
        ["surgery", "profile_ramp.csv", "--radius", "0.7"],
        ["bounds", "--chi", "-1", "--gromov-norm", "8"],
        ["bounds", "--twist", "6", "--double-norm", "2"],
        ["bounds", "--min-scan", "2.0298832128", "0.5493061443", "0.5877595310"],
    ):
        assert main(argv) == 0
        out.append(f"$ tubevol {' '.join(argv)}\n")
        out.append(capsys.readouterr().out)
    assert "".join(out) == (data_dir / "cli_golden.txt").read_text()


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path, data_dir):
        config = tmp_path / "run.conf"
        config.write_text("max_word_length = 1\n")
        code, out, _ = run(
            capsys,
            "--config",
            str(config),
            "tube-radius",
            str(data_dir / "two_gen.txt"),
        )
        assert code == 0
        assert table_value(out, "witness") == "b"

    def test_flags_override_config(self, capsys, tmp_path, data_dir):
        config = tmp_path / "run.conf"
        config.write_text("report = should-not-be-used.csv\nbins = 7\n")
        report = tmp_path / "real.csv"
        code, _, _ = run(
            capsys,
            "--config",
            str(config),
            "verify",
            str(data_dir / "sample20.csv"),
            "--report",
            str(report),
        )
        assert code == 0
        assert report.exists()
        assert not (tmp_path / "should-not-be-used.csv").exists()

    def test_missing_config_value_is_usage_error(self, capsys, data_dir):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(data_dir / "sample20.csv"), "--config"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--config" in err
        assert "Traceback" not in err

    def test_config_with_equals_sign(self, capsys, tmp_path, data_dir):
        config = tmp_path / "bad.cfg"
        config.write_text("bins=abc\n")
        report = str(tmp_path / "out.csv")
        sample = str(data_dir / "sample20.csv")
        code, _, err = run(capsys, f"--config={config}", "verify", sample, "--report", report)
        assert code == 1
        assert err == run(capsys, "--config", str(config), "verify", sample, "--report", report)[2]
        assert "bins" in err

    def test_factor_must_be_a_choice(self, capsys, tmp_path):
        # factor=bogus was taken, and estimate printed neither V_est row
        config = tmp_path / "run.conf"
        config.write_text("factor = bogus\n")
        code, out, err = run(capsys, "--config", str(config), "estimate", "3", "1", "0.5")
        assert code == 1
        assert out == ""
        assert "factor" in err and "bogus" in err
        config.write_text("factor = old\n")
        code, out, _ = run(capsys, "--config", str(config), "estimate", "3", "1", "0.5")
        assert code == 0
        assert "V_est_old" in out and "V_est_perelman" not in out

    @pytest.mark.parametrize("key", ["seed", "count"])
    def test_synthesize_positionals_are_not_keys(self, capsys, tmp_path, key):
        # synthesize requires its count and seed on the command line, so a
        # config value for either could never take effect
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = 5\n")
        out = str(tmp_path / "s.csv")
        code, _, err = run(capsys, "--config", str(config), "synthesize", "5", "1", out)
        assert code == 1
        assert key in err

    def test_unknown_key_rejected(self, capsys, tmp_path, data_dir):
        config = tmp_path / "run.conf"
        config.write_text("mystery = 3\n")
        code, _, err = run(
            capsys, "--config", str(config), "verify", str(data_dir / "sample20.csv")
        )
        assert code == 1
        assert "mystery" in err
        config.write_text("# defaults\nbins 3\n")
        code, _, err = run(
            capsys, "--config", str(config), "verify", str(data_dir / "sample20.csv")
        )
        assert (code, err) == (1, f"error: {config}: line 2: expected key=value\n")


def test_import_needs_no_scipy():
    # scipy serves the test suite only
    env = dict(os.environ, PYTHONPATH=str(Path(tubevol.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tubevol.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tests_need_no_scipy():
    # the test suite's oracles use mpmath, so the test extra has no scipy
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), f"{path.name}:{node.lineno}"


# 10^15 float64 values are 7 PiB, beyond the address space, so the
# allocation fails whatever the overcommit policy is
@pytest.mark.parametrize(
    "argv",
    [
        ["figures", "SAMPLE", "OUT", "--curve-points", "1000000000000000"],
        ["figures", "SAMPLE", "OUT", "--bins", "1000000000000000"],
        ["synthesize", "1000000000000000", "1", "OUT"],
    ],
    ids=["curve-points", "bins", "synthesize"],
)
def test_count_beyond_memory_is_domain_error(capsys, tmp_path, data_dir, argv):
    out = tmp_path / "out"
    argv = [{"SAMPLE": str(data_dir / "sample20.csv"), "OUT": str(out)}.get(a, a) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "out of memory" in err and "Traceback" not in err
    assert not out.exists()
