"""The input contract: every file reader and every numeric argument follows
one grammar (``errors.read_lines`` and ``errors.parse_number``), and no
input, however extreme, ends in a traceback, a warning, more than one line
of error or a printed inf or nan.

Each test builds its input from number texts, optionally behind a UTF-8
byte-order mark or with one undecodable byte put in, and runs ``main``
in-process.  The pinned examples are the inputs that broke the contract
before the grammar was shared."""

import ast
import contextlib
import io
import math
import pathlib
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubevol import census, errors
from tubevol.cli import main

SAMPLE = str(pathlib.Path(__file__).parent / "data" / "sample20.csv")
SRC_DIR = pathlib.Path(errors.__file__).parent

# texts that float() or int() would read, as 25, 10.06, 2 and so on, but
# that the grammar rejects: '_' separators and digits of other scripts
OUTSIDE_GRAMMAR = ["2_5", "1_0.06", "0_6", "2_0", "1_0", "٢", "٢.٥", "５"]
EXTREMES = [
    "1e308", "1e306", "-1e308", "5e-324", "1e-300", "1e300",
    "inf", "-inf", "nan", "0", "-0.0", "0x10", "",
]  # fmt: skip

numbers = st.one_of(
    st.sampled_from(EXTREMES + OUTSIDE_GRAMMAR),
    st.floats().map(repr),
    st.floats(0.05, 8.0).map(repr),
)
# small counts only: a histogram of n bins allocates n cells
counts = st.one_of(st.integers(-3, 64).map(str), st.sampled_from(EXTREMES + OUTSIDE_GRAMMAR))
bad_bytes = st.none() | st.integers(min_value=0)


def _outside_grammar(texts) -> bool:
    return any(not t.isascii() or "_" in t for t in texts)


def _file_bytes(lines, bom: bool, bad_byte) -> bytes:
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if bad_byte is not None:
        at = bad_byte % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return (b"\xef\xbb\xbf" if bom else b"") + data


def _run(argv):
    """Exit code (None for argparse's usage error), stdout and stderr of
    ``main(argv)``; any other exception escapes, and a warning fails."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                code = None
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def _check(outcome, texts=(), bad_byte=None):
    """The contract every run keeps; and text outside the grammar or an
    undecodable byte must fail the run, as an input error unless a domain
    error on an earlier line stops the reader first."""
    code, out, err = outcome
    assert "Traceback" not in err
    assert not {"inf", "-inf", "nan"} & set(re.split(r"[\s,\[\]]+", out.lower())), out
    if code is None:
        assert bad_byte is None, "argv carries no file"
    else:
        assert code in (0, 1, 2, 3)
        if code != 0:
            assert len(err.splitlines()) == 1, err
    if bad_byte is not None or _outside_grammar(texts):
        assert code in (1, 2, None), outcome


def _run_file(name, lines, bom, bad_byte, argv):
    """Run ``argv`` with ``{path}`` replaced by a file of ``lines``; with a
    byte-order mark, the outcome must be that of the file without it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / name)
        argv = [a.format(path=path, tmp=tmp) for a in argv]
        pathlib.Path(path).write_bytes(_file_bytes(lines, bom, bad_byte))
        outcome = _run(argv)
        if bom and bad_byte is None:
            pathlib.Path(path).write_bytes(_file_bytes(lines, False, None))
            assert outcome == _run(argv)
    return outcome


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.lists(numbers, min_size=4, max_size=4), min_size=1, max_size=3),
    bom=st.booleans(),
    bad_byte=bad_bytes,
)
# the BOM failed the header check; 2_5 and Arabic-Indic digits were read as
# numbers; 0xff was a UnicodeDecodeError; one ratio near 3e307 had no room
# for 40 histogram bins
@example(rows=[["2.0", "3.0", "1.0", "0.5"]], bom=True, bad_byte=None)
@example(rows=[["2.0", "2_5", "1.0", "0.5"]], bom=False, bad_byte=None)
@example(rows=[["٢", "3.0", "1.0", "0.5"]], bom=False, bad_byte=None)
@example(rows=[["2.0", "3.0", "1.0", "0.5"]], bom=False, bad_byte=40)
@example(rows=[["1.0", "1e308", "1.0", "1.0"]], bom=False, bad_byte=None)
def test_dataset(rows, bom, bad_byte):
    lines = ["name,v_fill,v_drill,length,radius"]
    lines += [f"r{i}," + ",".join(row) for i, row in enumerate(rows)]
    argv = ["verify", "{path}", "--report", "{tmp}/report.csv"]
    outcome = _run_file("census.csv", lines, bom, bad_byte, argv)
    _check(outcome, [t for row in rows for t in row], bad_byte)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(numbers, min_size=2, max_size=5),
    angles=st.none() | st.lists(numbers, min_size=2, max_size=5),
    header=st.booleans(),
    bom=st.booleans(),
    bad_byte=bad_bytes,
)
# 0_6 was read as 6; 0xff was a UnicodeDecodeError
@example(
    lengths=["0", "0_6", "0.8"], angles=None, header=True, bom=False, bad_byte=None
)
@example(
    lengths=["0", "0.4", "0.8"], angles=None, header=True, bom=False, bad_byte=20
)
def test_profile(lengths, angles, header, bom, bad_byte):
    if angles is None:  # uniform angles from 0 to 2 pi
        angles = [repr(2.0 * math.pi * i / (len(lengths) - 1)) for i in range(len(lengths))]
    rows = list(zip(angles, lengths))
    lines = (["theta,length"] if header else []) + [f"{a},{v}" for a, v in rows]
    outcome = _run_file("profile.csv", lines, bom, bad_byte, ["surgery", "{path}"])
    _check(outcome, [t for row in rows for t in row], bad_byte)


@settings(max_examples=60, deadline=None)
@given(
    generators=st.lists(st.lists(numbers, min_size=8, max_size=8), min_size=1, max_size=2),
    core=st.sampled_from(["a", "A", "ab"]),
    first_core=st.none() | st.sampled_from(["a", "b"]),
    bom=st.booleans(),
    bad_byte=bad_bytes,
)
# three numpy warnings preceded the domain error; 1_0.06 was read as 10.06;
# 0xff was a UnicodeDecodeError
@example(
    generators=[["1e300", "0", "1e300", "0", "0", "0", "1e-300", "0"]],
    core="a",
    first_core=None,
    bom=False,
    bad_byte=None,
)
@example(
    generators=[["1_0.06", "0", "0", "0", "0", "0", "0.1", "0"]],
    core="a",
    first_core=None,
    bom=False,
    bad_byte=None,
)
@example(
    generators=[["2", "0", "0", "0", "0", "0", "0.5", "0"]],
    core="a",
    first_core=None,
    bom=False,
    bad_byte=5,
)
# ad - bc overflowed to nan, which passed every determinant check
@example(
    generators=[["1e308", "1e308", "1e308", "1e308", "5e-324", "0.0", "1e308", "1e308"]],
    core="a",
    first_core=None,
    bom=False,
    bad_byte=None,
)
# the second core line replaced the first, and the run went on with it
@example(
    generators=[["2", "0", "0", "0", "0", "0", "0.5", "0"], ["1", "0", "1", "0", "1", "0", "2", "0"]],
    core="a",
    first_core="b",
    bom=False,
    bad_byte=None,
)
def test_presentation(generators, core, first_core, bom, bad_byte):
    lines = [" ".join(entries) for entries in generators] + [f"core: {core}"]
    if first_core is not None:
        lines.insert(0, f"core: {first_core}")
    outcome = _run_file("group.txt", lines, bom, bad_byte, ["tube-radius", "{path}"])
    _check(outcome, [t for entries in generators for t in entries], bad_byte)
    if first_core is not None:  # the second core line is an input error
        assert outcome[0] in (1, 2), outcome


@settings(max_examples=60, deadline=None)
@given(bins=counts, tol=numbers, bom=st.booleans(), bad_byte=bad_bytes)
# bins=1_0 was read as 10; 0xff was a UnicodeDecodeError
@example(bins="1_0", tol="0", bom=False, bad_byte=None)
@example(bins="7", tol="0", bom=False, bad_byte=3)
def test_config(bins, tol, bom, bad_byte):
    lines = ["# defaults", f"bins = {bins}", f"tol = {tol}"]
    argv = ["--config", "{path}", "verify", SAMPLE, "--report", "{tmp}/report.csv"]
    outcome = _run_file("run.conf", lines, bom, bad_byte, argv)
    _check(outcome, [bins, tol], bad_byte)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(numbers, min_size=3, max_size=3))
# v_fill 2_0 was read as 20; C B and the tube boundary area printed inf
@example(values=["2_0", "1", "0.5"])
@example(values=["1e308", "0.5", "0.5"])
@example(values=["1", "5e307", "0.5"])
def test_estimate_arguments(values):
    _check(_run(["estimate", *values]), values)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(numbers, min_size=3, max_size=3))
# l_max * i overflowed: a numpy warning, then min_volume_scan -inf
@example(values=["2", "0.5", "1e306"])
def test_min_scan_arguments(values):
    _check(_run(["bounds", "--min-scan", *values]), values)


HEADER = "name,v_fill,v_drill,length,radius"
# space that file iteration does not split a line at, unlike
# str.splitlines; float() takes all but \x1c, which strip() takes too
PADS = [" ", "\t", "\x0b", "\x0c", "\x1c"]
valid_row = st.tuples(
    st.floats(0.1, 4.0), st.floats(4.5, 9.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0)
).map(lambda values: [repr(v) for v in values])


@st.composite
def census_files(draw):
    """Lines of a dataset file, the header first (maybe after a comment),
    then mostly valid rows among blank and '#' lines.  A row may have one
    field swapped for any number text, 3 to 6 fields, a duplicate or an
    empty name, and one field with the file's space around it."""
    lines = draw(st.sampled_from([[], ["# generated census"], [""]]))
    pad = draw(st.sampled_from(PADS))
    lines.append(HEADER)
    names = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["valid"] * 5 + ["swapped"] * 2 + ["wild", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# note", "  # indented"])))
            continue
        if kind == "wild":
            texts = draw(st.lists(numbers, min_size=3, max_size=6))
        else:
            texts = draw(valid_row)
        if kind == "swapped":
            texts[draw(st.integers(0, 3))] = draw(numbers)
        # a name ending in NUL, and one of more than the 15 bytes that
        # StringDType holds inline
        names_of = ["m{}", "c101_{}", "é{}", "名 x{}", "x{}\x00", "多様体の測地線 {}"]
        name = draw(st.sampled_from(names_of)).format(i)
        if names and draw(st.integers(0, 19)) == 0:
            name = draw(st.sampled_from(names))
        elif draw(st.integers(0, 39)) == 0:
            name = ""
        names.append(name)
        fields = [name, *texts]
        at = draw(st.integers(0, len(fields)))  # no field padded when at == len
        fields[at:at + 1] = [pad + field + pad for field in fields[at:at + 1]]
        lines.append(",".join(fields))
    return lines


def _row_pass(path):
    """What the header check and then the row checker find over the whole
    file: their diagnostics, or the ParseError."""
    lines = errors.read_lines(path)
    try:
        lineno, line = next(lines, (None, None))
        if line is None:
            return ["file has no header line"]
        if line != HEADER:
            return [f"line {lineno}: expected header {HEADER!r}, got {line!r}"]
        return census._row_diagnostics(lines, {})
    except errors.ParseError as exc:
        return exc
    finally:
        lines.close()


@settings(max_examples=200, deadline=None)
@given(
    lines=census_files(),
    bom=st.booleans(),
    crlf=st.booleans(),
    bad_byte=st.one_of(st.none(), st.none(), st.none(), st.integers(min_value=0)),
    block=st.sampled_from([1, 2, 7, 40, 200, 1 << 16]),
)
# rows that only the grammar rejects: '_', non-ASCII digits, \x1c inside a
# line, misaligned rows whose fields add up to whole records, values only
# a finiteness or a sign check rejects
@example(lines=[HEADER, "m_0,1.0,2_5,0.5,0.7"], bom=False, crlf=False, bad_byte=None, block=1)
@example(lines=[HEADER, "é0,1.0,٢.٥,0.5,0.7"], bom=False, crlf=False, bad_byte=None, block=1)
@example(lines=[HEADER, "m0,1.0,2.0,\x1c0.5,0.7"], bom=False, crlf=False, bad_byte=None, block=1)
@example(lines=[HEADER, "a,1,2,3", "4,b,1,2,3,4"], bom=False, crlf=False, bad_byte=None, block=9)
@example(lines=[HEADER, "m0,1.0,inf,0.5,0.7"], bom=False, crlf=False, bad_byte=None, block=1)
@example(lines=[HEADER, "m0,1.0,2.0,-0.0,0.7"], bom=False, crlf=False, bad_byte=None, block=1)
# the same name in two blocks; the header in the second block, after a
# comment; an undecodable byte in a comment
@example(
    lines=[HEADER, "m0,1,2,0.5,0.7", "#", "", "m0,1,2,0.5,0.7"],
    bom=True,
    crlf=True,
    bad_byte=None,
    block=1,
)
@example(lines=["# c", HEADER, "m0,1,2,0.5,0.7"], bom=False, crlf=False, bad_byte=None, block=1)
@example(lines=["# c", HEADER, "m0,1,2,0.5,0.7"], bom=False, crlf=False, bad_byte=2, block=1)
# \x0b and \x0c inside a valid line, which str.splitlines splits at
@example(
    lines=[HEADER, "m0,1.0,2.0,\x0c0.5\x0b,\t0.7"], bom=False, crlf=False, bad_byte=None, block=1
)
def test_block_pass_matches_row_pass(lines, bom, crlf, bad_byte, block):
    # ingest returns a table if and only if the row checker finds nothing
    # over the whole file, and otherwise raises what it finds, whatever the
    # blocks
    data = _file_bytes(lines, bom, bad_byte)
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(errors, "_BLOCK_CHARS", block):
        path = pathlib.Path(tmp) / "census.csv"
        path.write_bytes(data)
        found = _row_pass(path)
        try:
            table = census.ingest(path)
        except errors.ParseError as exc:
            assert isinstance(found, errors.ParseError) and str(exc) == str(found)
            return
        except errors.IngestError as exc:
            assert exc.diagnostics == found and found
            return
    assert found == []
    rows = [line.strip().split(",") for line in lines[lines.index(HEADER) + 1 :]]
    rows = [row for row in rows if row[0] and not row[0].startswith("#")]
    assert table.names.dtype.kind == "T"
    assert table.names.tolist() == [row[0].strip() for row in rows]
    for i, key in enumerate(census.INPUT_COLUMNS):
        expected = np.array([float(row[i + 1]) for row in rows], dtype=np.float64)
        assert table[key].tobytes() == expected.tobytes()


def test_both_passes_read_numbers_by_parse_number(tmp_path):
    # a stricter grammar, one that refuses exponents, is followed by the
    # block pass as by the row pass: there is one number parser
    def no_exponents(text, kind=float):
        if "e" in text:
            raise ValueError(f"no exponents: {text!r}")
        return errors.parse_number(text, kind)

    path = tmp_path / "census.csv"
    path.write_text(f"{HEADER}\nm0,1.0,2.0,0.5,0.7\nm1,1.0,2e0,0.5,0.7\n")
    with mock.patch.object(census, "parse_number", no_exponents):
        found = _row_pass(path)
        assert found == ["line 3: non-numeric field in 'm1,1.0,2e0,0.5,0.7'"]
        try:
            census.ingest(path)
        except errors.IngestError as exc:
            assert exc.diagnostics == found
        else:
            raise AssertionError("ingest read a number its grammar refuses")


def test_only_the_shared_reader_opens_input():
    # every open() in the package outside errors.read_lines writes
    for path in SRC_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                mode = node.args[1].value if len(node.args) > 1 else "r"
                assert path.name == "errors.py" or "w" in mode, f"{path.name}:{node.lineno}"


def test_usage_errors_name_the_type():
    # the argparse types are named after float and int, as before
    for argv, name in (
        (["estimate", "2_0", "1", "0.5"], "float"),
        (["synthesize", "1_0", "1", "x"], "int"),
    ):
        code, _, err = _run(argv)
        assert code is None and f"invalid {name} value" in err, err
