"""Dataset pipeline: ingest drill records, evaluate every bound on each,
aggregate statistics, and emit the data series behind the standard figures.

A drill record is one (manifold, geodesic) pair: the filled and drilled
volumes plus the geodesic's length and tube radius.  A census of records is
held as one ``Table`` of columns, never as one object per record.  Real
census exports use the CSV format documented at ``ingest``; a deterministic
synthetic generator is provided for testing and calibration.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import shutil
import signal
import struct
import tempfile
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IngestError, numbered_lines, parse_number, read_blocks
from . import hypkernel
from . import surgery

__all__ = [
    "DatasetStats",
    "FigureSeries",
    "INPUT_COLUMNS",
    "REPORT_COLUMNS",
    "ReportWriter",
    "Table",
    "evaluate",
    "figure_series",
    "ingest",
    "statistics",
    "synthesize",
    "write_dataset",
    "write_figure_csv",
    "write_report_csv",
]

# the float columns of a drill record, in the order of the dataset CSV
INPUT_COLUMNS = ("v_fill", "v_drill", "length", "radius")

_CSV_HEADER = ",".join(("name",) + INPUT_COLUMNS)

# the dtype of ``Table.names``: variable-width UTF-8, a name of up to 15
# bytes held inline in 16 bytes, with no Python object per name
_NAME_DTYPE = np.dtypes.StringDType()


@dataclass(frozen=True, eq=False)
class Table:
    """A census held as columns: ``names`` (a ``StringDType`` array) and
    float64 or bool arrays of the same length, looked up by column name.
    ``evaluate`` adds every bound, ratio and verdict to ``INPUT_COLUMNS``."""

    names: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if any(len(col) != len(self.names) for col in self.columns.values()):
            raise ValueError("Table: every column needs one entry per name")

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, key: str) -> np.ndarray:
        return self.columns[key]


# column order of the report CSV (a subset of the evaluated columns)
REPORT_COLUMNS = (
    "name",
    "b",
    "c_o",
    "c_p",
    "v_est_old",
    "v_est_perelman",
    "overshoot_old",
    "overshoot_perelman",
    "delta_v",
    "dv_over_pi_l",
    "b_over_vdrill",
    "perelman_ok",
    "old_ok",
    "bridgeman_ok",
    "b_le_vdrill",
    "hk_regime",
)

_FLAG_FOR_KEY = {
    "perelman": "perelman_ok",
    "old": "old_ok",
    "bridgeman": "bridgeman_ok",
    "b_le_vdrill": "b_le_vdrill",
}


@dataclass(frozen=True)
class DatasetStats:
    """Aggregate statistics over an evaluated table."""

    count: int
    mean_ratio: float
    std_ratio: float
    violations: dict[str, int]
    length_range: tuple[float, float]
    radius_range: tuple[float, float]


# ---------------------------------------------------------------------------
# CSV


# rows formatted per write: 4,096-row chunks wrote no faster and raised the
# peak RSS of a 200,000-record verify from 73 to 79 MB
_CSV_CHUNK = 2048

# every 10^k, k <= 22, is a double, so |v| 10^(11-e) takes one rounding
_POW10 = np.array([float(10**k) for k in range(23)])
# fixed notation of 12 digits with decimal exponent -4..11, as the head, the
# number of digits before the point, and the point; the index of a layout
# is 16 sign + exponent + 4
_LAYOUTS = [
    (b"-" * sign + b"0" * (exp < 0), max(exp + 1, 0), b"." + b"0" * max(-exp - 1, 0))
    for sign in (0, 1)
    for exp in range(-4, 12)
]


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4 ASCII digits of each of 0..9999 as one uint32, and its trailing
    zeros.  Built on first use: commands that write no CSV never hold them."""
    quads = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # digits, most significant first
    digits = np.ascontiguousarray(quads.T + ord("0")).view(np.uint32).ravel()
    return digits, functools.reduce(lambda zeros, zero: zero * (1 + zeros), quads == 0)


def _cut(cells: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells ended by a comma in their last byte, and the mask that keeps
    each cell's first ``lens`` bytes and the comma."""
    cells[:, -1] = ord(",")
    keep = np.arange(cells.shape[1]) < lens[:, None]
    keep[:, -1] = True
    return cells, keep


def _text_cells(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each text, a str or its UTF-8 bytes, as a row of
    a uint8 matrix, with the comma and mask of ``_cut`` (the padding is
    never kept, so a text may hold NUL bytes)."""
    lens = np.fromiter(map(len, texts), np.intp, len(texts))
    try:  # ASCII texts, the usual case, convert without encoding each
        cells = np.array(texts, dtype=f"S{lens.max() + 1}")
    except UnicodeEncodeError:
        texts = [text.encode("utf-8") for text in texts]
        lens = np.fromiter(map(len, texts), np.intp, len(texts))
        cells = np.array(texts, dtype=f"S{lens.max() + 1}")
    return _cut(cells.view(np.uint8).reshape(len(texts), -1), lens)


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``'%.12g' % v`` for each v of a float array, as ``_text_cells`` gives it.

    Where '%.12g' prints fixed notation, it prints |v| rounded to M 10^(e-11),
    M of 12 digits and e = floor(log10 |v|), so M = rint(|v| 10^(11-e)),
    whose digits and trailing zeros come from tables.  Exact ties of the
    rounded product, zeros, non-finite and subnormal values and every
    exponent form are printed by '%.12g' itself, so each byte is the one
    Python prints."""
    a = np.abs(x)
    fast = (a >= 1e-5) & (a < 1e12)
    a = np.where(fast, a, 1.0)
    # log10 can miss floor(log10 a) by one next to a power of ten; y is then
    # outside [1e11, 1e12], or at an end of it, which rounds to the same text
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -5, 11)
    y = a * _POW10[11 - e]
    # y is the exact product t rounded once, and rounding is monotone, so
    # y is on t's side of every half-integer (each a double below 2^52), or
    # on it: rint(y) rounds t as '%.12g' does unless y is a half-integer
    m = np.rint(y)
    fast &= (y >= 1e11) & (y <= 1e12) & (np.abs(y - m) < 0.5)
    top = m == 1e12  # rounds up to 10^(e+1)
    exp = e + top
    fast &= (exp >= -4) & (exp <= 11)
    hi, rest = np.divmod(np.where(fast & ~top, m, 1e11).astype(np.int64), 10**8)
    mid, lo = np.divmod(rest, 10**4)
    quads, ends = _digit_tables()
    digits = quads[np.stack([hi, mid, lo], axis=1)].view(np.uint8)
    zeros = np.where(lo, ends[lo], np.where(mid, 4 + ends[mid], 8 + ends[hi]))
    # the trailing zeros are cut, and the point with them if nothing follows
    neg = np.signbit(x).astype(np.intp)
    k = np.maximum(exp + 1, 0)
    head = neg + (exp < 0)
    lens = np.where(zeros < 12 - k, head + 13 + np.maximum(-exp - 1, 0) - zeros, head + k)
    slow = np.flatnonzero(~fast)
    texts = ["%.12g" % v for v in x[slow].tolist()]
    lens[slow] = list(map(len, texts))
    layouts = 16 * neg + exp + 4
    counts = np.bincount(layouts[fast], minlength=len(_LAYOUTS))
    present = np.flatnonzero(counts).tolist()
    width = max([int(lens.max())] + [len(_LAYOUTS[i][0] + _LAYOUTS[i][2]) + 12 for i in present])
    cells = np.empty((len(x), width + 1), np.uint8)
    # the commonest layout is laid over every row first, the others over theirs
    common = int(counts.argmax())
    for layout in sorted(present, key=lambda i: i != common):
        rows = slice(None) if layout == common else np.flatnonzero(fast & (layouts == layout))
        lead, before, point = _LAYOUTS[layout]
        at = len(lead) + before
        cells[rows, : len(lead)] = np.frombuffer(lead, np.uint8)
        cells[rows, len(lead) : at] = digits[rows, :before]
        cells[rows, at : at + len(point)] = np.frombuffer(point, np.uint8)
        cells[rows, at + len(point) : at + len(point) + 12 - before] = digits[rows, before:]
    if texts:
        cells[slow, :-1] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(slow), -1)
    return _cut(cells, lens)


def _float_run(run: list[np.ndarray], part: slice) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a run of adjacent float columns, a row's cells side by side."""
    cells, keep = _float_cells(np.stack([column[part] for column in run], axis=1).ravel())
    rows = len(run[0][part])
    return cells.reshape(rows, -1), keep.reshape(rows, -1)


def _str_cells(column: np.ndarray, part: slice) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a column by str; a ``StringDType`` column holds str
    already (whose Python ``len`` counts trailing NULs, which
    ``np.strings.str_len`` does not), and an object column str or UTF-8
    bytes."""
    texts = column[part].tolist()
    return _text_cells(texts if column.dtype.kind in "OT" else list(map(str, texts)))


def _verdict_cells(run: list[np.ndarray]):
    """The cells of a run of adjacent bool columns: their true/false texts
    joined by commas, each row's looked up by the run's bits."""
    cells, keep = _text_cells(
        [",".join(bits) for bits in itertools.product(("false", "true"), repeat=len(run))]
    )

    def convert(part: slice) -> tuple[np.ndarray, np.ndarray]:
        code = functools.reduce(lambda code, column: 2 * code + column[part], run, 0)
        return cells[code], keep[code]

    return convert


def _csv_rows(columns: dict[str, np.ndarray], float_repr: bool = False):
    """Yield the CSV bytes of the rows of equal-length columns, a chunk of
    ``_CSV_CHUNK`` rows at a time: floats as '%.12g' prints them, or by
    repr if ``float_repr``, booleans as true/false, the rest by str.  Each
    chunk is laid out as a byte matrix, a row's cells side by side, and
    given as the bytes its mask keeps.  Each run of adjacent float columns
    is formatted as one array (``_float_cells``), each run of bool columns
    as one cell looked up by its bits."""
    fields = []
    for kind, run in itertools.groupby(columns.values(), lambda column: column.dtype.kind):
        run = list(run)
        if kind == "b":
            fields.append(_verdict_cells(run))
        elif kind == "f" and not float_repr:
            fields.append(functools.partial(_float_run, run))
        else:
            fields += [functools.partial(_str_cells, column) for column in run]
    for start in range(0, len(next(iter(columns.values()))), _CSV_CHUNK):
        part = slice(start, start + _CSV_CHUNK)
        cells, keep = zip(*(convert(part) for convert in fields))
        rows = np.concatenate(cells, axis=1)
        rows[:, -1] = ord("\n")
        yield rows[np.concatenate(keep, axis=1)]


def _csv_header(columns) -> bytes:
    return (",".join(columns) + "\n").encode("utf-8")


def _write_csv(path, columns: dict[str, np.ndarray], float_repr: bool = False) -> None:
    """Write equal-length columns under a header of their keys, as
    ``_csv_rows`` gives them."""
    with open(path, "wb") as handle:
        handle.write(_csv_header(columns))
        # each chunk's bytes are freed before the next chunk is laid out
        handle.writelines(_csv_rows(columns, float_repr))


# ---------------------------------------------------------------------------
# Ingest


def _row_diagnostics(lines, names: dict) -> list[str]:
    """The row-numbered diagnostics of the rows among numbered record lines
    that fail the grammar or a check ``ingest`` documents, one row at a
    time.  ``names`` holds the valid names so far and gains the valid rows'."""
    diagnostics: list[str] = []
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 5:
            diagnostics.append(f"line {lineno}: expected 5 fields, got {len(parts)}")
            continue
        name = parts[0].strip()
        try:
            row = list(map(float, parse_number(line[len(parts[0]) + 1 :], str).split(",")))
        except ValueError:
            diagnostics.append(f"line {lineno}: non-numeric field in {line!r}")
            continue
        if not name:
            diagnostics.append(f"line {lineno}: empty name")
            continue
        if name in names:
            diagnostics.append(f"line {lineno}: duplicate name {name!r}")
            continue
        v_fill, v_drill, length, radius = row
        row_problems = []
        if not (math.isfinite(v_fill) and v_fill > 0.0):
            row_problems.append(f"v_fill ({parts[1].strip()}) must be positive")
        if not (math.isfinite(length) and length > 0.0):
            row_problems.append(f"length ({parts[3].strip()}) must be positive")
        if not (math.isfinite(radius) and radius > 0.0):
            row_problems.append(f"radius ({parts[4].strip()}) must be positive")
        if not row_problems and not (math.isfinite(v_drill) and v_drill > v_fill):
            row_problems.append(
                f"v_drill ({parts[2].strip()}) must strictly exceed "
                f"v_fill ({parts[1].strip()}): drilling strictly increases volume"
            )
        if row_problems:
            diagnostics.append(f"line {lineno}: " + "; ".join(row_problems))
            continue
        names[name] = None
    return diagnostics


def _block_records(block: list[str], names: dict, sink=None):
    """One block of raw record lines read in bulk: its numbers row after
    row, its names added to ``names`` and the block handed to ``sink`` as
    ``ingest`` says; None, and ``names`` unchanged, if a line is not UTF-8,
    a row has other than 5 fields, the number texts fail ``parse_number``,
    or a row fails a check ``ingest`` documents."""
    text = "".join(block)
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return None
    rows = [line for line in map(str.strip, block) if line and line[0] != "#"]
    if any(count != 4 for count in map(str.count, rows, itertools.repeat(","))):
        return None
    fields = ",".join(rows).split(",") if rows else []
    block_names = fields[::5]
    del fields[::5]
    try:  # float() of each text, as the row checker reads it
        parse_number(",".join(fields), str)
        values = np.array(fields, np.float64)
    except ValueError:
        return None
    records = values.reshape(-1, len(INPUT_COLUMNS))
    # every value finite and positive, and v_drill > v_fill
    if not (((0.0 < records) & (records < np.inf)).all() and (records[:, 1] > records[:, 0]).all()):
        return None
    # new names go to the end of the dict, so a repeated or empty name is
    # undone by removing the last ones
    known = len(names)
    names.update(zip(map(str.strip, block_names), itertools.repeat(None)))
    if len(names) != known + len(rows) or "" in names:
        while len(names) > known:
            names.popitem()
        return None
    if sink is not None and rows:
        sink(map(str.strip, block_names), values)
    return values


def ingest(path, sink=None) -> Table:
    """Read drill records from a CSV file into a table of ``INPUT_COLUMNS``.

    Format: lines as ``errors.read_lines`` reads them, the header
    ``name,v_fill,v_drill,length,radius`` first, then one record per line, its
    numbers as ``errors.parse_number`` reads them.  The file is read once, so
    it may be a pipe, in blocks of about 64K characters
    (``errors.read_blocks``), each parsed and checked in bulk.  A block that
    fails is checked row by row against the valid names so far, and the result
    is an IngestError carrying row-numbered diagnostics (non-numeric fields, a
    wrong field count, duplicate or empty names, nonpositive length/radius, or
    v_drill <= v_fill, which breaks the strict drilling inequality), or
    ParseError for bytes that are not UTF-8.  ``sink``, if given, is called as
    ``sink(names, values)`` on each block of records that passes the bulk
    checks, in file order up to the first that fails, with an iterator of its
    stripped names and its numbers row after row as one float64 array.
    """
    # the valid names so far, in file order, as the keys of a dict
    names: dict[str, None] = {}
    # the numbers row after row: one growing array, larger than the names'
    # freed tables, which raise malloc's mmap threshold, grows mapped; four
    # columns kept 8-10 MB more heap resident at 10^6 rows
    numbers = array("d")
    diagnostics: list[str] = []
    blocks = read_blocks(path)
    try:  # the file is closed before an error leaves
        start = 1
        for block in blocks:
            lineno, line = next(numbered_lines(path, block, start), (None, None))
            if line is not None:
                break
            start += len(block)
        else:
            raise IngestError(["file has no header line"])
        if line != _CSV_HEADER:
            raise IngestError([f"line {lineno}: expected header {_CSV_HEADER!r}, got {line!r}"])
        # the lines after the header, then the later blocks
        block, start = block[lineno - start + 1 :], lineno + 1
        for block in itertools.chain([block], blocks):
            values = _block_records(block, names, sink)
            if values is None:
                diagnostics += _row_diagnostics(numbered_lines(path, block, start), names)
                sink = None
            elif not diagnostics:  # a failing file's numbers are not returned
                numbers.frombytes(memoryview(values).cast("B"))
            start += len(block)
    finally:
        blocks.close()
    if diagnostics:
        raise IngestError(diagnostics)
    # the dict and its strings are freed before the columns are copied out
    names = np.array(list(names), _NAME_DTYPE)
    values = np.frombuffer(numbers, np.float64).reshape(-1, len(INPUT_COLUMNS)).T.copy()
    return Table(names, dict(zip(INPUT_COLUMNS, values)))


def write_dataset(table: Table, path) -> None:
    """Write the ``INPUT_COLUMNS`` of a table in the ingest CSV format, floats
    by repr, so a written file re-ingests to bit-identical values."""
    columns = {"name": table.names, **{key: table[key] for key in INPUT_COLUMNS}}
    _write_csv(path, columns, float_repr=True)


# ---------------------------------------------------------------------------
# Evaluation


@np.errstate(all="ignore")
def evaluate(table: Table, tol: float = 0.0) -> Table:
    """Evaluate every bound on each record of a table of ``INPUT_COLUMNS``,
    preserving order; the result carries the input columns as well.

    ``tol`` is a relative slack applied to the inequality verdicts, for data
    whose volumes were computed at limited precision; the default demands
    the bounds exactly.  A column that overflows binary64 is a DomainError
    naming it and the first record where it does.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError("evaluate: tol must be >= 0")
    record = {key: table[key] for key in INPUT_COLUMNS}
    v_fill, v_drill, length, radius = record.values()
    pi_l = math.pi * length  # overflows only where B does
    try:
        b, c_o, c_p, v_est_old, v_est_perelman = hypkernel.drilling_estimates(
            v_fill, length, radius
        )
        delta_v = v_drill - v_fill  # positive and finite
        columns = {
            "b": b,
            "c_o": c_o,
            "c_p": c_p,
            "v_est_old": v_est_old,
            "v_est_perelman": v_est_perelman,
            "overshoot_old": (v_est_old - v_drill) / delta_v,
            "overshoot_perelman": (v_est_perelman - v_drill) / delta_v,
            "delta_v": delta_v,
            "dv_over_pi_l": delta_v / pi_l,
            "b_over_vdrill": b / v_drill,
        }
        bounds = {name: hypkernel._finite(name, x, **record) for name, x in columns.items()}
    except DomainError as exc:  # an overflow, at the record exc.index
        raise DomainError(f"name {table.names[exc.index]!r}: {exc}") from None
    slack = 1.0 + tol
    return Table(
        table.names,
        {
            **table.columns,
            **bounds,
            "perelman_ok": v_drill <= v_est_perelman * slack,
            "old_ok": v_drill <= v_est_old * slack,
            "bridgeman_ok": delta_v <= pi_l * slack,
            "b_le_vdrill": b <= v_drill * slack,
            "hk_regime": surgery.hodgson_kerckhoff_regime(length, radius),
        },
    )


@np.errstate(all="ignore")
def statistics(table: Table) -> DatasetStats:
    """Sample mean and standard deviation (n-1 denominator) of the ratio
    delta_v / (pi L), each a DomainError naming it where not finite, violation
    tallies per inequality, and the (L, R) ranges seen, over an evaluated table."""
    if not len(table):
        raise ValueError("statistics: empty table")
    ratios = table["dv_over_pi_l"]
    std = np.std(ratios, ddof=1) if len(table) > 1 else 0.0
    return DatasetStats(
        count=len(table),
        mean_ratio=float(hypkernel._finite("mean dv/(pi L)", np.mean(ratios))),
        std_ratio=float(hypkernel._finite("std dv/(pi L)", std)),
        violations={
            key: int(np.count_nonzero(~table[flag])) for key, flag in _FLAG_FOR_KEY.items()
        },
        length_range=(float(table["length"].min()), float(table["length"].max())),
        radius_range=(float(table["radius"].min()), float(table["radius"].max())),
    )


def _report_columns(table: Table) -> dict[str, np.ndarray]:
    return {col: table.names if col == "name" else table[col] for col in REPORT_COLUMNS}


def write_report_csv(table: Table, path) -> None:
    """Write one row per record of an evaluated table with the standard report
    columns; floats at 12 significant digits, booleans as true/false."""
    _write_csv(path, _report_columns(table))


# ---------------------------------------------------------------------------
# Report worker


# a notice on the worker's pipe: a frame's rows and the offset in the frames
# file where the frame ends; the pipe's end ends the work
_NOTICE = struct.Struct("=qq")


def _worker_helps() -> bool:
    """Whether a worker process can format the report while ingest reads:
    a second usable CPU, and no other Python thread, which a fork would
    copy stopped in the child."""
    return (
        hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _report_worker(notices: int, frames: int, out, tol: float) -> None:
    """The worker's loop: read each frame noticed on the pipe ``notices``
    from the file ``frames``, and write the report of its records, header
    first, to ``out``, evaluated and formatted as each notice arrives;
    return at the pipe's end, where a notice cut short fails to unpack.  A
    frame holds its numbers row after row, then its names, joined by
    newlines (a name holds none), in UTF-8."""
    # free a mapped block of 8 MB, as ingest's freed tables are in the
    # parent: malloc's mmap threshold rises to its size, so each frame's
    # temporaries are no longer mapped and unmapped on every use
    np.empty(1 << 20)
    out.write(_csv_header(REPORT_COLUMNS))
    start = 0
    with os.fdopen(notices, "rb") as pipe:
        while notice := pipe.read(_NOTICE.size):
            rows, end = _NOTICE.unpack(notice)
            frame = os.pread(frames, end - start, start)
            records = np.frombuffer(frame, np.float64, rows * len(INPUT_COLUMNS))
            names = np.array(frame[records.nbytes :].split(b"\n"), object)
            columns = records.reshape(-1, len(INPUT_COLUMNS)).T.copy()
            table = Table(names, dict(zip(INPUT_COLUMNS, columns)))
            out.writelines(_csv_rows(_report_columns(evaluate(table, tol))))
            start = end
    out.flush()


class ReportWriter:
    """Writes ``verify``'s report, maybe with a worker process beside ingest.

    Where ``_worker_helps``, a forked worker evaluates and formats the
    report rows of each block that ``ingest`` hands to ``sink``, while
    ingest reads on, into an unlinked temporary file; ``write`` closes its
    pipe, which ends its work, and copies its bytes to the report.
    Otherwise, or if the worker fails, ``sink`` is None or does nothing and
    ``write`` is ``write_report_csv``.  Either way the report is opened by
    ``write`` alone, and the bytes are the same.  Blocks travel as frames
    appended to a second unlinked file, each announced on the pipe
    (``_NOTICE``).  ``close`` kills and reaps the worker on every other path.
    """

    def __init__(self, tol: float = 0.0):
        self.sink = self._pid = self._notices = None
        self._files = []
        if _worker_helps():
            try:
                self._start(tol)
            except OSError:  # no temporary file, pipe or process to be had
                self.close()

    def _start(self, tol: float) -> None:
        for _ in range(2):  # each kept at once, for close to close
            self._files.append(tempfile.TemporaryFile())
        self._frames, self._out = self._files
        notices, self._notices = os.pipe()
        try:
            self._pid = os.fork()
            if self._pid == 0:
                self._work(notices, tol)
        finally:
            os.close(notices)
        self.sink = self._send

    def _work(self, notices: int, tol: float) -> None:
        """The worker's life after the fork: its output goes to the
        temporary file alone, and it never returns."""
        code = 1
        try:
            os.close(self._notices)
            devnull = os.open(os.devnull, os.O_RDWR)
            for fd in range(3):
                os.dup2(devnull, fd)
            _report_worker(notices, self._frames.fileno(), self._out, tol)
            code = 0
        finally:
            os._exit(code)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _send(self, names, values: np.ndarray) -> None:
        """Hand the worker one block: its names and its numbers row after
        row.  A full disk or a worker gone stops the worker for good."""
        if self._pid is None:
            return
        try:
            self._frames.write(values)
            self._frames.write("\n".join(names).encode("utf-8"))
            self._frames.flush()
            rows = len(values) // len(INPUT_COLUMNS)
            os.write(self._notices, _NOTICE.pack(rows, self._frames.tell()))
        except OSError:
            self._reap(stop=True)

    def _reap(self, stop: bool) -> bool:
        """Close the worker's pipe, killing the worker first if ``stop``,
        wait for it, and say whether it finished its report."""
        if stop:
            os.kill(self._pid, signal.SIGKILL)
        os.close(self._notices)
        self._notices = None
        pid, self._pid = self._pid, None
        return os.waitpid(pid, 0)[1] == 0

    def write(self, table: Table, path) -> None:
        """Write the report of ``table``, the evaluated records that
        ``ingest`` handed to ``sink``, to ``path``."""
        if self._pid is None or not self._reap(stop=False):
            write_report_csv(table, path)
            return
        self._out.seek(0)
        with open(path, "wb") as handle:
            shutil.copyfileobj(self._out, handle)

    def close(self) -> None:
        if self._pid is not None:
            self._reap(stop=True)
        if self._notices is not None:  # the fork failed
            os.close(self._notices)
            self._notices = None
        for file in self._files:
            file.close()


# ---------------------------------------------------------------------------
# Figure series


def _check_count(count: int, what: str) -> None:
    """A MemoryError where numpy, asked for twice ``count`` float64s, raises ValueError."""
    if count > np.iinfo(np.intp).max // 16:
        raise MemoryError(f"{what} is beyond the largest array numpy can index")


def _histogram(values: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.histogram`` of ``bins`` equal bins over the range of ``values``;
    values equal up to rounding, which leave no room for distinct edges, get
    the unit range numpy gives values that are all equal, or ``bins`` ulps
    each way where a unit is below rounding."""
    lo, hi = float(values.min()), float(values.max())
    if not np.all(np.diff(np.linspace(lo, hi, bins + 1)) > 0.0):
        pad = max(0.5, bins * float(np.spacing(abs(hi))))
        lo, hi = lo - pad, hi + pad
    return np.histogram(values, bins=bins, range=(lo, hi))


@dataclass
class FigureSeries:
    """Data behind one figure, held as the tables of its CSV files: each
    table a dict of equal-length columns in CSV column order, or None where
    the figure has no such file.  ``points`` is name, x, y and any extra
    per-point columns; ``curves`` the x grid, then one y column per overlay
    curve, keyed by its label; ``hist`` bin_left, bin_right and count."""

    name: str
    xlabel: str
    ylabel: str
    points: dict[str, np.ndarray] | None = None
    curves: dict[str, np.ndarray] | None = None
    hist: dict[str, np.ndarray] | None = None


def figure_series(
    table: Table,
    r_range: tuple[float, float] = (0.05, 3.0),
    curve_points: int = 512,
    bins: int = 40,
) -> dict[str, FigureSeries]:
    """Build the five standard figure series from an evaluated table.

    * fig_ratio_curve: the ratio of the two estimate factors against R.
    * fig_overshoot / fig_overshoot_zoom: estimate overshoot against R
      (the zoom restricts to R >= 0.6).
    * fig_b_over_vdrill: B / v_drill scatter with the reciprocal factor
      curves overlaid; bound-satisfying points lie on or above 1/C_P.
    * fig_dv_over_pil: delta_v / (pi L) against L with marginal histogram.
    """
    if not len(table):
        raise ValueError("figure_series: empty table")
    lo, hi = r_range
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise DomainError("figure_series: bad r_range")
    if curve_points < 2:
        raise DomainError("figure_series: curve_points must be >= 2")
    if bins < 1:
        raise DomainError("figure_series: bins must be >= 1")
    _check_count(curve_points, "figure_series: curve_points")
    _check_count(bins, "figure_series: bins")
    grid = np.linspace(lo, hi, curve_points)
    co, cp = hypkernel.drilling_factors(grid)

    names, radius = table.names, table["radius"]
    by_radius = {"name": names, "x": radius}
    overshoot = dict(by_radius, y=table["overshoot_perelman"], overshoot_old=table["overshoot_old"])
    zoom = radius >= 0.6
    ratios = table["dv_over_pi_l"]
    counts, edges = _histogram(ratios, bins)
    overshoot_ylabel = "(V_est - V_drill) / (V_drill - V_fill)"

    figures = [
        FigureSeries(
            "fig_ratio_curve",
            "tube radius R",
            "C_O / C_P",
            curves={"x": grid, "co_over_cp": co / cp},
        ),
        FigureSeries("fig_overshoot", "tube radius R", overshoot_ylabel, points=overshoot),
        FigureSeries(
            "fig_overshoot_zoom",
            "tube radius R",
            overshoot_ylabel,
            points={key: column[zoom] for key, column in overshoot.items()},
        ),
        FigureSeries(
            "fig_b_over_vdrill",
            "tube radius R",
            "B / V_drill",
            points=dict(by_radius, y=table["b_over_vdrill"]),
            curves={"x": grid, "inv_c_p": 1.0 / cp, "inv_c_o": 1.0 / co},
        ),
        FigureSeries(
            "fig_dv_over_pil",
            "geodesic length L",
            "delta_V / (pi L)",
            points={"name": names, "x": table["length"], "y": ratios},
            hist={"bin_left": edges[:-1], "bin_right": edges[1:], "count": counts},
        ),
    ]
    return {fig.name: fig for fig in figures}


def write_figure_csv(fig: FigureSeries, out_dir) -> list[str]:
    """Write one figure series' tables into ``out_dir``; return their paths.
    ``<name>.csv`` holds the points, or the curves of a figure without
    points; ``<name>_curves.csv`` the curves overlaid on points;
    ``<name>_hist.csv`` the histogram.  Floats carry 12 digits."""
    files = {".csv": fig.points, "_curves.csv": fig.curves, "_hist.csv": fig.hist}
    if fig.points is None:
        files[".csv"] = files.pop("_curves.csv")
    base = os.path.join(out_dir, fig.name)
    paths = {base + suffix: columns for suffix, columns in files.items() if columns is not None}
    for path, columns in paths.items():
        _write_csv(path, columns)
    return list(paths)


# ---------------------------------------------------------------------------
# Synthetic data


def _within_sharp_bound(v_fill, v_drill, length, radius) -> np.ndarray:
    """Whether v_drill <= C_P * B: ``synthesize``'s acceptance check, through
    the kernel ``evaluate`` uses, so accepted records never flip."""
    return v_drill <= hypkernel.drilling_estimates(v_fill, length, radius)[4]


def synthesize(n: int, seed: int, noise_sigma: float = 0.017) -> Table:
    """Deterministically generate a table of ``n`` drill records.

    Lengths are uniform over [0.3, 2.5], radii over [0.4, 1.6] and filled
    volumes over [0.94, 6], rejecting geometry where the embedded tube
    could not fit (tube volume exceeding the filled volume).  The volume
    increase is pi*L*(1/2 + eps) with eps a normal clipped at 3 noise_sigma,
    below 1/2; any candidate that rounds to v_drill <= v_fill, which ingest
    rejects, or violates the sharp drilled-volume bound is resampled, so the
    output always verifies cleanly (violations are rare once the tube fits:
    for noise_sigma <= 0.02 virtually every draw passes).
    """
    if n < 1:
        raise DomainError("synthesize: n must be >= 1")
    _check_count(n, "synthesize: n")
    if seed < 0:
        raise DomainError("synthesize: seed must be >= 0")
    if not 0.0 <= noise_sigma < 1.0 / 6.0:
        raise DomainError("synthesize: noise_sigma must be >= 0 and below 1/6")

    rng = np.random.default_rng(seed)
    batches = []
    count = 0
    while count < n:
        m = max(2 * (n - count), 1024)
        length = rng.uniform(0.3, 2.5, m)
        radius = rng.uniform(0.4, 1.6, m)
        v_fill = rng.uniform(0.94, 6.0, m)
        if noise_sigma > 0.0:
            eps = np.clip(
                rng.normal(0.0, noise_sigma, m), -3.0 * noise_sigma, 3.0 * noise_sigma
            )
        else:
            eps = np.zeros(m)
        fits = np.pi * length * np.sinh(radius) ** 2 <= v_fill
        v_drill = v_fill + np.pi * length * (0.5 + eps)
        accepted = fits & (v_drill > v_fill) & _within_sharp_bound(v_fill, v_drill, length, radius)
        keep = np.flatnonzero(accepted)[: n - count]
        batches.append(np.stack([v_fill[keep], v_drill[keep], length[keep], radius[keep]]))
        count += keep.size
    values = np.concatenate(batches, axis=1)
    names = np.array([f"synth{i:05d}" for i in range(n)], _NAME_DTYPE)
    return Table(names, dict(zip(INPUT_COLUMNS, values)))
