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
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IngestError, parse_number, read_blocks, read_lines
from . import hypkernel
from . import surgery

__all__ = [
    "DatasetStats",
    "FigureSeries",
    "INPUT_COLUMNS",
    "REPORT_COLUMNS",
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


@dataclass(frozen=True, eq=False)
class Table:
    """A census held as columns: ``names`` (an object array of str) and
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
VIOLATION_KEYS = tuple(_FLAG_FOR_KEY)


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


# rows converted per write, bounding the memory held by Python values
_CSV_CHUNK = 8192


class _Flags:
    """Adjacent bool columns read as one column of their true/false cells
    joined by commas, each looked up by the flags' bits."""

    dtype = np.dtype(object)

    def __init__(self, columns: list[np.ndarray]):
        self.columns = columns
        bits = itertools.product(("false", "true"), repeat=len(columns))
        self.cells = np.array([",".join(b) for b in bits], dtype=object)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, part: slice) -> np.ndarray:
        return self.cells[functools.reduce(lambda code, c: 2 * code + c[part], self.columns, 0)]


def _write_csv(path, columns: dict[str, np.ndarray], float_format: str = "%.12g") -> None:
    """Write equal-length columns under a header of their keys: floats in
    the %-format ``float_format``, booleans as true/false, the rest by str.
    Each run of adjacent bool columns is converted as one ``_Flags`` cell,
    so the five verdicts of a report row take one conversion, not five."""
    cols = []
    for is_bool, run in itertools.groupby(columns.values(), lambda c: c.dtype == bool):
        cols += [_Flags(list(run))] if is_bool else run
    row_format = ",".join(float_format if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for start in range(0, len(cols[0]), _CSV_CHUNK):
            cells = [col[start : start + _CSV_CHUNK].tolist() for col in cols]
            handle.writelines(row_format % row for row in zip(*cells))


# ---------------------------------------------------------------------------
# Ingest


def _fields(text: str) -> list[float]:
    return list(map(float, text.split(",")))


def _row_diagnostics(path) -> list[str]:
    """Row-numbered diagnostics of a dataset CSV, one row at a time: the
    header check, then every row that fails the grammar or the checks
    ``ingest`` documents.  An empty list means the file is valid."""
    names: set[str] = set()
    diagnostics: list[str] = []
    header_seen = False
    for lineno, line in read_lines(path):
        if not header_seen:
            if line != _CSV_HEADER:
                return [f"line {lineno}: expected header {_CSV_HEADER!r}, got {line!r}"]
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            diagnostics.append(f"line {lineno}: expected 5 fields, got {len(parts)}")
            continue
        name = parts[0].strip()
        try:
            row = parse_number(line[len(parts[0]) + 1 :], _fields)
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
        names.add(name)
    return diagnostics if header_seen else ["file has no header line"]


def _block_fields(block: list[str], header_seen: bool):
    """The names and the number texts, row by row, of one block of raw
    lines, and whether the header has been seen; None if a line is not
    UTF-8, a row has other than 5 fields or a number text is not plain
    ASCII without '_'."""
    text = "".join(block)
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return None
    rows = [line for line in map(str.strip, block) if line and line[0] != "#"]
    if rows and not header_seen:
        if rows[0] != _CSV_HEADER:
            return None
        del rows[0]
        header_seen = True
    if any(count != 4 for count in map(str.count, rows, itertools.repeat(","))):
        return None
    fields = ",".join(rows).split(",") if rows else []
    names = list(map(str.strip, fields[::5]))
    del fields[::5]
    numbers = ",".join(fields)
    if not numbers.isascii() or "_" in numbers:
        return None
    return names, fields, header_seen


def _read_blocks(path) -> Table | None:
    """The table of a dataset CSV read block by block, or None if any row
    breaks the grammar or fails a check.  Each number is read by float()
    from text ``_block_fields`` has checked, so the grammar is
    ``parse_number``'s by construction."""
    names: list[str] = []
    # growing arrays, not one numpy array per block: the blocks' arrays,
    # freed once joined, left about 20 MB of heap resident at 10^6 records
    columns = [array("d") for _ in INPUT_COLUMNS]
    header_seen = False
    for block in read_blocks(path):
        parsed = _block_fields(block, header_seen)
        if parsed is None:
            return None
        block_names, fields, header_seen = parsed
        names += block_names
        try:
            for i, column in enumerate(columns):
                column.extend(map(float, fields[i::4]))
        except ValueError:
            return None
    # duplicates by a dict, not a set: the set's growing table raised the
    # peak RSS of a later figures run by about 1 MB at 25,709 records
    if not (header_seen and all(names) and len(dict.fromkeys(names)) == len(names)):
        return None
    v_fill, v_drill, length, radius = values = [np.frombuffer(c, np.float64) for c in columns]
    if not (
        all(np.isfinite(column).all() for column in values)
        and (v_fill > 0.0).all()
        and (v_drill > v_fill).all()
        and (length > 0.0).all()
        and (radius > 0.0).all()
    ):
        return None
    return Table(np.array(names, dtype=object), dict(zip(INPUT_COLUMNS, values)))


def ingest(path) -> Table:
    """Read drill records from a CSV file into a table of ``INPUT_COLUMNS``.

    Format: lines as ``errors.read_lines`` reads them, the header
    ``name,v_fill,v_drill,length,radius``, then one record per line, its
    numbers as ``errors.parse_number`` reads them.  The file is read in
    blocks of about 64K characters (``errors.read_blocks``), each parsed in
    bulk, and the checks are made once over the whole columns.  If anything
    fails, a second, per-row pass re-reads the file and raises IngestError
    carrying row-numbered diagnostics (non-numeric fields, a wrong field
    count, duplicate or empty names, nonpositive length/radius, or v_drill
    <= v_fill, which breaks the strict drilling inequality), or ParseError
    for bytes that are not UTF-8.  Both passes accept exactly the same files.
    """
    table = _read_blocks(path)
    if table is None:
        raise IngestError(_row_diagnostics(path))
    return table


def write_dataset(table: Table, path) -> None:
    """Write the ``INPUT_COLUMNS`` of a table in the ingest CSV format, floats
    by repr, so a written file re-ingests to bit-identical values."""
    columns = {"name": table.names, **{key: table[key] for key in INPUT_COLUMNS}}
    _write_csv(path, columns, float_format="%r")


# ---------------------------------------------------------------------------
# Evaluation


@np.errstate(**hypkernel.STRICT_FLOATS)
def evaluate(table: Table, tol: float = 0.0) -> Table:
    """Evaluate every bound on each record of a table of ``INPUT_COLUMNS``,
    preserving order; the result carries the input columns as well.

    ``tol`` is a relative slack applied to the inequality verdicts, for data
    whose volumes were computed at limited precision; the default demands
    the bounds exactly.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError("evaluate: tol must be >= 0")
    v_fill, v_drill, length, radius = (table[key] for key in INPUT_COLUMNS)
    b, c_o, c_p, v_est_old, v_est_perelman = hypkernel.drilling_estimates(v_fill, length, radius)
    delta_v = v_drill - v_fill
    pi_l = math.pi * length
    slack = 1.0 + tol
    return Table(
        table.names,
        {
            **table.columns,
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
            "perelman_ok": v_drill <= v_est_perelman * slack,
            "old_ok": v_drill <= v_est_old * slack,
            "bridgeman_ok": delta_v <= pi_l * slack,
            "b_le_vdrill": b <= v_drill * slack,
            "hk_regime": surgery.hodgson_kerckhoff_regime(length, radius),
        },
    )


@np.errstate(**hypkernel.STRICT_FLOATS)
def statistics(table: Table) -> DatasetStats:
    """Sample mean and standard deviation (n-1 denominator) of the ratio
    delta_v / (pi L), violation tallies per inequality, and the (L, R)
    ranges seen, over an evaluated table."""
    if not len(table):
        raise ValueError("statistics: empty table")
    ratios = table["dv_over_pi_l"]
    return DatasetStats(
        count=len(table),
        mean_ratio=float(np.mean(ratios)),
        std_ratio=float(np.std(ratios, ddof=1)) if len(table) > 1 else 0.0,
        violations={
            key: int(np.count_nonzero(~table[_FLAG_FOR_KEY[key]])) for key in VIOLATION_KEYS
        },
        length_range=(float(table["length"].min()), float(table["length"].max())),
        radius_range=(float(table["radius"].min()), float(table["radius"].max())),
    )


def write_report_csv(table: Table, path) -> None:
    """Write one row per record of an evaluated table with the standard report
    columns; floats at 12 significant digits, booleans as true/false."""
    _write_csv(path, {col: table.names if col == "name" else table[col] for col in REPORT_COLUMNS})


# ---------------------------------------------------------------------------
# Figure series


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
    increase is pi*L*(1/2 + eps) with eps a 3-sigma-clipped normal; any
    candidate violating the sharp drilled-volume bound is resampled, so the
    output always verifies cleanly (violations are rare once the tube fits:
    for noise_sigma <= 0.02 virtually every draw passes).
    """
    if n < 1:
        raise DomainError("synthesize: n must be >= 1")
    if seed < 0:
        raise DomainError("synthesize: seed must be >= 0")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise DomainError("synthesize: noise_sigma must be >= 0")

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
        accepted = fits & _within_sharp_bound(v_fill, v_drill, length, radius)
        keep = np.flatnonzero(accepted)[: n - count]
        batches.append(np.stack([v_fill[keep], v_drill[keep], length[keep], radius[keep]]))
        count += keep.size
    values = np.concatenate(batches, axis=1)
    names = np.array([f"synth{i:05d}" for i in range(n)], dtype=object)
    return Table(names, dict(zip(INPUT_COLUMNS, values)))
