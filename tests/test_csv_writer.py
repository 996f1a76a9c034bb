"""The CSV writer's bytes: the array formatter against '%.12g' element by
element, and whole files against a per-row writer kept here as the
reference, at several chunk sizes."""

import math
import pathlib
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubevol import census

signs = st.sampled_from([1.0, -1.0])


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _halfway(digits: int, exp: int, sign: float) -> float:
    # the double nearest (digits + 1/2) 10^(exp - 11): a 12-digit tie at
    # decimal exponent exp
    return sign * float(f"{digits}5e{exp - 12}")


def _ulps_from(base: float, steps: int, sign: float) -> float:
    for _ in range(abs(steps)):
        base = math.nextafter(base, math.copysign(math.inf, steps))
    return sign * base


floats = st.one_of(
    # every kind of double: subnormals, signed zeros, infinities, nans
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.builds(_halfway, st.integers(10**11, 10**12 - 1), st.integers(-12, 14), signs),
    # the edges of fixed notation and of the formatter's range
    st.builds(_ulps_from, st.sampled_from([1e-5, 1e-4, 1e11, 1e12]), st.integers(-3, 3), signs),
    st.builds(lambda a, sign: sign * a, st.floats(1e-6, 1e13), signs),
    st.floats(),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(floats, min_size=1, max_size=40))
@example([9.99999999999995e-05])  # 0.0001
@example([999999999999.5])  # 1e+12
@example([999999999999.4])
@example([0.1234567890125])  # 0.123456789012
@example([1.0000000000005])  # 1
@example([5e-324])
@example([-0.0])
def test_float_cells_print_as_percent_g(values):
    cells, keep = census._float_cells(np.array(values, dtype=np.float64))
    for value, row, kept in zip(values, cells, keep):
        assert row[kept].tobytes() == ("%.12g," % value).encode("ascii")


def _reference_csv(columns: dict, float_repr: bool) -> bytes:
    """The bytes the writer must produce, formatted one cell at a time."""

    def cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float) and not float_repr:
            return "%.12g" % value
        return str(value)

    rows = zip(*(column.tolist() for column in columns.values()))
    lines = [",".join(columns)] + [",".join(map(cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


names = st.text(st.sampled_from("ab_é\x00,x9"), max_size=6)
kinds = st.lists(st.sampled_from(["name", "float", "bool", "int"]), min_size=1, max_size=9)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 9))
    columns = {}
    for i, kind in enumerate(draw(kinds)):
        if kind == "name":
            texts = draw(st.lists(names, min_size=n, max_size=n))
            column = np.array(texts, np.dtypes.StringDType())
        elif kind == "float":
            column = np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)
        elif kind == "bool":
            column = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        else:
            ints = st.integers(-(2**63), 2**63 - 1)
            column = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
        columns[f"{kind}{i}"] = column
    return columns


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@settings(max_examples=100, deadline=None)
@given(columns=tables(), float_repr=st.booleans())
def test_file_bytes_match_row_writer(chunk, columns, float_repr):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(census, "_CSV_CHUNK", chunk):
        path = pathlib.Path(tmp) / "out.csv"
        census._write_csv(path, columns, float_repr=float_repr)
        assert path.read_bytes() == _reference_csv(columns, float_repr)
