"""Shared exception types and the input grammar every reader follows.

Exit-code mapping used by the CLI: parse/ingest/I-O problems are input
errors (exit 1); DomainError and its subclasses, and a MemoryError, are
domain errors (exit 2); verification failures are reported by return value
(exit 3).
"""

import itertools


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NonLoxodromicError(DomainError):
    """An operation requiring a loxodromic element got something else."""


class ParseError(ValueError):
    """A structured input file could not be parsed; message carries the line."""


class IngestError(ValueError):
    """A dataset failed validation; carries per-row diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# characters per block of read_blocks, about 64 KB of ASCII text
_BLOCK_CHARS = 1 << 16


def read_blocks(path):
    """Yield the raw lines of a UTF-8 file, with or without a byte-order
    mark, in lists of about ``_BLOCK_CHARS`` characters, split where
    iterating over the file splits them; bytes that are not UTF-8 come
    through as lone surrogates, which ``str.encode`` rejects."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        while block := handle.readlines(_BLOCK_CHARS):
            yield block


def numbered_lines(path, raw_lines, start: int = 1):
    """Yield (line number, stripped line), numbering from ``start``, for each
    raw line of ``path`` that is neither blank nor a '#' comment; bytes that
    are not UTF-8 are a ParseError naming their line."""
    for lineno, raw in enumerate(raw_lines, start):
        line = raw.strip()
        # undecodable bytes are lone surrogates, which only non-ASCII lines hold
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{path}: line {lineno}: not UTF-8 text") from None
        if line and not line.startswith("#"):
            yield lineno, line


def read_lines(path):
    """``numbered_lines`` over every line of ``read_blocks(path)``; the file
    is closed before an error leaves, not when the traceback is freed."""
    blocks = read_blocks(path)
    try:
        yield from numbered_lines(path, itertools.chain.from_iterable(blocks))
    finally:
        blocks.close()


def parse_number(text: str, kind=float):
    """``kind(text)``, ``kind`` float, int or str (a row's fields, each then
    read by float), for every number read from input.  Unlike float() and
    int() alone it rejects '_' ('2_0' is not 20) and non-ASCII digits;
    'inf' and 'nan' pass, for the callers' range checks."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)
