"""Text file grammar for states and channels.

Format (one matrix row per line, ``#`` starts a comment, blank lines ignored)::

    dim 2
    kraus 2            # channel files only: number of Kraus operators
    1:0, 0:0           # entries are re:im pairs separated by commas
    0:0, 0.70710678118654752:0

A state file holds one dim x dim matrix; a channel file holds ``kraus`` many,
stacked.  The writer and the reader work in chunks of at most ``CHUNK_BYTES`` of
text.  The writer prints each entry as ``%.17g:%.17g`` would, so a save/load
round trip is bit-faithful.  One reader takes every file: a load holds at most
the text, the stack and one chunk (a file it must re-encode first holds the
text, its re-encoded copy and one chunk while it does), and an error keeps its
line and column.  A header ``dim`` above ``channels.DIM_CAP`` is refused
before any row is read.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from . import channels
from .channels import KrausChannel, kraus_channel
from .errors import CapacityError, UsageError
from .states import DensityMatrix, density_from_matrix


class ParseError(UsageError):
    """Malformed state/channel file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _content_lines(text: str, start: int = 1) -> list[tuple[int, str]]:
    """(line number, counted from ``start``, text) of each line that holds more than a comment or whitespace."""
    stripped = (raw.partition("#")[0].rstrip() for raw in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(stripped, start=start) if line]


def _parse_header(lines: list[tuple[int, str]], expect_kraus: bool) -> tuple[int, int, int]:
    """Returns (dim, kraus_count, first_row_index)."""
    if not lines:
        raise ParseError("empty file", 1, 1)
    lineno, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError(f"expected 'dim <n>', got {line!r}", lineno, 1)
    try:
        dim = int(parts[1])
    except ValueError:
        raise ParseError(f"dimension must be an integer, got {parts[1]!r}", lineno, len("dim ") + 1)
    if dim < 1:
        raise ParseError(f"dimension must be >= 1, got {dim}", lineno, len("dim ") + 1)
    if dim > channels.DIM_CAP:
        raise CapacityError(f"line {lineno}: dimension {dim} exceeds cap {channels.DIM_CAP}")
    if not expect_kraus:
        return dim, 1, 1
    if len(lines) < 2:
        raise ParseError("expected 'kraus <m>' after the dim line", lineno, 1)
    lineno, line = lines[1]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "kraus":
        raise ParseError(f"expected 'kraus <m>', got {line!r}", lineno, 1)
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError(f"kraus count must be an integer, got {parts[1]!r}", lineno, len("kraus ") + 1)
    if count < 1:
        raise ParseError(f"kraus count must be >= 1, got {count}", lineno, len("kraus ") + 1)
    return dim, count, 2


def _parse_row(lineno: int, line: str, dim: int) -> np.ndarray:
    """One row, entry by entry; a malformed entry is reported with its column."""
    entries = line.split(",")
    if len(entries) != dim:
        raise ParseError(f"expected {dim} entries, got {len(entries)}", lineno, 1)
    row = np.empty(dim, dtype=complex)
    column = 1
    for i, token in enumerate(entries):
        pair = token.strip().split(":")
        if len(pair) != 2:
            raise ParseError(f"entry {token.strip()!r} is not a re:im pair", lineno, column)
        try:
            row[i] = complex(float(pair[0]), float(pair[1]))
        except ValueError:
            raise ParseError(f"entry {token.strip()!r} has a non-numeric part", lineno, column)
        column += len(token) + 1
    return row


#: Rows are read and written in chunks of about this many bytes of text, so
#: the per-token arrays of one chunk stay small however large the file is.
CHUNK_BYTES = 64 * 1024

_COLON, _COMMA, _NEWLINE, _SPACE, _MINUS, _ZERO = (ord(c) for c in ":,\n -0")


def _parse_chunk(text: bytes, dim: int, rows: int) -> np.ndarray | None:
    """Floats re, im, re, im, ... of ``rows`` rows of text, each ended by a newline.

    None when the per-entry path must decide: a row whose separators are not
    ``:`` and ``,`` alternating for ``dim`` entries, a token that ``float``
    refuses, or non-ASCII text.  A row matches that pattern exactly when
    ``_parse_row`` splits it into ``dim`` re:im pairs, and ``float`` skips
    the ASCII whitespace that ``_parse_row`` strips, so both give the same
    bits; ``float`` refuses the other characters ``str.strip`` takes.
    The tokens the writer emits for a zero, ``0`` or ``-0`` with at most one
    space before, are read as +0.0 or -0.0 without a conversion; every other
    token goes through ``float``.
    """
    if not text.isascii():
        return None
    chars = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero((chars == _COLON) | (chars == _COMMA) | (chars == _NEWLINE))
    pattern = np.array([_COLON, _COMMA] * dim, dtype=np.uint8)
    pattern[-1] = _NEWLINE
    if len(ends) != 2 * dim * rows or not np.array_equal(chars[ends], np.tile(pattern, rows)):
        return None
    # Each token is the ``lengths`` bytes before its end.  No more than three
    # arrays of the chunk's token count are alive at once, which bounds a
    # chunk's memory.  An empty token reads its neighbours here; the length
    # tests below discard it.
    lengths = np.diff(ends, prepend=-1)
    lengths -= 1
    head = chars[ends - lengths]
    minus = (lengths == 2) & (head == _MINUS)
    spaced = np.flatnonzero((lengths == 3) & (head == _SPACE))
    minus[spaced] = chars[ends[spaced] - 2] == _MINUS
    zero = (chars[ends - 1] == _ZERO) & ((lengths == 1) | ((lengths == 2) & (head == _SPACE)) | minus)
    values = np.where(minus, -0.0, 0.0)
    convert = np.flatnonzero(~zero)
    bounds = zip((ends[convert] - lengths[convert]).tolist(), ends[convert].tolist())
    try:
        values[convert] = [float(text[a:b]) for a, b in bounds]
    except ValueError:
        return None
    return values


def _slices(data: bytes, pos: int, lineno: int):
    """(line number, text) of each run of lines from ``pos`` (line ``lineno``): ``CHUNK_BYTES`` at most, or one."""
    while pos < len(data):
        end = data.rfind(b"\n", pos, pos + CHUNK_BYTES) + 1 or data.index(b"\n", pos) + 1
        yield lineno, data[pos:end]
        lineno += data.count(b"\n", pos, end)
        pos = end


def _count_error(data: bytes, pos: int, lineno: int, needed: int) -> ParseError | None:
    """The error for a body, from ``pos`` after line ``lineno``, without ``needed`` content rows, or None.

    It names the last content line, or line ``lineno`` when the body has none.
    """
    found, where = 0, lineno
    for first, chunk in _slices(data, pos, lineno + 1):
        lines = _content_lines(chunk.decode(), first)
        found += len(lines)
        where = lines[-1][0] if lines else where
    return None if found == needed else ParseError(f"expected {needed} matrix rows, found {found}", where, 1)


def _reencoded(data: bytes) -> bytearray:
    """``data`` with one newline ending each ``str.splitlines`` line, slice by slice into one buffer.

    A slice ends after the first line end past ``CHUNK_BYTES``, so no line end
    or UTF-8 sequence spans two; the text grows by at most a final newline.
    """
    # Every line end that ``str.splitlines`` takes, in UTF-8.
    line_end = re.compile(rb"\r\n|[\n\r\v\f\x1c-\x1e]|\xc2\x85|\xe2\x80[\xa8\xa9]")
    text, pos, size = bytearray(len(data) + 1), 0, 0
    while pos < len(data):
        found = line_end.search(data, pos + CHUNK_BYTES)
        end = found.end() if found else len(data)
        try:
            lines = ("\n".join(data[pos:end].decode().splitlines()) + "\n").encode()
        except UnicodeDecodeError as err:
            before = (data[:pos + err.start].decode() + "?").splitlines()
            raise ParseError(f"byte {data[pos + err.start]:#04x} is not UTF-8", len(before), len(before[-1])) from None
        text[size:size + len(lines)] = lines
        pos, size = end, size + len(lines)
    del text[size:]
    return text


def _parse_matrices(data: bytes, expect_kraus: bool) -> np.ndarray:
    """The (kraus, dim, dim) stack of a state or channel file's bytes.

    A file that is not ASCII, has a ``str.splitlines`` line end other than the
    newline or lacks a final newline is first re-encoded with one newline per
    line (``_reencoded``), so each line keeps its number.  Each slice of the
    body goes to ``_parse_chunk``; a refused slice is tried once more as its
    joined content lines, then row by row with ``_parse_row``, so an error
    keeps its line and column.  A wrong number of rows is reported before any
    malformed row.
    """
    if not data.isascii() or not data.endswith(b"\n") or any(c in data for c in b"\r\v\f\x1c\x1d\x1e"):
        data = _reencoded(data)
    header, pos, lineno = [], 0, 0
    while len(header) < 1 + expect_kraus and pos < len(data):
        end = data.index(b"\n", pos) + 1
        lineno += 1
        header += _content_lines(data[pos:end].decode(), lineno)
        pos = end
    dim, count, _ = _parse_header(header, expect_kraus)
    needed = dim * count
    # A row of dim re:im pairs takes at least 4 dim bytes with its newline, so a
    # shorter body gets no stack: it has too few rows or a bad one, and raises.
    flat = np.empty((needed, dim), dtype=complex) if len(data) - pos >= needed * 4 * dim else None
    done = 0
    for first, chunk in _slices(data, pos, lineno + 1):
        rows = chunk.count(b"\n")
        values = _parse_chunk(chunk, dim, rows)
        if values is None:
            lines = _content_lines(chunk.decode(), first)
            rows = len(lines)
            values = _parse_chunk("".join(line + "\n" for _, line in lines).encode(), dim, rows)
            if values is None:
                try:
                    values = np.array([_parse_row(n, line, dim) for n, line in lines])
                except ParseError as err:
                    raise _count_error(data, pos, lineno, needed) or err
        if flat is not None and done + rows <= needed:
            flat[done:done + rows] = values.view(complex).reshape(rows, dim)
        done += rows
    if done != needed:
        raise _count_error(data, pos, lineno, needed)
    return flat.reshape(count, dim, dim)


def _read(path: str | Path) -> bytes:
    """The bytes of the file at ``path``; one that cannot be read is a usage error."""
    try:
        return Path(path).read_bytes()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror or err}") from None


def load_state(path: str | Path) -> DensityMatrix:
    """Parse and validate a state file."""
    return density_from_matrix(_parse_matrices(_read(path), expect_kraus=False)[0])


def load_channel(path: str | Path) -> KrausChannel:
    """Parse and validate a channel file."""
    return kraus_channel(_parse_matrices(_read(path), expect_kraus=True))


#: The text of a pair of signed zeros, indexed by 2 * signbit(re) + signbit(im):
#: what ``%.17g:%.17g`` prints for them.
_ZERO_PAIRS = np.array(["0:0", "0:-0", "-0:0", "-0:-0"], dtype=object)


def _write_rows(file, stack: np.ndarray) -> None:
    """Write each row of ``stack`` (..., dim) to ``file``, ended by a newline.

    A pair of signed zeros takes its text from ``_ZERO_PAIRS``; every other
    entry goes through ``%.17g:%.17g``.  Rows are formatted and written in
    chunks of at most ``CHUNK_BYTES`` of text.
    """
    dim = stack.shape[-1]
    rows = stack.reshape(-1, dim)
    # An entry and its ", " take at most 51 bytes: 24 per part, as in
    # -2.2250738585072014e-308.
    per_chunk = max(1, CHUNK_BYTES // (51 * dim))
    for first in range(0, len(rows), per_chunk):
        floats = np.ascontiguousarray(rows[first:first + per_chunk], dtype=complex).view(float)
        re_, im = floats[:, 0::2], floats[:, 1::2]
        texts = _ZERO_PAIRS[2 * np.signbit(re_) + np.signbit(im)]
        nonzero = np.flatnonzero((re_ != 0) | (im != 0))
        texts.flat[nonzero] = ["%.17g:%.17g" % (a, b) for a, b in floats.reshape(-1, 2)[nonzero].tolist()]
        file.write("\n".join(map(", ".join, texts.tolist())) + "\n")


def save_channel(path: str | Path, c: KrausChannel) -> None:
    """Write a channel file, streaming its rows chunk by chunk."""
    with open(path, "w") as file:
        file.write(f"dim {c.dim}\nkraus {c.ops.shape[0]}\n")
        _write_rows(file, c.ops)
