"""Text file grammar for states and channels.

Format (one matrix row per line, ``#`` starts a comment, blank lines ignored)::

    dim 2
    kraus 2            # channel files only: number of Kraus operators
    1:0, 0:0           # entries are re:im pairs separated by commas
    0:0, 0.70710678118654752:0

A state file holds one dim x dim matrix; a channel file holds ``kraus`` many,
stacked.  ``save_channel`` streams the rows to the file in chunks of at most
``CHUNK_BYTES`` of text, so its memory is bounded by one chunk.  A pair of
signed zeros takes its text (``0:0``, ``0:-0``, ``-0:0`` or ``-0:-0``) from a
table; every other entry goes through ``%.17g:%.17g``, which prints the same
text for those zeros.  A file is therefore byte for byte what formatting every
entry gives, and a save/load round trip is bit-faithful.  The reader works in
chunks too.  A file as ``save_channel`` writes it is parsed in slices of at
most ``CHUNK_BYTES`` of its text, so a load takes the text, the stack and one
chunk; any other file is split into lines first, so an error keeps its line
and column.  A header ``dim`` above ``channels.DIM_CAP`` is refused before any
row is read.
"""
from __future__ import annotations

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


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, text) of each line that holds more than a comment or whitespace."""
    stripped = (raw.partition("#")[0].rstrip() for raw in text.splitlines())
    return [(lineno, line) for lineno, line in enumerate(stripped, start=1) if line]


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


def _parse_matrices(text: str, expect_kraus: bool) -> np.ndarray:
    """The (kraus, dim, dim) stack of a state or channel file's text.

    Rows are read in chunks of about ``CHUNK_BYTES``; a chunk that
    ``_parse_chunk`` cannot take whole is read row by row, so an error keeps
    its line and column.
    """
    lines = _content_lines(text)
    dim, count, start = _parse_header(lines, expect_kraus)
    rows = lines[start:]
    needed = dim * count
    if len(rows) != needed:
        where = rows[-1][0] if rows else lines[start - 1][0]
        raise ParseError(f"expected {needed} matrix rows, found {len(rows)}", where, 1)
    lengths = [len(line) for _, line in rows]
    if min(lengths) < 4 * dim - 1:
        # Too short for dim re:im pairs, so some row is malformed: report the
        # first one before the stack is allocated, which keeps the allocation
        # within a few times the size of the text.
        for lineno, line in rows:
            _parse_row(lineno, line, dim)
    stack = np.empty((count, dim, dim), dtype=complex)
    flat = stack.reshape(needed, dim)
    per_chunk = max(1, CHUNK_BYTES // (max(lengths) + 1))
    for first in range(0, needed, per_chunk):
        chunk = rows[first:first + per_chunk]
        values = _parse_chunk(("\n".join([line for _, line in chunk]) + "\n").encode(), dim, len(chunk))
        if values is None:
            for r, (lineno, line) in enumerate(chunk, start=first):
                flat[r] = _parse_row(lineno, line, dim)
        else:
            flat[first:first + len(chunk)] = values.view(complex).reshape(-1, dim)
    return stack


#: Bytes that end a line for ``str.splitlines`` besides the newline, and the
#: comment sign: a file holding none of them, all ASCII, is plain.
_NOT_PLAIN = tuple(c.encode() for c in "#\r\v\f\x1c\x1d\x1e")


def _parse_plain(data: bytes, expect_kraus: bool) -> np.ndarray | None:
    """The stack of a plain file, or None for the caller to read it line by line.

    A plain file is what ``save_channel`` writes: ASCII, no comments, only
    newline line ends, and rows that follow the header with no blank line,
    each ended by a newline.  Its rows go to ``_parse_chunk`` in slices of at
    most ``CHUNK_BYTES`` that end at a newline, with no list of lines and no
    copy of the body.  Any other file, and any chunk ``_parse_chunk``
    refuses, gives None.
    """
    if not data.isascii() or any(c in data for c in _NOT_PLAIN):
        return None
    header, pos, lineno = [], 0, 0
    while len(header) < (2 if expect_kraus else 1):
        end = data.find(b"\n", pos)
        if end < 0:
            return None
        lineno += 1
        line = data[pos:end].decode("ascii").rstrip()
        if line:
            header.append((lineno, line))
        pos = end + 1
    try:
        dim, count, _ = _parse_header(header, expect_kraus)
    except ParseError:
        return None
    needed = dim * count
    # A row of dim re:im pairs takes at least 4 dim bytes with its newline, so
    # the stack is allocated only for a body long enough to hold it.
    if len(data) - pos < needed * 4 * dim or data.count(b"\n", pos) != needed:
        return None
    stack = np.empty((count, dim, dim), dtype=complex)
    flat = stack.reshape(needed, dim)
    done = 0
    while done < needed:
        end = data.rfind(b"\n", pos, pos + CHUNK_BYTES)
        if end < 0:
            end = data.find(b"\n", pos)
        rows = data.count(b"\n", pos, end + 1)
        values = _parse_chunk(data[pos:end + 1], dim, rows)
        if values is None:
            return None
        flat[done:done + rows] = values.view(complex).reshape(rows, dim)
        done += rows
        pos = end + 1
    return stack if pos == len(data) else None


def _load_matrices(path: str | Path, expect_kraus: bool) -> np.ndarray:
    """The stack of a state or channel file: read whole if plain, else line by line."""
    stack = _parse_plain(Path(path).read_bytes(), expect_kraus)
    return stack if stack is not None else _parse_matrices(Path(path).read_text(), expect_kraus)


def load_state(path: str | Path) -> DensityMatrix:
    """Parse and validate a state file."""
    return density_from_matrix(_load_matrices(path, expect_kraus=False)[0])


def load_channel(path: str | Path) -> KrausChannel:
    """Parse and validate a channel file."""
    return kraus_channel(_load_matrices(path, expect_kraus=True))


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
