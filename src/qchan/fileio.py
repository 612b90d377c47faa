"""Text file grammar for states and channels.

Format (one matrix row per line, ``#`` starts a comment, blank lines ignored)::

    dim 2
    kraus 2            # channel files only: number of Kraus operators
    1:0, 0:0           # entries are re:im pairs separated by commas
    0:0, 0.70710678118654752:0

A state file holds one dim x dim matrix; a channel file holds ``kraus`` many,
stacked.  Floats are written with 17 significant digits, so save/load round
trips are bit-faithful.
"""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .channels import KrausChannel, kraus_channel
from .errors import UsageError
from .states import DensityMatrix, density_from_matrix


class ParseError(UsageError):
    """Malformed state/channel file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            out.append((lineno, stripped))
    return out


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


# A row of comma-separated entries with exactly one colon each.
_ROW_SHAPE = re.compile(r"[^,:]*:[^,:]*(?:,[^,:]*:[^,:]*)*")


def _parse_row(lineno: int, line: str, dim: int) -> np.ndarray:
    if line.count(",") == dim - 1 and _ROW_SHAPE.fullmatch(line):
        # float() ignores the whitespace that the per-entry path strips, so
        # this yields the same numbers; any bad entry falls through to the
        # per-entry path, which reports where it is.
        try:
            parts = list(map(float, line.replace(",", ":").split(":")))
        except ValueError:
            pass
        else:
            return np.array(parts).view(complex)
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


def _parse_matrices(text: str, expect_kraus: bool) -> tuple[int, list[np.ndarray]]:
    lines = _content_lines(text)
    dim, count, start = _parse_header(lines, expect_kraus)
    rows = lines[start:]
    needed = dim * count
    if len(rows) != needed:
        where = rows[-1][0] if rows else lines[start - 1][0]
        raise ParseError(f"expected {needed} matrix rows, found {len(rows)}", where, 1)
    matrices = []
    for m in range(count):
        mat = np.empty((dim, dim), dtype=complex)
        for r in range(dim):
            lineno, line = rows[m * dim + r]
            mat[r] = _parse_row(lineno, line, dim)
        matrices.append(mat)
    return dim, matrices


def load_state(path: str | Path) -> DensityMatrix:
    """Parse and validate a state file."""
    _, mats = _parse_matrices(Path(path).read_text(), expect_kraus=False)
    return density_from_matrix(mats[0])


def load_channel(path: str | Path) -> KrausChannel:
    """Parse and validate a channel file."""
    _, mats = _parse_matrices(Path(path).read_text(), expect_kraus=True)
    return kraus_channel(np.array(mats))


def _format_matrix(m: np.ndarray) -> str:
    template = ", ".join(["%.17g:%.17g"] * m.shape[1])
    # Each row as Python floats re, im, re, im, ...: one template fill per row.
    pairs = np.ascontiguousarray(m, dtype=complex).view(float).tolist()
    return "\n".join(template % tuple(row) for row in pairs)


def save_state(path: str | Path, rho: DensityMatrix) -> None:
    Path(path).write_text(f"dim {rho.dim}\n{_format_matrix(rho.matrix)}\n")


def save_channel(path: str | Path, c: KrausChannel) -> None:
    blocks = "\n".join(_format_matrix(k) for k in c.ops)
    Path(path).write_text(f"dim {c.dim}\nkraus {c.ops.shape[0]}\n{blocks}\n")
