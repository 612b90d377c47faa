import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qchan import channels as channels_mod
from qchan import fileio
from qchan.channels import (
    choi_distance,
    depolarizing,
    kraus_channel,
    phase_damping,
    random_channel_from,
    structural_checks,
)
from qchan.errors import CapacityError, NotPositiveError, ValidationError
from qchan.fileio import ParseError, load_channel, load_state, save_channel
from qchan.rng import substream
from qchan.states import density_from_matrix

from helpers import random_channel, random_density, save_state


def test_state_roundtrip_exact(tmp_path):
    rho = random_density(3, 2, seed=1)
    path = tmp_path / "state.txt"
    save_state(path, rho)
    again = load_state(path)
    assert np.array_equal(again.matrix, rho.matrix)


@pytest.mark.parametrize("channel", [
    depolarizing(2, 0.5), phase_damping(3, (0.4, 0.9)),
    depolarizing(2, 4.0 / 3.0).tensor(random_channel(3, 2, seed=4)),
])
def test_channel_roundtrip_choi_zero(tmp_path, channel):
    path = tmp_path / "chan.txt"
    save_channel(path, channel)
    again = load_channel(path)
    assert choi_distance(again, channel) == 0.0


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text(
        "# a comment line\n"
        "dim 2   # trailing comment\n"
        "\n"
        "0.5:0, 0:0\n"
        "0:0, 0.5:0\n"
    )
    rho = load_state(path)
    assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_identity_channel_file(tmp_path):
    path = tmp_path / "chan.txt"
    path.write_text("dim 2\nkraus 1\n1:0, 0:0\n0:0, 1:0\n")
    c = load_channel(path)
    assert choi_distance(c, depolarizing(2, 0.0)) < 1e-12



@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_channel_file_with_a_nonfinite_entry_is_refused(tmp_path, token):
    path = tmp_path / "chan.txt"
    path.write_text(f"dim 2\nkraus 2\n1:0, 0:0\n0:0, 1:0\n0:0, 0:0\n0:{token}, 0:0\n")
    with pytest.raises(ValidationError, match="Kraus operators must have finite entries"):
        load_channel(path)


def test_channel_file_with_huge_finite_entries_fails_trace_preservation(tmp_path):
    path = tmp_path / "chan.txt"
    path.write_text("dim 2\nkraus 1\n1e200:0, 0:0\n0:0, 1e200:0\n")
    with pytest.raises(ValidationError, match="trace preservation violated"):
        load_channel(path)

def test_parse_error_bad_header(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("size 2\n1:0, 0:0\n0:0, 1:0\n")
    with pytest.raises(ParseError) as err:
        load_state(path)
    assert err.value.line == 1


def test_parse_error_bad_entry_count(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("dim 2\n1:0\n0:0, 1:0\n")
    with pytest.raises(ParseError) as err:
        load_state(path)
    assert err.value.line == 2


def test_parse_error_non_numeric(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("dim 2\n0.5:0, x:0\n0:0, 0.5:0\n")
    with pytest.raises(ParseError) as err:
        load_state(path)
    assert err.value.line == 2 and err.value.column > 1


def test_parse_error_missing_kraus(tmp_path):
    path = tmp_path / "chan.txt"
    path.write_text("dim 2\n1:0, 0:0\n0:0, 1:0\n")
    with pytest.raises(ParseError):
        load_channel(path)


def test_parse_error_row_count(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("dim 3\n1:0, 0:0, 0:0\n")
    with pytest.raises(ParseError):
        load_state(path)


def test_channel_file_violating_trace_preservation(tmp_path):
    path = tmp_path / "chan.txt"
    path.write_text("dim 2\nkraus 1\n1:0, 0:0\n0:0, 0.5:0\n")
    with pytest.raises(ValidationError, match="[Tt]race preservation"):
        load_channel(path)


def test_state_file_not_positive(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("dim 2\n1.5:0, 0:0\n0:0, -0.5:0\n")
    with pytest.raises(NotPositiveError):
        load_state(path)


def test_random_channel_roundtrip(tmp_path):
    c = random_channel(3, 3, seed=9)
    path = tmp_path / "chan.txt"
    save_channel(path, c)
    assert choi_distance(load_channel(path), c) == 0.0


# Rows are written in chunks (fileio._write_rows) and parsed by a whole-row
# fast path; these pin both to the per-entry forms they replaced.


def _format_reference(m):
    return "\n".join(", ".join(f"{v.real:.17g}:{v.imag:.17g}" for v in row) for row in m)


def _parse_reference(line):
    pairs = (token.strip().split(":") for token in line.split(","))
    return np.array([complex(float(re_), float(im)) for re_, im in pairs])


def _writes(stack):
    """The text of each write that fileio._write_rows makes for ``stack``."""
    writes = []
    fileio._write_rows(SimpleNamespace(write=writes.append), stack)
    return writes


def _awkward_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, (dim, dim))
    m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
    m.flat[0] = complex(-0.0, 0.0)
    m.flat[-1] = complex(5e-324, -np.inf)
    return m


# Each signed-zero pair, a zero beside a nonzero part, subnormals and non-finite parts.
_SPECIAL_ENTRIES = [complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                    complex(0.0, 2.5), complex(-3e-7, -0.0), complex(-0.0, 5e-324),
                    complex(5e-324, -5e-324), complex(np.inf, -np.inf), complex(np.nan, 1.0)]


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_format_matches_per_entry_form(monkeypatch, dim):
    m = _awkward_matrix(dim, dim)
    special = np.array(_SPECIAL_ENTRIES * dim).reshape(-1, dim)
    for rows in (m, m.T, m.real, special):
        assert "".join(_writes(rows)) == _format_reference(rows) + "\n"
    stack = np.array([m, special[:dim], m.T, special[-dim:]])
    expected = _format_reference(stack.reshape(-1, dim)) + "\n"
    for chunk_bytes in (fileio.CHUNK_BYTES, 2000, 1):
        monkeypatch.setattr(fileio, "CHUNK_BYTES", chunk_bytes)
        writes = _writes(stack)
        assert "".join(writes) == expected
        if dim > 1 and chunk_bytes < len(expected):
            # Some chunk ends inside a Kraus operator.
            assert any(np.cumsum([w.count("\n") for w in writes]) % dim)


@pytest.fixture(scope="module")
def l5_square():
    """The l = 5 damped-depolarizing channel's tensor square: 625 operators of size 25."""
    single = phase_damping(5, (0.3,) * 4).compose(depolarizing(5, 0.2)).reduced()
    return single.tensor(single).reduced()


def test_saved_square_matches_per_entry_form(tmp_path, l5_square):
    path = tmp_path / "square.txt"
    save_channel(path, l5_square)
    expected = "dim 25\nkraus 625\n" + _format_reference(l5_square.ops.reshape(-1, 25)) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


def _peak_bytes(run) -> int:
    """Peak of the Python and numpy allocations ``run()`` makes, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_channel_memory_is_bounded_by_a_chunk(tmp_path, l5_square):
    assert _peak_bytes(lambda: save_channel(tmp_path / "square.txt", l5_square)) < 1_000_000


def test_checks_and_choi_distance_of_the_square_make_no_dense_copy(l5_square):
    # The stack is 6.25 MB and its dense Choi matrix as large again.
    copy = kraus_channel(np.array(l5_square.ops))
    assert _peak_bytes(lambda: structural_checks(l5_square)) < 3_000_000
    assert _peak_bytes(lambda: choi_distance(l5_square, copy)) < 3_000_000
    assert _peak_bytes(lambda: kraus_channel(copy.ops)) < 1_000_000


def test_load_channel_memory_is_the_text_the_stack_and_a_chunk(tmp_path, l5_square):
    path = tmp_path / "square.txt"
    save_channel(path, l5_square)
    text = path.read_bytes()
    # The saved file, a commented copy and a CRLF copy, which is re-encoded.
    for data in (text, b"# the l = 5 square\n" + text, text.replace(b"\n", b"\r\n")):
        path.write_bytes(data)
        bound = len(data) + l5_square.ops.nbytes + 1_000_000
        assert _peak_bytes(lambda: load_channel(path)) < bound
    # A CRLF copy of a file whose text outweighs its stack (7.2 MB against
    # 2.6 MB) holds the text and its re-encoded copy at once, and no more.
    dense = random_channel_from(substream(1), 40, 100)
    save_channel(path, dense)
    text = path.read_bytes()
    path.write_bytes(text.replace(b"\n", b"\r\n"))
    bound = path.stat().st_size + len(text) + dense.ops.nbytes + 1_000_000
    assert _peak_bytes(lambda: load_channel(path)) < bound


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_parse_row_matches_per_entry_form(dim):
    for line in _format_reference(_awkward_matrix(dim, 10 + dim)).split("\n"):
        spaced = line.replace(":", " : ").replace(",", " ,\t")
        for text in (line, spaced):
            got = fileio._parse_row(1, text, dim)
            assert got.dtype == complex and got.shape == (dim,)
            assert np.array_equal(got.view(float), _parse_reference(text).view(float))


@pytest.mark.parametrize("line,column,message", [
    ("1:2, 3", 5, "not a re:im pair"),
    ("1:2:3, 4:0", 1, "not a re:im pair"),
    ("1:2, 3:4:5", 5, "not a re:im pair"),
    ("1:2, x:3", 5, "non-numeric"),
    (" : , 1:1", 1, "non-numeric"),
    ("1:2, 3:4, 5:6", 1, "expected 2 entries"),
])
def test_parse_row_errors_keep_their_column(line, column, message):
    with pytest.raises(ParseError, match=message) as err:
        fileio._parse_row(4, line, 2)
    assert (err.value.line, err.value.column) == (4, column)


# The body is read in chunks of rows (fileio._parse_chunk), falling back to
# the per-entry path (fileio._parse_row) for a chunk it cannot take whole.
# These pin the chunked pass to the per-entry path alone: the same bits, or
# the same error at the same line and column.


def _parse_per_entry(text, expect_kraus):
    lines = fileio._content_lines(text)
    dim, count, start = fileio._parse_header(lines, expect_kraus)
    rows = lines[start:]
    if len(rows) != dim * count:
        # A wrong row count is reported before any malformed row.
        where = rows[-1][0] if rows else lines[start - 1][0]
        raise ParseError(f"expected {dim * count} matrix rows, found {len(rows)}", where, 1)
    rows = [fileio._parse_row(lineno, line, dim) for lineno, line in rows]
    return np.array(rows).reshape(count, dim, dim)


def _assert_same_parse(text, expect_kraus=True):
    try:
        expected = _parse_per_entry(text, expect_kraus)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            fileio._parse_matrices(text.encode(), expect_kraus)
        assert (got.value.line, got.value.column, str(got.value)) == (err.line, err.column, str(err))
        return None
    got = fileio._parse_matrices(text.encode(), expect_kraus)
    assert got.dtype == complex and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    return got


def _channel_text(channel):
    return f"dim {channel.dim}\nkraus {channel.ops.shape[0]}\n" + "".join(_writes(channel.ops))


def test_chunked_parse_comments_blank_lines_and_crlf():
    text = ("# header comment\ndim 2\n\nkraus 2   # two operators\n"
            "1:0, 0:0\n# between rows\n\n0:0, -0.5:1e-3  # trailing\n"
            "   \n0:0, 0:0\n0:0, 0.25:0\n")
    got = _assert_same_parse(text)
    assert got[0, 1, 1] == complex(-0.5, 1e-3)
    _assert_same_parse(text.replace("\n", "\r\n"))
    _assert_same_parse(text.replace("\n", "\r"))


@pytest.mark.parametrize("token", ["-0", " 0", "0 ", " -0", "1_0", "inf", "-inf", "nan", "\t0.5",
                                   "0.5\t", "١", "00", "+0", "0.0", "--0", "0x1", ""])
def test_chunked_parse_tokens(token):
    for row in (f"{token}:0, 1:{token}", f"1:0,{token}:{token}"):
        _assert_same_parse(f"dim 2\nkraus 1\n{row}\n0:0, 1:0\n")


def test_chunked_parse_signed_zeros_keep_their_sign():
    got = _assert_same_parse("dim 2\nkraus 1\n0:-0, -0:0\n -0: 0, 0: -0\n")
    signs = np.signbit(got.view(float)).ravel().tolist()
    assert signs == [False, True, True, False, True, False, False, True]


def test_chunked_parse_many_chunks_matches_per_entry(monkeypatch):
    c = random_channel(5, 60, seed=4)
    text = _channel_text(c)
    assert len(text) > fileio.CHUNK_BYTES
    got = _assert_same_parse(text)
    assert np.array_equal(got, c.ops)
    monkeypatch.setattr(fileio, "CHUNK_BYTES", 300)
    _assert_same_parse(text)


def test_chunked_parse_takes_writer_output_whole(monkeypatch, tmp_path):
    c = phase_damping(3, (0.5, 0.5)).compose(depolarizing(3, 0.3)).reduced()
    square = c.tensor(c).reduced()
    path = tmp_path / "square.txt"
    save_channel(path, square)

    def per_entry(*args):
        raise AssertionError("the writer's rows need no per-entry fallback")

    monkeypatch.setattr(fileio, "CHUNK_BYTES", 2000)
    monkeypatch.setattr(fileio, "_parse_row", per_entry)
    text = path.read_bytes()
    # A slice with comments or blank lines is taken whole as its content lines.
    for data in (text, text.replace(b"\n", b"  # row\n\n"), text.replace(b"\n", b"\r\n")):
        path.write_bytes(data)
        again = load_channel(path)
        assert np.array_equal(again.ops.view(np.uint64), square.ops.view(np.uint64))


@pytest.mark.parametrize("bad,message", [
    ("1:0, 0:0, 0:0", "expected 2 entries"),
    ("1:0, x:0", "non-numeric"),
    ("1:0:0, 0", "not a re:im pair"),
    ("1:0, 0:١x", "non-numeric"),
])
def test_chunked_parse_error_after_a_chunk_that_passed(monkeypatch, bad, message):
    monkeypatch.setattr(fileio, "CHUNK_BYTES", 40)
    rows = ["1:0, 0:0", "0:0, 1:0"] * 4
    rows[5] = bad
    text = "dim 2\nkraus 4\n" + "\n".join(rows) + "\n"
    chunked = []
    parse_chunk = fileio._parse_chunk

    def recorded(*args):
        chunked.append(parse_chunk(*args))
        return chunked[-1]

    monkeypatch.setattr(fileio, "_parse_chunk", recorded)
    with pytest.raises(ParseError, match=message) as err:
        fileio._parse_matrices(text.encode(), True)
    assert err.value.line == 8
    assert chunked[0] is not None and chunked[-1] is None
    _assert_same_parse(text)


def _mutated(rng, text):
    """``text`` with comments, blank lines, other line ends, non-ASCII, missing or extra rows, or a big header."""
    lines = text.splitlines()
    for _ in range(rng.integers(0, 5)):
        i, j = rng.integers(0, len(lines) + 1), rng.integers(0, len(lines))
        kind = rng.integers(0, 9)
        if kind == 0:
            lines.insert(i, "# comment: 1:0, 0:0 é")
        elif kind == 1:
            lines.insert(i, ["", "   ", "\t", " \x1f"][i % 4])
        elif kind == 2:
            lines[j] += ["  # trailing", " ", "\t", "\x1f", " é"][i % 5]
        elif kind == 3:
            lines[j] = lines[j].replace("0", "١", 1)
        elif kind == 4 and len(lines) > 1:
            del lines[j]
        elif kind == 5:
            lines.insert(i, lines[j])
        elif kind == 6 and len(lines) > 1 and lines[1].startswith("kraus"):
            lines[1] = "kraus 1000000000"
        elif kind == 7:
            lines[j] = lines[j].replace(":", ["::", ",", " x:"][i % 3], 1)
        elif kind == 8:
            lines.insert(i, ", ".join(["0:0"] * (1 + i % 3)))
    ends = rng.choice(["\n", "\n", "\r\n", "\r", "\v", "\x85", "\u2028"], size=len(lines))
    if rng.random() < 0.5:
        ends[:] = ends[0]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if rng.random() < 0.1 else text


@pytest.mark.parametrize("chunk_bytes", [12, 40, 64 * 1024])
def test_mutated_files_parse_as_per_entry(monkeypatch, chunk_bytes):
    monkeypatch.setattr(fileio, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(2303)
    outcomes = set()
    for case in range(400):
        dim, count = rng.integers(1, 4), rng.integers(1, 4)
        if case % 4:
            text = _channel_text(random_channel(dim, count, seed=case))
        else:
            text = f"dim {dim}\n" + "".join(_writes(random_density(dim, dim, seed=case).matrix))
        outcomes.add(_assert_same_parse(_mutated(rng, text), expect_kraus=bool(case % 4)) is None)
    assert outcomes == {True, False}


def test_state_file_loads_as_before(tmp_path):
    rho = random_density(4, 2, seed=3)
    path = tmp_path / "state.txt"
    save_state(path, rho)
    text = path.read_text()
    got = _assert_same_parse(text, expect_kraus=False)
    assert np.array_equal(got[0], rho.matrix)
    expected = density_from_matrix(_parse_per_entry(text, False)[0])
    again = load_state(path)
    assert np.array_equal(again.matrix, expected.matrix) and again.note == expected.note


@pytest.mark.parametrize("load,header", [(load_state, "dim 5\n"), (load_channel, "dim 5\nkraus 1\n")])
def test_dimension_above_cap_is_refused_before_rows(monkeypatch, tmp_path, load, header):
    monkeypatch.setattr(channels_mod, "DIM_CAP", 4)
    path = tmp_path / "big.txt"
    path.write_text(header + "not a row\n" * 5)
    with pytest.raises(CapacityError, match="dimension 5 exceeds cap 4"):
        load(path)
    path.write_text(header.replace("5", "4") + "not a row\n" * 4)
    with pytest.raises(ParseError):
        load(path)
