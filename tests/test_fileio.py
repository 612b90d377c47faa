import numpy as np
import pytest

from qchan import fileio
from qchan.channels import choi_distance, depolarizing, phase_damping, random_channel
from qchan.errors import NotPositiveError, ValidationError
from qchan.fileio import ParseError, load_channel, load_state, save_channel, save_state
from qchan.states import random_density


def test_state_roundtrip_exact(tmp_path):
    rho = random_density(3, 2, seed=1)
    path = tmp_path / "state.txt"
    save_state(path, rho)
    again = load_state(path)
    assert np.array_equal(again.matrix, rho.matrix)


@pytest.mark.parametrize("channel", [depolarizing(2, 0.5), phase_damping(3, (0.4, 0.9))])
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


# Row formatting and parsing take a whole-row fast path; these pin it to the
# per-entry forms it replaced.


def _format_reference(m):
    return "\n".join(", ".join(f"{v.real:.17g}:{v.imag:.17g}" for v in row) for row in m)


def _parse_reference(line):
    pairs = (token.strip().split(":") for token in line.split(","))
    return np.array([complex(float(re_), float(im)) for re_, im in pairs])


def _awkward_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, (dim, dim))
    m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
    m.flat[0] = complex(-0.0, 0.0)
    m.flat[-1] = complex(5e-324, -np.inf)
    return m


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_format_matches_per_entry_form(dim):
    m = _awkward_matrix(dim, dim)
    assert fileio._format_matrix(m) == _format_reference(m)
    assert fileio._format_matrix(m.T) == _format_reference(m.T)
    assert fileio._format_matrix(m.real.copy()) == _format_reference(m.real)


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
