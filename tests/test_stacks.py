"""Stack-aware functions: a matrix gets the same bits alone as inside a stack.

Every function that accepts a leading batch axis is called once on a stack and
once per matrix; the results must be equal, not merely close, because the
batched claims in ``qchan.verify`` report values that the per-sample path
used to compute.
"""
import numpy as np
import pytest

from qchan import channels as channels_mod
from qchan.channels import depolarizing, phase_damping
from qchan.entropy import entropy_of_spectrum, relative_entropy_nats, subnormalized_entropy, vn_nats
from qchan.errors import NotPositiveError, ValidationError
from qchan.linalg import (
    clamp_spectrum,
    frobenius,
    hermitian_eig,
    hermitian_eigvals,
    partial_trace,
)
from qchan.rng import substream
from qchan.states import density_from_matrix, random_state_matrix_from


def _states(dim: int, count: int, seed: int, descending: bool = False) -> np.ndarray:
    """Random states of every rank, 1, 2, .. or dim, dim - 1, .., as verify's samplers draw them."""
    rng = substream(seed)
    ranks = [dim - i % dim if descending else 1 + i % dim for i in range(count)]
    return np.array([random_state_matrix_from(rng, dim, rank) for rank in ranks])


def _each_equal(stacked, alone):
    assert len(stacked) == len(alone)
    for got, want in zip(stacked, alone):
        assert np.array_equal(got, want), (got, want)


@pytest.mark.parametrize("dim", [2, 3, 4, 9, 25])
def test_eigensolves_match_one_matrix_at_a_time(dim):
    x = _states(dim, 12, seed=dim)
    values, vectors = hermitian_eig(x)
    _each_equal(values, [hermitian_eig(m).values for m in x])
    _each_equal(vectors, [hermitian_eig(m).vectors for m in x])
    _each_equal(hermitian_eigvals(x), [hermitian_eigvals(m) for m in x])
    one = hermitian_eig(x[:1])
    assert np.array_equal(one.values[0], values[0]) and np.array_equal(one.vectors[0], vectors[0])


@pytest.mark.parametrize("dim", [2, 3, 9, 25])
def test_entropies_match_one_matrix_at_a_time(dim):
    x = _states(dim, 14, seed=10 + dim)
    y = _states(dim, 14, seed=20 + dim, descending=True)
    _each_equal(vn_nats(x), [vn_nats(m) for m in x])
    assert isinstance(vn_nats(x[0]), float) and vn_nats(x[:1])[0] == vn_nats(x[0])
    _each_equal(subnormalized_entropy(x / 2), [subnormalized_entropy(m / 2) for m in x])
    # A pair whose sigma has lower rank than rho has an infinite value.
    values = relative_entropy_nats(x, y)
    assert np.isinf(values).any() and np.isfinite(values).any()
    _each_equal(values, [relative_entropy_nats(a, b) for a, b in zip(x, y)])


def test_spectrum_entropy_keeps_the_one_row_bits_for_any_zero_pattern():
    rng = np.random.default_rng(4)
    rows = rng.dirichlet(np.ones(11), size=40)
    rows[rng.random(rows.shape) < 0.4] = 0.0  # zeros anywhere, rows unsorted
    rows[0] = 0.0
    rows[1, :3] = [-1e-12, 0.0, -5e-11]  # roundoff negatives are clamped
    _each_equal(entropy_of_spectrum(rows), [entropy_of_spectrum(r) for r in rows])
    _each_equal(entropy_of_spectrum(rows.reshape(4, 10, 11)).reshape(-1),
                [entropy_of_spectrum(r) for r in rows])
    _each_equal(clamp_spectrum(rows), [clamp_spectrum(r) for r in rows])
    # Each row's value is numpy's sum over that row's positive entries alone.
    for r in clamp_spectrum(rows):
        kept = r[r > 0.0]
        assert entropy_of_spectrum(r) == -(kept * np.log(kept)).sum()


def test_partial_trace_and_frobenius_match_one_matrix_at_a_time():
    x = _states(6, 8, seed=3)
    for side in ("left", "right"):
        _each_equal(partial_trace(x, 2, 3, side), [partial_trace(m, 2, 3, side) for m in x])
        _each_equal(partial_trace(x, 3, 2, side), [partial_trace(m, 3, 2, side) for m in x])
    _each_equal(frobenius(x), [frobenius(m) for m in x])
    assert frobenius(x[0]) == float(np.linalg.norm(x[0]))


@pytest.mark.parametrize("per_part", [1, 3, 10])
def test_apply_matrix_matches_one_matrix_at_a_time(monkeypatch, per_part):
    c = phase_damping(9, (0.5,) * 8).compose(depolarizing(9, 0.3)).reduced()
    # Parts of one, of three and of all ten matrices of the stack.
    monkeypatch.setattr(channels_mod, "APPLY_STACK_BYTES", per_part * 16 * c.ops.shape[0] * 81)
    x = _states(9, 10, seed=5)
    want = [c.apply_matrix(m) for m in x]
    _each_equal(c.apply_matrix(x), want)
    _each_equal(c.apply_matrix(x.reshape(5, 2, 9, 9)).reshape(10, 9, 9), want)
    assert c.apply_matrix(x[:0]).shape == (0, 9, 9)


def test_density_from_matrix_matches_one_matrix_at_a_time():
    x = _states(4, 9, seed=6)
    # Roundoff negatives make the rebuild-and-renormalize path run for two of them.
    x[2] = np.diag([0.5, 0.5 + 2e-11, -1e-11, -1e-11]).astype(complex)
    x[5] = np.diag([1.0 + 3e-11, -3e-11, 0.0, 0.0]).astype(complex)
    stacked = density_from_matrix(x)
    alone = [density_from_matrix(m) for m in x]
    _each_equal(stacked.matrix, [rho.matrix for rho in alone])
    assert stacked.dim == 4
    assert not stacked.matrix.flags.writeable
    counts = [int(rho.note.split()[1]) if rho.note else 0 for rho in alone]
    assert counts[2] == 2 and counts[5] == 1
    assert stacked.note == f"clamped {sum(counts)} eigenvalue(s) in [-1e-10, 0) and renormalized"
    assert density_from_matrix(x[2:3]).note == alone[2].note


def test_stack_is_refused_for_its_first_failing_matrix():
    x = _states(3, 6, seed=7)
    bad = x.copy()
    bad[4] = np.diag([1.3, 0.0, -0.3])
    bad[5] = np.diag([1.6, 0.0, -0.6])
    with pytest.raises(NotPositiveError, match="matrix 4 of the stack") as err:
        density_from_matrix(bad)
    assert err.value.eigenvalue == pytest.approx(-0.3)
    skew = x.copy()
    skew[3, 0, 1] += 0.1
    with pytest.raises(ValidationError, match="not Hermitian .*matrix 3 of the stack"):
        hermitian_eigvals(skew)
    trace = x.copy()
    trace[1] *= 1.5
    with pytest.raises(ValidationError, match="trace 1.5.*matrix 1 of the stack"):
        density_from_matrix(trace)
    with pytest.raises(ValidationError, match="expected a square matrix"):
        hermitian_eig(np.zeros((4, 2, 3)))

