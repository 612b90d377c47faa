import numpy as np
import pytest

from qchan import linalg
from qchan.errors import NotPositiveError, UsageError, ValidationError

from helpers import random_unitary

rng = np.random.default_rng(20260809)


def randc(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_hermitian(n):
    a = randc(n, n)
    return (a + a.conj().T) / 2


def _partial_trace_oracle(x, dl, dr, side):
    # independent index-summation oracle
    out_dim = dr if side == "left" else dl
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(dl):
        for j in range(dr):
            for k in range(dl):
                for m in range(dr):
                    if side == "left" and i == k:
                        out[j, m] += x[i * dr + j, k * dr + m]
                    if side == "right" and j == m:
                        out[i, k] += x[i * dr + j, k * dr + m]
    return out


def test_partial_trace_product_state():
    rho = rand_hermitian(2)
    sigma = rand_hermitian(3)
    x = np.kron(rho, sigma)
    left = linalg.partial_trace(x, 2, 3, "left")
    assert np.abs(left - np.trace(rho) * sigma).max() < 1e-12
    right = linalg.partial_trace(x, 2, 3, "right")
    assert np.abs(right - np.trace(sigma) * rho).max() < 1e-12


def test_partial_trace_identity():
    out = linalg.partial_trace(np.eye(4), 2, 2, "right")
    assert np.abs(out - 2 * np.eye(2)).max() < 1e-14


def test_partial_trace_matches_oracle_and_preserves_trace():
    x = randc(4, 4)
    for side in ("left", "right"):
        got = linalg.partial_trace(x, 2, 2, side)
        want = _partial_trace_oracle(x, 2, 2, side)
        assert np.abs(got - want).max() < 1e-13
        assert abs(np.trace(got) - np.trace(x)) < 1e-12


def test_partial_trace_recovers_tensor_factor():
    b = rand_hermitian(3)
    x = np.kron(np.eye(2), b)
    out = linalg.partial_trace(x, 2, 3, "left")
    assert np.abs(out - 2 * b).max() < 1e-12


def _left_oracle(a, x, dim_right, conjugate):
    lifted = np.kron(a, np.eye(dim_right))
    return lifted @ x @ lifted.conj().T if conjugate else lifted @ x


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("dl, dr", [(2, 3), (3, 2), (3, 3)])
def test_apply_left_matches_the_kron_oracle(dl, dr, conjugate):
    for _ in range(5):
        u, x = random_unitary(dl, seed=int(rng.integers(1 << 30))), randc(dl * dr, dl * dr)
        got = linalg.apply_left(u, x, dl, dr, conjugate)
        assert np.abs(got - _left_oracle(u, x, dr, conjugate)).max() <= 1e-15 * linalg.frobenius(x)


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("dl, dr", [(2, 3), (3, 2)])
def test_apply_left_on_stacks_matches_the_oracle_and_the_one_matrix_bits(dl, dr, conjugate):
    xs = randc(4, dl * dr, dl * dr)
    one = random_unitary(dl, seed=3)
    many = np.array([random_unitary(dl, seed=s) for s in range(4)])
    # one operator for the whole stack, one operator per matrix, and a broadcast (3, 4) grid
    for a, want_shape in ((one, (4,)), (many, (4,)), (many[:3, None], (3, 4))):
        got = linalg.apply_left(a, xs, dl, dr, conjugate)
        assert got.shape == (*want_shape, dl * dr, dl * dr)
        for index in np.ndindex(*want_shape):
            a_i = np.broadcast_to(a, (*want_shape, dl, dl))[index]
            x_i = xs[index[-1]]
            assert np.array_equal(got[index], linalg.apply_left(a_i, x_i, dl, dr, conjugate))
            oracle = _left_oracle(a_i, x_i, dr, conjugate)
            assert np.abs(got[index] - oracle).max() <= 1e-15 * linalg.frobenius(x_i)


def test_apply_left_without_a_right_factor_is_the_plain_product():
    for dim in (2, 3, 5):
        u, x, xs = randc(dim, dim), randc(dim, dim), randc(3, dim, dim)
        assert np.array_equal(linalg.apply_left(u, x, dim, 1), u @ x)
        assert np.array_equal(linalg.apply_left(u, x, dim, 1, conjugate=True), u @ x @ linalg.dagger(u))
        assert np.array_equal(linalg.apply_left(u, xs, dim, 1, conjugate=True), u @ xs @ linalg.dagger(u))


def test_apply_left_bad_dims():
    with pytest.raises(UsageError):
        linalg.apply_left(np.eye(2), np.eye(6), 4, 2)
    with pytest.raises(UsageError):
        linalg.apply_left(np.eye(3), np.eye(6), 2, 3)


def test_partial_trace_bad_dims():
    with pytest.raises(UsageError):
        linalg.partial_trace(np.eye(6), 4, 2, "left")
    with pytest.raises(UsageError):
        linalg.partial_trace(np.eye(4), 2, 2, "middle")


def test_hermitian_eig_sorted():
    eig = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.values, [1, 2, 3])


def test_hermitian_eig_pauli_x():
    eig = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(eig.values, [-1, 1])


def test_hermitian_eig_invariants_random():
    a = rand_hermitian(5)
    values, vectors = linalg.hermitian_eig(a)
    scale = np.linalg.norm(a)
    recon = (vectors * values) @ vectors.conj().T
    assert np.linalg.norm(recon - a) <= 1e-12 * 5 * scale
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(5)) <= 1e-12 * 5


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigvals_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        linalg.hermitian_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_nan():
    with pytest.raises(ValidationError):
        linalg.hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# NaN and +-inf, each in the real part and in the imaginary part.
NONFINITE = [complex(v, 0.0) for v in (np.nan, np.inf, -np.inf)] + [
    complex(0.0, v) for v in (np.nan, np.inf, -np.inf)
]


@pytest.mark.parametrize("bad", NONFINITE)
def test_as_complex_matrix_rejects_nonfinite(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        linalg.as_complex_matrix(m)


def test_clamp_spectrum():
    out = linalg.clamp_spectrum(np.array([-5e-11, 0.3, 0.7]))
    assert out[0] == 0.0 and out[1] == 0.3
    with pytest.raises(NotPositiveError) as err:
        linalg.clamp_spectrum(np.array([-1e-9, 1.0]))
    assert err.value.eigenvalue == pytest.approx(-1e-9)


def test_as_complex_matrix_rejects_nonsquare():
    with pytest.raises(ValidationError):
        linalg.as_complex_matrix(np.zeros((2, 3)))
