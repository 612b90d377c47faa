import numpy as np
import pytest

from qchan import states
from qchan.errors import NotPositiveError, UsageError, ValidationError
from qchan.rng import substream

from helpers import maximally_mixed, random_density, random_pure, random_unitary


def test_density_accepts_maximally_mixed():
    rho = states.density_from_matrix(np.eye(2) / 2)
    assert rho.dim == 2 and rho.note is None


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveError):
        states.density_from_matrix(np.diag([1.5, -0.5]))


def test_density_accepts_trace_boundary():
    rho = states.density_from_matrix(np.diag([0.7, 0.3 - 5e-11]))
    assert abs(np.trace(rho.matrix).real - (1 - 5e-11)) < 1e-12


def test_density_clamps_and_renormalizes():
    rho = states.density_from_matrix(np.diag([1.0 + 5e-11, -5e-11]))
    assert rho.note is not None and "clamped" in rho.note
    vals = np.linalg.eigvalsh(rho.matrix)
    assert vals.min() >= 0.0
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-15


def test_density_rejects_bad_trace():
    with pytest.raises(ValidationError):
        states.density_from_matrix(np.diag([0.6, 0.6]))


def test_density_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        states.density_from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_roundtrip_validation():
    rho = random_density(3, 2, seed=5)
    again = states.density_from_matrix(rho.matrix)
    assert np.abs(again.matrix - rho.matrix).max() < 1e-14


def test_pure_to_density_basis():
    rho = states.pure_to_density(states.basis_state(3, 0))
    assert np.allclose(rho.matrix, np.diag([1.0, 0, 0]))


def test_pure_to_density_plus_state():
    psi = states.PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    rho = states.pure_to_density(psi)
    assert np.abs(rho.matrix - 0.5 * np.ones((2, 2))).max() < 1e-14


def test_pure_to_density_idempotent_and_pure():
    psi = random_pure(4, seed=9)
    rho = states.pure_to_density(psi)
    assert np.abs(rho.matrix @ rho.matrix - rho.matrix).max() < 1e-12
    assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-12


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValidationError):
        states.PureState(np.array([1.0, 1.0]))


# NaN and +-inf, each in the real part and in the imaginary part.
NONFINITE = [complex(v, 0.0) for v in (np.nan, np.inf, -np.inf)] + [
    complex(0.0, v) for v in (np.nan, np.inf, -np.inf)
]


@pytest.mark.parametrize("bad", NONFINITE)
def test_pure_state_rejects_nonfinite(bad):
    with pytest.raises(ValidationError, match="finite"):
        states.PureState(np.array([1.0, bad]))


def test_random_pure_dim_one():
    psi = random_pure(1, seed=3)
    assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12


def test_random_pure_deterministic():
    a = random_pure(4, seed=11)
    b = random_pure(4, seed=11)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = random_pure(4, seed=12)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_random_pure_haar_moment():
    # |<e1|psi>|^2 is Beta(1, dim-1); for dim 2 the mean is 1/2, variance 1/12.
    n = 10_000
    vals = np.empty(n)
    for i in range(n):
        psi = states.random_pure_from(substream(123, i), 2)
        vals[i] = abs(psi.amplitudes[0]) ** 2
    se = np.sqrt(1.0 / 12.0 / n)
    assert abs(vals.mean() - 0.5) < max(3 * se, 0.02)


def test_random_density_rank_one_is_pure():
    rho = random_density(3, 1, seed=2)
    assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-12


def test_random_density_full_rank():
    rho = random_density(3, 3, seed=2)
    assert np.linalg.eigvalsh(rho.matrix).min() > 0.0


def test_random_density_deterministic():
    a = random_density(3, 2, seed=4)
    b = random_density(3, 2, seed=4)
    assert np.array_equal(a.matrix, b.matrix)


def test_random_density_rank_out_of_range():
    with pytest.raises(UsageError):
        random_density(3, 4, seed=0)
    with pytest.raises(UsageError):
        random_density(3, 0, seed=0)


def test_random_unitary_is_unitary():
    u = random_unitary(4, seed=8)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_ensemble_validation():
    rho = maximally_mixed(2)
    ens = states.StateEnsemble((0.5, 0.5), (rho, rho))
    assert ens.dim == 2
    with pytest.raises(ValidationError):
        states.StateEnsemble((0.6, 0.6), (rho, rho))
    with pytest.raises(ValidationError):
        states.StateEnsemble((1.5, -0.5), (rho, rho))
    with pytest.raises(ValidationError):
        states.StateEnsemble((0.5, 0.5), (rho, maximally_mixed(3)))


def test_states_are_immutable():
    rho = random_density(2, 2, seed=1)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    psi = random_pure(2, seed=1)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0
