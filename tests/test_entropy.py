import math

import numpy as np
import pytest

from qchan import weyl
from qchan.channels import depolarizing, identity_channel
from qchan.entropy import holevo_chi, relative_entropy_nats, subnormalized_entropy, vn_nats
from qchan.errors import ValidationError
from qchan.states import StateEnsemble, basis_state, density_from_matrix, pure_to_density

from helpers import (
    maximally_mixed,
    mixture_of_unitaries,
    random_channel,
    random_density,
    random_pure,
    random_unitary,
)

# scalar oracle for the recurring two-point spectrum
H_75_25 = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))


def test_von_neumann_pure_state():
    rho = pure_to_density(random_pure(4, seed=1))
    assert vn_nats(rho.matrix) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("l", [2, 3, 5])
def test_von_neumann_maximally_mixed(l):
    assert vn_nats(maximally_mixed(l).matrix) == pytest.approx(math.log(l), abs=1e-12)


def test_von_neumann_two_point_spectrum():
    rho = density_from_matrix(np.diag([0.75, 0.25]))
    assert vn_nats(rho.matrix) == pytest.approx(H_75_25, abs=1e-9)
    assert vn_nats(rho.matrix) == pytest.approx(0.5623351446188083, abs=1e-9)


def test_entropy_value_range_invariant():
    for seed in range(5):
        rho = random_density(4, 4, seed=seed)
        value = vn_nats(rho.matrix)
        assert -1e-12 <= value <= math.log(4) + 1e-10


def test_relative_entropy_self_is_zero():
    rho = random_density(3, 3, seed=3)
    assert relative_entropy_nats(rho.matrix, rho.matrix) == pytest.approx(0.0, abs=1e-11)


def test_relative_entropy_to_maximally_mixed():
    rho = random_density(3, 3, seed=4)
    value = relative_entropy_nats(rho.matrix, maximally_mixed(3).matrix)
    assert value == pytest.approx(math.log(3) - vn_nats(rho.matrix), abs=1e-11)


def test_relative_entropy_disjoint_support_infinite():
    a = pure_to_density(basis_state(2, 0))
    b = pure_to_density(basis_state(2, 1))
    assert math.isinf(relative_entropy_nats(a.matrix, b.matrix))


def test_subnormalized_entropy_values():
    l = 4
    proj = pure_to_density(basis_state(l, 1)).matrix
    assert subnormalized_entropy(proj / l) == pytest.approx(math.log(l) / l, abs=1e-12)
    assert subnormalized_entropy(np.zeros((3, 3))) == 0.0
    expected = -(0.5 * math.log(0.5) + 0.25 * math.log(0.25))
    assert subnormalized_entropy(np.diag([0.5, 0.25])) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.6931471805599453, abs=1e-12)


def test_subnormalized_entropy_rejects_trace_above_one():
    with pytest.raises(ValidationError):
        subnormalized_entropy(np.diag([0.8, 0.5]))


def test_holevo_single_state_is_zero():
    ens = StateEnsemble((1.0,), (random_density(2, 2, seed=5),))
    assert holevo_chi(depolarizing(2, 0.5), ens) == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("l", [2, 3])
def test_holevo_orthogonal_ensemble_identity_channel(l):
    ens = StateEnsemble(
        tuple([1.0 / l] * l), tuple(pure_to_density(basis_state(l, j)) for j in range(l))
    )
    assert holevo_chi(identity_channel(l), ens) == pytest.approx(math.log(l), abs=1e-11)


def test_holevo_weyl_orbit_depolarizing():
    system = weyl.weyl_system(2)
    base = pure_to_density(basis_state(2, 0))
    states = tuple(
        density_from_matrix(system.unitary(g) @ base.matrix @ system.unitary(g).conj().T)
        for g in system.elements
    )
    ens = StateEnsemble((0.25,) * 4, states)
    chi = holevo_chi(depolarizing(2, 0.5), ens)
    assert chi == pytest.approx(math.log(2) - H_75_25, abs=1e-9)
    assert chi == pytest.approx(0.1308120359358363, abs=1e-9)


def test_holevo_nonnegative():
    c = random_channel(3, 3, seed=6)
    ens = StateEnsemble((0.2, 0.5, 0.3), tuple(random_density(3, 2, seed=s) for s in (7, 8, 9)))
    assert holevo_chi(c, ens) >= -1e-10


def test_monotonicity_random_pairs():
    c = depolarizing(2, 0.5)
    for seed in range(50):
        rho1 = random_density(2, 2, seed=2 * seed)
        rho2 = random_density(2, 2, seed=2 * seed + 1)
        before = relative_entropy_nats(rho1.matrix, rho2.matrix)
        after = relative_entropy_nats(c.apply_matrix(rho1.matrix), c.apply_matrix(rho2.matrix))
        assert before - after >= -1e-9


def test_bistochastic_entropy_increase():
    c = mixture_of_unitaries([0.5, 0.5], [np.eye(2), random_unitary(2, seed=12)])
    for seed in range(50):
        rho = random_density(2, 2, seed=seed)
        assert vn_nats(c.apply_matrix(rho.matrix)) >= vn_nats(rho.matrix) - 1e-9


def test_concavity_spot_check():
    rng = np.random.default_rng(13)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(3))
        parts = [random_density(3, 2, seed=int(rng.integers(10_000))) for _ in range(3)]
        mixed = sum(p * r.matrix for p, r in zip(probs, parts))
        avg = sum(p * vn_nats(r.matrix) for p, r in zip(probs, parts))
        assert vn_nats(mixed) >= avg - 1e-9
