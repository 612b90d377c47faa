import numpy as np
import pytest

from qchan import weyl
from qchan.errors import UsageError, ValidationError

from helpers import random_density, random_unitary


def test_qubit_generators():
    system = weyl.weyl_system(2)
    assert np.allclose(system.unitary((1, 0)), [[0, 1], [1, 0]])
    assert np.allclose(system.unitary((0, 1)), np.diag([1, -1]))


@pytest.mark.parametrize("l", [2, 3, 5])
def test_identity_element(l):
    system = weyl.weyl_system(l)
    assert np.array_equal(system.unitary((0, 0)), np.eye(l))


def test_unitaries_are_unitary():
    system = weyl.weyl_system(4)
    for u in system.unitaries.values():
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_irreducibility_witness():
    # An irreducible system twirls every operator to Tr(x)/l I.
    system = weyl.weyl_system(3)
    x = random_density(3, 3, seed=17).matrix
    twirl = sum(u @ x @ u.conj().T for u in system.unitaries.values()) / 9
    assert np.linalg.norm(twirl - np.trace(x) / 3 * np.eye(3)) <= 1e-12


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_projectivity(l):
    system = weyl.weyl_system(l)
    for g in system.elements:
        for h in system.elements:
            prod = system.unitary(g) @ system.unitary(h)
            target = system.unitary(system.add(g, h))
            scalar = np.trace(prod @ target.conj().T) / l
            assert abs(abs(scalar) - 1.0) < 1e-12
            assert np.abs(prod - scalar * target).max() < 1e-12


def test_shift_phase_composition_rule():
    system = weyl.weyl_system(3)
    for k in range(3):
        for s in range(3):
            expected = system.unitary((k, 0)) @ system.unitary((0, s))
            assert np.array_equal(system.unitary((k, s)), expected)


def test_subgroup_elements():
    system = weyl.weyl_system(3)
    g1 = weyl.phase_subgroup(system)
    assert g1.elements == ((0, 0), (0, 1), (0, 2))
    g01 = weyl.diagonal_subgroup(system, 1)
    assert set(g01.elements) == {(0, 0), (1, 1), (2, 2)}


def test_degenerate_family_rejected():
    system = weyl.weyl_system(2)
    with pytest.raises(ValidationError):
        weyl.SubgroupFamily(label="bad", system=system,
                            elements=((0, 0), (0, 0)), generator=(0, 0))


def test_non_closed_family_rejected():
    system = weyl.weyl_system(3)
    with pytest.raises(ValidationError):
        weyl.SubgroupFamily(label="bad", system=system,
                            elements=((0, 0), (1, 0), (1, 1)), generator=(1, 0))


@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_covering_prime(l):
    system = weyl.weyl_system(l)
    counts = weyl.covering_counts(system)
    assert len(counts) == l * l - 1
    assert set(counts.values()) == {1}


def test_covering_gap_composite():
    system = weyl.weyl_system(4)
    counts = weyl.covering_counts(system)
    assert counts[(2, 1)] == 0


def test_fixed_point_resolution_phases():
    system = weyl.weyl_system(4)
    res = weyl.fixed_point_resolution(weyl.phase_subgroup(system))
    coordinate = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
    for k in range(4):
        coordinate[k][k, k] = 1.0
    for proj in res:
        assert min(np.abs(proj - c).max() for c in coordinate) < 1e-10


def test_fixed_point_resolution_shifts_is_fourier():
    l = 3
    system = weyl.weyl_system(l)
    res = weyl.fixed_point_resolution(weyl.diagonal_subgroup(system, 0))
    omega = np.exp(2j * np.pi / l)
    fourier = []
    for k in range(l):
        v = np.array([omega ** (j * k) for j in range(l)]) / np.sqrt(l)
        fourier.append(np.outer(v, v.conj()))
    for proj in res:
        assert min(np.abs(proj - f).max() for f in fourier) < 1e-10


def test_fixed_point_resolution_diagonal_subgroup():
    system = weyl.weyl_system(2)
    family = weyl.diagonal_subgroup(system, 1)
    res = weyl.fixed_point_resolution(family)
    u = system.unitary((1, 1))
    for proj in res:
        # each projection spans one eigenvector of the generator
        v = proj[:, np.argmax(np.diag(proj).real)]
        v = v / np.linalg.norm(v)
        w = u @ v
        overlap = abs(np.vdot(v, w))
        assert abs(overlap - 1.0) < 1e-10


@pytest.mark.parametrize("l", [2, 3, 5])
def test_resolution_invariants(l):
    system = weyl.weyl_system(l)
    for family in weyl.all_order_l_subgroups(system):
        res = weyl.fixed_point_resolution(family)
        total = sum(res)
        assert np.abs(total - np.eye(l)).max() < 1e-11
        for i, p in enumerate(res):
            for j, q in enumerate(res):
                target = p if i == j else np.zeros_like(p)
                assert np.abs(p @ q - target).max() < 1e-11


def test_transversals():
    system = weyl.weyl_system(3)
    shift_reps = weyl.transversal(system, "shift")
    phase_reps = weyl.transversal(system, "phase")
    assert weyl.is_transversal(system, shift_reps, weyl.complementary_subgroup(system, "shift"))
    assert weyl.is_transversal(system, phase_reps, weyl.complementary_subgroup(system, "phase"))
    # shifts are not a transversal of the shift subgroup's own cosets
    assert not weyl.is_transversal(system, shift_reps, weyl.diagonal_subgroup(system, 0))
    with pytest.raises(UsageError):
        weyl.transversal(system, "diagonal")


def test_weyl_system_rejects_dim_one():
    with pytest.raises(UsageError):
        weyl.weyl_system(1)


def test_diagonal_subgroup_bad_index():
    system = weyl.weyl_system(3)
    with pytest.raises(UsageError):
        weyl.diagonal_subgroup(system, 3)


# ------------------------------------------------------------------- caches


def test_cached_objects_are_shared_and_read_only():
    system = weyl.weyl_system(3)
    assert weyl.weyl_system(3) is system
    with pytest.raises(TypeError):
        system.unitaries[(0, 0)] = np.eye(3)
    family = weyl.diagonal_subgroup(system, 1)
    assert weyl.diagonal_subgroup(system, 1) is family
    assert weyl.phase_subgroup(system) is weyl.phase_subgroup(system)
    res = weyl.fixed_point_resolution(family)
    assert weyl.fixed_point_resolution(family) is res
    for arr in (*system.unitaries.values(), *res):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 2.0


def test_hand_built_system_copies_its_unitaries():
    table = {g: np.array(u) for g, u in weyl.weyl_system(2).unitaries.items()}
    system = weyl.WeylSystem(l=2, unitaries=table)
    table[(0, 0)][0, 0] = 5.0
    table[(1, 0)] = np.zeros((2, 2))
    assert np.array_equal(system.unitary((0, 0)), np.eye(2))
    assert np.array_equal(system.unitary((1, 0)), [[0, 1], [1, 0]])


def test_hand_built_system_gets_its_own_resolution():
    standard = weyl.weyl_system(3)
    v = random_unitary(3, seed=11)
    rotated = weyl.WeylSystem(
        l=3, unitaries={g: v @ u @ v.conj().T for g, u in standard.unitaries.items()})
    copy = weyl.WeylSystem(l=3, unitaries=standard.unitaries)
    for k in range(3):
        res_std = weyl.fixed_point_resolution(weyl.diagonal_subgroup(standard, k))
        res_rot = weyl.fixed_point_resolution(weyl.diagonal_subgroup(rotated, k))
        assert weyl.fixed_point_resolution(weyl.diagonal_subgroup(copy, k)) is not res_std
        assert res_rot is not res_std
        # Conjugating the group by V keeps the generator's spectrum, so the
        # projections keep their order and become V P V*.
        for p_std, p_rot in zip(res_std, res_rot):
            assert np.abs(p_rot - v @ p_std @ v.conj().T).max() < 1e-10
