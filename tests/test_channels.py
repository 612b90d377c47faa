import math

import numpy as np
import pytest

from qchan import channels as channels_mod
from qchan import weyl
from qchan.channels import (
    PhaseDampingParams,
    choi_distance,
    choi_matrix,
    depolarizing,
    eq9_decomposition,
    eq12_representation,
    identity_channel,
    kraus_channel,
    pauli_qubit,
    phase_damping,
    schur_matrix,
    structural_checks,
)
from qchan.entropy import vn_nats
from qchan.linalg import frobenius, hermitian_eigvals
from qchan.rng import substream
from qchan.errors import (
    CapacityError,
    NotCompletelyPositiveError,
    UsageError,
    ValidationError,
)
from qchan.states import basis_state, pure_to_density
from qchan.verify import _family_average

from helpers import (
    maximally_mixed,
    mixture_of_unitaries,
    random_channel,
    random_density,
    random_pure,
    random_unitary,
)

rng = np.random.default_rng(42)


def matrix_units(l):
    for a in range(l):
        for b in range(l):
            unit = np.zeros((l, l), dtype=complex)
            unit[a, b] = 1.0
            yield unit


# ---------------------------------------------------------------------- apply


def test_apply_identity():
    rho = random_density(3, 2, seed=1)
    out = identity_channel(3).apply(rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


def test_apply_full_depolarization():
    rho = random_density(2, 2, seed=2)
    out = depolarizing(2, 1.0).apply(rho)
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12


def test_apply_depolarizing_closed_form():
    out = depolarizing(2, 0.5).apply(pure_to_density(basis_state(2, 0)))
    assert np.abs(out.matrix - np.diag([0.75, 0.25])).max() < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(UsageError):
        depolarizing(2, 0.5).apply(random_density(3, 1, seed=0))


# -------------------------------------------------------------------- compose


def test_compose_with_identity():
    phi = depolarizing(2, 0.5)
    assert choi_distance(identity_channel(2).compose(phi), phi) < 1e-12


def test_compose_depolarizing_parameter_oracle():
    p1, p2 = 0.3, 0.6
    composed = depolarizing(2, p1).compose(depolarizing(2, p2))
    merged = depolarizing(2, 1.0 - (1.0 - p1) * (1.0 - p2))
    assert choi_distance(composed, merged) < 1e-12


def test_compose_matches_sequential_application():
    a = random_channel(3, 2, seed=3)
    b = random_channel(3, 3, seed=4)
    composed = a.compose(b)
    for unit in matrix_units(3):
        direct = a.apply_matrix(b.apply_matrix(unit))
        assert np.abs(composed.apply_matrix(unit) - direct).max() < 1e-12


def test_composed_damping_depolarizing_fixes_projection_outputs():
    # the damping map leaves each depolarized basis projection untouched
    phi = depolarizing(3, 0.3)
    psi = phase_damping(3, (0.5, 0.5))
    xi = psi.compose(phi)
    for j in range(3):
        proj = pure_to_density(basis_state(3, j)).matrix
        assert np.abs(xi.apply_matrix(proj) - phi.apply_matrix(proj)).max() < 1e-12


# --------------------------------------------------------------------- tensor


def test_tensor_identity_channels():
    assert choi_distance(identity_channel(2).tensor(identity_channel(2)),
                         identity_channel(4)) < 1e-12


def test_tensor_acts_factorwise():
    a = depolarizing(2, 0.5)
    b = random_channel(2, 2, seed=6)
    joint = a.tensor(b)
    rho = random_density(2, 2, seed=7)
    sigma = random_density(2, 1, seed=8)
    lhs = joint.apply_matrix(np.kron(rho.matrix, sigma.matrix))
    rhs = np.kron(a.apply_matrix(rho.matrix), b.apply_matrix(sigma.matrix))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_tensor_of_depolarizing_is_unital():
    checks = structural_checks(depolarizing(2, 0.5).tensor(depolarizing(2, 0.5)))
    assert checks.unital and checks.trace_preserving


def test_tensor_capacity_error(monkeypatch):
    monkeypatch.setattr(channels_mod, "DIM_CAP", 8)
    with pytest.raises(CapacityError, match="exceeds cap 8"):
        identity_channel(3).tensor(identity_channel(3))
    assert identity_channel(2).tensor(identity_channel(4)).dim == 8


def test_tensor_power_capacity_error(monkeypatch):
    monkeypatch.setattr(channels_mod, "DIM_CAP", 8)
    one = identity_channel(2)
    cube = one.tensor(one).tensor(one)
    assert cube.dim == 8
    with pytest.raises(CapacityError, match="composite dimension 16"):
        cube.tensor(one)


def test_compose_tensor_exchange():
    a, b = random_channel(2, 2, seed=10), random_channel(2, 3, seed=11)
    c, d = random_channel(2, 2, seed=12), random_channel(2, 2, seed=13)
    lhs = (a.compose(b)).tensor(c.compose(d))
    rhs = (a.tensor(c)).compose(b.tensor(d))
    assert choi_distance(lhs, rhs) < 1e-11


# ----------------------------------------------------------------------- choi


def test_choi_identity():
    c = identity_channel(2)
    omega = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            omega[i * 2 + i, j * 2 + j] = 1.0
    assert np.abs(c.choi - omega).max() < 1e-14
    values = np.linalg.eigvalsh(c.choi)
    assert abs(values[-1] - 2.0) < 1e-12 and abs(values[:-1]).max() < 1e-12


def test_choi_trace_equals_dim():
    for c in (depolarizing(3, 0.4), phase_damping(3, (0.3, 0.9))):
        assert abs(np.trace(c.choi).real - 3.0) < 1e-10


def test_choi_cp_boundary():
    c = depolarizing(2, 4.0 / 3.0)
    assert abs(np.linalg.eigvalsh(c.choi).min()) < 1e-10


def test_choi_random_mixture_psd():
    us = [random_unitary(3, seed=s) for s in range(4)]
    c = mixture_of_unitaries([0.4, 0.3, 0.2, 0.1], us)
    assert np.linalg.eigvalsh(c.choi).min() > -1e-12


# ---------------------------------------------------------------- structural


def test_structural_checks_constructors_pass():
    for c in (depolarizing(2, 0.5), depolarizing(3, 1.0), phase_damping(2, (0.4,)),
              phase_damping(4, (0.6, 0.3, 0.9)), pauli_qubit(0.5, 0.3, 0.2)):
        checks = structural_checks(c)
        assert checks.trace_preserving and checks.unital and checks.completely_positive


def test_choi_is_built_on_first_read():
    c = depolarizing(3, 0.4)
    assert "choi" not in vars(c)
    choi = c.choi
    assert c.choi is choi and not choi.flags.writeable
    assert np.array_equal(choi, choi_matrix(c.ops))


def test_structural_checks_solve_for_eigenvalues_only(monkeypatch):
    def full_solve(*args, **kwargs):
        raise AssertionError("structural_checks reads only the eigenvalues")

    monkeypatch.setattr(channels_mod, "hermitian_eig", full_solve)
    c = phase_damping(3, (0.5, 0.5)).compose(depolarizing(3, 0.3))
    # The spectrum is solved by support blocks, so it may differ from the
    # dense solve in the last bits; 1e-12 * dim^2 as in test_contractions.
    dense = float(hermitian_eigvals(c.choi)[0])
    assert abs(structural_checks(c).choi_min_eigenvalue - dense) <= 1e-12 * c.dim ** 2


# Support blocks (channels._support_blocks) against the dense Choi matrix.
# A dense stack is one block; the paper's Weyl-covariant channels have one
# block per shift; a diagonal stack leaves every off-diagonal vec index
# untouched.  Block sums may differ from the dense products in the last bits.


def _xi(l):
    return phase_damping(l, (0.6,) * (l - 1)).compose(depolarizing(l, 0.3)).reduced()


def _with_zero_operator(c):
    """c's Kraus stack with a zero operator appended: a raw stack, not a channel."""
    return np.concatenate((c.ops, np.zeros_like(c.ops[:1])))


BLOCK_STACKS = {
    "dense-one-block": lambda: random_channel(3, 4, seed=61).ops,
    "weyl-many-blocks": lambda: _xi(5).ops,
    "weyl-square": lambda: _xi(3).tensor(_xi(3)).reduced().ops,
    "untouched-index": lambda: phase_damping(4, (0.7, 0.7, 0.7)).ops,
    "untouched-and-zero-operator": lambda: _with_zero_operator(phase_damping(3, (0.5, 0.2))),
}


@pytest.mark.parametrize("name", BLOCK_STACKS)
def test_block_min_eigenvalue_against_the_dense_choi(name):
    ops = BLOCK_STACKS[name]()
    dense = np.linalg.eigvalsh(choi_matrix(ops))[0]
    assert abs(channels_mod._choi_min_eigenvalue(ops) - dense) <= 1e-13
    if name.startswith("untouched"):
        assert channels_mod._choi_min_eigenvalue(ops) == 0.0


BLOCK_PAIRS = {
    "dense-one-block": lambda: (random_channel(3, 4, seed=62), random_channel(3, 9, seed=63)),
    "weyl-same-support": lambda: (_xi(3), depolarizing(3, 0.3)),
    "weyl-square": lambda: (_xi(3).tensor(_xi(3)).reduced(), depolarizing(9, 0.2)),
    "untouched-by-both": lambda: (phase_damping(4, (0.7, 0.7, 0.7)), phase_damping(4, (0.3, 0.3, 0.3))),
    "different-supports": lambda: (phase_damping(3, (0.5, 0.2)), depolarizing(3, 0.7)),
    "dense-against-sparse": lambda: (random_channel(3, 4, seed=64), _xi(3)),
}


@pytest.mark.parametrize("name", BLOCK_PAIRS)
def test_block_choi_distance_against_the_dense_choi(name):
    a, b = BLOCK_PAIRS[name]()
    got = choi_distance(a, b)
    assert "choi" not in vars(a) and "choi" not in vars(b)  # no dense Choi matrix was built
    assert abs(got - frobenius(a.choi - b.choi)) <= 1e-13
    assert abs(choi_distance(b, a) - got) <= 1e-13
    assert choi_distance(a, a) == 0.0


def test_structural_checks_flags_broken_kraus():
    bad = np.array([[[1.0, 0.0], [0.0, 0.5]]], dtype=complex)
    checks = structural_checks(bad)
    assert not checks.trace_preserving
    with pytest.raises(ValidationError, match="[Tt]race preservation"):
        kraus_channel(bad)


# NaN and +-inf, each in the real part and in the imaginary part.
NONFINITE = [complex(v, 0.0) for v in (np.nan, np.inf, -np.inf)] + [
    complex(0.0, v) for v in (np.nan, np.inf, -np.inf)
]


@pytest.mark.parametrize("bad", NONFINITE)
def test_kraus_channel_rejects_nonfinite(bad):
    ops = np.eye(2, dtype=complex)[None, :, :].copy()
    ops[0, 0, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        kraus_channel(ops)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("at", [0, 3, 6])
def test_kraus_channel_finds_a_nonfinite_entry_in_any_run(monkeypatch, bad, at):
    # A run of one operator each: the scan must reach every run of the stack.
    monkeypatch.setattr(channels_mod, "APPLY_STACK_BYTES", 1)
    ops = random_channel(3, 7, seed=5).ops.copy()
    ops[at, 2, 1] = bad
    with pytest.raises(ValidationError, match="Kraus operators must have finite entries"):
        kraus_channel(ops)


@pytest.mark.parametrize("big", [1e200, complex(1e200, 1e200)])
def test_kraus_channel_huge_finite_entries_fail_trace_preservation(big):
    # The Gram overflows to inf (or to NaN for complex entries), yet every entry is finite.
    with pytest.raises(ValidationError, match="trace preservation violated"):
        kraus_channel(np.full((2, 2, 2), big, dtype=complex))


# --------------------------------------------------------------- depolarizing


def test_depolarizing_parameter_range():
    depolarizing(2, 1e-15)
    depolarizing(2, 0.0)
    with pytest.raises(UsageError):
        depolarizing(2, -1e-15)
    with pytest.raises(UsageError):
        depolarizing(2, 4.0 / 3.0 + 1e-9)
    with pytest.raises(UsageError):
        depolarizing(1, 0.5)


def test_depolarizing_near_identity():
    assert choi_distance(depolarizing(2, 1e-12), identity_channel(2)) <= 1e-11


def test_depolarizing_fixes_maximally_mixed():
    out = depolarizing(2, 0.5).apply(maximally_mixed(2))
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-13


def test_depolarizing_output_spectrum():
    out = depolarizing(3, 0.3).apply(pure_to_density(random_pure(3, seed=14)))
    values = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.allclose(values, [0.1, 0.1, 0.8], atol=1e-12)


def test_depolarizing_action_matches_affine_form():
    l, p = 3, 0.7
    c = depolarizing(l, p)
    for unit in matrix_units(l):
        want = (1 - p) * unit + (p / l) * np.trace(unit) * np.eye(l)
        assert np.abs(c.apply_matrix(unit) - want).max() < 1e-12


def test_depolarizing_covariance():
    c = depolarizing(3, 0.6)
    x = random_density(3, 2, seed=15).matrix
    for s in range(50):
        u = random_unitary(3, seed=100 + s)
        lhs = u @ c.apply_matrix(x) @ u.conj().T
        rhs = c.apply_matrix(u @ x @ u.conj().T)
        assert np.linalg.norm(lhs - rhs) <= 1e-11


# -------------------------------------------------------------- phase damping


def test_phase_damping_all_ones_is_identity():
    assert choi_distance(phase_damping(3, (1.0, 1.0)), identity_channel(3)) <= 1e-12


def test_phase_damping_all_zero_dephases():
    c = phase_damping(3, (0.0, 0.0))
    x = random_density(3, 3, seed=16).matrix
    out = c.apply_matrix(x)
    off = out - np.diag(np.diag(out))
    assert np.abs(off).max() < 1e-12
    assert np.abs(np.diag(out) - np.diag(x)).max() < 1e-12


def test_phase_damping_corner_rule():
    c = phase_damping(3, (0.5, 0.9))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = c.apply_matrix(x)
    assert abs(out[0, 2] - 0.5 * x[0, 2]) < 1e-12  # corner uses q_1, not q_2
    assert abs(out[0, 1] - 0.5 * x[0, 1]) < 1e-12
    assert abs(out[2, 0] - 0.5 * x[2, 0]) < 1e-12


def test_phase_damping_fixes_basis_projections():
    c = phase_damping(4, (0.3, 0.2, 0.8))
    for j in range(4):
        proj = pure_to_density(basis_state(4, j)).matrix
        assert np.abs(c.apply_matrix(proj) - proj).max() <= 1e-12


def test_phase_damping_rejects_non_psd():
    with pytest.raises(NotCompletelyPositiveError) as err:
        phase_damping(4, (1.0, 0.0, 0.0))
    assert err.value.eigenvalue < -1e-10


def test_phase_damping_param_range():
    with pytest.raises(UsageError):
        phase_damping(3, (0.5, 1.2))
    with pytest.raises(UsageError):
        phase_damping(3, (-0.1, 0.5))
    with pytest.raises(UsageError):
        phase_damping(3, (0.5,))


# --------------------------------------------------------------- schur matrix


def test_schur_matrix_qubit():
    c = schur_matrix(PhaseDampingParams(l=2, q=(0.5,)))
    assert np.allclose(c, [[1.0, 0.5], [0.5, 1.0]])
    assert abs(np.linalg.eigvalsh(c)[0] - 0.5) < 1e-12
    assert not c.flags.writeable


def test_schur_matrix_constant_q():
    for big_q in np.linspace(0.0, 1.0, 6):
        c = schur_matrix(PhaseDampingParams(l=4, q=(big_q,) * 3))
        want = (1 - big_q) * np.eye(4) + big_q * np.ones((4, 4))
        assert np.abs(c - want).max() < 1e-14
        assert abs(np.linalg.eigvalsh(c)[0] - (1 - big_q)) < 1e-12


def test_schur_matrix_sign_determines_cp():
    c = schur_matrix(PhaseDampingParams(l=4, q=(1.0, 0.0, 0.0)))
    # circulant with first row (1, 1, 0, 1): eigenvalues 3, 1, -1, 1
    assert abs(np.linalg.eigvalsh(c)[0] + 1.0) < 1e-12


@pytest.mark.parametrize("l", [2, 3, 4, 5, 8])
def test_schur_matrix_entries_follow_the_distance_rule(l):
    q = tuple(np.linspace(0.1, 0.9, l - 1))
    want = np.ones((l, l))
    for s in range(l):
        for j in range(l):
            d = abs(s - j)
            if d:
                want[s, j] = q[0] if d == l - 1 else q[d - 1]
    assert np.array_equal(schur_matrix(PhaseDampingParams(l=l, q=q)), want)


# ---------------------------------------------------------------- pauli qubit


def test_pauli_identity():
    assert choi_distance(pauli_qubit(1.0, 1.0, 1.0), identity_channel(2)) < 1e-12


def test_pauli_matches_depolarizing():
    p = 0.4
    lam = 1.0 - p
    assert choi_distance(pauli_qubit(lam, lam, lam), depolarizing(2, p)) <= 1e-12


def test_pauli_complete_dephasing():
    assert choi_distance(pauli_qubit(0.0, 0.0, 1.0), phase_damping(2, (0.0,))) < 1e-12


def test_pauli_action_matches_displayed_matrix():
    l1, l2, l3 = 0.5, 0.3, 0.7
    c = pauli_qubit(l1, l2, l3)
    for _ in range(10):
        a, b, cc, d = rng.standard_normal(4)
        x = np.array([[a, b + 1j * cc], [b - 1j * cc, d]])
        want = np.array([
            [(1 + l3) / 2 * a + (1 - l3) / 2 * d, l1 * b + 1j * l2 * cc],
            [l1 * b - 1j * l2 * cc, (1 - l3) / 2 * a + (1 + l3) / 2 * d],
        ])
        assert np.abs(c.apply_matrix(x) - want).max() < 1e-12


def test_pauli_rejects_non_cp():
    with pytest.raises(NotCompletelyPositiveError):
        pauli_qubit(1.0, 1.0, -1.0)


# ------------------------------------------------------------- factorization


# A (l1, l1, l3) qubit channel with |l1| <= l3 is phase damping with
# q_1 = l1 / l3 after depolarizing with p = 1 - l3.


def test_qubit_factorize_identity_case():
    composed = phase_damping(2, (1.0,)).compose(depolarizing(2, 0.0))
    assert choi_distance(composed, identity_channel(2)) < 1e-12


def test_qubit_factorize_oracle():
    composed = phase_damping(2, (0.3 / 0.6,)).compose(depolarizing(2, 1.0 - 0.6))
    assert choi_distance(composed, pauli_qubit(0.3, 0.3, 0.6)) <= 1e-12


# ------------------------------------------------------ mixtures of unitaries


def test_single_unitary_mixture_preserves_entropy():
    u = random_unitary(3, seed=21)
    c = mixture_of_unitaries([1.0], [u])
    rho = random_density(3, 2, seed=22)
    assert abs(vn_nats(c.apply_matrix(rho.matrix)) - vn_nats(rho.matrix)) < 1e-11


def test_uniform_weyl_mixture_fully_depolarizes():
    system = weyl.weyl_system(3)
    us = [system.unitary(g) for g in system.elements]
    c = mixture_of_unitaries([1.0 / 9.0] * 9, us)
    rho = random_density(3, 3, seed=23)
    assert np.abs(c.apply_matrix(rho.matrix) - np.eye(3) / 3).max() < 1e-12


def test_depolarizing_equals_weyl_mixture():
    l, p = 3, 0.8
    system = weyl.weyl_system(l)
    weights, us = [], []
    for g in system.elements:
        us.append(system.unitary(g))
        weights.append(1 - (l * l - 1) * p / (l * l) if g == (0, 0) else p / (l * l))
    c = mixture_of_unitaries(weights, us)
    assert choi_distance(c, depolarizing(l, p)) < 1e-12


def test_mixture_is_unital():
    us = [random_unitary(2, seed=s) for s in range(3)]
    checks = structural_checks(mixture_of_unitaries([0.2, 0.3, 0.5], us))
    assert checks.unital


# ------------------------------------------------------ conditional expectation
# The uniform conjugation average over a family, as the verify claims apply it.


def test_conditional_expectation_phases_extracts_diagonal():
    system = weyl.weyl_system(3)
    x = random_density(3, 3, seed=24).matrix
    out = _family_average(weyl.phase_subgroup(system), x)
    assert np.abs(out - np.diag(np.diag(x))).max() < 1e-12


def test_conditional_expectation_shifts_circulant():
    system = weyl.weyl_system(2)
    out = _family_average(weyl.diagonal_subgroup(system, 0), np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-13


def test_conditional_expectation_idempotent():
    system = weyl.weyl_system(3)
    for family in weyl.all_order_l_subgroups(system):
        assert np.abs(_family_average(family, np.eye(3, dtype=complex)) - np.eye(3)).max() <= 1e-12
        for unit in matrix_units(3):
            once = _family_average(family, unit)
            assert np.abs(_family_average(family, once) - once).max() <= 1e-12
            assert abs(np.trace(once) - np.trace(unit)) <= 1e-12


# ------------------------------------------------------------------ eq9 / eq12


@pytest.mark.parametrize("l,p", [(2, 0.5), (3, 1.0), (5, 0.4), (2, 4.0 / 3.0)])
def test_eq9_reconstruction(l, p):
    dec = eq9_decomposition(l, p)
    assert dec.choi_distance_to_depolarizing <= 1e-10
    assert abs(dec.c0 + (l - 1) * dec.c1 - 1.0 / l) <= 1e-12


def test_eq9_composite_rejected():
    with pytest.raises(UsageError, match="prime"):
        eq9_decomposition(4, 0.5)


def eq12_matrix_unit_reference(params):
    """The difference-projection map applied to each matrix unit, one term at a time."""
    l, q = params.l, params.q
    q_bar = (1.0 + sum(q[: l - 2])) / (l - 1)

    def diff_proj(r, j):
        d = np.zeros((l, l), dtype=complex)
        d[r, r] = 1.0
        d[j, j] = -1.0
        return d

    terms = []
    for s in range(1, l - 1):
        for r in range(l):
            j = r + s
            if j < l:
                terms.append((q_bar - q[s - 1], diff_proj(r, j)))
    terms.append((q_bar - q[0], diff_proj(0, l - 1)))
    damping_coeff = schur_matrix(params)
    entry = np.zeros((l, l))
    for a in range(l):
        for b in range(l):
            unit = np.zeros((l, l), dtype=complex)
            unit[a, b] = 1.0
            out = q_bar * unit
            for coeff, d in terms:
                out = out + coeff * (d @ unit @ d)
            entry[a, b] = frobenius(out - damping_coeff[a, b] * unit)
    return float(np.sqrt((entry ** 2).sum())), entry


@pytest.mark.parametrize("l", range(2, 10))
def test_eq12_multiplier_equals_matrix_unit_reference(l):
    for seed in range(30):
        q = tuple(substream(seed, l).uniform(size=l - 1))
        params = PhaseDampingParams(l=l, q=q)
        report = eq12_representation(params)
        residual, entry = eq12_matrix_unit_reference(params)
        assert report.reconstruction_residual == residual
        assert np.array_equal(report.entry_residuals, entry)


def test_eq12_qubit_residual():
    # diagonal units pick up coefficient (2 - q1) instead of 1
    q1 = 0.5
    report = eq12_representation(PhaseDampingParams(l=2, q=(q1,)))
    assert report.q_bar == pytest.approx(1.0)
    assert report.entry_residuals[0, 0] == pytest.approx(1.0 - q1)
    assert report.entry_residuals[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert report.reconstruction_residual == pytest.approx(math.sqrt(2 * (1 - q1) ** 2))


def test_eq12_identity_case():
    report = eq12_representation(PhaseDampingParams(l=3, q=(1.0, 0.3)))
    assert report.reconstruction_residual <= 1e-12


def test_eq12_nonzero_for_general_coefficients():
    report = eq12_representation(PhaseDampingParams(l=5, q=(0.5, 0.5, 0.5, 0.5)))
    assert report.reconstruction_residual > 1e-3
    assert report.entry_residuals.shape == (5, 5)


# ------------------------------------------------------------------ invariants


def test_constructor_invariants_sweep():
    candidates = [
        depolarizing(2, 0.5), depolarizing(3, 4.0 * 9 / 8 / 4), depolarizing(5, 1.0),
        phase_damping(2, (0.0,)), phase_damping(5, (0.5, 0.5, 0.5, 0.5)),
        pauli_qubit(0.2, -0.2, 0.6), identity_channel(4),
        random_channel(3, 4, seed=30),
    ]
    for c in candidates:
        checks = structural_checks(c)
        assert checks.tp_residual <= 1e-10 * c.dim
        assert checks.choi_min_eigenvalue >= -1e-10


def test_channel_immutable():
    c = depolarizing(2, 0.5)
    with pytest.raises(ValueError):
        c.ops[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        c.choi[0, 0] = 5.0


def test_conditional_expectation_shift_average_is_circulant():
    system = weyl.weyl_system(3)
    x = random_density(3, 3, seed=25).matrix
    out = _family_average(weyl.diagonal_subgroup(system, 0), x)
    for d in range(3):
        diag = [out[j, (j + d) % 3] for j in range(3)]
        assert max(abs(v - diag[0]) for v in diag) < 1e-12


def choi_reduced(c):
    """Reference reduction: Kraus operators from the Choi matrix's eigenvectors."""
    values, vectors = np.linalg.eigh(c.choi)
    ops = [math.sqrt(g) * v.reshape(c.dim, c.dim) for g, v in zip(values, vectors.T) if g > 1e-12 * c.dim]
    return kraus_channel(np.array(ops))


def damped_depolarizing(l, p, q):
    return phase_damping(l, q).compose(depolarizing(l, p))


REDUCED_CASES = {
    **{f"random-d{d}": (lambda d=d: random_channel(d, d * d + 3, seed=60 + d), None) for d in (2, 3, 4, 6)},
    **{f"xi-l{l}": (lambda l=l: damped_depolarizing(l, 0.3, (0.5,) * (l - 1)), l) for l in (2, 3, 5, 7)},
    "xi-l5-noncirculant": (lambda: damped_depolarizing(5, 0.3, (0.6, 0.5, 0.4, 0.0)), 5),
    "xi-l3-cp-bound": (lambda: damped_depolarizing(3, 9 / 8, (0.5, 0.5)), 3),
    "xi-l5-cp-bound": (lambda: damped_depolarizing(5, 25 / 24, (0.5,) * 4), 5),
}


@pytest.mark.parametrize("case", list(REDUCED_CASES))
def test_reduced_is_equivalent_and_small(case):
    build, l = REDUCED_CASES[case]
    c = build()
    assert c.ops.shape[0] > c.dim ** 2
    small = c.reduced()
    assert "choi" not in vars(c)  # the reduction never builds the Choi matrix
    assert choi_distance(small, c) <= 1e-12
    assert small.ops.shape[0] == choi_reduced(c).ops.shape[0]
    for unit in matrix_units(c.dim):
        assert np.abs(small.apply_matrix(unit) - c.apply_matrix(unit)).max() < 1e-12
    if l is None:
        return
    # Damping after depolarizing keeps one Weyl shift per operator: l nonzeros each.
    assert [np.count_nonzero(k) for k in small.ops] == [l] * small.ops.shape[0]
    if l == 5:
        square = small.tensor(small)
        assert square.ops.size - np.count_nonzero(square.ops) == 375_000


def test_reduced_noop_when_already_small():
    c = depolarizing(2, 0.5)
    assert c.reduced() is c
