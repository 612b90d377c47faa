"""Every stacked-GEMM Kraus contraction against a plain einsum reference.

The references below are the direct index forms of each operation.  The fast
paths sum in a different order, so agreement is required within
1e-12 * dim * scale, with scale the Frobenius norm of the reference (at least 1).
"""
import numpy as np
import pytest

from qchan.channels import (
    Channel,
    KrausChannel,
    ProductChannel,
    choi_matrix,
    depolarizing,
    gram_matrix,
    phase_damping,
    structural_checks,
)
from qchan.errors import UsageError
from qchan.optimize import GRAD_FLOOR, entropy_gradient
from qchan.rng import substream
from qchan.states import PureState
from qchan.verify import check_additivity, check_multiplicativity, verify_prop3, verify_theorem

from helpers import random_channel, random_pure

TOL = 1e-12

CASES = [(d, m) for d in range(2, 10) for m in (1, d, d * d)]


def _ids(case):
    return f"d{case[0]}-m{case[1]}"


# ---------------------------------------------------------------------------
# Reference implementations


def ref_apply_matrix(ops, x):
    return np.einsum("kij,jl,kml->im", ops, x, ops.conj())


def ref_adjoint_apply(ops, y):
    return np.einsum("kji,jl,klm->im", ops.conj(), y, ops)


def ref_pure_output(ops, amps):
    v = np.einsum("kij,j->ki", ops, amps)
    return np.einsum("ka,kb->ab", v, v.conj())


def ref_compose(a, b):
    d = a.shape[1]
    return np.einsum("aij,bjk->abik", a, b).reshape(-1, d, d)


def ref_tensor(a, b):
    return np.array([np.kron(x, y) for x in a for y in b])


def ref_gram(ops):
    return np.einsum("kji,kjl->il", ops.conj(), ops)


def ref_unitality(ops):
    return np.einsum("kij,klj->il", ops, ops.conj())


def ref_choi(ops):
    vecs = ops.reshape(ops.shape[0], -1)
    return np.einsum("ka,kb->ab", vecs, vecs.conj())


def ref_entropy_gradient(ops, amps):
    vals, vecs = np.linalg.eigh(ref_pure_output(ops, amps))
    l_mat = np.einsum("ij,j,kj->ik", vecs, np.log(np.maximum(vals, GRAD_FLOOR)) + 1.0, vecs.conj())
    mpsi = ref_adjoint_apply(ops, l_mat) @ amps
    return -2.0 * (mpsi - np.vdot(amps, mpsi).real * amps)


def ref_random_channel_ops(dim, kraus_count, seed):
    rng = substream(seed)
    shape = (kraus_count, dim, dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values, vectors = np.linalg.eigh(ref_gram(g))
    inv_sqrt = np.einsum("ij,j,kj->ik", vectors, 1.0 / np.sqrt(values), vectors.conj())
    return np.einsum("kij,jl->kil", g, inv_sqrt)


# ---------------------------------------------------------------------------


def assert_close(fast, ref, dim):
    assert fast.shape == ref.shape
    scale = max(1.0, float(np.linalg.norm(ref)))
    assert float(np.linalg.norm(fast - ref)) <= TOL * dim * scale


def _channel(d, m):
    return random_channel(d, m, seed=1000 * d + m)


def _operator(d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_apply_matrix_and_adjoint(case):
    d, m = case
    c = _channel(d, m)
    x = _operator(d, d + m)
    assert_close(c.apply_matrix(x), ref_apply_matrix(c.ops, x), d)
    assert_close(c.adjoint_apply(x), ref_adjoint_apply(c.ops, x), d)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_apply_pure(case):
    d, m = case
    c = _channel(d, m)
    psi = random_pure(d, seed=d + m)
    assert_close(c.apply_pure(psi), ref_pure_output(c.ops, psi.amplitudes), d)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_gram_choi_and_random_channel(case):
    d, m = case
    c = _channel(d, m)
    assert_close(c.ops, ref_random_channel_ops(d, m, 1000 * d + m), d)
    assert_close(gram_matrix(c.ops), ref_gram(c.ops), d)
    assert_close(choi_matrix(c.ops), ref_choi(c.ops), d)
    assert_close(c.choi, ref_choi(c.ops), d)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_structural_checks(case):
    d, m = case
    c = _channel(d, m)
    eye = np.eye(d)
    # A rescaled stack is not trace preserving, so the raw-stack branch runs on
    # residuals far from zero as well as on a valid channel.
    scaled = 1.1 * c.ops
    for arg, raw in ((c, c.ops), (c.ops, c.ops), (scaled, scaled)):
        checks = structural_checks(arg)
        tp = float(np.linalg.norm(ref_gram(raw) - eye))
        unital = float(np.linalg.norm(ref_unitality(raw) - eye))
        choi_min = float(np.linalg.eigvalsh(ref_choi(raw))[0])
        assert abs(checks.witness["tp_residual"] - tp) <= TOL * d * max(1.0, tp)
        assert abs(checks.witness["unitality_residual"] - unital) <= TOL * d * max(1.0, unital)
        assert abs(checks.witness["choi_min_eigenvalue"] - choi_min) <= TOL * d * d


@pytest.mark.parametrize("d, m", [(2, 1), (3, 2), (3, 7), (4, 16), (5, 3)])
def test_unitality_matches_the_adjoint_gram(d, m):
    # Sum_k K_k K_k* is also the Gram matrix of the adjoint stack {K_k*}.
    c = _channel(d, m)
    eye = np.eye(d)
    for ops in (c.ops, 1.1 * c.ops):
        want = float(np.linalg.norm(gram_matrix(ops.conj().transpose(0, 2, 1)) - eye))
        got = structural_checks(ops).witness["unitality_residual"]
        assert abs(got - want) <= TOL * d * max(1.0, want)


def _xi(l):
    return phase_damping(l, (0.5,) * (l - 1)).compose(depolarizing(l, 0.3)).reduced()


# structural_checks solves the Choi spectrum block by block over the
# operators' support; each case has a different block structure.
BLOCK_CASES = {
    "dense-one-block": lambda: random_channel(4, 16, seed=5),
    "depolarizing-l-blocks": lambda: depolarizing(3, 0.4),
    # Diagonal operators leave every off-diagonal vec index untouched.
    "phase-damping-isolated": lambda: phase_damping(3, (0.5, 0.3)),
    "xi-squared-l3": lambda: _xi(3).tensor(_xi(3)).reduced(),
    "xi-times-phi": lambda: _xi(3).tensor(depolarizing(2, 0.5)),
    "scaled-raw-stack": lambda: 1.1 * _xi(3).tensor(_xi(3)).reduced().ops,
    "zero-operator": lambda: np.concatenate([depolarizing(3, 0.4).ops, np.zeros((1, 3, 3))]),
    # Operator k is nonzero at vec indices k and k+1: one block, linked only
    # through a chain of operators.
    "chained-supports": lambda: _chained(3),
}


def _chained(d):
    rng = np.random.default_rng(3)
    vecs = np.zeros((d * d - 1, d * d), dtype=complex)
    for k in range(d * d - 1):
        vecs[k, k:k + 2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return vecs.reshape(-1, d, d)


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_choi_spectrum_by_blocks(name):
    c = BLOCK_CASES[name]()
    ops = c.ops if isinstance(c, Channel) else c
    d = ops.shape[1]
    choi_min = float(np.linalg.eigvalsh(ref_choi(ops))[0])
    checks = structural_checks(c)
    assert abs(checks.witness["choi_min_eigenvalue"] - choi_min) <= TOL * d * d
    if name == "phase-damping-isolated":
        assert checks.witness["choi_min_eigenvalue"] == 0.0
    if isinstance(c, Channel):
        assert "choi" not in vars(getattr(c, "dense", c))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_compose(case):
    d, m = case
    a = _channel(d, m)
    b = _channel(d, max(1, m // d))
    assert_close(a.compose(b).ops, ref_compose(a.ops, b.ops), d)


@pytest.mark.parametrize("da,ma,db,mb", [(2, 4, 3, 9), (3, 3, 2, 1), (2, 1, 5, 5), (4, 16, 2, 2)])
def test_tensor_unequal_dimensions(da, ma, db, mb):
    a = _channel(da, ma)
    b = _channel(db, mb)
    ops = ref_tensor(a.ops, b.ops)
    ab = a.tensor(b)
    assert ab.dim == da * db
    assert_close(ab.ops, ops, da * db)
    assert_close(ab.choi, ref_choi(ops), da * db)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_entropy_gradient(case):
    d, m = case
    c = _channel(d, m)
    psi = random_pure(d, seed=7 * d + m)
    assert_close(entropy_gradient(c, psi), ref_entropy_gradient(c.ops, psi.amplitudes), d)


# ---------------------------------------------------------------------------
# Products applied factor by factor, against the dense product stack


def _cp_bound_depolarizing(l):
    # At p = l^2 / (l^2 - 1) the identity's Weyl weight is zero.
    return depolarizing(l, l * l / (l * l - 1))


PRODUCT_CASES = {
    "random-2x3": lambda: (_channel(2, 3), _channel(3, 2)),
    "random-4x2": lambda: (_channel(4, 5), _channel(2, 4)),
    "cp-bound-3x2": lambda: (_cp_bound_depolarizing(3), _channel(2, 3)),
    "random-2x-cp-bound-4": lambda: (_channel(2, 1), _cp_bound_depolarizing(4)),
    "xi-3x-cp-bound-2": lambda: (_xi(3), _cp_bound_depolarizing(2)),
}


def _product_operands(ab, seed):
    """A pure state, one operator and a (2, 3) stack of operators on ab's space."""
    d = ab.dim
    stack = np.array([_operator(d, seed + i) for i in range(6)]).reshape(2, 3, d, d)
    return random_pure(d, seed=seed).amplitudes, _operator(d, seed + 10), stack


def _assert_applies_match(ab, dense, y, stack):
    """Both applies on one operator and on a (2, 3) stack, against the dense product stack."""
    for apply, ref in ((ab.apply_matrix, ref_apply_matrix), (ab.adjoint_apply, ref_adjoint_apply)):
        assert_close(apply(y), ref(dense, y), ab.dim)
        want = np.array([ref(dense, x) for x in stack.reshape(-1, ab.dim, ab.dim)])
        assert_close(apply(stack), want.reshape(stack.shape), ab.dim)


@pytest.mark.parametrize("name", PRODUCT_CASES)
def test_product_factorwise_against_the_dense_stack(name):
    a, b = PRODUCT_CASES[name]()
    ab = a.tensor(b)
    assert isinstance(ab, ProductChannel) and ab.dim == a.dim * b.dim
    dense = ref_tensor(a.ops, b.ops)
    amps, y, stack = _product_operands(ab, a.dim + 7 * b.dim)
    assert_close(ab.pure_output(amps), ref_pure_output(dense, amps), ab.dim)
    _assert_applies_match(ab, dense, y, stack)
    assert "dense" not in vars(ab)  # no path built the product's Kraus stack
    assert_close(entropy_gradient(ab, PureState(amps)), ref_entropy_gradient(dense, amps), ab.dim)
    assert "dense" not in vars(ab)
    assert_close(ab.ops, dense, ab.dim)


@pytest.mark.parametrize("nest", ["left", "right", "power"])
def test_nested_products_against_the_dense_stack(nest):
    a, b = _channel(2, 3), _channel(3, 2)
    if nest == "left":
        abc, dense = a.tensor(b).tensor(a), ref_tensor(ref_tensor(a.ops, b.ops), a.ops)
    elif nest == "right":
        abc, dense = a.tensor(b.tensor(a)), ref_tensor(a.ops, ref_tensor(b.ops, a.ops))
    else:
        abc, dense = a.tensor(a).tensor(a), ref_tensor(ref_tensor(a.ops, a.ops), a.ops)
    inner = abc.b if nest == "right" else abc.a
    amps, y, stack = _product_operands(abc, 31)
    assert_close(abc.pure_output(amps), ref_pure_output(dense, amps), abc.dim)
    assert "dense" not in vars(inner)  # a nested product's output goes factor by factor
    _assert_applies_match(abc, dense, y, stack)
    assert "dense" not in vars(abc) and "dense" not in vars(inner)
    assert_close(abc.ops, dense, abc.dim)


@pytest.mark.parametrize("shape", [(5, 5), (2, 7, 7), (6,), (6, 5)])
def test_product_applies_refuse_a_wrong_operand_dimension(shape):
    ab = _channel(2, 3).tensor(_channel(3, 2))
    for apply in (ab.apply_matrix, ab.adjoint_apply):
        with pytest.raises(UsageError, match="channel dimension 6"):
            apply(np.zeros(shape, dtype=complex))


def _no_dense_stack(self):
    raise AssertionError("a product's Kraus stack was built")


def _dense_tensor(self, other):
    """A tensor product as one dense Kraus stack: the reference joint channel."""
    return ProductChannel(self, other).dense


@pytest.mark.parametrize("l", [2, 3, 5])
def test_pair_checks_on_products_match_the_dense_joint_channel(l, monkeypatch):
    xi, phi = _xi(l), depolarizing(l, 0.3)
    restarts = 2

    def run():
        return (check_additivity(xi, phi, restarts=restarts, seed=l),
                check_multiplicativity(xi, phi, 2.0, restarts=restarts, seed=l))

    with monkeypatch.context() as patch:
        patch.setattr(ProductChannel, "dense", property(_no_dense_stack))
        additivity, multiplicativity = run()
    monkeypatch.setattr(KrausChannel, "tensor", _dense_tensor)
    dense_additivity, dense_multiplicativity = run()
    assert abs(additivity.s_min_joint - dense_additivity.s_min_joint) <= 1e-10
    assert abs(additivity.gap - dense_additivity.gap) <= 1e-10
    assert abs(multiplicativity.lhs - dense_multiplicativity.lhs) <= 1e-10
    assert abs(multiplicativity.margin - dense_multiplicativity.margin) <= 1e-10
    assert additivity.passed and multiplicativity.passed


@pytest.mark.parametrize("l", [2, 3])
def test_theorem_and_prop3_apply_products_without_the_dense_stack(l, monkeypatch):
    def run():
        return (*verify_theorem(l, 0.3, (0.5,) * (l - 1), restarts=2, seed=l, eq13_samples=6),
                verify_prop3(l, 0.3, samples=12, seed=l),
                verify_prop3(l, 0.3, samples=12, seed=l, mode="search", search_count=5))

    with monkeypatch.context() as patch:
        patch.setattr(ProductChannel, "dense", property(_no_dense_stack))
        checks = run()
    monkeypatch.setattr(KrausChannel, "tensor", _dense_tensor)
    for check, dense in zip(checks, run(), strict=True):
        assert check.claim_id == dense.claim_id and check.passed
        assert abs(check.margin - dense.margin) <= 1e-10
