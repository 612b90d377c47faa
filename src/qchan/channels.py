"""Quantum channels in Kraus form: algebra, constructors, structural checks.

Channel equality is decided by Choi-matrix distance (Frobenius); the Choi
matrix uses the unnormalized maximally entangled reference, so Tr(choi) = dim
and complete positivity means choi eigenvalues >= -CP_EIG_TOL.  The Choi
matrix of a Kraus stack is block diagonal over the operators' support: the
vec indices that one operator's nonzero entries link.  ``choi_distance`` sums
the distance block by block over the support of both stacks, and the
structural checks solve the Choi spectrum block by block; each block is built
from its own operators only, so neither builds the dense Choi matrix.  For
the paper's Weyl-covariant channels every Kraus operator carries one shift,
and the l = 5 tensor square has 25 blocks of 25.  ``KrausChannel.choi``
builds the dense matrix, the reference that tests compare against.

A tensor product is a ``ProductChannel``: its pure-state output, its apply
and its adjoint apply act one factor at a time.  Its dense Kraus stack is
built only when ``ops``, ``adjoint_ops``, ``gram``, ``choi``, ``compose`` or
``reduced()`` reads it.

``kraus_channel`` validates trace preservation with the Gram Sum_k K_k* K_k
and keeps it on the channel (``KrausChannel.gram``, a cached value outside
the dataclass fields, so it takes no part in comparison), where
``structural_checks`` reads it instead of summing the stack again.

``structural_checks`` returns the ``channel_info`` ``reporting.Check``; the
eq9 and eq12 constructions return plain values, from which ``verify`` builds
their checks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import weyl as weyl_mod
from .errors import (
    CapacityError,
    NotCompletelyPositiveError,
    UsageError,
    ValidationError,
)
from .linalg import (
    as_complex_matrix,
    dagger,
    frobenius,
    frozen,
    hermitian_eig,
    hermitian_eigvals,
)
from .reporting import Check
from .states import DensityMatrix, PureState, density_from_matrix

# Trace-preservation / unitality residual limit, scaled by dim.
TP_TOL = 1e-10
# Choi eigenvalues above this are accepted as CP.
CP_EIG_TOL = 1e-10
# Channels whose Choi matrices are closer than this are considered equal.
CHOI_EQ_TOL = 1e-11
# Largest dimension of a tensor product channel or of a loaded file; read at call time.
DIM_CAP = 4096


#: Largest (matrices, m d, d) intermediate, in bytes, that ``apply_matrix``
#: builds for a stack at once; a larger stack is applied in parts, with equal
#: results.  One matrix always goes whole.  At this size a stacked apply needs
#: no more memory than the single-matrix applies of the l <= 3 claims did; a
#: product hands each factor a stack of blocks, so at l = 5 a part is still
#: several matrices for every channel.  The Gram and unitality sums run over
#: parts of a Kraus stack of at most this size too.
APPLY_STACK_BYTES = 256 * 1024


# Sums over the Kraus index k run on the stack of shape (m, d, d) reshaped to a
# matrix ((m*d, d), or (d*m, d) after moving k inward), so each sum is one BLAS
# matrix product; numpy runs the equivalent einsum forms as plain loops.


def _sum_over_runs(ops: np.ndarray, term) -> np.ndarray:
    """Sum of ``term(run)`` over runs of at most APPLY_STACK_BYTES of the stack's operators.

    A stack that fits in one run is one ``term(ops)``, so its bits do not
    depend on the run size; a larger one is never copied whole.
    """
    per = max(1, APPLY_STACK_BYTES // (ops.itemsize * ops.shape[1] * ops.shape[2]))
    total = term(ops[:per])
    for first in range(per, len(ops), per):
        total += term(ops[first:first + per])
    return total


def _gram_term(ops: np.ndarray) -> np.ndarray:
    m, d, _ = ops.shape
    stacked = ops.reshape(m * d, d)
    return stacked.conj().T @ stacked


def _unitality_term(ops: np.ndarray) -> np.ndarray:
    # Row i of ``rows`` holds row i of every K_k, so rows rows* = Sum_k K_k K_k*.
    rows = ops.transpose(1, 0, 2).reshape(ops.shape[1], -1)
    return rows @ rows.conj().T


def gram_matrix(ops: np.ndarray) -> np.ndarray:
    """Sum_k K_k* K_k of a Kraus stack; the identity iff the map is trace preserving."""
    return _sum_over_runs(ops, _gram_term)


def choi_matrix(ops: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix Sum_k vec(K_k) vec(K_k)* with row-major vec."""
    vecs = ops.reshape(ops.shape[0], -1)
    return vecs.T @ vecs.conj()


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sum_k L_k x R_k for two (m, d, d) stacks; ``x`` may carry leading batch axes."""
    m, d, _ = left.shape
    # Row (i, k) holds row i of L_k, so one product yields every L_k x side by side.
    rows = left.transpose(1, 0, 2).reshape(d * m, d)
    return (rows @ x).reshape(*x.shape[:-2], d, m * d) @ right.reshape(m * d, d)


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map as a stack of Kraus operators."""

    ops: np.ndarray  # shape (m, dim, dim), read-only
    dim: int

    @functools.cached_property
    def choi(self) -> np.ndarray:
        """Dense Choi matrix, shape (dim^2, dim^2), built on first read and read-only.

        The checks and distances never read it: it is the reference for their
        block-wise paths.
        """
        return frozen(choi_matrix(self.ops))

    @functools.cached_property
    def adjoint_ops(self) -> np.ndarray:
        """The stack {K_k*}, shape (m, dim, dim), built on first read and read-only."""
        return frozen(np.ascontiguousarray(dagger(self.ops)))

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Sum_k K_k* K_k, shape (dim, dim), read-only; ``kraus_channel`` keeps the one it validated."""
        return frozen(gram_matrix(self.ops))

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """Sum_k K_k x K_k* on an arbitrary operator, or on each of a stack of them."""
        x = as_complex_matrix(x, stack=True)
        if x.shape[-1] != self.dim:
            raise UsageError(f"operator dimension {x.shape[-1]} != channel dimension {self.dim}")
        adjoint = self.adjoint_ops
        part = max(1, APPLY_STACK_BYTES // (x.itemsize * self.ops.shape[0] * self.dim ** 2))
        flat = x.reshape(-1, self.dim, self.dim)
        if len(flat) <= part:
            return _sandwich(self.ops, x, adjoint)
        parts = [_sandwich(self.ops, flat[i:i + part], adjoint) for i in range(0, len(flat), part)]
        return np.concatenate(parts).reshape(x.shape)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply to a state; the output is validated as a state."""
        if rho.dim != self.dim:
            raise UsageError(f"state dimension {rho.dim} != channel dimension {self.dim}")
        return density_from_matrix(self.apply_matrix(rho.matrix))

    def apply_pure(self, psi: PureState) -> np.ndarray:
        """Output density matrix for a pure input (fast path, not revalidated)."""
        if psi.dim != self.dim:
            raise UsageError(f"state dimension {psi.dim} != channel dimension {self.dim}")
        return self.pure_output(psi.amplitudes)

    def pure_output(self, amps: np.ndarray) -> np.ndarray:
        """Sum_k K_k psi psi* K_k* for raw amplitudes psi (not validated)."""
        m, d, _ = self.ops.shape
        v = (self.ops.reshape(m * d, d) @ amps).reshape(m, d)
        return v.T @ v.conj()

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action Sum_k K_k* y K_k, on one operator or on each of a stack."""
        y = as_complex_matrix(y, stack=True)
        return _sandwich(self.adjoint_ops, y, self.ops)

    def compose(self, other: Channel) -> KrausChannel:
        """self after other: Kraus set {A_i B_j}."""
        if self.dim != other.dim:
            raise UsageError(f"cannot compose channels of dimensions {self.dim} and {other.dim}")
        prod = self.ops[:, None] @ other.ops[None, :]
        return kraus_channel(prod.reshape(-1, self.dim, self.dim))

    def tensor(self, other: Channel) -> ProductChannel:
        """Tensor product channel, applied factor by factor; refused above DIM_CAP."""
        return _product(self, other)

    def reduced(self) -> KrausChannel:
        """Equivalent channel with at most dim^2 Kraus operators, each a Weyl combination.

        Composing and tensoring multiply operator counts; this trims the
        redundancy.  With c_kg = Tr(W_g* K_k) / dim over the Weyl basis of
        dimension dim, the process matrix chi = c^T conj(c) has the Choi
        eigenvalues divided by dim, and each eigenpair (lambda, v) above 1e-12
        gives the operator sqrt(lambda) Sum_g v_g W_g.  A channel whose Kraus
        operators each carry one shift, such as damping after depolarizing,
        has a chi that is block diagonal by shift, so each reduced operator
        carries one shift too and has dim nonzero entries.  The Choi distance
        to the original is float noise.
        """
        d = self.dim
        if self.ops.shape[0] <= d * d:
            return self
        system = weyl_mod.weyl_system(d)
        basis = np.array([system.unitary(g) for g in system.elements]).reshape(d * d, d * d)
        coeffs = self.ops.reshape(-1, d * d) @ basis.conj().T / d
        values, vectors = hermitian_eig(coeffs.T @ coeffs.conj())
        keep = values > 1e-12
        return kraus_channel(((vectors[:, keep] * np.sqrt(values[keep])).T @ basis).reshape(-1, d, d))


def _product(a: Channel, b: Channel) -> ProductChannel:
    composite = a.dim * b.dim
    if composite > DIM_CAP:
        raise CapacityError(f"composite dimension {composite} exceeds cap {DIM_CAP}")
    return ProductChannel(a, b)


@dataclass(frozen=True)
class ProductChannel:
    """The tensor product a (x) b, applied one factor at a time.

    An operand on the composite space, index (i_a, i_b) -> i_a * b.dim + i_b,
    is reshaped to (d_a, d_b, d_a, d_b); each factor then acts on the stack of
    blocks that its own indices address.  ``pure_output``, ``apply_matrix``
    and ``adjoint_apply`` never build the product's Kraus stack.  ``ops``,
    ``adjoint_ops``, ``gram``, ``choi``, ``compose`` and ``reduced()`` read
    ``dense``, the Kraus set {A_i (x) B_j}, built and validated on first read.
    """

    a: Channel
    b: Channel

    @property
    def dim(self) -> int:
        return self.a.dim * self.b.dim

    @functools.cached_property
    def dense(self) -> KrausChannel:
        """The product as one Kraus stack, built on first read."""
        # Axes (i, j, row_a, row_b, col_a, col_b): entry A_i[r_a, c_a] B_j[r_b, c_b]
        # is np.kron(A_i, B_j)[r_a * db + r_b, c_a * db + c_b].
        outer = self.a.ops[:, None, :, None, :, None] * self.b.ops[None, :, None, :, None, :]
        return kraus_channel(outer.reshape(-1, self.dim, self.dim))

    @property
    def ops(self) -> np.ndarray:
        return self.dense.ops

    @property
    def adjoint_ops(self) -> np.ndarray:
        return self.dense.adjoint_ops

    @property
    def gram(self) -> np.ndarray:
        return self.dense.gram

    @property
    def choi(self) -> np.ndarray:
        return self.dense.choi

    def reduced(self) -> KrausChannel:
        return self.dense.reduced()

    def compose(self, other: Channel) -> KrausChannel:
        return self.dense.compose(other)

    def tensor(self, other: Channel) -> ProductChannel:
        return _product(self, other)

    def pure_output(self, amps: np.ndarray) -> np.ndarray:
        """(a (x) id)((id (x) b)(psi psi*)) for raw amplitudes psi (not validated).

        A factor that is itself a product has no Kraus stack of its own, so
        then the output is ``apply_matrix`` of psi psi*, factor by factor.
        """
        if isinstance(self.a, ProductChannel) or isinstance(self.b, ProductChannel):
            return self.apply_matrix(np.outer(amps, amps.conj()))
        da, db = self.a.dim, self.b.dim
        b_ops = self.b.ops
        # v[j, r_b, r_a] = (B_j psi^T)[r_b, r_a] with psi as a (d_a, d_b) matrix.
        v = b_ops.reshape(-1, db) @ amps.reshape(da, db).T
        vecs = v.reshape(b_ops.shape[0], db * da)
        half = (vecs.T @ vecs.conj()).reshape(db, da, db, da).transpose(0, 2, 1, 3)
        out = _sandwich(self.a.ops, half, self.a.adjoint_ops)  # (r_b, c_b, r_a, c_a)
        return out.transpose(2, 0, 3, 1).reshape(self.dim, self.dim)

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """Sum_ij (A_i (x) B_j) x (A_i (x) B_j)*, one factor at a time, on one operator or a stack."""
        return self._factorwise(x, self.a.apply_matrix, self.b.apply_matrix)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action, one factor at a time, on one operator or on each of a stack."""
        return self._factorwise(y, self.a.adjoint_apply, self.b.adjoint_apply)

    def _factorwise(self, x: np.ndarray, a_map, b_map) -> np.ndarray:
        """b_map on the (r_b, c_b) blocks of x, then a_map on the (r_a, c_a) blocks."""
        x = np.asarray(x)
        if x.shape[-2:] != (self.dim, self.dim):
            raise UsageError(f"operator shape {x.shape} does not end in channel dimension {self.dim}")
        n = x.ndim - 2
        t = x.reshape(*x.shape[:n], self.a.dim, self.b.dim, self.a.dim, self.b.dim)
        t = b_map(t.transpose(*range(n), n, n + 2, n + 1, n + 3))
        t = a_map(t.swapaxes(n, n + 2).swapaxes(n + 1, n + 3))
        return t.transpose(*range(n), n + 2, n, n + 3, n + 1).reshape(x.shape)


#: A channel in either form: one Kraus stack, or a product applied factor by factor.
Channel = KrausChannel | ProductChannel


def kraus_channel(ops) -> KrausChannel:
    """Validate a Kraus operator list/stack and build the channel."""
    arr = np.asarray(ops, dtype=complex)
    if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] != arr.shape[2]:
        raise ValidationError(f"expected a nonempty stack of square Kraus operators, got shape {arr.shape}")
    dim = arr.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = gram_matrix(arr)
        tp_residual = frobenius(gram - np.eye(dim))
    # A non-finite entry makes the Gram non-finite, and so do huge finite ones.
    if not np.isfinite(gram).all() and _sum_over_runs(arr, lambda run: int(not np.isfinite(run).all())):
        raise ValidationError("Kraus operators must have finite entries")
    if not tp_residual <= TP_TOL * dim:
        raise ValidationError(
            f"trace preservation violated: ||Sum K*K - I||_F = {tp_residual:.3e} "
            f"exceeds {TP_TOL:.0e} * dim"
        )
    channel = KrausChannel(ops=frozen(arr), dim=dim)
    # Kept as a first read of the cached ``gram`` would keep it.
    channel.__dict__["gram"] = frozen(gram)
    return channel


def choi_distance(a: Channel, b: Channel) -> float:
    """Frobenius distance between Choi matrices; the channel equality metric.

    Summed over the support blocks of both Kraus stacks (``_support_blocks``),
    each block's difference built from its own operators; an index that no
    operator touches adds nothing.  No dense Choi matrix is built.
    """
    if a.dim != b.dim:
        raise UsageError(f"cannot compare channels of dimensions {a.dim} and {b.dim}")
    squares = 0.0
    for va, vb in _support_blocks(a.ops, b.ops):
        diff = (va.swapaxes(-1, -2) @ va.conj() - vb.swapaxes(-1, -2) @ vb.conj()).reshape(-1)
        squares += float(diff.real @ diff.real + diff.imag @ diff.imag)
    return math.sqrt(squares)


def _support_blocks(*stacks: np.ndarray):
    """The Choi support blocks of one or two Kraus stacks, one group at a time.

    Choi entry (a, b) is zero unless some operator is nonzero at both vec
    indices a and b.  Linked where an operator of either stack is nonzero at
    both, the indices fall into components over which each stack's Choi
    matrix is block diagonal, with every nonzero operator in one block; an
    index that no operator touches is a block with no operators.  Blocks of
    equal size and equal operator counts form a group.  Yields, per group, one
    (blocks, count, size) array per stack: row k of block b holds v_k[S_b]
    for the block's k-th operator of that stack, so the stack's Choi block is
    the array's transpose times its conjugate.  A dense stack is one block.
    """
    vecs = [ops.reshape(ops.shape[0], -1) for ops in stacks]
    n = vecs[0].shape[1]
    offsets = np.cumsum([0] + [len(v) for v in vecs])
    found = [np.nonzero(v) for v in vecs]
    op_at = np.concatenate([at + first for (at, _), first in zip(found, offsets)])
    index_at = np.concatenate([indices for _, indices in found])
    # A generator's locals live until its last group: free these lists early.
    del found
    # Each index is labelled with the smallest index of its component.  A pass
    # carries every label across one more operator; labels only fall, so the
    # passes end, and once they settle each operator's label is its block's.
    labels = np.arange(n)
    while True:
        op_label = np.full(offsets[-1], n)  # n: an operator that is zero
        np.minimum.at(op_label, op_at, labels[index_at])
        settled = labels.copy()
        np.minimum.at(settled, index_at, op_label[op_at])
        if np.array_equal(settled, labels):
            break
        labels = settled
    del op_at, index_at
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    block_of = np.full(n + 1, -1)
    block_of[labels[order[starts]]] = np.arange(len(starts))
    shape = [np.diff(starts, append=n)]  # block sizes, then operator counts
    op_order, op_starts = [], []
    for first, last in zip(offsets[:-1], offsets[1:]):
        block = block_of[op_label[first:last]]
        counts = np.bincount(block[block >= 0], minlength=len(starts))
        # Operators in block order, each block's in stack order; zero ones dropped.
        op_order.append(np.argsort(block, kind="stable")[np.count_nonzero(block < 0):])
        op_starts.append(np.cumsum(counts) - counts)
        shape.append(counts)
    keys, group_of = np.unique(np.stack(shape, axis=1), axis=0, return_inverse=True)
    group_of = group_of.reshape(-1)
    for g, (size, *counts) in enumerate(keys.tolist()):
        blocks = np.flatnonzero(group_of == g)
        members = order[starts[blocks][:, None] + np.arange(size)]
        out = []
        for v, ordered, first, count in zip(vecs, op_order, op_starts, counts):
            in_block = ordered[first[blocks][:, None] + np.arange(count)]
            out.append(v[in_block[:, :, None], members[:, None, :]])
        yield tuple(out)


def _choi_min_eigenvalue(ops: np.ndarray) -> float:
    """Smallest Choi eigenvalue of a Kraus stack, solved block by block.

    The Choi blocks of one group (``_support_blocks``) go to one stacked
    ``hermitian_eigvals`` call, which also checks each block's Hermiticity.
    An index that no operator touches is a zero block, eigenvalue 0.
    """
    return min(float(hermitian_eigvals(v.swapaxes(-1, -2) @ v.conj())[:, 0].min())
               for (v,) in _support_blocks(ops))


def structural_checks(c) -> Check:
    """The ``channel_info`` check: trace preservation, unitality and CP margins.

    Its margin is the smallest Choi eigenvalue, and it passes when the map is
    trace preserving and CP; the witness carries every residual and verdict.
    Accepts a channel in either form or a raw operator stack, so invalid
    Kraus sets (which the constructor refuses) can still be diagnosed.  The
    smallest Choi eigenvalue is solved by support blocks
    (``_choi_min_eigenvalue``): the whole dim^2 x dim^2 Choi matrix is formed
    only when the operators' support links every vec index into one block.
    A channel's Gram is the one it keeps (``KrausChannel.gram``, which
    ``kraus_channel`` stores when it validates the stack); a raw stack's is
    summed here.  The Gram and unitality sums add up parts of the stack, so no
    copy of the whole stack is made.
    """
    if isinstance(c, Channel):
        ops, dim, gram = c.ops, c.dim, c.gram
    else:
        ops = np.asarray(c, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[1] < 1:
            raise ValidationError(f"expected a stack of square operators, got shape {ops.shape}")
        dim = ops.shape[1]
        gram = gram_matrix(ops)
    eye = np.eye(dim)
    tp = frobenius(gram - eye)
    unital = frobenius(_sum_over_runs(ops, _unitality_term) - eye)
    choi_min = _choi_min_eigenvalue(ops)
    witness = {"dim": dim, "kraus_count": int(ops.shape[0]), "tp_residual": tp, "unitality_residual": unital,
               "choi_min_eigenvalue": choi_min, "trace_preserving": tp <= TP_TOL * dim,
               "unital": unital <= TP_TOL * dim, "completely_positive": choi_min >= -CP_EIG_TOL}
    return Check("channel_info", lhs=choi_min, rhs=0.0, margin=choi_min, tolerance=CP_EIG_TOL,
                 passed=witness["trace_preserving"] and witness["completely_positive"], witness=witness)


def identity_channel(dim: int) -> KrausChannel:
    return kraus_channel(np.eye(dim, dtype=complex)[None, :, :])


# ---------------------------------------------------------------------------
# Depolarizing channel


@dataclass(frozen=True)
class DepolarizingParams:
    """Mixing strength p with (1-p) x + (p/l) Tr(x) I; CP for p <= l^2/(l^2-1).

    p = 0 (the identity channel) is admitted as the degenerate limit.
    """

    l: int
    p: float

    def __post_init__(self):
        if int(self.l) != self.l or self.l < 2:
            raise UsageError(f"dimension l must be an integer >= 2, got {self.l}")
        bound = self.l * self.l / (self.l * self.l - 1)
        if not 0.0 <= self.p <= bound:
            raise UsageError(f"depolarizing p must lie in [0, {bound}], got {self.p}")


def depolarizing(l: int, p: float) -> KrausChannel:
    """Depolarizing channel in Kraus form via its Weyl mixture representation.

    Weight 1 - (l^2-1) p / l^2 on the identity and p / l^2 on each of the
    l^2 - 1 nonidentity Weyl unitaries.
    """
    params = DepolarizingParams(l=l, p=p)
    system = weyl_mod.weyl_system(params.l)
    mu_e = 1.0 - (l * l - 1) * p / (l * l)
    mu_g = p / (l * l)
    if mu_e < -1e-12:
        raise UsageError(f"depolarizing p={p} gives negative identity weight {mu_e}")
    mu_e = max(mu_e, 0.0)
    ops = []
    for g in system.elements:
        w = mu_e if g == system.identity else mu_g
        if w > 0.0:
            ops.append(math.sqrt(w) * system.unitary(g))
    return kraus_channel(np.array(ops))


# ---------------------------------------------------------------------------
# Phase damping (Schur multiplier) channel


@dataclass(frozen=True)
class PhaseDampingParams:
    """Damping coefficients q_1..q_{l-1}, each in [0, 1]; q_0 = 1 implicit.

    The multiplier scales entry (s, j) by q_|s-j| for |s-j| < l-1 and the
    two corner entries (1, l), (l, 1) by q_1, so q_{l-1} never enters the map.
    """

    l: int
    q: tuple[float, ...]

    def __post_init__(self):
        if int(self.l) != self.l or self.l < 2:
            raise UsageError(f"dimension l must be an integer >= 2, got {self.l}")
        q = tuple(float(v) for v in self.q)
        if len(q) != self.l - 1:
            raise UsageError(f"phase damping needs {self.l - 1} coefficients q_1..q_{self.l - 1}, got {len(q)}")
        for j, v in enumerate(q, start=1):
            if not 0.0 <= v <= 1.0:
                raise UsageError(f"phase damping coefficient q_{j} = {v} outside [0, 1]")
        object.__setattr__(self, "q", q)


def schur_matrix(params: PhaseDampingParams) -> np.ndarray:
    """Coefficient matrix C of the damping multiplier, read-only; C PSD iff the map is CP."""
    l = params.l
    distance = np.abs(np.subtract.outer(np.arange(l), np.arange(l)))
    distance[distance == l - 1] = 1  # the corners take q_1
    return frozen(np.array((1.0, *params.q))[distance])


def phase_damping(l: int, q) -> KrausChannel:
    """Schur-multiplier channel fixing every basis projection.

    Kraus operators are sqrt(gamma_i) diag(v_i) from the eigendecomposition of
    the coefficient matrix; a matrix that is not PSD is rejected as not CP.
    """
    gammas, vectors = np.linalg.eigh(schur_matrix(PhaseDampingParams(l=l, q=tuple(np.atleast_1d(q)))))
    if gammas[0] < -CP_EIG_TOL:
        raise NotCompletelyPositiveError(
            f"phase damping multiplier is not PSD: min eigenvalue {gammas[0]:.6e}", float(gammas[0])
        )
    ops = []
    for gamma, v in zip(gammas, vectors.T):
        if gamma > 0.0:
            ops.append(math.sqrt(gamma) * np.diag(v.astype(complex)))
    return kraus_channel(np.array(ops))


# ---------------------------------------------------------------------------
# Bistochastic qubit (Pauli mixture) channel

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_qubit(lambda1: float, lambda2: float, lambda3: float) -> KrausChannel:
    """Mixture of I, X, Y, Z scaling the Bloch components by the given factors."""
    weights = np.array([
        (1 + lambda1 + lambda2 + lambda3) / 4,
        (1 + lambda1 - lambda2 - lambda3) / 4,
        (1 - lambda1 + lambda2 - lambda3) / 4,
        (1 - lambda1 - lambda2 + lambda3) / 4,
    ])
    if weights.min() < -1e-12:
        raise NotCompletelyPositiveError(
            f"Pauli mixture weight {weights.min():.6e} is negative; map is not CP",
            float(weights.min()),
        )
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum()
    ops = []
    for w, sigma in zip(weights, (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)):
        if w > 0.0:
            ops.append(math.sqrt(w) * sigma)
    return kraus_channel(np.array(ops))


# ---------------------------------------------------------------------------
# Random channels


def random_channel_from(rng: np.random.Generator, dim: int, kraus_count: int) -> KrausChannel:
    """Random channel: Gaussian Kraus stack renormalized to trace preservation."""
    if kraus_count < 1:
        raise UsageError(f"kraus_count must be >= 1, got {kraus_count}")
    g = rng.standard_normal((kraus_count, dim, dim)) + 1j * rng.standard_normal((kraus_count, dim, dim))
    values, vectors = hermitian_eig(gram_matrix(g))
    inv_sqrt = (vectors / np.sqrt(values)) @ dagger(vectors)
    return kraus_channel((g.reshape(-1, dim) @ inv_sqrt).reshape(g.shape))


# ---------------------------------------------------------------------------
# Coset decomposition of the depolarizing channel


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def eq9_refusal(l: int) -> str | None:
    """Why the coset decomposition is refused at ``l``; None for prime ``l``.

    For composite l the subgroups G0k and G1 do not cover the group (for l = 4
    the element (2, 1) lies in none of them), so the decomposition's bookkeeping
    breaks down.
    """
    if _is_prime(l):
        return None
    counts = weyl_mod.covering_counts(weyl_mod.weyl_system(l))
    missing = sorted(g for g, count in counts.items() if count == 0)
    return (
        f"coset decomposition needs prime l; for l={l} the order-l subgroups "
        f"miss elements {missing[:4]}{'...' if len(missing) > 4 else ''}"
    )


def eq9_decomposition(l: int, p: float) -> tuple[KrausChannel, float, float]:
    """(reconstruction, c0, c1) of the coset decomposition; refused (UsageError) unless l is prime.

    reconstruction = c0 * Sum_k Phi_k + c1 * Sum_k Sum_{s>=1} U_(0,s) Phi_k(.) U_(0,s)*
    with Phi_k the lambda-mixture over the subgroup G0k.
    """
    DepolarizingParams(l=l, p=p)
    reason = eq9_refusal(l)
    if reason is not None:
        raise UsageError(reason)
    system = weyl_mod.weyl_system(l)
    lam0 = 1.0 - (l - 1) * p / l
    lam = (lam0,) + ((p / l),) * (l - 1)
    c0 = (1.0 / l) * (1.0 - (l * l - 1) * p / (l * l)) / lam0
    c1 = (1.0 / l) * (p / (l * l)) / lam0
    ops = []
    for k in range(l):
        family = weyl_mod.diagonal_subgroup(system, k)
        members = [system.unitary(g) for g in family.elements]
        for sp in range(l):
            phase_u = system.unitary((0, sp))
            for s, u in zip(lam, members):
                w = (c1 if sp else c0) * s
                if w > 0.0:
                    ops.append(math.sqrt(w) * (phase_u @ u))
    return kraus_channel(np.array(ops)), c0, c1


# ---------------------------------------------------------------------------
# Diagnostic reconstruction of the damping map from difference conjugations


def eq12_multiplier(params: PhaseDampingParams) -> tuple[np.ndarray, float]:
    """(multiplier, q_bar) of the difference-projection form of phase damping.

    The map q_bar x + Sum_{s=1}^{l-2} Sum_{|r-j|=s, r<j} (q_bar - q_s) D_rj x D_rj
    + (q_bar - q_1) D_1l x D_1l, with D_rj = |e_r><e_r| - |e_j><e_j| = diag(d) and
    q_bar = (1 + Sum_{j<=l-2} q_j)/(l-1), is the Schur multiplier q_bar + Sum coeff * d d^T
    (D x D = (d d^T) o x), summed s outer, r inner, then the corner term.
    """
    l = params.l
    q = params.q
    q_bar = (1.0 + sum(q[: l - 2])) / (l - 1)

    def diff(r: int, j: int) -> np.ndarray:
        d = np.zeros(l)
        d[r], d[j] = 1.0, -1.0
        return d

    terms = [(q_bar - q[s - 1], diff(r, r + s)) for s in range(1, l - 1) for r in range(l - s)]
    terms.append((q_bar - q[0], diff(0, l - 1)))
    multiplier = np.full((l, l), q_bar)
    for coeff, d in terms:
        multiplier = multiplier + coeff * np.outer(d, d)
    return multiplier, q_bar
