"""Dense complex linear algebra substrate.

Conventions used throughout the package:

- operators are square complex numpy arrays in row-major layout;
- functions documented as stack-aware also take a stack of operators with
  leading batch axes, shape (..., d, d), and act on each matrix; a single
  matrix is the batch-of-one case and gets the same bits alone or stacked;
- Kronecker products map the composite index pair ``(i_a, i_b)`` to
  ``i_a * dim_b + i_b`` (numpy order) -- every cross-module matrix equality
  relies on this;
- eigenvalues of nominally-PSD matrices in ``[-EIG_CLAMP_TOL, 0)`` are treated
  as roundoff and clamped to zero, anything lower is an error;
- entropy-class scalar functions use the convention ``0 * log 0 = 0``.
"""
from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from .errors import NotPositiveError, NumericalError, UsageError, ValidationError

HERMITICITY_RTOL = 1e-10
EIG_CLAMP_TOL = 1e-10
TRACE_TOL = 1e-10
UNIT_NORM_TOL = 1e-12
SIMPLEX_TOL = 1e-12


def as_complex_matrix(a: np.ndarray, stack: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a square, finite, complex matrix.

    With ``stack`` a stack of equal-size square matrices, shape (..., d, d),
    is accepted too.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValidationError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return m


def frobenius(a: np.ndarray):
    """Frobenius norm of a matrix, or of each matrix of a stack (stack-aware).

    The real and imaginary parts' sums of squares are vector dot products, as
    in numpy's own norm of a complex matrix, so a complex matrix gets numpy's
    bits alone or stacked.
    """
    a = np.asarray(a)
    rows = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
    parts = (rows.real, rows.imag) if np.iscomplexobj(a) else (rows,)
    norms = np.sqrt(sum((x @ x.swapaxes(-1, -2))[..., 0, 0] for x in parts))
    return float(norms) if a.ndim == 2 else norms


def first_index(flags: np.ndarray) -> tuple[int, ...]:
    """Batch index of the first true entry of ``flags``, in row-major order."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(flags)), flags.shape))


def stack_suffix(index: tuple[int, ...]) -> str:
    """Suffix naming a matrix of a stack in an error message; empty for one matrix."""
    return f" (matrix {index[0] if len(index) == 1 else index} of the stack)" if index else ""


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (stack-aware)."""
    return a.conj().swapaxes(-1, -2)


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it (values are immutable after construction)."""
    a.setflags(write=False)
    return a


def partial_trace(
    x: np.ndarray, dim_left: int, dim_right: int, side: Literal["left", "right"]
) -> np.ndarray:
    """Trace out the named tensor factor of ``x`` on a dim_left x dim_right space (stack-aware)."""
    x = as_complex_matrix(x, stack=True)
    dim = x.shape[-1]
    if dim_left < 1 or dim_right < 1 or dim_left * dim_right != dim:
        raise UsageError(f"dimension {dim} does not factor as {dim_left} x {dim_right}")
    t = x.reshape(*x.shape[:-2], dim_left, dim_right, dim_left, dim_right)
    if side == "left":
        return np.einsum("...ijik->...jk", t)
    if side == "right":
        return np.einsum("...ijkj->...ik", t)
    raise UsageError(f"side must be 'left' or 'right', got {side!r}")


def apply_left(
    a: np.ndarray, x: np.ndarray, dim_left: int, dim_right: int, conjugate: bool = False
) -> np.ndarray:
    """(a (x) I) x, or (a (x) I) x (a (x) I)* with ``conjugate`` (stack-aware).

    ``x`` acts on a dim_left x dim_right space, as in ``partial_trace``, and
    ``a`` on the left factor; a stack of ``a`` broadcasts against a stack of
    ``x``.  The operand is reshaped so that ``a`` meets the left index alone,
    and ``a (x) I`` is never built.  With dim_right = 1 the result is
    ``a @ x`` or ``a @ x @ dagger(a)``, bit for bit.
    """
    dim = x.shape[-1]
    if dim_left < 1 or dim_right < 1 or dim_left * dim_right != dim:
        raise UsageError(f"dimension {dim} does not factor as {dim_left} x {dim_right}")
    if a.shape[-2:] != (dim_left, dim_left):
        raise UsageError(f"left operator of shape {a.shape} does not act on dimension {dim_left}")
    if dim_right == 1:  # the reshapes below would be identities
        y = a @ x
        return y @ dagger(a) if conjugate else y
    y = a @ x.reshape(*x.shape[:-2], dim_left, dim_right * dim)
    batch = y.shape[:-2]
    if not conjugate:
        return y.reshape(*batch, dim, dim)
    # The right product as one (dim * dim_right, dim_left) @ a* product.
    rows = y.reshape(*batch, dim, dim_left, dim_right).swapaxes(-1, -2).reshape(*batch, -1, dim_left)
    z = rows @ dagger(a)
    return z.reshape(*batch, dim, dim_right, dim_left).swapaxes(-1, -2).reshape(*batch, dim, dim)


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*)/2 after checking that ``a`` is Hermitian within HERMITICITY_RTOL (stack-aware).

    A stack is refused for its first matrix that fails the check.
    """
    a = as_complex_matrix(a, stack=True)
    adjoint = dagger(a)
    skew = frobenius(a - adjoint)
    failed = np.asarray(skew > HERMITICITY_RTOL * np.maximum(frobenius(a), 1e-300))
    if failed.any():
        index = first_index(failed)
        raise ValidationError(
            f"matrix is not Hermitian within tolerance{stack_suffix(index)}: ||a - a*||_F = "
            f"{float(np.asarray(skew)[index]):.3e} > {HERMITICITY_RTOL:.1e} * ||a||_F"
        )
    return (a + adjoint) / 2


def hermitian_eig(a: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of ``a`` after checking Hermiticity within HERMITICITY_RTOL (stack-aware).

    The input is symmetrized as (a + a*)/2 before decomposition.
    """
    try:
        values, vectors = np.linalg.eigh(_hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return HermitianEigen(values, vectors)


def hermitian_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``a`` alone, after the same check as ``hermitian_eig``."""
    try:
        return np.linalg.eigvalsh(_hermitian_part(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solve failed to converge: {exc}") from exc


def clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in [-EIG_CLAMP_TOL, 0) to zero; genuinely negative ones are an error.

    Stack-aware over the last axis: a stack of spectra is refused for its
    first spectrum with an eigenvalue below -EIG_CLAMP_TOL.
    """
    values = np.asarray(values, dtype=float)
    if values.size and values.min() < -EIG_CLAMP_TOL:
        lowest = values.min(axis=-1)
        index = first_index(lowest < -EIG_CLAMP_TOL)
        worst = float(lowest[index])
        raise NotPositiveError(
            f"matrix has a negative eigenvalue {worst:.6e} beyond tolerance {-EIG_CLAMP_TOL:.1e}{stack_suffix(index)}",
            worst,
        )
    return np.maximum(values, 0.0)
