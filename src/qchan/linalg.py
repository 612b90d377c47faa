"""Dense complex linear algebra substrate.

Conventions used throughout the package:

- operators are square complex numpy arrays in row-major layout;
- Kronecker products map the composite index pair ``(i_a, i_b)`` to
  ``i_a * dim_b + i_b`` (numpy order) -- every cross-module matrix equality
  relies on this;
- the default Frobenius comparison scale is ``FROB_TOL_SCALE * dim * ||A||_F``;
- eigenvalues of nominally-PSD matrices in ``[-EIG_CLAMP_TOL, 0)`` are treated
  as roundoff and clamped to zero, anything lower is an error;
- entropy-class scalar functions use the convention ``0 * log 0 = 0``.
"""
from __future__ import annotations

from typing import Callable, Literal, NamedTuple

import numpy as np

from .errors import CapacityError, NotPositiveError, NumericalError, UsageError, ValidationError

FROB_TOL_SCALE = 1e-12
HERMITICITY_RTOL = 1e-10
EIG_CLAMP_TOL = 1e-10
TRACE_TOL = 1e-10
UNIT_NORM_TOL = 1e-12
SIMPLEX_TOL = 1e-12
DIM_CAP = 4096


def as_complex_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and return ``a`` as a square, finite, complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return m


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it (values are immutable after construction)."""
    a.setflags(write=False)
    return a


def tensor_product(a: np.ndarray, b: np.ndarray, dim_cap: int = DIM_CAP) -> np.ndarray:
    """Kronecker product; composite index (i_a, i_b) -> i_a * dim_b + i_b."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    composite = a.shape[0] * b.shape[0]
    if composite > dim_cap:
        raise CapacityError(f"composite dimension {composite} exceeds cap {dim_cap}")
    return np.kron(a, b)


def partial_trace(
    x: np.ndarray, dim_left: int, dim_right: int, side: Literal["left", "right"]
) -> np.ndarray:
    """Trace out the named tensor factor of ``x`` on a dim_left x dim_right space."""
    x = as_complex_matrix(x)
    if dim_left < 1 or dim_right < 1 or dim_left * dim_right != x.shape[0]:
        raise UsageError(
            f"dimension {x.shape[0]} does not factor as {dim_left} x {dim_right}"
        )
    t = x.reshape(dim_left, dim_right, dim_left, dim_right)
    if side == "left":
        return np.einsum("ijik->jk", t)
    if side == "right":
        return np.einsum("ijkj->ik", t)
    raise UsageError(f"side must be 'left' or 'right', got {side!r}")


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> HermitianEigen:
    """Eigendecomposition of ``a`` after checking Hermiticity within ``rtol``.

    The input is symmetrized as (a + a*)/2 before decomposition.
    """
    a = as_complex_matrix(a)
    scale = frobenius(a)
    if frobenius(a - dagger(a)) > rtol * max(scale, 1e-300):
        raise ValidationError(
            f"matrix is not Hermitian within tolerance: ||a - a*||_F = "
            f"{frobenius(a - dagger(a)):.3e} > {rtol:.1e} * ||a||_F"
        )
    sym = (a + dagger(a)) / 2
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return HermitianEigen(values, vectors)


def matrix_function_hermitian(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply the scalar rule ``f`` to ``a`` through its eigendecomposition.

    ``f`` receives the 1-d array of eigenvalues and must return the transformed
    array; the caller owns the rule's behaviour at clamped eigenvalues.
    """
    values, vectors = hermitian_eig(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        try:
            fv = np.asarray(f(values), dtype=float)
        except TypeError:
            fv = np.array([float(f(v)) for v in values])
    if fv.shape != values.shape:
        raise UsageError("scalar rule must map the eigenvalue array to an equal-length array")
    if not np.all(np.isfinite(fv)):
        bad = values[~np.isfinite(fv)]
        raise NumericalError(f"scalar rule undefined at eigenvalue(s) {bad}")
    return (vectors * fv) @ dagger(vectors)


def clamp_spectrum(values: np.ndarray, tol: float = EIG_CLAMP_TOL) -> np.ndarray:
    """Clamp eigenvalues in [-tol, 0) to zero; genuinely negative ones are an error."""
    values = np.asarray(values, dtype=float)
    lowest = float(values.min()) if values.size else 0.0
    if lowest < -tol:
        raise NotPositiveError(
            f"matrix has a negative eigenvalue {lowest:.6e} beyond tolerance {-tol:.1e}",
            lowest,
        )
    return np.maximum(values, 0.0)
