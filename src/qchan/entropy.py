"""Entropy functionals and one-shot capacity quantities.

All internal computation is in nats; the ``base`` argument ("e" or "2")
converts at the reporting boundary.  Inequality and additivity claims are
base-invariant, so the choice only affects units.  The ``*_nats`` functions,
``entropy_of_spectrum`` and ``subnormalized_entropy`` are stack-aware (see
:mod:`qchan.linalg`): given a stack they return one value per matrix, given one
matrix a float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .errors import UsageError, ValidationError
from .linalg import EIG_CLAMP_TOL, clamp_spectrum, dagger, first_index, hermitian_eig, stack_suffix
from .states import DensityMatrix, PureState, StateEnsemble

#: Eigenvalues of the second argument below this bound count as its kernel.
KERNEL_TOL = 1e-10

_LOG_BASES = ("e", "2")


def _check_base(base: str) -> None:
    if base not in _LOG_BASES:
        raise UsageError(f"log base must be one of {_LOG_BASES}, got {base!r}")


def _convert(nats: float, base: str) -> float:
    _check_base(base)
    return nats if base == "e" else nats / math.log(2.0)


@dataclass(frozen=True)
class EntropyValue:
    """An entropy with its logarithm base ("e" for nats, "2" for bits)."""

    value: float
    log_base: str = "e"

    def in_base(self, base: str) -> "EntropyValue":
        _check_base(base)
        if base == self.log_base:
            return self
        factor = math.log(2.0)
        value = self.value / factor if base == "2" else self.value * factor
        return EntropyValue(value=value, log_base=base)


def _all(keep: np.ndarray) -> bool:
    # count_nonzero costs a fraction of ndarray.all() on the small arrays of
    # the optimizer's inner loop.
    return np.count_nonzero(keep) == keep.size


def _kept_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum of the kept entries of each row (last axis) of ``terms``.

    Each row gets the bits of numpy's sum of ``row[keep_row]`` alone: rows are
    summed in groups with equal kept counts, never with dropped entries as
    zeros, which would regroup the additions.
    """
    if _all(keep):
        return terms.sum(axis=-1)
    dim = terms.shape[-1]
    flat_terms, flat_keep = terms.reshape(-1, dim), keep.reshape(-1, dim)
    counts = flat_keep.sum(axis=-1)
    sums = np.zeros(len(counts))
    for count in set(counts.tolist()) - {0}:
        rows = counts == count
        sums[rows] = flat_terms[rows][flat_keep[rows]].reshape(-1, count).sum(axis=-1)
    return sums.reshape(terms.shape[:-1])


def _xlogy_sums(x: np.ndarray, y: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum of x log y over the kept entries of each row; log is never taken elsewhere."""
    if _all(keep):
        return (x * np.log(y)).sum(axis=-1)
    return _kept_sums(x * np.log(np.where(keep, y, 1.0)), keep)


def _unbatched(values: np.ndarray):
    """A float for a single input, the array for a stack."""
    return values if isinstance(values, np.ndarray) and values.ndim else float(values)


def entropy_of_spectrum(values: np.ndarray):
    """-Sum p log p in nats with 0 log 0 = 0; clamps roundoff negatives (stack-aware)."""
    p = clamp_spectrum(values)
    return _unbatched(-_xlogy_sums(p, p, p > 0.0))


def vn_nats(matrix: np.ndarray):
    """Von Neumann entropy of a (nominally PSD) matrix, in nats (stack-aware)."""
    return entropy_of_spectrum(hermitian_eig(matrix).values)


def von_neumann(rho: DensityMatrix, base: str = "e") -> EntropyValue:
    """S(rho) = -Tr rho log rho."""
    return EntropyValue(value=_convert(vn_nats(rho.matrix), base), log_base=base)


def subnormalized_entropy(y: np.ndarray, trace_tol: float = 1e-10):
    """-Tr(y log y) in nats for PSD y with Tr(y) <= 1, same clamping convention (stack-aware)."""
    values = clamp_spectrum(hermitian_eig(y).values)
    total = values.sum(axis=-1)
    over = total > 1.0 + trace_tol
    if np.any(over):
        index = first_index(np.asarray(over))
        raise ValidationError(
            f"subnormalized entropy needs Tr(y) <= 1, got {float(total[index])}{stack_suffix(index)}"
        )
    return entropy_of_spectrum(values)


def relative_entropy_nats(rho: np.ndarray, sigma: np.ndarray):
    """S(rho, sigma) = Tr rho log rho - Tr rho log sigma in nats; +inf off-support.

    The kernel of sigma is its eigenvalues below KERNEL_TOL; rho carrying more
    than KERNEL_TOL of mass on that kernel makes the value infinite.
    Stack-aware: equal-shape stacks give one value per pair.
    """
    p_vals, p_vecs = hermitian_eig(rho)
    s_vals, s_vecs = hermitian_eig(sigma)
    p_vals = clamp_spectrum(p_vals)
    s_vals = clamp_spectrum(s_vals)
    overlap = np.abs(dagger(p_vecs) @ s_vecs) ** 2  # overlap[i, j] = |<p_i|s_j>|^2
    weights = (p_vals[..., None, :] @ overlap)[..., 0, :]  # mass of rho on each sigma eigenvector
    kernel = s_vals <= KERNEL_TOL
    support = ~kernel
    p_support = p_vals > 0.0
    plogp = _xlogy_sums(p_vals, p_vals, p_support)
    plogs = _xlogy_sums(weights, s_vals, support)
    off_support = _kept_sums(weights, kernel) > KERNEL_TOL
    return _unbatched(np.where(off_support, math.inf, plogp - plogs))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix, base: str = "e") -> EntropyValue:
    """Relative entropy between two states; infinite when supports are incompatible."""
    if rho.dim != sigma.dim:
        raise UsageError(f"states have different dimensions {rho.dim}, {sigma.dim}")
    nats = relative_entropy_nats(rho.matrix, sigma.matrix)
    value = math.inf if math.isinf(nats) else _convert(nats, base)
    _check_base(base)
    return EntropyValue(value=value, log_base=base)


def holevo_chi(c: KrausChannel, ensemble: StateEnsemble, base: str = "e") -> float:
    """S(Sum pi_j c(x_j)) - Sum pi_j S(c(x_j)) for the given ensemble."""
    if ensemble.dim != c.dim:
        raise UsageError(f"ensemble dimension {ensemble.dim} != channel dimension {c.dim}")
    outputs = [c.apply_matrix(s.matrix) for s in ensemble.states]
    average = sum(p * out for p, out in zip(ensemble.probabilities, outputs))
    chi = vn_nats(average) - sum(p * vn_nats(out) for p, out in zip(ensemble.probabilities, outputs))
    return _convert(chi, base)


@dataclass(frozen=True)
class CapacityBound:
    """One-shot capacity figure log(dim) - s_min, tagged equality or upper bound."""

    value: float
    log_base: str
    equality: bool


def c1_upper_bound(c: KrausChannel, s_min: float, base: str = "e") -> CapacityBound:
    """Upper bound log(dim) - s_min; ``s_min`` is given in the same base."""
    _check_base(base)
    log_dim = _convert(math.log(c.dim), base)
    return CapacityBound(value=log_dim - s_min, log_base=base, equality=False)


def covariant_c1(c: KrausChannel, s_min: float, base: str = "e") -> CapacityBound:
    """log(dim) - s_min as an equality; the caller asserts channel covariance."""
    bound = c1_upper_bound(c, s_min, base)
    return CapacityBound(value=bound.value, log_base=base, equality=True)


def output_p_norm_value(c: KrausChannel, psi: PureState, p: float) -> float:
    """Tr(c(|psi><psi|)^p), the inner objective of the output p-norm."""
    if p <= 1.0:
        raise UsageError(f"norm index must satisfy p > 1, got {p}")
    values = clamp_spectrum(hermitian_eig(c.apply_pure(psi)).values, EIG_CLAMP_TOL)
    return float((values ** p).sum())
