"""Entropy functionals.

Every value is a float in nats.  The inequality and additivity claims read the
same in any log base, so bits exist only in the report: ``--log-base 2``
converts there (``reporting.Check.as_dict``) and nowhere else.  The ``*_nats``
functions, ``entropy_of_spectrum`` and ``subnormalized_entropy`` are
stack-aware (see :mod:`qchan.linalg`): given a stack they return one value per
matrix, given one matrix a float.
"""
from __future__ import annotations

import math

import numpy as np

from .channels import KrausChannel
from .errors import UsageError, ValidationError
from .linalg import TRACE_TOL, clamp_spectrum, dagger, first_index, hermitian_eig, stack_suffix
from .states import StateEnsemble

#: Eigenvalues of the second argument below this bound count as its kernel.
KERNEL_TOL = 1e-10


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


def subnormalized_entropy(y: np.ndarray):
    """-Tr(y log y) in nats for PSD y with Tr(y) <= 1, same clamping convention (stack-aware)."""
    values = clamp_spectrum(hermitian_eig(y).values)
    total = values.sum(axis=-1)
    over = total > 1.0 + TRACE_TOL
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


def holevo_chi(c: KrausChannel, ensemble: StateEnsemble) -> float:
    """S(Sum pi_j c(x_j)) - Sum pi_j S(c(x_j)) for the given ensemble."""
    if ensemble.dim != c.dim:
        raise UsageError(f"ensemble dimension {ensemble.dim} != channel dimension {c.dim}")
    outputs = [c.apply_matrix(s.matrix) for s in ensemble.states]
    average = sum(p * out for p, out in zip(ensemble.probabilities, outputs))
    return vn_nats(average) - sum(p * vn_nats(out) for p, out in zip(ensemble.probabilities, outputs))
