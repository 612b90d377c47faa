"""Validated quantum states and reproducible random sampling.

Each ``random_*_from`` sampler draws from the generator it is given, so a
batch driver passes each task its own substream (PCG64, see
:mod:`qchan.rng`) and gets the same draws for the same seed.
``random_state_matrix_from`` returns the unvalidated matrix, so a batch driver
can validate a whole stack of draws with one ``density_from_matrix`` call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import UsageError, ValidationError
from .linalg import EIG_CLAMP_TOL, SIMPLEX_TOL, TRACE_TOL, UNIT_NORM_TOL, dagger, frozen


@dataclass(frozen=True)
class DensityMatrix:
    """A state: Hermitian, positive semidefinite, unit trace.

    ``matrix`` may also hold a stack of states along leading axes, as
    ``density_from_matrix`` returns for a stack; ``dim`` is then the
    dimension of each state.
    """

    matrix: np.ndarray
    dim: int
    note: str | None = None


@dataclass(frozen=True)
class PureState:
    """A unit vector of amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise ValidationError("pure state needs at least one amplitude")
        if not np.isfinite(amps).all():
            raise ValidationError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValidationError(f"state vector norm {norm} differs from 1 by more than {UNIT_NORM_TOL:.1e}")
        object.__setattr__(self, "amplitudes", frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class StateEnsemble:
    """Probability weights over equal-dimension states."""

    probabilities: tuple[float, ...]
    states: tuple[DensityMatrix, ...] = field(default_factory=tuple)

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        if len(probs) != len(self.states) or not probs:
            raise ValidationError("ensemble needs matching, nonempty probability and state lists")
        if min(probs) < 0.0:
            raise ValidationError(f"negative ensemble probability {min(probs)}")
        if abs(sum(probs) - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"ensemble probabilities sum to {sum(probs)}, not 1")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValidationError(f"ensemble states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "probabilities", probs)

    @property
    def dim(self) -> int:
        return self.states[0].dim


def density_from_matrix(m: np.ndarray) -> DensityMatrix:
    """Validate ``m`` as a density matrix, clamping roundoff-negative eigenvalues.

    Eigenvalues in [-1e-10, 0) are clamped to zero and the trace renormalized;
    the adjustment is recorded in the returned value's note.  Stack-aware: a
    stack of matrices is validated matrix by matrix with one eigensolve call.
    The checks run in the order Hermiticity, positivity, trace, and each
    refuses the stack for its first failing matrix.
    """
    m = linalg.as_complex_matrix(m, stack=True)
    values, vectors = linalg.hermitian_eig(m)
    clamped = linalg.clamp_spectrum(values)
    trace = values.sum(axis=-1)
    off = np.abs(trace - 1.0) > TRACE_TOL
    if off.any():
        index = linalg.first_index(off)
        raise ValidationError(
            f"trace {float(trace[index])} differs from 1 by more than {TRACE_TOL:.1e}{linalg.stack_suffix(index)}"
        )
    out = (m + dagger(m)) / 2
    negative = values < 0.0
    rebuild = negative.any(axis=-1)
    note = None
    if rebuild.any():
        # Only the matrices with clamped eigenvalues are rebuilt from their spectra.
        kept, vecs = clamped[rebuild], vectors[rebuild]
        rebuilt = (vecs * kept[..., None, :]) @ dagger(vecs)
        rebuilt /= kept.sum(axis=-1)[..., None, None]
        out[rebuild] = rebuilt
        note = (f"clamped {int(np.count_nonzero(negative))} eigenvalue(s) in "
                f"[-{EIG_CLAMP_TOL:.0e}, 0) and renormalized")
    return DensityMatrix(matrix=frozen(out), dim=out.shape[-1], note=note)


def basis_state(dim: int, index: int) -> PureState:
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projection |psi><psi|."""
    m = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(matrix=frozen(m), dim=psi.dim)


def random_pure_from(rng: np.random.Generator, dim: int) -> PureState:
    """Haar-distributed pure state: normalized standard complex Gaussian vector."""
    if dim < 1:
        raise UsageError(f"dimension must be >= 1, got {dim}")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_state_matrix_from(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Gaussian-induced random state G G* / Tr(G G*), G of shape dim x rank, unvalidated."""
    if not 1 <= rank <= dim:
        raise UsageError(f"rank must lie in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ dagger(g)
    m /= float(np.trace(m).real)
    return m


def random_density_from(rng: np.random.Generator, dim: int, rank: int) -> DensityMatrix:
    """The validated state of ``random_state_matrix_from``."""
    return density_from_matrix(random_state_matrix_from(rng, dim, rank))


def random_unitary_from(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
