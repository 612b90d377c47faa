"""Output-entropy minimization over pure states by projected gradient descent.

The search space is the unit sphere (concavity of the entropy puts the infimum
over all states on pure ones).  Each restart runs Armijo-backtracked descent
with the normalize retraction.  Each line search starts from the
Barzilai-Borwein (BB1) trial step Re<s,s> / Re<s,y>, where s is the last
accepted displacement and y the change in gradient across it (Barzilai &
Borwein, IMA J. Numer. Anal. 8, 1988), clamped to [BB_STEP_MIN, BB_STEP_MAX].
The first line search, and any after a step with Re<s,y> <= 0, starts from
INITIAL_STEP instead.  Backtracking keeps every accepted step a decrease of the
objective.  A line search ends without a step once a halved step's whole
first-order decrease, step * |g|^2, is at or below the float resolution of the
objective, eps * max(1, |f|): no step that short can show a decrease.

Each point is evaluated once: one output eigendecomposition gives the value
that the line search tests, and the gradient of the accepted point is formed
from that same decomposition, with no second channel output.

Each descent records why it stopped (``OptimizationResult.stop_reason``):
``gradient_tol`` when |g| < tol, ``float_resolution`` when a line search ends
as above, and ``max_iter``.  ``converged`` is true for every reason but
``max_iter``: the other two end where the gradient is below tol or no further
step can lower f at float resolution.  A value or gradient norm that is not
finite raises ``NumericalError`` instead, since no line search could end there.

Restarts draw independent substreams from (seed, restart index), so results
are deterministic.  The spectrum is floored at GRAD_FLOOR inside the gradient's
logarithm; reported values are recomputed with the clamped entropy, without the
floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channels import Channel
from .entropy import entropy_of_spectrum
from .errors import NumericalError, UsageError
from .rng import substream
from .states import PureState, random_pure_from

GRAD_FLOOR = 1e-14
ARMIJO_C = 1e-4
BACKTRACK = 0.5
INITIAL_STEP = 1.0
# Range of the Barzilai-Borwein trial step.  Backtracking corrects a trial step
# that is too long, so the clamp only guards against a curvature estimate that
# is nearly zero or spoiled by rounding.
BB_STEP_MIN = 1e-10
BB_STEP_MAX = 1e10
# Relative float resolution of the objective: a line search ends once a step's
# first-order decrease is at most EPS * max(1, |f|).
EPS = float(np.finfo(float).eps)

DEFAULT_RESTARTS = 20
DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-9
# Step of the central differences that check the analytic gradient.
FD_STEP = 1e-5


@dataclass(frozen=True)
class OptimizationResult:
    """Best restart of a sphere optimization, with why its descent stopped."""

    value: float
    argmin: PureState
    iterations: int
    stop_reason: str
    gradient_norm_final: float

    @property
    def converged(self) -> bool:
        """True unless the descent ran out of iterations."""
        return self.stop_reason != "max_iter"


#: evaluate(amps) -> (f, gradient): the value at amps and a closure that forms
#: the gradient there from the same eigendecomposition.
Evaluate = Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]]


def _spectral_objective(
    c: Channel,
    value_of: Callable[[np.ndarray], float],
    weights_of: Callable[[np.ndarray], np.ndarray],
    scale: float,
) -> Evaluate:
    """``evaluate`` for psi -> value_of(spectrum of c(psi psi*)).

    ``evaluate`` takes one full eigendecomposition, and its gradient closure
    reuses it.  The Riemannian gradient is scale (I - psi psi*) c_adj(V w V*) psi,
    with V the output's eigenvectors and w = weights_of(its eigenvalues).
    """

    def evaluate(amps: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        vals, vecs = np.linalg.eigh(c.pure_output(amps))

        def gradient() -> np.ndarray:
            m = c.adjoint_apply((vecs * weights_of(vals)) @ vecs.conj().T)
            mpsi = m @ amps
            return scale * (mpsi - np.vdot(amps, mpsi).real * amps)

        return value_of(vals), gradient

    return evaluate


def _entropy_objective(c: Channel) -> Evaluate:
    """``evaluate`` for psi -> S(c(psi psi*))."""
    return _spectral_objective(
        c, entropy_of_spectrum, lambda vals: np.log(np.maximum(vals, GRAD_FLOOR)) + 1.0, -2.0
    )


def _purity_objective(c: Channel, p: float) -> Evaluate:
    """``evaluate`` for maximizing Tr(c(psi psi*)^p), phrased as minimization of its negative."""
    return _spectral_objective(
        c,
        lambda vals: -float((np.maximum(vals, 0.0) ** p).sum()),
        lambda vals: np.maximum(vals, 0.0) ** (p - 1.0),
        -2.0 * p,
    )


def entropy_gradient(c: Channel, psi: PureState) -> np.ndarray:
    """Riemannian gradient of psi -> S(c(psi psi*)) on the unit sphere.

    Equals -2 (I - psi psi*) c_adj(log c(rho) + I) psi with the output spectrum
    floored at GRAD_FLOOR inside the logarithm.
    """
    if psi.dim != c.dim:
        raise UsageError(f"state dimension {psi.dim} != channel dimension {c.dim}")
    return _entropy_objective(c)(psi.amplitudes)[1]()


def _descend(evaluate: Evaluate, start: np.ndarray, max_iter: int, tol: float) -> OptimizationResult:
    amps = start / np.linalg.norm(start)
    f, gradient = evaluate(amps)
    grad = gradient()
    gnorm = float(np.linalg.norm(grad))
    iterations = 0
    step = INITIAL_STEP
    stop_reason = ""
    while True:
        # No line search can end at a non-finite point: every comparison with NaN is false.
        if not (math.isfinite(f) and math.isfinite(gnorm)):
            raise NumericalError(f"descent reached a non-finite value {f} or gradient norm {gnorm}")
        if gnorm < tol:
            stop_reason = "gradient_tol"
            break
        if iterations >= max_iter:
            stop_reason = "max_iter"
            break
        resolution = EPS * max(1.0, abs(f))
        while True:
            cand = amps - step * grad
            cand = cand / np.linalg.norm(cand)
            f_cand, gradient = evaluate(cand)
            if not math.isfinite(f_cand):
                raise NumericalError(f"descent reached a non-finite value {f_cand}")
            if f_cand <= f - ARMIJO_C * step * gnorm * gnorm:
                break
            step *= BACKTRACK
            if step * gnorm * gnorm <= resolution:
                stop_reason = "float_resolution"
                break
        if stop_reason:
            break
        s = cand - amps
        grad_prev = grad
        amps, f = cand, f_cand
        grad = gradient()
        gnorm = float(np.linalg.norm(grad))
        sy = np.vdot(s, grad - grad_prev).real
        if sy > 0.0:
            step = min(max(np.vdot(s, s).real / sy, BB_STEP_MIN), BB_STEP_MAX)
        else:
            step = INITIAL_STEP
        iterations += 1
    return OptimizationResult(
        value=f, argmin=PureState(amps), iterations=iterations,
        stop_reason=stop_reason, gradient_norm_final=gnorm,
    )


def _optimize_on_sphere(
    evaluate: Evaluate,
    dim: int,
    restarts: int,
    max_iter: int,
    tol: float,
    seed: int,
    initial_states: tuple[PureState, ...] = (),
    seed_path: tuple[int, ...] = (),
) -> OptimizationResult:
    if restarts < 1:
        raise UsageError(f"restarts must be >= 1, got {restarts}")

    def run(r: int) -> OptimizationResult:
        if r < len(initial_states):
            start = initial_states[r].amplitudes.astype(complex)
        else:
            start = random_pure_from(substream(seed, *seed_path, r), dim).amplitudes
        return _descend(evaluate, start, max_iter, tol)

    # min keeps the first of equal values, so the lowest restart index wins a tie.
    return min((run(r) for r in range(restarts)), key=lambda res: res.value)


def min_output_entropy(
    c: Channel,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    initial_states: tuple[PureState, ...] = (),
    seed_path: tuple[int, ...] = (),
) -> OptimizationResult:
    """Best output entropy over restarted descent; deterministic per seed."""
    evaluate = _entropy_objective(c)
    return _optimize_on_sphere(evaluate, c.dim, restarts, max_iter, tol, seed, initial_states, seed_path)


def max_output_purity(
    c: Channel,
    p: float,
    restarts: int = DEFAULT_RESTARTS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    initial_states: tuple[PureState, ...] = (),
    seed_path: tuple[int, ...] = (),
) -> OptimizationResult:
    """Maximize Tr(c(psi psi*)^p); the result's value is the attained maximum."""
    if p <= 1.0:
        raise UsageError(f"norm index must satisfy p > 1, got {p}")
    evaluate = _purity_objective(c, p)
    res = _optimize_on_sphere(evaluate, c.dim, restarts, max_iter, tol, seed, initial_states, seed_path)
    return replace(res, value=-res.value)


def finite_difference_gradient(c: Channel, psi: PureState) -> np.ndarray:
    """Central-difference estimate of the Riemannian entropy gradient.

    Differentiates along an orthonormal real basis of the sphere's tangent
    space at psi and reassembles the vector.  The value takes eigenvalues
    alone, with no eigenvectors.
    """

    def value(amps: np.ndarray) -> float:
        return entropy_of_spectrum(np.linalg.eigvalsh(c.pure_output(amps)))

    d = psi.dim
    base = np.concatenate([psi.amplitudes.real, psi.amplitudes.imag])
    # QR with the sphere normal first puts the 2d-1 tangent directions after it.
    q, _ = np.linalg.qr(np.concatenate([base[:, None], np.eye(2 * d)[:, : 2 * d - 1]], axis=1))
    tangent = q[:, 1:]
    grad_real = np.zeros(2 * d)
    for i in range(tangent.shape[1]):
        w = tangent[:, i]
        v = w[:d] + 1j * w[d:]
        plus = psi.amplitudes + FD_STEP * v
        minus = psi.amplitudes - FD_STEP * v
        fd = (value(plus / np.linalg.norm(plus)) - value(minus / np.linalg.norm(minus))) / (2 * FD_STEP)
        grad_real += fd * w
    return grad_real[:d] + 1j * grad_real[d:]


def gradient_fd_error(c: Channel, psi: PureState) -> float:
    """Relative disagreement between the analytic and finite-difference gradients."""
    g = entropy_gradient(c, psi)
    g_fd = finite_difference_gradient(c, psi)
    denom = max(float(np.linalg.norm(g)), float(np.linalg.norm(g_fd)), 1e-300)
    return float(np.linalg.norm(g - g_fd)) / denom
