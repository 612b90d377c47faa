import math

import numpy as np
import pytest

from qchan.channels import (
    depolarizing,
    identity_channel,
    pauli_qubit,
    phase_damping,
)
from qchan.entropy import entropy_of_spectrum
from qchan.errors import NumericalError, UsageError
from qchan.optimize import (
    ARMIJO_C,
    BACKTRACK,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EPS,
    GRAD_FLOOR,
    OptimizationResult,
    _descend,
    _entropy_objective,
    _purity_objective,
    entropy_gradient,
    gradient_fd_error,
    max_output_purity,
    min_output_entropy,
)
from qchan.rng import substream
from qchan.states import random_pure_from
from qchan.verify import depolarizing_entropy_constant

from helpers import random_channel, random_pure

H_75_25 = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))


def output_entropy(c, psi):
    """S(c(|psi><psi|)) in nats, as the optimizer's objective computes it."""
    return entropy_of_spectrum(np.linalg.eigvalsh(c.apply_pure(psi)))


def test_output_entropy_identity_is_zero():
    c = identity_channel(3)
    assert output_entropy(c, random_pure(3, seed=1)) == pytest.approx(0.0, abs=1e-12)


def test_output_entropy_covariant_constant():
    c = depolarizing(2, 0.5)
    values = [output_entropy(c, random_pure(2, seed=s)) for s in range(100)]
    assert np.std(values) <= 1e-9
    assert values[0] == pytest.approx(H_75_25, abs=1e-12)


def test_gradient_zero_for_identity_channel():
    c = identity_channel(4)
    g = entropy_gradient(c, random_pure(4, seed=2))
    assert np.linalg.norm(g) <= 1e-10


def test_gradient_flat_for_covariant_channel():
    c = depolarizing(3, 0.4)
    for seed in range(10):
        g = entropy_gradient(c, random_pure(3, seed=seed))
        assert np.linalg.norm(g) <= 1e-8


def test_gradient_matches_finite_differences():
    c = pauli_qubit(0.5, 0.3, 0.7)
    for seed in range(10):
        err = gradient_fd_error(c, random_pure(2, seed=seed))
        assert err <= 1e-5


def test_gradient_matches_finite_differences_random_channels():
    for seed in range(10):
        dim = 2 + seed % 3
        c = random_channel(dim, 2 + seed % 2, seed=seed)
        psi = random_pure(dim, seed=seed + 50)
        assert gradient_fd_error(c, psi) <= 1e-5


def test_min_output_entropy_identity():
    res = min_output_entropy(identity_channel(3), restarts=3, seed=4)
    assert res.value <= 1e-10
    assert res.converged


def test_min_output_entropy_depolarizing_closed_form():
    res = min_output_entropy(depolarizing(2, 0.5), restarts=5, seed=5)
    assert res.value == pytest.approx(H_75_25, abs=1e-6)


def test_min_output_entropy_composed_channel():
    xi = phase_damping(2, (0.7,)).compose(depolarizing(2, 0.5))
    res = min_output_entropy(xi, restarts=20, seed=6)
    assert res.value == pytest.approx(H_75_25, abs=1e-6)
    # the minimizer sits at a basis projection
    assert np.abs(res.argmin.amplitudes).max() == pytest.approx(1.0, abs=1e-4)


def test_min_output_entropy_deterministic():
    c = pauli_qubit(0.6, 0.2, 0.4)
    a = min_output_entropy(c, restarts=5, seed=7)
    b = min_output_entropy(c, restarts=5, seed=7)
    assert a.value == b.value
    assert np.array_equal(a.argmin.amplitudes, b.argmin.amplitudes)
    assert a.iterations == b.iterations


def test_min_output_entropy_value_matches_argmin():
    c = random_channel(3, 3, seed=8)
    res = min_output_entropy(c, restarts=5, seed=8)
    assert res.value == pytest.approx(output_entropy(c, res.argmin), abs=1e-10)
    assert 0.0 <= res.value <= math.log(3) + 1e-10


def test_initial_state_only_improves():
    c = random_channel(3, 2, seed=9)
    psi = random_pure(3, seed=10)
    res = min_output_entropy(c, restarts=1, seed=11, initial_states=(psi,))
    assert res.value <= output_entropy(c, psi) + 1e-12


def test_restarts_validation():
    with pytest.raises(UsageError):
        min_output_entropy(identity_channel(2), restarts=0)


def test_max_output_purity_identity():
    res = max_output_purity(identity_channel(3), 2.0, restarts=3, seed=12)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_max_output_purity_depolarizing():
    res = max_output_purity(depolarizing(2, 0.5), 2.0, restarts=5, seed=13)
    assert res.value == pytest.approx(0.625, abs=1e-9)


def test_max_output_purity_rejects_small_p():
    with pytest.raises(UsageError):
        max_output_purity(identity_channel(2), 1.0)


def test_output_p_norm_values():
    # Tr(c(psi psi*)^2) at fixed states, read from the purity objective's value
    def purity(c, psi):
        return -_purity_objective(c, 2.0)(psi.amplitudes)[0]

    psi = random_pure(3, seed=10)
    assert purity(identity_channel(3), psi) == pytest.approx(1.0, abs=1e-12)
    assert purity(depolarizing(2, 0.5), random_pure(2, seed=11)) == pytest.approx(0.625, abs=1e-12)
    assert purity(depolarizing(3, 1.0), psi) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_descent_objective_monotone_per_accepted_step():
    # The gradient is taken exactly at accepted iterates, so the values recorded
    # there must be non-increasing within 1e-12 per step
    evaluate = _entropy_objective(random_channel(3, 3, seed=15))
    history = []

    def recording(amps):
        f, gradient = evaluate(amps)

        def recorded():
            history.append(f)
            return gradient()

        return f, recorded

    start = random_pure_from(substream(16), 3).amplitudes
    res = _descend(recording, start, max_iter=200, tol=1e-9)
    assert len(history) == res.iterations + 1
    diffs = np.diff(np.array(history))
    assert (diffs <= 1e-12).all()


class CountingChannel:
    """Delegates the objective's two channel calls and records each of them."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.points = []
        self.adjoint_calls = 0

    def pure_output(self, amps):
        self.points.append(amps.tobytes())
        return self.inner.pure_output(amps)

    def adjoint_apply(self, y):
        self.adjoint_calls += 1
        return self.inner.adjoint_apply(y)


@pytest.mark.parametrize("product", [False, True])
def test_descent_evaluates_each_point_once(monkeypatch, product):
    inner = random_channel(3, 3, seed=15)
    if product:
        inner = random_channel(2, 3, seed=17).tensor(inner)
    c = CountingChannel(inner)
    eigh = np.linalg.eigh
    eigh_calls = []

    def counting_eigh(a):
        eigh_calls.append(a.shape)
        return eigh(a)

    def no_eigvalsh(a):
        raise AssertionError("the descent takes no eigenvalue-only solve")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    evaluate = _entropy_objective(c)
    start = random_pure_from(substream(16), c.dim).amplitudes
    res = _descend(evaluate, start, max_iter=200, tol=1e-9)
    assert res.iterations > 5
    # One eigh per evaluated point: the start and every line-search candidate.
    assert len(eigh_calls) == len(c.points)
    # No point is sent through the channel twice, accepted points included.
    assert len(set(c.points)) == len(c.points)
    # One gradient per accepted point and the start.
    assert c.adjoint_calls == res.iterations + 1


def test_descent_ends_line_search_at_float_resolution():
    # From this start the Armijo demand of the last line search falls below the
    # float resolution of f at its first halving, while |g| = 5.2e-9 is still
    # above tol.  Halving that step on down to 1e-18 would cost 60 more value
    # evaluations and leave |g| where it was; ending at float resolution costs
    # 8 evaluations and 6 gradients in all.
    p = 0.4024362687342006
    xi = phase_damping(3, (0.4153328120539328, 0.9172105610445986)).compose(depolarizing(3, p)).reduced()
    evaluate = _entropy_objective(xi)
    calls = []

    def counting(amps):
        calls.append(amps)
        return evaluate(amps)

    start = random_pure_from(substream(3418362925, 2, 10), 3).amplitudes
    res = _descend(counting, start, max_iter=20000, tol=1e-9)
    assert len(calls) <= 40
    assert res.value == pytest.approx(depolarizing_entropy_constant(3, p), abs=1e-12)
    assert res.stop_reason == "float_resolution"
    assert res.converged


def test_descent_out_of_iterations_is_not_converged():
    evaluate = _entropy_objective(random_channel(3, 3, seed=15))
    start = random_pure_from(substream(16), 3).amplitudes
    res = _descend(evaluate, start, max_iter=1, tol=1e-9)
    assert (res.stop_reason, res.iterations, res.converged) == ("max_iter", 1, False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["start_value", "start_gradient", "candidate_value"])
def test_descent_at_a_non_finite_point_raises(where, bad):
    # A line search at a NaN or inf point never ends without the check; the
    # call limit keeps this test finite.
    calls = []

    def evaluate(amps):
        calls.append(amps)
        if len(calls) > 1000:
            pytest.fail("the descent kept evaluating at a non-finite point")
        first = len(calls) == 1
        f = bad if (first, where) in ((True, "start_value"), (False, "candidate_value")) else 1.0
        grad = np.full(3, bad) if where == "start_gradient" else np.array([0.5, -0.5, 0.0])
        return f, lambda: grad

    with pytest.raises(NumericalError, match="non-finite"):
        _descend(evaluate, random_pure_from(substream(17), 3).amplitudes, max_iter=50, tol=1e-9)
    assert len(calls) <= 2


def _damped(l, p, q):
    return phase_damping(l, q).compose(depolarizing(l, p)).reduced()


def test_descent_crosses_a_concave_stretch_without_crawling():
    # At high p the outputs are nearly maximally mixed and the first steps
    # cross a stretch where the entropy is concave along the path (Re<s,y> < 0).
    # A descent that restarts each line search there at step 1 takes 71
    # iterations from this start.
    p = 0.880
    xi = _damped(3, p, (0.856, 0.5))
    start = random_pure_from(substream(1, 1, 0), 3).amplitudes
    res = _descend(_entropy_objective(xi), start, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL)
    assert res.value == pytest.approx(depolarizing_entropy_constant(3, p), abs=1e-12)
    assert res.converged
    assert res.iterations <= 20


def test_no_damped_descent_crawls_over_the_workload_range():
    # 200 (p, q) points over p in [0.2, 0.9], q in [0.3, 0.9] on a golden-ratio
    # lattice, one random start each.  With step-1 restarts after Re<s,y> <= 0
    # the longest of these descents took 111 iterations.
    golden, silver = (math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0
    for i in range(200):
        p = 0.2 + 0.7 * ((i * golden) % 1.0)
        q = 0.3 + 0.6 * ((i * silver) % 1.0)
        res = min_output_entropy(_damped(3, p, (q, 0.5)), restarts=1, seed=i, seed_path=(1,))
        assert res.iterations <= 30, (p, q)
        assert res.value == pytest.approx(depolarizing_entropy_constant(3, p), abs=1e-12), (p, q)


def test_trial_step_doubles_after_a_concave_step():
    # f(psi) = <psi, Z psi> is cos(2 theta) along psi = (cos theta, sin theta):
    # concave for theta < pi/4 and convex beyond, down to its minimum -1 at
    # theta = pi/2.  Every accepted step must still lower f, and each line
    # search after a step with Re<s,y> <= 0 must start from twice that step.
    z = np.array([1.0, -1.0])
    points, accepted = [], []

    def grad_at(amps):
        return 2.0 * (z * amps - np.vdot(amps, z * amps).real * amps)

    def evaluate(amps):
        points.append(amps)
        f = float(np.vdot(amps, z * amps).real)

        def gradient():
            accepted.append((len(points) - 1, f))
            return grad_at(amps)

        return f, gradient

    def step_to(base, cand):
        # cand is base - step * g normalized, with g orthogonal to base.
        g = grad_at(base)
        return -np.vdot(g, cand).real / (np.vdot(g, g).real * np.vdot(base, cand).real)

    theta = 0.01
    res = _descend(evaluate, np.array([math.cos(theta), math.sin(theta)], dtype=complex), 100, 1e-9)
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert (np.diff([f for _, f in accepted]) < 0.0).all()
    doubled = 0
    # Every accepted point but the last is followed by a line search.
    for (i, _), (j, _) in zip(accepted, accepted[1:-1]):
        base, here = points[i], points[j]
        if np.vdot(here - base, grad_at(here) - grad_at(base)).real <= 0.0:
            assert step_to(here, points[j + 1]) == pytest.approx(2.0 * step_to(base, here), rel=1e-9)
            doubled += 1
    assert doubled >= 2


@pytest.mark.parametrize("reason", ["gradient_tol", "float_resolution", "max_iter"])
def test_converged_follows_stop_reason(reason):
    res = OptimizationResult(0.0, random_pure(2, seed=0), 0, reason, 0.0)
    assert res.converged == (reason != "max_iter")


def test_descent_stops_at_gradient_tol():
    res = min_output_entropy(identity_channel(3), restarts=1, seed=4)
    assert res.stop_reason == "gradient_tol" and res.gradient_norm_final < DEFAULT_TOL


def test_output_entropy_zero_at_damping_fixed_point():
    from qchan.states import basis_state

    xi = phase_damping(3, (0.4, 0.8))
    assert output_entropy(xi, basis_state(3, 0)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_min_output_entropy_single_restart_reaches_closed_form(seed):
    # Near this (p, q) the damped channel's minimum is degenerate: descent that
    # restarts every line search at step 1 is still about 1.5e-4 above the
    # closed form after DEFAULT_MAX_ITER iterations, and needs about 900 to
    # reach it.
    xi = phase_damping(3, (0.672, 0.672)).compose(depolarizing(3, 0.234)).reduced()
    res = min_output_entropy(xi, restarts=1, seed=seed)
    assert res.value == pytest.approx(depolarizing_entropy_constant(3, 0.234), abs=1e-10)
    assert res.converged
    assert res.iterations <= 50


# Reference: the descent with every line search started at step 1.0, with the
# same Armijo rule, float-resolution stop and retraction as
# qchan.optimize._descend, on the reference objectives below.
def fixed_step_descent(value, value_and_grad, start, max_iter, tol):
    amps = start / np.linalg.norm(start)
    f, grad = value_and_grad(amps)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(max_iter):
        if gnorm < tol:
            break
        step = 1.0
        resolution = EPS * max(1.0, abs(f))
        while True:
            cand = amps - step * grad
            cand = cand / np.linalg.norm(cand)
            f_cand = value(cand)
            if f_cand <= f - ARMIJO_C * step * gnorm * gnorm:
                break
            step *= BACKTRACK
            if step * gnorm * gnorm <= resolution:
                return f
        amps = cand
        f, grad = value_and_grad(amps)
        gnorm = float(np.linalg.norm(grad))
    return f


def fixed_step_best(objective, dim, restarts, seed):
    value, value_and_grad = objective
    return min(
        fixed_step_descent(
            value, value_and_grad, random_pure_from(substream(seed, r), dim).amplitudes,
            DEFAULT_MAX_ITER, DEFAULT_TOL,
        )
        for r in range(restarts)
    )


def reference_channel(kind, *args):
    if kind == "depolarizing":
        return depolarizing(*args)
    if kind == "damped":
        l, p, q = args
        return phase_damping(l, (q,) * (l - 1)).compose(depolarizing(l, p)).reduced()
    d, m = args
    return random_channel(d, m, seed=10 * d + m)


REFERENCE_CHANNELS = (
    [("depolarizing", l, p) for l in (2, 3) for p in (0.234, 0.5)]
    + [("damped", l, p, q) for l in (2, 3) for p, q in ((0.234, 0.672), (0.3, 0.5), (0.6, 0.8))]
    + [("random", d, m) for d in (2, 3, 4, 5) for m in (2, d)]
)


@pytest.mark.parametrize("spec", REFERENCE_CHANNELS, ids=lambda spec: "-".join(map(str, spec)))
@pytest.mark.parametrize("seed", [0, 1])
def test_descent_no_worse_than_fixed_step_reference(spec, seed):
    c = reference_channel(*spec)
    restarts = 4
    s_min = min_output_entropy(c, restarts=restarts, seed=seed).value
    assert s_min <= fixed_step_best(ref_entropy_objective(c), c.dim, restarts, seed) + 1e-12
    purity = max_output_purity(c, 2.0, restarts=restarts, seed=seed).value
    assert purity >= -fixed_step_best(ref_purity_objective(c, 2.0), c.dim, restarts, seed) - 1e-12


# Reference: the entropy and purity objectives as two separate bodies, the
# form the shared spectral objective replaced.
def ref_entropy_objective(c):
    def value(amps):
        rho = c.pure_output(amps)
        return entropy_of_spectrum(np.linalg.eigvalsh(rho))

    def value_and_grad(amps):
        rho = c.pure_output(amps)
        vals, vecs = np.linalg.eigh(rho)
        f = entropy_of_spectrum(vals)
        log_floored = np.log(np.maximum(vals, GRAD_FLOOR))
        l_mat = (vecs * (log_floored + 1.0)) @ vecs.conj().T
        m = c.adjoint_apply(l_mat)
        mpsi = m @ amps
        grad = -2.0 * (mpsi - np.vdot(amps, mpsi).real * amps)
        return f, grad

    return value, value_and_grad


def ref_purity_objective(c, p):
    def value(amps):
        rho = c.pure_output(amps)
        vals = np.maximum(np.linalg.eigvalsh(rho), 0.0)
        return -float((vals ** p).sum())

    def value_and_grad(amps):
        rho = c.pure_output(amps)
        vals, vecs = np.linalg.eigh(rho)
        vals = np.maximum(vals, 0.0)
        f = -float((vals ** p).sum())
        power = (vecs * (vals ** (p - 1.0))) @ vecs.conj().T
        m = c.adjoint_apply(power)
        mpsi = m @ amps
        grad = -2.0 * p * (mpsi - np.vdot(amps, mpsi).real * amps)
        return f, grad

    return value, value_and_grad


def _objective_pairs(dim, seed):
    """Random channels with 2 and dim Kraus operators, each with a random state."""
    for m in (2, dim):
        c = random_channel(dim, m, seed=100 * dim + 10 * m + seed)
        yield c, random_pure(dim, seed=200 * dim + 10 * m + seed).amplitudes


def _assert_same_objective(evaluate, want, amps):
    _, ref_value_and_grad = want
    f, gradient = evaluate(amps)
    ref_f, ref_grad = ref_value_and_grad(amps)
    assert f == ref_f
    assert np.array_equal(gradient(), ref_grad)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_spectral_objective_equals_the_two_reference_bodies(dim, seed):
    for c, amps in _objective_pairs(dim, seed):
        _assert_same_objective(_entropy_objective(c), ref_entropy_objective(c), amps)
        for p in (1.5, 2.0, 3.0):
            _assert_same_objective(_purity_objective(c, p), ref_purity_objective(c, p), amps)


def central_difference_gradient(value, amps, h=1e-5):
    """Riemannian gradient of ``value`` on the sphere by central differences.

    Differentiates along an orthonormal real basis of the tangent space at
    ``amps`` and reassembles the complex vector.
    """
    d = len(amps)
    base = np.concatenate([amps.real, amps.imag])
    q, _ = np.linalg.qr(np.concatenate([base[:, None], np.eye(2 * d)[:, : 2 * d - 1]], axis=1))
    grad = np.zeros(2 * d)
    for w in q[:, 1:].T:
        v = w[:d] + 1j * w[d:]
        plus, minus = amps + h * v, amps - h * v
        grad += w * (value(plus / np.linalg.norm(plus)) - value(minus / np.linalg.norm(minus))) / (2 * h)
    return grad[:d] + 1j * grad[d:]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_purity_gradient_matches_central_differences(dim, seed, p):
    for c, amps in _objective_pairs(dim, seed):
        evaluate = _purity_objective(c, p)
        grad = evaluate(amps)[1]()
        fd = central_difference_gradient(lambda a: evaluate(a)[0], amps)
        assert np.linalg.norm(grad - fd) <= 1e-7 * max(np.linalg.norm(grad), np.linalg.norm(fd))
