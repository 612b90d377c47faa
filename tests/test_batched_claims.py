"""The stacked scoring of sampled claims against a per-sample reference loop.

``qchan.verify`` draws every sample of a claim from its own substream and
scores the samples as stacks.  The reference functions below draw the same
sample from the same substream and score it alone, one matrix per call, in the
order of operations of the claim's definition, with ``linalg.apply_left``
applying each operator on the H factor to one matrix at a time.  Every
per-sample margin of the stacked path must equal the reference's exactly.
"""
import json
import math

import numpy as np
import pytest

from qchan import verify as verify_mod
from qchan import weyl
from qchan.channels import depolarizing, identity_channel, phase_damping, random_channel_from
from qchan.cli import main
from qchan.entropy import entropy_of_spectrum, relative_entropy_nats, subnormalized_entropy, vn_nats
from qchan.errors import NotPositiveError, NumericalError
from qchan.linalg import apply_left, dagger, frobenius, hermitian_eig, partial_trace
from qchan.optimize import entropy_gradient, gradient_fd_error
from qchan.reporting import verdict
from qchan.rng import substream
from qchan.states import density_from_matrix, random_density_from, random_pure_from
from qchan.verify import (
    INEQ_TOL,
    MARGINAL_TOL,
    Scores,
    check_eq3,
    check_eq5,
    depolarizing_entropy_constant,
    entropy_increase_suite,
    gradient_suite,
    intertwining_residuals,
    monotonicity_suite,
    resolution_residual,
    verify_prop1,
    verify_prop2,
    verify_prop3,
    verify_theorem,
    worst_over,
)

from helpers import prop3_check, random_mixed_marginal_state

SAMPLES = 7


# ------------------------------------------------------- per-sample reference


def ref_eq3(l, transversal, rng, i):
    x = random_density_from(rng, l, int(rng.integers(1, l + 1))).matrix
    return 0.0 - resolution_residual(weyl.weyl_system(l), x, transversal)


def ref_eq5(l, rng, i):
    families = weyl.all_order_l_subgroups(weyl.weyl_system(l))
    weights = rng.dirichlet(np.ones(l))
    x = random_density_from(rng, l, int(rng.integers(1, l + 1))).matrix
    return 0.0 - max(intertwining_residuals(families[i % len(families)], weights, x))


def ref_gradient_fd(dims, rng, i):
    dim = dims[i % len(dims)]
    c = random_channel_from(rng, dim, int(rng.integers(2, 5)))
    psi = random_pure_from(rng, dim)
    for _ in range(10):
        if float(np.linalg.norm(entropy_gradient(c, psi))) > 1e-7:
            break
        psi = random_pure_from(rng, dim)
    return -gradient_fd_error(c, psi)


def ref_monotonicity(c, rng, i):
    rho1 = random_density_from(rng, c.dim, int(rng.integers(1, c.dim + 1)))
    rho2 = random_density_from(rng, c.dim, c.dim)
    before = relative_entropy_nats(rho1.matrix, rho2.matrix)
    if math.isinf(before):
        return math.inf
    return before - relative_entropy_nats(c.apply_matrix(rho1.matrix), c.apply_matrix(rho2.matrix))


def ref_entropy_increase(c, rng, i):
    rho = random_density_from(rng, c.dim, int(rng.integers(1, c.dim + 1)))
    return vn_nats(c.apply_matrix(rho.matrix)) - vn_nats(rho.matrix)


def ref_eq13(xin, phin, dim, rng, i):
    x = random_density_from(rng, dim, int(rng.integers(1, dim + 1)))
    return vn_nats(xin.apply_matrix(x.matrix)) - vn_nats(phin.apply_matrix(x.matrix))


def ref_prop1(l, dim_k, rng, i):
    lam = rng.dirichlet(np.ones(l))
    eps = rng.dirichlet(np.ones(l))
    x = random_density_from(rng, l * dim_k, int(rng.integers(1, l * dim_k + 1))).matrix
    system = weyl.weyl_system(l)
    lhs_mat = np.zeros_like(x)
    for k in range(l):
        for t in range(l):
            u = system.unitary((t, k))
            lhs_mat = lhs_mat + lam[k] * eps[t] * apply_left(u, x, l, dim_k, conjugate=True)
    rhs_mat = np.zeros_like(x)
    for k in range(l):
        u = system.unitary((0, k))
        rhs_mat = rhs_mat + lam[k] * apply_left(u, x, l, dim_k, conjugate=True)
    return vn_nats(lhs_mat) - vn_nats(rhs_mat)


def ref_prop2(l, dim_k, rng, i):
    families = weyl.all_order_l_subgroups(weyl.weyl_system(l))
    family = families[i % len(families)]
    lam = rng.dirichlet(np.ones(l))
    x = random_density_from(rng, l * dim_k, int(rng.integers(1, l * dim_k + 1))).matrix
    conjugates = [apply_left(u, x, l, dim_k, conjugate=True) for u in family.unitaries()]
    phix = sum(w * y for w, y in zip(lam, conjugates))
    ex = np.zeros_like(x)
    for y in conjugates:
        ex = ex + y
    ex = ex / len(conjugates)
    middle = 0.0
    for proj in weyl.fixed_point_resolution(family):
        middle += subnormalized_entropy(partial_trace(apply_left(proj, ex, l, dim_k), l, dim_k, "left"))
    return vn_nats(phix) - (entropy_of_spectrum(lam) + middle - math.log(l))


def ref_prop3_candidates(l, x, dim_k):
    """(subgroup, projection) labels and entropies of prop3's constructive candidates, in loop order."""
    w = dagger(hermitian_eig(partial_trace(x, l, dim_k, side="right")).vectors)
    wx = apply_left(w, x, l, dim_k, conjugate=True)
    labels, entropies = [], []
    for k in range(l):
        resolution = weyl.fixed_point_resolution(weyl.diagonal_subgroup(weyl.weyl_system(l), k))
        for j, proj in enumerate(resolution):
            block = partial_trace(apply_left(proj, wx, l, dim_k), l, dim_k, side="left")
            labels.append((k, j))
            entropies.append(vn_nats(block / float(np.trace(block).real)))
    return labels, entropies


def ref_prop3(l, p, dim_k, mode, search_count, seed, rng, i):
    x = random_mixed_marginal_state(rng, l, dim_k).matrix
    lifted = depolarizing(l, p).tensor(identity_channel(dim_k))
    marginal = partial_trace(x, l, dim_k, side="right")
    lhs = vn_nats(lifted.apply_matrix(x))
    h_const = depolarizing_entropy_constant(l, p)
    if mode == "constructive":
        assert frobenius(marginal - np.eye(l) / l) <= MARGINAL_TOL
        return lhs - (h_const + min(ref_prop3_candidates(l, x, dim_k)[1]))
    search = substream(seed, 999)
    m_vecs = hermitian_eig(marginal).vectors
    candidates = [m_vecs[:, i] for i in range(l)]
    candidates += [random_pure_from(search, l).amplitudes for _ in range(search_count)]
    best_margin = -math.inf
    for v in candidates:
        if abs(float(np.real(np.vdot(v, marginal @ v))) - 1.0 / l) > MARGINAL_TOL:
            continue
        block = partial_trace(apply_left(np.outer(v, v.conj()), x, l, dim_k), l, dim_k, side="left")
        best_margin = max(best_margin, lhs - (h_const + vn_nats(block / float(np.trace(block).real))))
    return lhs - (lhs - best_margin) if best_margin > -math.inf else -math.inf


def _reference(samples, seed, path, score_one):
    return [score_one(substream(seed, *path, i), i) for i in range(samples)]


# ----------------------------------------------------------- stacked margins


@pytest.fixture
def stacked_margins(monkeypatch):
    """Runs a claim and returns (path, per-sample margins) of each stacked batch it scored."""
    real = verify_mod.worst_over

    def run(claim):
        batches = []

        def spy(samples, seed, draw, *path, score):
            margins = []

            def recording(chunk):
                scores = score(chunk)
                margins.extend(np.asarray(scores.margins).tolist())
                return scores

            check = real(samples, seed, draw, *path, score=recording)
            batches.append((path, margins))
            return check

        monkeypatch.setattr(verify_mod, "worst_over", spy)
        try:
            claim()
        finally:
            monkeypatch.setattr(verify_mod, "worst_over", real)
        return batches

    return run


def _damped(l):
    return phase_damping(l, (0.5,) * (l - 1)).compose(depolarizing(l, 0.3)).reduced()


@pytest.mark.parametrize("stack", [None, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("l", [2, 3, 5])
def test_stacked_margins_equal_the_per_sample_reference(stacked_margins, monkeypatch, l, seed, stack):
    if stack is not None:
        monkeypatch.setattr(verify_mod, "STACK_SAMPLES", stack)
    c = _damped(l)
    cases = [
        (lambda: check_eq3(l, SAMPLES, seed), lambda rng, i: ref_eq3(l, "shift", rng, i)),
        (lambda: check_eq3(l, SAMPLES, seed, "phase"), lambda rng, i: ref_eq3(l, "phase", rng, i)),
        (lambda: check_eq5(l, SAMPLES, seed), lambda rng, i: ref_eq5(l, rng, i)),
        (lambda: monotonicity_suite(c, SAMPLES, seed), lambda rng, i: ref_monotonicity(c, rng, i)),
        (lambda: entropy_increase_suite(c, SAMPLES, seed), lambda rng, i: ref_entropy_increase(c, rng, i)),
        (lambda: verify_prop1(l, SAMPLES, seed), lambda rng, i: ref_prop1(l, l, rng, i)),
        (lambda: verify_prop2(l, SAMPLES, seed), lambda rng, i: ref_prop2(l, l, rng, i)),
        (lambda: verify_prop3(l, 0.3, SAMPLES, seed),
         lambda rng, i: ref_prop3(l, 0.3, l, "constructive", 0, seed, rng, i)),
        (lambda: verify_prop3(l, 0.3, SAMPLES, seed, mode="search", search_count=4),
         lambda rng, i: ref_prop3(l, 0.3, l, "search", 4, seed, rng, i)),
    ]
    for claim, score_one in cases:
        [(path, margins)] = stacked_margins(claim)
        assert path == ()
        assert margins == _reference(SAMPLES, seed, path, score_one)


@pytest.mark.parametrize("stack", [None, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_gradient_fd_margins_equal_the_per_sample_reference(stacked_margins, monkeypatch, seed, stack):
    if stack is not None:
        monkeypatch.setattr(verify_mod, "STACK_SAMPLES", stack)
    [(path, margins)] = stacked_margins(lambda: gradient_suite(SAMPLES, seed))
    assert path == ()
    assert margins == _reference(SAMPLES, seed, path, lambda rng, i: ref_gradient_fd((2, 3, 4), rng, i))


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("l", [2, 3, 5])
def test_stacked_eq13_margins_equal_the_per_sample_reference(stacked_margins, l, seed):
    batches = stacked_margins(lambda: verify_theorem(l, 0.3, (0.5,) * (l - 1), restarts=1, seed=seed,
                                                     eq13_samples=5, max_iter=20))
    phi = depolarizing(l, 0.3)
    xi = phase_damping(l, (0.5,) * (l - 1)).compose(phi).reduced()
    assert [path for path, _ in batches] == [(101,), (102,)]
    for n, (path, margins) in zip((1, 2), batches):
        xin, phin = (xi, phi) if n == 1 else (xi.tensor(xi), phi.tensor(phi))
        assert margins == _reference(5, seed, path, lambda rng, i: ref_eq13(xin, phin, l ** n, rng, i))


@pytest.mark.parametrize("l", [2, 3])
def test_prop3_witness_is_the_first_candidate_within_tolerance_of_the_minimum(l):
    omega = np.eye(l).reshape(-1) / math.sqrt(l)  # every candidate ties at entropy 0
    states = [density_from_matrix(np.outer(omega, omega))]
    states += [random_mixed_marginal_state(substream(s), l, l) for s in range(10)]
    for x in states:
        labels, entropies = ref_prop3_candidates(l, x.matrix, l)
        first = next(i for i, e in enumerate(entropies) if e <= min(entropies) + INEQ_TOL)
        check = prop3_check(l, 0.3, x, l)
        assert (check.witness["subgroup"], check.witness["projection"]) == labels[first]
        assert check.witness["state_entropy"] == min(entropies)


# ------------------------------------------------------------ the driver


def _fixed(margins):
    """A score function whose samples are their indices and whose margins are given."""

    def score(chunk):
        return Scores(np.array([margins[i] for i in chunk]),
                      lambda j: verdict("c", lhs=margins[chunk[j]], rhs=0.0, tolerance=1e-9,
                                        witness={"i": chunk[j]}))

    return score


@pytest.mark.parametrize("stack", [1, 2, 3, 64])
def test_first_index_wins_a_tie_within_and_across_stacks(monkeypatch, stack):
    monkeypatch.setattr(verify_mod, "STACK_SAMPLES", stack)
    margins = [0.5, 0.2, -1.0, -1.0, 0.0, -1.0]
    worst = worst_over(6, 7, lambda rng, i: i, score=_fixed(margins))
    assert worst.margin == -1.0
    assert worst.witness == {"i": 2, "worst_index": 2, "samples": 6}


@pytest.mark.parametrize("stack", [1, 2, 64])
@pytest.mark.parametrize("margins, first_nan", [
    ([0.5, math.nan, 0.7], 1),
    ([math.nan, -1.0, 0.3], 0),
    ([0.1, -1.0, math.nan], 2),
])
def test_a_nan_margin_raises_naming_the_claim_and_sample(monkeypatch, stack, margins, first_nan):
    monkeypatch.setattr(verify_mod, "STACK_SAMPLES", stack)
    with pytest.raises(NumericalError, match=f"^c: margin of sample {first_nan} is NaN$"):
        worst_over(3, 0, lambda rng, i: i, score=_fixed(margins))


def test_a_nan_margin_exits_with_status_3(monkeypatch, capsys):
    monkeypatch.setattr(verify_mod, "resolution_residual", lambda system, x, *args: np.full(len(x), math.nan))
    assert main(["verify", "eq3", "--l", "2", "--samples", "3"]) == 3
    assert "eq3: margin of sample 0 is NaN" in capsys.readouterr().err


@pytest.mark.parametrize("stack", [1, 3, 64])
def test_a_non_psd_sample_mid_batch_is_refused_at_the_lowest_index(monkeypatch, stack):
    monkeypatch.setattr(verify_mod, "STACK_SAMPLES", stack)
    real = verify_mod.random_state_matrix_from
    drawn = []
    injected = {5: -0.3, 7: -0.6}

    def sampler(rng, dim, rank):
        m = real(rng, dim, rank)
        index = len(drawn)
        drawn.append(index)
        if index in injected:
            m = np.diag([1.0 - injected[index], injected[index], 0.0]).astype(complex)
        return m

    monkeypatch.setattr(verify_mod, "random_state_matrix_from", sampler)
    with pytest.raises(NotPositiveError) as err:
        entropy_increase_suite(_damped(3), samples=10, seed=1)
    assert err.value.eigenvalue == pytest.approx(-0.3)


def _stripped_report(tmp_path, l):
    out = tmp_path / f"report-l{l}.json"
    code = main(["verify", "all", "--l", str(l), "--p", "0.3", "--q", "0.5", "--seed", "42",
                 "--samples", "7", "--pairs", "9", "--eq13-samples", "4", "--search-count", "5",
                 "--restarts", "1", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    del doc["wall_clock_ms"]
    for check in doc["checks"]:
        del check["elapsed_ms"]
    return doc


@pytest.mark.parametrize("l", [2, 3])
def test_report_does_not_depend_on_the_stack_size(monkeypatch, tmp_path, l):
    whole = _stripped_report(tmp_path, l)
    for stack in (1, 3):
        monkeypatch.setattr(verify_mod, "STACK_SAMPLES", stack)
        assert _stripped_report(tmp_path, l) == whole
