import json
import math
import sys

import numpy as np
import pytest

from qchan import cli, weyl
from qchan import verify as verify_mod
from qchan.channels import depolarizing, identity_channel, kraus_channel, phase_damping
from qchan.entropy import relative_entropy_nats
from qchan.errors import UsageError
from qchan.linalg import partial_trace
from qchan.optimize import OptimizationResult
from qchan.states import PureState, density_from_matrix, pure_to_density
from qchan.rng import substream
from qchan.verify import (
    check_additivity,
    check_eq3,
    check_eq5,
    check_eq9,
    check_eq12,
    check_multiplicativity,
    depolarizing_entropy_constant,
    entropy_increase_suite,
    gradient_suite,
    intertwining_residuals,
    monotonicity_suite,
    resolution_residual,
    verify_prop1,
    verify_prop2,
    verify_prop3,
    verify_prop4,
    verify_theorem,
    worst_over,
)

from helpers import (
    maximally_mixed,
    mixture_of_unitaries,
    prop3_check,
    random_density,
    random_mixed_marginal_state,
    random_pure,
    random_unitary,
)


# ----------------------------------------------------------------------- eq3


def test_eq3_exact_for_maximally_mixed():
    system = weyl.weyl_system(3)
    assert resolution_residual(system, maximally_mixed(3).matrix) < 1e-13


@pytest.mark.parametrize("transversal", ["shift", "phase"])
def test_eq3_random_states(transversal):
    system = weyl.weyl_system(3)
    x = pure_to_density(random_pure(3, seed=1))
    assert resolution_residual(system, x.matrix, transversal) <= 1e-11
    system5 = weyl.weyl_system(5)
    x5 = random_density(5, 3, seed=2)
    assert resolution_residual(system5, x5.matrix, transversal) <= 1e-11


def test_check_eq3_batch():
    rep = check_eq3(2, samples=50, seed=3)
    assert rep.passed and rep.rhs <= 1e-11
    assert rep.claim_id == "eq3"


# ----------------------------------------------------------------------- eq5


def test_eq5_uniform_weights_exact():
    system = weyl.weyl_system(3)
    family = weyl.phase_subgroup(system)
    x = random_density(3, 3, seed=4)
    r1, r2 = intertwining_residuals(family, [1 / 3] * 3, x.matrix)
    assert r1 < 1e-13 and r2 < 1e-13


def test_eq5_random_weights():
    system = weyl.weyl_system(3)
    rng = substream(5)
    lam = rng.dirichlet(np.ones(3))
    x = random_density(3, 2, seed=6)
    for family in weyl.all_order_l_subgroups(system):
        r1, r2 = intertwining_residuals(family, lam, x.matrix)
        assert r1 <= 1e-11 and r2 <= 1e-11


def test_eq5_fixed_point_input():
    # diagonal x is fixed by the phase family: Phi(x) = E(x) = x
    system = weyl.weyl_system(3)
    family = weyl.phase_subgroup(system)
    x = density_from_matrix(np.diag([0.5, 0.3, 0.2]))
    r1, r2 = intertwining_residuals(family, [0.7, 0.2, 0.1], x.matrix)
    assert r1 < 1e-14 and r2 < 1e-14


def test_check_eq5_batch():
    rep = check_eq5(3, samples=60, seed=7)
    assert rep.passed and rep.rhs <= 1e-11


# ------------------------------------------------------------------ eq9, eq12


def test_check_eq9():
    rep = check_eq9(3, 0.3)
    assert rep.passed and rep.rhs <= 1e-10
    assert rep.witness["normalization_residual"] <= 1e-12


def test_check_eq9_composite_rejected():
    with pytest.raises(UsageError):
        check_eq9(4, 0.3)


def test_check_eq12_diagnostic_never_fails():
    rep = check_eq12(2, (0.5,))
    assert rep.passed  # diagnostic: residual reported, not asserted
    assert rep.rhs == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert rep.witness["q_bar"] == pytest.approx(1.0)
    rep3 = check_eq12(3, (1.0, 0.4))
    assert rep3.rhs <= 1e-12


# ---------------------------------------------------------------------- prop1


def prop1_check(system, lam, eps, x, dim_k):
    """prop1 on one state x with weight vectors lam and eps."""
    lam, eps = np.array([lam], dtype=float), np.array([eps], dtype=float)
    return verify_mod._prop1_scores(system, lam, eps, x.matrix[None], dim_k).check(0)


def test_prop1_degenerate_epsilon_margin_zero():
    system = weyl.weyl_system(2)
    rng = substream(8)
    lam = rng.dirichlet(np.ones(2))
    eps = np.array([1.0, 0.0])  # concentrated on the unit element
    x = random_density(4, 2, seed=9)
    rep = prop1_check(system, lam, eps, x, dim_k=2)
    assert abs(rep.margin) <= 1e-10


def test_prop1_uniform_weights_random_pure():
    system = weyl.weyl_system(2)
    x = pure_to_density(random_pure(4, seed=10))
    rep = prop1_check(system, [0.5, 0.5], [0.5, 0.5], x, dim_k=2)
    assert rep.margin >= -1e-9
    assert rep.passed


def test_prop1_batch():
    rep = verify_prop1(3, samples=50, seed=11)
    assert rep.passed and rep.margin >= -1e-9


# ---------------------------------------------------------------------- prop2


def prop2_check(family, lam, x, dim_k):
    """prop2 on one state x with weight vector lam."""
    return verify_mod._prop2_scores(family, np.array([lam], dtype=float), x.matrix[None], dim_k).check(0)


def test_prop2_maximally_mixed_closed_form():
    system = weyl.weyl_system(2)
    family = weyl.phase_subgroup(system)
    x = maximally_mixed(4)
    rep = prop2_check(family, [0.5, 0.5], x, dim_k=2)
    assert rep.lhs == pytest.approx(math.log(4), abs=1e-12)
    assert rep.margin == pytest.approx(0.0, abs=1e-10)


def test_prop2_random_pure():
    system = weyl.weyl_system(2)
    family = weyl.phase_subgroup(system)
    rng = substream(13)
    lam = rng.dirichlet(np.ones(2))
    x = pure_to_density(random_pure(4, seed=14))
    rep = prop2_check(family, lam, x, dim_k=2)
    assert rep.margin >= -1e-9


def test_prop2_concentrated_weights():
    system = weyl.weyl_system(3)
    family = weyl.diagonal_subgroup(system, 1)
    x = pure_to_density(random_pure(9, seed=15))
    rep = prop2_check(family, [1.0, 0.0, 0.0], x, dim_k=3)
    assert rep.margin >= -1e-9


def test_prop2_batch():
    rep = verify_prop2(2, samples=50, seed=16)
    assert rep.passed and rep.margin >= -1e-9


# ---------------------------------------------------------------------- prop3


def test_prop3_product_state_margin():
    l, p = 2, 0.5
    sigma = random_density(2, 2, seed=17)
    x = density_from_matrix(np.kron(np.eye(l) / l, sigma.matrix))
    rep = prop3_check(l, p, x, dim_k=2)
    # rho recovers sigma, so the margin is exactly log l - h(p, l)
    expected = math.log(l) - depolarizing_entropy_constant(l, p)
    assert rep.margin == pytest.approx(expected, abs=1e-9)
    assert rep.margin >= 0


def test_prop3_constructive_random():
    rng = substream(18)
    x = random_mixed_marginal_state(rng, 2, 2)
    rep = prop3_check(2, 0.5, x, dim_k=2)
    assert rep.passed and rep.margin >= -1e-9


def test_prop3_constructive_rejects_generic_marginal():
    x = pure_to_density(random_pure(4, seed=19))  # generic marginal, not I/2
    with pytest.raises(UsageError, match="search"):
        prop3_check(2, 0.5, x, dim_k=2)


def test_prop3_search_mode():
    rng = substream(20)
    x = random_mixed_marginal_state(rng, 2, 2)
    rep = prop3_check(2, 0.5, x, dim_k=2, mode="search", search_count=50, seed=20)
    assert rep.passed and rep.margin >= -1e-9


def test_prop3_search_mode_no_candidates():
    sigma = random_density(2, 1, seed=21)
    x = density_from_matrix(np.kron(np.diag([0.9, 0.1]), sigma.matrix))
    rep = prop3_check(2, 0.5, x, dim_k=2, mode="search", search_count=20, seed=21)
    assert not rep.passed
    assert rep.witness["candidates_kept"] == 0


def test_prop3_e_average_equals_direct_projection():
    # Tr_H((P (x) I) E(y)) = Tr_H((P (x) I) y) because P is family-fixed
    system = weyl.weyl_system(2)
    family = weyl.diagonal_subgroup(system, 1)
    res = weyl.fixed_point_resolution(family)
    rng = substream(22)
    y = random_mixed_marginal_state(rng, 2, 2).matrix
    ey = np.zeros_like(y)
    for g in family.elements:
        u = np.kron(system.unitary(g), np.eye(2))
        ey += u @ y @ u.conj().T
    ey /= 2
    for proj in res:
        lifted = np.kron(proj, np.eye(2))
        direct = partial_trace(lifted @ y, 2, 2, "left")
        averaged = partial_trace(lifted @ ey, 2, 2, "left")
        assert np.abs(direct - averaged).max() < 1e-12


def test_prop3_batch():
    rep = verify_prop3(2, 0.5, samples=40, seed=23)
    assert rep.passed and rep.margin >= -1e-9


# ---------------------------------------------------------------------- prop4


def test_prop4_constant_q_family():
    _, remark = verify_prop4(4, samples=10, seed=24)
    assert remark.passed
    for big_q, margin in remark.witness["margins"]:
        assert margin == pytest.approx(1.0 - big_q, abs=1e-12)


def test_prop4_qubit_vacuous_condition():
    sampled, _ = verify_prop4(2, samples=200, seed=25)
    assert sampled.witness["condition_hits"] == 200  # no interior coefficients to constrain
    assert sampled.passed and sampled.margin >= -1e-12


def test_prop4_l5_reports_counterexamples_when_found():
    sampled, _ = verify_prop4(5, samples=2000, seed=26)
    violations = sampled.witness["violations"]
    assert sampled.witness["condition_hits"] > 0
    # consistency between the violation list and the minimum margin
    assert sampled.passed == (sampled.margin >= -1e-10) == (len(violations) == 0)
    for violation in violations:
        assert violation["min_eigenvalue"] < -1e-10
        assert len(violation["q"]) == 4


def test_prop4_known_counterexample_detected():
    # q = (0.5, 0, 0.5, *) satisfies the averaging condition at l = 5 yet the
    # multiplier matrix is indefinite; the sampler must flag such vectors.
    from qchan.channels import PhaseDampingParams, schur_matrix

    c = schur_matrix(PhaseDampingParams(l=5, q=(0.5, 0.0, 0.5, 0.0)))
    q_bar = (1.0 + 0.5 + 0.0 + 0.5) / 4
    assert all(v <= q_bar for v in (0.5, 0.0, 0.5))
    assert np.linalg.eigvalsh(c)[0] < -1e-3


def test_prop4_deterministic():
    a = verify_prop4(3, samples=100, seed=27)
    b = verify_prop4(3, samples=100, seed=27)
    assert a == b


# ----------------------------------------------------------- additivity et al.


def test_additivity_identity_channels():
    rep = check_additivity(identity_channel(2), identity_channel(2), restarts=3, seed=28)
    assert abs(rep.s_min_a) <= 1e-10 and abs(rep.s_min_b) <= 1e-10
    assert abs(rep.s_min_joint) <= 1e-10
    assert rep.passed


def test_additivity_depolarizing():
    c = depolarizing(2, 0.5)
    rep = check_additivity(c, c, restarts=10, seed=29)
    assert rep.passed and abs(rep.gap) <= 1e-5
    assert rep.gap >= -1e-9  # product witness direction
    assert rep.s_min_joint == pytest.approx(2 * depolarizing_entropy_constant(2, 0.5), abs=1e-5)
    assert len(rep.schmidt_coefficients) == 2


def _record_searches(monkeypatch, name):
    """Make verify's ``name`` search append each channel it searches to the returned list."""
    searched = []
    search = getattr(verify_mod, name)

    def recording(c, *args, **kwargs):
        searched.append(c)
        return search(c, *args, **kwargs)

    monkeypatch.setattr(verify_mod, name, recording)
    return searched


def _damped_l3():
    return phase_damping(3, (0.5, 0.5)).compose(depolarizing(3, 0.3)).reduced()


def test_additivity_searches_a_repeated_channel_once(monkeypatch):
    c = _damped_l3()
    searched = _record_searches(monkeypatch, "min_output_entropy")
    rep = check_additivity(c, c, restarts=1, seed=42)
    assert len(searched) == 2
    assert searched[0] is c and searched[1].dim == 9
    assert rep.s_min_b == rep.s_min_a
    witness = rep.to_check().witness
    assert witness["s_min_b"] == witness["s_min_a"]
    assert witness["converged"][1] == witness["converged"][0]
    assert rep.passed


def test_multiplicativity_searches_a_repeated_channel_once(monkeypatch):
    c = _damped_l3()
    searched = _record_searches(monkeypatch, "max_output_purity")
    rep = check_multiplicativity(c, c, 2.0, restarts=1, seed=42)
    assert len(searched) == 2
    assert searched[0] is c and searched[1].dim == 9
    assert rep.witness["norm_b"] == rep.witness["norm_a"]
    assert rep.passed


def test_additivity_searches_equal_distinct_channels_apart(monkeypatch):
    a, b = identity_channel(2), identity_channel(2)
    searched = _record_searches(monkeypatch, "min_output_entropy")
    assert check_additivity(a, b, restarts=3, seed=28).passed
    assert len(searched) == 3
    assert searched[0] is a and searched[1] is b and searched[2].dim == 4


def test_multiplicativity_identity():
    rep = check_multiplicativity(identity_channel(2), identity_channel(2), 2.0,
                                 restarts=3, seed=30)
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_multiplicativity_depolarizing():
    c = depolarizing(2, 0.5)
    rep = check_multiplicativity(c, c, 2.0, restarts=8, seed=31)
    assert rep.witness["norm_a"] == pytest.approx(math.sqrt(0.625), abs=1e-9)
    assert abs(rep.margin) <= 1e-5


def werner_holevo(d):
    """The Werner-Holevo channel: Kraus operators (|i><j| - |j><i|)/sqrt(2) for i < j."""
    ops = []
    for i in range(d):
        for j in range(i + 1, d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j], k[j, i] = 1.0, -1.0
            ops.append(k / math.sqrt(2.0))
    return kraus_channel(np.array(ops))


@pytest.mark.parametrize("p, violated", [(2.0, False), (4.0, False), (5.0, True), (8.0, True)])
def test_multiplicativity_werner_holevo_negative_control(p, violated):
    # The d = 3 Werner-Holevo channel breaks multiplicativity of the maximal
    # output p-norm for p above about 4.79; the search must find the
    # violation (margin 4.0e-3 at p = 5, 3.6e-2 at p = 8), not report equality.
    # Two restarts miss it at p = 5, so the check runs with five.
    c = werner_holevo(3)
    rep = check_multiplicativity(c, c, p, restarts=5, seed=0)
    assert rep.passed == (not violated)
    if violated:
        assert rep.margin > 1e-3
    else:
        assert abs(rep.margin) <= 1e-12


@pytest.mark.parametrize("offset", [-2e-5, -5e-6, 5e-6, 2e-5])
def test_multiplicativity_verdict_is_two_sided(monkeypatch, offset):
    # Norms 0.8 and 0.8 against a joint norm of 0.64 + offset.
    def fake_pair_search(a, b, search, restarts, seed, max_iter, grad_tol):
        state = PureState(np.array([1.0, 0.0]))
        values = (0.64, 0.64, (0.64 + offset) ** 2)
        return [OptimizationResult(v, state, 0, "gradient_tol", 0.0) for v in values]

    monkeypatch.setattr(verify_mod, "_pair_search", fake_pair_search)
    rep = check_multiplicativity(identity_channel(2), identity_channel(2), 2.0, restarts=3, seed=4)
    assert rep.margin == pytest.approx(offset, abs=1e-12)
    assert rep.passed == (abs(offset) <= 1e-5)
    assert list(rep.witness) == ["p", "norm_a", "norm_b", "restarts"]
    assert (rep.claim_id, rep.units, rep.seed) == ("multiplicativity", "dimensionless", 4)
    assert rep.tolerance == 1e-5


# -------------------------------------------------------------------- suites


def test_monotonicity_unitary_conjugation_margin_zero():
    c = mixture_of_unitaries([1.0], [random_unitary(2, seed=32)])
    rep = monotonicity_suite(c, pairs=50, seed=33)
    assert rep.passed
    assert abs(rep.margin) <= 1e-10


def test_monotonicity_depolarizing():
    rep = monotonicity_suite(depolarizing(2, 0.5), pairs=200, seed=34)
    assert rep.passed and rep.margin >= -1e-9


@pytest.mark.parametrize("l", [2, 3])
def test_monotonicity_pairs_all_test_the_inequality(l):
    # A pair with infinite S(rho1, rho2) passes without testing anything.
    rep = monotonicity_suite(depolarizing(l, 0.3), pairs=200, seed=42)
    assert rep.witness["infinite_count"] == 0
    assert rep.passed and math.isfinite(rep.lhs)


def test_monotonicity_dephasing_infinite_before_finite_after():
    plus = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    minus = PureState(np.array([1.0, -1.0]) / math.sqrt(2))
    rho_plus, rho_minus = pure_to_density(plus), pure_to_density(minus)
    before = relative_entropy_nats(rho_plus.matrix, rho_minus.matrix)
    assert math.isinf(before)
    dephasing = phase_damping(2, (0.0,))
    after = relative_entropy_nats(
        dephasing.apply_matrix(rho_plus.matrix), dephasing.apply_matrix(rho_minus.matrix)
    )
    assert after == pytest.approx(0.0, abs=1e-11)


def test_entropy_increase_depolarizing():
    rep = entropy_increase_suite(depolarizing(3, 0.3), samples=200, seed=35)
    assert rep.passed and rep.margin >= -1e-9


def test_gradient_suite():
    rep = gradient_suite(samples=30, seed=36)
    assert rep.passed
    assert -rep.margin <= 1e-5


# -------------------------------------------------------------------- theorem


def test_theorem_trivial_damping():
    checks = verify_theorem(2, 0.5, (1.0,), restarts=5, seed=37, eq13_samples=5)
    assert all(c.passed for c in checks)
    assert checks[1].rhs <= 1e-9  # theorem.s_min_equality


def test_theorem_qubit_case():
    checks = verify_theorem(2, 0.5, (0.7,), restarts=10, seed=38, eq13_samples=10)
    basis, s_min, *eq13, additivity = checks
    assert all(c.passed for c in checks)
    closed = depolarizing_entropy_constant(2, 0.5)
    assert s_min.witness["s_min_composed"] == pytest.approx(closed, abs=1e-6)
    assert all(r.passed for r in eq13)
    assert additivity.passed


def test_verify_batch_deterministic():
    a = verify_prop1(2, samples=25, seed=39)
    b = verify_prop1(2, samples=25, seed=39)
    assert a == b


def test_additivity_joint_value_frozen():
    # 2 * (-(0.75 ln 0.75 + 0.25 ln 0.25)) = 1.1246702892376166
    c = depolarizing(2, 0.5)
    rep = check_additivity(c, c, restarts=10, seed=40)
    assert rep.s_min_joint == pytest.approx(1.1246702892376166, abs=1e-5)


def test_additivity_composed_channel_pair():
    xi = phase_damping(2, (0.7,)).compose(depolarizing(2, 0.5))
    rep = check_additivity(xi, xi, restarts=15, seed=41)
    assert rep.passed and abs(rep.gap) <= 1e-5


# ------------------------------------------------------------------- caches


def _qchan_caches() -> dict:
    """Every lru_cache-wrapped function in the loaded qchan modules, by name."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qchan" or name.startswith("qchan.")):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def _clear_caches() -> dict:
    caches = _qchan_caches()
    for fn in caches.values():
        fn.cache_clear()
    return caches


def test_caches_do_not_grow_with_job_data():
    caches = _clear_caches()
    assert {"qchan.weyl.weyl_system", "qchan.weyl.fixed_point_resolution"} <= set(caches)
    ps = np.linspace(0.1, 0.9, 20)
    verify_prop3(2, float(ps[0]), samples=2, seed=0)
    verify_prop2(2, samples=4, seed=0)
    first = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert first["qchan.weyl.fixed_point_resolution"] > 0
    for i in range(1, 20):
        verify_prop3(2, float(ps[i]), samples=2, seed=0)
        verify_prop2(2, samples=4, seed=i)
    after = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert after == first


def test_verify_all_cold_and_warm_caches_agree(tmp_path):
    def report(name: str) -> dict:
        path = tmp_path / name
        code = cli.main(["verify", "all", "--l", "3", "--p", "0.3", "--q", "0.5", "--seed", "4",
                         "--samples", "5", "--pairs", "20", "--eq13-samples", "2",
                         "--search-count", "5", "--restarts", "2", "--output", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        del doc["wall_clock_ms"]
        for check in doc["checks"]:
            del check["elapsed_ms"]
        return doc

    _clear_caches()
    cold = report("cold.json")
    assert report("warm.json") == cold


# ---------------------------------------------------------------- worst_over


def test_worst_over_first_index_wins_a_tie():
    margins = [0.5, -1.0, -1.0, 0.2]

    def score(chunk):
        return verify_mod._scores("c", [margins[i] for i in chunk], 0.0,
                                  lambda j: {"i": chunk[j]}, tolerance=1e-9)

    worst = worst_over(4, 7, lambda rng, i: i, score=score)
    assert worst.margin == -1.0 and not worst.passed
    assert worst.witness == {"i": 1, "worst_index": 1, "samples": 4}
    assert worst.seed == 7


def test_worst_over_draws_each_sample_from_its_own_substream():
    seen = []

    def draw(rng, i):
        seen.append(rng.random())

    worst_over(3, 5, draw, 100, 2, score=lambda chunk: verify_mod._scores("c", np.zeros(len(chunk)), 0.0, tolerance=0.0))
    assert seen == [substream(5, 100, 2, i).random() for i in range(3)]


def test_monotonicity_all_infinite_pairs(monkeypatch):
    # relative_entropy_nats takes stacks of states and returns one value per pair.
    monkeypatch.setattr(verify_mod, "relative_entropy_nats", lambda a, b: np.full(len(a), math.inf))
    rep = monotonicity_suite(depolarizing(2, 0.5), pairs=6, seed=3)
    assert rep.margin == math.inf and rep.lhs == math.inf and rep.passed
    assert rep.witness == {"worst_index": 0, "samples": 6, "infinite_count": 6}


_BATCH_CHECKS = {
    "eq3": lambda: check_eq3(2, samples=0),
    "eq5": lambda: check_eq5(2, samples=0),
    "prop1": lambda: verify_prop1(2, samples=0),
    "prop2": lambda: verify_prop2(2, samples=0),
    "prop3": lambda: verify_prop3(2, 0.5, samples=0),
    "prop4": lambda: verify_prop4(2, samples=0),
    "monotonicity": lambda: monotonicity_suite(depolarizing(2, 0.5), pairs=0),
    "entropy_increase": lambda: entropy_increase_suite(depolarizing(2, 0.5), samples=0),
    "gradient_fd": lambda: gradient_suite(samples=0),
    "theorem.eq13": lambda: verify_theorem(2, 0.5, (0.7,), restarts=1, eq13_samples=0),
}


@pytest.mark.parametrize("claim", sorted(_BATCH_CHECKS))
def test_empty_batch_is_usage_error(claim):
    with pytest.raises(UsageError, match="samples must be >= 1"):
        _BATCH_CHECKS[claim]()
