"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here, taken verbatim from the package contract;
closed-form expectations are recomputed inline from scalar formulas rather
than imported from the code under test.
"""
import json
import math
import time

import numpy as np

from qchan.channels import (
    choi_distance,
    depolarizing,
    pauli_qubit,
    phase_damping,
)
from qchan.cli import main
from qchan.reporting import to_json
from qchan.verify import (
    check_additivity,
    check_eq3,
    check_eq5,
    check_eq9,
    check_eq12,
    check_multiplicativity,
    entropy_increase_suite,
    gradient_suite,
    monotonicity_suite,
    verify_prop1,
    verify_prop2,
    verify_prop3,
    verify_prop4,
    verify_theorem,
)
from qchan.optimize import min_output_entropy


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion} failed: {detail}"


def closed_form_min_entropy(l: int, p: float) -> float:
    # scalar oracle: entropy of the output spectrum (1-(l-1)p/l, p/l, ..., p/l)
    lam0 = 1.0 - (l - 1) * p / l
    return -(lam0 * math.log(lam0) + (l - 1) * (p / l) * math.log(p / l))


def test_criterion_1_min_output_entropy_closed_form():
    cases = [(2, 0.5), (2, 1.0), (3, 0.3), (3, 1.0), (5, 0.4)]
    worst = 0.0
    slowest = 0.0
    for l, p in cases:
        start = time.monotonic()
        res = min_output_entropy(depolarizing(l, p), restarts=20, seed=0)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        worst = max(worst, abs(res.value - closed_form_min_entropy(l, p)))
        assert elapsed <= 10.0, f"(l={l}, p={p}) took {elapsed:.1f}s > 10s"
    _verdict(
        "criterion 1", worst <= 1e-6,
        f"min output entropy matches closed form, worst |error| = {worst:.2e} "
        f"(tol 1e-6), slowest case {slowest:.2f}s (limit 10s)",
    )


def test_criterion_2_additivity_depolarizing():
    worst = 0.0
    slowest = 0.0
    for l in (2, 3):
        for p in (0.3, 0.5, 1.0):
            c = depolarizing(l, p)
            start = time.monotonic()
            rep = check_additivity(c, c, restarts=40, seed=0)
            elapsed = time.monotonic() - start
            slowest = max(slowest, elapsed)
            worst = max(worst, abs(rep.gap))
            assert elapsed <= 60.0, f"(l={l}, p={p}) took {elapsed:.1f}s > 60s"
            assert rep.gap >= -1e-9, f"gap {rep.gap} below the product-witness floor"
    _verdict(
        "criterion 2", worst <= 1e-5,
        f"depolarizing additivity gap, worst |gap| = {worst:.2e} (tol 1e-5), "
        f"slowest case {slowest:.1f}s (limit 60s)",
    )


def test_criterion_3_theorem():
    ok = True
    details = []
    for l, p, q in ((2, 0.5, (0.7,)), (3, 0.3, (0.5, 0.5))):
        checks = verify_theorem(l, p, q, restarts=20, seed=0)
        basis, s_min, *eq13, additivity = checks
        assert basis.tolerance == 1e-11
        assert s_min.tolerance == 1e-6
        assert all(r.tolerance == 1e-9 for r in eq13)
        assert additivity.tolerance == 1e-5
        ok = ok and all(c.passed for c in checks)
        details.append(
            f"l={l}: basis {basis.rhs:.1e}, "
            f"smin diff {s_min.rhs:.1e}, "
            f"eq13 margins {min(r.margin for r in eq13):.1e}, "
            f"gap {additivity.margin:.1e}"
        )
    _verdict("criterion 3", ok, "; ".join(details))


def test_criterion_4_propositions_1_to_3():
    start = time.monotonic()
    margins = []
    for l in (2, 3):
        p = 0.5 if l == 2 else 0.3
        margins.append(("prop1", l, verify_prop1(l, samples=200, seed=0).margin))
        margins.append(("prop2", l, verify_prop2(l, samples=200, seed=0).margin))
        margins.append(("prop3", l, verify_prop3(l, p, samples=200, seed=0).margin))
    elapsed = time.monotonic() - start
    worst = min(m for _, _, m in margins)
    assert elapsed <= 300.0, f"batches took {elapsed:.0f}s > 5min"
    _verdict(
        "criterion 4", worst >= -1e-9,
        f"200 random instances per proposition at l in {{2,3}}, worst margin = "
        f"{worst:.2e} (floor -1e-9), total {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_5_proposition_4():
    ok = True
    details = []
    for l in (3, 4, 5):
        sampled, remark = verify_prop4(l, samples=1000, seed=0)
        violations = sampled.witness["violations"]
        # the report must list the minimum margin and carry a certificate
        # eigenvalue for every violation found; the outcome is recorded, not presumed
        assert sampled.witness["condition_hits"] > 0
        assert math.isfinite(sampled.margin)
        consistent = sampled.passed == (len(violations) == 0)
        for violation in violations:
            consistent = consistent and violation["min_eigenvalue"] < -1e-10
        remark_exact = all(
            abs(margin - (1.0 - big_q)) <= 1e-12 for big_q, margin in remark.witness["margins"]
        )
        ok = ok and consistent and remark_exact and remark.passed
        details.append(
            f"l={l}: {sampled.witness['condition_hits']} hits, min margin {sampled.margin:.3e}, "
            f"{len(violations)} counterexample(s)"
        )
    _verdict("criterion 5", ok, "; ".join(details) + "; constant-Q margins equal 1-Q")


def test_criterion_6_structural_identities():
    eq3_worst = max(check_eq3(l, samples=100, seed=0).rhs for l in (2, 3, 5))
    eq5_worst = max(check_eq5(l, samples=100, seed=0).rhs for l in (2, 3, 5))
    eq9_worst = max(check_eq9(l, p).rhs for l, p in ((2, 0.5), (3, 0.5), (5, 0.5)))
    grid_worst = 0.0
    for lam3 in np.linspace(0.1, 1.0, 10):
        for lam1 in np.linspace(0.0, lam3, 10):
            composed = phase_damping(2, (lam1 / lam3,)).compose(depolarizing(2, 1.0 - lam3))
            grid_worst = max(grid_worst, choi_distance(composed, pauli_qubit(lam1, lam1, lam3)))
    ok = eq3_worst <= 1e-11 and eq5_worst <= 1e-11 and eq9_worst <= 1e-10 and grid_worst <= 1e-12
    _verdict(
        "criterion 6", ok,
        f"resolution residual {eq3_worst:.1e} (tol 1e-11), intertwining {eq5_worst:.1e} "
        f"(tol 1e-11), coset reconstruction {eq9_worst:.1e} (tol 1e-10), "
        f"qubit factorization grid {grid_worst:.1e} (tol 1e-12)",
    )


def test_criterion_7_eq12_diagnostic():
    reports = 0
    for l in (2, 3, 4, 5):
        for value in (0.0, 0.25, 0.5, 0.75, 1.0):
            rep = check_eq12(l, (value,) * (l - 1))
            serialized = to_json({
                "id": rep.claim_id, "lhs": rep.lhs, "rhs": rep.rhs,
                "margin": rep.margin, "witness": rep.witness,
            })
            parsed = json.loads(serialized)
            assert parsed["witness"]["q_bar"] is not None
            assert "max_entry_residual" in parsed["witness"]
            assert rep.passed  # diagnostic: no fixed residual target
            reports += 1
    _verdict(
        "criterion 7", reports == 20,
        f"{reports} residual reports computed and serialized across l in 2..5 and a q grid",
    )


def test_criterion_8_monotonicity_and_entropy_increase():
    families = [
        ("depolarizing(2, 0.5)", depolarizing(2, 0.5)),
        ("depolarizing(3, 0.3)", depolarizing(3, 0.3)),
        ("phase_damping(3, (0.5, 0.5))", phase_damping(3, (0.5, 0.5))),
        ("pauli(0.5, 0.3, 0.2)", pauli_qubit(0.5, 0.3, 0.2)),
        ("damped depolarizing", phase_damping(2, (0.7,)).compose(depolarizing(2, 0.5))),
    ]
    worst = math.inf
    for _, channel in families:
        mono = monotonicity_suite(channel, pairs=1000, seed=0)
        incr = entropy_increase_suite(channel, samples=1000, seed=0)
        worst = min(worst, mono.margin, incr.margin)
    _verdict(
        "criterion 8", worst >= -1e-9,
        f"1000 pairs/states per family across {len(families)} families, "
        f"worst margin = {worst:.2e} (floor -1e-9)",
    )


def test_criterion_9_gradient_correctness():
    rep = gradient_suite(samples=100, seed=0)
    _verdict(
        "criterion 9", rep.passed,
        f"100 random (channel, state) draws over dims 2-4, max relative "
        f"finite-difference error = {-rep.margin:.2e} (tol 1e-5)",
    )


def test_criterion_10_multiplicativity_p2():
    worst = 0.0
    for l, p in ((2, 0.5), (3, 0.3)):
        c = depolarizing(l, p)
        rep = check_multiplicativity(c, c, 2.0, restarts=20, seed=0)
        worst = max(worst, abs(rep.margin))
    _verdict(
        "criterion 10", worst <= 1e-5,
        f"output 2-norm multiplicativity for depolarizing pairs, worst "
        f"|deviation| = {worst:.2e} (tol 1e-5)",
    )


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("elapsed_ms", "wall_clock_ms")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_criterion_11_determinism(tmp_path):
    args = ["verify", "all", "--l", "2", "--p", "0.5", "--q", "0.7", "--seed", "42"]
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    start = time.monotonic()
    codes = [main(args + ["--output", str(path)]) for path in paths]
    elapsed = time.monotonic() - start
    assert codes == [0, 0], f"verify all exited with {codes}"
    assert elapsed <= 600.0, f"two verify-all runs took {elapsed:.0f}s"
    first, second = (json.loads(path.read_text()) for path in paths)
    identical = to_json(_strip_timing(first)) == to_json(_strip_timing(second))
    _verdict(
        "criterion 11", identical,
        f"verify all twice with seed 42: byte-identical JSON modulo timing "
        f"fields (exit codes 0, {elapsed / 2:.1f}s per run, limit 300s)",
    )
