"""The shape of a full ``verify all`` report: check ids, units, tolerances, witness keys.

Only structure is pinned, never a computed float, so BLAS differences cannot
break it; a change to the report layout has to show up here.
"""
import json
import math

from qchan.cli import main

SMALL_SIZES = [
    "--samples", "5", "--pairs", "20", "--eq13-samples", "3", "--search-count", "5",
    "--restarts", "3",
]

ADDITIVITY_KEYS = {"converged", "restarts", "s_min_a", "s_min_b", "s_min_joint", "schmidt_coefficients"}

# (id, units, tolerance, witness keys) in report order.
EXPECTED_SHAPE = [
    ("eq3", "dimensionless", 1e-11, {"samples", "transversal", "worst_index"}),
    ("eq5", "dimensionless", 1e-11, {"family", "residual_e_phi", "residual_phi_e", "samples", "worst_index"}),
    ("eq9", "dimensionless", 1e-10, {"c0", "c1", "l", "normalization_residual", "p"}),
    ("eq12", "dimensionless", math.inf, {"diagnostic_only", "max_entry", "max_entry_residual", "q", "q_bar"}),
    ("prop1", "nats", 1e-9, {"dim_k", "epsilon", "lambda", "samples", "worst_index"}),
    ("prop2", "nats", 1e-9, {"dim_k", "family", "lambda", "samples", "worst_index"}),
    ("prop3", "nats", 1e-9, {"h_constant", "marginal_deviation", "mode", "p", "projection", "samples",
                             "state_entropy", "subgroup", "trace_deviation", "worst_index"}),
    ("prop4.sampled", "dimensionless", 1e-10, {"condition_hits", "l", "samples", "violation_count",
                                               "violations"}),
    ("prop4.remark", "dimensionless", 1e-10, {"margins"}),
    ("theorem.basis_projection", "nats", 1e-11, {"worst_projection"}),
    ("theorem.s_min_equality", "nats", 1e-6, {"closed_form", "s_min_composed", "s_min_depolarizing"}),
    ("theorem.eq13_n1", "nats", 1e-9, {"samples", "worst_index"}),
    ("theorem.eq13_n2", "nats", 1e-9, {"samples", "worst_index"}),
    ("theorem.additivity", "nats", 1e-5, ADDITIVITY_KEYS),
    ("monotonicity", "nats", 1e-9, {"infinite_count", "samples", "worst_index"}),
    ("entropy_increase", "nats", 1e-9, {"samples", "worst_index"}),
    ("gradient_fd", "dimensionless", 1e-5, {"samples", "worst_index"}),
]


def _tolerance(value):
    return math.inf if value == "inf" else value


def test_verify_all_report_shape(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "all", "--l", "2", "--p", "0.3", "--q", "0.5", "--seed", "42",
                 *SMALL_SIZES, "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    shape = [
        (check["id"], check["units"], _tolerance(check["tolerance"]), set(check["witness"]))
        for check in report["checks"]
    ]
    assert [row[0] for row in shape] == [row[0] for row in EXPECTED_SHAPE]
    assert shape == EXPECTED_SHAPE
