import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qchan
from qchan import cli
from qchan.cli import RunConfig, main
from qchan.fileio import load_channel, save_channel
from qchan.channels import depolarizing, kraus_channel, phase_damping

from helpers import random_density, save_state


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_verify_eq3_exit_zero(tmp_path):
    code, report = run_cli(["verify", "eq3", "--l", "3", "--seed", "7"], tmp_path)
    assert code == 0
    check = report["checks"][0]
    assert check["id"] == "eq3"
    assert check["rhs"] <= 1e-11
    assert report["pass"] is True


def test_min_entropy_value(tmp_path):
    code, report = run_cli(
        ["min-entropy", "--channel", "depolarizing", "--l", "2", "--p", "0.5",
         "--restarts", "20", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    value = report["checks"][0]["lhs"]
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(value - expected) <= 1e-6
    assert report["checks"][0]["units"] == "nats"


def test_min_entropy_log_base_two(tmp_path):
    _, nats = run_cli(["min-entropy", "--l", "2", "--p", "0.5", "--seed", "1"], tmp_path, "a.json")
    _, bits = run_cli(
        ["min-entropy", "--l", "2", "--p", "0.5", "--seed", "1", "--log-base", "2"],
        tmp_path, "b.json",
    )
    assert bits["checks"][0]["lhs"] == pytest.approx(nats["checks"][0]["lhs"] / math.log(2), rel=1e-12)
    assert bits["checks"][0]["units"] == "bits"


@pytest.mark.parametrize("flag, value", [("--log-base", "10"), ("--format", "xml")])
def test_unknown_choice_exits_2(flag, value, capsys):
    # argparse's choices are the only check of these two options
    assert main(["min-entropy", flag, value]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_verify_prop4_zero_samples_is_usage_error(tmp_path, capsys):
    code = main(["verify", "prop4", "--l", "4", "--samples", "0"])
    assert code == 2
    assert "--samples" in capsys.readouterr().err


def test_invalid_dimension_is_usage_error(capsys):
    code = main(["verify", "eq3", "--l", "1"])
    assert code == 2
    assert "--l" in capsys.readouterr().err


def test_channel_file_broken_tp_exit_two(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    path.write_text("dim 2\nkraus 1\n1:0, 0:0\n0:0, 0.5:0\n")
    code = main(["channel-info", "--channel", "file", "--channel-file", str(path)])
    assert code == 2
    assert "race preservation" in capsys.readouterr().err


# Each command that reads a file, with the flags that name it.
FILE_COMMANDS = [["channel-info", "--channel", "file", "--channel-file"], ["entropy", "--state-file"]]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=["channel-info", "entropy"])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    header = "dim 1\nkraus 1\n" if command[0] == "channel-info" else "dim 1\n"
    path.write_bytes(header.encode() + b"1:0 \xff\n")
    assert main(command + [str(path)]) == 2
    line = header.count("\n") + 1
    assert f"line {line}, column 5: byte 0xff is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=["channel-info", "entropy"])
def test_missing_file_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "missing.txt"
    assert main(command + [str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


def test_channel_info_depolarizing(tmp_path):
    code, report = run_cli(["channel-info", "--channel", "depolarizing", "--l", "3", "--p", "0.3"], tmp_path)
    assert code == 0
    witness = report["checks"][0]["witness"]
    assert witness["dim"] == 3
    assert witness["unital"] and witness["trace_preserving"] and witness["completely_positive"]


CHANNEL_INFO_KEYS = ["dim", "kraus_count", "tp_residual", "unitality_residual", "choi_min_eigenvalue",
                     "trace_preserving", "unital", "completely_positive"]


@pytest.mark.parametrize("saved", [False, True], ids=["depolarizing", "saved-l5-square"])
def test_channel_info_entry(tmp_path, saved):
    args = ["channel-info", "--channel", "depolarizing", "--l", "3", "--p", "0.3"]
    if saved:
        xi = phase_damping(5, (0.3,) * 4).compose(depolarizing(5, 0.2)).reduced()
        path = tmp_path / "square.txt"
        save_channel(path, xi.tensor(xi).reduced())
        args = ["channel-info", "--channel", "file", "--channel-file", str(path)]
    code, report = run_cli(args + ["--seed", "4"], tmp_path)
    assert code == 0
    check = report["checks"][0]
    assert check["id"] == "channel_info" and check["pass"] is True and check["seed"] == 4
    assert list(check["witness"]) == CHANNEL_INFO_KEYS
    assert check["tolerance"] == 1e-10
    assert check["lhs"] == check["margin"] == check["witness"]["choi_min_eigenvalue"]
    assert check["rhs"] == 0
    assert (check["witness"]["dim"], check["witness"]["kraus_count"]) == ((25, 625) if saved else (3, 9))


def test_entropy_subcommand(tmp_path):
    rho = random_density(3, 3, seed=5)
    state_path = tmp_path / "state.txt"
    save_state(state_path, rho)
    code, report = run_cli(["entropy", "--state-file", str(state_path)], tmp_path)
    assert code == 0
    from qchan.entropy import vn_nats

    assert report["checks"][0]["lhs"] == pytest.approx(vn_nats(rho.matrix), abs=1e-12)


def test_capacity_depolarizing_equality(tmp_path):
    code, report = run_cli(
        ["capacity", "--channel", "depolarizing", "--l", "2", "--p", "0.5", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    check = report["checks"][0]
    expected = math.log(2) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
    assert check["lhs"] == pytest.approx(expected, abs=1e-6)
    witness = check["witness"]
    assert witness["kind"] == "equality"
    assert witness["c1"] == witness["log_dim"] - witness["s_min"]


def test_capacity_non_covariant_upper_bound(tmp_path):
    code, report = run_cli(
        ["capacity", "--channel", "phase-damping", "--l", "2", "--q", "0.5", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    witness = report["checks"][0]["witness"]
    assert witness["kind"] == "upper_bound"
    assert witness["c1"] == witness["log_dim"] - witness["s_min"]


def test_additivity_subcommand(tmp_path):
    code, report = run_cli(
        ["additivity", "--channel", "depolarizing", "--l", "2", "--p", "0.5",
         "--restarts", "8", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    check = report["checks"][0]
    assert abs(check["margin"]) <= 1e-5
    assert "schmidt_coefficients" in check["witness"]


def test_multiplicativity_subcommand(tmp_path):
    code, report = run_cli(
        ["multiplicativity", "--channel", "depolarizing", "--l", "2", "--p", "0.5",
         "--p-norm", "2", "--restarts", "8", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    assert abs(report["checks"][0]["margin"]) <= 1e-5


def test_exit_one_on_failed_claim(tmp_path):
    # amplitude damping is a valid channel but not unital: the bistochastic
    # entropy-increase suite must fail and drive exit code 1
    gamma = 0.5
    ops = np.array([
        [[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]],
        [[0.0, math.sqrt(gamma)], [0.0, 0.0]],
    ], dtype=complex)
    path = tmp_path / "ad.txt"
    save_channel(path, kraus_channel(ops))
    code, report = run_cli(
        ["verify", "monotonicity", "--channel", "file", "--channel-file", str(path),
         "--pairs", "50", "--seed", "4"],
        tmp_path,
    )
    assert code == 1
    by_id = {c["id"]: c for c in report["checks"]}
    assert by_id["monotonicity"]["pass"] is True
    assert by_id["entropy_increase"]["pass"] is False
    assert report["pass"] is False


def test_report_validates_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    schema = json.loads(resources.files("qchan").joinpath("report.schema.json").read_text())
    _, report = run_cli(["verify", "eq5", "--l", "2", "--samples", "20", "--seed", "5"], tmp_path)
    jsonschema.validate(report, schema)


def test_report_schema_on_theorem(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    schema = json.loads(resources.files("qchan").joinpath("report.schema.json").read_text())
    _, report = run_cli(
        ["verify", "theorem", "--l", "2", "--p", "0.5", "--q", "0.7",
         "--restarts", "6", "--seed", "6", "--eq13-samples", "5"],
        tmp_path,
    )
    jsonschema.validate(report, schema)


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["verify", "eq3", "--l", "2", "--samples", "10", "--seed", "0",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("id,lhs,rhs,margin")
    assert lines[1].startswith("eq3,")


def test_text_format(tmp_path):
    out = tmp_path / "report.txt"
    code = main(["verify", "eq3", "--l", "2", "--samples", "10", "--seed", "0",
                 "--format", "text", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "[pass] eq3" in text and "overall: pass" in text


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("elapsed_ms", "wall_clock_ms")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_report_deterministic_modulo_timing(tmp_path):
    args = ["verify", "prop1", "--l", "2", "--samples", "25", "--seed", "9"]
    _, rep_a = run_cli(args, tmp_path, "a.json")
    _, rep_b = run_cli(args, tmp_path, "b.json")
    from qchan.reporting import to_json

    assert to_json(_strip_timing(rep_a)) == to_json(_strip_timing(rep_b))


def test_floats_roundtrip_17g(tmp_path):
    _, report = run_cli(["min-entropy", "--l", "2", "--p", "0.5", "--seed", "1"], tmp_path)
    value = report["checks"][0]["lhs"]
    assert float(f"{value:.17g}") == value


def test_stdout_default(capsys):
    code = main(["verify", "eq3", "--l", "2", "--samples", "5", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pass"] is True


def test_log_base_converts_witness_entropies(tmp_path):
    _, nats = run_cli(["capacity", "--l", "2", "--p", "0.5", "--seed", "1"], tmp_path, "n.json")
    _, bits = run_cli(["capacity", "--l", "2", "--p", "0.5", "--seed", "1", "--log-base", "2"],
                      tmp_path, "b.json")
    w_nats, w_bits = nats["checks"][0]["witness"], bits["checks"][0]["witness"]
    assert w_bits["s_min"] == pytest.approx(w_nats["s_min"] / math.log(2), rel=1e-12)
    assert w_bits["kind"] == w_nats["kind"]


def test_additivity_damped_depolarizing_defaults_no_false_failure(tmp_path):
    # The theorem says this channel is additive.  With every line search
    # started at step 1, the default 500 iterations left the single-channel
    # searches above the joint one and the check failed with a gap of -2.6e-4.
    code, report = run_cli(
        ["additivity", "--channel", "damped-depolarizing", "--l", "3", "--p", "0.234",
         "--q", "0.672", "--seed", "0"],
        tmp_path,
    )
    assert code == 0
    check = report["checks"][0]
    assert check["pass"] is True
    assert abs(check["margin"]) <= check["tolerance"]


@pytest.mark.parametrize("module", ["qchan", "qchan.cli"])
def test_python_m_entry_points(module):
    env = dict(os.environ)
    src = str(Path(qchan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "eq3", "--l", "2", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [check["id"] for check in report["checks"]] == ["eq3"]
    assert report["pass"] is True


def test_channel_info_on_saved_tensor_square(tmp_path):
    xi = phase_damping(3, (0.5, 0.5)).compose(depolarizing(3, 0.3)).reduced()
    path = tmp_path / "square.txt"
    save_channel(path, xi.tensor(xi).reduced())
    env = dict(os.environ)
    src = str(Path(qchan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qchan", "channel-info", "--channel", "file", "--channel-file", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    witness = json.loads(proc.stdout)["checks"][0]["witness"]
    dense = float(np.linalg.eigvalsh(load_channel(path).choi)[0])
    assert abs(witness["choi_min_eigenvalue"] - dense) <= 1e-12
    assert witness["trace_preserving"] and witness["unital"] and witness["completely_positive"]


def _schema():
    import importlib.resources as resources

    return json.loads(resources.files("qchan").joinpath("report.schema.json").read_text())


def test_theorem_checks_are_timed_one_by_one(tmp_path):
    code, report = run_cli(["verify", "theorem", "--l", "2", "--seed", "1"], tmp_path)
    assert code == 0
    elapsed = [c["elapsed_ms"] for c in report["checks"] if c["id"].startswith("theorem.")]
    assert len(elapsed) == 5
    assert len(set(elapsed)) > 1
    assert sum(elapsed) <= report["wall_clock_ms"]


def test_prop4_with_no_draw_meeting_the_condition_is_refused(tmp_path):
    # At l = 11 none of 1000 draws (seed 1) meets the averaging condition, so
    # nothing is tested; at l = 7 ten do and the claim runs.
    code, report = run_cli(["verify", "prop4", "--l", "11", "--samples", "1000", "--seed", "1"], tmp_path)
    assert code == 0 and report["pass"] is True
    sampled, remark = report["checks"]
    assert sampled["id"] == "prop4.sampled" and sampled["status"] == "refused"
    assert sampled["witness"]["condition_hits"] == 0 and "1000 draws" in sampled["witness"]["reason"]
    assert (sampled["lhs"], sampled["margin"], sampled["tolerance"]) == (0, 0, "inf")
    assert "status" not in remark
    _, ran = run_cli(["verify", "prop4", "--l", "7", "--samples", "1000", "--seed", "1"], tmp_path, "l7.json")
    assert "status" not in ran["checks"][0] and ran["checks"][0]["witness"]["condition_hits"] == 10
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, _schema())


def test_prop4_checks_are_timed_one_by_one(tmp_path):
    code, report = run_cli(["verify", "prop4", "--l", "3", "--samples", "200"], tmp_path)
    assert code == 0
    sampled, remark = report["checks"]
    assert sampled["elapsed_ms"] != remark["elapsed_ms"]
    assert sampled["elapsed_ms"] + remark["elapsed_ms"] <= report["wall_clock_ms"]


VERIFY_ALL_SMALL = ["--p", "0.3", "--q", "0.5", "--seed", "42", "--samples", "5", "--pairs", "20",
                    "--eq13-samples", "3", "--search-count", "5", "--restarts", "3"]


def test_verify_all_composite_l_refuses_eq9_and_runs_the_rest(tmp_path):
    code, report = run_cli(["verify", "all", "--l", "4", *VERIFY_ALL_SMALL], tmp_path, "l4.json")
    assert code == 0 and report["pass"] is True
    _, prime = run_cli(["verify", "all", "--l", "3", *VERIFY_ALL_SMALL], tmp_path, "l3.json")
    assert [c["id"] for c in report["checks"]] == [c["id"] for c in prime["checks"]]
    refused = [c for c in report["checks"] if "status" in c]
    assert [c["id"] for c in refused] == ["eq9"]
    eq9 = refused[0]
    assert eq9["status"] == "refused" and eq9["pass"] is True and eq9["seed"] is None
    assert (eq9["lhs"], eq9["rhs"], eq9["margin"], eq9["tolerance"]) == (0, 0, 0, "inf")
    assert "(2, 1)" in eq9["witness"]["reason"]
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, _schema())
    jsonschema.validate(prime, _schema())


def test_refused_eq9_in_text_and_csv(tmp_path):
    args = ["verify", "all", "--l", "4", *VERIFY_ALL_SMALL]
    assert main(args + ["--format", "text", "--output", str(tmp_path / "r.txt")]) == 0
    assert "  [refused] eq9: " in (tmp_path / "r.txt").read_text()
    assert main(args + ["--format", "csv", "--output", str(tmp_path / "r.csv")]) == 0
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "id,lhs,rhs,margin,tolerance,pass,seed,elapsed_ms,units,witness"
    assert [line for line in lines if line.startswith("eq9,")][0].startswith("eq9,0,0,0,inf,true,,")


def test_eq9_alone_at_composite_l_is_usage_error(capsys):
    from qchan.errors import UsageError
    from qchan.verify import check_eq9

    assert main(["verify", "eq9", "--l", "4"]) == 2
    assert "needs prime l" in capsys.readouterr().err
    with pytest.raises(UsageError):
        check_eq9(4, 0.3)


def test_config_echo_lists_every_field_but_the_output_path(tmp_path):
    code, report = run_cli(["verify", "eq3", "--l", "3", "--q", "0.4", "--samples", "2",
                            "--lambdas", "0.1,0.2,0.3"], tmp_path)
    assert code == 0
    config = report["config"]
    assert list(config) == [f.name for f in fields(RunConfig) if f.name != "output_path"]
    assert config["q"] == [0.4, 0.4] and config["lambdas"] == [0.1, 0.2, 0.3]
    assert config["claim"] == "eq3" and config["samples"] == 2


COMMANDS = {"channel-info": [], "entropy": [], "min-entropy": [], "capacity": [],
            "additivity": [], "multiplicativity": [], "verify": ["eq3"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_run_config_supplies_every_default(command):
    required = COMMANDS[command]
    want = RunConfig(command=command, claim=required[0] if required else None)
    assert cli.parse_args([command, *required]) == want


def test_no_parser_action_carries_a_default():
    top = cli._parser()
    [sub] = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(COMMANDS)
    for parser in (top, *sub.choices.values()):
        for action in parser._actions:
            if action is not sub:
                assert action.default is argparse.SUPPRESS, (parser.prog, action.dest)
