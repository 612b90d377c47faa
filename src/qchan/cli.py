"""Command-line front end.

Exit codes: 0 = every check passed, 1 = a verified claim's margin fell below
its tolerance (the report carries the witness), 2 = usage or validation error,
3 = numerical failure.  Reports are deterministic for a fixed config: check
order is fixed by identifier, restarts and batch samples derive independent
substreams, and floats are serialized with 17 significant digits.  Timing
fields (``elapsed_ms``, ``wall_clock_ms``) are the only nondeterministic ones.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

from . import __version__
from .channels import (
    KrausChannel,
    depolarizing,
    eq9_refusal,
    identity_channel,
    pauli_qubit,
    phase_damping,
    structural_checks,
)
from .entropy import vn_nats
from .errors import NumericalError, UsageError, ValidationError
from .fileio import load_channel, load_state
from .optimize import min_output_entropy
from .reporting import Check, refusal, timed, to_json
from .verify import (
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

CHANNEL_KINDS = ("identity", "depolarizing", "phase-damping", "damped-depolarizing", "pauli", "file")


@dataclass
class RunConfig:
    """Echoed verbatim into every report; re-running it reproduces the numbers."""

    command: str
    claim: str | None = None
    l: int = 2
    p: float = 0.5
    q: tuple[float, ...] | None = None
    lambdas: tuple[float, float, float] | None = None
    p_norm: float = 2.0
    channel: str = "depolarizing"
    channel_file: str | None = None
    state_file: str | None = None
    restarts: int = 20
    max_iter: int = 500
    tol: float = 1e-9
    seed: int = 0
    samples: int | None = None
    pairs: int = 1000
    eq13_samples: int = 20
    transversal: str = "shift"
    mode: str = "constructive"
    search_count: int = 200
    log_base: str = "e"
    output_format: str = "json"
    output_path: str | None = None

    def resolved_q(self) -> tuple[float, ...]:
        if self.q is None:
            return (0.7,) * (self.l - 1)
        if len(self.q) == 1 and self.l > 2:
            return (self.q[0],) * (self.l - 1)
        return self.q

    def as_dict(self) -> dict[str, Any]:
        """Every field in declaration order, q resolved and tuples as lists.

        output_path is deliberately not echoed: it does not influence any
        computed value, and identical configs must yield identical bytes.
        """
        echo = {}
        for f in fields(self):
            if f.name == "output_path":
                continue
            value = self.resolved_q() if f.name == "q" else getattr(self, f.name)
            echo[f.name] = list(value) if isinstance(value, tuple) else value
        return echo


def _validate_config(cfg: RunConfig) -> None:
    if cfg.l < 2:
        raise UsageError("--l must be an integer >= 2")
    if cfg.restarts < 1:
        raise UsageError("--restarts must be >= 1")
    if cfg.max_iter < 1:
        raise UsageError("--max-iter must be >= 1")
    if cfg.tol <= 0:
        raise UsageError("--tol must be > 0")
    if cfg.samples is not None and cfg.samples < 1:
        raise UsageError("--samples must be >= 1")
    if cfg.pairs < 1:
        raise UsageError("--pairs must be >= 1")
    if cfg.eq13_samples < 1:
        raise UsageError("--eq13-samples must be >= 1")
    if cfg.p_norm <= 1:
        raise UsageError("--p-norm must be > 1")
    if cfg.search_count < 0:
        raise UsageError("--search-count must be >= 0")


def build_channel(cfg: RunConfig) -> KrausChannel:
    if cfg.channel == "identity":
        return identity_channel(cfg.l)
    if cfg.channel == "depolarizing":
        return depolarizing(cfg.l, cfg.p)
    if cfg.channel == "phase-damping":
        return phase_damping(cfg.l, cfg.resolved_q())
    if cfg.channel == "damped-depolarizing":
        return phase_damping(cfg.l, cfg.resolved_q()).compose(depolarizing(cfg.l, cfg.p)).reduced()
    if cfg.channel == "pauli":
        if cfg.lambdas is None:
            raise UsageError("--lambdas is required for --channel pauli")
        return pauli_qubit(*cfg.lambdas)
    if cfg.channel == "file":
        if cfg.channel_file is None:
            raise UsageError("--channel-file is required for --channel file")
        return load_channel(cfg.channel_file)
    raise UsageError(f"--channel must be one of {CHANNEL_KINDS}")


# ---------------------------------------------------------------------------
# Runners: each maps a config to the checks of its report.  They name qchan
# functions through this module's globals when they run, never through objects
# captured at import, so a function replaced on the module is the one called.


def _one(make: Callable[[RunConfig], Check]) -> Callable[[RunConfig], list[Check]]:
    """The runner of a command with a single check, timed here."""
    return lambda cfg: [timed(lambda: make(cfg))]


def _batch(cfg: RunConfig) -> dict[str, int]:
    """``--samples`` when given; otherwise each verify function's own default."""
    return {} if cfg.samples is None else {"samples": cfg.samples}


def _monotonicity(cfg: RunConfig) -> list[Check]:
    channel = build_channel(cfg)
    return [timed(lambda: monotonicity_suite(channel, cfg.pairs, cfg.seed)),
            timed(lambda: entropy_increase_suite(channel, cfg.pairs, cfg.seed))]


_VERIFY_RUNNERS: dict[str, Callable[[RunConfig], list[Check]]] = {
    "eq3": _one(lambda cfg: check_eq3(cfg.l, seed=cfg.seed, transversal=cfg.transversal, **_batch(cfg))),
    "eq5": _one(lambda cfg: check_eq5(cfg.l, seed=cfg.seed, **_batch(cfg))),
    "eq9": _one(lambda cfg: check_eq9(cfg.l, cfg.p)),
    "eq12": _one(lambda cfg: check_eq12(cfg.l, cfg.resolved_q())),
    "prop1": _one(lambda cfg: verify_prop1(cfg.l, seed=cfg.seed, **_batch(cfg))),
    "prop2": _one(lambda cfg: verify_prop2(cfg.l, seed=cfg.seed, **_batch(cfg))),
    "prop3": _one(lambda cfg: verify_prop3(
        cfg.l, cfg.p, seed=cfg.seed, mode=cfg.mode, search_count=cfg.search_count, **_batch(cfg))),
    # prop4 and the theorem time each of their checks themselves.
    "prop4": lambda cfg: list(verify_prop4(cfg.l, seed=cfg.seed, **_batch(cfg))),
    "theorem": lambda cfg: list(verify_theorem(
        cfg.l, cfg.p, cfg.resolved_q(), cfg.restarts, cfg.seed, cfg.eq13_samples, cfg.max_iter, cfg.tol)),
    "monotonicity": _monotonicity,
}
VERIFY_CLAIMS = (*_VERIFY_RUNNERS, "all")


def _run_verify(cfg: RunConfig) -> list[Check]:
    if cfg.claim not in VERIFY_CLAIMS:
        raise UsageError(f"verify needs a claim from {VERIFY_CLAIMS}")
    if cfg.claim != "all":
        return _VERIFY_RUNNERS[cfg.claim](cfg)
    # The monotonicity suites exercise the composed channel unless one was
    # loaded explicitly from a file.  eq9 at composite l is refused, not run.
    mono_cfg = cfg if cfg.channel == "file" else replace(cfg, channel="damped-depolarizing")
    eq9_reason = eq9_refusal(cfg.l)
    checks: list[Check] = []
    for claim, run in _VERIFY_RUNNERS.items():
        if claim == "eq9" and eq9_reason is not None:
            checks.append(refusal("eq9", eq9_reason))
        else:
            checks.extend(run(mono_cfg if claim == "monotonicity" else cfg))
    checks.append(timed(lambda: gradient_suite(seed=cfg.seed, **_batch(cfg))))
    return checks


def _channel_info(cfg: RunConfig) -> Check:
    return replace(structural_checks(build_channel(cfg)), seed=cfg.seed)


def _entropy(cfg: RunConfig) -> Check:
    if cfg.state_file is None:
        raise UsageError("--state-file is required for the entropy command")
    rho = load_state(cfg.state_file)
    applied = False
    if cfg.channel_file is not None:
        rho = load_channel(cfg.channel_file).apply(rho)
        applied = True
    value = vn_nats(rho.matrix)
    witness = {"dim": rho.dim, "applied_channel_file": applied, "clamp_note": rho.note}
    return Check("entropy", lhs=value, rhs=value, margin=0.0, tolerance=math.inf,
                 passed=True, witness=witness, seed=cfg.seed, units="nats")


def _min_entropy(cfg: RunConfig) -> Check:
    channel = build_channel(cfg)
    res = min_output_entropy(channel, cfg.restarts, cfg.max_iter, cfg.tol, cfg.seed)
    witness = {
        "value": res.value,
        "converged": res.converged,
        "restarts": cfg.restarts,
        "iterations": res.iterations,
        "gradient_norm_final": res.gradient_norm_final,
        "argmin": [[float(a.real), float(a.imag)] for a in res.argmin.amplitudes],
    }
    return Check("min_output_entropy", lhs=res.value, rhs=res.value, margin=0.0,
                 tolerance=math.inf, passed=True, witness=witness, seed=cfg.seed, units="nats")


def _capacity(cfg: RunConfig) -> Check:
    channel = build_channel(cfg)
    res = min_output_entropy(channel, cfg.restarts, cfg.max_iter, cfg.tol, cfg.seed)
    # log(dim) - s_min bounds C_1 from above, and the covariant depolarizing
    # channel attains it.
    c1 = math.log(channel.dim) - res.value
    witness = {
        "c1": c1,
        "s_min": res.value,
        "log_dim": math.log(channel.dim),
        "kind": "equality" if cfg.channel == "depolarizing" else "upper_bound",
        "converged": res.converged,
    }
    return Check("capacity", lhs=c1, rhs=c1, margin=0.0,
                 tolerance=math.inf, passed=True, witness=witness, seed=cfg.seed, units="nats")


def _additivity(cfg: RunConfig) -> Check:
    channel = build_channel(cfg)
    return check_additivity(channel, channel, cfg.restarts, cfg.seed,
                            max_iter=cfg.max_iter, grad_tol=cfg.tol).to_check()


def _multiplicativity(cfg: RunConfig) -> Check:
    channel = build_channel(cfg)
    return check_multiplicativity(channel, channel, cfg.p_norm, cfg.restarts, cfg.seed,
                                  max_iter=cfg.max_iter, grad_tol=cfg.tol)


# ---------------------------------------------------------------------------
# Report document and output formats


def build_report(cfg: RunConfig, entries: list[Check], wall_ms: float) -> dict[str, Any]:
    return {
        "version": __version__,
        "config": cfg.as_dict(),
        "checks": [e.as_dict(cfg.log_base) for e in entries],
        "pass": all(e.passed for e in entries),
        "wall_clock_ms": wall_ms,
    }


def render_report(report: dict[str, Any], output_format: str) -> str:
    if output_format == "json":
        return to_json(report)
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "lhs", "rhs", "margin", "tolerance", "pass",
                         "seed", "elapsed_ms", "units", "witness"])
        for check in report["checks"]:
            writer.writerow([
                check["id"],
                *(_csv_number(check[k]) for k in ("lhs", "rhs", "margin", "tolerance")),
                str(check["pass"]).lower(),
                "" if check["seed"] is None else check["seed"],
                _csv_number(check["elapsed_ms"]),
                check["units"],
                to_json(check["witness"], indent=None),
            ])
        return buf.getvalue()
    lines = [f"qchan {report['version']} -- {report['config']['command']}"]
    for check in report["checks"]:
        status = check.get("status") or ("pass" if check["pass"] else "FAIL")
        lines.append(
            f"  [{status}] {check['id']}: margin={_csv_number(check['margin'])} "
            f"(lhs={_csv_number(check['lhs'])}, rhs={_csv_number(check['rhs'])}, "
            f"tol={_csv_number(check['tolerance'])}, {check['units']})"
        )
    lines.append("overall: " + ("pass" if report["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"


def _csv_number(x: Any) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The options every command takes; their defaults are ``RunConfig``'s."""
    parser.add_argument("--l", type=int, help="Hilbert space dimension")
    parser.add_argument("--p", type=float, help="depolarizing strength")
    parser.add_argument("--q", type=str, help="comma-separated damping coefficients q_1..q_{l-1}")
    parser.add_argument("--lambdas", type=str, help="comma-separated Bloch factors for --channel pauli")
    parser.add_argument("--channel", choices=CHANNEL_KINDS)
    parser.add_argument("--channel-file", type=str)
    parser.add_argument("--state-file", type=str)
    parser.add_argument("--p-norm", type=float, help="output norm index p > 1")
    parser.add_argument("--restarts", type=int)
    parser.add_argument("--max-iter", type=int)
    parser.add_argument("--tol", type=float, help="gradient norm tolerance")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int, help="batch size for sampled checks")
    parser.add_argument("--pairs", type=int, help="state pairs for monotonicity")
    parser.add_argument("--eq13-samples", type=int)
    parser.add_argument("--transversal", choices=("shift", "phase"))
    parser.add_argument("--mode", choices=("constructive", "search"))
    parser.add_argument("--search-count", type=int)
    parser.add_argument("--log-base", choices=("e", "2"))
    parser.add_argument("--format", dest="output_format", choices=("json", "csv", "text"))
    parser.add_argument("--output", dest="output_path", type=str)


def _parse_floats(raw: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise UsageError(f"{flag} must be a comma-separated list of numbers, got {raw!r}") from exc


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for every call.

    No action carries a default: an option left out is absent from the
    namespace, and ``RunConfig`` supplies its value.
    """
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Construct bistochastic channels and verify their entropy claims.",
        argument_default=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("channel-info", "entropy", "min-entropy", "capacity",
                 "additivity", "multiplicativity"):
        _add_common(sub.add_parser(name, argument_default=argparse.SUPPRESS))
    verify = sub.add_parser("verify", argument_default=argparse.SUPPRESS)
    verify.add_argument("claim", choices=VERIFY_CLAIMS)
    _add_common(verify)
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    values = vars(_parser().parse_args(argv))
    for name in ("q", "lambdas"):
        if name in values:
            values[name] = _parse_floats(values[name], f"--{name}")
    if "lambdas" in values and len(values["lambdas"]) != 3:
        raise UsageError("--lambdas needs exactly three comma-separated numbers")
    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


_RUNNERS: dict[str, Callable[[RunConfig], list[Check]]] = {
    "channel-info": _one(_channel_info),
    "entropy": _one(_entropy),
    "min-entropy": _one(_min_entropy),
    "capacity": _one(_capacity),
    "additivity": _one(_additivity),
    "multiplicativity": _one(_multiplicativity),
    "verify": _run_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_args(argv)
        start = time.perf_counter()
        entries = _RUNNERS[cfg.command](cfg)
        wall_ms = (time.perf_counter() - start) * 1000.0
        report = build_report(cfg, entries, wall_ms)
        text = render_report(report, cfg.output_format)
        if cfg.output_path:
            with open(cfg.output_path, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return 0 if report["pass"] else 1
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        # argparse has written its usage error (code 2) or its help (code 0)
        return exc.code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
