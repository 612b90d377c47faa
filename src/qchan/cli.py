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
from dataclasses import dataclass, replace
from typing import Any, Callable

from . import __version__
from .channels import (
    KrausChannel,
    depolarizing,
    identity_channel,
    pauli_qubit,
    phase_damping,
    structural_checks,
)
from .entropy import c1_upper_bound, covariant_c1, vn_nats
from .errors import NumericalError, UsageError, ValidationError
from .fileio import load_channel, load_state
from .optimize import min_output_entropy
from .reporting import (
    AdditivityReport,
    MultiplicativityReport,
    Prop4Report,
    PropositionReport,
    SuiteReport,
    to_json,
)
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

LN2 = math.log(2.0)

# Witness keys holding entropies in nats; converted alongside lhs/rhs/margin
# when --log-base 2 is requested.
ENTROPY_WITNESS_KEYS = frozenset({
    "value", "s_min", "s_min_a", "s_min_b", "s_min_joint", "log_dim", "c1",
    "closed_form", "s_min_composed", "s_min_depolarizing", "h_constant",
    "state_entropy",
})

CHANNEL_KINDS = ("identity", "depolarizing", "phase-damping", "damped-depolarizing", "pauli", "file")
VERIFY_CLAIMS = (
    "eq3", "eq5", "eq9", "eq12", "prop1", "prop2", "prop3", "prop4",
    "theorem", "monotonicity", "all",
)


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
        return {
            "command": self.command,
            "claim": self.claim,
            "l": self.l,
            "p": self.p,
            "q": list(self.resolved_q()),
            "lambdas": list(self.lambdas) if self.lambdas else None,
            "p_norm": self.p_norm,
            "channel": self.channel,
            "channel_file": self.channel_file,
            "state_file": self.state_file,
            "restarts": self.restarts,
            "max_iter": self.max_iter,
            "tol": self.tol,
            "seed": self.seed,
            "samples": self.samples,
            "pairs": self.pairs,
            "eq13_samples": self.eq13_samples,
            "transversal": self.transversal,
            "mode": self.mode,
            "search_count": self.search_count,
            "log_base": self.log_base,
            "output_format": self.output_format,
            # output_path is deliberately not echoed: it does not influence
            # any computed value, and identical configs must yield identical bytes.
        }


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
    if cfg.log_base not in ("e", "2"):
        raise UsageError("--log-base must be 'e' or '2'")
    if cfg.output_format not in ("json", "csv", "text"):
        raise UsageError("--format must be json, csv or text")


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
# Check entries


@dataclass
class CheckEntry:
    id: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool
    witness: Any
    seed: int | None
    elapsed_ms: float
    units: str = "dimensionless"

    def as_dict(self, log_base: str) -> dict[str, Any]:
        scale = 1.0 / LN2 if (log_base == "2" and self.units == "nats") else 1.0
        units = self.units
        if self.units == "nats" and log_base == "2":
            units = "bits"

        def conv(x: float) -> float:
            return x if math.isinf(x) else x * scale

        witness = self.witness
        if scale != 1.0 and isinstance(witness, dict):
            witness = {
                key: conv(val) if key in ENTROPY_WITNESS_KEYS and isinstance(val, float) else val
                for key, val in witness.items()
            }
        return {
            "id": self.id,
            "lhs": conv(self.lhs),
            "rhs": conv(self.rhs),
            "margin": conv(self.margin),
            "tolerance": conv(self.tolerance),
            "pass": self.passed,
            "witness": witness,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "units": units,
        }


def _timed(fn: Callable[[], CheckEntry]) -> CheckEntry:
    start = time.perf_counter()
    entry = fn()
    entry.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return entry


def _from_proposition(rep: PropositionReport, units: str = "dimensionless") -> CheckEntry:
    return CheckEntry(
        id=rep.claim_id, lhs=rep.lhs, rhs=rep.rhs, margin=rep.margin,
        tolerance=rep.tolerance, passed=rep.passed, witness=rep.witness,
        seed=rep.seed, elapsed_ms=0.0, units=units,
    )


def _from_additivity(rep: AdditivityReport, check_id: str = "additivity") -> CheckEntry:
    witness = {
        "s_min_a": rep.s_min_a,
        "s_min_b": rep.s_min_b,
        "s_min_joint": rep.s_min_joint,
        "schmidt_coefficients": list(rep.schmidt_coefficients),
        "restarts": rep.restarts,
        "converged": [rep.converged_a, rep.converged_b, rep.converged_joint],
    }
    return CheckEntry(
        id=check_id, lhs=rep.s_min_joint, rhs=rep.s_min_a + rep.s_min_b, margin=rep.gap,
        tolerance=rep.tolerance, passed=rep.passed, witness=witness, seed=rep.seed,
        elapsed_ms=0.0, units="nats",
    )


def _from_multiplicativity(rep: MultiplicativityReport) -> CheckEntry:
    witness = {"p": rep.p, "norm_a": rep.norm_a, "norm_b": rep.norm_b, "restarts": rep.restarts}
    return CheckEntry(
        id="multiplicativity", lhs=rep.norm_joint, rhs=rep.norm_a * rep.norm_b,
        margin=rep.deviation, tolerance=rep.tolerance, passed=rep.passed,
        witness=witness, seed=rep.seed, elapsed_ms=0.0, units="dimensionless",
    )


def _from_suite(rep: SuiteReport, units: str = "nats") -> CheckEntry:
    witness = {"samples": rep.samples, "worst_index": rep.worst_index,
               "infinite_count": rep.infinite_count}
    return CheckEntry(
        id=rep.claim_id, lhs=rep.min_margin, rhs=0.0, margin=rep.min_margin,
        tolerance=rep.tolerance, passed=rep.passed, witness=witness, seed=rep.seed,
        elapsed_ms=0.0, units=units,
    )


def _from_prop4(rep: Prop4Report) -> list[CheckEntry]:
    sampled = CheckEntry(
        id="prop4.sampled",
        lhs=rep.min_margin,
        rhs=0.0,
        margin=rep.min_margin,
        tolerance=1e-10,
        passed=rep.sampled_passed,
        witness={
            "l": rep.l,
            "samples": rep.samples,
            "condition_hits": rep.condition_hits,
            "violation_count": len(rep.violations),
            "violations": [
                {"q": list(v.q), "min_eigenvalue": v.min_eigenvalue} for v in rep.violations
            ],
        },
        seed=rep.seed,
        elapsed_ms=0.0,
    )
    remark_min = min(m for _, m in rep.remark_margins)
    remark = CheckEntry(
        id="prop4.remark",
        lhs=remark_min,
        rhs=0.0,
        margin=remark_min,
        tolerance=1e-10,
        passed=rep.remark_passed,
        witness={"margins": [[big_q, m] for big_q, m in rep.remark_margins]},
        seed=rep.seed,
        elapsed_ms=0.0,
    )
    return [sampled, remark]


# ---------------------------------------------------------------------------
# Subcommand runners (each returns a list of CheckEntry)


def _run_verify_claim(cfg: RunConfig, claim: str) -> list[CheckEntry]:
    q = cfg.resolved_q()
    samples = cfg.samples
    if claim == "eq3":
        n = samples if samples is not None else 100
        return [_timed(lambda: _from_proposition(check_eq3(cfg.l, n, cfg.seed, cfg.transversal)))]
    if claim == "eq5":
        n = samples if samples is not None else 100
        return [_timed(lambda: _from_proposition(check_eq5(cfg.l, n, cfg.seed)))]
    if claim == "eq9":
        return [_timed(lambda: _from_proposition(check_eq9(cfg.l, cfg.p)))]
    if claim == "eq12":
        return [_timed(lambda: _from_proposition(check_eq12(cfg.l, q)))]
    if claim == "prop1":
        n = samples if samples is not None else 200
        return [_timed(lambda: _from_proposition(verify_prop1(cfg.l, n, cfg.seed), units="nats"))]
    if claim == "prop2":
        n = samples if samples is not None else 200
        return [_timed(lambda: _from_proposition(verify_prop2(cfg.l, n, cfg.seed), units="nats"))]
    if claim == "prop3":
        n = samples if samples is not None else 200
        return [_timed(lambda: _from_proposition(
            verify_prop3(cfg.l, cfg.p, n, cfg.seed, mode=cfg.mode, search_count=cfg.search_count),
            units="nats"))]
    if claim == "prop4":
        n = samples if samples is not None else 1000
        entries = []
        start = time.perf_counter()
        rep = verify_prop4(cfg.l, n, cfg.seed)
        elapsed = (time.perf_counter() - start) * 1000.0
        for entry in _from_prop4(rep):
            entry.elapsed_ms = elapsed / 2.0
            entries.append(entry)
        return entries
    if claim == "theorem":
        start = time.perf_counter()
        rep = verify_theorem(cfg.l, cfg.p, q, cfg.restarts, cfg.seed, cfg.eq13_samples,
                             cfg.max_iter, cfg.tol)
        elapsed = (time.perf_counter() - start) * 1000.0
        entries = [
            _from_proposition(rep.basis_projection, units="nats"),
            _from_proposition(rep.s_min_equality, units="nats"),
            *[_from_proposition(r, units="nats") for r in rep.eq13],
            _from_additivity(rep.additivity, check_id="theorem.additivity"),
        ]
        for entry in entries:
            entry.elapsed_ms = elapsed / len(entries)
        return entries
    if claim == "monotonicity":
        channel = build_channel(cfg)
        out = [
            _timed(lambda: _from_suite(monotonicity_suite(channel, cfg.pairs, cfg.seed))),
            _timed(lambda: _from_suite(entropy_increase_suite(channel, cfg.pairs, cfg.seed))),
        ]
        return out
    raise UsageError(f"unknown claim {claim!r}; choose from {VERIFY_CLAIMS}")


def _run_verify(cfg: RunConfig) -> list[CheckEntry]:
    if cfg.claim is None:
        raise UsageError("verify needs a claim argument")
    if cfg.claim != "all":
        return _run_verify_claim(cfg, cfg.claim)
    entries: list[CheckEntry] = []
    # The monotonicity suites exercise the composed channel unless one was
    # loaded explicitly from a file.
    mono_cfg = cfg if cfg.channel == "file" else replace(cfg, channel="damped-depolarizing")
    for claim in ("eq3", "eq5", "eq9", "eq12", "prop1", "prop2", "prop3", "prop4", "theorem"):
        entries.extend(_run_verify_claim(cfg, claim))
    entries.extend(_run_verify_claim(mono_cfg, "monotonicity"))
    entries.append(_timed(lambda: _from_suite(
        gradient_suite(cfg.samples if cfg.samples is not None else 100, cfg.seed),
        units="dimensionless")))
    return entries


def _run_channel_info(cfg: RunConfig) -> list[CheckEntry]:
    def run() -> CheckEntry:
        channel = build_channel(cfg)
        checks = structural_checks(channel)
        witness = {
            "dim": channel.dim,
            "kraus_count": int(channel.ops.shape[0]),
            "tp_residual": checks.tp_residual,
            "unitality_residual": checks.unitality_residual,
            "choi_min_eigenvalue": checks.choi_min_eigenvalue,
            "trace_preserving": checks.trace_preserving,
            "unital": checks.unital,
            "completely_positive": checks.completely_positive,
        }
        return CheckEntry(
            id="channel_info", lhs=checks.choi_min_eigenvalue, rhs=0.0,
            margin=checks.choi_min_eigenvalue, tolerance=1e-10,
            passed=checks.trace_preserving and checks.completely_positive,
            witness=witness, seed=cfg.seed, elapsed_ms=0.0,
        )

    return [_timed(run)]


def _run_entropy(cfg: RunConfig) -> list[CheckEntry]:
    def run() -> CheckEntry:
        if cfg.state_file is None:
            raise UsageError("--state-file is required for the entropy command")
        rho = load_state(cfg.state_file)
        applied = False
        if cfg.channel_file is not None:
            rho = load_channel(cfg.channel_file).apply(rho)
            applied = True
        value = vn_nats(rho.matrix)
        witness = {"dim": rho.dim, "applied_channel_file": applied, "clamp_note": rho.note}
        return CheckEntry(
            id="entropy", lhs=value, rhs=value, margin=0.0, tolerance=math.inf,
            passed=True, witness=witness, seed=cfg.seed, elapsed_ms=0.0, units="nats",
        )

    return [_timed(run)]


def _run_min_entropy(cfg: RunConfig) -> list[CheckEntry]:
    def run() -> CheckEntry:
        channel = build_channel(cfg)
        res = min_output_entropy(channel, cfg.restarts, cfg.max_iter, cfg.tol, cfg.seed)
        witness = {
            "value": res.value,
            "converged": res.converged,
            "restarts": res.restarts_used,
            "iterations": res.iterations,
            "gradient_norm_final": res.gradient_norm_final,
            "argmin": [[float(a.real), float(a.imag)] for a in res.argmin.amplitudes],
        }
        return CheckEntry(
            id="min_output_entropy", lhs=res.value, rhs=res.value, margin=0.0,
            tolerance=math.inf, passed=True, witness=witness, seed=cfg.seed,
            elapsed_ms=0.0, units="nats",
        )

    return [_timed(run)]


def _run_capacity(cfg: RunConfig) -> list[CheckEntry]:
    def run() -> CheckEntry:
        channel = build_channel(cfg)
        res = min_output_entropy(channel, cfg.restarts, cfg.max_iter, cfg.tol, cfg.seed)
        covariant = cfg.channel == "depolarizing"
        bound = (covariant_c1 if covariant else c1_upper_bound)(channel, res.value, base="e")
        witness = {
            "c1": bound.value,
            "s_min": res.value,
            "log_dim": math.log(channel.dim),
            "kind": "equality" if bound.equality else "upper_bound",
            "converged": res.converged,
        }
        return CheckEntry(
            id="capacity", lhs=bound.value, rhs=bound.value, margin=0.0,
            tolerance=math.inf, passed=True, witness=witness, seed=cfg.seed,
            elapsed_ms=0.0, units="nats",
        )

    return [_timed(run)]


def _run_additivity(cfg: RunConfig) -> list[CheckEntry]:
    def run() -> CheckEntry:
        channel = build_channel(cfg)
        rep = check_additivity(channel, channel, cfg.restarts, cfg.seed,
                               max_iter=cfg.max_iter, grad_tol=cfg.tol)
        return _from_additivity(rep)

    return [_timed(run)]


def _run_multiplicativity(cfg: RunConfig) -> list[CheckEntry]:
    def run() -> CheckEntry:
        channel = build_channel(cfg)
        rep = check_multiplicativity(channel, channel, cfg.p_norm, cfg.restarts, cfg.seed,
                                     max_iter=cfg.max_iter, grad_tol=cfg.tol)
        return _from_multiplicativity(rep)

    return [_timed(run)]


# ---------------------------------------------------------------------------
# Report document and output formats


def build_report(cfg: RunConfig, entries: list[CheckEntry], wall_ms: float) -> dict[str, Any]:
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
        status = "pass" if check["pass"] else "FAIL"
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
    parser.add_argument("--l", type=int, default=2, help="Hilbert space dimension")
    parser.add_argument("--p", type=float, default=0.5, help="depolarizing strength")
    parser.add_argument("--q", type=str, default=None,
                        help="comma-separated damping coefficients q_1..q_{l-1}")
    parser.add_argument("--lambdas", type=str, default=None,
                        help="comma-separated Bloch factors for --channel pauli")
    parser.add_argument("--channel", choices=CHANNEL_KINDS, default="depolarizing")
    parser.add_argument("--channel-file", type=str, default=None)
    parser.add_argument("--state-file", type=str, default=None)
    parser.add_argument("--p-norm", type=float, default=2.0, help="output norm index p > 1")
    parser.add_argument("--restarts", type=int, default=20)
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--tol", type=float, default=1e-9, help="gradient norm tolerance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=None, help="batch size for sampled checks")
    parser.add_argument("--pairs", type=int, default=1000, help="state pairs for monotonicity")
    parser.add_argument("--eq13-samples", type=int, default=20)
    parser.add_argument("--transversal", choices=("shift", "phase"), default="shift")
    parser.add_argument("--mode", choices=("constructive", "search"), default="constructive")
    parser.add_argument("--search-count", type=int, default=200)
    parser.add_argument("--log-base", choices=("e", "2"), default="e")
    parser.add_argument("--format", dest="output_format", choices=("json", "csv", "text"),
                        default="json")
    parser.add_argument("--output", dest="output_path", type=str, default=None)


def _parse_floats(raw: str | None, flag: str) -> tuple[float, ...] | None:
    if raw is None:
        return None
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise UsageError(f"{flag} must be a comma-separated list of numbers, got {raw!r}") from exc


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for every call."""
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Construct bistochastic channels and verify their entropy claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("channel-info", "entropy", "min-entropy", "capacity",
                 "additivity", "multiplicativity"):
        _add_common(sub.add_parser(name))
    verify = sub.add_parser("verify")
    verify.add_argument("claim", choices=VERIFY_CLAIMS)
    _add_common(verify)
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    ns = _parser().parse_args(argv)
    lambdas = _parse_floats(getattr(ns, "lambdas", None), "--lambdas")
    if lambdas is not None and len(lambdas) != 3:
        raise UsageError("--lambdas needs exactly three comma-separated numbers")
    cfg = RunConfig(
        command=ns.command,
        claim=getattr(ns, "claim", None),
        l=ns.l,
        p=ns.p,
        q=_parse_floats(ns.q, "--q"),
        lambdas=lambdas,
        p_norm=ns.p_norm,
        channel=ns.channel,
        channel_file=ns.channel_file,
        state_file=ns.state_file,
        restarts=ns.restarts,
        max_iter=ns.max_iter,
        tol=ns.tol,
        seed=ns.seed,
        samples=ns.samples,
        pairs=ns.pairs,
        eq13_samples=ns.eq13_samples,
        transversal=ns.transversal,
        mode=ns.mode,
        search_count=ns.search_count,
        log_base=ns.log_base,
        output_format=ns.output_format,
        output_path=ns.output_path,
    )
    _validate_config(cfg)
    return cfg


_RUNNERS: dict[str, Callable[[RunConfig], list[CheckEntry]]] = {
    "channel-info": _run_channel_info,
    "entropy": _run_entropy,
    "min-entropy": _run_min_entropy,
    "capacity": _run_capacity,
    "additivity": _run_additivity,
    "multiplicativity": _run_multiplicativity,
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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
