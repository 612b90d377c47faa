"""Structured verdicts for verified claims and their JSON serialization.

Margin convention: every claim is normalized to "lhs >= rhs within tolerance",
so ``margin = lhs - rhs`` and ``passed == (margin >= -tolerance)``.  Residual
claims use lhs = 0 and rhs = residual.  Floats are emitted with 17 significant
digits (bit-faithful round-trips); infinities, which JSON cannot carry as
numbers, become the strings "inf" / "-inf".
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

LN2 = math.log(2.0)

# Witness keys holding entropies in nats; converted alongside lhs/rhs/margin
# when --log-base 2 is requested.
ENTROPY_WITNESS_KEYS = frozenset({
    "value", "s_min", "s_min_a", "s_min_b", "s_min_joint", "log_dim", "c1",
    "closed_form", "s_min_composed", "s_min_depolarizing", "h_constant",
    "state_entropy",
})


@dataclass(frozen=True)
class Check:
    """Verdict for one claim instance or batch (worst case); one report entry.

    ``status`` is set only for a claim that was refused rather than run.
    """

    claim_id: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool
    witness: dict[str, Any] | None = None
    seed: int | None = None
    units: str = "dimensionless"
    elapsed_ms: float = field(default=0.0, compare=False)
    status: str | None = None

    def as_dict(self, log_base: str = "e") -> dict[str, Any]:
        """The report entry, with nats converted to bits when ``log_base`` is "2"."""
        to_bits = log_base == "2" and self.units == "nats"
        scale = 1.0 / LN2 if to_bits else 1.0

        def conv(x: float) -> float:
            return x if math.isinf(x) else x * scale

        witness = self.witness
        if to_bits and isinstance(witness, dict):
            witness = {
                key: conv(val) if key in ENTROPY_WITNESS_KEYS and isinstance(val, float) else val
                for key, val in witness.items()
            }
        entry = {
            "id": self.claim_id,
            "lhs": conv(self.lhs),
            "rhs": conv(self.rhs),
            "margin": conv(self.margin),
            "tolerance": conv(self.tolerance),
            "pass": self.passed,
            "witness": witness,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "units": "bits" if to_bits else self.units,
        }
        if self.status is not None:
            entry["status"] = self.status
        return entry


def verdict(
    claim_id: str,
    lhs: float,
    rhs: float,
    tolerance: float,
    witness: dict[str, Any] | None = None,
    seed: int | None = None,
    units: str = "dimensionless",
) -> Check:
    """Build a check, deriving margin and pass from the normalized convention."""
    margin = lhs - rhs
    return Check(
        claim_id=claim_id, lhs=lhs, rhs=rhs, margin=margin, tolerance=tolerance,
        passed=bool(margin >= -tolerance), witness=witness, seed=seed, units=units,
    )


def refusal(claim_id: str, reason: str, witness: dict[str, Any] | None = None,
            seed: int | None = None) -> Check:
    """A claim refused for this configuration rather than run: it passes, and its witness gives the reason."""
    return Check(claim_id, lhs=0.0, rhs=0.0, margin=0.0, tolerance=math.inf, passed=True,
                 witness={**(witness or {}), "reason": reason}, seed=seed, status="refused")


def timed(make: Callable[[], Check]) -> Check:
    """``make()`` stamped with its own wall time in milliseconds."""
    start = time.perf_counter()
    check = make()
    return replace(check, elapsed_ms=(time.perf_counter() - start) * 1000.0)


@dataclass(frozen=True)
class AdditivityReport:
    """Output-entropy infimum of a tensor pair against the sum of the parts."""

    s_min_a: float
    s_min_b: float
    s_min_joint: float
    gap: float
    schmidt_coefficients: tuple[float, ...]
    restarts: int
    seed: int
    tolerance: float
    passed: bool
    converged_a: bool
    converged_b: bool
    converged_joint: bool

    def to_check(self, check_id: str = "additivity") -> Check:
        witness = {
            "s_min_a": self.s_min_a,
            "s_min_b": self.s_min_b,
            "s_min_joint": self.s_min_joint,
            "schmidt_coefficients": list(self.schmidt_coefficients),
            "restarts": self.restarts,
            "converged": [self.converged_a, self.converged_b, self.converged_joint],
        }
        return Check(
            claim_id=check_id, lhs=self.s_min_joint, rhs=self.s_min_a + self.s_min_b,
            margin=self.gap, tolerance=self.tolerance, passed=self.passed, witness=witness,
            seed=self.seed, units="nats",
        )


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not representable in reports")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def to_json(obj: Any, indent: int | None = 2) -> str:
    """Serialize a report tree deterministically with 17-digit floats.

    ``indent=None`` emits a compact single line (no trailing newline).
    """
    text = "".join(_emit(obj, indent, 0))
    return text if indent is None else text + "\n"


def _emit(obj: Any, indent: int | None, level: int):
    if indent is None:
        first, sep, last, colon = "", ",", "", ":"
    else:
        pad_in = " " * (indent * (level + 1))
        first, sep, last, colon = "\n" + pad_in, ",\n" + pad_in, "\n" + " " * (indent * level), ": "
    if obj is None:
        yield "null"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield _format_float(float(obj))
    elif isinstance(obj, str):
        yield f'"{_escape(obj)}"'
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{"
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {type(key)}")
            yield f'{sep if i else first}"{_escape(key)}"{colon}'
            yield from _emit(val, indent, level + 1)
        yield last + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            yield "[]"
            return
        yield "["
        for i, val in enumerate(seq):
            yield sep if i else first
            yield from _emit(val, indent, level + 1)
        yield last + "]"
    else:
        raise TypeError(f"cannot serialize {type(obj)} into a report")
