"""Layer tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces each traced qchan function with a timing wrapper
in every qchan module that holds it by name (a function imported with
``from .linalg import hermitian_eig`` lives on in ``channels``, ``entropy``
and ``verify``), and each traced method on its class.  ``uninstall`` puts the
originals back.  The package itself is never edited, and an untraced run
never calls ``install``.

Every call becomes a span ``(id, parent id, job, layer, start, end)`` kept in
memory, timed on the process CPU clock like the end-to-end job times; ``write`` dumps them when the run ends.  A layer's self time is its
span's duration minus the time covered by its child spans, accumulated as the
spans close, so the per-layer table needs no second pass over the spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field

#: (metric prefix, defining module, attribute path).  The prefix names the
#: layer as ``<module>.<function>``; ``Class.method`` paths are patched on
#: the class, so every instance sees the wrapper.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("channels.apply_pure", "qchan.channels", "KrausChannel.apply_pure"),
    ("channels.adjoint_apply", "qchan.channels", "KrausChannel.adjoint_apply"),
    ("channels.apply_matrix", "qchan.channels", "KrausChannel.apply_matrix"),
    ("channels.kraus_channel", "qchan.channels", "kraus_channel"),
    ("channels.tensor", "qchan.channels", "KrausChannel.tensor"),
    ("channels.reduced", "qchan.channels", "KrausChannel.reduced"),
    ("channels.compose", "qchan.channels", "KrausChannel.compose"),
    ("channels.structural_checks", "qchan.channels", "structural_checks"),
    ("optimize.min_output_entropy", "qchan.optimize", "min_output_entropy"),
    ("linalg.hermitian_eig", "qchan.linalg", "hermitian_eig"),
    ("linalg.partial_trace", "qchan.linalg", "partial_trace"),
    ("entropy.vn_nats", "qchan.entropy", "vn_nats"),
    ("entropy.relative_entropy_nats", "qchan.entropy", "relative_entropy_nats"),
    ("entropy.entropy_of_spectrum", "qchan.entropy", "entropy_of_spectrum"),
    ("states.random_density_from", "qchan.states", "random_density_from"),
    ("states.random_pure_from", "qchan.states", "random_pure_from"),
    ("states.density_from_matrix", "qchan.states", "density_from_matrix"),
    ("weyl.fixed_point_resolution", "qchan.weyl", "fixed_point_resolution"),
    ("weyl.WeylSystem.unitary", "qchan.weyl", "WeylSystem.unitary"),
    ("verify.check_eq3", "qchan.verify", "check_eq3"),
    ("verify.check_eq5", "qchan.verify", "check_eq5"),
    ("verify.verify_prop1", "qchan.verify", "verify_prop1"),
    ("verify.verify_prop2", "qchan.verify", "verify_prop2"),
    ("verify.verify_prop3", "qchan.verify", "verify_prop3"),
    ("verify.verify_prop4", "qchan.verify", "verify_prop4"),
    ("verify.verify_theorem", "qchan.verify", "verify_theorem"),
    ("verify.check_additivity", "qchan.verify", "check_additivity"),
    ("verify.monotonicity_suite", "qchan.verify", "monotonicity_suite"),
    ("verify.entropy_increase_suite", "qchan.verify", "entropy_increase_suite"),
    ("verify.gradient_suite", "qchan.verify", "gradient_suite"),
    ("fileio.save_channel", "qchan.fileio", "save_channel"),
    ("fileio.load_channel", "qchan.fileio", "load_channel"),
    ("reporting.to_json", "qchan.reporting", "to_json"),
    ("cli.main", "qchan.cli", "main"),
)

#: Counters derived at the layer boundaries, with their units.
COUNTERS: tuple[tuple[str, str], ...] = (
    ("channels.adjoint_apply.flop_computed", "flop/job"),
    ("channels.kraus_channel.choi_bytes_computed", "B/job"),
    ("optimize.grad_evals", "1/job"),
    ("optimize.value_evals", "1/job"),
    ("fileio.bytes", "B/job"),
)

#: Marker attribute set on every wrapper, so a leftover one can be found.
WRAPPER_MARK = "__perfbench_layer__"

_MIN_OUTPUT_ENTROPY = "optimize.min_output_entropy"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name, _, _ in LAYERS:
        units[f"{name}.calls"] = "1/job"
        units[f"{name}.self_s"] = "s/job"
    units.update(COUNTERS)
    units["optimize.value_evals_per_grad"] = "ratio"
    units["trace.jobs"] = "count"
    units["trace.overhead_s"] = "s/job"
    return units


def qchan_modules() -> list:
    """The qchan package and all its loaded submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qchan" or name.startswith("qchan."))]


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a ``func`` or ``Class.method`` path."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


@dataclass
class _Frame:
    span_id: int
    layer: str
    start: float
    child_s: float = 0.0


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Records spans and per-layer totals while installed."""

    spans: list[tuple[int, int, int, str, float, float]] = field(default_factory=list)
    stats: dict[str, LayerStats] = field(
        default_factory=lambda: {name: LayerStats() for name, _, _ in LAYERS})
    counters: dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name, _ in COUNTERS})
    job: int = -1
    _stack: list[_Frame] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))

    def install(self) -> None:
        """Wrap every layer function wherever the qchan modules hold it.

        Totals carry over between installs, so the tracer can be lifted
        while the benchmark checks a job's output.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = qchan_modules()
        for layer, module_name, path in LAYERS:
            owner, attr, original = _resolve(module_name, path)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute to its original function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        spans = self.spans
        stats = self.stats[layer]
        counters = self.counters
        ids = self._ids
        clock = time.process_time
        count = _COUNT_HOOKS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1].span_id if stack else 0
            frame = _Frame(next(ids), layer, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child_s += duration
                stats.calls += 1
                stats.self_s += duration - frame.child_s
                spans.append((frame.span_id, parent, self.job, layer, frame.start, end))
            if count is not None:
                count(counters, stack, args)
            return result

        setattr(wrapper, WRAPPER_MARK, layer)
        return wrapper

    def metrics(self, jobs: int, overhead_s: float) -> dict[str, float]:
        """Per-job layer metrics and counters, the value/gradient ratio, the overhead."""
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = self.stats[name].calls / jobs
            out[f"{name}.self_s"] = self.stats[name].self_s / jobs
        for name, _ in COUNTERS:
            out[name] = self.counters[name] / jobs
        grads = self.counters["optimize.grad_evals"]
        out["optimize.value_evals_per_grad"] = (
            self.counters["optimize.value_evals"] / grads if grads else 0.0
        )
        out["trace.jobs"] = jobs
        out["trace.overhead_s"] = overhead_s / jobs
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed JSON lines: id, parent, job, layer, start, end."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _inside(stack: list[_Frame], layer: str) -> bool:
    return any(frame.layer == layer for frame in stack)


def _count_adjoint(counters, stack, args) -> None:
    # Two d x d products per Kraus operator, K* (y K): 2 m d^3 complex
    # multiply-adds, 8 real flops each.  Computed from shapes, not measured.
    m, d, _ = args[0].ops.shape
    counters["channels.adjoint_apply.flop_computed"] += 16.0 * m * d ** 3
    if _inside(stack, _MIN_OUTPUT_ENTROPY):
        # A gradient evaluation makes one adjoint call after one
        # entropy_of_spectrum call, which _count_spectrum took for a value
        # evaluation.
        counters["optimize.grad_evals"] += 1
        counters["optimize.value_evals"] -= 1


def _count_spectrum(counters, stack, args) -> None:
    # Inside the optimizer every objective evaluation, value only or value
    # and gradient, makes exactly one entropy_of_spectrum call.
    if _inside(stack, _MIN_OUTPUT_ENTROPY):
        counters["optimize.value_evals"] += 1


def _count_kraus(counters, stack, args) -> None:
    d = len(args[0][0]) if len(args[0]) else 0
    counters["channels.kraus_channel.choi_bytes_computed"] += 16.0 * d ** 4


def _count_file(counters, stack, args) -> None:
    counters["fileio.bytes"] += os.path.getsize(args[0])


_COUNT_HOOKS = {
    "channels.adjoint_apply": _count_adjoint,
    "entropy.entropy_of_spectrum": _count_spectrum,
    "channels.kraus_channel": _count_kraus,
    "fileio.save_channel": _count_file,
    "fileio.load_channel": _count_file,
}


def leftover_wrappers() -> list[str]:
    """Names of traced attributes that still hold a wrapper; empty when clean."""
    found = []
    owners = list(qchan_modules())
    for _, module_name, path in LAYERS:
        owner, _, _ = _resolve(module_name, path)
        if isinstance(owner, type):
            owners.append(owner)
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if hasattr(value, WRAPPER_MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{name}")
    return found
