"""The benchmark's workloads: inputs from a seed, one job, and its correctness check.

A job's parameters come from a low-discrepancy sequence whose offset is drawn
from the benchmark seed, so every run spreads its jobs evenly over the
parameter range.  Optimizer cost depends far more on the channel parameters
than on the restart start points, so evenly spread parameters keep one run's
timings comparable with the next.  Each job's own seed, which qchan uses for
restarts and sampling, is derived from the benchmark seed and the job index.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Additive recurrences with these steps fill [0, 1) evenly in any prefix.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0

#: Largest allowed distance between a reported s_min and the closed form, in nats.
SMIN_ORACLE_TOL = 1e-6

# Optimizer settings for every restarted search in the workloads.  One restart
# starts each joint search from the product of the single-channel minimizers:
# a random joint start makes job length heavy-tailed (about one in 40 ran to
# the iteration cap, 7 s against a median of 0.2 s), and throughput then
# spread by 20-30% from seed to seed.  The iteration cap is far above what a
# search normally takes (a few hundred) because near one curve in (p, q) the
# damped channel's minimum is degenerate and descent converges sublinearly:
# one single-channel search in about 3000 needs more than 2000 iterations, and
# one at p = 0.234, q = 0.672 needs about 10^4 to come within 1e-6 of the
# closed form.
RESTARTS = 1
MAX_ITER = 20000


@dataclass(frozen=True)
class Job:
    """One job's inputs: its index, its qchan seed and its channel parameters."""

    index: int
    seed: int
    p: float
    q: tuple[float, ...]


def depolarizing_smin(l: int, p: float) -> float:
    """King's closed form for the depolarizing channel's minimal output entropy, in nats.

    The same value as ``qchan.verify.depolarizing_entropy_constant``, recomputed
    here so the check does not trust the code it checks.
    """
    lam0 = 1.0 - (l - 1) * p / l
    return -(lam0 * math.log(lam0) + (l - 1) * (p / l) * math.log(p / l))


class Workload:
    """Base: job inputs from the seed; subclasses run and check one job."""

    name = ""
    why = ""
    #: Layers the traced run must see called on this workload.
    expected_layers: tuple[str, ...] = ()
    p_range = (0.2, 0.9)
    q_range = (0.3, 0.9)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        offsets = np.random.default_rng([seed, 0]).random(2)
        self._u, self._v = float(offsets[0]), float(offsets[1])

    def job(self, index: int) -> Job:
        x = (self._u + index * _GOLDEN) % 1.0
        y = (self._v + index * _SILVER) % 1.0
        p = self.p_range[0] + x * (self.p_range[1] - self.p_range[0])
        q = self.q_range[0] + y * (self.q_range[1] - self.q_range[0])
        job_seed = int(np.random.SeedSequence([self.seed, 1, index]).generate_state(1)[0])
        return Job(index=index, seed=job_seed, p=p, q=self.damping(q, job_seed))

    def damping(self, q: float, job_seed: int) -> tuple[float, ...]:
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, out) -> str | None:
        """None when the job's output is correct, else what was wrong."""
        raise NotImplementedError


class AdditivityL3(Workload):
    name = "additivity-l3"
    why = ("check_additivity on l=3 depolarizing and damped-depolarizing channels: "
           "the optimizer path; adjoint_apply with 81 Kraus operators of size 9 is its largest layer")
    expected_layers = (
        "channels.adjoint_apply", "channels.kraus_channel", "channels.tensor",
        "channels.reduced", "channels.compose", "optimize.min_output_entropy",
        "entropy.entropy_of_spectrum", "states.random_pure_from",
        "weyl.WeylSystem.unitary", "verify.check_additivity",
    )

    def damping(self, q: float, job_seed: int) -> tuple[float, ...]:
        # q_2 never enters the l = 3 multiplier (corner rule); any value in [0, 1] is valid.
        return (q, float(np.random.default_rng(job_seed).random()))

    def run(self, job: Job):
        from qchan import channels, verify

        depolarizing = channels.depolarizing(3, job.p)
        damped = channels.phase_damping(3, job.q).compose(channels.depolarizing(3, job.p)).reduced()
        return [
            verify.check_additivity(c, c, restarts=RESTARTS, seed=job.seed, max_iter=MAX_ITER)
            for c in (depolarizing, damped)
        ]

    def check(self, job: Job, out) -> str | None:
        # By the theorem the damped channel's s_min equals the depolarizing one.
        expected = depolarizing_smin(3, job.p)
        for kind, rep in zip(("depolarizing", "damped-depolarizing"), out):
            if not rep.passed:
                return f"{kind}: additivity gap {rep.gap:.3e} beyond {rep.tolerance:.0e}"
            if abs(rep.s_min_a - expected) > SMIN_ORACLE_TOL:
                return f"{kind}: s_min_a {rep.s_min_a!r} vs closed form {expected!r}"
        return None


class VerifyL2L3(Workload):
    name = "verify-l2-l3"
    why = ("the user-facing `verify all` suite at l=2 and l=3 through cli.main: "
           "many small eigendecompositions, samplers, Weyl resolutions and report writing")
    expected_layers = (
        "channels.adjoint_apply", "channels.apply_matrix", "channels.kraus_channel",
        "channels.tensor", "channels.reduced", "channels.compose",
        "optimize.min_output_entropy", "linalg.hermitian_eig", "linalg.partial_trace",
        "entropy.vn_nats", "entropy.relative_entropy_nats", "entropy.entropy_of_spectrum",
        "states.random_density_from", "states.random_pure_from", "states.density_from_matrix",
        "weyl.fixed_point_resolution", "weyl.WeylSystem.unitary",
        "verify.check_eq3", "verify.check_eq5", "verify.verify_prop1", "verify.verify_prop2",
        "verify.verify_prop3", "verify.verify_prop4", "verify.verify_theorem",
        "verify.check_additivity", "verify.monotonicity_suite",
        "verify.entropy_increase_suite", "verify.gradient_suite",
        "reporting.to_json", "cli.main",
    )
    # Batch sizes scaled down from the CLI defaults so one job takes about a
    # second; every claim still runs.
    SIZE_ARGS = (
        "--samples", "10", "--pairs", "40", "--eq13-samples", "4", "--search-count", "10",
        "--restarts", str(RESTARTS), "--max-iter", str(MAX_ITER),
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._validator = None

    def damping(self, q: float, job_seed: int) -> tuple[float, ...]:
        return (q,)

    def report_path(self, l: int) -> Path:
        return self.workdir / f"verify-l{l}.json"

    def run(self, job: Job):
        from qchan import cli

        codes = []
        for l in (2, 3):
            codes.append(cli.main([
                "verify", "all", "--l", str(l), "--p", repr(job.p), "--q", repr(job.q[0]),
                "--seed", str(job.seed), *self.SIZE_ARGS, "--output", str(self.report_path(l)),
            ]))
        return codes

    def check(self, job: Job, out) -> str | None:
        validator = self._schema_validator()
        for l, code in zip((2, 3), out):
            if code != 0:
                return f"l={l}: exit code {code}"
            report = json.loads(self.report_path(l).read_text())
            if report.get("pass") is not True:
                failed = [c["id"] for c in report.get("checks", []) if not c.get("pass")]
                return f"l={l}: report fails {failed}"
            errors = [e.message for e in validator.iter_errors(report)]
            if errors:
                return f"l={l}: report breaks the schema: {errors[0]}"
        return None

    def _schema_validator(self):
        # Imported on first check, so jsonschema's import cost stays out of set-up.
        if self._validator is None:
            import jsonschema
            import qchan

            schema_path = Path(qchan.__file__).with_name("report.schema.json")
            schema = json.loads(schema_path.read_text())
            self._validator = jsonschema.validators.validator_for(schema)(schema)
        return self._validator


class ChannelBuildL5(Workload):
    name = "channel-build-l5"
    why = ("build the l=5 damped-depolarizing tensor square (625 Kraus operators, 625x625 Choi), "
           "save it and run channel-info on the file; no optimizer work")
    expected_layers = (
        "channels.kraus_channel", "channels.tensor", "channels.reduced", "channels.compose",
        "channels.structural_checks", "linalg.hermitian_eig", "weyl.WeylSystem.unitary",
        "fileio.save_channel", "fileio.load_channel", "reporting.to_json", "cli.main",
    )

    def damping(self, q: float, job_seed: int) -> tuple[float, ...]:
        # A constant coefficient gives the multiplier (1-q) I + q J, positive for q in [0, 1].
        return (q,) * 4

    @property
    def channel_path(self) -> Path:
        return self.workdir / "channel-l5-squared.txt"

    @property
    def info_path(self) -> Path:
        return self.workdir / "channel-info.json"

    def run(self, job: Job):
        from qchan import channels, cli, fileio

        single = channels.phase_damping(5, job.q).compose(channels.depolarizing(5, job.p)).reduced()
        square = single.tensor(single).reduced()
        fileio.save_channel(self.channel_path, square)
        code = cli.main([
            "channel-info", "--channel", "file", "--channel-file", str(self.channel_path),
            "--output", str(self.info_path),
        ])
        return square, code

    def check(self, job: Job, out) -> str | None:
        from qchan import channels, fileio

        square, code = out
        if code != 0:
            return f"channel-info exit code {code}"
        witness = json.loads(self.info_path.read_text())["checks"][0]["witness"]
        for flag in ("trace_preserving", "unital", "completely_positive"):
            if witness.get(flag) is not True:
                return f"channel-info reports {flag} = {witness.get(flag)!r}"
        if witness.get("dim") != 25:
            return f"channel-info reports dimension {witness.get('dim')!r}, not 25"
        distance = channels.choi_distance(fileio.load_channel(self.channel_path), square)
        if distance > channels.CHOI_EQ_TOL:
            return f"reloaded channel is {distance:.3e} from the saved one"
        return None


WORKLOADS = {w.name: w for w in (AdditivityL3, VerifyL2L3, ChannelBuildL5)}

