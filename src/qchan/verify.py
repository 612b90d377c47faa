"""Verification harness: structural identities, propositions, additivity.

Every claim builds its ``reporting.Check`` records, the report's entries,
from the plain values ``channels`` and ``weyl`` return (additivity alone goes
through ``AdditivityReport.to_check``): one per claim, a (sampled, remark)
pair for prop4 and five sub-checks in report order for the theorem, each
timed on its own.  Sampled claims run through ``worst_over``: each sample is
drawn from its own substream, in index order, and the samples are scored as
stacks of at most ``STACK_SAMPLES``, so a claim's memory is bounded by that
constant, not by its batch size.  Every sampled claim validates, applies and
takes entropies of a whole stack with one call per operation, and only the
worst sample's check record is built.  Every Weyl conjugation and projection
on H (x) K acts on the H factor through ``linalg.apply_left``, and prop3's
Phi (x) Id_K and eq13's tensor squares are ``ProductChannel`` objects applied
factor by factor, so no U (x) I_K and no product Kraus stack is ever built.
Tolerance ledger: exact algebraic identities 1e-10..1e-12, inequality claims
-1e-9 (arithmetic-limited), optimizer-backed equalities 1e-5..1e-6
(restart-limited).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import replace
from typing import Any, NamedTuple

import numpy as np

from . import weyl as weyl_mod
from .channels import (
    KrausChannel,
    PhaseDampingParams,
    choi_distance,
    depolarizing,
    eq9_decomposition,
    eq12_multiplier,
    identity_channel,
    phase_damping,
    random_channel_from,
    schur_matrix,
)
from .entropy import entropy_of_spectrum, relative_entropy_nats, subnormalized_entropy, vn_nats
from .errors import NumericalError, UsageError
from .linalg import apply_left, dagger, frobenius, hermitian_eig, partial_trace
from .optimize import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    OptimizationResult,
    entropy_gradient,
    gradient_fd_error,
    max_output_purity,
    min_output_entropy,
)
from .reporting import AdditivityReport, Check, refusal, timed, verdict
from .rng import substream
from .states import (
    PureState,
    basis_state,
    density_from_matrix,
    pure_to_density,
    random_density_from,
    random_pure_from,
    random_state_matrix_from,
    random_unitary_from,
)

RESIDUAL_TOL = 1e-11
INEQ_TOL = 1e-9
EQ9_TOL = 1e-10
SMIN_EQ_TOL = 1e-6
ADDITIVITY_TOL = 1e-5
MULTIPLICATIVITY_TOL = 1e-5
BASIS_PROJ_TOL = 1e-11
GRADIENT_TOL = 1e-5
MARGINAL_TOL = 1e-8
PROP4_TOL = 1e-10

#: Dimensions of the random channels whose gradients ``gradient_suite`` checks, in turn.
GRADIENT_DIMS = (2, 3, 4)
#: Most locally rotated maximally entangled states a prop3 sample mixes.
MARGINAL_MAX_TERMS = 3

#: Most samples a sampled claim scores as one stack.  With applies in parts of
#: ``channels.APPLY_STACK_BYTES``, a full l = 5 stack peaks at 5.2 MB of
#: allocations in prop3, and at 2.6 MB in applying Xi (x) Xi for eq13_n2.
STACK_SAMPLES = 64


def _family_average(family: weyl_mod.SubgroupFamily, x: np.ndarray, dim_k: int = 1) -> np.ndarray:
    """Uniform conjugation average over the family, tensored with identity on K."""
    acc = np.zeros_like(x)
    for u in family.unitaries():
        acc = acc + apply_left(u, x, family.system.l, dim_k, conjugate=True)
    return acc / len(family.elements)


def _family_mixture(unitaries: list[np.ndarray], weights, x: np.ndarray, dim_k: int = 1) -> np.ndarray:
    """Sum_g w_g (U_g (x) I_K) x (U_g (x) I_K)*; a stack of states takes a stack of weight rows."""
    acc = np.zeros_like(x)
    for w, u in zip(np.moveaxis(np.asarray(weights), -1, 0), unitaries):
        acc = acc + w[..., None, None] * apply_left(u, x, len(u), dim_k, conjugate=True)
    return acc


class Scores(NamedTuple):
    """The margins of a stack of samples, and the check record of any one of them."""

    margins: np.ndarray
    check: Callable[[int], Check]


def _scores(
    claim_id: str, lhs, rhs, witness: Callable[[int], dict[str, Any]] | None = None, **fields
) -> Scores:
    """Scores of stacked lhs and rhs values; a sample's record is built on request."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))

    def check(j: int) -> Check:
        return verdict(claim_id, lhs=float(lhs[j]), rhs=float(rhs[j]),
                       witness=None if witness is None else witness(j), **fields)

    return Scores(lhs - rhs, check)


def _grouped(groups: np.ndarray, score: Callable[[int, np.ndarray], Scores]) -> Scores:
    """Scores of a stack whose samples fall into groups scored apart, ``score(group, rows)``."""
    margins = np.empty(len(groups))
    parts = {}
    for group in dict.fromkeys(groups.tolist()):
        rows = np.flatnonzero(groups == group)
        parts[group] = rows, score(group, rows)
        margins[rows] = parts[group][1].margins

    def check(j: int) -> Check:
        rows, scores = parts[groups[j]]
        return scores.check(int(np.searchsorted(rows, j)))

    return Scores(margins, check)


def worst_over(
    samples: int, seed: int, draw: Callable[[np.random.Generator, int], Any], *path: int,
    score: Callable[[list], Scores],
) -> Check:
    """The lowest-margin check over the samples ``draw(substream(seed, *path, i), i)``.

    Samples are drawn in index order and handed to ``score`` in stacks of at
    most ``STACK_SAMPLES``.  Only the worst sample's record is built, and the
    first index wins a tie.  A NaN margin raises ``NumericalError`` naming the
    claim and the first such sample.  The witness gains ``worst_index`` and
    ``samples``, and the record carries the batch seed.
    """
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    worst, worst_index = None, 0
    for start in range(0, samples, STACK_SAMPLES):
        stop = min(samples, start + STACK_SAMPLES)
        scores = score([draw(substream(seed, *path, i), i) for i in range(start, stop)])
        nan = np.isnan(scores.margins)
        if nan.any():
            j = int(np.argmax(nan))
            raise NumericalError(f"{scores.check(j).claim_id}: margin of sample {start + j} is NaN")
        j = int(np.argmin(scores.margins))
        if worst is None or scores.margins[j] < worst.margin:
            worst, worst_index = scores.check(j), start + j
    witness = {**(worst.witness or {}), "worst_index": worst_index, "samples": samples}
    return replace(worst, witness=witness, seed=seed)


# ---------------------------------------------------------------------------
# Resolution-of-identity and intertwining residuals (claims eq3, eq5)


def resolution_residual(system: weyl_mod.WeylSystem, x: np.ndarray, transversal: str = "shift"):
    """||Sum_k U_{g_k} E(x) U_{g_k}* - I||_F for the chosen transversal (stack-aware).

    E averages over the subgroup complementary to the transversal (the pairing
    that makes the resolution exact for an irreducible system); the
    representative set is configuration-exposed via ``transversal``.
    """
    if x.shape[-1] != system.l:
        raise UsageError(f"state dimension {x.shape[-1]} != system dimension {system.l}")
    reps = weyl_mod.transversal(system, transversal)
    subgroup = weyl_mod.complementary_subgroup(system, transversal)
    if not weyl_mod.is_transversal(system, reps, subgroup):
        raise UsageError(f"{transversal!r} representatives do not cut the cosets exactly once")
    averaged = _family_average(subgroup, x)
    total = np.zeros_like(averaged)
    for g in reps:
        total = total + apply_left(system.unitary(g), averaged, system.l, 1, conjugate=True)
    return frobenius(total - np.eye(system.l))


def check_eq3(l: int, samples: int = 100, seed: int = 0, transversal: str = "shift") -> Check:
    """Worst resolution residual over random mixed and pure states."""
    system = weyl_mod.weyl_system(l)

    def draw(rng, i):
        return random_density_from(rng, l, int(rng.integers(1, l + 1))).matrix

    def score(chunk):
        return _scores("eq3", 0.0, resolution_residual(system, np.array(chunk), transversal),
                       tolerance=RESIDUAL_TOL, witness=lambda j: {"transversal": transversal})

    return worst_over(samples, seed, draw, score=score)


def intertwining_residuals(family: weyl_mod.SubgroupFamily, weights, x: np.ndarray):
    """(||E(Phi(x)) - E(x)||_F, ||Phi(E(x)) - E(x)||_F) for the family mixture Phi.

    Stack-aware: a stack of states takes a stack of weight rows.
    """
    ex = _family_average(family, x)
    phix = _family_mixture(family.unitaries(), weights, x)
    r1 = frobenius(_family_average(family, phix) - ex)
    r2 = frobenius(_family_mixture(family.unitaries(), weights, ex) - ex)
    return r1, r2


def check_eq5(l: int, samples: int = 100, seed: int = 0) -> Check:
    """Worst intertwining residual over families, random weights and states."""
    families = weyl_mod.all_order_l_subgroups(weyl_mod.weyl_system(l))

    def draw(rng, i):
        weights = rng.dirichlet(np.ones(l))
        return i % len(families), weights, random_density_from(rng, l, int(rng.integers(1, l + 1))).matrix

    def family_scores(family, weights, x):
        r1, r2 = intertwining_residuals(family, weights, x)
        return _scores(
            "eq5", 0.0, np.maximum(r1, r2), tolerance=RESIDUAL_TOL,
            witness=lambda j: {"family": family.label, "residual_e_phi": float(r1[j]),
                               "residual_phi_e": float(r2[j])},
        )

    def score(chunk):
        family, weights, x = (np.array(column) for column in zip(*chunk))
        return _grouped(family, lambda f, rows: family_scores(families[f], weights[rows], x[rows]))

    return worst_over(samples, seed, draw, score=score)


def check_eq9(l: int, p: float) -> Check:
    """Choi distance between the coset decomposition and the depolarizing channel."""
    reconstruction, c0, c1 = eq9_decomposition(l, p)
    return verdict(
        "eq9", lhs=0.0, rhs=choi_distance(reconstruction, depolarizing(l, p)), tolerance=EQ9_TOL,
        witness={"c0": c0, "c1": c1, "normalization_residual": abs(c0 + (l - 1) * c1 - 1.0 / l),
                 "l": l, "p": p},
    )


def check_eq12(l: int, q) -> Check:
    """Diagnostic reconstruction residual; reported, never asserted (open question)."""
    params = PhaseDampingParams(l=l, q=tuple(np.atleast_1d(q)))
    multiplier, q_bar = eq12_multiplier(params)
    # Entry (a, b): the maps' distance on the unit |e_a><e_b|, nonzero on the diagonal in general.
    entry = np.abs(multiplier - schur_matrix(params))
    worst = np.unravel_index(int(np.argmax(entry)), entry.shape)
    return verdict(
        "eq12", lhs=0.0, rhs=float(np.sqrt((entry ** 2).sum())), tolerance=math.inf,
        witness={
            "q_bar": q_bar,
            "q": list(params.q),
            "max_entry_residual": float(entry.max()),
            "max_entry": [int(worst[0]), int(worst[1])],
            "diagnostic_only": True,
        },
    )


# ---------------------------------------------------------------------------
# prop1: coset coarse-graining decreases output entropy


def _prop1_scores(
    system: weyl_mod.WeylSystem, lam: np.ndarray, eps: np.ndarray, x: np.ndarray, dim_k: int,
) -> Scores:
    """S((Phi (x) Id)(x)) >= S(coset mixture) for product weights mu = lam * eps.

    ``lam`` weighs the phase transversal {(0, k)}, ``eps`` the shift subgroup
    {(t, 0)}; their product populates the whole group.  Takes stacked weight
    rows (n, l) and states (n, l dim_k, l dim_k).
    """
    l = system.l
    group = [system.unitary((t, k)) for k in range(l) for t in range(l)]
    lhs_mat = _family_mixture(group, (lam[:, :, None] * eps[:, None, :]).reshape(-1, l * l), x, dim_k)
    rhs_mat = _family_mixture([system.unitary((0, k)) for k in range(l)], lam, x, dim_k)
    return _scores(
        "prop1", vn_nats(lhs_mat), vn_nats(rhs_mat), tolerance=INEQ_TOL, units="nats",
        witness=lambda j: {"lambda": lam[j].tolist(), "epsilon": eps[j].tolist(), "dim_k": dim_k},
    )


def verify_prop1(l: int, samples: int = 200, seed: int = 0, dim_k: int | None = None) -> Check:
    dim_k = l if dim_k is None else dim_k
    system = weyl_mod.weyl_system(l)

    def draw(rng, i):
        lam = rng.dirichlet(np.ones(l))
        eps = rng.dirichlet(np.ones(l))
        return lam, eps, random_state_matrix_from(rng, l * dim_k, int(rng.integers(1, l * dim_k + 1)))

    def score(chunk):
        lam, eps, x = (np.array(column) for column in zip(*chunk))
        return _prop1_scores(system, lam, eps, density_from_matrix(x).matrix, dim_k)

    return worst_over(samples, seed, draw, score=score)


# ---------------------------------------------------------------------------
# prop2: entropy bound through the fixed-point resolution


def _prop2_scores(
    family: weyl_mod.SubgroupFamily, lam: np.ndarray, x: np.ndarray, dim_k: int,
) -> Scores:
    """S((Phi (x) Id)(x)) >= H(lam) + Sum_k S_sub(Tr_H((P_k (x) I) E(x))) - log l.

    Takes stacked weight rows (n, l) and states (n, l dim_k, l dim_k).
    """
    l = family.system.l
    lhs = vn_nats(_family_mixture(family.unitaries(), lam, x, dim_k))
    ex = _family_average(family, x, dim_k)
    middle = np.zeros(len(x))
    for proj in weyl_mod.fixed_point_resolution(family):
        block = partial_trace(apply_left(proj, ex, l, dim_k), l, dim_k, side="left")
        middle = middle + subnormalized_entropy(block)
    rhs = entropy_of_spectrum(lam) + middle - math.log(l)
    return _scores(
        "prop2", lhs, rhs, tolerance=INEQ_TOL, units="nats",
        witness=lambda j: {"family": family.label, "lambda": lam[j].tolist(), "dim_k": dim_k},
    )


def verify_prop2(l: int, samples: int = 200, seed: int = 0, dim_k: int | None = None) -> Check:
    dim_k = l if dim_k is None else dim_k
    families = weyl_mod.all_order_l_subgroups(weyl_mod.weyl_system(l))

    def draw(rng, i):
        lam = rng.dirichlet(np.ones(l))
        x = random_state_matrix_from(rng, l * dim_k, int(rng.integers(1, l * dim_k + 1)))
        return i % len(families), lam, x

    def score(chunk):
        family, lam, x = (np.array(column) for column in zip(*chunk))
        x = density_from_matrix(x).matrix
        return _grouped(family, lambda f, rows: _prop2_scores(families[f], lam[rows], x[rows], dim_k))

    return worst_over(samples, seed, draw, score=score)


# ---------------------------------------------------------------------------
# prop3: depolarizing entropy bound with a witness projection


def depolarizing_entropy_constant(l: int, p: float) -> float:
    """-(1-(l-1)p/l) log(1-(l-1)p/l) - (l-1)(p/l) log(p/l), the weight entropy."""
    lam0 = 1.0 - (l - 1) * p / l
    return entropy_of_spectrum(np.array([lam0] + [p / l] * (l - 1)))


def _normalized_entropy(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entropy of block / Tr(block), Tr(block)) for a stack of blocks."""
    trace = np.trace(block, axis1=-2, axis2=-1).real
    return vn_nats(block / trace[:, None, None]), trace


def _prop3_scores(
    lifted: KrausChannel, l: int, p: float, x: np.ndarray, dim_k: int,
    mode: str, search_count: int, seed: int | None,
) -> Scores:
    """S((Phi (x) Id)(x)) >= h(p, l) + S(rho) with rho = l Tr_H((P (x) I) x).

    Takes a stack of states, and ``lifted`` = Phi (x) Id_K from the caller.
    Constructive mode follows the proof and needs Tr_K(x) = I/l within 1e-8;
    search mode scans marginal eigenprojections plus random rank-one
    projections, keeping the best margin among candidates whose overlap
    Tr((P (x) I) x) is within 1e-8 of 1/l.
    """
    if x.shape[-1] != l * dim_k:
        raise UsageError(f"state dimension {x.shape[-1]} != {l} * {dim_k}")
    system = weyl_mod.weyl_system(l)
    samples = len(x)
    marginal = partial_trace(x, l, dim_k, side="right")
    lhs = vn_nats(lifted.apply_matrix(x))
    h_const = depolarizing_entropy_constant(l, p)
    fields = {"tolerance": INEQ_TOL, "seed": seed, "units": "nats"}

    if mode == "constructive":
        deviation = frobenius(marginal - np.eye(l) / l)
        far = deviation > MARGINAL_TOL
        if far.any():
            raise UsageError(
                f"constructive mode needs Tr_K(x) = I/l within {MARGINAL_TOL:.0e} "
                f"(deviation {deviation[np.argmax(far)]:.3e}); use search mode"
            )
        _, vectors = hermitian_eig(marginal)
        w = dagger(vectors)  # W Tr_K(x) W* is diagonal, approximately I/l
        wx = apply_left(w, x, l, dim_k, conjugate=True)
        labels, entropies, traces = [], [], []
        for k in range(l):
            family = weyl_mod.diagonal_subgroup(system, k)
            for j, proj in enumerate(weyl_mod.fixed_point_resolution(family)):
                entr, tr = _normalized_entropy(
                    partial_trace(apply_left(proj, wx, l, dim_k), l, dim_k, side="left"))
                labels.append((k, j))
                entropies.append(entr)
                traces.append(tr)
        entropies = np.array(entropies)
        best_entropy = entropies.min(axis=0)
        # The witness is the first candidate within INEQ_TOL of the minimum, so
        # candidates that tie up to rounding do not swap with summation order.
        chosen = np.argmax(entropies <= best_entropy + INEQ_TOL, axis=0)

        def witness(i: int) -> dict[str, Any]:
            k, j = labels[chosen[i]]
            return {
                "mode": mode, "subgroup": k, "projection": j,
                "trace_deviation": float(abs(traces[chosen[i]][i] - 1.0 / l)),
                "marginal_deviation": float(deviation[i]),
                "h_constant": h_const, "state_entropy": float(best_entropy[i]), "p": p,
            }

        return _scores("prop3", lhs, h_const + best_entropy, witness, **fields)

    if mode == "search":
        rng = substream(seed if seed is not None else 0, 999)
        _, m_vecs = hermitian_eig(marginal)
        candidates = [m_vecs[:, :, i] for i in range(l)]
        for _ in range(search_count):
            candidates.append(np.broadcast_to(random_pure_from(rng, l).amplitudes, (samples, l)))
        best_margin = np.full(samples, -math.inf)
        best_entropy = np.full(samples, math.nan)
        kept = np.zeros(samples, dtype=int)
        for v in candidates:
            overlap = np.real(v.conj()[:, None, :] @ (marginal @ v[:, :, None]))[:, 0, 0]
            rows = np.flatnonzero(~(np.abs(overlap - 1.0 / l) > MARGINAL_TOL))
            kept[rows] += 1
            proj = v[rows, :, None] * v[rows, None, :].conj()
            entr, _ = _normalized_entropy(
                partial_trace(apply_left(proj, x[rows], l, dim_k), l, dim_k, side="left"))
            margin = lhs[rows] - (h_const + entr)
            better = margin > best_margin[rows]
            best_margin[rows[better]] = margin[better]
            best_entropy[rows[better]] = entr[better]

        def witness(i: int) -> dict[str, Any]:
            if kept[i] == 0:
                return {"mode": mode, "candidates_kept": 0, "p": p,
                        "note": "no projection matched the 1/l overlap requirement"}
            return {"mode": mode, "candidates_kept": int(kept[i]),
                    "h_constant": h_const, "state_entropy": float(best_entropy[i]), "p": p}

        rhs = np.where(kept == 0, math.inf, lhs - best_margin)
        return _scores("prop3", lhs, rhs, witness, **fields)

    raise UsageError(f"mode must be 'constructive' or 'search', got {mode!r}")


def random_mixed_marginal_matrix(rng: np.random.Generator, l: int, dim_k: int) -> np.ndarray:
    """Random state on H (x) K whose H marginal is exactly maximally mixed, unvalidated.

    Mixture of locally rotated maximally entangled states; needs dim_k >= l.
    """
    if dim_k < l:
        raise UsageError(f"need dim_k >= {l} to build a maximally mixed marginal, got {dim_k}")
    omega = np.zeros((l * dim_k,), dtype=complex)
    for i in range(l):
        omega[i * dim_k + i] = 1.0 / math.sqrt(l)
    terms = int(rng.integers(1, MARGINAL_MAX_TERMS + 1))
    weights = rng.dirichlet(np.ones(terms))
    x = np.zeros((l * dim_k, l * dim_k), dtype=complex)
    for w in weights:
        u = np.kron(random_unitary_from(rng, l), random_unitary_from(rng, dim_k))
        v = u @ omega
        x = x + w * np.outer(v, v.conj())
    return x


def verify_prop3(
    l: int,
    p: float,
    samples: int = 200,
    seed: int = 0,
    dim_k: int | None = None,
    mode: str = "constructive",
    search_count: int = 200,
) -> Check:
    dim_k = l if dim_k is None else dim_k
    lifted = depolarizing(l, p).tensor(identity_channel(dim_k))

    def draw(rng, i):
        return random_mixed_marginal_matrix(rng, l, dim_k)

    def score(chunk):
        x = density_from_matrix(np.array(chunk)).matrix
        return _prop3_scores(lifted, l, p, x, dim_k, mode, search_count, seed)

    return worst_over(samples, seed, draw, score=score)


# ---------------------------------------------------------------------------
# prop4: averaging condition versus the exact CP certificate


def verify_prop4(l: int, samples: int = 1000, seed: int = 0) -> tuple[Check, Check]:
    """Test the averaging condition against Schur-matrix positivity.

    ``prop4.sampled`` draws q uniformly from [0,1]^(l-1), keeps the vectors
    satisfying q_j <= (1 + Sum_{j<=l-2} q_j)/(l-1) for 1 <= j <= l-2, and
    records the minimum Schur eigenvalue.  Counterexamples are listed with
    their certificate eigenvalue, not suppressed.  When no draw meets the
    condition, as at l >= 11 for 1000 draws, nothing is tested and the claim
    is refused.  ``prop4.remark`` runs the constant-Q family Q in {0, 0.1, .., 1}.
    """
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    if l < 2:
        raise UsageError(f"dimension l must be >= 2, got {l}")

    def certificate(q) -> float:
        """Smallest eigenvalue of the damping multiplier; negative iff the map is not CP."""
        return float(np.linalg.eigvalsh(schur_matrix(PhaseDampingParams(l=l, q=tuple(q))))[0])

    def sampled() -> Check:
        violations = []
        min_margin = math.inf
        hits = 0
        for i in range(samples):
            q = substream(seed, i).uniform(size=l - 1)
            q_bar = (1.0 + float(q[: l - 2].sum())) / (l - 1)
            if not np.all(q[: l - 2] <= q_bar):
                continue
            hits += 1
            margin = certificate(q)
            min_margin = min(min_margin, margin)
            if margin < -PROP4_TOL:
                violations.append({"q": [float(v) for v in q], "min_eigenvalue": margin})
        witness = {"l": l, "samples": samples, "condition_hits": hits,
                   "violation_count": len(violations), "violations": violations}
        if hits == 0:
            # Nothing was checked, so there is no margin to report.
            return refusal("prop4.sampled", f"none of {samples} draws meets the averaging condition",
                           witness, seed)
        return verdict("prop4.sampled", lhs=min_margin, rhs=0.0, tolerance=PROP4_TOL, seed=seed,
                       witness=witness)

    def remark() -> Check:
        margins = []
        for step in range(11):
            big_q = step / 10.0
            margins.append([big_q, certificate((big_q,) * (l - 1))])
        return verdict("prop4.remark", lhs=min(m for _, m in margins), rhs=0.0, tolerance=PROP4_TOL,
                       witness={"margins": margins}, seed=seed)

    return timed(sampled), timed(remark)


# ---------------------------------------------------------------------------
# Additivity / multiplicativity via restarted optimization


def _pair_search(
    a: KrausChannel, b: KrausChannel, search: Callable[..., OptimizationResult],
    restarts: int, seed: int, max_iter: int, grad_tol: float,
) -> tuple[OptimizationResult, OptimizationResult, OptimizationResult]:
    """``search`` on a, on b, and on a (x) b from the product of their optima.

    The first joint restart starts from that product, so the joint optimum is
    never worse than the product of the single-channel ones.  When ``b is a``
    the search on a stands for b too, so b's result is a's.  The joint search
    runs on the ``ProductChannel`` itself, factor by factor, so the joint
    Kraus stack is never built.
    """
    res_a = search(a, restarts, max_iter, grad_tol, seed, seed_path=(1,))
    res_b = res_a if b is a else search(b, restarts, max_iter, grad_tol, seed, seed_path=(2,))
    product = PureState(np.kron(res_a.argmin.amplitudes, res_b.argmin.amplitudes))
    res_joint = search(a.tensor(b), restarts, max_iter, grad_tol, seed,
                       initial_states=(product,), seed_path=(3,))
    return res_a, res_b, res_joint


def check_additivity(
    a: KrausChannel,
    b: KrausChannel,
    restarts: int = 40,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    grad_tol: float = DEFAULT_TOL,
) -> AdditivityReport:
    """Compare the joint output-entropy infimum with the sum of the parts.

    The joint search starts from the product of the single-channel minimizers
    (``_pair_search``), so the reported gap can only exceed -(optimizer
    tolerance).  When ``b is a`` the channel is searched once, and the
    witness's ``s_min_b`` and ``converged[1]`` repeat a's.
    """
    res_a, res_b, res_joint = _pair_search(a, b, min_output_entropy, restarts, seed, max_iter, grad_tol)
    gap = res_joint.value - (res_a.value + res_b.value)
    schmidt = np.linalg.svd(
        res_joint.argmin.amplitudes.reshape(a.dim, b.dim), compute_uv=False
    )
    return AdditivityReport(
        s_min_a=res_a.value,
        s_min_b=res_b.value,
        s_min_joint=res_joint.value,
        gap=gap,
        schmidt_coefficients=tuple(float(s) for s in schmidt),
        restarts=restarts,
        seed=seed,
        tolerance=ADDITIVITY_TOL,
        passed=abs(gap) <= ADDITIVITY_TOL,
        converged_a=res_a.converged,
        converged_b=res_b.converged,
        converged_joint=res_joint.converged,
    )


def check_multiplicativity(
    a: KrausChannel,
    b: KrausChannel,
    p: float,
    restarts: int = 40,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    grad_tol: float = DEFAULT_TOL,
) -> Check:
    """Compare ||a (x) b||_p with ||a||_p ||b||_p via the same restart optimizer.

    Multiplicativity is an equality, so the check passes on |deviation| within
    tolerance, on either side.
    """
    res_a, res_b, res_joint = _pair_search(
        a, b, lambda c, *args, **kwargs: max_output_purity(c, p, *args, **kwargs),
        restarts, seed, max_iter, grad_tol,
    )
    norm_a = res_a.value ** (1.0 / p)
    norm_b = res_b.value ** (1.0 / p)
    norm_joint = res_joint.value ** (1.0 / p)
    deviation = norm_joint - norm_a * norm_b
    return Check(
        claim_id="multiplicativity", lhs=norm_joint, rhs=norm_a * norm_b, margin=deviation,
        tolerance=MULTIPLICATIVITY_TOL, passed=abs(deviation) <= MULTIPLICATIVITY_TOL,
        witness={"p": p, "norm_a": norm_a, "norm_b": norm_b, "restarts": restarts}, seed=seed,
    )


# ---------------------------------------------------------------------------
# Relative entropy monotonicity and bistochastic entropy increase


def monotonicity_suite(c: KrausChannel, pairs: int = 1000, seed: int = 0) -> Check:
    """min over pairs of S(rho1, rho2) - S(c(rho1), c(rho2)); infinite lhs passes.

    rho1 has a random rank and rho2 full rank, so every pair's relative
    entropy is finite up to the kernel cutoff.  A pair with infinite relative
    entropy all the same scores margin inf and is counted in the witness's
    ``infinite_count``; the channel is applied only to the other pairs.
    """
    infinite = 0

    def draw(rng, i):
        rho1 = random_state_matrix_from(rng, c.dim, int(rng.integers(1, c.dim + 1)))
        return [rho1, random_state_matrix_from(rng, c.dim, c.dim)]

    def score(chunk):
        nonlocal infinite
        states = density_from_matrix(np.array(chunk)).matrix
        rho1, rho2 = states[:, 0], states[:, 1]
        before = relative_entropy_nats(rho1, rho2)
        finite = ~np.isinf(before)
        infinite += int(np.count_nonzero(~finite))
        margins = np.full(len(chunk), math.inf)
        # after is finite when before is, up to the kernel cutoff
        after = relative_entropy_nats(c.apply_matrix(rho1[finite]), c.apply_matrix(rho2[finite]))
        margins[finite] = before[finite] - after
        return _scores("monotonicity", margins, 0.0, tolerance=INEQ_TOL, units="nats")

    worst = worst_over(pairs, seed, draw, score=score)
    return replace(worst, witness={**worst.witness, "infinite_count": infinite})


def entropy_increase_suite(c: KrausChannel, samples: int = 1000, seed: int = 0) -> Check:
    """min over states of S(c(rho)) - S(rho); nonnegative for bistochastic channels."""

    def draw(rng, i):
        return random_state_matrix_from(rng, c.dim, int(rng.integers(1, c.dim + 1)))

    def score(chunk):
        rho = density_from_matrix(np.array(chunk)).matrix
        return _scores("entropy_increase", vn_nats(c.apply_matrix(rho)) - vn_nats(rho), 0.0,
                       tolerance=INEQ_TOL, units="nats")

    return worst_over(samples, seed, draw, score=score)


# ---------------------------------------------------------------------------
# The composed-channel additivity theorem


def verify_theorem(
    l: int,
    p: float,
    q,
    restarts: int = 20,
    seed: int = 0,
    eq13_samples: int = 20,
    max_iter: int = DEFAULT_MAX_ITER,
    grad_tol: float = DEFAULT_TOL,
) -> tuple[Check, ...]:
    """Verify additivity for damping-after-depolarizing compositions.

    Returns, in report order and each timed on its own: (i) the composition
    preserves the output entropy of every basis projection; (ii) its
    output-entropy infimum equals the depolarizing one; (iii) the composed
    tensor power never lowers entropy below the depolarizing tensor power
    (n = 1, 2); (iv) the additivity gap of the composition with itself
    vanishes within optimizer tolerance.
    """
    phi = depolarizing(l, p)
    psi = phase_damping(l, q)
    xi = psi.compose(phi).reduced()

    def basis_projection() -> Check:
        projs = [pure_to_density(basis_state(l, j)).matrix for j in range(l)]
        diffs = [abs(vn_nats(xi.apply_matrix(x)) - vn_nats(phi.apply_matrix(x))) for x in projs]
        worst_diff = max(diffs)
        # The witness is the first projection within BASIS_PROJ_TOL of the worst,
        # so differences at float noise do not pick it by their last bits.
        worst_j = next(j for j, diff in enumerate(diffs) if diff >= worst_diff - BASIS_PROJ_TOL)
        return verdict(
            "theorem.basis_projection", lhs=0.0, rhs=worst_diff, tolerance=BASIS_PROJ_TOL,
            witness={"worst_projection": worst_j}, seed=seed, units="nats",
        )

    def s_min_equality() -> Check:
        res_xi = min_output_entropy(xi, restarts, max_iter, grad_tol, seed, seed_path=(10,))
        res_phi = min_output_entropy(phi, restarts, max_iter, grad_tol, seed, seed_path=(11,))
        return verdict(
            "theorem.s_min_equality", lhs=0.0, rhs=abs(res_xi.value - res_phi.value),
            tolerance=SMIN_EQ_TOL,
            witness={"s_min_composed": res_xi.value, "s_min_depolarizing": res_phi.value,
                     "closed_form": depolarizing_entropy_constant(l, p)},
            seed=seed, units="nats",
        )

    def eq13(n: int) -> Check:
        xin = xi if n == 1 else xi.tensor(xi)
        phin = phi if n == 1 else phi.tensor(phi)

        def draw(rng, i):
            return random_state_matrix_from(rng, l ** n, int(rng.integers(1, l ** n + 1)))

        def score(chunk):
            x = density_from_matrix(np.array(chunk)).matrix
            return _scores(f"theorem.eq13_n{n}", vn_nats(xin.apply_matrix(x)),
                           vn_nats(phin.apply_matrix(x)), tolerance=INEQ_TOL, units="nats")

        return worst_over(eq13_samples, seed, draw, 100 + n, score=score)

    def additivity() -> Check:
        return check_additivity(
            xi, xi, restarts=restarts, seed=seed, max_iter=max_iter, grad_tol=grad_tol,
        ).to_check("theorem.additivity")

    return (timed(basis_projection), timed(s_min_equality), timed(lambda: eq13(1)),
            timed(lambda: eq13(2)), timed(additivity))


# ---------------------------------------------------------------------------
# Gradient correctness against finite differences


def gradient_suite(samples: int = 100, seed: int = 0) -> Check:
    """Max relative disagreement between analytic and finite-difference gradients.

    The check's margin is minus the worst relative error.  States whose
    gradient is numerically null (flat directions) are redrawn, since a
    finite-difference quotient of a constant carries no signal.
    """

    def draw(rng, i):
        dim = GRADIENT_DIMS[i % len(GRADIENT_DIMS)]
        c = random_channel_from(rng, dim, int(rng.integers(2, 5)))
        psi = random_pure_from(rng, dim)
        for _ in range(10):
            if float(np.linalg.norm(entropy_gradient(c, psi))) > 1e-7:
                break
            psi = random_pure_from(rng, dim)
        return gradient_fd_error(c, psi)

    def score(chunk):
        return _scores("gradient_fd", -np.array(chunk), 0.0, tolerance=GRADIENT_TOL)

    return worst_over(samples, seed, draw, score=score)
