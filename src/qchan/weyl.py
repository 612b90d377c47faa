"""Discrete Weyl (clock/shift) projective unitaries on Z_l + Z_l.

Group elements are pairs ``(k, s)``: ``k`` indexes the cyclic shift
``e_j -> e_{(j+k) mod l}`` and ``s`` the phase ``e_j -> exp(2*pi*i*s*j/l) e_j``.
``U_(k,s) = Shift^k Phase^s`` exactly; projective phases are kept as produced,
with no cocycle normalization.  Order-l cyclic subgroups:

- ``G1``     = {(0, s)}: the phase subgroup;
- ``G0k(k)`` = {(s, s*k mod l)}: generated by (1, k); ``G0k(0)`` is the shift
  subgroup G0.

For prime ``l`` these l+1 subgroups cover every nonidentity element exactly
once; for composite ``l`` the covering has gaps (see ``covering_counts``).
"""
from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import StructureError, UsageError, ValidationError
from .linalg import dagger, frobenius, frozen

Element = tuple[int, int]


def shift_matrix(l: int) -> np.ndarray:
    s = np.zeros((l, l), dtype=complex)
    for j in range(l):
        s[(j + 1) % l, j] = 1.0
    return s


def phase_matrix(l: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(l) / l))


@dataclass(frozen=True, eq=False)
class WeylSystem:
    """All l^2 projective unitaries U_(k,s) for one dimension l.

    The unitaries are copied into read-only arrays behind a read-only mapping.
    Systems compare and hash by identity, which keys the subgroup and
    resolution caches below: a hand-built system never shares their entries.
    """

    l: int
    unitaries: Mapping[Element, np.ndarray]

    def __post_init__(self):
        table = {g: frozen(np.array(u, dtype=complex)) for g, u in self.unitaries.items()}
        object.__setattr__(self, "unitaries", MappingProxyType(table))

    @property
    def elements(self) -> list[Element]:
        return [(k, s) for k in range(self.l) for s in range(self.l)]

    @property
    def identity(self) -> Element:
        return (0, 0)

    def unitary(self, g: Element) -> np.ndarray:
        return self.unitaries[g]

    def add(self, g: Element, h: Element) -> Element:
        return ((g[0] + h[0]) % self.l, (g[1] + h[1]) % self.l)


# Standard systems kept per process.  A bound of a few entries, because the
# table grows as l^4: one l = 31 system already holds 15 MB of unitaries.
SYSTEM_CACHE_SIZE = 4
# Subgroup families and their resolutions kept per process: enough for every
# family of a few small systems (l + 1 families each).  A cached family keeps
# its system alive, so this bound also caps the systems held past the LRU.
FAMILY_CACHE_SIZE = 64


@functools.lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def weyl_system(l: int) -> WeylSystem:
    """The Weyl system for dimension ``l >= 2``, built once per l and shared."""
    if l < 2:
        raise UsageError(f"Weyl system needs dimension >= 2, got {l}")
    shift = shift_matrix(l)
    phase = phase_matrix(l)
    shift_pow = [np.linalg.matrix_power(shift, k) for k in range(l)]
    phase_pow = [np.linalg.matrix_power(phase, s) for s in range(l)]
    unitaries = {
        (k, s): shift_pow[k] @ phase_pow[s] for k in range(l) for s in range(l)
    }
    return WeylSystem(l=l, unitaries=unitaries)


@dataclass(frozen=True)
class SubgroupFamily:
    """An order-l cyclic subgroup of the Weyl group with its unitaries."""

    label: str
    system: WeylSystem
    elements: tuple[Element, ...]
    generator: Element

    def __post_init__(self):
        l = self.system.l
        if len(set(self.elements)) != l:
            raise ValidationError(
                f"family {self.label} must have {l} distinct elements, got {self.elements}"
            )
        members = set(self.elements)
        if self.system.identity not in members:
            raise ValidationError(f"family {self.label} must contain the identity element")
        for g in self.elements:
            for h in self.elements:
                if self.system.add(g, h) not in members:
                    raise ValidationError(
                        f"family {self.label} is not closed: {g} + {h} falls outside"
                    )
        gen = self.generator
        orbit = {self.system.identity}
        cur = self.system.identity
        for _ in range(l):
            cur = self.system.add(cur, gen)
            orbit.add(cur)
        if orbit != members:
            raise ValidationError(f"{gen} does not generate family {self.label}")

    def unitaries(self) -> list[np.ndarray]:
        return [self.system.unitary(g) for g in self.elements]


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def phase_subgroup(system: WeylSystem) -> SubgroupFamily:
    """G1 = {(0, s)}, built once per system."""
    elems = tuple((0, s) for s in range(system.l))
    return SubgroupFamily(label="G1", system=system, elements=elems, generator=(0, 1))


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def diagonal_subgroup(system: WeylSystem, k: int) -> SubgroupFamily:
    """G0k = {(s, s*k mod l)}, generated by (1, k); k = 0 is the shift subgroup.

    Built once per (system, k).
    """
    l = system.l
    if not 0 <= k < l:
        raise UsageError(f"subgroup index must lie in [0, {l}), got {k}")
    elems = tuple((s, (s * k) % l) for s in range(l))
    return SubgroupFamily(label=f"G0{k}", system=system, elements=elems, generator=(1, k))


def all_order_l_subgroups(system: WeylSystem) -> list[SubgroupFamily]:
    """The l+1 families G00..G0(l-1), G1."""
    fams = [diagonal_subgroup(system, k) for k in range(system.l)]
    fams.append(phase_subgroup(system))
    return fams


def covering_counts(system: WeylSystem) -> dict[Element, int]:
    """How many order-l subgroups hold each nonidentity element; exactly one each for prime l."""
    counts: dict[Element, int] = {g: 0 for g in system.elements if g != system.identity}
    for fam in all_order_l_subgroups(system):
        for g in fam.elements:
            if g != system.identity:
                counts[g] += 1
    return counts


# Eigenvalues of a family generator closer than this are treated as one cluster.
EIG_CLUSTER_TOL = 1e-8


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def fixed_point_resolution(family: SubgroupFamily) -> tuple[np.ndarray, ...]:
    """Orthogonal rank-one projections summing to I that generate the family's fixed-point algebra.

    Requires the conjugation action of the family to be abelian and its joint
    eigenspaces one-dimensional; obtained from the generator's eigenvectors.
    Built and checked once per family; later calls return the same tuple.
    """
    system = family.system
    l = system.l
    for g in family.elements:
        for h in family.elements:
            ug, uh = system.unitary(g), system.unitary(h)
            comm = ug @ uh @ dagger(ug) @ dagger(uh)
            scalar = np.trace(comm) / l
            if frobenius(comm - scalar * np.eye(l)) > 1e-10 or abs(abs(scalar) - 1.0) > 1e-10:
                raise StructureError(
                    f"family {family.label}: conjugations by {g} and {h} do not commute"
                )
    gen_u = system.unitary(family.generator)
    eigvals, eigvecs = np.linalg.eig(gen_u)
    order = np.argsort(np.angle(eigvals))
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    for i in range(l):
        for j in range(i + 1, l):
            if abs(eigvals[i] - eigvals[j]) < EIG_CLUSTER_TOL:
                raise StructureError(
                    f"family {family.label}: generator eigenvalue {eigvals[i]:.6f} has "
                    f"multiplicity > 1; fixed algebra is degenerate"
                )
    projections = []
    for i in range(l):
        v = eigvecs[:, i]
        v = v / np.linalg.norm(v)
        projections.append(frozen(np.outer(v, v.conj())))
    total = sum(projections)
    if frobenius(total - np.eye(l)) > 1e-11 * l:
        raise StructureError(f"family {family.label}: eigenprojections do not resolve the identity")
    for i in range(l):
        for j in range(l):
            target = projections[i] if i == j else 0.0
            if frobenius(projections[i] @ projections[j] - target) > 1e-11:
                raise StructureError(f"family {family.label}: eigenprojections are not orthogonal")
    for g in family.elements:
        u = system.unitary(g)
        for p in projections:
            if frobenius(u @ p @ dagger(u) - p) > 1e-10:
                raise StructureError(
                    f"family {family.label}: projection not fixed by conjugation with {g}"
                )
    return tuple(projections)


def transversal(system: WeylSystem, kind: str) -> tuple[Element, ...]:
    """Coset representative sets: ``shift`` = {(k, 0)}, ``phase`` = {(0, s)}."""
    if kind == "shift":
        return tuple((k, 0) for k in range(system.l))
    if kind == "phase":
        return tuple((0, s) for s in range(system.l))
    raise UsageError(f"transversal kind must be 'shift' or 'phase', got {kind!r}")


def complementary_subgroup(system: WeylSystem, kind: str) -> SubgroupFamily:
    """The subgroup whose cosets the named transversal represents."""
    if kind == "shift":
        return phase_subgroup(system)
    if kind == "phase":
        return diagonal_subgroup(system, 0)
    raise UsageError(f"transversal kind must be 'shift' or 'phase', got {kind!r}")


def is_transversal(system: WeylSystem, reps: tuple[Element, ...], subgroup: SubgroupFamily) -> bool:
    """True if ``reps`` meets every coset of ``subgroup`` exactly once."""
    members = set(subgroup.elements)
    if len(reps) != system.l:
        return False
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            diff = system.add(g, (-h[0] % system.l, -h[1] % system.l))
            if diff in members:
                return False
    return True
