"""Anyon condensation for pointed (abelian) theories.

A condensable algebra here is a group-like boson subalgebra: a label
subgroup containing the unit, closed under fusion and duals, with every
summand of trivial twist and pairwise trivial monodromy.  Modules are the
fusion orbits (cosets): a module is local (deconfined) exactly when its
summands braid trivially with the whole algebra; local modules form the
condensed theory A^perp/A, with twists inherited from the summands and
quantum dimensions divided by dim A; it is a quotient group, valid by
construction, so it is built without a re-check (``tests/theory_reference.py``
holds the full axiom check the tests apply to it).
Building a ``CondensableAlgebra`` validates it, once, whichever way it is
built; everything after it reads the theory from the algebra
(``algebra.parent``), and each algebra computes its right modules once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .catalog import AnyonTheory, QDim, _sqrt_qdim, monodromy
from .errors import NotCondensableError, UnsupportedModelError

__all__ = [
    "CondensableAlgebra",
    "ModuleObject",
    "validate_condensable",
    "condensable_algebra",
    "enumerate_condensable",
    "right_modules",
    "local_modules",
    "condensed_theory",
    "bulk_to_boundary",
]


@dataclass(frozen=True)
class CondensableAlgebra:
    """A boson subalgebra 1 + a + b + ... of an abelian theory.

    Building one runs ``validate_condensable`` and raises
    ``NotCondensableError`` (a ``QuditLabError``) unless it passes; the
    summands are then kept once each, in theory label order, and
    ``boundary_tag``, when not given, names the toric boundary the algebra
    gives, if any.
    """

    parent: AnyonTheory
    summands: tuple
    boundary_tag: str = ""

    def __post_init__(self):
        theory = self.parent
        failure = validate_condensable(theory, self.summands)
        if failure is not None:
            raise NotCondensableError(failure)
        ordered = tuple(sorted(set(self.summands), key=theory.labels.index))
        object.__setattr__(self, "summands", ordered)
        if not self.boundary_tag and theory.name in ("toric", "z_2") and len(ordered) == 2:
            tag = {"m": "smooth boundary", "e": "rough boundary"}.get(ordered[1], "")
            object.__setattr__(self, "boundary_tag", tag)

    @cached_property
    def dim(self) -> QDim:
        total = QDim()
        for a in self.summands:
            total = total + self.parent.dim[a]
        return total

    @cached_property
    def _modules(self) -> tuple:
        """The distinct ``bulk_to_boundary`` images of all labels, in order of
        first appearance.  The images partition the labels, so each is taken
        once, from its first label."""
        modules, seen = [], set()
        for x in self.parent.labels:
            if x not in seen:
                modules.append(bulk_to_boundary(self, x))
                seen.update(modules[-1].summands)
        return tuple(modules)

    def label(self) -> str:
        return "+".join(self.summands)


@dataclass(frozen=True)
class ModuleObject:
    """A simple right A-module: a fusion orbit with its locality flag."""

    summands: tuple
    local: bool
    dim: QDim

    def label(self) -> str:
        return "+".join(self.summands)


def _fuse_one(theory, a, b):
    out = theory.fuse(a, b)
    (c,) = out
    return c


def _require_abelian(theory):
    if not theory.is_abelian():
        raise UnsupportedModelError(
            f"condensation engine handles pointed theories only; {theory.name} is not")


def validate_condensable(theory: AnyonTheory, summands):
    """The first failed check, as (kind, where, witness), or None.

    The checks run in this order: unit membership, fusion and dual
    closure, bosonity, mutual monodromy.
    """
    _require_abelian(theory)
    for a in summands:
        theory._check(a)
    summands = sorted(set(summands), key=theory.labels.index)
    if theory.unit not in summands:
        return "unit-missing", theory.unit, None
    for a in summands:
        for b in summands:
            c = _fuse_one(theory, a, b)
            if c not in summands:
                return "not-closed", f"{a}x{b}", c
        if theory.dual(a) not in summands:
            return "dual-missing", a, theory.dual(a)
    for a in summands:
        if theory.twist[a] % 1 != 0:
            return "not-a-boson", a, theory.twist[a]
    for a in summands:
        for b in summands:
            turn = monodromy(theory, a, b)
            if turn != 0:
                return "nontrivial-monodromy", (a, b), turn
    return None


def condensable_algebra(theory: AnyonTheory, summands) -> CondensableAlgebra:
    """The algebra of ``summands`` in ``theory``, labels in theory order;
    raises ``NotCondensableError`` unless ``validate_condensable`` passes."""
    return CondensableAlgebra(theory, tuple(summands))


def enumerate_condensable(theory: AnyonTheory):
    """All condensable algebras, ordered by size, then by summands.

    Each algebra found grows by one more boson that braids trivially with
    all of it, until no new algebra appears.  A subgroup of a condensable
    algebra is one too, so every algebra is reached from the trivial one.
    """
    _require_abelian(theory)
    bosons = [a for a in theory.labels if theory.twist[a] % 1 == 0]

    def grown(summands, b):
        # A, A b, A b^2, ...: the cosets are disjoint until b^k lies in A
        group, coset = set(summands), summands
        while True:
            coset = [_fuse_one(theory, a, b) for a in coset]
            if coset[0] in group:
                return tuple(sorted(group, key=theory.labels.index))
            group.update(coset)

    algebras = [CondensableAlgebra(theory, (theory.unit,))]
    seen = {algebras[0].summands}
    for alg in algebras:
        for b in bosons:
            if b in alg.summands or any(monodromy(theory, b, a) for a in alg.summands):
                continue
            summands = grown(alg.summands, b)
            if summands not in seen:
                seen.add(summands)
                algebras.append(CondensableAlgebra(theory, summands))
    return sorted(algebras, key=lambda alg: (len(alg.summands), alg.summands))


def bulk_to_boundary(algebra: CondensableAlgebra, x: str) -> ModuleObject:
    """The module x (x) A: image of a bulk label on the condensation wall.

    Its summands are the fusion orbit of x, it is local when they braid
    trivially with every summand of A, and its dimension is over dim A.
    """
    theory = algebra.parent
    theory._check(x)
    orbit = tuple(sorted({_fuse_one(theory, x, a) for a in algebra.summands},
                         key=theory.labels.index))
    local = all(monodromy(theory, m, a) == 0
                for m in orbit for a in algebra.summands)
    total = QDim()
    for m in orbit:
        total = total + theory.dim[m]
    return ModuleObject(orbit, local, total / algebra.dim)


def right_modules(algebra: CondensableAlgebra):
    """The distinct ``bulk_to_boundary`` images of all labels, in order of
    first appearance; each is one simple module.  The algebra computes them
    once, and every call reads that list."""
    return list(algebra._modules)


def local_modules(algebra: CondensableAlgebra):
    return [m for m in algebra._modules if m.local]


def condensed_theory(algebra: CondensableAlgebra) -> AnyonTheory:
    """The theory of local modules: orbit fusion, inherited twists, dims over dim A.

    For a pointed theory this is the quotient group A^perp/A with the
    inherited twist, valid by construction: a module's summands share one
    twist and the product of two local modules is local (Kong, Nucl. Phys. B
    886, 436, 2014).  So each module is read through its first summand, and
    nothing here re-checks the result.
    """
    theory = algebra.parent
    locals_ = local_modules(algebra)
    labels = tuple(mod.label() for mod in locals_)
    # the orbits partition the labels, so a label names the one module it lies in
    module_of = {s: label for mod, label in zip(locals_, labels) for s in mod.summands}
    firsts = [mod.summands[0] for mod in locals_]
    fusion = {(l1, l2): {module_of[_fuse_one(theory, s1, s2)]: 1}
              for l1, s1 in zip(labels, firsts) for l2, s2 in zip(labels, firsts)}
    twist = {label: theory.twist[s] % 1 for label, s in zip(labels, firsts)}
    dim = {label: mod.dim for mod, label in zip(locals_, labels)}
    name = f"{theory.name}/({algebra.label()})"
    return AnyonTheory(name, labels, fusion, twist, dim, _sqrt_qdim(len(locals_)))
