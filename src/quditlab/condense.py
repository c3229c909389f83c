"""Anyon condensation for pointed (abelian) theories.

A condensable algebra here is a group-like boson subalgebra: a label
subgroup containing the unit, closed under fusion and duals, with every
summand of trivial twist and pairwise trivial monodromy.  Modules are the
fusion orbits (cosets): a module is local (deconfined) exactly when its
summands braid trivially with the whole algebra; local modules form the
condensed theory, with twists inherited from any summand (well-definedness
is asserted, never assumed) and quantum dimensions divided by dim A.
Building a ``CondensableAlgebra`` validates it, once, whichever way it is
built; everything after it reads the theory from the algebra
(``algebra.parent``), and each algebra computes its right modules once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .catalog import AnyonTheory, QDim, _sqrt_qdim, monodromy
from .errors import NotCondensableError, QuditLabError, UnsupportedModelError

__all__ = [
    "CondensableAlgebra",
    "ModuleObject",
    "ValidationReport",
    "validate_condensable",
    "condensable_algebra",
    "enumerate_condensable",
    "right_modules",
    "local_modules",
    "condensed_theory",
    "bulk_to_boundary",
    "defect_line_image",
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
        report = validate_condensable(theory, self.summands)
        if not report.valid:
            raise NotCondensableError(report)
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


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failures: tuple = ()

    def first_failure(self):
        return self.failures[0] if self.failures else None


def _fuse_one(theory, a, b):
    out = theory.fuse(a, b)
    (c,) = out
    return c


def _require_abelian(theory):
    if not theory.is_abelian():
        raise UnsupportedModelError(
            f"condensation engine handles pointed theories only; {theory.name} is not")


def validate_condensable(theory: AnyonTheory, summands) -> ValidationReport:
    """Check unit membership, fusion/dual closure, bosonity, mutual monodromy."""
    _require_abelian(theory)
    for a in summands:
        theory._check(a)
    failures = []
    summands = sorted(set(summands), key=theory.labels.index)
    if theory.unit not in summands:
        failures.append(("unit-missing", theory.unit, None))
    for a in summands:
        for b in summands:
            c = _fuse_one(theory, a, b)
            if c not in summands:
                failures.append(("not-closed", f"{a}x{b}", c))
        if theory.dual(a) not in summands:
            failures.append(("dual-missing", a, theory.dual(a)))
    for a in summands:
        if theory.twist[a] % 1 != 0:
            failures.append(("not-a-boson", a, theory.twist[a]))
    for a in summands:
        for b in summands:
            turn = monodromy(theory, a, b)
            if turn != 0:
                failures.append(("nontrivial-monodromy", (a, b), turn))
    return ValidationReport(not failures, tuple(failures))


def condensable_algebra(theory: AnyonTheory, summands) -> CondensableAlgebra:
    """The algebra of ``summands`` in ``theory``, labels in theory order;
    raises ``NotCondensableError`` unless ``validate_condensable`` passes."""
    return CondensableAlgebra(theory, tuple(summands))


def enumerate_condensable(theory: AnyonTheory):
    """All condensable algebras: closures of boson pairs that pass validation."""
    _require_abelian(theory)
    bosons = [a for a in theory.labels if theory.twist[a] % 1 == 0]

    def closure(gens):
        seen = {theory.unit}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in seen:
                continue
            seen.add(x)
            frontier.append(theory.dual(x))
            for y in list(seen):
                frontier.append(_fuse_one(theory, x, y))
        return tuple(sorted(seen, key=theory.labels.index))

    candidates = {closure(())}
    for b1 in bosons:
        candidates.add(closure([b1]))
        for b2 in bosons:
            candidates.add(closure([b1, b2]))
    algebras = []
    for s in sorted(candidates, key=lambda s: (len(s), s)):
        try:
            algebras.append(CondensableAlgebra(theory, s))
        except NotCondensableError:
            pass
    return algebras


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
    """The theory of local modules: orbit fusion, inherited twists, scaled dims."""
    theory = algebra.parent
    locals_ = local_modules(algebra)
    labels = tuple(mod.label() for mod in locals_)
    # the orbits partition the labels, so a label names the one module it lies in
    module_of = {s: mod.label() for mod in locals_ for s in mod.summands}
    fusion = {}
    for m1 in locals_:
        for m2 in locals_:
            c = _fuse_one(theory, m1.summands[0], m2.summands[0])
            if c not in module_of:
                raise QuditLabError("local modules are not closed under fusion")
            fusion[(m1.label(), m2.label())] = {module_of[c]: 1}
    twist = {}
    for mod in locals_:
        values = {theory.twist[s] % 1 for s in mod.summands}
        if len(values) != 1:
            raise QuditLabError(
                f"inherited twist ill-defined on module {mod.label()}")
        twist[mod.label()] = values.pop()
    dim = {mod.label(): mod.dim for mod in locals_}
    if any(mod.dim != QDim(1) for mod in locals_):
        raise QuditLabError("pointed condensation should have unit module dims")
    total = _sqrt_qdim(len(locals_))
    name = f"{theory.name}/({algebra.label()})"
    return AnyonTheory(name, labels, fusion, twist, dim, total).validate()


DEFECT_LINE_TABLE = {
    "1": ("e", "m"),
    "e": ("1", "em"),
    "m": ("1", "em"),
    "em": ("e", "m"),
}


def defect_line_image(theory: AnyonTheory, x: str):
    """Image of a toric-code label under the charge-flux defect-line functor."""
    if tuple(theory.labels) != ("1", "e", "m", "em"):
        raise UnsupportedModelError(
            "the defect-line functor is tabulated for the toric-code theory only")
    theory._check(x)
    return dict.fromkeys(DEFECT_LINE_TABLE[x], 1)
