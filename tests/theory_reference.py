"""Reference oracles for anyon theories: the full axiom check, a brute-force
list of condensable algebras, and the toric code's defect-line table.

``validate`` walks every label triple for associativity, so it costs n^3 on
an n-label theory; a condensed pointed theory is a quotient group and valid
by construction, so the package never runs it and the tests apply it to
every theory they build.  ``brute_force_condensable`` closes every set of at
most three bosons, independently of ``condense.enumerate_condensable``'s
one-boson growth.
"""

import itertools

from quditlab.catalog import AnyonTheory, QDim
from quditlab.condense import CondensableAlgebra
from quditlab.errors import NotCondensableError, QuditLabError, UnsupportedModelError


def validate(theory: AnyonTheory) -> AnyonTheory:
    """Unit laws, associativity, duals, dimension homomorphism, D."""
    u = theory.unit
    for a in theory.labels:
        if theory.fusion[(a, u)] != {a: 1} or theory.fusion[(u, a)] != {a: 1}:
            raise QuditLabError(f"unit law fails for {a}")
        theory.dual(a)
    for a in theory.labels:
        for b in theory.labels:
            for c in theory.labels:
                lhs = {}
                for x, m1 in theory.fusion[(a, b)].items():
                    for d, m2 in theory.fusion[(x, c)].items():
                        lhs[d] = lhs.get(d, 0) + m1 * m2
                rhs = {}
                for y, m1 in theory.fusion[(b, c)].items():
                    for d, m2 in theory.fusion[(a, y)].items():
                        rhs[d] = rhs.get(d, 0) + m1 * m2
                if lhs != rhs:
                    raise QuditLabError(f"fusion not associative at ({a},{b},{c})")
    for a in theory.labels:
        for b in theory.labels:
            total = QDim()
            for c, m in theory.fusion[(a, b)].items():
                total = total + theory.dim[c] * m
            if total != theory.dim[a] * theory.dim[b]:
                raise QuditLabError(f"dimension homomorphism fails at ({a},{b})")
    square = QDim()
    for a in theory.labels:
        square = square + theory.dim[a] * theory.dim[a]
    if theory.total_dim * theory.total_dim != square:
        raise QuditLabError("total dimension does not match sum of squares")
    return theory


def brute_force_condensable(theory: AnyonTheory):
    """The summands of every subgroup generated by at most three bosons that
    ``CondensableAlgebra`` accepts, as a set of label-ordered tuples."""
    bosons = [a for a in theory.labels if theory.twist[a] == 0]
    tried, found = set(), set()
    for k in range(4):
        for gens in itertools.combinations(bosons, k):
            group = {theory.unit}
            for g in gens:
                # the group times each power of g, until the power is the unit
                power, layer = g, set(group)
                while power != theory.unit:
                    layer |= {c for a in group for c in theory.fusion[(a, power)]}
                    (power,) = theory.fusion[(power, g)]
                group = layer
            summands = tuple(a for a in theory.labels if a in group)
            if summands in tried:
                continue
            tried.add(summands)
            try:
                found.add(CondensableAlgebra(theory, summands).summands)
            except NotCondensableError:
                pass
    return found


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
