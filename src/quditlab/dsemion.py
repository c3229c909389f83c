"""Doubled-semion Pauli stabilizer model on Z_4 edge qudits.

Stabilizer content (frozen convention, pinned by the behavioral contract:
mutual commutation, C_e order 2, spin values i/-i/1, logical dimension 4):

* vertex term  A_v  = (toric vertex star at v) * (toric plaquette NE of v),
  a 6-edge operator of order 4 (the ``lattice.TERMS`` fish);
* plaquette term B_p = (toric plaquette)^2, order 2
  (the ``lattice.TERMS`` plaquette at power 2);
* edge terms  C_e, order 2, one per edge: the boson hopping operators
  (the ``lattice.TERMS`` hops at power 2, also used by the doubled-semion
  patch in ``defects``)

      C_h(x,y) = Z^2 on h(x,y)  *  X^2 on v(x+1,y)
      C_v(x,y) = Z^2 on v(x,y)  *  X^2 on h(x,y+1)

String operators.  The s, sbar and ss-bar strings are rows of
``lattice.STRINGS``, built by ``lattice.string_operator``; all three commute
with every stabilizer away from their endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import GeometryError, PathError
from .lattice import LatticeGeometry, StabilizerModel, string_operator, term_generators
from .pauli import PauliOp, pauli_adjoint, pauli_mul

__all__ = [
    "StringOperator",
    "build_doubled_semion",
    "extract_topological_spin",
    "logical_operators",
]


@dataclass(frozen=True)
class StringOperator:
    """A realized anyon string: its type, its path, and its Pauli word; the
    value type of :func:`logical_operators`."""

    anyon: str
    path: tuple
    op: PauliOp


def ds_generators(geo: LatticeGeometry):
    """The four doubled-semion generator families on an edge-placement torus."""
    return term_generators(geo, 4, [("A(", "vertex", "fish"), ("B(", "plaquette", "plaquette", 2),
                                    ("C(h,", "edge", "hop-h", 2), ("C(v,", "edge", "hop-v", 2)],
                           geo.cells)


def build_doubled_semion(rows: int, cols: int) -> StabilizerModel:
    """Doubled-semion model on a cols x rows torus; logical dimension 4.

    ``logicals`` holds the four loops of :func:`logical_operators` sorted by
    name: X1, X2, Z1, Z2.
    """
    geo = LatticeGeometry(rows, cols, "edges")
    # the product of all vertex terms is that of all toric stars and plaquettes
    model = StabilizerModel(geo, 4, tuple(ds_generators(geo)), ("vertex", "plaquette"),
                            "doubled-semion")
    logicals = tuple(sorted((name, s.op) for name, s in logical_operators(model).items()))
    return replace(model, logicals=logicals)


def extract_topological_spin(ds: StabilizerModel, plaquette, anyon: str) -> int:
    """Topological spin from the ordered triple product of strings meeting a plaquette.

    Three strings of the same type, each 3 steps long (fewer on a torus
    with fewer than 4 columns or rows), approach the plaquette from the
    left, from below, and from the right; exchanging the product order
    costs exactly theta(a).  Returns k with theta = i^k.
    """
    geo = ds.geometry
    if not (2 < geo.cols and 2 < geo.rows):
        raise GeometryError("spin extraction needs room for three incoming paths")
    px, py = plaquette
    reach = min(3, geo.cols - 1, geo.rows - 1)
    left = [((px - d) % geo.cols, py) for d in range(reach, 0, -1)] + [(px, py)]
    below = [(px, (py - d) % geo.rows) for d in range(reach, 0, -1)] + [(px, py)]
    right = [((px + d) % geo.cols, py) for d in range(reach, 0, -1)] + [(px, py)]
    w1 = string_operator(ds, anyon, left)
    w2 = string_operator(ds, anyon, below)
    w3 = string_operator(ds, anyon, right)
    fwd = pauli_mul(pauli_mul(w1, pauli_adjoint(w2)), w3)
    rev = pauli_mul(pauli_mul(w3, pauli_adjoint(w2)), w1)
    if fwd.terms != rev.terms:
        raise PathError("triple products disagree beyond a phase")
    delta = (fwd.phase_exp - rev.phase_exp) % 8
    if delta % 2:
        raise PathError("spin is not a power of i")
    return delta // 2 % 4


def logical_operators(ds: StabilizerModel) -> dict:
    """Canonical logical strings: meridian/longitude s and sbar loops.

    Returns {"X1": W_alpha^s, "X2": W_alpha^sbar, "Z1": W_beta^s,
    "Z2": W_beta^sbar}; each commutes with every stabilizer, each square is
    a stabilizer, and Z_i anticommutes with X_i.
    """
    geo = ds.geometry
    merid = [(x, 0) for x in range(geo.cols)] + [(0, 0)]
    longi = [(0, y) for y in range(geo.rows)] + [(0, 0)]
    loops = {"X1": ("s", merid), "X2": ("sbar", merid),
             "Z1": ("s", longi), "Z2": ("sbar", longi)}
    return {name: StringOperator(anyon, tuple(path), string_operator(ds, anyon, path))
            for name, (anyon, path) in loops.items()}
