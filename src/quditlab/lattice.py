"""Periodic square-lattice geometry and the baseline stabilizer models.

Conventions (fixed here, validated only by commutation and order tests):

* Edge placement: qudits sit on edges of a cols x rows torus.  Horizontal
  edge h(x,y) runs from vertex (x,y) to (x+1,y) and is oriented +x; vertical
  edge v(x,y) runs from (x,y) to (x,y+1), oriented +y.  Site index of
  h(x,y) is 2*(y*cols+x), of v(x,y) is 2*(y*cols+x)+1.
* Vertex operator A(x,y) acts with X on incoming edges (h(x-1,y), v(x,y-1))
  and X^-1 on outgoing edges (h(x,y), v(x,y)); plaquette operator B(x,y) is
  Z along the counterclockwise boundary of the square whose south-west
  corner is (x,y).  Every A commutes with every B for any modulus.
* Vertex placement: qubits sit on vertices; the cell with south-west corner
  (x,y) carries X on its SW/NE corners and Z on its SE/NW corners, one such
  generator per cell, two-colored dark/light by (x+y) mod 2 with (0,0) dark.

Every lattice term (star, plaquette at any power, fish, hops, Bombin cells)
is a row of one offset table, ``TERMS``, the way ``STRINGS`` holds every
string step.  ``term_words`` builds their words, sites by arithmetic on the
anchor, and ``term_generators`` the generators of every model and surgery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd
from typing import NamedTuple

from . import engine
from .errors import (GeometryError, InvalidModelError, PathError, ShapeError,
                     UnsupportedModelError)
from .pauli import PauliOp, _word, from_terms, pauli_prod

__all__ = [
    "LatticeGeometry",
    "Generator",
    "StabilizerModel",
    "TERMS",
    "term_words",
    "term_generators",
    "build_toric_code",
    "build_bilayer_toric",
    "build_bombin_lattice",
    "bombin_to_kitaev",
    "STRINGS",
    "string_operator",
    "evaluate_constraint",
]


@dataclass(frozen=True)
class LatticeGeometry:
    """Torus geometry with qudits on edges or on vertices."""

    rows: int
    cols: int
    placement: str  # "edges" or "vertices"
    layers: int = 1

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise GeometryError(f"lattice must be at least 2x2, got {self.cols}x{self.rows}")
        if self.placement not in ("edges", "vertices"):
            raise GeometryError(f"unknown placement {self.placement!r}")

    @cached_property
    def sites_per_layer(self) -> int:
        per_cell = 2 if self.placement == "edges" else 1
        return per_cell * self.rows * self.cols

    @cached_property
    def n_sites(self) -> int:
        return self.layers * self.sites_per_layer

    @cached_property
    def cells(self) -> tuple:
        """Every cell (x, y) of one layer, row by row."""
        return tuple((x, y) for y in range(self.rows) for x in range(self.cols))

    def wrap(self, x: int, y: int):
        return x % self.cols, y % self.rows

    # --- edge placement -------------------------------------------------
    def edge_index(self, orient: str, x: int, y: int, layer: int = 0) -> int:
        """The site of h(x, y) (orient "h") or v(x, y) in ``layer``."""
        if self.placement != "edges":
            raise GeometryError("edge_index needs edge placement")
        return (layer * self.sites_per_layer
                + 2 * (y % self.rows * self.cols + x % self.cols) + (orient != "h"))

    # --- vertex placement -----------------------------------------------
    def vertex_index(self, x: int, y: int) -> int:
        if self.placement != "vertices":
            raise GeometryError("vertex_index needs vertex placement")
        x, y = self.wrap(x, y)
        return y * self.cols + x


class Generator(NamedTuple):
    """A stabilizer generator named ``gid`` for display, built from the
    ``TERMS`` row ``term`` at the cell ``anchor`` = (x, y), both ``None`` off
    the table; surgeries name it by (term, anchor, its word's layer)."""

    gid: str
    kind: str
    op: PauliOp
    order: int
    anchor: tuple | None = None
    term: str | None = None


@dataclass(frozen=True)
class StabilizerModel:
    """Lattice geometry + modulus + labeled generators + applied surgeries."""

    geometry: LatticeGeometry
    modulus: int
    generators: tuple
    constraints: tuple = ()  # kinds whose generators multiply to 1; a surgery drops them
    family: str = "custom"
    defects: tuple = ()  # the kind of each surgery applied, in order
    logicals: tuple = ()  # (name, PauliOp) canonical logical representatives

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites

    @cached_property
    def _by_gid(self) -> dict:
        return {g.gid: g for g in self.generators}

    @cached_property
    def incidence(self) -> dict:
        """site -> [(generator position, x, z), ...] over every generator's
        support, positions ascending; built once per model.

        Raises ShapeError, naming both registers, for a generator on another
        register, so the commutation check, a syndrome and a membership
        test never compare words of different registers; and
        InvalidModelError, naming the gid, for a gid two generators share,
        since a syndrome is keyed by gid.
        """
        inc = {}
        N, n = self.modulus, self.n_sites
        gids = set()
        for j, g in enumerate(self.generators):
            if g.op.modulus != N or g.op.sites != n:
                raise ShapeError(
                    f"generator {g.gid} acts on a {g.op.sites}-site Z_{g.op.modulus} "
                    f"register, the model on a {n}-site Z_{N} register")
            if g.gid in gids:
                raise InvalidModelError(f"generator id {g.gid} is repeated")
            gids.add(g.gid)
            for s, x, z in g.op.terms:
                inc.setdefault(s, []).append((j, x, z))
        return inc

    @cached_property
    def echelon(self) -> "engine.Echelon":
        """The generators' ``engine.Echelon`` (index and pivots), eliminated
        once per model on first use, after ``incidence`` has checked the
        register; ``replace`` gives a new model that eliminates its own
        generators."""
        self.incidence
        return engine.echelon([engine._row(g.op) for g in self.generators],
                              self.modulus, 2 * self.n_sites)

    @cached_property
    def logical_dimension(self) -> int:
        """``engine.logical_dimension``, computed once per model on first
        use; a model whose generators do not commute raises
        ``InvalidModelError`` on every access and caches nothing."""
        return engine._logical_dimension(self)

    def generator(self, gid: str) -> Generator:
        return self._by_gid[gid]


def evaluate_constraint(model: StabilizerModel, kind: str) -> PauliOp:
    """The product of every generator of ``kind``, in generator order, as one
    ``pauli_prod``; the identity for each kind in ``model.constraints``."""
    return pauli_prod(model.modulus, model.n_sites,
                      [g.op for g in model.generators if g.kind == kind])


# TERMS[name] = (placement, offsets): offset (dx, dy, k, x, z) puts X^x Z^z on
# site k of the cell (x + dx, y + dy) of the anchor (x, y), the site
# layer * sites_per_layer + c * (y' * cols + x') + k of the wrapped cell
# (x', y'): c = 2 and k = 0 (h) or 1 (v) on edges, c = 1 and k = 0 on
# vertices.  No two offsets of a term meet on a torus of at least 2x2 (the
# pentagons need 3 columns, the twist gives 6), so no site needs a merge.
# star, plaquette, fish = star * plaquette and the hops are the edge terms
# of the module conventions; cell is the Bombin generator, parallelogram and
# pentagon-l/-r the Bombin twist's cells (a Y corner by the phase 1).
TERMS = {
    "star": ("edges", ((-1, 0, 0, 1, 0), (0, -1, 1, 1, 0), (0, 0, 0, -1, 0), (0, 0, 1, -1, 0))),
    "plaquette": ("edges", ((0, 0, 0, 0, 1), (1, 0, 1, 0, 1), (0, 1, 0, 0, -1),
                            (0, 0, 1, 0, -1))),
    "fish": ("edges", ((-1, 0, 0, 1, 0), (0, -1, 1, 1, 0), (0, 0, 0, -1, 1), (0, 0, 1, -1, -1),
                       (1, 0, 1, 0, 1), (0, 1, 0, 0, -1))),
    "hop-h": ("edges", ((0, 0, 0, 0, 1), (1, 0, 1, -1, 0))),
    "hop-v": ("edges", ((0, 0, 1, 0, 1), (0, 1, 0, -1, 0))),
    "cell": ("vertices", ((0, 0, 0, 1, 0), (1, 0, 0, 0, 1), (1, 1, 0, 1, 0), (0, 1, 0, 0, 1))),
    "parallelogram": ("vertices", ((0, 0, 0, 1, 0), (1, 0, 0, 0, 1), (1, 1, 0, 0, 1),
                                   (2, 1, 0, 1, 0))),
    "pentagon-l": ("vertices", ((-1, 0, 0, 1, 0), (0, 0, 0, 0, 1), (-1, 1, 0, 0, 1),
                                (0, 1, 0, 1, 1), (1, 1, 0, 1, 0))),
    "pentagon-r": ("vertices", ((-1, 0, 0, 1, 0), (0, 0, 0, 1, 1), (1, 0, 0, 0, 1),
                                (0, 1, 0, 0, 1), (1, 1, 0, 1, 0))),
}


def term_words(geo: LatticeGeometry, modulus: int, name: str, anchors, layer: int = 0,
               power: int = 1, phase: int = 0) -> list:
    """The ``TERMS[name]`` word at each (x, y) of ``anchors`` with phase
    exponent ``phase``, every exponent times ``power`` (the word's power for
    the star, plaquette and hops, whose sites carry X or Z alone), reduced
    once per call; a term of the other placement raises GeometryError."""
    placement, offsets = TERMS[name]
    if geo.placement != placement:
        kind = "edge" if placement == "edges" else "vertex"
        raise GeometryError(f"{kind}_index needs {kind} placement")
    cols, rows, n = geo.cols, geo.rows, geo.n_sites
    c = 2 if placement == "edges" else 1
    base = layer * geo.sites_per_layer
    table = [(dx, dy, base + k, x * power % modulus, z * power % modulus)
             for dx, dy, k, x, z in offsets if x * power % modulus or z * power % modulus]
    out = []
    for x, y in anchors:
        terms = sorted([(c * ((y + dy) % rows * cols + (x + dx) % cols) + k, a, b)
                        for dx, dy, k, a, b in table])
        out.append(_word(modulus, n, tuple(terms), phase))
    return out


def term_generators(geo: LatticeGeometry, modulus: int, rows, anchors, layer: int = 0) -> list:
    """The generators of ``rows`` at each (x, y) of ``anchors``, anchor by
    anchor and in row order at each anchor.  A row ``(prefix, kind, term[,
    power[, phase]])`` gives ``f"{prefix}{x},{y})"`` of ``kind`` and ``term``,
    the ``term_words`` word, at (x, y); a row's words share their exponents,
    so each takes the first word's order N / gcd(N, exponents)."""
    if not anchors:
        return []
    columns = []
    for prefix, kind, term, *scale in rows:
        words = term_words(geo, modulus, term, anchors, layer, *scale)
        d = modulus
        for _, x, z in words[0].terms:
            d = gcd(d, x, z)
        columns.append((prefix, kind, term, words, modulus // d))
    return [Generator(prefix + at, kind, words[i], order, anchor, term)
            for i, (at, anchor) in enumerate([(f"{x},{y})", (x, y)) for x, y in anchors])
            for prefix, kind, term, words, order in columns]


def _toric_geometry(rows: int, cols: int, modulus: int, layers: int = 1) -> LatticeGeometry:
    geo = LatticeGeometry(rows, cols, "edges", layers)
    if modulus < 2:
        raise GeometryError("modulus must be >= 2")
    return geo


def build_toric_code(rows: int, cols: int, modulus: int = 2) -> StabilizerModel:
    """Z_N toric code on a cols x rows torus with qudits on edges."""
    geo = _toric_geometry(rows, cols, modulus)
    n = geo.n_sites
    gens = tuple(term_generators(geo, modulus, [("A(", "vertex", "star"),
                                                ("B(", "plaquette", "plaquette")], geo.cells))
    logicals = (
        ("X1", from_terms(modulus, n, [(geo.edge_index("v", x, 0), 1, 0) for x in range(cols)])),
        ("Z1", from_terms(modulus, n, [(geo.edge_index("v", 0, y), 0, 1) for y in range(rows)])),
        ("X2", from_terms(modulus, n, [(geo.edge_index("h", 0, y), 1, 0) for y in range(rows)])),
        ("Z2", from_terms(modulus, n, [(geo.edge_index("h", x, 0), 0, 1) for x in range(cols)])),
    )
    return StabilizerModel(geo, modulus, gens, ("vertex", "plaquette"), "toric",
                           logicals=logicals)


def build_bilayer_toric(rows: int, cols: int) -> StabilizerModel:
    """Two uncoupled Z_2 toric codes on one cols x rows torus.

    Layer t's generators are ``T{t}/A(x,y)`` and ``T{t}/B(x,y)`` of kinds
    ``vertex-T{t}`` and ``plaquette-T{t}``; ``defects.couple_bilayer``
    joins the layers through a wormhole.
    """
    geo = _toric_geometry(rows, cols, 2, layers=2)
    gens = tuple(g for t in (1, 2) for g in term_generators(
        geo, 2, [(f"T{t}/A(", f"vertex-T{t}", "star"),
                 (f"T{t}/B(", f"plaquette-T{t}", "plaquette")], geo.cells, t - 1))
    return StabilizerModel(geo, 2, gens, (), "bilayer")


def build_bombin_lattice(rows: int, cols: int) -> StabilizerModel:
    """Vertex-qubit lattice with one XZXZ cell generator per plaquette.

    Needs even sizes so the dark/light checkerboard closes on the torus.
    """
    geo = LatticeGeometry(rows, cols, "vertices")
    if rows % 2 or cols % 2:
        raise GeometryError("Bombin lattice needs even rows, cols")
    gens = [Generator(f"P({x},{y})", "cell-dark" if (x + y) % 2 == 0 else "cell-light", op, 2,
                      (x, y), "cell")
            for (x, y), op in zip(geo.cells, term_words(geo, 2, "cell", geo.cells))]
    return StabilizerModel(geo, 2, tuple(gens), ("cell-dark", "cell-light"), "bombin")


def _hadamard_sites(geo: LatticeGeometry):
    """Vertices with odd coordinate parity: conjugating them by Hadamard turns
    dark cells into all-X and light cells into all-Z generators."""
    return {geo.vertex_index(x, y) for x, y in geo.cells if (x + y) % 2}


def _swap_xz(op: PauliOp, sites) -> PauliOp:
    terms = []
    phase = op.phase_exp
    for s, x, z in op.terms:
        if s in sites:
            phase += 2 * x * z  # Z^x X^z = omega^{xz} X^z Z^x
            x, z = z, x
        terms.append((s, x, z))
    return PauliOp(op.modulus, op.sites, tuple(terms), phase)


def bombin_to_kitaev(model: StabilizerModel) -> StabilizerModel:
    """Hadamard the diagonal vertex sublattice; relabel cells as vertex/plaquette."""
    if model.family not in ("bombin", "bombin-kitaev"):
        raise UnsupportedModelError("bombin_to_kitaev needs a Bombin-lattice model")
    sites = _hadamard_sites(model.geometry)
    relabel = {"cell-dark": "vertex", "cell-light": "plaquette",
               "vertex": "cell-dark", "plaquette": "cell-light"}
    gens = tuple(
        g._replace(kind=relabel.get(g.kind, g.kind), op=_swap_xz(g.op, sites))
        for g in model.generators)
    family = "bombin-kitaev" if model.family == "bombin" else "bombin"
    return replace(model, generators=gens, family=family)


def _steps(path, geo: LatticeGeometry):
    out = []
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        dx = (x1 - x0) % geo.cols
        dy = (y1 - y0) % geo.rows
        if dx == 1 and dy == 0:
            out.append(("+x", x0, y0))
        elif dx == geo.cols - 1 and dy == 0:
            out.append(("-x", x1, y1))
        elif dx == 0 and dy == 1:
            out.append(("+y", x0, y0))
        elif dx == 0 and dy == geo.rows - 1:
            out.append(("-y", x1, y1))
        else:
            raise PathError(f"path step {(x0, y0)} -> {(x1, y1)} is not adjacent")
    return out


# STRINGS[type][axis] lists the (orient, dx, dy, x, z) terms, X^x Z^z on edge
# orient(x+dx, y+dy), of a + step from node (x, y).  ``_steps`` anchors a
# - step at its end node, where it takes the same terms with negated
# exponents: the step's adjoint, since no term holds both X and Z.
# * e is Z along a vertex path; m is X across a plaquette (dual) path, its
#   signs the edge-orientation cross product, so that closed dual loops
#   commute with every plaquette for any modulus.
# * s and sbar (doubled semion, Z_4) cross a plaquette path with X^+-1 on the
#   crossed edge and Z^b on the far plaquette's next edge, b = +1 for s and
#   -1 for sbar: the frozen segment signs (alpha, beta, alpha', beta') =
#   (1, 1, -1, 1), the labeling that extracts theta(s) = +i.
# * ssbar (Z_4) is Z^2 along a vertex path, orientation-free; 1 has no terms
#   but still checks its path.
STRINGS = {
    "1": {"x": (), "y": ()},
    "e": {"x": (("h", 0, 0, 0, 1),), "y": (("v", 0, 0, 0, 1),)},
    "m": {"x": (("v", 1, 0, -1, 0),), "y": (("h", 0, 1, 1, 0),)},
    "s": {"x": (("v", 1, 0, 1, 0), ("h", 1, 1, 0, 1)),
          "y": (("h", 0, 1, -1, 0), ("v", 1, 1, 0, 1))},
    "sbar": {"x": (("v", 1, 0, 1, 0), ("h", 1, 1, 0, -1)),
             "y": (("h", 0, 1, -1, 0), ("v", 1, 1, 0, -1))},
    "ssbar": {"x": (("h", 0, 0, 0, 2),), "y": (("v", 0, 0, 0, 2),)},
}


def string_operator(model: StabilizerModel, anyon: str, path) -> PauliOp:
    """The ``anyon`` string of ``STRINGS`` along ``path``, steps multiplied in order.

    Open e and m strings anticommute with exactly their two endpoint
    generators, and closed contractible loops are stabilizer products; s,
    sbar and ssbar strings commute with every doubled-semion stabilizer away
    from their endpoints and need a Z_4 model.
    """
    geo = model.geometry
    if geo.placement != "edges":
        raise UnsupportedModelError("string operators need an edge-placement model")
    if anyon not in STRINGS:
        raise UnsupportedModelError(f"unknown anyon type {anyon!r}")
    if anyon in ("s", "sbar", "ssbar") and model.modulus != 4:
        raise UnsupportedModelError(
            f"{anyon} strings need a Z_4 model, got modulus {model.modulus}")
    if len(path) < 2:
        raise PathError("path needs at least two nodes")
    terms = []
    for step, x, y in _steps(path, geo):
        sign = -1 if step[0] == "-" else 1
        terms += [(geo.edge_index(o, x + dx, y + dy), sign * a, sign * b)
                  for o, dx, dy, a, b in STRINGS[anyon][step[1]]]
    return from_terms(model.modulus, model.n_sites, terms)
