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
  ``star_op``, ``plaquette_op`` and the 6-edge ``fish_op`` = A(x,y)*B(x,y)
  are the only builders of these terms; the doubled-semion model and every
  defect surgery reuse them.
* Vertex placement: qubits sit on vertices; the cell with south-west corner
  (x,y) carries X on its SW/NE corners and Z on its SE/NW corners, one such
  generator per cell, two-colored dark/light by (x+y) mod 2 with (0,0) dark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import engine
from .errors import GeometryError, PathError, UnsupportedModelError
from .pauli import PauliOp, from_terms, pauli_pow, pauli_prod

__all__ = [
    "LatticeGeometry",
    "Generator",
    "StabilizerModel",
    "star_op",
    "plaquette_op",
    "fish_op",
    "toric_generators",
    "build_toric_code",
    "build_bombin_lattice",
    "bombin_to_kitaev",
    "toric_string_operator",
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

    @property
    def sites_per_layer(self) -> int:
        per_cell = 2 if self.placement == "edges" else 1
        return per_cell * self.rows * self.cols

    @property
    def n_sites(self) -> int:
        return self.layers * self.sites_per_layer

    def wrap(self, x: int, y: int):
        return x % self.cols, y % self.rows

    # --- edge placement -------------------------------------------------
    def edge_index(self, orient: str, x: int, y: int, layer: int = 0) -> int:
        if self.placement != "edges":
            raise GeometryError("edge_index needs edge placement")
        x, y = self.wrap(x, y)
        base = 2 * (y * self.cols + x) + (0 if orient == "h" else 1)
        return layer * self.sites_per_layer + base

    def vertex_star(self, x: int, y: int, layer: int = 0):
        """(site, x-exp, z-exp) triples of the vertex operator at (x, y)."""
        return [
            (self.edge_index("h", x - 1, y, layer), 1, 0),
            (self.edge_index("v", x, y - 1, layer), 1, 0),
            (self.edge_index("h", x, y, layer), -1, 0),
            (self.edge_index("v", x, y, layer), -1, 0),
        ]

    def plaquette_boundary(self, x: int, y: int, layer: int = 0):
        """(site, x-exp, z-exp) triples of the plaquette operator with SW corner (x, y)."""
        return [
            (self.edge_index("h", x, y, layer), 0, 1),
            (self.edge_index("v", x + 1, y, layer), 0, 1),
            (self.edge_index("h", x, y + 1, layer), 0, -1),
            (self.edge_index("v", x, y, layer), 0, -1),
        ]

    # --- vertex placement -----------------------------------------------
    def vertex_index(self, x: int, y: int) -> int:
        if self.placement != "vertices":
            raise GeometryError("vertex_index needs vertex placement")
        x, y = self.wrap(x, y)
        return y * self.cols + x

    def cell_terms(self, x: int, y: int):
        """(site, x-exp, z-exp) triples for the XZXZ cell at SW corner (x, y)."""
        return [
            (self.vertex_index(x, y), 1, 0),
            (self.vertex_index(x + 1, y), 0, 1),
            (self.vertex_index(x + 1, y + 1), 1, 0),
            (self.vertex_index(x, y + 1), 0, 1),
        ]


@dataclass(frozen=True)
class Generator:
    gid: str
    kind: str
    op: PauliOp
    order: int


@dataclass(frozen=True)
class DefectSpec:
    """Placement of one defect; regions of distinct defects must be disjoint."""

    kind: str
    region: tuple = ()


@dataclass(frozen=True)
class StabilizerModel:
    """Lattice geometry + modulus + labeled generators + defect registry."""

    geometry: LatticeGeometry
    modulus: int
    generators: tuple
    constraints: tuple = ()  # exponent certificates {gid: exp} multiplying to identity
    family: str = "custom"
    defects: tuple = ()
    logicals: tuple = ()  # (name, PauliOp) canonical logical representatives

    @property
    def n_sites(self) -> int:
        return self.geometry.n_sites

    @cached_property
    def _by_gid(self) -> dict:
        # reversed, so a repeated gid resolves to its first generator
        return {g.gid: g for g in reversed(self.generators)}

    @cached_property
    def incidence(self) -> dict:
        """site -> [(generator position, x, z), ...] over every generator's
        support, positions ascending; built once per model."""
        inc = {}
        for j, g in enumerate(self.generators):
            for s, x, z in g.op.terms:
                inc.setdefault(s, []).append((j, x, z))
        return inc

    @cached_property
    def echelon(self) -> "engine.Echelon":
        """The generators' ``engine.Echelon`` (index and pivots), eliminated
        once per model on first use; ``replace`` gives a new model that
        eliminates its own generators."""
        gens = engine.GeneratorMatrix.from_ops([g.op for g in self.generators],
                                               self.modulus, self.n_sites)
        return engine.echelon(gens.rows, gens.modulus, gens.columns)

    def generator(self, gid: str) -> Generator:
        return self._by_gid[gid]

    def gids(self, kind_prefix: str = ""):
        return [g.gid for g in self.generators if g.kind.startswith(kind_prefix)]

    def with_surgery(self, remove_ids, added, constraints, defect):
        """Rewrite the generator list, replace the constraints and register
        ``defect``; geometry is never mutated."""
        removed = set(remove_ids)
        missing = removed - {g.gid for g in self.generators}
        if missing:
            raise KeyError(f"cannot remove unknown generators {sorted(missing)}")
        gens = tuple(g for g in self.generators if g.gid not in removed) + tuple(added)
        return replace(self, generators=gens, constraints=tuple(constraints),
                       defects=self.defects + (defect,))


def evaluate_constraint(model: StabilizerModel, certificate: dict) -> PauliOp:
    """Multiply out a trivial-constraint certificate in deterministic gid order.

    One ``from_terms`` pass folds every g^e into a single accumulator, so
    the cost follows the certificate's total weight.
    """
    return pauli_prod(model.modulus, model.n_sites,
                      (pauli_pow(model.generator(gid).op, certificate[gid])
                       for gid in sorted(certificate)))


def star_op(geo: LatticeGeometry, modulus: int, x: int, y: int, layer: int = 0) -> PauliOp:
    """The vertex operator A(x, y) of the module conventions."""
    return from_terms(modulus, geo.n_sites, geo.vertex_star(x, y, layer))


def plaquette_op(geo: LatticeGeometry, modulus: int, x: int, y: int, layer: int = 0,
                 power: int = 1) -> PauliOp:
    """The plaquette operator B(x, y) raised to ``power``."""
    return from_terms(modulus, geo.n_sites, [
        (s, 0, power * z) for s, _, z in geo.plaquette_boundary(x, y, layer)])


def fish_op(geo: LatticeGeometry, modulus: int, x: int, y: int) -> PauliOp:
    """A(x, y) * B(x, y): the star and its north-east plaquette on 6 edges."""
    return from_terms(modulus, geo.n_sites,
                      geo.vertex_star(x, y) + geo.plaquette_boundary(x, y))


def toric_generators(geo: LatticeGeometry, modulus: int, layer: int = 0, tag: str = ""):
    """Star ``{tag}A(x,y)`` and plaquette ``{tag}B(x,y)`` of every vertex of a layer."""
    gens = []
    for y in range(geo.rows):
        for x in range(geo.cols):
            gens.append(Generator(f"{tag}A({x},{y})", "vertex",
                                  star_op(geo, modulus, x, y, layer), modulus))
            gens.append(Generator(f"{tag}B({x},{y})", "plaquette",
                                  plaquette_op(geo, modulus, x, y, layer), modulus))
    return gens


def build_toric_code(rows: int, cols: int, modulus: int = 2) -> StabilizerModel:
    """Z_N toric code on a cols x rows torus with qudits on edges."""
    if rows < 2 or cols < 2:
        raise GeometryError("toric code needs rows, cols >= 2")
    if modulus < 2:
        raise GeometryError("modulus must be >= 2")
    geo = LatticeGeometry(rows, cols, "edges")
    n = geo.n_sites
    constraints = (
        {f"A({x},{y})": 1 for y in range(rows) for x in range(cols)},
        {f"B({x},{y})": 1 for y in range(rows) for x in range(cols)},
    )
    logicals = (
        ("X1", from_terms(modulus, n, [(geo.edge_index("v", x, 0), 1, 0) for x in range(cols)])),
        ("Z1", from_terms(modulus, n, [(geo.edge_index("v", 0, y), 0, 1) for y in range(rows)])),
        ("X2", from_terms(modulus, n, [(geo.edge_index("h", 0, y), 1, 0) for y in range(rows)])),
        ("Z2", from_terms(modulus, n, [(geo.edge_index("h", x, 0), 0, 1) for x in range(cols)])),
    )
    return StabilizerModel(geo, modulus, tuple(toric_generators(geo, modulus)),
                           constraints, "toric", logicals=logicals)


def build_bombin_lattice(rows: int, cols: int) -> StabilizerModel:
    """Vertex-qubit lattice with one XZXZ cell generator per plaquette.

    Needs even sizes so the dark/light checkerboard closes on the torus.
    """
    if rows < 2 or cols < 2 or rows % 2 or cols % 2:
        raise GeometryError("Bombin lattice needs even rows, cols >= 2")
    geo = LatticeGeometry(rows, cols, "vertices")
    n = geo.n_sites
    gens = []
    for y in range(rows):
        for x in range(cols):
            op = from_terms(2, n, geo.cell_terms(x, y))
            color = "dark" if (x + y) % 2 == 0 else "light"
            gens.append(Generator(f"P({x},{y})", f"cell-{color}", op, 2))
    constraints = (
        {g.gid: 1 for g in gens if g.kind == "cell-dark"},
        {g.gid: 1 for g in gens if g.kind == "cell-light"},
    )
    return StabilizerModel(geo, 2, tuple(gens), constraints, "bombin")


def _hadamard_sites(geo: LatticeGeometry):
    """Vertices with odd coordinate parity: conjugating them by Hadamard turns
    dark cells into all-X and light cells into all-Z generators."""
    return {geo.vertex_index(x, y)
            for y in range(geo.rows) for x in range(geo.cols) if (x + y) % 2}


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
        Generator(g.gid, relabel.get(g.kind, g.kind), _swap_xz(g.op, sites), g.order)
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


def toric_string_operator(model: StabilizerModel, path, string_type: str) -> PauliOp:
    """Z-string along a lattice path (type "e") or X-string along a dual path (type "m").

    An e path is a vertex sequence; an m path is a plaquette sequence (dual
    lattice).  Open strings anticommute with exactly the two endpoint
    generators; closed contractible loops are stabilizer products.
    """
    geo = model.geometry
    if geo.placement != "edges":
        raise UnsupportedModelError("string operators need an edge-placement model")
    if len(path) < 2:
        raise PathError("path needs at least two nodes")
    n = model.n_sites
    terms = []
    if string_type == "e":
        for d, x, y in _steps(path, geo):
            if d == "+x":
                terms.append((geo.edge_index("h", x, y), 0, 1))
            elif d == "-x":
                terms.append((geo.edge_index("h", x, y), 0, -1))
            elif d == "+y":
                terms.append((geo.edge_index("v", x, y), 0, 1))
            else:
                terms.append((geo.edge_index("v", x, y), 0, -1))
    elif string_type == "m":
        # crossing signs follow the edge-orientation cross product, so that
        # closed dual loops commute with every plaquette for any modulus
        for d, x, y in _steps(path, geo):
            if d == "+x":
                terms.append((geo.edge_index("v", x + 1, y), -1, 0))
            elif d == "-x":
                terms.append((geo.edge_index("v", x + 1, y), 1, 0))
            elif d == "+y":
                terms.append((geo.edge_index("h", x, y + 1), 1, 0))
            else:
                terms.append((geo.edge_index("h", x, y + 1), -1, 0))
    else:
        raise PathError(f"unknown string type {string_type!r}")
    return from_terms(model.modulus, n, terms)
