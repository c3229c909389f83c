"""Generator-set surgeries: twists, dislocations, patches, bilayer wormholes.

Every surgery is a (remove-set, add-set) rewrite of the generator list;
geometry is never mutated.  Reports always recompute the logical dimension
from scratch via the engine's sparse gcd elimination; nothing is trusted
from the construction arithmetic.

Every surgery ends in ``_surgery``, which claims the defect region, rewrites
the generators and reports the dimension before and after.

Frozen operator content (pinned by commutation closure, stated orders,
the dimension results in tests/test_defects.py and the golden build
reports).  Stars, plaquettes and fish come from ``lattice.star_op``,
``lattice.plaquette_op`` and ``lattice.fish_op``; the boson hops from
``dsemion.hop_op``:

* Kitaev-lattice twist line: per site v the star and its north-east
  plaquette merge into a fish; consecutive sites are linked by 2-edge
  "short" hops  Z on h(v) * X^-1 on v(v+x1)  which condense the diagonal
  charge-flux composite along the line.
* Bombin twist line between vertex rows y0, y0+1: cells under the cut are
  sheared into parallelograms  X(a,y0) Z(a+1,y0) Z(a+1,y0+1) X(a+2,y0+1);
  the two ends close with mirror-image pentagons carrying Y at the
  trivalent vertex.
* Doubled-semion patch: the four stars and their NE plaquettes in a 2x2
  block are replaced by fish, squared plaquettes (``power=2``), and the
  four boson hops around the block.  The product of those four hops is
  identically A(center)^2 * B(SW)^2, so the surgery carries three
  independent order-2 relations and the logical dimension is unchanged
  for a contractible patch (16), halves for a non-contractible ring (8),
  and is restored to 4 by the inverse surgery inside the doubled semion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import engine
from .dsemion import hop_op
from .errors import DefectError, GeometryError, UnsupportedModelError
from .lattice import (DefectSpec, Generator, LatticeGeometry, StabilizerModel,
                      fish_op, plaquette_op, star_op)
from .pauli import PauliOp, from_terms, pauli_mul

__all__ = [
    "DefectReport",
    "apply_bombin_twist",
    "apply_kitaev_twist",
    "apply_dislocation",
    "apply_ds_patch",
    "apply_z4_patch_in_ds",
    "apply_multiple_ising_twists",
    "couple_bilayer",
]


@dataclass(frozen=True)
class DefectReport:
    removed: tuple
    added: tuple  # Generator instances
    dim_before: int
    dim_after: int
    constraints_after: tuple

    def summary(self) -> str:
        kinds = {}
        for g in self.added:
            kinds[g.kind] = kinds.get(g.kind, 0) + 1
        added = " ".join(f"{k}:{v}" for k, v in sorted(kinds.items()))
        return (f"removed {len(self.removed)} added {len(self.added)} ({added}) "
                f"dimension {self.dim_before} -> {self.dim_after}")


def _surgery(model: StabilizerModel, kind: str, region, removed, added, constraints):
    """Claim ``region`` for a new ``kind`` defect, swap ``removed`` for
    ``added`` and report the logical dimension before and after."""
    taken = {cell for spec in model.defects for cell in spec.region}
    overlap = taken & set(region)
    if overlap:
        raise DefectError(f"defect region overlaps an existing defect at {sorted(overlap)}")
    new = model.with_surgery(removed, added, constraints, DefectSpec(kind, tuple(region)))
    report = DefectReport(tuple(removed), tuple(added), engine.logical_dimension(model),
                          engine.logical_dimension(new), tuple(constraints))
    return new, report


# ----------------------------------------------------------------------
# Kitaev-lattice (edge placement) twist lines
# ----------------------------------------------------------------------

def _short_op(geo: LatticeGeometry, modulus: int, x: int, y: int) -> PauliOp:
    return from_terms(modulus, geo.n_sites, [
        (geo.edge_index("h", x, y), 0, 1),
        (geo.edge_index("v", x + 1, y), -1, 0),
    ])


def apply_kitaev_twist(model: StabilizerModel, x0: int = 0, y0: int = 0,
                       length: int = 3, contractible: bool = True):
    """Insert a charge-flux exchanging twist line into a Z_N toric code.

    Contractible lines keep the logical dimension at N^2; a non-contractible
    line (a full row of merged sites) reduces it to N.
    """
    if model.family != "toric" or model.geometry.placement != "edges":
        raise UnsupportedModelError("kitaev twist needs an edge-placement toric code")
    geo = model.geometry
    N = model.modulus
    if contractible:
        if length < 2 or length >= geo.cols:
            raise DefectError("contractible twist line needs 2 <= length < cols")
        sites = [((x0 + j) % geo.cols, y0 % geo.rows) for j in range(length)]
    else:
        sites = [(x, y0 % geo.rows) for x in range(geo.cols)]
    removed = [f"{t}({x},{y})" for t in "AB" for x, y in sites]
    added = [Generator(f"F({x},{y})", "fish", fish_op(geo, N, x, y), N)
             for x, y in sites]
    hops = sites if not contractible else sites[:-1]
    added += [Generator(f"S({x},{y})", "short-string", _short_op(geo, N, x, y), N)
              for x, y in hops]
    merged = ({g: 1 for g in model.gids("vertex") + model.gids("plaquette") if g not in removed}
              | {f"F({x},{y})": 1 for x, y in sites})
    return _surgery(model, "kitaev-twist", [("site",) + v for v in sites],
                    removed, added, (merged,))


def apply_dislocation(model: StabilizerModel, variant: str, x0: int = 0, y0: int = 0):
    """The two dislocation figures on the Z_2 toric code.

    Variant "i": an open line (three fish, two shorts) replacing three stars
    and three plaquettes; dimension 4 is preserved and the two trivial
    constraints merge into one.  Variant "ii": the periodic version;
    dimension drops to 2.
    """
    if model.modulus != 2:
        raise UnsupportedModelError("dislocations are defined on the Z_2 toric code")
    if variant == "i":
        model2, report = apply_kitaev_twist(model, x0, y0, length=3, contractible=True)
    elif variant == "ii":
        model2, report = apply_kitaev_twist(model, x0, y0, contractible=False)
    else:
        raise DefectError(f"unknown dislocation variant {variant!r}")
    spec = replace(model2.defects[-1], kind=f"krishna-dislocation-{variant}")
    return replace(model2, defects=model2.defects[:-1] + (spec,)), report


def apply_multiple_ising_twists(model: StabilizerModel, k: int, sites=None):
    """k separated single-site twist insertions (star/plaquette fish merges).

    k = 0 is the identity transformation; the first twist pair merges the two
    trivial constraints (dimension stays 4), every further one doubles the
    logical dimension.
    """
    if model.family != "toric" or model.modulus != 2:
        raise UnsupportedModelError("ising twists need the Z_2 toric code")
    geo = model.geometry
    if k < 0:
        raise DefectError(f"k must not be negative, got k={k}")
    if sites is None:
        if 2 * k > geo.cols * (geo.rows // 2):
            raise DefectError("lattice too small for k separated twists")
        sites = []
        for j in range(k):
            sites.append(((2 * j) % geo.cols, 2 * ((2 * j) // geo.cols)))
    sites = [geo.wrap(x, y) for x, y in sites]
    if len(set(sites)) != k:
        raise DefectError("twist sites must be distinct")
    for (x1, y1) in sites:
        for (x2, y2) in sites:
            if (x1, y1) < (x2, y2):
                dx = min((x1 - x2) % geo.cols, (x2 - x1) % geo.cols)
                dy = min((y1 - y2) % geo.rows, (y2 - y1) % geo.rows)
                if max(dx, dy) < 2:
                    raise DefectError("twist sites must be pairwise separated")
    if k == 0:
        return model, DefectReport((), (), engine.logical_dimension(model),
                                   engine.logical_dimension(model), model.constraints)
    removed = [f"{t}({x},{y})" for t in "AB" for x, y in sites]
    added = [Generator(f"F({x},{y})", "fish", fish_op(geo, 2, x, y), 2)
             for x, y in sites]
    merged = ({g.gid: 1 for g in model.generators if g.gid not in removed}
              | {g.gid: 1 for g in added})
    return _surgery(model, "ising-twists", [("site",) + v for v in sites],
                    removed, added, (merged,))


# ----------------------------------------------------------------------
# Bombin-lattice (vertex placement) twist lines
# ----------------------------------------------------------------------

def _vterm(geo, x, y, pauli):
    x_exp = 1 if pauli in "XY" else 0
    z_exp = 1 if pauli in "ZY" else 0
    return geo.vertex_index(x, y), x_exp, z_exp


def _cell_gen_ops(geo: LatticeGeometry, assignment, phase: int = 0) -> PauliOp:
    terms = [_vterm(geo, x, y, p) for (x, y), p in assignment]
    return from_terms(2, geo.n_sites, terms, phase=phase)


def _parallelogram(geo, a, y0):
    y1 = y0 + 1
    return _cell_gen_ops(geo, [((a, y0), "X"), ((a + 1, y0), "Z"),
                               ((a + 1, y1), "Z"), ((a + 2, y1), "X")])


def _pentagon_left(geo, x0, y0):
    y1 = y0 + 1
    return _cell_gen_ops(geo, [((x0 - 1, y0), "X"), ((x0, y0), "Z"),
                               ((x0 - 1, y1), "Z"), ((x0, y1), "Y"),
                               ((x0 + 1, y1), "X")], phase=1)


def _pentagon_right(geo, c, y0):
    y1 = y0 + 1
    return _cell_gen_ops(geo, [((c - 1, y0), "X"), ((c, y0), "Y"),
                               ((c + 1, y0), "Z"), ((c, y1), "Z"),
                               ((c + 1, y1), "X")], phase=1)


def apply_bombin_twist(model: StabilizerModel, x0: int = 1, y0: int = 0,
                       width: int = 2, contractible: bool = True,
                       multiplicity: int = 1):
    """Shear twist line(s) on the Bombin lattice.

    A contractible line removes width+3 cells and introduces two pentagons
    and ``width`` parallelograms (5 -> 4 for the minimal width 2); crossing
    it exchanges the dark and light excitation families.  A non-contractible
    line replaces a full cell row by parallelograms; one such line halves
    the logical dimension, a second restores it.
    """
    if model.family != "bombin":
        raise UnsupportedModelError("bombin twist needs a Bombin-lattice model")
    geo = model.geometry
    x0, y0 = geo.wrap(x0, y0)
    removed = []
    added = []
    cells = []
    if contractible:
        if multiplicity != 1:
            raise DefectError("multiplicity applies to non-contractible twists")
        if width < 2 or width + 3 >= geo.cols:
            raise DefectError("contractible twist needs 2 <= width <= cols-4")
        y = y0
        cols = [(x0 - 1 + j) % geo.cols for j in range(width + 3)]
        cells = [(a, y) for a in cols]
        removed = [f"P({a},{y})" for a, _ in cells]
        added = [Generator(f"PentL({x0},{y})", "pentagon", _pentagon_left(geo, x0, y), 2)]
        for j in range(width):
            a = (x0 + j) % geo.cols
            added.append(Generator(f"Par({a},{y})", "parallelogram",
                                   _parallelogram(geo, a, y), 2))
        c = (x0 + width + 1) % geo.cols
        added.append(Generator(f"PentR({c},{y})", "pentagon", _pentagon_right(geo, c, y), 2))
    else:
        if multiplicity < 1 or 2 * multiplicity > geo.rows:
            raise DefectError("too many parallel twist lines for this lattice")
        for line in range(multiplicity):
            y = (y0 + 2 * line) % geo.rows
            for a in range(geo.cols):
                cells.append((a, y))
                removed.append(f"P({a},{y})")
                added.append(Generator(f"Par({a},{y})", "parallelogram",
                                       _parallelogram(geo, a, y), 2))
    merged = ({g.gid: 1 for g in model.generators if g.gid not in removed}
              | {g.gid: 1 for g in added})
    return _surgery(model, "bombin-twist", [("cell",) + c for c in cells],
                    removed, added, (merged,))


# ----------------------------------------------------------------------
# Doubled-semion patch inside the Z_4 toric code, and its inverse
# ----------------------------------------------------------------------

def _patch_sites(geo, x, y):
    return [geo.wrap(x, y), geo.wrap(x + 1, y), geo.wrap(x, y + 1), geo.wrap(x + 1, y + 1)]


def apply_ds_patch(model: StabilizerModel, x: int = 1, y: int = 1,
                   contractible: bool = True):
    """Condense the order-two boson on a patch of the Z_4 toric code.

    The contractible 2x2-site patch takes the logical dimension from 16 to
    8; a non-contractible ring of sites takes it to 4.
    """
    if model.family != "toric" or model.modulus != 4:
        raise UnsupportedModelError("the patch needs a Z_4 toric code")
    geo = model.geometry
    x, y = geo.wrap(x, y)
    N = 4
    if contractible:
        if geo.cols < 4 or geo.rows < 4:
            raise GeometryError("contractible patch needs at least a 4x4 lattice")
        sites = _patch_sites(geo, x, y)
        hops = [("h", x, y), ("h", *geo.wrap(x, y + 1)), ("v", x, y), ("v", *geo.wrap(x + 1, y))]
    else:
        sites = [(a, y) for a in range(geo.cols)]
        hops = [("h", a, y) for a in range(geo.cols)]
    removed = [f"{t}({a},{b})" for t in "AB" for a, b in sites]
    fish = [Generator(f"Fds({a},{b})", "defect-fish", fish_op(geo, N, a, b), 4)
            for a, b in sites]
    bds = [Generator(f"Bds({a},{b})", "defect-plaquette",
                     plaquette_op(geo, N, a, b, power=2), 2) for a, b in sites]
    added = fish + bds + [Generator(f"Cds({o},{a},{b})", "defect-short",
                                    hop_op(geo, o, a, b), 2) for o, a, b in hops]
    cert_b = ({g: 2 for g in model.gids("plaquette") if g not in removed}
              | {g.gid: 1 for g in bds})
    cert_af = ({g: 2 for g in model.gids("vertex") if g not in removed}
               | {g.gid: 2 for g in fish} | {g.gid: 1 for g in bds})
    return _surgery(model, "ds-patch", [("site",) + v for v in sites],
                    removed, added, (cert_b, cert_af))


def apply_z4_patch_in_ds(model: StabilizerModel, x: int = 1, y: int = 1):
    """Restore bare Z_4 toric-code stabilizers on a 2x2 patch of the DS model.

    Inverse surgery of the DS patch; the logical dimension drops from 4 to 2.
    """
    if model.family != "doubled-semion":
        raise UnsupportedModelError("z4 patch needs a doubled-semion model")
    geo = model.geometry
    if geo.cols < 4 or geo.rows < 4:
        raise GeometryError("z4 patch needs at least a 4x4 lattice")
    sites = _patch_sites(geo, x, y)
    removed = [f"{t}({a},{b})" for t in "AB" for a, b in sites]
    site_set = set(sites)
    for a in range(geo.cols):
        for b in range(geo.rows):
            if geo.wrap(a, b) in site_set or geo.wrap(a + 1, b) in site_set:
                removed.append(f"C(h,{a},{b})")
            if geo.wrap(a, b) in site_set or geo.wrap(a, b + 1) in site_set:
                removed.append(f"C(v,{a},{b})")
    added = []
    for a, b in sites:
        added.append(Generator(f"TCA({a},{b})", "vertex", star_op(geo, 4, a, b), 4))
        added.append(Generator(f"TCB({a},{b})", "plaquette", plaquette_op(geo, 4, a, b), 4))
    cert1 = ({g: 1 for g in model.gids("vertex") if g not in removed}
             | {g.gid: 1 for g in added})
    cert2 = ({g: 1 for g in model.gids("plaquette") if g not in removed}
             | {f"TCB({a},{b})": 2 for a, b in sites})
    return _surgery(model, "z4-patch-in-ds", [("site",) + v for v in sites],
                    removed, added, (cert1, cert2))


# ----------------------------------------------------------------------
# Bilayer wormholes
# ----------------------------------------------------------------------

def couple_bilayer(model: StabilizerModel, wormhole: str, mouths=((0, 0), (2, 2))):
    """Couple the two layers of a ``lattice.build_bilayer_toric`` model
    through a pair of wormhole mouths, taken mod the lattice.

    Variant "i" pairs a plaquette of one layer with a star of the other in
    both directions (dimension 16 stays 16, trivial constraints merge
    pairwise).  Variant "ii" pairs stars of the lower layer with plaquettes
    of the upper layer at both mouths, so fluxes of one layer re-emerge as
    charges of the other; the dimension doubles to 32.
    """
    # the constraints below are those of two uncoupled layers
    if model.family != "bilayer" or model.defects:
        raise UnsupportedModelError("bilayer coupling needs a bilayer model without defects")
    if wormhole not in ("i", "ii"):
        raise DefectError(f"unknown wormhole variant {wormhole!r}")
    (x1, y1), (x2, y2) = (model.geometry.wrap(x, y) for x, y in mouths)
    if (x1, y1) == (x2, y2):
        raise DefectError("wormhole mouths must be distinct")

    if wormhole == "i":
        removed = [f"T1/B({x1},{y1})", f"T2/A({x1},{y1})",
                   f"T2/B({x2},{y2})", f"T1/A({x2},{y2})"]
    else:
        removed = [f"T1/A({x1},{y1})", f"T2/B({x1},{y1})",
                   f"T1/A({x2},{y2})", f"T2/B({x2},{y2})"]
    f1, f2 = (pauli_mul(model.generator(a).op, model.generator(b).op)
              for a, b in (removed[:2], removed[2:]))
    added = [Generator("F1", "bilayer-fish", f1, 2), Generator("F2", "bilayer-fish", f2, 2)]

    def ones(*kinds, extra=()):
        gids = [g for k in kinds for g in model.gids(k) if g not in removed]
        return dict.fromkeys(gids + list(extra), 1)

    if wormhole == "i":
        constraints = (ones("plaquette-T1", "vertex-T2", extra=["F1"]),
                       ones("plaquette-T2", "vertex-T1", extra=["F2"]))
    else:
        constraints = (ones("vertex-T2"), ones("plaquette-T1"),
                       ones("vertex-T1", "plaquette-T2", extra=["F1", "F2"]))
    return _surgery(model, f"bilayer-wormhole-{wormhole}",
                    [("mouth", x1, y1), ("mouth", x2, y2)], removed, added, constraints)
