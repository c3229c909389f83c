"""Generator-set surgeries: twists, dislocations, patches, bilayer wormholes.

Every surgery is a (remove-set, add-set) rewrite of the generator list,
made by ``_surgery``; geometry is never mutated.  ``_surgery`` removes
generators by (term, anchor, layer), never by gid, which is only a display
name, and refuses a key that names no generator: that is how an overlapping
defect is caught.  It keeps the parent logicals that commute with the added
generators, and its report recomputes the logical dimension before and
after from scratch via the engine's sparse gcd elimination; nothing is
trusted from the construction arithmetic.

Frozen operator content (pinned by commutation closure, orders read off
each row's word, the dimension results in tests/test_defects.py and the
golden build reports).  Stars, plaquettes, fish, hops and the sheared
vertex cells are rows of the offset table ``lattice.TERMS``, and every
added generator but the wormhole fish is a ``lattice.term_generators`` row:

* Fish merge (Kitaev twist lines, dislocations, Ising insertions): per site
  v the star and its north-east plaquette merge into a fish; every hop with
  both end sites merged (``_inside_hops``) becomes a 2-edge "short" string
  Z on h(v) * X^-1 on v(v+x1), which condenses the diagonal charge-flux
  composite.
* Bombin twist line between vertex rows y0, y0+1: cells under the cut are
  sheared into parallelograms  X(a,y0) Z(a+1,y0) Z(a+1,y0+1) X(a+2,y0+1);
  the two ends close with mirror-image pentagons carrying Y at the
  trivalent vertex.
* Doubled-semion patch on a region of sites: each star and its NE
  plaquette are replaced by a fish and a squared plaquette (``power=2``),
  and every boson hop with both end sites in the region joins them.  On
  the 2x2 disk the product of the four hops is identically
  A(center)^2 * B(SW)^2, so the logical dimension stays 16; a ring of
  sites takes it to 8, and on the whole torus the patch terms are the
  doubled-semion model's own words (dimension 4).  The inverse surgery
  restores bare Z_4 stars and plaquettes on a region of the doubled
  semion and drops every hop with an end site in it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace

from . import engine
from .errors import DefectError, GeometryError, UnsupportedModelError
from .lattice import Generator, StabilizerModel, term_generators
from .pauli import commutation_exponent, pauli_mul

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

    def summary(self) -> str:
        kinds = Counter(g.kind for g in self.added)
        added = " ".join(f"{k}:{v}" for k, v in sorted(kinds.items()))
        return (f"removed {len(self.removed)} added {len(self.added)} ({added}) "
                f"dimension {self.dim_before} -> {self.dim_after}")


def _resolve(model: StabilizerModel, keys) -> dict:
    """The positions in ``model.generators`` of the (term, anchor, layer)
    ``keys`` as an ordered set, in key order; DefectError lists the sorted
    keys that name no generator."""
    per_layer = model.geometry.sites_per_layer
    at = {(g.term, g.anchor, g.op.terms[0][0] // per_layer): j
          for j, g in enumerate(model.generators) if g.term is not None}
    missing = sorted({k for k in keys if k not in at})
    if missing:
        raise DefectError(f"cannot remove unknown generators {missing}")
    return dict.fromkeys(at[k] for k in keys)


def _surgery(model: StabilizerModel, kind: str, removed, added):
    """Swap the generators of the (term, anchor, layer) keys ``removed`` for
    ``added``, record the ``kind`` defect and report the removed gids and
    the logical dimension before and after.  The new model carries no
    trivial-constraint certificates; it keeps the parent logicals that
    commute with every added generator, as the kept ones commute with all.

    Each surgery removes every generator of the sites or cells it touches,
    so a defect that overlaps an earlier one asks for a key already gone:
    that is the one conflict rule.
    """
    gone = _resolve(model, removed)
    gens = tuple(g for j, g in enumerate(model.generators) if j not in gone) + tuple(added)
    logicals = tuple((name, op) for name, op in model.logicals
                     if not any(commutation_exponent(g.op, op) for g in added))
    new = replace(model, generators=gens, constraints=(),
                  defects=model.defects + (kind,), logicals=logicals)
    return new, DefectReport(tuple(model.generators[j].gid for j in gone), tuple(added),
                             engine.logical_dimension(model), engine.logical_dimension(new))


def _inside_hops(geo, sites):
    """The anchors of the h hops, from (x, y) to (x+1, y), and of the v
    hops, from (x, y) to (x, y+1), whose two end sites both lie in
    ``sites``: two lists, each in the order of ``sites``."""
    inside = set(sites)
    return ([(x, y) for x, y in sites if geo.wrap(x + 1, y) in inside],
            [(x, y) for x, y in sites if geo.wrap(x, y + 1) in inside])


def _fish_merge(model: StabilizerModel, kind: str, sites):
    """Merge the star A and north-east plaquette B at each of ``sites`` into
    a fish F = A*B and link merged east neighbours by a short string; the
    sites lie along one row or are pairwise apart, so every inside hop is an
    h hop."""
    geo, N = model.geometry, model.modulus
    removed = [(t, s, 0) for t in ("star", "plaquette") for s in sites]
    added = (term_generators(geo, N, [("F(", "fish", "fish")], sites)
             + term_generators(geo, N, [("S(", "short-string", "hop-h")],
                               _inside_hops(geo, sites)[0]))
    return _surgery(model, kind, removed, added)


# ----------------------------------------------------------------------
# Kitaev-lattice (edge placement) twist lines and Ising insertions
# ----------------------------------------------------------------------

def _twist_line(model: StabilizerModel, kind: str, x0: int, y0: int, length: int,
                contractible: bool):
    """Fish-merge ``length`` sites east from (x0, y0), or the whole row y0
    for a non-contractible line."""
    if model.family != "toric" or model.geometry.placement != "edges":
        raise UnsupportedModelError("kitaev twist needs an edge-placement toric code")
    geo = model.geometry
    if not contractible:
        return _fish_merge(model, kind, [(x, y0 % geo.rows) for x in range(geo.cols)])
    if length < 2 or length >= geo.cols:
        raise DefectError("contractible twist line needs 2 <= length < cols")
    return _fish_merge(model, kind, [((x0 + j) % geo.cols, y0 % geo.rows) for j in range(length)])


def apply_kitaev_twist(model: StabilizerModel, x0: int = 0, y0: int = 0,
                       length: int = 3, contractible: bool = True):
    """Insert a charge-flux exchanging twist line into a Z_N toric code.

    Contractible lines keep the logical dimension at N^2; a non-contractible
    line (a full row of merged sites) reduces it to N.
    """
    return _twist_line(model, "kitaev-twist", x0, y0, length, contractible)


def apply_dislocation(model: StabilizerModel, variant: str, x0: int = 0, y0: int = 0):
    """The two dislocation figures on the Z_2 toric code.

    Variant "i": an open line (three fish, two shorts) replacing three stars
    and three plaquettes; dimension 4 is preserved and the two trivial
    constraints merge into one.  Variant "ii": the periodic version;
    dimension drops to 2.
    """
    if model.modulus != 2:
        raise UnsupportedModelError("dislocations are defined on the Z_2 toric code")
    if variant not in ("i", "ii"):
        raise DefectError(f"unknown dislocation variant {variant!r}")
    return _twist_line(model, f"krishna-dislocation-{variant}", x0, y0, 3, variant == "i")


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
        sites = [((2 * j) % geo.cols, 2 * ((2 * j) // geo.cols)) for j in range(k)]
    if len(sites) != k:
        raise DefectError(f"k={k} twists need {k} sites, got {len(sites)}")
    sites = [geo.wrap(x, y) for x, y in sites]
    if len(set(sites)) != k:
        raise DefectError("twist sites must be distinct")
    for (x1, y1), (x2, y2) in itertools.combinations(sites, 2):
        dx = min((x1 - x2) % geo.cols, (x2 - x1) % geo.cols)
        dy = min((y1 - y2) % geo.rows, (y2 - y1) % geo.rows)
        if max(dx, dy) < 2:
            raise DefectError("twist sites must be pairwise separated")
    if k == 0:
        dim = engine.logical_dimension(model)
        return model, DefectReport((), (), dim, dim)
    return _fish_merge(model, "ising-twists", sites)


# ----------------------------------------------------------------------
# Bombin-lattice (vertex placement) twist lines
# ----------------------------------------------------------------------

_PARALLELOGRAM = ("Par(", "parallelogram", "parallelogram")


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
    if contractible:
        if multiplicity != 1:
            raise DefectError("multiplicity applies to non-contractible twists")
        if width < 2 or width + 3 >= geo.cols:
            raise DefectError("contractible twist needs 2 <= width <= cols-4")
        # the cells from x0 - 1 to x0 + width + 1
        cells = [((x0 - 1 + j) % geo.cols, y0) for j in range(width + 3)]
        added = (term_generators(geo, 2, [("PentL(", "pentagon", "pentagon-l", 1, 1)], cells[1:2])
                 + term_generators(geo, 2, [_PARALLELOGRAM], cells[1:width + 1])
                 + term_generators(geo, 2, [("PentR(", "pentagon", "pentagon-r", 1, 1)],
                                   cells[-1:]))
    else:
        if multiplicity < 1 or 2 * multiplicity > geo.rows:
            raise DefectError("too many parallel twist lines for this lattice")
        cells = [(a, (y0 + 2 * line) % geo.rows) for line in range(multiplicity)
                 for a in range(geo.cols)]
        added = term_generators(geo, 2, [_PARALLELOGRAM], cells)
    return _surgery(model, "bombin-twist", [("cell", at, 0) for at in cells], added)


# ----------------------------------------------------------------------
# Doubled-semion patch inside the Z_4 toric code, and its inverse
# ----------------------------------------------------------------------

def _patch_sites(geo, x, y):
    return [geo.wrap(x, y), geo.wrap(x + 1, y), geo.wrap(x, y + 1), geo.wrap(x + 1, y + 1)]


def _ds_patch(model: StabilizerModel, sites):
    """Condense the order-two boson on ``sites`` of a Z_4 toric code."""
    geo = model.geometry
    h, v = _inside_hops(geo, sites)
    removed = [(t, s, 0) for t in ("star", "plaquette") for s in sites]
    added = (term_generators(geo, 4, [("Fds(", "defect-fish", "fish")], sites)
             + term_generators(geo, 4, [("Bds(", "defect-plaquette", "plaquette", 2)], sites)
             + term_generators(geo, 4, [("Cds(h,", "defect-short", "hop-h", 2)], h)
             + term_generators(geo, 4, [("Cds(v,", "defect-short", "hop-v", 2)], v))
    return _surgery(model, "ds-patch", removed, added)


def apply_ds_patch(model: StabilizerModel, x: int = 1, y: int = 1,
                   contractible: bool = True):
    """Condense the order-two boson on a patch of the Z_4 toric code.

    The contractible patch is the 2x2 disk of sites from (x, y); the logical
    dimension stays 16.  The non-contractible patch is the ring of sites in
    row y; it takes the dimension to 8.  The published values differ (see
    the README paragraph on the red acceptance criterion).
    """
    if model.family != "toric" or model.modulus != 4:
        raise UnsupportedModelError("the patch needs a Z_4 toric code")
    geo = model.geometry
    x, y = geo.wrap(x, y)
    if not contractible:
        return _ds_patch(model, [(a, y) for a in range(geo.cols)])
    if geo.cols < 4 or geo.rows < 4:
        raise GeometryError("contractible patch needs at least a 4x4 lattice")
    return _ds_patch(model, _patch_sites(geo, x, y))


def _z4_patch(model: StabilizerModel, sites):
    """Restore bare Z_4 toric-code stabilizers on ``sites`` of a
    doubled-semion model, dropping the four hops at each site."""
    geo = model.geometry
    # the four hops at a site: h at (a,b) and (a-1,b), v at (a,b) and (a,b-1)
    hops = dict.fromkeys((t, geo.wrap(a - dx, b - dy), 0) for a, b in sites for t, dx, dy in (
        ("hop-h", 0, 0), ("hop-h", 1, 0), ("hop-v", 0, 0), ("hop-v", 0, 1)))
    removed = [(t, s, 0) for t in ("fish", "plaquette") for s in sites] + list(hops)
    added = term_generators(geo, 4, [("TCA(", "vertex", "star"),
                                     ("TCB(", "plaquette", "plaquette")], sites)
    return _surgery(model, "z4-patch-in-ds", removed, added)


def apply_z4_patch_in_ds(model: StabilizerModel, x: int = 1, y: int = 1):
    """Restore bare Z_4 toric-code stabilizers on the 2x2 disk of sites
    from (x, y) in the DS model.

    Inverse surgery of the DS patch; the logical dimension stays 4.  The
    published value differs (see the README paragraph on the red acceptance
    criterion).
    """
    if model.family != "doubled-semion":
        raise UnsupportedModelError("z4 patch needs a doubled-semion model")
    geo = model.geometry
    if geo.cols < 4 or geo.rows < 4:
        raise GeometryError("z4 patch needs at least a 4x4 lattice")
    return _z4_patch(model, _patch_sites(geo, x, y))


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
    # a second coupling would add a second F1 and F2
    if model.family != "bilayer" or model.defects:
        raise UnsupportedModelError("bilayer coupling needs a bilayer model without defects")
    if wormhole not in ("i", "ii"):
        raise DefectError(f"unknown wormhole variant {wormhole!r}")
    m1, m2 = (model.geometry.wrap(x, y) for x, y in mouths)
    if m1 == m2:
        raise DefectError("wormhole mouths must be distinct")

    # layer 0 holds T1, layer 1 T2
    if wormhole == "i":
        removed = [("plaquette", m1, 0), ("star", m1, 1), ("plaquette", m2, 1), ("star", m2, 0)]
    else:
        removed = [("star", m1, 0), ("plaquette", m1, 1), ("star", m2, 0), ("plaquette", m2, 1)]
    a, b, c, d = (model.generators[j].op for j in _resolve(model, removed))
    f1, f2 = pauli_mul(a, b), pauli_mul(c, d)
    added = [Generator("F1", "bilayer-fish", f1, 2), Generator("F2", "bilayer-fish", f2, 2)]
    return _surgery(model, f"bilayer-wormhole-{wormhole}", removed, added)
