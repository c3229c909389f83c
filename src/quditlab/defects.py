"""Generator-set surgeries: twists, dislocations, patches, bilayer wormholes.

Every surgery is a (remove-set, add-set) rewrite of the generator list;
geometry is never mutated.  Reports always recompute the logical dimension
from scratch via the engine's sparse gcd elimination; nothing is trusted
from the construction arithmetic.

Every surgery ends in ``_surgery``, which rewrites the generators, keeps the
parent logicals that commute with the added ones and reports the dimension
before and after; it refuses to remove a generator that is already gone,
which is how an overlapping defect is caught.

Frozen operator content (pinned by commutation closure, stated orders,
the dimension results in tests/test_defects.py and the golden build
reports).  Stars, plaquettes, fish, hops and the sheared vertex cells are
rows of the offset table ``lattice.TERMS``, built by ``lattice.term_words``:

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
from .lattice import Generator, StabilizerModel, term_words
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


def _surgery(model: StabilizerModel, kind: str, removed, added):
    """Swap ``removed`` for ``added``, record the ``kind`` defect and report
    the logical dimension before and after.  The new model carries no
    trivial-constraint certificates.

    Each surgery removes the generators of every site or cell it touches,
    so a defect that overlaps an earlier one removes a generator that is
    already gone: that is the one conflict rule.  The kept generators
    commuted with every parent logical, so a logical stays if it commutes
    with every added generator.
    """
    gone = set(removed)
    missing = gone - {g.gid for g in model.generators}
    if missing:
        raise DefectError(f"cannot remove unknown generators {sorted(missing)}")
    gens = tuple(g for g in model.generators if g.gid not in gone) + tuple(added)
    logicals = tuple((name, op) for name, op in model.logicals
                     if not any(commutation_exponent(g.op, op) for g in added))
    new = replace(model, generators=gens, constraints=(),
                  defects=model.defects + (kind,), logicals=logicals)
    return new, DefectReport(tuple(removed), tuple(added), engine.logical_dimension(model),
                             engine.logical_dimension(new))


def _inside_hops(geo, sites):
    """The hops (o, x, y) whose two end sites both lie in ``sites``: every
    h hop, from (x, y) to (x+1, y), then every v hop, from (x, y) to
    (x, y+1), each in the order of ``sites``."""
    inside = set(sites)
    return [(o, x, y) for o, dx, dy in (("h", 1, 0), ("v", 0, 1))
            for x, y in sites if geo.wrap(x + dx, y + dy) in inside]


def _fish_merge(model: StabilizerModel, kind: str, sites):
    """Merge the star A and north-east plaquette B at each of ``sites`` into
    a fish F = A*B and link merged east neighbours by a short string; the
    sites lie along one row or are pairwise apart, so every inside hop is an
    h hop."""
    geo, N = model.geometry, model.modulus
    removed = [f"{t}({x},{y})" for t in "AB" for x, y in sites]
    added = [Generator(f"F({x},{y})", "fish", op, N)
             for (x, y), op in zip(sites, term_words(geo, N, "fish", sites))]
    added += [Generator(f"S({x},{y})", "short-string",
                        term_words(geo, N, f"hop-{o}", [(x, y)])[0], N)
              for o, x, y in _inside_hops(geo, sites)]
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
    sites = [((x0 + j) % geo.cols, y0 % geo.rows) for j in range(length)]
    return _fish_merge(model, kind, sites)


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

def _cells(geo, name, kind, term, anchors, phase=0):
    """The ``lattice.TERMS[term]`` cell at each (a, y) of ``anchors``."""
    return [Generator(f"{name}({a},{y})", kind, op, 2)
            for (a, y), op in zip(anchors, term_words(geo, 2, term, anchors, phase=phase))]


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
    if contractible:
        if multiplicity != 1:
            raise DefectError("multiplicity applies to non-contractible twists")
        if width < 2 or width + 3 >= geo.cols:
            raise DefectError("contractible twist needs 2 <= width <= cols-4")
        y = y0
        removed = [f"P({(x0 - 1 + j) % geo.cols},{y})" for j in range(width + 3)]
        added = _cells(geo, "PentL", "pentagon", "pentagon-l", [(x0, y)], 1)
        added += _cells(geo, "Par", "parallelogram", "parallelogram",
                        [((x0 + j) % geo.cols, y) for j in range(width)])
        added += _cells(geo, "PentR", "pentagon", "pentagon-r",
                        [((x0 + width + 1) % geo.cols, y)], 1)
    else:
        if multiplicity < 1 or 2 * multiplicity > geo.rows:
            raise DefectError("too many parallel twist lines for this lattice")
        for line in range(multiplicity):
            y = (y0 + 2 * line) % geo.rows
            removed += [f"P({a},{y})" for a in range(geo.cols)]
            added += _cells(geo, "Par", "parallelogram", "parallelogram",
                            [(a, y) for a in range(geo.cols)])
    return _surgery(model, "bombin-twist", removed, added)


# ----------------------------------------------------------------------
# Doubled-semion patch inside the Z_4 toric code, and its inverse
# ----------------------------------------------------------------------

def _patch_sites(geo, x, y):
    return [geo.wrap(x, y), geo.wrap(x + 1, y), geo.wrap(x, y + 1), geo.wrap(x + 1, y + 1)]


def _ds_patch(model: StabilizerModel, sites):
    """Condense the order-two boson on ``sites`` of a Z_4 toric code."""
    geo, N = model.geometry, 4
    removed = [f"{t}({a},{b})" for t in "AB" for a, b in sites]
    added = [Generator(f"Fds({a},{b})", "defect-fish", op, 4)
             for (a, b), op in zip(sites, term_words(geo, N, "fish", sites))]
    added += [Generator(f"Bds({a},{b})", "defect-plaquette", op, 2)
              for (a, b), op in zip(sites, term_words(geo, N, "plaquette", sites, power=2))]
    added += [Generator(f"Cds({o},{a},{b})", "defect-short",
                        term_words(geo, N, f"hop-{o}", [(a, b)], power=2)[0], 2)
              for o, a, b in _inside_hops(geo, sites)]
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
    # the four hops at a site: C(h) at (a,b) and (a-1,b), C(v) at (a,b) and (a,b-1)
    hops = dict.fromkeys(f"C({o},{u},{v})" for a, b in sites for o, (u, v) in (
        ("h", (a, b)), ("h", geo.wrap(a - 1, b)), ("v", (a, b)), ("v", geo.wrap(a, b - 1))))
    removed = [f"{t}({a},{b})" for t in "AB" for a, b in sites] + list(hops)
    added = []
    for (a, b), tca, tcb in zip(sites, term_words(geo, 4, "star", sites),
                                term_words(geo, 4, "plaquette", sites)):
        added.append(Generator(f"TCA({a},{b})", "vertex", tca, 4))
        added.append(Generator(f"TCB({a},{b})", "plaquette", tcb, 4))
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
    return _surgery(model, f"bilayer-wormhole-{wormhole}", removed, added)
