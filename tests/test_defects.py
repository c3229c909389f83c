"""Defect surgeries: dimensions, counts, chaining, syndrome transport."""

import hashlib
import itertools
import pathlib
from collections import Counter

import pytest

from pauli_reference import order, symplectic_order, x_exp, z_exp
from quditlab import engine
from quditlab.cli import build_model, parse_config
from quditlab.defects import (_ds_patch, _z4_patch, apply_bombin_twist, apply_dislocation,
                              apply_ds_patch, apply_kitaev_twist,
                              apply_multiple_ising_twists,
                              apply_z4_patch_in_ds, couple_bilayer)
from quditlab.dsemion import build_doubled_semion, ds_generators
from quditlab.errors import DefectError, GeometryError, UnsupportedModelError
from quditlab.lattice import (bombin_to_kitaev, build_bilayer_toric, build_bombin_lattice,
                              build_toric_code, evaluate_constraint, string_operator)
from quditlab.pauli import commutation_exponent, from_terms, pauli_mul, single_site, to_text


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _assert_commuting(model):
    ops = [g.op for g in model.generators]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert commutation_exponent(ops[i], ops[j]) == 0


def _kind_counts(report):
    out = {}
    for g in report.added:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


# ----------------------------------------------------------------------
# dislocations and Kitaev-lattice twists
# ----------------------------------------------------------------------

def test_dislocation_i():
    tc = build_toric_code(6, 6, 2)
    m, rep = apply_dislocation(tc, "i", 1, 1)
    assert len(rep.removed) == 6  # three stars, three plaquettes
    assert _kind_counts(rep) == {"fish": 3, "short-string": 2}
    assert (rep.dim_before, rep.dim_after) == (4, 4)
    assert m.constraints == ()  # a surgery drops the parent's certificates
    _assert_commuting(m)


def test_dislocation_ii():
    tc = build_toric_code(6, 6, 2)
    m, rep = apply_dislocation(tc, "ii", 0, 2)
    assert len(rep.removed) == len(rep.added) == 12
    assert (rep.dim_before, rep.dim_after) == (4, 2)


def test_dislocation_needs_z2():
    with pytest.raises(UnsupportedModelError):
        apply_dislocation(build_toric_code(4, 4, 4), "i")
    with pytest.raises(DefectError):
        apply_dislocation(build_toric_code(6, 6, 2), "iii")


def test_kitaev_twist_dimensions_z_n():
    for N in (2, 3, 4):
        tc = build_toric_code(4, 4, N)
        m, rep = apply_kitaev_twist(tc, 0, 1, length=2, contractible=True)
        assert (rep.dim_before, rep.dim_after) == (N * N, N * N)
        _assert_commuting(m)
        m, rep = apply_kitaev_twist(tc, 0, 1, contractible=False)
        assert rep.dim_after == N
        _assert_commuting(m)


def test_kitaev_twist_matches_bombin_dimensions():
    # conjugation equivalence at the level of logical dimensions
    bomb = build_bombin_lattice(6, 8)
    tc = build_toric_code(6, 8, 2)
    _, rb = apply_bombin_twist(bomb, x0=2, y0=1, width=2)
    _, rk = apply_kitaev_twist(tc, 2, 1, length=3)
    assert rb.dim_after == rk.dim_after == 4
    _, rb = apply_bombin_twist(bomb, y0=1, contractible=False)
    _, rk = apply_kitaev_twist(tc, 0, 1, contractible=False)
    assert rb.dim_after == rk.dim_after == 2


def test_twist_region_overlap_rejected():
    # the second line's first site (2, 1) is the first line's last one, so it
    # would remove that site's star and plaquette a second time
    tc = build_toric_code(6, 6, 2)
    m, _ = apply_kitaev_twist(tc, 0, 1, length=3)
    with pytest.raises(DefectError, match=r"cannot remove unknown generators \['A\(2,1\)', "
                                          r"'B\(2,1\)'\]"):
        apply_kitaev_twist(m, 2, 1, length=3)


@pytest.mark.parametrize("name", ["twist_ii", "ds_patch_ring"])
def test_surgery_drops_the_logicals_its_new_generators_detect(name):
    # a ring of fish or patch terms along row y anticommutes with the loops
    # Z1 and X2 that cross the row, so only X1 and Z2 stay logicals
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    parent = build_toric_code(cfg.rows, cfg.cols, cfg.modulus)
    m, _ = build_model(cfg)
    assert [n for n, _ in parent.logicals] == ["X1", "Z1", "X2", "Z2"]
    assert [n for n, _ in m.logicals] == ["X1", "Z2"]
    for _, op in m.logicals:
        assert not any(commutation_exponent(g.op, op) for g in m.generators)


def test_multiple_ising_twists():
    tc = build_toric_code(6, 6, 2)
    dims = {}
    for k in (0, 1, 2, 3):
        _, rep = apply_multiple_ising_twists(tc, k)
        dims[k] = rep.dim_after
    assert dims[0] == 4          # identity transformation
    assert dims[1] == 4          # constraint merge only
    assert dims[2] == 2 * dims[0]  # dimension doubles
    assert dims[3] == 16
    with pytest.raises(DefectError):
        apply_multiple_ising_twists(tc, 2, sites=[(0, 0), (1, 0)])
    with pytest.raises(DefectError, match="k=-1"):
        apply_multiple_ising_twists(tc, -1)


# ----------------------------------------------------------------------
# Bombin-lattice twists
# ----------------------------------------------------------------------

def test_bombin_twist_contractible_minimal():
    b = build_bombin_lattice(6, 8)
    m, rep = apply_bombin_twist(b, x0=2, y0=1, width=2)
    assert len(rep.removed) == 5
    assert _kind_counts(rep) == {"pentagon": 2, "parallelogram": 2}
    assert (rep.dim_before, rep.dim_after) == (4, 4)
    assert m.constraints == ()
    _assert_commuting(m)
    # pentagons carry one Y (a site with both X and Z content)
    for g in rep.added:
        ys = sum(1 for x, z in zip(x_exp(g.op), z_exp(g.op)) if x and z)
        assert ys == (1 if g.kind == "pentagon" else 0)
        assert g.op.weight() == (5 if g.kind == "pentagon" else 4)
        assert order(g.op) == 2


def test_bombin_twist_wider_cut():
    b = build_bombin_lattice(6, 8)
    m, rep = apply_bombin_twist(b, x0=2, y0=1, width=3)
    assert len(rep.removed) == 6 and len(rep.added) == 5
    assert rep.dim_after == 4
    _assert_commuting(m)


def test_bombin_twist_noncontractible_parities():
    b = build_bombin_lattice(8, 8)
    dims = {}
    for mult in (1, 2, 3):
        m, rep = apply_bombin_twist(b, y0=1, contractible=False, multiplicity=mult)
        dims[mult] = rep.dim_after
        _assert_commuting(m)
    assert dims[1] == 2   # one non-contractible twist halves the dimension
    assert dims[2] == 4   # two full twists cancel out
    assert dims[3] == 2   # odd counts drop to two again


def test_bombin_twist_validation():
    b = build_bombin_lattice(6, 6)
    with pytest.raises(UnsupportedModelError):
        apply_bombin_twist(build_toric_code(4, 4, 2))
    with pytest.raises(DefectError):
        apply_bombin_twist(b, width=1)
    with pytest.raises(DefectError):
        apply_bombin_twist(b, width=4)  # needs cols-4 >= width
    with pytest.raises(DefectError):
        apply_bombin_twist(b, contractible=False, multiplicity=4)


# ----------------------------------------------------------------------
# doubled-semion patches
# ----------------------------------------------------------------------

def test_ds_patch_contractible():
    tc = build_toric_code(4, 4, 4)
    m, rep = apply_ds_patch(tc, 1, 1, contractible=True)
    assert len(rep.removed) == 8
    assert _kind_counts(rep) == {"defect-fish": 4, "defect-plaquette": 4,
                                 "defect-short": 4}
    orders = sorted(symplectic_order(g.op) for g in rep.added)
    assert orders == [2] * 8 + [4] * 4
    # the quartet relation keeps the contractible-patch dimension at 16
    assert (rep.dim_before, rep.dim_after) == (16, 16)
    _assert_commuting(m)


def test_ds_patch_ring():
    tc = build_toric_code(4, 4, 4)
    m, rep = apply_ds_patch(tc, y=1, contractible=False)
    assert rep.dim_after == 8  # one condensed-loop homology class absorbed
    _assert_commuting(m)


def test_ds_patch_needs_z4():
    with pytest.raises(UnsupportedModelError):
        apply_ds_patch(build_toric_code(4, 4, 2))
    with pytest.raises(GeometryError):
        apply_ds_patch(build_toric_code(3, 3, 4), 0, 0)


def test_ds_patch_quartet_identity():
    # product of the four hop terms = A(center)^2 B(SW)^2: the relation the
    # constraint-volume bookkeeping must include
    tc = build_toric_code(4, 4, 4)
    _, rep = apply_ds_patch(tc, 1, 1)
    hops = [g.op for g in rep.added if g.kind == "defect-short"]
    prod = hops[0]
    for h in hops[1:]:
        prod = pauli_mul(prod, h)
    from quditlab.pauli import pauli_pow
    rhs = pauli_mul(pauli_pow(tc.generator("A(2,2)").op, 2),
                    pauli_pow(tc.generator("B(1,1)").op, 2))
    assert x_exp(prod) == x_exp(rhs) and z_exp(prod) == z_exp(rhs)


def test_z4_patch_in_ds():
    ds = build_doubled_semion(4, 4)
    m, rep = apply_z4_patch_in_ds(ds, 1, 1)
    assert len(rep.removed) == 8 + 12  # fish+plaquettes plus incident hops
    assert (rep.dim_before, rep.dim_after) == (4, 4)
    _assert_commuting(m)
    with pytest.raises(UnsupportedModelError):
        apply_z4_patch_in_ds(build_toric_code(4, 4, 4))


def test_z4_patch_confined_vs_free_strings():
    ds, _ = apply_z4_patch_in_ds(build_doubled_semion(6, 6), 1, 1)
    geo = ds.geometry
    n = ds.n_sites
    # an e string strictly inside the patch: endpoint syndromes only
    inside = from_terms(4, n, [(geo.edge_index("h", 1, 1), 0, 1)])
    syn = engine.syndrome(ds, inside)
    assert set(syn.exponents) == {"TCA(1,1)", "TCA(2,1)"}
    # escaping strings light up hop terms along the way: linear energy growth
    e3 = from_terms(4, n, [(geo.edge_index("h", x, 1), 0, 1) for x in (1, 2, 3)])
    e4 = from_terms(4, n, [(geo.edge_index("h", x, 1), 0, 1) for x in (1, 2, 3, 4)])
    assert engine.excitation_energy(ds, e4) > engine.excitation_energy(ds, e3)


# ----------------------------------------------------------------------
# condensation surgeries on any region of sites
# ----------------------------------------------------------------------

L6 = [(x, y) for y in range(6) for x in range(6)]
DISK2 = [(x, y) for y in (1, 2) for x in (1, 2)]

# region on 6x6 -> (dimension after the DS patch in the Z_4 toric code,
# after the Z_4 patch in the doubled semion); None where not tabulated
REGION_DIMENSIONS = {
    "2x2 disk": (DISK2, 16, 4),
    "3x3 disk": ([(x, y) for y in (1, 2, 3) for x in (1, 2, 3)], 16, 4),
    "one-row ring": ([(x, 1) for x in range(6)], 8, 8),
    "two-row ring": ([(x, y) for y in (1, 2) for x in range(6)], 8, 8),
    "rings at y = 1 and y = 4": ([(x, y) for y in (1, 4) for x in range(6)], 16, 16),
    "one row plus one column": ([(x, y) for x, y in L6 if x == 1 or y == 1], 4, None),
    "torus minus a 2x2 disk": ([v for v in L6 if v not in DISK2], 4, 16),
    "whole torus": (L6, 4, 16),
    "single site": ([(1, 1)], None, 4),
}


@pytest.mark.parametrize("region", REGION_DIMENSIONS)
def test_patch_dimension_on_regions(region):
    """Logical dimensions of both condensation surgeries on a 6x6 region.

    Read categorically (Lan-Wang-Wen, arXiv:1408.6514), with W the
    tunnelling matrix of the gapped wall between the two phases:
    16 = the Z_4 toric anyons, where the doubled semion (DS) fills at most a disk;
    4 = the DS anyons, where the Z_4 phase is at most a disk;
    8 = Tr(W W^T), where one pair of parallel walls cuts the torus;
    16 = Tr((W W^T)^2), where two pairs do.
    """
    sites, ds_dim, z4_dim = REGION_DIMENSIONS[region]
    for parent, core, before, after in ((build_toric_code(6, 6, 4), _ds_patch, 16, ds_dim),
                                        (build_doubled_semion(6, 6), _z4_patch, 4, z4_dim)):
        if after is not None:
            _, rep = core(parent, sites)
            assert (rep.dim_before, rep.dim_after) == (before, after), core.__name__


def test_ds_patch_on_the_whole_torus_is_the_doubled_semion():
    # the same words as the doubled-semion builder, whose ids and order differ
    m, rep = _ds_patch(build_toric_code(6, 6, 4), L6)
    assert len(m.generators) == len(rep.added) == 144
    words = Counter(to_text(g.op) for g in m.generators)
    assert words == Counter(to_text(g.op) for g in ds_generators(m.geometry))


# ----------------------------------------------------------------------
# bilayer wormholes
# ----------------------------------------------------------------------

def test_bilayer_wormhole_i():
    m, rep = couple_bilayer(build_bilayer_toric(4, 4), "i")
    assert len(rep.removed) == 4 and len(rep.added) == 2
    assert (rep.dim_before, rep.dim_after) == (16, 16)
    assert m.constraints == ()
    _assert_commuting(m)


def test_bilayer_wormhole_ii():
    m, rep = couple_bilayer(build_bilayer_toric(4, 4), "ii")
    assert (rep.dim_before, rep.dim_after) == (16, 32)
    assert m.constraints == ()
    _assert_commuting(m)


def test_bilayer_validation():
    a = build_bilayer_toric(4, 4)
    with pytest.raises(UnsupportedModelError, match="bilayer model without defects"):
        couple_bilayer(build_toric_code(4, 4, 2), "i")
    with pytest.raises(UnsupportedModelError, match="bilayer model without defects"):
        couple_bilayer(couple_bilayer(a, "i")[0], "ii", ((1, 1), (3, 3)))
    with pytest.raises(DefectError):
        couple_bilayer(a, "iii")
    with pytest.raises(DefectError):
        couple_bilayer(a, "i", ((0, 0), (0, 0)))
    # mouths are taken mod the lattice
    with pytest.raises(DefectError, match="distinct"):
        couple_bilayer(a, "i", ((0, 0), (4, 0)))


def test_bilayer_builder_is_two_uncoupled_layers():
    m = build_bilayer_toric(4, 6)
    assert (m.family, m.n_sites, len(m.generators)) == ("bilayer", 96, 96)
    assert engine.logical_dimension(m) == 16
    _assert_commuting(m)


def test_wormhole_ii_transports_flux_to_charge():
    m, _ = couple_bilayer(build_bilayer_toric(4, 4), "ii", ((0, 0), (2, 2)))
    geo = m.geometry
    terms = [(geo.edge_index("h", 0, 1, 1), 1, 0),
             (geo.edge_index("h", 0, 2, 1), 1, 0)]      # flux leg in layer 2
    terms += [(geo.edge_index("h", 0, 0, 0), 0, 1),
              (geo.edge_index("h", 1, 0, 0), 0, 1)]     # charge leg in layer 1
    word = from_terms(2, m.n_sites, terms)
    syn = engine.syndrome(m, word)
    kinds = sorted(m.generator(g).kind for g in syn.exponents)
    assert kinds == ["plaquette-T2", "vertex-T1"]


# ----------------------------------------------------------------------
# syndrome transport across twist lines
# ----------------------------------------------------------------------

def test_em_condensed_on_twist_line():
    tc = build_toric_code(8, 8, 2)
    m, _ = apply_kitaev_twist(tc, 0, 2, length=3, contractible=True)
    geo = m.geometry
    n = m.n_sites

    def hop(x, y):
        return from_terms(2, n, [(geo.edge_index("h", x, y), 0, 1),
                                 (geo.edge_index("v", x + 1, y), 1, 0)])

    ending_on_line = pauli_mul(pauli_mul(hop(4, 2), hop(3, 2)), hop(2, 2))
    syn = engine.syndrome(m, ending_on_line)
    assert engine.excitation_energy(m, ending_on_line) == 2
    assert sorted(m.generator(g).kind for g in syn.exponents) == ["plaquette", "vertex"]
    free = pauli_mul(hop(4, 5), hop(3, 5))
    assert engine.excitation_energy(m, free) == 4


def test_twist_transport_swaps_and_restores_kinds():
    tc = build_toric_code(8, 8, 2)
    m1, _ = apply_kitaev_twist(tc, 0, 2, contractible=False)
    m2, _ = apply_kitaev_twist(m1, 0, 5, contractible=False)
    geo = m2.geometry
    n = m2.n_sites
    e_leg = string_operator(m2, "e", [(3, 0), (3, 1), (3, 2)])
    m_mid = string_operator(m2, "m", [(3, 2), (3, 3), (3, 4)])
    once = pauli_mul(e_leg, m_mid)
    syn1 = engine.syndrome(m2, once)
    assert sorted(m2.generator(g).kind for g in syn1.exponents) == ["plaquette", "vertex"]

    m_cross = string_operator(m2, "m", [(3, 4), (3, 5)])
    dress = single_site(2, n, geo.edge_index("h", 3, 5), z=1)
    e_up = string_operator(m2, "e", [(4, 5), (4, 6), (4, 7)])
    twice = pauli_mul(pauli_mul(pauli_mul(once, m_cross), dress), e_up)
    syn2 = engine.syndrome(m2, twice)
    assert sorted(m2.generator(g).kind for g in syn2.exponents) == ["vertex", "vertex"]


def test_bombin_shear_transport_swaps_colors():
    b = build_bombin_lattice(8, 8)
    m, _ = apply_bombin_twist(b, y0=3, contractible=False)
    geo = m.geometry
    n = m.n_sites
    below = single_site(2, n, geo.vertex_index(2, 3), z=1)
    crossed = pauli_mul(below, single_site(2, n, geo.vertex_index(4, 4), z=1))
    syn = engine.syndrome(m, crossed)
    cells = sorted(m.generator(g).kind for g in syn.exponents)
    assert cells == ["cell-dark", "cell-light"]  # the pair changed color class

    m2, _ = apply_bombin_twist(b, y0=3, contractible=False, multiplicity=2)
    word = crossed
    word = pauli_mul(word, single_site(2, n, geo.vertex_index(5, 5), z=1))
    word = pauli_mul(word, single_site(2, n, geo.vertex_index(7, 6), z=1))
    syn2 = engine.syndrome(m2, word)
    cells2 = sorted(m2.generator(g).kind for g in syn2.exponents)
    assert cells2 == ["cell-light", "cell-light"]  # restored after two crossings


def test_ising_site_count_is_checked_before_distinctness():
    with pytest.raises(DefectError, match=r"^k=3 twists need 3 sites, got 2$"):
        apply_multiple_ising_twists(build_toric_code(6, 6, 2), 3, sites=[(0, 0), (2, 2)])


# ----------------------------------------------------------------------
# every surgery on a grid, pinned by one digest
# ----------------------------------------------------------------------

def _surgery_grid():
    """(parent builder, surgery, kwargs) for every surgery kind on 4x4 to
    8x8 lattices: anchors inside and past the lattice edge, contractible and
    ring forms, Z_2, Z_3 and Z_4 where the kind allows."""
    for L in (4, 6, 8):
        far = (L - 1, L + 2)  # wraps to (L - 1, 2)
        for N in (2, 3, 4):
            tc = (build_toric_code, (L, L, N))
            for x, y in ((1, 1), far):
                yield tc, apply_kitaev_twist, dict(x0=x, y0=y, length=min(3, L - 1))
            yield tc, apply_kitaev_twist, dict(x0=0, y0=L + 1, contractible=False)
        z2 = (build_toric_code, (L, L, 2))
        for (x, y), variant in itertools.product(((1, 1), far), ("i", "ii")):
            yield z2, apply_dislocation, dict(variant=variant, x0=x, y0=y)
        for k in range(4):
            yield z2, apply_multiple_ising_twists, dict(k=k)
        yield z2, apply_multiple_ising_twists, dict(k=2, sites=[(L, 1), (L + 2, L + 3)])
        z4 = (build_toric_code, (L, L, 4))
        for x, y in ((1, 1), far):
            yield z4, apply_ds_patch, dict(x=x, y=y)
            yield (build_doubled_semion, (L, L)), apply_z4_patch_in_ds, dict(x=x, y=y)
        yield z4, apply_ds_patch, dict(y=L + 1, contractible=False)
        bomb = (build_bombin_lattice, (L, L))
        for width in range(2, L - 3):
            for x, y in ((1, 1), far):
                yield bomb, apply_bombin_twist, dict(x0=x, y0=y, width=width)
        for mult in range(1, L // 2 + 1):
            yield bomb, apply_bombin_twist, dict(y0=L - 1, contractible=False,
                                                 multiplicity=mult)
        for variant in ("i", "ii"):
            for mouths in (((0, 0), (2, 2)), ((L - 1, 0), (L + 1, L + 3))):
                yield (build_bilayer_toric, (L, L)), couple_bilayer, dict(
                    wormhole=variant, mouths=mouths)


# one SHA-256 over each grid surgery's new generators (id, kind, order,
# word), report summary, removed ids and defect kinds
SURGERY_DIGEST_SHA256 = "8b783f76ff7e6908db23b7c2b7a78c434cab67c5843c4499d37ae456d95017a7"


def test_surgery_digest():
    digest = hashlib.sha256()
    parents = {}
    for (build, args), surgery, kwargs in _surgery_grid():
        parent = parents.setdefault((build, args), build(*args))
        m, rep = surgery(parent, **kwargs)
        digest.update(f"{build.__name__}{args} {surgery.__name__} {sorted(kwargs.items())}\n"
                      f"{rep.summary()}\n{sorted(rep.removed)}\n{m.defects}\n".encode())
        for g in m.generators:
            digest.update(f"{g.gid} {g.kind} {g.order} {to_text(g.op)}\n".encode())
    assert digest.hexdigest() == SURGERY_DIGEST_SHA256


# ----------------------------------------------------------------------
# chained surgeries
# ----------------------------------------------------------------------

# parent -> {name: surgery of (model, slot)}; slot 0 and slot 1 anchor the
# two surgeries of a chain on disjoint regions
CHAINABLE = {
    "toric-z2": (lambda: build_toric_code(6, 6, 2), {
        "kitaev-twist": lambda m, s: apply_kitaev_twist(m, 1, 1 + 3 * s, 3),
        "kitaev-ring": lambda m, s: apply_kitaev_twist(m, 0, 1 + 3 * s, contractible=False),
        "dislocation-i": lambda m, s: apply_dislocation(m, "i", 1, 1 + 3 * s),
        "dislocation-ii": lambda m, s: apply_dislocation(m, "ii", 0, 1 + 3 * s),
        "ising-twists": lambda m, s: apply_multiple_ising_twists(
            m, 2, [(0, 3 * s), (3, 3 * s)]),
    }),
    "toric-z3": (lambda: build_toric_code(6, 6, 3), {
        "kitaev-twist": lambda m, s: apply_kitaev_twist(m, 1, 1 + 3 * s, 3),
        "kitaev-ring": lambda m, s: apply_kitaev_twist(m, 0, 1 + 3 * s, contractible=False),
    }),
    "toric-z4": (lambda: build_toric_code(6, 6, 4), {
        "kitaev-twist": lambda m, s: apply_kitaev_twist(m, 1, 1 + 3 * s, 3),
        "kitaev-ring": lambda m, s: apply_kitaev_twist(m, 0, 1 + 3 * s, contractible=False),
        "ds-patch": lambda m, s: apply_ds_patch(m, 1 + 3 * s, 1 + 3 * s),
        "ds-ring": lambda m, s: apply_ds_patch(m, y=1 + 3 * s, contractible=False),
    }),
    "doubled-semion": (lambda: build_doubled_semion(8, 8), {
        "z4-patch-in-ds": lambda m, s: apply_z4_patch_in_ds(m, 1 + 4 * s, 1 + 4 * s),
    }),
    "bombin": (lambda: build_bombin_lattice(8, 8), {
        "bombin-twist": lambda m, s: apply_bombin_twist(m, 2, 1 + 4 * s),
        "bombin-ring": lambda m, s: apply_bombin_twist(m, y0=1 + 4 * s, contractible=False),
    }),
}


def test_single_surgery_leaves_parent_and_its_certificates_intact():
    # a surgery builds a new model: the parent keeps its generators and its
    # certificates still multiply to the identity; the child carries none
    cases = [(build, surgery) for build, surgeries in CHAINABLE.values()
             for surgery in surgeries.values()]
    cases += [(lambda: build_bilayer_toric(6, 6), lambda m, s, v=v: couple_bilayer(m, v))
              for v in ("i", "ii")]
    for build, surgery in cases:
        parent = build()
        before = [(g.gid, to_text(g.op)) for g in parent.generators]
        m, _ = surgery(parent, 0)
        assert len(m.defects) == 1
        assert m.constraints == ()
        engine.logical_dimension(m)
        assert [(g.gid, to_text(g.op)) for g in parent.generators] == before
        assert parent.defects == ()
        for cert in parent.constraints:
            assert evaluate_constraint(parent, cert).is_identity(up_to_phase=True), cert


def test_every_order_is_the_symplectic_order_of_its_word():
    # a row reads its order off its first word; the reference takes the lcm
    # of the per-exponent orders of every word on its own
    models = [build_model(parse_config(p.read_text()))[0] for p in sorted(CONFIGS.glob("*.cfg"))]
    models += [surgery(build(), 0)[0] for build, surgeries in CHAINABLE.values()
               for surgery in surgeries.values()]
    models += [couple_bilayer(build_bilayer_toric(6, 6), v)[0] for v in ("i", "ii")]
    models += [build_toric_code(4, 4, N) for N in range(2, 9)]
    bombin = build_bombin_lattice(4, 4)
    models += [build_doubled_semion(4, 4), bombin, bombin_to_kitaev(bombin),
               build_bilayer_toric(4, 4)]
    for m in models:
        for g in m.generators:
            assert g.order == symplectic_order(g.op), (m.family, m.defects, g.gid)


@pytest.mark.parametrize("family, first, second", [
    (family, a, b) for family, (_, surgeries) in CHAINABLE.items()
    for a, b in itertools.product(surgeries, repeat=2)])
def test_surgeries_on_disjoint_regions_chain(family, first, second):
    # the second surgery applies to the first one's model; the logical
    # dimension runs the commutation check on the combined generators
    build, surgeries = CHAINABLE[family]
    m, _ = surgeries[first](build(), 0)
    m, _ = surgeries[second](m, 1)
    assert len(m.defects) == 2
    engine.logical_dimension(m)
    assert m.constraints == ()
