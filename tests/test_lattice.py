"""Lattice geometry, toric/Bombin builders, the Hadamard translation, strings."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_reference as lref
import string_reference as ref
from pauli_reference import symplectic_order, x_exp, z_exp
from quditlab import defects, engine
from quditlab.dsemion import build_doubled_semion
from quditlab.errors import GeometryError, PathError, UnsupportedModelError
from quditlab.lattice import (LatticeGeometry, bombin_to_kitaev, build_bilayer_toric,
                              build_bombin_lattice, build_toric_code,
                              evaluate_constraint, string_operator, term_words)
from quditlab.pauli import (commutation_exponent, from_terms, identity, pauli_mul, pauli_pow,
                            pauli_prod, single_site, to_text)


def test_geometry_counts():
    geo = LatticeGeometry(3, 4, "edges")
    assert geo.n_sites == 24  # 2 * H * V
    assert len({geo.edge_index(o, x, y) for o in "hv"
                for x in range(4) for y in range(3)}) == 24


@pytest.mark.parametrize("rows, cols, layers", [(2, 2, 1), (3, 4, 1), (5, 2, 2)])
def test_edge_sites_by_arithmetic_match_the_wrapped_formula(rows, cols, layers):
    geo = LatticeGeometry(rows, cols, "edges", layers)
    per_layer = 2 * rows * cols
    assert (geo.sites_per_layer, geo.n_sites) == (per_layer, layers * per_layer)

    def site(orient, x, y, layer):
        x, y = geo.wrap(x, y)
        return layer * per_layer + 2 * (y * cols + x) + (orient == "v")

    for layer in range(layers):
        anchors = [(x, y) for y in range(-rows - 1, 2 * rows + 1)
                   for x in range(-cols - 1, 2 * cols + 1)]
        stars = term_words(geo, 3, "star", anchors, layer)
        plaquettes = term_words(geo, 3, "plaquette", anchors, layer)
        for (x, y), star, plaquette in zip(anchors, stars, plaquettes):
            for o in "hv":
                assert geo.edge_index(o, x, y, layer) == site(o, x, y, layer)
            assert star == from_terms(3, geo.n_sites, [
                (site("h", x - 1, y, layer), 1, 0), (site("v", x, y - 1, layer), 1, 0),
                (site("h", x, y, layer), -1, 0), (site("v", x, y, layer), -1, 0)])
            assert plaquette == from_terms(3, geo.n_sites, [
                (site("h", x, y, layer), 0, 1), (site("v", x + 1, y, layer), 0, 1),
                (site("h", x, y + 1, layer), 0, -1), (site("v", x, y, layer), 0, -1)])


def test_edge_sites_need_edge_placement():
    geo = LatticeGeometry(2, 2, "vertices")
    calls = [lambda: geo.edge_index("h", 0, 0)]
    calls += [lambda t=t: term_words(geo, 2, t, [(0, 0)])
              for t in ("star", "plaquette", "fish", "hop-h", "hop-v")]
    for call in calls:
        with pytest.raises(GeometryError, match="^edge_index needs edge placement$"):
            call()
    edges = LatticeGeometry(2, 2, "edges")
    for t in ("cell", "parallelogram", "pentagon-l", "pentagon-r"):
        with pytest.raises(GeometryError, match="^vertex_index needs vertex placement$"):
            term_words(edges, 2, t, [(0, 0)])


# 2x2 to 5x4 tori; anchors reach one torus beyond each side, so negative and
# wrapped anchors are both covered
TORI = [(rows, cols) for rows in range(2, 6) for cols in range(2, 5)]


def _anchors(rows, cols):
    return [(x, y) for y in range(-rows, 2 * rows) for x in range(-cols, 2 * cols)]


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6])
def test_edge_terms_match_per_term_reference(modulus):
    # the star and fish at power 1, the plaquette and both hops at every
    # power -1 ... N + 1, on layers 0 and 1
    for rows, cols in TORI:
        geo = LatticeGeometry(rows, cols, "edges", layers=2)
        anchors = _anchors(rows, cols)
        for layer in (0, 1):
            cases = [("star", 1, lambda x, y: lref.star_op(geo, modulus, x, y, layer)),
                     ("fish", 1, lambda x, y: lref.fish_op(geo, modulus, x, y, layer))]
            for p in range(-1, modulus + 2):
                cases.append(("plaquette", p, lambda x, y, p=p: lref.plaquette_op(
                    geo, modulus, x, y, layer, p)))
                cases += [(f"hop-{o}", p, lambda x, y, o=o, p=p: lref.hop_op(
                    geo, modulus, o, x, y, layer, p)) for o in "hv"]
            for name, power, want in cases:
                got = term_words(geo, modulus, name, anchors, layer, power)
                for (x, y), word in zip(anchors, got):
                    # equal words: the same register, terms and phase
                    assert word == want(x, y), (name, power, x, y)


def test_powered_terms_are_word_powers():
    # every site of a plaquette or a hop carries X or Z alone, so scaling
    # its exponents is its power
    geo = LatticeGeometry(3, 4, "edges")
    for modulus in (2, 3, 4, 6):
        for name in ("plaquette", "hop-h", "hop-v"):
            (base,) = term_words(geo, modulus, name, [(1, 2)])
            for p in range(-1, modulus + 2):
                assert term_words(geo, modulus, name, [(1, 2)], power=p) == [
                    pauli_pow(base, p)]


def test_vertex_cells_match_corner_reference():
    # the Bombin cell and the twist's sheared cells; the pentagons' corners
    # two columns apart meet on a 2-column torus, so they need 3 columns
    for rows, cols in TORI:
        geo = LatticeGeometry(rows, cols, "vertices")
        anchors = _anchors(rows, cols)
        for name, (_, phase) in lref.CELLS.items():
            if name.startswith("pentagon") and cols < 3:
                continue
            got = term_words(geo, 2, name, anchors, phase=phase)
            assert got == [lref.cell(geo, name, x, y) for x, y in anchors], name


def test_models_match_per_term_reference():
    for N in (2, 3, 4):
        m = build_toric_code(3, 4, N)
        want = [op for y in range(3) for x in range(4)
                for op in (lref.star_op(m.geometry, N, x, y),
                           lref.plaquette_op(m.geometry, N, x, y))]
        assert [g.op for g in m.generators] == want
    bilayer = build_bilayer_toric(2, 3)
    assert [g.op for g in bilayer.generators] == [
        op for layer in (0, 1) for y in range(2) for x in range(3)
        for op in (lref.star_op(bilayer.geometry, 2, x, y, layer),
                   lref.plaquette_op(bilayer.geometry, 2, x, y, layer))]
    ds = build_doubled_semion(3, 4)
    assert [g.op for g in ds.generators] == [
        op for y in range(3) for x in range(4)
        for op in (lref.fish_op(ds.geometry, 4, x, y),
                   lref.plaquette_op(ds.geometry, 4, x, y, power=2),
                   lref.hop_op(ds.geometry, 4, "h", x, y, power=2),
                   lref.hop_op(ds.geometry, 4, "v", x, y, power=2))]
    bombin = build_bombin_lattice(4, 6)
    assert [g.op for g in bombin.generators] == [
        lref.cell(bombin.geometry, "cell", x, y) for y in range(4) for x in range(6)]


def test_build_toric_code_2x2():
    m = build_toric_code(2, 2, 2)
    assert m.n_sites == 8
    assert sorted(g.kind for g in m.generators) == ["plaquette"] * 4 + ["vertex"] * 4
    assert engine.logical_dimension(m) == 4


def test_build_toric_code_z3():
    m = build_toric_code(3, 3, 3)
    assert engine.logical_dimension(m) == 9


def test_toric_constraint_certificates():
    for N in (2, 3, 4):
        m = build_toric_code(3, 3, N)
        assert m.constraints == ("vertex", "plaquette")
        for kind in m.constraints:
            assert evaluate_constraint(m, kind).is_identity()


def _constraint_fold(model, kind):
    """The product of the kind's generators, multiplied pairwise with
    ``pauli_mul`` in gid order."""
    words = [g.op for g in sorted(model.generators, key=lambda g: g.gid) if g.kind == kind]
    return functools.reduce(pauli_mul, words, identity(model.modulus, model.n_sites))


def _z4_patch_in_ds():
    return defects.apply_z4_patch_in_ds(build_doubled_semion(4, 4))[0]


def _bombin_twist():
    return defects.apply_bombin_twist(build_bombin_lattice(6, 6))[0]


# every kind of each model, certificate or not: the generator-order product
# equals the gid-order pairwise fold, terms and phase; the twisted Bombin
# model's Y corners give words with a nonzero phase
@pytest.mark.parametrize("build, constraints", [
    *[(functools.partial(build_toric_code, 4, 4, N), ("vertex", "plaquette"))
      for N in (2, 3, 4, 5, 6)],
    (lambda: build_bombin_lattice(4, 4), ("cell-dark", "cell-light")),
    (lambda: build_doubled_semion(4, 4), ("vertex", "plaquette")),
    (_z4_patch_in_ds, ()),
    (_bombin_twist, ()),
], ids=[*(f"z{N}-toric" for N in (2, 3, 4, 5, 6)), "bombin", "doubled-semion",
        "z4-patch-in-ds", "bombin-twist"])
def test_evaluate_constraint_matches_power_fold(build, constraints):
    model = build()
    assert model.constraints == constraints
    for kind in sorted({g.kind for g in model.generators}):
        got, want = evaluate_constraint(model, kind), _constraint_fold(model, kind)
        assert (got.terms, got.phase_exp) == (want.terms, want.phase_exp), kind
        if kind in constraints:
            assert to_text(got) == "0|", kind


def test_z2_toric_l32_scale():
    # the 32x32 target lattice: build, dimension, both certificates, a
    # weight-1 syndrome and membership all run on supports only (not timed
    # here); membership reduces against the echelon the dimension cached
    m = build_toric_code(32, 32, 2)
    assert m.n_sites == 2048 and len(m.generators) == 2048
    assert engine.logical_dimension(m) == 4
    for cert in m.constraints:
        assert to_text(evaluate_constraint(m, cert)) == "0|"
    error = single_site(2, m.n_sites, m.geometry.edge_index("h", 5, 7), x=1)
    assert sorted(engine.syndrome(m, error).exponents) == ["B(5,6)", "B(5,7)"]
    gens = m.generators
    product = pauli_prod(2, m.n_sites, [gens[3].op, gens[700].op, gens[1500].op])
    assert engine.is_member(m, product)
    assert not engine.is_member(m, m.logicals[0][1])
    assert engine.logical_dimension(build_doubled_semion(16, 16)) == 4


def test_toric_generators_commute_and_have_order_n():
    for N in (2, 3, 4):
        m = build_toric_code(3, 2, N)
        ops = [g.op for g in m.generators]
        for i in range(len(ops)):
            assert symplectic_order(ops[i]) == N
            for j in range(i + 1, len(ops)):
                assert commutation_exponent(ops[i], ops[j]) == 0


def test_toric_size_validation():
    with pytest.raises(GeometryError):
        build_toric_code(1, 4, 2)
    with pytest.raises(GeometryError):
        build_toric_code(4, 4, 1)


def test_logical_dimension_table_z_n():
    for N in (2, 3, 4):
        for rows, cols in ((2, 2), (2, 3), (3, 3), (4, 4)):
            assert engine.logical_dimension(build_toric_code(rows, cols, N)) == N * N


def test_bombin_lattice():
    m = build_bombin_lattice(4, 4)
    assert m.n_sites == 16 and len(m.generators) == 16
    assert engine.logical_dimension(m) == 4
    ops = [g.op for g in m.generators]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert commutation_exponent(ops[i], ops[j]) == 0
    for cert in m.constraints:
        assert evaluate_constraint(m, cert).is_identity(up_to_phase=True)
    with pytest.raises(GeometryError):
        build_bombin_lattice(3, 4)


def test_bombin_single_z_hits_two_diagonal_cells():
    m = build_bombin_lattice(6, 6)
    err = single_site(2, m.n_sites, m.geometry.vertex_index(2, 2), z=1)
    syn = engine.syndrome(m, err)
    violated = sorted(syn.exponents)
    assert violated == ["P(1,1)", "P(2,2)"]  # diagonal pair, same color
    kinds = {m.generator(g).kind for g in violated}
    assert len(kinds) == 1


def test_bombin_to_kitaev():
    m = build_bombin_lattice(4, 4)
    k = bombin_to_kitaev(m)
    kinds = {g.kind for g in k.generators}
    assert kinds == {"vertex", "plaquette"}
    for g in k.generators:
        if g.kind == "vertex":
            assert not any(z_exp(g.op))
        else:
            assert not any(x_exp(g.op))
    assert engine.logical_dimension(k) == engine.logical_dimension(m) == 4
    # applying the translation twice restores the Bombin generators
    back = bombin_to_kitaev(k)
    assert [g.op for g in back.generators] == [g.op for g in m.generators]
    with pytest.raises(UnsupportedModelError):
        bombin_to_kitaev(build_toric_code(4, 4, 2))


def test_bombin_to_kitaev_preserves_group_order():
    for rows, cols in ((2, 2), (2, 4), (4, 4)):
        m = build_bombin_lattice(rows, cols)
        k = bombin_to_kitaev(m)
        gm = engine.GeneratorMatrix.from_ops([g.op for g in m.generators])
        gk = engine.GeneratorMatrix.from_ops([g.op for g in k.generators])
        assert engine.subgroup_order(gm) == engine.subgroup_order(gk)


def test_string_operator_endpoints():
    m = build_toric_code(4, 4, 2)
    geo = m.geometry
    # single-edge X string: exactly two plaquette violations
    err = string_operator(m, "m", [(1, 1), (2, 1)])
    syn = engine.syndrome(m, err)
    assert sorted(m.generator(g).kind for g in syn.exponents) == ["plaquette", "plaquette"]
    # extending the string moves the violation to the new endpoints only
    longer = string_operator(m, "m", [(1, 1), (2, 1), (3, 1)])
    syn2 = engine.syndrome(m, longer)
    assert sorted(m.generator(g).kind for g in syn2.exponents) == ["plaquette", "plaquette"]
    assert set(syn.exponents) & set(syn2.exponents) == {"B(1,1)"}
    # e strings violate the two endpoint vertices
    err = string_operator(m, "e", [(0, 0), (0, 1), (0, 2)])
    syn3 = engine.syndrome(m, err)
    assert {g: m.generator(g).kind for g in syn3.exponents} == {"A(0,0)": "vertex",
                                                               "A(0,2)": "vertex"}


def test_closed_contractible_loop_is_stabilizer():
    for N in (2, 4):
        m = build_toric_code(4, 4, N)
        square = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
        for stype in ("e", "m"):
            loop = string_operator(m, stype, square)
            assert not engine.syndrome(m, loop)
            assert engine.is_member(m, loop)


def test_noncontractible_loops_are_logical():
    for N in (2, 3, 4):
        m = build_toric_code(4, 4, N)
        for name, op in m.logicals:
            assert not engine.syndrome(m, op), name
            assert not engine.is_member(m, op), name


def test_string_path_errors():
    m = build_toric_code(4, 4, 2)
    with pytest.raises(PathError):
        string_operator(m, "e", [(0, 0), (2, 2)])
    with pytest.raises(PathError):
        string_operator(m, "m", [(0, 0)])
    with pytest.raises(UnsupportedModelError):
        string_operator(m, "q", [(0, 0), (1, 0)])
    # the semion strings are Z_4 words: refused on any other modulus
    for modulus in (2, 3, 5):
        for anyon in ("s", "sbar", "ssbar"):
            with pytest.raises(UnsupportedModelError):
                string_operator(build_toric_code(4, 4, modulus), anyon, [(0, 0), (1, 0)])


@functools.cache
def _string_model(family, rows, cols):
    if family == "ds":
        return build_doubled_semion(rows, cols)
    return build_toric_code(rows, cols, family)


STRING_CASES = ([(n, t) for n in range(2, 7) for t in ("e", "m")]
                + [("ds", t) for t in ("1", "s", "sbar", "ssbar")])
MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))


# random walks backtrack and cross themselves; unwrapped ones leave the
# lattice's coordinate range, wrapped ones step across its seam
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(STRING_CASES), rows=st.integers(2, 7), cols=st.integers(2, 7),
       start=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       moves=st.lists(st.sampled_from(MOVES), min_size=1, max_size=24),
       wrap=st.booleans())
def test_string_operator_matches_reference(case, rows, cols, start, moves, wrap):
    family, anyon = case
    model = _string_model(family, rows, cols)
    path = [start]
    for dx, dy in moves:
        x, y = path[-1][0] + dx, path[-1][1] + dy
        path.append((x % cols, y % rows) if wrap else (x, y))
    got = string_operator(model, anyon, path)
    want = (ref.string_operator(model, anyon, path).op if family == "ds"
            else ref.toric_string_operator(model, path, anyon))
    assert (got.terms, got.phase_exp) == (want.terms, want.phase_exp)
