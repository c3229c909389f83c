"""Lattice geometry, toric/Bombin builders, the Hadamard translation, strings."""

import pytest

from quditlab import engine
from quditlab.dsemion import build_doubled_semion
from quditlab.errors import GeometryError, PathError, UnsupportedModelError
from quditlab.lattice import (LatticeGeometry, bombin_to_kitaev,
                              build_bombin_lattice, build_toric_code,
                              evaluate_constraint, toric_string_operator)
from quditlab.pauli import commutation_exponent, pauli_prod, single_site, to_text


def test_geometry_counts():
    geo = LatticeGeometry(3, 4, "edges")
    assert geo.n_sites == 24  # 2 * H * V
    assert len({geo.edge_index(o, x, y) for o in "hv"
                for x in range(4) for y in range(3)}) == 24


def test_build_toric_code_2x2():
    m = build_toric_code(2, 2, 2)
    assert m.n_sites == 8
    assert len(m.gids("vertex")) == 4 and len(m.gids("plaquette")) == 4
    assert engine.logical_dimension(m) == 4


def test_build_toric_code_z3():
    m = build_toric_code(3, 3, 3)
    assert engine.logical_dimension(m) == 9


def test_toric_constraint_certificates():
    for N in (2, 3, 4):
        m = build_toric_code(3, 3, N)
        for cert in m.constraints:
            assert evaluate_constraint(m, cert).is_identity()


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
    assert engine.syndrome(m, error).violated() == ["B(5,6)", "B(5,7)"]
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
            assert ops[i].symplectic_order() == N
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
    kinds = {syn.kinds[g] for g in violated}
    assert len(kinds) == 1


def test_bombin_to_kitaev():
    m = build_bombin_lattice(4, 4)
    k = bombin_to_kitaev(m)
    kinds = {g.kind for g in k.generators}
    assert kinds == {"vertex", "plaquette"}
    for g in k.generators:
        if g.kind == "vertex":
            assert not any(g.op.z_exp)
        else:
            assert not any(g.op.x_exp)
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
    err = toric_string_operator(m, [(1, 1), (2, 1)], "m")
    syn = engine.syndrome(m, err)
    assert len(syn.violated_plaquettes) == 2 and not syn.violated_vertices
    # extending the string moves the violation to the new endpoints only
    longer = toric_string_operator(m, [(1, 1), (2, 1), (3, 1)], "m")
    syn2 = engine.syndrome(m, longer)
    assert len(syn2.violated_plaquettes) == 2
    assert set(syn.violated_plaquettes) & set(syn2.violated_plaquettes) == {"B(1,1)"}
    # e strings violate the two endpoint vertices
    err = toric_string_operator(m, [(0, 0), (0, 1), (0, 2)], "e")
    syn3 = engine.syndrome(m, err)
    assert sorted(syn3.violated_vertices) == ["A(0,0)", "A(0,2)"]


def test_closed_contractible_loop_is_stabilizer():
    for N in (2, 4):
        m = build_toric_code(4, 4, N)
        square = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
        for stype in ("e", "m"):
            loop = toric_string_operator(m, square, stype)
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
        toric_string_operator(m, [(0, 0), (2, 2)], "e")
    with pytest.raises(PathError):
        toric_string_operator(m, [(0, 0)], "m")
    with pytest.raises(PathError):
        toric_string_operator(m, [(0, 0), (1, 0)], "q")
