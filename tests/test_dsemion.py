"""Doubled-semion model: stabilizers, string operators, spins, logicals."""

import pytest

from pauli_reference import order, symplectic_order
from quditlab import engine
from quditlab.decoders import classify_residual
from quditlab.defects import apply_z4_patch_in_ds
from quditlab.dsemion import (build_doubled_semion,
                              extract_topological_spin, logical_operators)
from quditlab.errors import PathError, UnsupportedModelError
from quditlab.lattice import (StabilizerModel, build_toric_code, evaluate_constraint,
                              string_operator)
from quditlab.pauli import commutation_exponent, pauli_mul


def test_logical_dimension_four_for_all_sizes():
    for rows, cols in ((2, 2), (2, 3), (3, 3), (4, 4)):
        ds = build_doubled_semion(rows, cols)
        assert engine.logical_dimension(ds) == 4


def test_generators_mutually_commute_6x6():
    ds = build_doubled_semion(6, 6)
    ops = [g.op for g in ds.generators]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert commutation_exponent(ops[i], ops[j]) == 0


def test_generator_kinds_and_orders():
    ds = build_doubled_semion(4, 4)
    counts = {}
    for g in ds.generators:
        counts[g.kind] = counts.get(g.kind, 0) + 1
    assert counts == {"vertex": 16, "plaquette": 16, "edge": 32}
    for g in ds.generators:
        if g.kind == "edge":
            assert order(g.op) == 2  # C_e generators have order 2
            assert g.op.weight() == 2
        elif g.kind == "plaquette":
            assert symplectic_order(g.op) == 2
        else:
            assert symplectic_order(g.op) == 4
            assert g.op.weight() == 6  # the fish footprint


def test_constraint_certificates():
    ds = build_doubled_semion(3, 3)
    for cert in ds.constraints:
        assert evaluate_constraint(ds, cert).is_identity(up_to_phase=True)


def test_closed_contractible_s_loop_is_stabilizer():
    ds = build_doubled_semion(6, 6)
    square = [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2), (1, 1)]
    for anyon in ("s", "sbar"):
        loop = string_operator(ds, anyon, square)
        assert not engine.syndrome(ds, loop)
        assert engine.is_member(ds, loop)


def test_half_s_half_sbar_loop_gives_two_vertex_excitations():
    ds = build_doubled_semion(8, 8)
    out = [(2, 2), (3, 2), (4, 2)]
    back = [(4, 2), (4, 3), (4, 4), (3, 4), (2, 4), (2, 3), (2, 2)]
    word = pauli_mul(string_operator(ds, "s", out),
                     string_operator(ds, "sbar", back))
    syn = engine.syndrome(ds, word)
    assert [ds.generator(g).kind for g in syn.exponents] == ["vertex", "vertex"]
    assert list(syn.exponents.values()) == [2, 2]


def test_open_s_string_creates_vertex_and_plaquette_excitations():
    ds = build_doubled_semion(8, 8)
    word = string_operator(ds, "s", [(1, 4), (2, 4), (3, 4), (4, 4)])
    syn = engine.syndrome(ds, word)
    assert {ds.generator(g).kind for g in syn.exponents} == {"vertex", "plaquette"}
    # golden endpoint record for the frozen convention
    golden = [("B(1,4)", 1), ("B(4,4)", 1),
              ("A(1,4)", 1), ("A(2,5)", 1), ("A(4,4)", 3), ("A(5,5)", 3)]
    assert sorted(syn.exponents.items()) == sorted(golden)


def test_open_ssbar_string_endpoint_vertices_only():
    ds = build_doubled_semion(6, 6)
    word = string_operator(ds, "ssbar", [(1, 1), (2, 1), (3, 1)])
    syn = engine.syndrome(ds, word)
    assert sorted(syn.exponents) == ["A(1,1)", "A(3,1)"]
    assert all(v == 2 for v in syn.exponents.values())


def test_topological_spins():
    ds = build_doubled_semion(8, 8)
    assert extract_topological_spin(ds, (4, 4), "s") == 1      # theta(s) = i
    assert extract_topological_spin(ds, (4, 4), "sbar") == 3   # theta(sbar) = -i
    assert extract_topological_spin(ds, (4, 4), "ssbar") == 0  # theta(ssbar) = 1
    assert extract_topological_spin(ds, (4, 4), "1") == 0


def test_spin_path_independence():
    # strings of 3 steps on the 8x8, of 2 steps on a torus of 3 rows or columns
    for rows, cols in ((8, 8), (3, 8), (8, 3)):
        ds = build_doubled_semion(rows, cols)
        for x, y in ((4, 4), (2, 3), (5, 6)):
            assert extract_topological_spin(ds, (x % cols, y % rows), "s") == 1


def test_logical_operators():
    ds = build_doubled_semion(6, 6)
    logs = logical_operators(ds)
    assert set(logs) == {"X1", "X2", "Z1", "Z2"}
    for name, s in logs.items():
        assert not engine.syndrome(ds, s.op), name
        assert not engine.is_member(ds, s.op), name
        assert engine.is_member(ds, pauli_mul(s.op, s.op)), name  # squares ~ 1
    # Z1 X1 = - X1 Z1 and Z2 X2 = - X2 Z2 (commutation exponent 2 mod 4)
    assert commutation_exponent(logs["Z1"].op, logs["X1"].op) == 2
    assert commutation_exponent(logs["Z2"].op, logs["X2"].op) == 2
    # cross-pair operators commute: two independent logical qubits
    assert commutation_exponent(logs["Z1"].op, logs["X2"].op) == 0
    assert commutation_exponent(logs["Z2"].op, logs["X1"].op) == 0
    assert commutation_exponent(logs["X1"].op, logs["X2"].op) == 0


def test_builder_returns_stabilizer_model_with_its_logicals():
    ds = build_doubled_semion(4, 4)
    assert isinstance(ds, StabilizerModel)
    assert list(ds.logicals) == sorted((n, s.op) for n, s in logical_operators(ds).items())
    assert [name for name, _ in ds.logicals] == ["X1", "X2", "Z1", "Z2"]
    for name, op in ds.logicals:
        assert classify_residual(ds, op) == f"{name}^1"
    patched, _ = apply_z4_patch_in_ds(ds, 1, 1)
    assert patched.logicals == ds.logicals


def test_confinement_of_bare_x_string():
    ds = build_doubled_semion(10, 10)
    tc = build_toric_code(10, 10, 2)
    ds_energies = []
    tc_energies = []
    for L in range(1, 9):
        path = [(1 + k, 4) for k in range(L + 1)]
        ds_energies.append(
            engine.excitation_energy(ds, string_operator(ds, "m", path)))
        tc_energies.append(
            engine.excitation_energy(tc, string_operator(tc, "m", path)))
    assert tc_energies == [2] * 8  # excitations travel for free
    for a, b in zip(ds_energies, ds_energies[1:]):
        assert b >= a + 1  # at least unit slope
    assert ds_energies[0] >= 1


def test_string_operator_errors():
    ds = build_doubled_semion(4, 4)
    with pytest.raises(PathError):
        string_operator(ds, "s", [(0, 0), (2, 2)])
    with pytest.raises(PathError):
        string_operator(ds, "ssbar", [(0, 0)])
    with pytest.raises(UnsupportedModelError):
        string_operator(ds, "w", [(0, 0), (1, 0)])
