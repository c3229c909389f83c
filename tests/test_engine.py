"""Stabilizer arithmetic against Smith-normal-form and brute-force oracles."""

import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditlab import defects, engine, lattice
from quditlab.dsemion import build_doubled_semion, logical_operators
from quditlab.engine import (GeneratorMatrix, brute_force_subgroup_order,
                             is_member, logical_dimension, subgroup_order,
                             syndrome, excitation_energy, assert_sign_consistent)
from quditlab.errors import InvalidModelError
from quditlab.lattice import (DefectSpec, Generator, StabilizerModel, build_toric_code,
                              toric_string_operator)
from quditlab.pauli import (PauliOp, commutation_exponent, from_terms, identity,
                            pauli_mul, pauli_pow, single_site)
from pauli_reference import from_dense
from snf_reference import subgroup_order_snf

ORACLE = settings(max_examples=60, deadline=None, derandomize=True)


def test_subgroup_order_trivial_and_full():
    zero = GeneratorMatrix.from_dense(3, ((0, 0, 0, 0),), 4)
    assert subgroup_order(zero) == 1
    full = GeneratorMatrix.from_dense(3, tuple(tuple(1 if i == j else 0 for j in range(4))
                                               for i in range(4)), 4)
    assert subgroup_order(full) == 3 ** 4


def test_subgroup_order_toric_code():
    for rows, cols in ((2, 2), (3, 2), (3, 3)):
        m = build_toric_code(rows, cols, 2)
        gm = GeneratorMatrix.from_ops([g.op for g in m.generators])
        assert subgroup_order(gm) == 2 ** (2 * rows * cols - 2)


def test_subgroup_order_matches_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        N = rng.choice([2, 3, 4])
        n = rng.randint(1, 3)
        k = rng.randint(1, 4)
        rows = tuple(tuple(rng.randrange(N) for _ in range(2 * n)) for _ in range(k))
        gm = GeneratorMatrix.from_dense(N, rows, 2 * n)
        assert subgroup_order(gm) == brute_force_subgroup_order(gm)


def test_logical_dimension_values():
    assert logical_dimension(build_toric_code(2, 2, 2)) == 4
    assert logical_dimension(build_toric_code(3, 4, 2)) == 4
    assert logical_dimension(build_toric_code(3, 3, 4)) == 16
    assert logical_dimension(lattice.build_bombin_lattice(4, 4)) == 4


def test_logical_dimension_rejects_noncommuting():
    bad = StabilizerModel(
        lattice.LatticeGeometry(2, 2, "edges"), 2,
        (Generator("x", "vertex", single_site(2, 8, 0, x=1), 2),
         Generator("z", "vertex", single_site(2, 8, 0, z=1), 2)))
    with pytest.raises(InvalidModelError):
        logical_dimension(bad)


def test_logical_dimension_invariances():
    m = build_toric_code(2, 3, 3)
    base = logical_dimension(m)
    gens = list(m.generators)
    # reordering
    reordered = StabilizerModel(m.geometry, m.modulus, tuple(reversed(gens)))
    assert logical_dimension(reordered) == base
    # replace a generator by itself times another
    merged = list(gens)
    merged[0] = Generator("merged", gens[0].kind,
                          pauli_mul(gens[0].op, gens[1].op), gens[0].order)
    assert logical_dimension(StabilizerModel(m.geometry, m.modulus, tuple(merged))) == base
    # site relabeling (reverse site order)
    n = m.n_sites
    relabeled = tuple(
        Generator(g.gid, g.kind,
                  from_dense(g.op.modulus, tuple(reversed(g.op.x_exp)),
                             tuple(reversed(g.op.z_exp)), g.op.phase_exp), g.order)
        for g in gens)
    assert logical_dimension(StabilizerModel(m.geometry, m.modulus, relabeled)) == base


def test_is_member():
    m = build_toric_code(3, 3, 2)
    for g in m.generators[:4]:
        assert is_member(m, g.op)
    # product of all plaquettes is the identity, hence a member
    prod = identity(2, m.n_sites)
    for g in m.generators:
        if g.kind == "plaquette":
            prod = pauli_mul(prod, g.op)
    assert prod.is_identity(up_to_phase=True)
    assert is_member(m, prod)
    # a non-contractible string commutes with everything but is not a member
    loop = toric_string_operator(m, [(0, y) for y in range(3)] + [(0, 0)], "e")
    assert not engine.syndrome(m, loop)
    assert not is_member(m, loop)
    # a detectable error is not a member either
    assert not is_member(m, single_site(2, m.n_sites, 0, x=1))


def test_syndrome_examples():
    m = build_toric_code(3, 3, 2)
    assert not syndrome(m, identity(2, m.n_sites))
    geo = m.geometry
    x_err = single_site(2, m.n_sites, geo.edge_index("h", 1, 1), x=1)
    syn = syndrome(m, x_err)
    assert len(syn.violated_plaquettes) == 2 and not syn.violated_vertices
    z_err = single_site(2, m.n_sites, geo.edge_index("h", 1, 1), z=1)
    syn = syndrome(m, z_err)
    assert len(syn.violated_vertices) == 2 and not syn.violated_plaquettes


def test_syndrome_is_homomorphism():
    rng = random.Random(23)
    m = build_toric_code(2, 3, 4)
    n = m.n_sites
    for _ in range(20):
        e1 = from_terms(4, n, [(rng.randrange(n), rng.randrange(4), rng.randrange(4))])
        e2 = from_terms(4, n, [(rng.randrange(n), rng.randrange(4), rng.randrange(4))])
        s12 = syndrome(m, pauli_mul(e1, e2))
        s1 = syndrome(m, e1)
        s2 = syndrome(m, e2)
        for g in m.generators:
            combined = (s1.exponents.get(g.gid, 0) + s2.exponents.get(g.gid, 0)) % g.order
            assert s12.exponents.get(g.gid, 0) == combined


def test_excitation_energy_string_independence():
    m = build_toric_code(6, 6, 2)
    geo = m.geometry
    for L in (1, 2, 3, 4):
        # X string along a dual path keeps exactly two endpoint excitations
        path = [(1 + k, 2) for k in range(L + 1)]
        err = toric_string_operator(m, path, "m")
        assert excitation_energy(m, err) == 2


def test_sign_consistency_of_builtin_models():
    assert_sign_consistent(build_toric_code(2, 2, 2))

def test_fast_order_path_matches_snf_reference():
    rng = random.Random(77)
    for _ in range(30):
        N = rng.choice([2, 3, 4, 6])
        n = rng.randint(1, 3)
        rows = tuple(tuple(rng.randrange(N) for _ in range(2 * n))
                     for _ in range(rng.randint(1, 5)))
        gm = GeneratorMatrix.from_dense(N, rows, 2 * n)
        assert subgroup_order(gm) == subgroup_order_snf(gm)


def test_sign_consistency_bombin_and_ds():
    from quditlab.dsemion import build_doubled_semion, logical_operators
    from quditlab.lattice import build_bombin_lattice
    assert_sign_consistent(build_bombin_lattice(2, 2))
    assert_sign_consistent(build_doubled_semion(2, 2), bound=40000)


# ----------------------------------------------------------------------
# oracles for the support-restricted paths
# ----------------------------------------------------------------------

@st.composite
def small_matrices(draw):
    """Generator matrices whose closure is enumerable, with empty and zero rows."""
    N = draw(st.sampled_from([2, 3, 4, 6, 12]))
    max_cols = {2: 8, 3: 6, 4: 4, 6: 3, 12: 2}[N]
    cols = draw(st.integers(0, max_cols))
    row = st.one_of(st.just((0,) * cols),
                    st.tuples(*[st.integers(-N, 2 * N)] * cols))
    rows = draw(st.lists(row, max_size=5))
    return GeneratorMatrix.from_dense(N, rows, cols)


@ORACLE
@given(small_matrices())
def test_lattice_index_matches_snf_and_closure(gm):
    index = engine.lattice_index(gm.rows, gm.modulus, gm.columns)
    assert index * brute_force_subgroup_order(gm) == gm.modulus ** gm.columns
    assert subgroup_order(gm) == subgroup_order_snf(gm)


def _sparse(modulus, rows, columns):
    return GeneratorMatrix.from_dense(modulus, rows, columns).rows


def test_lattice_index_empty_and_zero_rows():
    assert engine.lattice_index((), 6, 4) == 6 ** 4
    assert engine.lattice_index(_sparse(6, ((0, 0), (6, -12)), 2), 6, 2) == 36
    assert engine.lattice_index(_sparse(6, ((2, 0), (0, 3)), 2), 6, 2) == 6


@functools.lru_cache(maxsize=None)
def _oracle_model(name):
    if name == "bombin":
        return lattice.build_bombin_lattice(4, 4)
    if name == "dsemion":
        return build_doubled_semion(3, 3)
    if name == "dislocation":
        return defects.apply_dislocation(build_toric_code(6, 6, 2), "i", 1, 1)[0]
    return build_toric_code(3, 4, int(name[1:]))


def _dense_syndrome(model, error):
    n = model.modulus
    out = {}
    for g in model.generators:
        k = commutation_exponent(g.op, error)
        if k:
            out[g.gid] = (k * g.order // n % g.order, g.kind)
    return out


@st.composite
def model_and_error(draw, names=("Z2", "Z3", "Z4", "bombin", "dsemion", "dislocation")):
    model = _oracle_model(draw(st.sampled_from(names)))
    n, sites = model.modulus, model.n_sites
    support = draw(st.dictionaries(st.integers(0, sites - 1),
                                   st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=6))
    xs = [0] * sites
    zs = [0] * sites
    for site, (x, z) in support.items():
        xs[site], zs[site] = x, z
    return model, from_dense(n, xs, zs, draw(st.integers(0, 2 * n - 1)))


@ORACLE
@given(model_and_error())
def test_syndrome_matches_dense_reference(case):
    model, error = case
    syn = syndrome(model, error)
    ref = _dense_syndrome(model, error)
    assert list(syn.exponents.items()) == [(g, e) for g, (e, _) in ref.items()]
    assert syn.kinds == {g: kind for g, (_, kind) in ref.items()}


def _bfs_rows(rows, n, columns):
    seen = {(0,) * columns}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for r in rows:
            nxt = tuple((a + b) % n for a, b in zip(cur, r))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@functools.lru_cache(maxsize=None)
def _small_model(name):
    """(model, logical representatives, closure of the generator rows)."""
    if name == "dsemion":
        model = build_doubled_semion(2, 2)
        logicals = [s.op for s in logical_operators(model).values()]
    else:
        model = (lattice.build_bombin_lattice(2, 2) if name == "bombin"
                 else build_toric_code(2, 2, int(name[1:])))
        logicals = [op for _, op in model.logicals]
    dense = [g.op.x_exp + g.op.z_exp for g in model.generators]
    return model, logicals, frozenset(_bfs_rows(dense, model.modulus, 2 * model.n_sites))


@st.composite
def member_candidates(draw):
    """Generator products, optionally times a logical or a stray single-site term."""
    model, logicals, closure = _small_model(
        draw(st.sampled_from(["Z2", "Z3", "Z4", "bombin", "dsemion"])))
    n, sites = model.modulus, model.n_sites
    op = identity(n, sites)
    for g in draw(st.lists(st.sampled_from(model.generators), max_size=6)):
        op = pauli_mul(op, g.op)
    extra = draw(st.sampled_from(["none", "logical", "site"]))
    if extra == "logical" and logicals:
        op = pauli_mul(op, draw(st.sampled_from(logicals)))
    elif extra == "site":
        op = pauli_mul(op, single_site(n, sites, draw(st.integers(0, sites - 1)),
                                       x=draw(st.integers(0, n - 1)),
                                       z=draw(st.integers(0, n - 1))))
    return model, closure, op


@ORACLE
@given(member_candidates())
def test_is_member_matches_closure(case):
    model, closure, op = case
    commutes = all(not commutation_exponent(g.op, op) for g in model.generators)
    expected = commutes and (op.x_exp + op.z_exp) in closure
    assert is_member(model, op) == expected


@st.composite
def isotropic_models(draw):
    """(model, spare): commuting generators on up to three of four sites,
    N composite, and one more word that commutes with all of them.

    Z-only words, with entries biased toward zero divisors of N, are moved
    by random maps that keep every commutation exponent: shears
    z += c x and x += c z, the swap (x, z) -> (z, -x) on one site, and a
    two-site CNOT (x_t += x_s, z_s -= z_t).  The last word is the spare.
    """
    N = draw(st.sampled_from([4, 6, 8, 10, 12]))
    n = draw(st.integers(1, 2 if N > 8 else 3))
    entry = st.integers(0, N - 1) | st.sampled_from(
        [e for e in range(2, N) if math.gcd(e, N) > 1])
    words = [([0] * n, [draw(entry) for _ in range(n)])
             for _ in range(draw(st.integers(2, 5)))]
    for _ in range(draw(st.integers(0, 6))):
        move = draw(st.sampled_from(["shear_z", "shear_x", "swap", "cnot"]))
        s, t = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(entry)
        for xs, zs in words:
            if move == "shear_z":
                zs[s] = (zs[s] + c * xs[s]) % N
            elif move == "shear_x":
                xs[s] = (xs[s] + c * zs[s]) % N
            elif move == "swap":
                xs[s], zs[s] = zs[s], -xs[s] % N
            elif s != t:
                xs[t] = (xs[t] + xs[s]) % N
                zs[s] = (zs[s] - zs[t]) % N
    ops = [from_terms(N, 4, [(j, xs[j], zs[j]) for j in range(n)]) for xs, zs in words]
    gens = tuple(Generator(f"g{i}", "vertex", op, N) for i, op in enumerate(ops[:-1]))
    return StabilizerModel(lattice.LatticeGeometry(2, 2, "vertices"), N, gens), ops[-1]


@ORACLE
@given(isotropic_models(), st.data())
def test_echelon_matches_closure_on_zero_divisors(case, data):
    model, spare = case
    N, sites = model.modulus, model.n_sites
    ops = [g.op for g in model.generators]
    closure = _bfs_rows([op.x_exp + op.z_exp for op in ops], N, 2 * sites)
    assert subgroup_order(GeneratorMatrix.from_ops(ops)) == len(closure)
    assert logical_dimension(model) == N ** sites // len(closure)
    exponent = st.integers(0, N - 1)
    for _ in range(4):
        op = identity(N, sites)
        for g in ops:
            op = pauli_mul(op, pauli_pow(g, data.draw(exponent)))
        extra = data.draw(st.sampled_from(["none", "spare", "word"]))
        if extra == "spare":
            op = pauli_mul(op, pauli_pow(spare, data.draw(exponent)))
        elif extra == "word":
            op = pauli_mul(op, from_terms(N, sites, [
                (j, data.draw(exponent), data.draw(exponent)) for j in range(3)]))
        commutes = all(not commutation_exponent(g, op) for g in ops)
        assert is_member(model, op) == (commutes and op.x_exp + op.z_exp in closure)


def test_replaced_model_computes_its_own_echelon():
    m = build_toric_code(3, 3, 2)
    assert logical_dimension(m) == 4
    same = dataclasses.replace(m, family="copy")
    assert same.echelon is not m.echelon and same.echelon.index == m.echelon.index
    a0, a1 = (m.generator(gid) for gid in m.gids("vertex")[:2])
    rest = tuple(g for g in m.generators if g not in (a0, a1))
    for cut in (m.with_surgery([a0.gid, a1.gid], (), (), DefectSpec("cut")),
                dataclasses.replace(m, generators=rest)):
        assert cut.echelon is not m.echelon
        assert logical_dimension(cut) == 8
        assert is_member(m, a0.op) and not is_member(cut, a0.op)


def test_annihilator_when_the_bezout_coefficient_shares_a_factor():
    # N = 10, pivot 6: gcd 2 with Bezout coefficient 2, so 2 * (10/2) * (6, 1)
    # vanishes while 5 * (6, 1) = (0, 5) is a nonzero element of the group
    gm = GeneratorMatrix.from_dense(10, ((6, 1),), 2)
    assert subgroup_order(gm) == brute_force_subgroup_order(gm) == 10
    gen = Generator("g", "vertex", from_terms(10, 4, [(0, 6, 1)]), 10)
    model = StabilizerModel(lattice.LatticeGeometry(2, 2, "vertices"), 10, (gen,))
    assert is_member(model, single_site(10, 4, 0, z=5))


def test_noncommuting_error_names_first_pair():
    # (a, d) and (b, c) fail to commute; the old i < j loop meets (a, d) first
    n = 8
    gens = (Generator("a", "vertex", single_site(2, n, 5, x=1), 2),
            Generator("b", "vertex", single_site(2, n, 0, x=1), 2),
            Generator("c", "vertex", single_site(2, n, 0, z=1), 2),
            Generator("d", "vertex", single_site(2, n, 5, z=1), 2))
    bad = StabilizerModel(lattice.LatticeGeometry(2, 2, "edges"), 2, gens)
    with pytest.raises(InvalidModelError, match="^generators a and d do not commute$"):
        logical_dimension(bad)


@ORACLE
@given(st.sampled_from([2, 3, 4]), st.data())
def test_noncommuting_pair_matches_all_pairs_loop(N, data):
    ops = [data.draw(st.builds(lambda terms: from_terms(N, 8, terms),
                               st.lists(st.tuples(st.integers(0, 7), st.integers(0, N - 1),
                                                  st.integers(0, N - 1)), max_size=3)))
           for _ in range(data.draw(st.integers(1, 6)))]
    gens = tuple(Generator(f"g{i}", "vertex", op, N) for i, op in enumerate(ops))
    model = StabilizerModel(lattice.LatticeGeometry(2, 2, "edges"), N, gens)
    first = next(((i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))
                  if commutation_exponent(ops[i], ops[j])), None)
    if first is None:
        assert logical_dimension(model) >= 1
    else:
        with pytest.raises(InvalidModelError,
                           match=f"^generators g{first[0]} and g{first[1]} do not commute$"):
            logical_dimension(model)


def _fold_terms(modulus, sites, terms, phase=0):
    """The product of single-site words, one pauli_mul per term."""
    op = PauliOp(modulus, sites, (), phase)
    for site, x, z in terms:
        op = pauli_mul(op, single_site(modulus, sites, site, x, z))
    return op


@ORACLE
@given(st.sampled_from([2, 3, 4, 6, 12]), st.data())
def test_from_terms_matches_mul_fold(N, data):
    sites = data.draw(st.integers(1, 5))
    exp = st.integers(-2 * N, 2 * N)
    terms = data.draw(st.lists(st.tuples(st.integers(0, sites - 1), exp, exp), max_size=8))
    phase = data.draw(st.integers(-4 * N, 4 * N))
    assert from_terms(N, sites, terms, phase) == _fold_terms(N, sites, terms, phase)
