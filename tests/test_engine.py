"""Stabilizer arithmetic against Smith-normal-form and brute-force oracles."""

import dataclasses
import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditlab import defects, engine, lattice
from quditlab.dsemion import build_doubled_semion, logical_operators
from quditlab.engine import (GeneratorMatrix, brute_force_subgroup_order,
                             is_member, logical_dimension, subgroup_order,
                             syndrome, excitation_energy)
from quditlab.errors import InvalidModelError, ShapeError
from quditlab.lattice import Generator, StabilizerModel, build_toric_code, string_operator
from quditlab.pauli import (PauliOp, commutation_exponent, from_terms, identity,
                            pauli_mul, pauli_pow, single_site)
from pauli_reference import from_dense, x_exp, z_exp
from sign_reference import assert_sign_consistent
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
                  from_dense(g.op.modulus, tuple(reversed(x_exp(g.op))),
                             tuple(reversed(z_exp(g.op))), g.op.phase_exp), g.order)
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
    loop = string_operator(m, "e", [(0, y) for y in range(3)] + [(0, 0)])
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
    assert sorted(m.generator(g).kind for g in syn.exponents) == ["plaquette", "plaquette"]
    z_err = single_site(2, m.n_sites, geo.edge_index("h", 1, 1), z=1)
    syn = syndrome(m, z_err)
    assert sorted(m.generator(g).kind for g in syn.exponents) == ["vertex", "vertex"]


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
        err = string_operator(m, "m", path)
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
    index = engine.echelon(gm.rows, gm.modulus, gm.columns).index
    assert index * brute_force_subgroup_order(gm) == gm.modulus ** gm.columns
    assert subgroup_order(gm) == subgroup_order_snf(gm)


def _sparse(modulus, rows, columns):
    return GeneratorMatrix.from_dense(modulus, rows, columns).rows


def test_lattice_index_empty_and_zero_rows():
    assert engine.echelon((), 6, 4).index == 6 ** 4
    assert engine.echelon(_sparse(6, ((0, 0), (6, -12)), 2), 6, 2).index == 36
    assert engine.echelon(_sparse(6, ((2, 0), (0, 3)), 2), 6, 2).index == 6


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
            out[g.gid] = k * g.order // n % g.order
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
    assert list(syn.exponents.items()) == list(ref.items())


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
    dense = [x_exp(g.op) + z_exp(g.op) for g in model.generators]
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
    expected = commutes and (x_exp(op) + z_exp(op)) in closure
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
    closure = _bfs_rows([x_exp(op) + z_exp(op) for op in ops], N, 2 * sites)
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
        assert is_member(model, op) == (commutes and x_exp(op) + z_exp(op) in closure)


def test_replaced_model_computes_its_own_echelon():
    m = build_toric_code(3, 3, 2)
    assert logical_dimension(m) == 4
    same = dataclasses.replace(m, family="copy")
    assert same.echelon is not m.echelon and same.echelon.index == m.echelon.index
    a0, a1 = [g for g in m.generators if g.kind == "vertex"][:2]
    rest = tuple(g for g in m.generators if g not in (a0, a1))
    for cut in (defects._surgery(m, "cut", [("star", g.anchor, 0) for g in (a0, a1)], ())[0],
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


# ----------------------------------------------------------------------
# order-2 rows held as GF(2) bitsets, and the three column rules
# ----------------------------------------------------------------------

@st.composite
def half_biased_matrices(draw):
    """Matrices over even N whose closure is enumerable: rows of N/2
    entries only (the bitset rows), such rows with one entry redrawn, and
    rows of entries biased toward 1, N/2 and the other zero divisors."""
    N = draw(st.sampled_from([2, 4, 6, 8, 12]))
    cols = draw(st.integers(1, {2: 10, 4: 5, 6: 4, 8: 3, 12: 3}[N]))
    h = N // 2
    half = st.sampled_from([0, h])
    entry = st.sampled_from([0, 1, h] + [e for e in range(2, N) if math.gcd(e, N) > 1]) \
        | st.integers(0, N - 1)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["half", "one redrawn", "biased"]))
        row = list(draw(st.tuples(*[entry if kind == "biased" else half] * cols)))
        if kind == "one redrawn":
            row[draw(st.integers(0, cols - 1))] = draw(entry)
        rows.append(row)
    return GeneratorMatrix.from_dense(N, rows, cols)


def _assert_echelon_matches_closure(gm):
    N, cols = gm.modulus, gm.columns
    dense = [tuple(r.get(c, 0) for c in range(cols)) for r in gm.rows]
    closure = _bfs_rows(dense, N, cols)
    assert subgroup_order(gm) == subgroup_order_snf(gm) == len(closure)
    ech = engine.echelon(gm.rows, N, cols)
    for vec in itertools.product(range(N), repeat=cols):
        assert ech.contains({c: e for c, e in enumerate(vec) if e}) == (vec in closure)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(half_biased_matrices())
def test_bitset_rows_match_snf_and_closure(gm):
    # each column rule fires on about one draw in ten, hence more draws
    _assert_echelon_matches_closure(gm)


def test_unit_pivot_xors_its_odd_entries_into_bitsets():
    # N = 4: (2, 2) = 2 (1, 1) is a bitset; the unit pivot (1, 2) has odd(P)
    # = {0}, so the bitset becomes 2 (0, 1) and pivots column 1
    gm = GeneratorMatrix.from_dense(4, ((1, 2), (2, 2)), 2)
    assert _pivot_view(engine.echelon(gm.rows, 4, 2)) == {0: ({0: 1, 1: 2}, 1, 1),
                                                          1: ({1: 2}, 2, 1)}
    _assert_echelon_matches_closure(gm)


def test_half_pivot_hands_the_column_to_the_first_bitset():
    # N = 4: the dict pivot (2, 1) has gcd 2 = N/2, so the bitset (2, 0)
    # pivots and (2, 1) + (2, 0) = (0, 1) moves on
    gm = GeneratorMatrix.from_dense(4, ((2, 1), (2, 0)), 2)
    assert _pivot_view(engine.echelon(gm.rows, 4, 2)) == {0: ({0: 2}, 2, 1),
                                                          1: ({1: 1}, 1, 1)}
    _assert_echelon_matches_closure(gm)


def test_smaller_zero_divisor_turns_bitsets_back_into_rows():
    # N = 8: the dict pivot (2, 1) has gcd 2 < 4, so the bitset (4, 0) joins
    # the gcd step; (4, 0) - 2 (2, 1) = (0, 6) and the annihilator
    # 4 (2, 1) = (0, 4), a bitset, meet in column 1 with gcd 2 again
    gm = GeneratorMatrix.from_dense(8, ((2, 1), (4, 0)), 2)
    ech = engine.echelon(gm.rows, 8, 2)
    assert _pivot_view(ech) == {0: ({0: 2, 1: 1}, 2, 1), 1: ({1: 2}, 2, 1)}
    assert ech.index == 4
    _assert_echelon_matches_closure(gm)


@pytest.mark.parametrize("L", [2, 3])
def test_doubled_semion_index_matches_snf(L):
    ds = build_doubled_semion(L, L)
    gm = GeneratorMatrix.from_ops([g.op for g in ds.generators])
    assert subgroup_order(gm) == subgroup_order_snf(gm)


def test_noncommuting_error_names_first_pair():
    # (a, d) and (b, c) fail to commute; the lexicographically first (a, d)
    # is named
    n = 8
    gens = (Generator("a", "vertex", single_site(2, n, 5, x=1), 2),
            Generator("b", "vertex", single_site(2, n, 0, x=1), 2),
            Generator("c", "vertex", single_site(2, n, 0, z=1), 2),
            Generator("d", "vertex", single_site(2, n, 5, z=1), 2))
    bad = StabilizerModel(lattice.LatticeGeometry(2, 2, "edges"), 2, gens)
    with pytest.raises(InvalidModelError, match="^generators a and d do not commute$"):
        logical_dimension(bad)
    # a fails with c and d; a's site 0 meets d before its site 5 meets c,
    # and the lower partner c is named
    gens = (Generator("a", "vertex", from_terms(2, n, [(0, 1, 0), (5, 1, 0)]), 2),
            Generator("b", "vertex", single_site(2, n, 0, x=1), 2),
            Generator("c", "vertex", single_site(2, n, 5, z=1), 2),
            Generator("d", "vertex", single_site(2, n, 0, z=1), 2))
    bad = StabilizerModel(lattice.LatticeGeometry(2, 2, "edges"), 2, gens)
    with pytest.raises(InvalidModelError, match="^generators a and c do not commute$"):
        logical_dimension(bad)


def test_noncommuting_error_names_lexicographic_pair_after_a_later_one():
    # only (2, 3) and (0, 5) fail; scanning j in order meets (2, 3) at j = 3,
    # and (0, 5), lexicographically first, must still be named
    n = 8
    ops = [single_site(2, n, 0, x=1), single_site(2, n, 7, z=1), single_site(2, n, 1, x=1),
           single_site(2, n, 1, z=1), single_site(2, n, 6, x=1), single_site(2, n, 0, z=1)]
    failing = [(i, j) for i in range(6) for j in range(i + 1, 6)
               if commutation_exponent(ops[i], ops[j])]
    assert failing == [(0, 5), (2, 3)]
    gens = tuple(Generator(str(i), "vertex", op, 2) for i, op in enumerate(ops))
    bad = StabilizerModel(lattice.LatticeGeometry(2, 2, "edges"), 2, gens)
    with pytest.raises(InvalidModelError, match="^generators 0 and 5 do not commute$"):
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


# ----------------------------------------------------------------------
# raw pivots, read as dict rows, against the all-dict elimination
# ----------------------------------------------------------------------

# sha256 (first 16 hex digits) of the pivots, as sorted (column, sorted row
# items, d, a) tuples, that the elimination returned when every pivot was
# stored as a dict row
EAGER_PIVOTS = {
    "Z2": (lambda: build_toric_code(4, 4, 2), "479514d0c63f4435"),
    "Z3": (lambda: build_toric_code(3, 3, 3), "83df09a860291c0e"),
    "Z4": (lambda: build_toric_code(4, 4, 4), "f482c1fbe3dfa3fc"),
    "Z6": (lambda: build_toric_code(3, 3, 6), "2899dc0ee3cbb4e3"),
    "Z8": (lambda: build_toric_code(3, 3, 8), "f0af3cace4978629"),
    "Z12": (lambda: build_toric_code(2, 2, 12), "8b049365be5787af"),
    "dsemion3": (lambda: build_doubled_semion(3, 3), "3dc65c13c6dbc923"),
    "dsemion": (lambda: build_doubled_semion(4, 4), "19971699d70dc3b0"),
    "bombin": (lambda: lattice.build_bombin_lattice(4, 4), "a28a14b190cd7cd9"),
}


def _pivot_view(ech):
    """``ech.raw`` with every pivot as a dict row ``{column: exponent}``: a
    bitset pivot b at column c stands for N/2 on each column c + i of a set
    bit i of b."""
    h = ech.modulus // 2
    view = {}
    for col, (pivot, d, a) in ech.raw.items():
        if isinstance(pivot, int):
            pivot = {col + i: h for i in range(pivot.bit_length()) if pivot >> i & 1}
        view[col] = (pivot, d, a)
    return view


def _pivot_digest(pivots):
    canon = repr([(c, tuple(sorted(row.items())), d, a)
                  for c, (row, d, a) in sorted(pivots.items())])
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _logical_words(model):
    if model.family == "doubled-semion":
        return [s.op for s in logical_operators(model).values()]
    if model.family == "bombin":
        L = model.geometry.cols
        return [from_terms(2, model.n_sites, [(x, x % 2, 1 - x % 2) for x in range(L)])]
    return [op for _, op in model.logicals]


@pytest.mark.parametrize("name", ["Z2", "Z4", "dsemion", "bombin"])
def test_index_and_membership_build_no_pivot_view(name):
    build, digest = EAGER_PIVOTS[name]
    model = build()
    gm = GeneratorMatrix.from_ops([g.op for g in model.generators])
    order = subgroup_order(gm)
    assert engine.echelon(gm.rows, gm.modulus, gm.columns).index * order \
        == gm.modulus ** gm.columns
    assert logical_dimension(model) * order == model.modulus ** model.n_sites
    gens = model.generators
    assert is_member(model, pauli_mul(pauli_mul(gens[0].op, gens[1].op), gens[-1].op))
    for word in _logical_words(model):
        assert not engine.syndrome(model, word)
        assert not is_member(model, word)
    ech = model.echelon
    if model.modulus == 2:
        assert all(isinstance(p, int) for p, _, _ in ech.raw.values())
    # the raw pivots, read as dict rows, are those of the all-dict elimination
    assert _pivot_digest(_pivot_view(ech)) == digest


@pytest.mark.parametrize("name", sorted(EAGER_PIVOTS))
def test_pivot_view_equals_eager_pivots(name):
    build, digest = EAGER_PIVOTS[name]
    assert _pivot_digest(_pivot_view(build().echelon)) == digest


# ----------------------------------------------------------------------
# generators on another register
# ----------------------------------------------------------------------

def test_from_ops_refuses_words_of_two_registers():
    ops = [g.op for g in build_toric_code(2, 2, 2).generators]
    for modulus, sites in ((4, 9), (4, 8), (2, 9)):
        with pytest.raises(ShapeError, match="^generator register mismatch$"):
            GeneratorMatrix.from_ops(ops + [identity(modulus, sites)])
    with pytest.raises(ShapeError, match="^empty generator list has no register$"):
        GeneratorMatrix.from_ops([])
    assert subgroup_order(GeneratorMatrix.from_ops(ops)) == 64


def test_repeated_gid_raises_invalid_model_error():
    # a syndrome is keyed by gid: with B(0,0) renamed A(0,0), an X on site 0
    # would file the plaquette's exponent under the star's name
    tc = build_toric_code(4, 4)
    gens = tuple(g._replace(gid="A(0,0)") if g.gid == "B(0,0)" else g for g in tc.generators)
    model = dataclasses.replace(tc, generators=gens)
    text = "^generator id A\\(0,0\\) is repeated$"
    with pytest.raises(InvalidModelError, match=text):
        syndrome(model, single_site(2, model.n_sites, 0, x=1))
    with pytest.raises(InvalidModelError, match=text):
        logical_dimension(model)
    assert syndrome(tc, single_site(2, tc.n_sites, 0, x=1)).exponents == {
        "B(0,0)": 1, "B(0,3)": 1}


@pytest.mark.parametrize("geometry, modulus, register", [
    # modulus-2 generators in a modulus-4 model
    (lattice.LatticeGeometry(2, 2, "edges"), 4, "8-site Z_4"),
    # 2x2 generators on a 3x3 geometry
    (lattice.LatticeGeometry(3, 3, "edges"), 2, "18-site Z_2"),
])
def test_model_on_another_register_raises_shape_error(geometry, modulus, register):
    gens = build_toric_code(2, 2, 2).generators
    model = StabilizerModel(geometry, modulus, gens)
    text = (f"^generator A\\(0,0\\) acts on a 8-site Z_2 register, "
            f"the model on a {register} register$")
    with pytest.raises(ShapeError, match=text):
        logical_dimension(model)
    with pytest.raises(ShapeError, match=text):
        is_member(model, identity(modulus, model.n_sites))
    with pytest.raises(ShapeError, match=text):
        model.echelon
