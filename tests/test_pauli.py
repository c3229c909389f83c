"""Pauli-word algebra: products, phases, commutation, serialization, and the
sparse core against the dense reference in ``pauli_reference``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pauli_reference as ref
from quditlab.errors import ParseError, ShapeError
from quditlab.pauli import (PauliOp, commutation_exponent, from_terms, from_text,
                            identity, pauli_adjoint, pauli_mul, pauli_pow,
                            pauli_prod, single_site, sort_key, to_text)


def test_z4_zx_reordering_phase():
    # Z X = omega X Z on a single Z_4 qudit: phase exponent differs by 2
    X = single_site(4, 1, 0, x=1)
    Z = single_site(4, 1, 0, z=1)
    zx = pauli_mul(Z, X)
    xz = pauli_mul(X, Z)
    assert ref.x_exp(zx) == ref.x_exp(xz) and ref.z_exp(zx) == ref.z_exp(xz)
    assert (zx.phase_exp - xz.phase_exp) % 8 == 2


def test_mul_identity():
    for N in (2, 3, 4):
        p = from_terms(N, 3, [(0, 1, 2), (2, 0, 1)])
        assert pauli_mul(p, identity(N, 3)) == p
        assert pauli_mul(identity(N, 3), p) == p


def test_x_fourth_power_is_identity():
    X = single_site(4, 1, 0, x=1)
    assert pauli_pow(X, 4).is_identity()
    Z = single_site(4, 1, 0, z=1)
    assert pauli_pow(Z, 4).is_identity()
    assert ref.order(X) == 4 and ref.order(Z) == 4


def test_shape_errors():
    with pytest.raises(ShapeError):
        pauli_mul(identity(2, 2), identity(2, 3))
    with pytest.raises(ShapeError):
        pauli_mul(identity(2, 2), identity(4, 2))
    with pytest.raises(ShapeError):
        commutation_exponent(identity(3, 1), identity(3, 2))


def test_commutation_examples():
    # X and Z on the same qubit anticommute
    assert commutation_exponent(single_site(2, 2, 0, x=1),
                                single_site(2, 2, 0, z=1)) == 1
    # disjoint supports commute
    assert commutation_exponent(single_site(2, 2, 0, x=1),
                                single_site(2, 2, 1, z=1)) == 0
    # X^2 and Z^2 commute at N = 4
    assert commutation_exponent(single_site(4, 1, 0, x=2),
                                single_site(4, 1, 0, z=2)) == 0
    # Z X = omega X Z fixes the sign convention
    assert commutation_exponent(single_site(4, 1, 0, z=1),
                                single_site(4, 1, 0, x=1)) == 1


def _random_word(rng, N, n):
    return ref.from_dense(N, tuple(rng.randrange(N) for _ in range(n)),
                      tuple(rng.randrange(N) for _ in range(n)),
                      rng.randrange(2 * N))


def test_commutation_is_mul_reordering_phase():
    rng = random.Random(3)
    for N in (2, 3, 4):
        for _ in range(40):
            p = _random_word(rng, N, 3)
            q = _random_word(rng, N, 3)
            k = commutation_exponent(p, q)
            pq = pauli_mul(p, q)
            qp = pauli_mul(q, p)
            assert (pq.phase_exp - qp.phase_exp) % (2 * N) == 2 * k % (2 * N)


def test_commutation_antisymmetric_bilinear():
    rng = random.Random(5)
    for N in (2, 3, 4):
        for _ in range(30):
            p = _random_word(rng, N, 2)
            q = _random_word(rng, N, 2)
            r = _random_word(rng, N, 2)
            assert (commutation_exponent(p, q) + commutation_exponent(q, p)) % N == 0
            lhs = commutation_exponent(pauli_mul(p, r), q)
            rhs = (commutation_exponent(p, q) + commutation_exponent(r, q)) % N
            assert lhs == rhs


def test_pow_and_adjoint_examples():
    for N in (2, 3, 4):
        X = single_site(N, 1, 0, x=1)
        assert pauli_pow(X, N).is_identity()
        assert pauli_adjoint(identity(N, 2)).is_identity()


def test_adjoint_antihomomorphism():
    rng = random.Random(7)
    for N in (2, 3, 4):
        for _ in range(30):
            p = _random_word(rng, N, 3)
            q = _random_word(rng, N, 3)
            lhs = pauli_adjoint(pauli_mul(p, q))
            rhs = pauli_mul(pauli_adjoint(q), pauli_adjoint(p))
            assert lhs == rhs
            assert pauli_mul(p, pauli_adjoint(p)).is_identity()


def test_negative_power_is_adjoint_power():
    p = from_terms(4, 2, [(0, 1, 3), (1, 2, 0)], phase=3)
    assert pauli_pow(p, -2) == pauli_pow(pauli_adjoint(p), 2)


def _closure_order(gens):
    seen = {gens[0].is_identity and None}  # placeholder replaced below
    start = identity(gens[0].modulus, gens[0].sites)
    seen = {(start.terms, start.phase_exp)}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = pauli_mul(cur, g)
            key = (nxt.terms, nxt.phase_exp)
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)
    return len(seen)


def test_generated_group_order_divides_pauli_group_order():
    rng = random.Random(11)
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
    for N, n in cases:
        for _ in range(2):
            gens = [_random_word(rng, N, n) for _ in range(2)]
            order = _closure_order(gens)
            assert (2 * N * N ** (2 * n)) % order == 0


def test_text_round_trip():
    p = from_terms(4, 5, [(1, 1, 0), (3, 0, 2)], phase=5)
    text = to_text(p)
    assert text == "5|1:1,0;3:0,2"
    assert from_text(text, 4, 5) == p
    assert to_text(identity(3, 4)) == "0|"
    assert from_text("0|", 3, 4) == identity(3, 4)


@pytest.mark.parametrize("text,match", [
    ("0|5:1,0", "outside"), ("0|-1:1,0", "outside"), ("0|1:1,0;1:0,1", "repeated"),
    ("0|1:1", "not site:x,z"), ("0|1,1,0", "not site:x,z"), ("0|1:a,0", "invalid"),
    ("1.5|1:1,0", "invalid"), ("0", "missing"), ("0|1:1,0;", "not site:x,z")])
def test_from_text_rejects_malformed_words(text, match):
    with pytest.raises(ParseError, match=match):
        from_text(text, 2, 5)


def test_y_convention_at_n2():
    # Y = tau X Z is Hermitian and squares to the identity with no phase
    Y = single_site(2, 1, 0, x=1, z=1, phase=1)
    assert pauli_adjoint(Y) == Y
    assert pauli_mul(Y, Y).is_identity()


# ----------------------------------------------------------------------
# the sparse core against the dense reference (tests/pauli_reference.py)
# ----------------------------------------------------------------------

OF_REFERENCE = settings(max_examples=150, deadline=None, derandomize=True)
MODULI = [2, 3, 4, 6, 12]


@st.composite
def words(draw, N, sites, count):
    """``count`` words on one register; exponents drawn beyond [0, N) and
    sparse supports, so reduction and empty sites are both exercised."""
    exp = st.integers(-2 * N, 2 * N)
    out = []
    for _ in range(count):
        support = draw(st.dictionaries(st.integers(0, sites - 1), st.tuples(exp, exp),
                                       max_size=sites))
        xs = [0] * sites
        zs = [0] * sites
        for site, (x, z) in support.items():
            xs[site], zs[site] = x, z
        out.append(ref.from_dense(N, xs, zs, draw(st.integers(-4 * N, 4 * N))))
    return out


@st.composite
def register(draw, count):
    N = draw(st.sampled_from(MODULI))
    sites = draw(st.integers(1, 6))
    return N, sites, draw(words(N, sites, count))


@OF_REFERENCE
@given(register(2))
def test_sparse_core_matches_dense_reference(case):
    N, sites, (p, q) = case
    dp, dq = ref.dense(p), ref.dense(q)
    assert p.terms == tuple((s, x, z) for s, (x, z) in enumerate(zip(dp.x_exp, dp.z_exp))
                            if x or z)
    assert ref.dense(pauli_mul(p, q)) == ref.pauli_mul(dp, dq)
    assert ref.dense(pauli_adjoint(p)) == ref.pauli_adjoint(dp)
    assert commutation_exponent(p, q) == ref.commutation_exponent(dp, dq)
    assert to_text(p) == ref.to_text(dp)
    assert p.support() == tuple(s for s in range(sites) if dp.x_exp[s] or dp.z_exp[s])
    assert p.weight() == len(p.support())
    for k in range(-N - 1, 2 * N + 2):
        assert ref.dense(pauli_pow(p, k)) == ref.pauli_pow(dp, k)


@OF_REFERENCE
@given(register(4), st.data())
def test_from_terms_and_products_match_dense_reference(case, data):
    N, sites, ws = case
    exp = st.integers(-2 * N, 2 * N)
    terms = data.draw(st.lists(st.tuples(st.integers(0, sites - 1), exp, exp), max_size=10))
    phase = data.draw(st.integers(-4 * N, 4 * N))
    assert ref.dense(from_terms(N, sites, terms, phase)) == ref.from_terms(N, sites, terms,
                                                                           phase)
    fold = ref.identity(N, sites)
    for w in ws:
        fold = ref.pauli_mul(fold, ref.dense(w))
    assert ref.dense(pauli_prod(N, sites, ws)) == fold


def _merged_constructor(modulus, sites, terms, phase):
    """Repeated sites merged left to right, then the constructor's normal form."""
    acc = {}
    for s, x, z in terms:
        if s in acc:
            px, pz = acc[s]
            phase += 2 * pz * x
            acc[s] = (px + x, pz + z)
        else:
            acc[s] = (x, z)
    return PauliOp(modulus, sites, tuple((s, x, z) for s, (x, z) in acc.items()), phase)


def _outcome(build, *args):
    try:
        return build(*args)
    except ShapeError as exc:
        return f"ShapeError: {exc}"


@OF_REFERENCE
@given(st.sampled_from([-3, 0, 1] + MODULI), st.integers(1, 5), st.data())
def test_from_terms_normal_form_matches_constructor(N, sites, data):
    # sites one beyond either end of the register, repeated sites, and
    # exponents and phases beyond [0, N); a modulus below 2 raises first
    span = max(N, 2)
    exp = st.integers(-2 * span, 2 * span)
    inside = st.integers(0, sites - 1)
    site = inside | st.sampled_from([-1, sites]) if data.draw(st.booleans()) else inside
    terms = data.draw(st.lists(st.tuples(site, exp, exp), max_size=10))
    phase = data.draw(st.integers(-4 * span, 4 * span))
    got = _outcome(from_terms, N, sites, terms, phase)
    assert got == _outcome(_merged_constructor, N, sites, terms, phase)
    if isinstance(got, PauliOp):
        assert got.terms == tuple(sorted(got.terms))
        if all(0 <= s < sites for s, _, _ in terms):
            assert ref.dense(got) == ref.from_terms(N, sites, terms, phase)


def test_from_terms_error_texts():
    for N in (0, 1, -2):
        with pytest.raises(ShapeError, match=f"^modulus must be >= 2, got {N}$"):
            from_terms(N, 3, [(0, 1, 0)])
    for s in (-1, 3):
        with pytest.raises(ShapeError, match="^word acts outside its 3-site register$"):
            from_terms(2, 3, [(s, 1, 0)])
    # a site whose exponents cancel or vanish mod N is dropped, as in the constructor
    assert from_terms(2, 3, [(7, 1, 0), (7, 1, 0)]) == PauliOp(2, 3, ((7, 2, 0),))
    assert from_terms(2, 3, [(7, 1, 0), (7, 1, 0)]).terms == ()


@OF_REFERENCE
@given(register(6))
def test_sort_key_orders_like_dense_vectors(case):
    N, sites, ws = case
    # equal-support variants make ties in one block and differences in the other
    ws = ws + [pauli_mul(w, single_site(N, sites, 0, z=1)) for w in ws[:2]]
    assert (sorted(ws, key=sort_key) ==
            sorted(ws, key=lambda w: ref.sort_key(ref.dense(w))))
    for p in ws:
        for q in ws:
            assert (sort_key(p) < sort_key(q)) == (ref.sort_key(ref.dense(p))
                                                   < ref.sort_key(ref.dense(q)))


@OF_REFERENCE
@given(register(3))
def test_group_laws(case):
    N, sites, (p, q, r) = case
    # associativity, phases included
    assert pauli_mul(pauli_mul(p, q), r) == pauli_mul(p, pauli_mul(q, r))
    # (pq)^dagger = q^dagger p^dagger
    assert pauli_adjoint(pauli_mul(p, q)) == pauli_mul(pauli_adjoint(q), pauli_adjoint(p))
    # the commutation exponent is antisymmetric
    assert (commutation_exponent(p, q) + commutation_exponent(q, p)) % N == 0
    # p^order = I exactly, and no smaller positive power is
    k = ref.order(p)
    assert pauli_pow(p, k).is_identity()
    assert not any(pauli_pow(p, j).is_identity() for j in range(1, k))


def test_constructor_normal_form_and_views():
    p = PauliOp(4, 5, ((3, 4, 2), (1, -1, 0), (0, 8, 4)), phase_exp=-1)
    assert p.terms == ((1, 3, 0), (3, 0, 2))
    assert p.phase_exp == 7
    assert ref.x_exp(p) == (0, 3, 0, 0, 0) and ref.z_exp(p) == (0, 0, 0, 2, 0)
    assert p == ref.from_dense(4, ref.x_exp(p), ref.z_exp(p), 7)
    assert hash(p) == hash(from_text(to_text(p), 4, 5))
    with pytest.raises(ShapeError, match="repeats"):
        PauliOp(2, 3, ((1, 1, 0), (1, 0, 1)))
    with pytest.raises(ShapeError, match="outside"):
        PauliOp(2, 3, ((3, 1, 0),))
    with pytest.raises(ShapeError, match="outside"):
        from_terms(2, 3, [(-1, 1, 0)])
