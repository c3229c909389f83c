"""Pauli-word algebra: products, phases, commutation, serialization."""

import random

import pytest

from quditlab.errors import ParseError, ShapeError
from quditlab.pauli import (PauliOp, commutation_exponent, from_terms, from_text,
                            identity, pauli_adjoint, pauli_mul, pauli_pow,
                            single_site, to_text)


def test_z4_zx_reordering_phase():
    # Z X = omega X Z on a single Z_4 qudit: phase exponent differs by 2
    X = single_site(4, 1, 0, x=1)
    Z = single_site(4, 1, 0, z=1)
    zx = pauli_mul(Z, X)
    xz = pauli_mul(X, Z)
    assert zx.x_exp == xz.x_exp and zx.z_exp == xz.z_exp
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
    assert X.order() == 4 and Z.order() == 4


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
    return PauliOp(N, tuple(rng.randrange(N) for _ in range(n)),
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
    seen = {(start.x_exp, start.z_exp, start.phase_exp)}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = pauli_mul(cur, g)
            key = (nxt.x_exp, nxt.z_exp, nxt.phase_exp)
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
