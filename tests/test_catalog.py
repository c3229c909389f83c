"""Anyon-theory tables: fusion, twists, modular data, Majorana braiding."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdim_reference as qdim_ref
from majorana_reference import MajoranaWord, majorana_braid
from quditlab.catalog import (AnyonTheory, QDim, _pointed, builtin_theory, is_isomorphic,
                              modular_data, monodromy, product_theory, s_unitary,
                              turn_to_str)
from quditlab.errors import UnsupportedModelError
from theory_reference import validate

ALL_BUILTINS = [("toric", None), ("z_n", 2), ("z_n", 3), ("z_n", 4),
                ("semion", None), ("doubled_semion", None), ("ising", None),
                ("ising_like_twist", None)]


def test_all_builtins_validate():
    for name, n in ALL_BUILTINS:
        validate(builtin_theory(name, n))


def test_unknown_name():
    with pytest.raises(UnsupportedModelError):
        builtin_theory("fibonacci")


def test_toric_fusion_and_dims():
    t = builtin_theory("toric")
    assert t.fuse("e", "m") == {"em": 1}
    assert t.fuse("e", "em") == {"m": 1}
    assert t.fuse("em", "em") == {"1": 1}
    assert all(t.dim[a] == QDim(1) for a in t.labels)
    assert t.total_dim == QDim(2)


def test_unit_law_everywhere():
    for name, n in ALL_BUILTINS:
        t = builtin_theory(name, n)
        for a in t.labels:
            assert t.fuse(a, t.unit) == {a: 1}


def test_ising_like_twist_fusion():
    t = builtin_theory("ising_like_twist")
    assert t.fuse("sig+", "sig+") == {"1": 1, "eps": 1}
    assert t.fuse("sig+", "sig-") == {"e": 1, "m": 1}
    assert t.fuse("sig+", "eps") == {"sig+": 1}
    assert t.fuse("sig+", "e") == {"sig-": 1}
    assert t.fuse("sig+", "m") == {"sig-": 1}
    assert t.twist["sig+"] == Fraction(1, 4)
    assert t.twist["sig-"] == Fraction(3, 4)


def test_twist_values():
    z4 = builtin_theory("z_n", 4)
    assert z4.twist["e2m2"] == 0          # i^4 = 1
    assert z4.twist["em"] == Fraction(1, 4)
    z2 = builtin_theory("z_n", 2)
    assert z2.twist["em"] == Fraction(1, 2)  # (-1)^{pq}
    ds = builtin_theory("doubled_semion")
    assert ds.twist["s"] == Fraction(1, 4)
    assert ds.twist["sbar"] == Fraction(3, 4)
    assert ds.twist["ssbar"] == 0
    ising = builtin_theory("ising")
    assert ising.twist["sigma"] == Fraction(1, 16)
    assert ising.twist["psi"] == Fraction(1, 2)
    assert builtin_theory("semion").twist["s"] == Fraction(1, 4)
    for name, n in ALL_BUILTINS:
        assert builtin_theory(name, n).twist["1"] == 0


def test_ising_dimension_is_root_two():
    ising = builtin_theory("ising")
    assert ising.dim["sigma"] == QDim(0, 1)
    assert str(ising.dim["sigma"]) == "2^{1/2}"
    assert ising.dim["sigma"] * ising.dim["sigma"] == QDim(2)


def test_monodromy():
    z4 = builtin_theory("z_n", 4)
    # c_{e,e2m2} o c_{e2m2,e} = theta(e3m2) = -1
    assert monodromy(z4, "e", "e2m2") == Fraction(1, 2)
    assert monodromy(z4, "e", "1") == 0
    z2 = builtin_theory("z_n", 2)
    assert monodromy(z2, "e", "m") == Fraction(1, 2)
    with pytest.raises(UnsupportedModelError):
        monodromy(builtin_theory("ising"), "sigma", "sigma")


def test_monodromy_is_bicharacter():
    for name, n in (("z_n", 2), ("z_n", 3), ("z_n", 4), ("doubled_semion", None)):
        t = builtin_theory(name, n)
        for a in t.labels:
            for b in t.labels:
                for c in t.labels:
                    (bc,) = t.fuse(b, c)
                    lhs = monodromy(t, a, bc)
                    rhs = (monodromy(t, a, b) + monodromy(t, a, c)) % 1
                    assert lhs == rhs


def test_toric_modular_data_matches_tabulated_matrix():
    t = builtin_theory("toric")
    s, t_diag = modular_data(t)
    expected = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    for i in range(4):
        for j in range(4):
            mag, turn = s[i][j]
            value = mag * QDim(2)  # strip the 1/D normalization
            sign = 1 if turn == 0 else -1
            assert value == QDim(1) and sign == expected[i][j]
    assert [turn_to_str(x) for x in t_diag] == ["1", "1", "1", "-1"]


def test_s_row_zero_proportional_to_dims():
    for name, n in ALL_BUILTINS:
        t = builtin_theory(name, n)
        try:
            s, _ = modular_data(t)
        except UnsupportedModelError:
            continue
        for j, b in enumerate(t.labels):
            mag, turn = s[0][j]
            assert turn == 0
            assert mag == t.dim[b] / t.total_dim


def test_s_unitary():
    assert s_unitary(builtin_theory("toric"))
    assert s_unitary(builtin_theory("doubled_semion"))
    assert s_unitary(builtin_theory("ising"))


def test_no_s_matrix_for_twist_theory():
    with pytest.raises(UnsupportedModelError):
        modular_data(builtin_theory("ising_like_twist"))


def test_twist_theory_is_not_doubled_ising():
    ilt = builtin_theory("ising_like_twist")
    doubled = product_theory(builtin_theory("ising"), builtin_theory("ising"))
    validate(doubled)
    assert len(doubled.labels) == 9
    assert not is_isomorphic(ilt, doubled)
    # quantum-dimension obstruction: D = 2*sqrt(2) versus 4
    assert ilt.total_dim == QDim(0, 2)
    assert doubled.total_dim == QDim(4)
    assert ilt.total_dim != doubled.total_dim
    # sigma+ x sigma+ differs from sigma+ x sigma-: no relabeling can merge them
    assert ilt.fuse("sig+", "sig+") != ilt.fuse("sig+", "sig-")


def test_condensed_vs_builtin_isomorphism_helper():
    assert is_isomorphic(builtin_theory("toric"), builtin_theory("z_n", 2))
    assert not is_isomorphic(builtin_theory("toric"), builtin_theory("doubled_semion"))


def test_turn_to_str():
    assert turn_to_str(Fraction(0)) == "1"
    assert turn_to_str(Fraction(1, 4)) == "i"
    assert turn_to_str(Fraction(1, 2)) == "-1"
    assert turn_to_str(Fraction(3, 4)) == "-i"
    assert turn_to_str(Fraction(1, 16)) == "e^{2*pi*i*1/16}"


def test_majorana_normal_ordering():
    w = MajoranaWord.from_factors(4, [2, 0])
    assert w.factors == (0, 2) and w.sign == -1
    assert MajoranaWord.from_factors(4, [1, 1]).factors == ()
    w = MajoranaWord.from_factors(4, [3, 1, 3])
    assert w.factors == (1,) and w.sign == -1  # c3 c1 c3 = -c1


def test_majorana_braid():
    c0 = MajoranaWord.from_factors(4, [0])
    assert majorana_braid(c0, 0).factors == (1,)
    c3 = MajoranaWord.from_factors(4, [3])
    assert majorana_braid(c3, 0) == c3  # untouched generators are fixed
    twice = majorana_braid(majorana_braid(c0, 0), 0)
    assert twice.factors == (0,) and twice.sign == -1
    with pytest.raises(ValueError):
        majorana_braid(c0, 3)


def test_majorana_pair_charge_flips_under_double_exchange():
    pair = MajoranaWord.from_factors(4, [0, 1])
    braided = majorana_braid(majorana_braid(pair, 1), 1)
    assert braided.factors == (0, 1) and braided.sign == -pair.sign


# coefficients of a + b*sqrt(2): small Fractions and plain ints
COEFFS = st.one_of(st.integers(-20, 20),
                   st.fractions(min_value=-20, max_value=20, max_denominator=12))


def _same(got, want):
    assert type(got.a) is Fraction and type(got.b) is Fraction
    assert (got.a, got.b) == (want.a, want.b)
    assert str(got) == str(want)
    assert got.is_zero() == want.is_zero()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(COEFFS, COEFFS, COEFFS, COEFFS, st.integers(-6, 6))
def test_qdim_matches_fraction_reference(a1, b1, a2, b2, k):
    x, y = QDim(a1, b1), QDim(a2, b2)
    rx, ry = qdim_ref.QDim(a1, b1), qdim_ref.QDim(a2, b2)
    _same(x, rx)
    _same(y, ry)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(x * y, rx * ry)
    _same(-x, -rx)
    _same(x + k, rx + k)
    _same(x - k, rx - k)
    _same(x * k, rx * k)
    for num, den, rnum, rden in ((x, y, rx, ry), (x, k, rx, k)):
        if (rden.is_zero() if isinstance(rden, qdim_ref.QDim) else rden == 0):
            with pytest.raises(ZeroDivisionError):
                num / den
            with pytest.raises(ZeroDivisionError):
                rnum / rden
        else:
            _same(num / den, rnum / rden)
            assert num / den * den == num
            assert hash(num / den * den) == hash(num)
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    assert (x == a1) == (rx == a1)
    if x == y:
        assert hash(x) == hash(y)
    assert x == QDim(Fraction(a1), Fraction(b1)) and hash(x) == hash(QDim(Fraction(a1), Fraction(b1)))


def test_qdim_arithmetic_builds_no_fraction(monkeypatch):
    x, y = QDim(Fraction(3, 4), Fraction(-1, 6)), QDim(2, 5)
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    results = [x + y, x - y, x * y, x / y, -x, x + 3, x * 2, y / 7]
    facts = [x == y, x != y, hash(x), x.is_zero()] + [str(r) for r in results]
    assert facts and made == []
    coefficient = x.a  # reading a coefficient is what builds a Fraction
    assert len(made) == 1 and coefficient == Fraction(3, 4)


def test_modular_data_of_a_pointed_theory_divides_once(monkeypatch):
    divisions = []
    real_div = QDim.__truediv__

    def counting_div(self, other):
        divisions.append(other)
        return real_div(self, other)

    monkeypatch.setattr(QDim, "__truediv__", counting_div)
    z8 = builtin_theory("z_n", 8)
    s, _ = modular_data(z8)
    assert len(divisions) == 1
    assert {mag for row in s for mag, _ in row} == {QDim(Fraction(1, 8))}


def _relabelled(theory, seed):
    """``theory`` under shuffled label names and a shuffled label order (unit first)."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(len(theory.labels))]
    rng.shuffle(names)
    new = dict(zip(theory.labels, names))
    others = [new[a] for a in theory.labels[1:]]
    rng.shuffle(others)
    fusion = {(new[a], new[b]): {new[c]: m for c, m in out.items()}
              for (a, b), out in theory.fusion.items()}
    return AnyonTheory("relabelled", (new[theory.unit], *others), fusion,
                       {new[a]: t for a, t in theory.twist.items()},
                       {new[a]: d for a, d in theory.dim.items()}, theory.total_dim)


def test_is_isomorphic_answers_sixteen_labels_quickly():
    z4 = builtin_theory("z_n", 4)
    toric = builtin_theory("toric")
    start = time.perf_counter()
    assert not is_isomorphic(z4, product_theory(toric, toric))
    assert is_isomorphic(z4, _relabelled(z4, 1))
    assert is_isomorphic(_relabelled(z4, 2), z4)
    assert time.perf_counter() - start < 1.0


def test_is_isomorphic_prunes_on_fusion():
    # Z_4 and Z_2 x Z_2 with the same twist and dimension multiset: only the
    # fusion tells them apart
    cyclic = _pointed("z4-group", (4,), ("1", "a", "a2", "a3"),
                      lambda e: Fraction(1, 2) if e == (2,) else 0)
    klein = builtin_theory("toric")
    assert sorted(cyclic.twist.values()) == sorted(klein.twist.values())
    assert not is_isomorphic(cyclic, klein)
    assert not is_isomorphic(klein, cyclic)
    assert is_isomorphic(cyclic, _relabelled(cyclic, 3))
