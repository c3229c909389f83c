"""Condensation: algebra validation, module orbits, locality, condensed theory."""

import hashlib
from fractions import Fraction

import pytest

from quditlab import condense
from quditlab.catalog import QDim, builtin_theory, is_isomorphic, monodromy, product_theory
from quditlab.cli import main
from quditlab.condense import (CondensableAlgebra, bulk_to_boundary, condensable_algebra,
                               condensed_theory, enumerate_condensable, local_modules,
                               right_modules, validate_condensable)
from quditlab.errors import NotCondensableError, QuditLabError, UnsupportedModelError
from theory_reference import brute_force_condensable, defect_line_image, validate

Z2 = builtin_theory("z_n", 2)
Z4 = builtin_theory("z_n", 4)


def test_validate_examples():
    assert validate_condensable(Z4, ["1", "e2m2"]) is None
    kind, label, witness = validate_condensable(Z2, ["1", "em"])
    assert kind == "not-a-boson" and label == "em" and witness == Fraction(1, 2)
    assert validate_condensable(Z2, ["1"]) is None


def test_validate_rejects_non_closed():
    assert validate_condensable(Z4, ["1", "e2"]) is None  # e2 x e2 = 1: fine
    # e x e = e2 is missing, the first check that fails
    assert validate_condensable(Z4, ["1", "e"]) == ("not-closed", "exe", "e2")


def test_unknown_summand_is_a_typed_error():
    with pytest.raises(QuditLabError, match="unknown label 'x' in theory z_4"):
        validate_condensable(Z4, ["1", "x"])
    with pytest.raises(QuditLabError, match="unknown label 'x' in theory z_4"):
        condensable_algebra(Z4, ["1", "x"])


def test_validate_needs_abelian():
    with pytest.raises(UnsupportedModelError):
        validate_condensable(builtin_theory("ising"), ["1", "psi"])


def test_every_construction_path_validates():
    # e is no boson and {1, e} no subgroup: building the algebra directly
    # must refuse it as condensable_algebra does
    for build in (lambda: CondensableAlgebra(Z4, ("1", "e")),
                  lambda: condensable_algebra(Z4, ["1", "e"])):
        with pytest.raises(NotCondensableError, match="not a condensable algebra") as info:
            build()
        assert isinstance(info.value, QuditLabError)
        assert info.value.failure == validate_condensable(Z4, ["1", "e"])
    direct = CondensableAlgebra(Z4, ("e2m2", "1", "e2m2"))
    assert direct == condensable_algebra(Z4, ["1", "e2m2"])
    assert direct.summands == ("1", "e2m2")
    assert CondensableAlgebra(Z2, ("1", "m")).boundary_tag == "smooth boundary"


def _counting(monkeypatch, name):
    calls = []
    real = getattr(condense, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(condense, name, counted)
    return calls


def test_condense_run_validates_once_and_builds_modules_once(monkeypatch, capsys):
    validations = _counting(monkeypatch, "validate_condensable")
    images = _counting(monkeypatch, "bulk_to_boundary")
    assert main(["condense", "z4", "1+e2m2"]) == 0
    assert "condensed-labels 1+e2m2 e2+m2 em+e3m3 e3m+em3" in capsys.readouterr().out
    assert len(validations) == 1
    assert len(images) == 8  # one per right module: computed once, then read
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    del validations[:], images[:]
    assert len(right_modules(alg)) == 8 and len(local_modules(alg)) == 4
    condensed_theory(alg)
    assert right_modules(alg) == right_modules(alg)
    assert len(validations) == 0 and len(images) == 8


def test_enumerate_validates_each_candidate_once(monkeypatch):
    validations = _counting(monkeypatch, "validate_condensable")
    algs = enumerate_condensable(Z4)
    checked = [tuple(args[1]) for args in validations]
    assert len(checked) == len(set(checked))
    assert {a.summands for a in algs} <= set(checked)


def test_enumerate_z2():
    algs = enumerate_condensable(Z2)
    assert [a.summands for a in algs] == [("1",), ("1", "e"), ("1", "m")]
    tags = {a.summands: a.boundary_tag for a in algs}
    assert tags[("1", "e")] == "rough boundary"
    assert tags[("1", "m")] == "smooth boundary"


def test_enumerate_semion_trivial_only():
    algs = enumerate_condensable(builtin_theory("semion"))
    assert [a.summands for a in algs] == [("1",)]


def test_enumerate_z4_contains_paper_algebra():
    algs = enumerate_condensable(Z4)
    assert ("1", "e2m2") in [a.summands for a in algs]


def test_seven_right_modules():
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    mods = right_modules(alg)
    nontrivial = sorted(m.summands for m in mods if "1" not in m.summands)
    assert nontrivial == [
        ("e", "e3m2"), ("e2", "m2"), ("e2m", "m3"), ("e3", "em2"),
        ("e3m", "em3"), ("em", "e3m3"), ("m", "e2m3")]
    assert len(mods) == 8  # orbits partition the sixteen labels into pairs
    for m in mods:
        assert len(alg.summands) % len(m.summands) == 0  # orbit size divides |A|
        assert m.dim == QDim(1)


def test_three_local_modules():
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    locs = local_modules(alg)
    nontrivial = sorted(m.summands for m in locs if "1" not in m.summands)
    assert nontrivial == [("e2", "m2"), ("e3m", "em3"), ("em", "e3m3")]
    assert len(locs) == 4


def test_confined_labels_match_monodromy_failures():
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    confined = set()
    for mod in right_modules(alg):
        if not mod.local:
            confined.update(mod.summands)
    assert confined == {"e", "e3m2", "m", "e2m3", "e3", "em2", "m3", "e2m"}
    for label in confined:
        assert monodromy(Z4, label, "e2m2") != 0


def test_condensed_theory_is_doubled_semion():
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    d = condensed_theory(alg)
    assert len(d.labels) == 4
    assert is_isomorphic(d, builtin_theory("doubled_semion"))
    # modularity at the numerical level: sum of squared dims = (D_C / dim A)^2
    total = QDim()
    for label in d.labels:
        total = total + d.dim[label] * d.dim[label]
    ratio = Z4.total_dim / alg.dim
    assert total == ratio * ratio


def test_boson_preservation():
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    for a in alg.summands:
        assert Z4.twist[a] == 0


def test_condense_by_trivial_algebra_is_identity():
    alg = condensable_algebra(Z4, ["1"])
    d = condensed_theory(alg)
    assert is_isomorphic(d, Z4)


def test_condense_z2_to_trivial():
    alg = condensable_algebra(Z2, ["1", "e"])
    d = condensed_theory(alg)
    assert d.labels == ("1+e",)
    assert d.total_dim == QDim(1)


def test_bulk_to_boundary_rows():
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    assert bulk_to_boundary(alg, "e").summands == ("e", "e3m2")
    assert bulk_to_boundary(alg, "1").summands == alg.summands
    assert bulk_to_boundary(alg, "e2m2").summands == ("1", "e2m2")
    assert bulk_to_boundary(alg, "m2").summands == ("e2", "m2")
    assert not bulk_to_boundary(alg, "e").local
    assert bulk_to_boundary(alg, "em").local


def test_defect_line_image():
    toric = builtin_theory("toric")
    assert defect_line_image(toric, "1") == {"e": 1, "m": 1}
    assert defect_line_image(toric, "e") == {"1": 1, "em": 1}
    assert defect_line_image(toric, "m") == {"1": 1, "em": 1}
    assert defect_line_image(toric, "em") == {"e": 1, "m": 1}
    for x in toric.labels:
        image = defect_line_image(toric, x)
        total = QDim()
        for label, mult in image.items():
            total = total + toric.dim[label] * mult
        assert total == QDim(2)
    with pytest.raises(UnsupportedModelError):
        defect_line_image(Z4, "1")


def test_orbits_partition_labels():
    alg = condensable_algebra(Z4, ["1", "e2m2"])
    seen = []
    for mod in right_modules(alg):
        seen.extend(mod.summands)
    assert sorted(seen) == sorted(Z4.labels)


# CLI name -> theory of every catalogued theory up to z6 (z7 and z8 have
# their own digest below); the pointed ones are condensed by each of their
# algebras
ANYON_THEORIES = {
    "toric": builtin_theory("toric"),
    "semion": builtin_theory("semion"),
    "doubled-semion": builtin_theory("doubled_semion"),
    "ising": builtin_theory("ising"),
    "ising_like_twist": builtin_theory("ising_like_twist"),
    **{f"z{n}": builtin_theory("z_n", n) for n in range(2, 7)},
}

# SHA-256 over the stdout of ``catalog`` for every theory above, then of
# ``condense`` for every ``enumerate_condensable`` algebra of the pointed
# ones; a change that alters an anyon report on purpose re-pins it and says so
ANYON_DIGEST_SHA256 = "ca5f6e1b1dec591eb128cbb7afa61e0b7d4ca4a9cd8c2b70eb49516a1119d728"


def test_anyon_layer_digest(capsys):
    digest = hashlib.sha256()
    runs = [["catalog", name] for name in ANYON_THEORIES]
    runs += [["condense", name, alg.label()]
             for name, theory in ANYON_THEORIES.items() if theory.is_abelian()
             for alg in enumerate_condensable(theory)]
    for argv in runs:
        assert main(argv) == 0, argv
        digest.update(" ".join(argv + ["0\n"]).encode())
        digest.update(capsys.readouterr().out.encode())
    assert len(runs) == 10 + 31
    assert digest.hexdigest() == ANYON_DIGEST_SHA256


# SHA-256 over the stdout of ``catalog`` of z7 and z8, then of ``condense``
# for each of the 13 ``enumerate_condensable`` algebras of z8, the largest
# theory the CLI takes (``cli.CONDENSE_MAX_N``, set by the N^4 cost of a
# catalog dump); same rule as above
Z8_DIGEST_SHA256 = "63c23ab2d81cfe1802545d96b95fc13948f32b7668df1d7365d81836f784bc02"


def test_anyon_layer_z8_digest(capsys):
    digest = hashlib.sha256()
    runs = [["catalog", "z7"], ["catalog", "z8"]]
    runs += [["condense", "z8", alg.label()]
             for alg in enumerate_condensable(builtin_theory("z_n", 8))]
    for argv in runs:
        assert main(argv) == 0, argv
        digest.update(" ".join(argv + ["0\n"]).encode())
        digest.update(capsys.readouterr().out.encode())
    assert len(runs) == 2 + 13
    assert digest.hexdigest() == Z8_DIGEST_SHA256


TORIC = builtin_theory("toric")
TORIC2 = product_theory(TORIC, TORIC)
TORIC3 = product_theory(TORIC2, TORIC)
# every Z_N the CLI condenses, and the toric code stacked twice and three times
POINTED = [builtin_theory("z_n", n) for n in range(2, 9)] + [TORIC2, TORIC3]


@pytest.mark.parametrize("theory", POINTED, ids=lambda t: t.name)
def test_enumerate_finds_every_algebra_of_at_most_three_bosons(theory):
    algs = [a.summands for a in enumerate_condensable(theory)]
    assert algs == sorted(algs, key=lambda s: (len(s), s))
    assert len(set(algs)) == len(algs)
    assert set(algs) == brute_force_condensable(theory)


def test_toric_cubed_has_thirty_lagrangian_algebras():
    sizes = [len(a.summands) for a in enumerate_condensable(TORIC3)]
    assert len(sizes) == 171
    # one Lagrangian subgroup per prod_{i<3} (2^i + 1) = 30, each condensing to nothing
    assert sizes.count(8) == 30
    assert [len(condensed_theory(a).labels) for a in enumerate_condensable(TORIC3)
            if len(a.summands) == 8] == [1] * 30


@pytest.mark.parametrize("theory", POINTED, ids=lambda t: t.name)
def test_every_condensed_theory_passes_the_axiom_oracle(theory):
    # the built-in theories themselves: test_catalog.test_all_builtins_validate
    for alg in enumerate_condensable(theory):
        new = validate(condensed_theory(alg))
        mods = list(zip(local_modules(alg), new.labels))
        for mod, label in mods:
            # a module's summands share the twist its condensed label carries
            assert {theory.twist[s] for s in mod.summands} == {new.twist[label]}
            assert mod.dim == new.dim[label] == QDim(1)
        for mod1, l1 in mods:
            for mod2, l2 in mods:
                # every summand of one local module times the other lands in
                # the module the condensed fusion names
                (product,) = new.fusion[(l1, l2)]
                for s1 in mod1.summands:
                    (c,) = theory.fusion[(s1, mod2.summands[-1])]
                    assert c in product.split("+")
