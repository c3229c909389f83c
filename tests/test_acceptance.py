"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.

Criterion 1 is split in two: the logical-dimension rows that the lattice
algebra reproduces, and the three condensate-patch rows whose published
values are unattainable for any commuting surgery with the published
footprint (the generators carry a third order-2 relation beyond the two
published trivial constraints; see the quartet-identity test in
tests/test_defects.py and the README).  Those three are asserted exactly
as stated and fail honestly.
"""

import random
import time
from fractions import Fraction

from quditlab import engine
from quditlab.catalog import QDim, builtin_theory, is_isomorphic, modular_data, s_unitary
from quditlab.condense import _algebra, condensed_theory, local_modules, right_modules
from quditlab.decoders import (BruteForceOracle, classify_residual,
                               decode_doubled_semion, decode_toric,
                               monte_carlo_trial)
from quditlab.defects import (apply_bombin_twist, apply_dislocation,
                              apply_ds_patch, apply_kitaev_twist,
                              apply_z4_patch_in_ds, couple_bilayer)
from quditlab.dsemion import build_doubled_semion, extract_topological_spin
from quditlab.engine import (GeneratorMatrix, brute_force_subgroup_order,
                             subgroup_order)
from quditlab.lattice import (build_bombin_lattice, build_toric_code,
                              toric_string_operator)
from quditlab.pauli import pauli_mul, single_site


def _timed(fn):
    start = time.monotonic()
    value = fn()
    return value, time.monotonic() - start


def test_criterion_1_logical_dimension_table():
    rows = []

    def check(label, fn, expected):
        value, dt = _timed(fn)
        rows.append((label, value, expected, dt))
        assert value == expected, f"{label}: got {value}, expected {expected}"
        assert dt < 1.0, f"{label}: took {dt:.2f}s (budget 1s)"

    check("Z2 toric 4x4", lambda: engine.logical_dimension(build_toric_code(4, 4, 2)), 4)
    check("Z2 toric 6x6", lambda: engine.logical_dimension(build_toric_code(6, 6, 2)), 4)
    for n in (2, 3, 4):
        check(f"Z{n} toric 4x4",
              lambda n=n: engine.logical_dimension(build_toric_code(4, 4, n)), n * n)
    check("Bombin 4x4", lambda: engine.logical_dimension(build_bombin_lattice(4, 4)), 4)

    tc = build_toric_code(6, 6, 2)
    bomb = build_bombin_lattice(6, 8)
    check("twists (i)", lambda: apply_dislocation(tc, "i", 1, 1)[1].dim_after, 4)
    check("twists (ii)", lambda: apply_dislocation(tc, "ii", 0, 2)[1].dim_after, 2)
    check("twists (iii)", lambda: apply_bombin_twist(bomb, x0=2, y0=1, width=2)[1].dim_after, 4)
    check("twists (iv)", lambda: apply_bombin_twist(bomb, x0=2, y0=1, width=3)[1].dim_after, 4)
    check("twists (v)",
          lambda: apply_bombin_twist(bomb, y0=1, contractible=False)[1].dim_after, 2)

    a = build_toric_code(4, 4, 2)
    b = build_toric_code(4, 4, 2)
    check("wormhole (i)", lambda: couple_bilayer(a, b, "i")[1].dim_after, 16)
    check("wormhole (ii)", lambda: couple_bilayer(a, b, "ii")[1].dim_after, 32)
    for label, value, expected, dt in rows:
        print(f"PASS criterion 1 [{label}]: dimension {value} ({dt * 1000:.0f} ms)")


def test_criterion_1_ds_patch_rows():
    """The three published condensate-patch dimensions, asserted as stated.

    These fail: the honest Smith-normal-form dimensions are 16, 8 and 4
    (the four hop generators multiply to A(center)^2 B(SW)^2, an order-2
    relation beyond the two published trivial constraints, and no local
    commuting surgery can reach the published numbers).  Kept red on
    purpose; do not loosen.
    """
    tc = build_toric_code(4, 4, 4)
    results = {}
    results["contractible"] = apply_ds_patch(tc, 1, 1, contractible=True)[1].dim_after
    results["ring"] = apply_ds_patch(tc, y=1, contractible=False)[1].dim_after
    ds = build_doubled_semion(4, 4)
    results["z4-in-ds"] = apply_z4_patch_in_ds(ds, 1, 1)[1].dim_after
    failures = []
    for label, expected in (("contractible", 8), ("ring", 4), ("z4-in-ds", 2)):
        status = "PASS" if results[label] == expected else "FAIL"
        print(f"{status} criterion 1 [DS patch {label}]: dimension "
              f"{results[label]} (published value {expected})")
        if results[label] != expected:
            failures.append((label, expected, results[label]))
    assert not failures, (
        "published condensate-patch dimensions are not reproducible by any "
        f"commuting surgery with the published footprint: {failures}; "
        "the hop generators multiply to A(center)^2 B(SW)^2 (see "
        "tests/test_defects.py) and local generator products are homology-trivial")


def test_criterion_2_topological_spins():
    ds = build_doubled_semion(6, 6)
    (spin_s, dt1) = _timed(lambda: extract_topological_spin(ds, (3, 3), "s"))
    spin_sbar = extract_topological_spin(ds, (3, 3), "sbar")
    spin_ssbar = extract_topological_spin(ds, (3, 3), "ssbar")
    assert (spin_s, spin_sbar, spin_ssbar) == (1, 3, 0)  # i, -i, 1
    assert dt1 < 1.0
    print(f"PASS criterion 2: theta(s)=i theta(sbar)=-i theta(ssbar)=1 "
          f"({dt1 * 1000:.0f} ms)")


def test_criterion_3_condensation():
    start = time.monotonic()
    z4 = builtin_theory("z_n", 4)
    alg = _algebra(z4, ["1", "e2m2"])
    mods = [m for m in right_modules(z4, alg) if "1" not in m.summands]
    assert len(mods) == 7
    assert sorted(m.summands for m in mods) == [
        ("e", "e3m2"), ("e2", "m2"), ("e2m", "m3"), ("e3", "em2"),
        ("e3m", "em3"), ("em", "e3m3"), ("m", "e2m3")]
    locs = [m for m in local_modules(z4, alg) if "1" not in m.summands]
    assert sorted(m.summands for m in locs) == [
        ("e2", "m2"), ("e3m", "em3"), ("em", "e3m3")]
    condensed = condensed_theory(z4, alg)
    assert is_isomorphic(condensed, builtin_theory("doubled_semion"))
    dt = time.monotonic() - start
    assert dt < 1.0
    print(f"PASS criterion 3: 7 right modules, 3 local, condensed theory is "
          f"the doubled semion ({dt * 1000:.0f} ms)")


def test_criterion_4_modular_data():
    toric = builtin_theory("toric")
    s, t_diag = modular_data(toric)
    tabulated = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    for i in range(4):
        for j in range(4):
            mag, turn = s[i][j]
            sign = 1 if turn == 0 else -1
            assert mag * QDim(2) == QDim(1)
            assert sign == tabulated[i][j]
    assert t_diag == (Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2))
    assert s_unitary(toric)
    assert s_unitary(builtin_theory("doubled_semion"))
    for name, n in (("toric", None), ("z_n", 3), ("z_n", 4), ("semion", None),
                    ("doubled_semion", None), ("ising", None)):
        theory = builtin_theory(name, n)
        srow = modular_data(theory)[0][0]
        for j, label in enumerate(theory.labels):
            mag, turn = srow[j]
            assert turn == 0 and mag == theory.dim[label] / theory.total_dim
    print("PASS criterion 4: toric S/T match the tabulated matrices, S unitary "
          "for toric and doubled semion, S row 0 proportional to dimensions")


def test_criterion_5_subgroup_order_oracle():
    rng = random.Random(2026)
    start = time.monotonic()
    for trial in range(200):
        n = rng.randint(1, 3)
        mod = rng.choice([2, 3, 4])
        k = rng.randint(1, 5)
        rows = tuple(tuple(rng.randrange(mod) for _ in range(2 * n)) for _ in range(k))
        gm = GeneratorMatrix.from_dense(mod, rows, 2 * n)
        assert subgroup_order(gm) == brute_force_subgroup_order(gm), (mod, n, rows)
    dt = time.monotonic() - start
    assert dt < 30.0
    print(f"PASS criterion 5: 200 random generator sets agree with brute-force "
          f"enumeration ({dt:.1f} s)")


def test_criterion_6_decoder_sweeps():
    start = time.monotonic()
    tc = build_toric_code(4, 4, 2)
    oracle = BruteForceOracle(tc, 3)
    singles = [(s, a, b) for s in range(tc.n_sites)
               for a, b in ((1, 0), (0, 1), (1, 1))]
    checked = 0
    for i, (s1, a1, b1) in enumerate(singles):
        e1 = single_site(2, tc.n_sites, s1, x=a1, z=b1)
        for j in range(i, len(singles)):
            s2, a2, b2 = singles[j]
            if s2 == s1 and j > i:
                continue
            err = e1 if j == i else pauli_mul(
                e1, single_site(2, tc.n_sites, s2, x=a2, z=b2))
            syn = engine.syndrome(tc, err)
            corr = decode_toric(tc, syn)
            residual = pauli_mul(err, corr.op)
            assert not engine.syndrome(tc, residual), "syndrome not cleared"
            ref = pauli_mul(err, oracle.decode(syn).op)
            assert classify_residual(tc, residual) == classify_residual(tc, ref)
            checked += 1

    ds = build_doubled_semion(4, 4)
    ds_oracle = BruteForceOracle(ds, 3)
    ds_checked = 0
    for site in range(ds.n_sites):
        for a in range(4):
            for b in range(4):
                if a == 0 and b == 0:
                    continue
                err = single_site(4, ds.n_sites, site, x=a, z=b)
                syn = engine.syndrome(ds, err)
                corr = decode_doubled_semion(ds, syn)
                residual = pauli_mul(err, corr.op)
                assert not engine.syndrome(ds, residual), "DS syndrome not cleared"
                ref = pauli_mul(err, ds_oracle.decode(syn).op)
                assert classify_residual(ds, residual) == classify_residual(ds, ref)
                ds_checked += 1
    dt = time.monotonic() - start
    assert dt < 120.0
    print(f"PASS criterion 6: {checked} toric errors (weight <= 2) and "
          f"{ds_checked} doubled-semion errors (weight 1) decode soundly and "
          f"match the brute-force oracle ({dt:.0f} s)")


def test_criterion_7_confinement():
    ds = build_doubled_semion(10, 10)
    tc = build_toric_code(10, 10, 2)
    ds_energy = []
    tc_energy = []
    for length in range(1, 9):
        path = [(1 + k, 4) for k in range(length + 1)]
        ds_energy.append(engine.excitation_energy(
            ds, toric_string_operator(ds, path, "m")))
        tc_energy.append(engine.excitation_energy(
            tc, toric_string_operator(tc, path, "m")))
    assert tc_energy == [2] * 8
    for shorter, longer in zip(ds_energy, ds_energy[1:]):
        assert longer >= shorter + 1
    print(f"PASS criterion 7: doubled-semion X-string energies {ds_energy} grow "
          f"with unit slope; toric energies stay {tc_energy[0]}")


def test_criterion_8_twist_transport():
    start = time.monotonic()
    tc = build_toric_code(8, 8, 2)
    m1, _ = apply_kitaev_twist(tc, 0, 2, contractible=False)
    m2, _ = apply_kitaev_twist(m1, 0, 5, contractible=False)
    once = pauli_mul(toric_string_operator(m2, [(3, 0), (3, 1), (3, 2)], "e"),
                     toric_string_operator(m2, [(3, 2), (3, 3), (3, 4)], "m"))
    syn = engine.syndrome(m2, once)
    kinds = sorted(syn.kinds[g] for g in syn.exponents)
    assert kinds == ["plaquette", "vertex"], "one crossing must swap the kinds"
    geo = m2.geometry
    twice = pauli_mul(pauli_mul(pauli_mul(
        once, toric_string_operator(m2, [(3, 4), (3, 5)], "m")),
        single_site(2, m2.n_sites, geo.edge_index("h", 3, 5), z=1)),
        toric_string_operator(m2, [(4, 5), (4, 6), (4, 7)], "e"))
    syn2 = engine.syndrome(m2, twice)
    kinds2 = sorted(syn2.kinds[g] for g in syn2.exponents)
    assert kinds2 == ["vertex", "vertex"], "two crossings must restore the kinds"
    dt = time.monotonic() - start
    assert dt < 1.0
    print(f"PASS criterion 8: crossing a twist line swaps vertex and plaquette "
          f"violations, crossing twice restores them ({dt * 1000:.0f} ms)")


def test_criterion_9_monte_carlo_bound():
    start = time.monotonic()
    tc = build_toric_code(4, 4, 2)
    res = monte_carlo_trial(tc, decode_toric, 1e-3, 10000, seed=2026)
    dt = time.monotonic() - start
    assert res.trials == 10000
    assert res.failure_rate < 5e-3, res.failure_rate
    assert dt < 60.0
    print(f"PASS criterion 9: logical failure rate {res.failure_rate:.6f} < 5e-3 "
          f"over {res.trials} seeded trials ({dt:.0f} s)")


def test_criterion_10_report_determinism():
    from quditlab.cli import parse_config, run

    text = ("quditlab-config v1\n"
            "model toric rows=4 cols=4 modulus=2\n"
            "channel rate=0.01 trials=500\n"
            "seed 99\n"
            "output dimension\n"
            "output mc\n")
    first = run(parse_config(text))
    second = run(parse_config(text))
    assert first == second
    assert first.encode() == second.encode()
    print("PASS criterion 10: repeated runs with a fixed seed produce "
          "byte-identical reports")
