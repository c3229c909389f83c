"""Decoders: soundness, oracle agreement, the five-step trace, Monte Carlo."""

import ast
import functools
import gc
import hashlib
import pathlib
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ds_reference
import mc_reference
import pairing_reference as ref
from quditlab import engine
from quditlab.cli import build_model, parse_config
from quditlab.decoders import (PAIRING_CAP, BruteForceOracle, Correction,
                               _class_names, _class_tuple, _family_candidates,
                               _geodesic_paths, _min_cost_pairings, _step2_plans,
                               _torus_path, _trail_edges,
                               classify_residual,
                               decode_doubled_semion, decode_outcome, decode_toric,
                               monte_carlo_trial)
from quditlab.dsemion import build_doubled_semion
from quditlab.engine import Syndrome
from quditlab.errors import DecodeNotFoundError, InconsistentSyndromeError, QuditLabError
from quditlab.lattice import LatticeGeometry, build_toric_code, string_operator
from quditlab.pauli import (from_terms, from_text, identity, pauli_mul, single_site,
                            to_text)

TESTS = pathlib.Path(__file__).resolve().parent
CONFIGS = TESTS.parent / "configs"


def test_empty_syndrome_decodes_to_identity():
    tc = build_toric_code(4, 4, 2)
    corr = decode_toric(tc, engine.syndrome(tc, identity(2, tc.n_sites)))
    assert corr.op.is_identity(up_to_phase=True)
    ds = build_doubled_semion(4, 4)
    corr = decode_doubled_semion(ds, engine.syndrome(ds, identity(4, ds.n_sites)))
    assert corr.op.is_identity(up_to_phase=True)
    oracle = BruteForceOracle(tc).decode(engine.syndrome(tc, identity(2, tc.n_sites)))
    assert oracle.op.is_identity(up_to_phase=True)


def test_adjacent_plaquette_pair_fixed_by_single_x():
    # derived by brute force: both decoders return the weight-1 correction
    tc = build_toric_code(4, 4, 2)
    err = single_site(2, tc.n_sites, tc.geometry.edge_index("v", 2, 1), x=1)
    syn = engine.syndrome(tc, err)
    assert sorted(tc.generator(g).kind for g in syn.exponents) == ["plaquette", "plaquette"]
    corr = decode_toric(tc, syn)
    assert corr.op == err  # exact inverse at modulus 2
    assert BruteForceOracle(tc).decode(syn).op.weight() == 1


def test_weight1_toric_sweep_identity_class():
    tc = build_toric_code(4, 4, 2)
    oracle = BruteForceOracle(tc)
    for site in range(tc.n_sites):
        for a, b in ((1, 0), (0, 1), (1, 1)):
            err = single_site(2, tc.n_sites, site, x=a, z=b)
            syn = engine.syndrome(tc, err)
            assert decode_outcome(tc, err, decode_toric(tc, syn)) == "1"
            assert decode_outcome(tc, err, oracle.decode(syn)) == "1"


def test_weight2_toric_sample_matches_oracle():
    # the full exhaustive sweep runs in the acceptance suite
    tc = build_toric_code(4, 4, 2)
    oracle = BruteForceOracle(tc)
    rng = random.Random(31)
    singles = [(s, a, b) for s in range(tc.n_sites)
               for a, b in ((1, 0), (0, 1), (1, 1))]
    for _ in range(150):
        (s1, a1, b1), (s2, a2, b2) = rng.sample(singles, 2)
        if s1 == s2:
            continue
        err = pauli_mul(single_site(2, tc.n_sites, s1, x=a1, z=b1),
                        single_site(2, tc.n_sites, s2, x=a2, z=b2))
        syn = engine.syndrome(tc, err)
        corr = decode_toric(tc, syn)
        res = pauli_mul(err, corr.op)
        assert not engine.syndrome(tc, res)
        ocl = oracle.decode(syn)
        assert corr.op.weight() == ocl.op.weight()
        assert classify_residual(tc, res) == classify_residual(tc, pauli_mul(err, ocl.op))


@pytest.mark.parametrize("build, x, z", [(lambda: build_toric_code(4, 4, 2), 1, 0),
                                         (lambda: build_toric_code(4, 4, 3), 1, 0),
                                         (lambda: build_doubled_semion(4, 4), 0, 2)],
                         ids=["z2", "z3", "ds"])
def test_residual_with_syndrome_names_no_class(build, x, z):
    # a single-site word violates generators: whatever its commutation with
    # the logicals, it is no logical class, and left uncorrected it reports
    # the syndrome outcome
    model = build()
    N, n = model.modulus, model.n_sites
    for site in (0, 1):
        residual = single_site(N, n, site, x=x, z=z)
        with pytest.raises(InconsistentSyndromeError,
                           match="^residual has no logical class: syndrome$"):
            classify_residual(model, residual)
        assert decode_outcome(model, residual, Correction(identity(N, n))) == "syndrome"


def test_residual_of_an_unnamed_class_is_unknown():
    # with X logicals alone every named class commutes with both, so the
    # syndrome-free Z1 loop falls in a class that has no name
    tc = build_toric_code(4, 4, 2)
    model = replace(tc, logicals=tuple((k, op) for k, op in tc.logicals if k[0] == "X"))
    z1 = dict(tc.logicals)["Z1"]
    with pytest.raises(InconsistentSyndromeError,
                       match="^residual has no logical class: unknown$"):
        classify_residual(model, z1)
    assert decode_outcome(model, z1, Correction(identity(2, tc.n_sites))) == "unknown"
    assert classify_residual(tc, z1) == "Z1^1"


def test_decode_toric_z4_weight1():
    tc = build_toric_code(4, 4, 4)
    for site in (0, 5, 13):
        for a, b in ((1, 0), (0, 3), (2, 1)):
            err = single_site(4, tc.n_sites, site, x=a, z=b)
            corr = decode_toric(tc, engine.syndrome(tc, err))
            assert not engine.syndrome(tc, pauli_mul(err, corr.op))


def test_inconsistent_syndrome_raises():
    tc = build_toric_code(4, 4, 2)
    fake = Syndrome({"A(0,0)": 1})
    with pytest.raises(InconsistentSyndromeError):
        decode_toric(tc, fake)


def test_decode_toric_z3_charges_must_cancel():
    # two unit vertex charges sum to 2, not 0 mod 3: no Z_3 word makes them
    tc = build_toric_code(4, 4, 3)
    fake = Syndrome({"A(0,0)": 1, "A(2,1)": 1})
    with pytest.raises(InconsistentSyndromeError, match="vertex charges do not cancel mod 3"):
        decode_toric(tc, fake)


@pytest.mark.parametrize("name", ["bombin_4x4", "twist_i"])
def test_decode_toric_refuses_other_generator_kinds(name):
    # a violated cell or fish generator is neither a vertex nor a plaquette,
    # so no pairing of vertices and plaquettes can clear it
    model, _ = build_model(parse_config((CONFIGS / f"{name}.cfg").read_text()))
    syn = engine.syndrome(model, from_text("0|3:1,1", model.modulus, model.n_sites))
    with pytest.raises(InconsistentSyndromeError, match="vertex and plaquette"):
        decode_toric(model, syn)


def test_ds_weight1_sample_and_traces():
    ds = build_doubled_semion(4, 4)
    rng = random.Random(41)
    for _ in range(60):
        site = rng.randrange(ds.n_sites)
        a, b = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2),
                           (3, 0), (0, 3), (1, 3), (3, 1), (2, 1), (1, 2)])
        err = single_site(4, ds.n_sites, site, x=a, z=b)
        corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
        assert decode_outcome(ds, err, corr) == "1", (site, a, b)


def test_ds_length2_x_string_trace():
    ds = build_doubled_semion(4, 4)
    geo = ds.geometry
    err = from_terms(4, ds.n_sites, [(geo.edge_index("h", 1, 1), 1, 0),
                                     (geo.edge_index("h", 2, 1), 1, 0)])
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert decode_outcome(ds, err, corr) == "1"
    # the trail fires the bit-flip rule; with the frozen operator conventions
    # the inverse is exact, so no semion closing step remains
    assert corr.trace[0] == "1" and "2a" in corr.trace


def test_ds_semion_segment_fires_step3():
    ds = build_doubled_semion(6, 6)
    err = string_operator(ds, "s", [(1, 1), (2, 1)])
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert "3" in corr.trace
    assert decode_outcome(ds, err, corr) == "1"


def test_ds_ssbar_error_fires_step5b():
    ds = build_doubled_semion(6, 6)
    err = string_operator(ds, "ssbar", [(1, 1), (2, 1), (3, 1)])
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert "5b" in corr.trace and "4" in corr.trace
    assert decode_outcome(ds, err, corr) == "1"


def test_ds_phase_flip_uses_rule_2b():
    ds = build_doubled_semion(4, 4)
    err = single_site(4, ds.n_sites, ds.geometry.edge_index("h", 1, 1), z=1)
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert "2b" in corr.trace
    assert decode_outcome(ds, err, corr) == "1"


def test_ds_step3_and_step5b_combine():
    # this error needs a step-3 semion closer and a step-5b ss-bar fixer; the
    # closer's syndrome is already in the step-3 exponents, so step 5 checks
    # the fixer alone
    ds = build_doubled_semion(4, 4)
    err = from_text("0|13:0,2;28:3,0;30:0,1", 4, ds.n_sites)
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert to_text(corr.op) == "0|13:0,2;28:1,0;30:0,3"
    assert corr.trace == ("1", "2a", "3", "4", "5b")
    assert decode_outcome(ds, err, corr) == "1"


def test_decodes_leave_no_reference_cycle():
    # a length-2 edge trail runs the step-2 candidate recursion; a recursive
    # closure there would leave a cycle for the cyclic collector on every call
    ds = build_doubled_semion(4, 4)
    geo = ds.geometry
    err = from_terms(4, ds.n_sites, [(geo.edge_index("h", 1, 1), 1, 0),
                                     (geo.edge_index("v", 2, 2), 0, 2)])
    ds_syn = engine.syndrome(ds, err)
    tc = build_toric_code(6, 6, 2)
    tc_syn = engine.syndrome(tc, from_terms(2, tc.n_sites, [(3, 1, 0), (20, 0, 1),
                                                          (40, 1, 1), (61, 1, 0)]))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        corr = decode_doubled_semion(ds, ds_syn)
        decode_toric(tc, tc_syn)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert "2a" in corr.trace and decode_outcome(ds, err, corr) == "1"


def test_left_right_convention_flip_is_equally_sound():
    # flipping the step-2a power convention globally must stay sound: the
    # candidate enumeration covers both signs, so force the opposite first
    # guess by checking both X powers clear a bit-flip error
    ds = build_doubled_semion(4, 4)
    site = ds.geometry.edge_index("h", 2, 2)
    for a in (1, 3):
        err = single_site(4, ds.n_sites, site, x=a)
        corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
        assert decode_outcome(ds, err, corr) == "1"


@pytest.mark.parametrize("build", [lambda: build_toric_code(3, 3, 2),
                                   lambda: build_toric_code(2, 3, 3),
                                   lambda: build_doubled_semion(2, 2)],
                         ids=["z2-3x3", "z3-3x2", "ds-2x2"])
def test_weight2_matches_are_every_pair_once(build):
    # the oracle enumerates only the singles on the violated generators'
    # sites; every weight-2 key must still give each pair of singles on two
    # sites exactly once
    model = build()
    oracle = BruteForceOracle(model)
    pairs = {}
    for i, (_, op1) in enumerate(oracle.singles):
        for _, op2 in oracle.singles[i + 1:]:
            if op2.terms[0][0] != op1.terms[0][0]:
                word = pauli_mul(op1, op2)
                key = frozenset(engine.syndrome(model, word).exponents.items())
                pairs.setdefault(key, []).append(to_text(word))
    for key, want in pairs.items():
        if key:
            assert sorted(map(to_text, oracle._weight2_matches(dict(key)))) == sorted(want)


def test_brute_force_not_found():
    tc = build_toric_code(4, 4, 2)
    logical = tc.logicals[0][1]  # weight-4 logical: no weight-1 correction
    # build an uncorrectable-within-budget syndrome by hand
    err = pauli_mul(logical, single_site(2, tc.n_sites, 0, x=1))
    syn = engine.syndrome(tc, err)
    corr = BruteForceOracle(tc).decode(syn)  # weight-1 fix exists for this one
    assert not engine.syndrome(tc, pauli_mul(err, corr.op))
    # X on three vertical edges in a row violates B(2,0) and B(5,0), three
    # apart either way round the 6-cycle: the minimum correction has weight 3
    tc = build_toric_code(6, 6, 2)
    err = from_terms(2, tc.n_sites, [(tc.geometry.edge_index("v", x, 0), 1, 0) for x in range(3)])
    syn = engine.syndrome(tc, err)
    assert sorted(syn.exponents) == ["B(2,0)", "B(5,0)"]
    assert decode_toric(tc, syn).op.weight() == 3
    with pytest.raises(DecodeNotFoundError, match="weight <= 2"):
        BruteForceOracle(tc).decode(syn)


def test_monte_carlo_zero_rate():
    tc = build_toric_code(4, 4, 2)
    res = monte_carlo_trial(tc, decode_toric, 0.0, 200, seed=1)
    assert res.failures == 0 and res.failure_rate == 0.0


def test_monte_carlo_reproducible_and_monotone():
    tc = build_toric_code(4, 4, 2)
    r1 = monte_carlo_trial(tc, decode_toric, 1e-2, 800, seed=9)
    r2 = monte_carlo_trial(tc, decode_toric, 1e-2, 800, seed=9)
    assert r1.failures == r2.failures and r1.class_counts == r2.class_counts
    rates = [monte_carlo_trial(tc, decode_toric, p, 800, seed=9).failure_rate
             for p in (1e-3, 1e-2, 1e-1)]
    assert rates[0] <= rates[1] <= rates[2]


def test_monte_carlo_rejects_bad_rate():
    tc = build_toric_code(4, 4, 2)
    with pytest.raises(ValueError):
        monte_carlo_trial(tc, decode_toric, 1.5, 10, seed=0)


# ----------------------------------------------------------------------
# the subset-DP pairing enumerator against full enumeration
# ----------------------------------------------------------------------

OF_REFERENCE = settings(max_examples=60, deadline=None, derandomize=True)


@functools.cache
def _torus(L):
    return build_toric_code(L, L, 2)


@st.composite
def families(draw):
    """k distinct violation positions on a small Z2 torus, where ties in
    torus distance are common."""
    L = draw(st.sampled_from((4, 6, 10)))
    k = draw(st.sampled_from(range(0, PAIRING_CAP + 1, 2)))
    cells = [(x, y) for y in range(L) for x in range(L)]
    return L, draw(st.permutations(cells))[:k]


@OF_REFERENCE
@given(families())
def test_min_cost_pairings_match_enumeration(family):
    L, positions = family
    geo = _torus(L).geometry
    got = list(_min_cost_pairings(geo, positions))
    assert got == ref.min_cost_pairings(geo, positions)


@OF_REFERENCE
@given(families(), st.sampled_from(("e", "m")))
def test_family_candidates_match_enumeration(family, stype):
    L, positions = family
    model = _torus(L)
    positions = sorted(positions)
    assert (_family_candidates(model, positions, stype)
            == ref.family_candidates(model, positions, stype))


@pytest.mark.parametrize("cols, rows", [(2, 2), (3, 5), (4, 4), (2, 9), (6, 7)])
def test_staircase_paths_match_one_turn_search(cols, rows):
    geo = LatticeGeometry(rows, cols, "edges")
    nodes = [(x, y) for y in range(rows) for x in range(cols)]
    for a in nodes:
        for b in nodes:
            assert _geodesic_paths(geo, a, b) == ref.geodesic_paths(geo, a, b), (a, b)
            assert tuple(_torus_path(geo, a, b)) == ref.torus_path(geo, a, b), (a, b)


# the helpers the reference oracles may take from the decoders: none of them
# holds the staircase rule, the parity check, the syndrome sum, the step-2
# lattice rules or the step-3 closers, which each reference states itself
REFERENCE_IMPORTS = {"Correction", "MonteCarloResult", "_class_names", "_class_tuple",
                     "_pair_paths", "_torus_dist"}


@pytest.mark.parametrize("name", ["ds_reference", "mc_reference", "pairing_reference"])
def test_references_import_only_allowed_decoder_helpers(name):
    imported = set()
    for node in ast.walk(ast.parse((TESTS / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "quditlab.decoders":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the module itself, by ``import`` or ``from quditlab import``
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            imported |= {prefix + alias.name for alias in node.names} & {"quditlab.decoders"}
    assert imported <= REFERENCE_IMPORTS, sorted(imported - REFERENCE_IMPORTS)


# ----------------------------------------------------------------------
# pinned decoder output
# ----------------------------------------------------------------------

def _chain_error(model, w, stype, rng):
    """Strings between w/2 pairs of distinct random cells: exactly w violated
    plaquettes (m) or vertices (e) at arbitrary positions."""
    geo = model.geometry
    cells = [(x, y) for y in range(geo.rows) for x in range(geo.cols)]
    ends = rng.sample(cells, w)
    err = identity(2, model.n_sites)
    for a, b in zip(ends[::2], ends[1::2]):
        err = pauli_mul(err, string_operator(model, stype, _torus_path(geo, a, b)))
    return err


def _iid_error(n_sites, p, rng):
    terms = []
    for site in range(n_sites):
        x = 1 if rng.random() < p else 0
        z = 1 if rng.random() < p else 0
        if x or z:
            terms.append((site, x, z))
    return from_terms(2, n_sites, terms)


# decode_toric corrections on Z2 10x10 for _chain_error(w, stype), drawn in
# this order from random.Random(2024); w = 14 and 16 lie above PAIRING_CAP
PINNED_SWEEP = {
    (2, "m"): "0|66:1,0;86:1,0;106:1,0;123:1,0;125:1,0;126:1,0;127:1,0",
    (2, "e"): "0|149:0,1;169:0,1;186:0,1",
    (4, "m"): "0|70:1,0;73:1,0;75:1,0;77:1,0;124:1,0;144:1,0;164:1,0;184:1,0",
    (4, "e"): "0|7:0,1;27:0,1;47:0,1;182:0,1;184:0,1;187:0,1;192:0,1",
    (6, "m"): "0|82:1,0;102:1,0;110:1,0;122:1,0;130:1,0;133:1,0;135:1,0;137:1,0;"
              "142:1,0;146:1,0;162:1,0;166:1,0;186:1,0;189:1,0",
    (6, "e"): "0|55:0,1;74:0,1;76:0,1;107:0,1;127:0,1;135:0,1;147:0,1;154:0,1;167:0,1",
    (8, "m"): "0|18:1,0;72:1,0;87:1,0;89:1,0;91:1,0;92:1,0;93:1,0;135:1,0;137:1,0;"
              "139:1,0;183:1,0;185:1,0;187:1,0",
    (8, "e"): "0|17:0,1;119:0,1;136:0,1;167:0,1;177:0,1;192:0,1;194:0,1;196:0,1;"
              "197:0,1;198:0,1",
    (10, "m"): "0|16:1,0;17:1,0;50:1,0;53:1,0;55:1,0;101:1,0;103:1,0;105:1,0;108:1,0;"
               "109:1,0;180:1,0;183:1,0;185:1,0",
    (10, "e"): "0|35:0,1;50:0,1;52:0,1;80:0,1;85:0,1;89:0,1;98:0,1;104:0,1;190:0,1;192:0,1",
    (12, "m"): "0|7:1,0;9:1,0;11:1,0;55:1,0;59:1,0;83:1,0;85:1,0;86:1,0;87:1,0;124:1,0;"
               "144:1,0;193:1,0;195:1,0",
    (12, "e"): "0|9:0,1;80:0,1;82:0,1;107:0,1;126:0,1;145:0,1;154:0,1;165:0,1;166:0,1;"
               "169:0,1;180:0,1;182:0,1;189:0,1;196:0,1",
    (14, "m"): "0|37:1,0;61:1,0;69:1,0;70:1,0;71:1,0;78:1,0;95:1,0;118:1,0;129:1,0;"
               "131:1,0;133:1,0;152:1,0;161:1,0;178:1,0",
    (14, "e"): "0|25:0,1;33:0,1;42:0,1;84:0,1;119:0,1;139:0,1;148:0,1;150:0,1;152:0,1;"
               "155:0,1;159:0,1;180:0,1;197:0,1",
    (16, "m"): "0|0:1,0;21:1,0;47:1,0;53:1,0;61:1,0;66:1,0;72:1,0;78:1,0;91:1,0;93:1,0;"
               "112:1,0;121:1,0;123:1,0;138:1,0;157:1,0;176:1,0",
    (16, "e"): "0|19:0,1;25:0,1;34:0,1;36:0,1;45:0,1;51:0,1;54:0,1;57:0,1;99:0,1;106:0,1;"
               "108:0,1;119:0,1;127:0,1;134:0,1;136:0,1;144:0,1;169:0,1;186:0,1",
}

# decode_toric corrections on Z2 8x8 for eight i.i.d. X/Z errors at p = 0.02
# drawn from random.Random(2025)
PINNED_IID = [
    "0|2:1,0;43:1,0;99:0,1;124:0,1",
    "0|29:0,1;86:1,0",
    "0|23:1,0;35:0,1;40:0,1;42:1,0;51:1,0;81:1,0;88:1,0;106:0,1;114:0,1;118:1,0",
    "0|5:0,1;9:1,0;21:1,0;43:0,1;45:0,1;53:0,1;72:1,0;123:1,0",
    "0|22:0,1;50:1,0;85:0,1;120:0,1",
    "0|1:0,1;33:1,0;106:1,0;123:1,0",
    "0|16:1,0;20:0,1;40:0,1;104:1,0",
    "0|10:1,0;38:1,0;58:0,1;70:1,0;97:1,0;117:0,1;123:0,1",
]


def test_decode_toric_pinned_weight_sweep():
    tc = _torus(10)
    rng = random.Random(2024)
    for w in range(2, 17, 2):
        for stype in ("m", "e"):
            syn = engine.syndrome(tc, _chain_error(tc, w, stype, rng))
            assert syn.weight() == w
            assert to_text(decode_toric(tc, syn).op) == PINNED_SWEEP[w, stype], (w, stype)


def test_decode_toric_pinned_iid():
    tc = build_toric_code(8, 8, 2)
    rng = random.Random(2025)
    got = [to_text(decode_toric(tc, engine.syndrome(tc, _iid_error(tc.n_sites, 0.02, rng))).op)
           for _ in PINNED_IID]
    assert got == PINNED_IID


def _qudit_error(modulus, n_sites, p, rng):
    """i.i.d. X^a and Z^b per site, each exponent drawn from [1, modulus)."""
    terms = []
    for site in range(n_sites):
        x = rng.randrange(1, modulus) if rng.random() < p else 0
        z = rng.randrange(1, modulus) if rng.random() < p else 0
        if x or z:
            terms.append((site, x, z))
    return from_terms(modulus, n_sites, terms)


# decode_toric corrections (the Z_N fold) on 6x6 for eight i.i.d. errors at
# p = 0.04 per modulus N, drawn from random.Random(2026 + N)
PINNED_FOLD = {
    3: [
        "0|0:0,1;2:0,1;4:0,1;7:0,1;10:2,0;11:0,2;23:0,2;30:0,1;32:0,1;69:2,0",
        "0|0:0,1;20:1,0;21:0,1;62:0,1",
        "0|12:1,0;19:0,2;21:0,2;31:0,2;33:0,1;37:0,1;42:0,1;60:1,0;68:0,2",
        "0|25:2,0;46:2,0",
        "2|6:1,0;26:2,0;31:0,2;32:0,1;39:0,1;41:0,2;51:0,1;53:2,2;62:0,2",
        "0|3:0,1;11:0,1;23:0,1;31:0,1;32:0,2;54:0,1;57:0,1;69:0,1",
        "0|1:0,2;3:0,2;6:0,1;12:0,1;34:2,0;45:2,0",
        "0|55:1,0;70:0,1",
    ],
    4: [
        "0|20:3,0;26:1,0",
        "2|3:0,2;8:1,0;10:3,0;13:0,3;15:0,1;18:2,0;25:0,3;27:0,1;30:2,0;31:2,0;37:0,3;"
        "39:0,2;41:0,3;42:2,0;50:1,1;54:2,0;66:2,0;69:3,0;71:3,0",
        "6|1:0,1;3:0,3;13:0,1;15:1,3;56:0,2;60:0,3;63:0,3",
        "4|2:3,0;4:1,0;11:0,2;32:0,3;35:0,3;51:3,0;62:1,2;65:1,0;66:3,0;67:3,0;69:3,0;"
        "70:3,0;71:3,0",
        "0|2:2,0;14:2,0;18:3,0;20:1,0;22:3,0;26:1,0;30:3,0;32:1,0;35:0,3;38:2,0;44:3,0;"
        "50:2,0;51:2,0;62:2,0",
        "2|7:0,1;10:1,0;12:1,0;14:3,0;15:1,0;48:0,1;65:3,0;67:3,3;69:1,0;71:3,0",
        "0|29:0,1;31:0,1;53:2,0;68:2,0",
        "0|8:1,0;23:3,0;24:0,3;31:0,2;34:1,0;46:1,0;49:1,0;58:1,0;59:1,0;68:1,0",
    ],
    6: [
        "0|11:0,1;13:0,1;18:0,1;21:1,0;35:0,1;47:0,1;59:0,1;71:3,0",
        "0|3:1,0;4:1,0;5:1,0;8:5,0;12:0,2;17:0,5;20:5,0;22:1,0;32:2,0;34:1,0;35:1,0;"
        "51:0,1;67:2,0;69:1,0",
        "0|4:1,0;16:1,0;18:0,5;19:2,0;21:2,0;26:3,0;27:2,0;32:4,0;35:1,0;38:1,0;50:3,0;"
        "53:5,0;64:1,0",
        "0|25:0,2;45:0,2;47:0,4;57:0,2;59:0,4;66:0,3;68:0,2",
        "0|0:1,0;4:5,0;16:5,0;18:4,0;20:2,0;22:1,0;28:5,0;30:4,0;31:4,0;33:3,0;34:1,0;"
        "35:1,0;37:0,1;63:5,0;65:1,0",
        "0|12:2,0;15:1,0;17:0,5;20:3,0;26:0,1;53:0,1;56:0,3",
        "0|27:0,3;28:1,0;29:3,0;31:0,4;54:0,4",
        "0|19:0,5;21:0,1;29:4,0;31:0,5;32:3,0;33:0,1;42:0,3;55:4,0;66:5,0",
    ],
}


@pytest.mark.parametrize("modulus", sorted(PINNED_FOLD))
def test_decode_toric_pinned_fold(modulus):
    tc = build_toric_code(6, 6, modulus)
    rng = random.Random(2026 + modulus)
    got = []
    for _ in PINNED_FOLD[modulus]:
        err = _qudit_error(modulus, tc.n_sites, 0.04, rng)
        corr = decode_toric(tc, engine.syndrome(tc, err))
        assert not engine.syndrome(tc, pauli_mul(err, corr.op))
        got.append(to_text(corr.op))
    assert got == PINNED_FOLD[modulus]


_toric = functools.cache(build_toric_code)


# the Z_N fold relies on these end charges of a unit string: +1 at its first
# node and -1 at its last for e, -1 and +1 for m
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(modulus=st.integers(2, 6), rows=st.integers(2, 6), cols=st.integers(2, 6),
       a=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       b=st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_unit_string_end_charges(modulus, rows, cols, a, b):
    tc = _toric(rows, cols, modulus)
    a, b = (a[0] % cols, a[1] % rows), (b[0] % cols, b[1] % rows)
    if a == b:
        return
    path = _torus_path(tc.geometry, a, b)
    for stype, letter, k0 in (("e", "A", 1), ("m", "B", -1)):
        syn = engine.syndrome(tc, string_operator(tc, stype, path))
        assert syn.exponents == {f"{letter}({a[0]},{a[1]})": k0 % modulus,
                                 f"{letter}({b[0]},{b[1]})": -k0 % modulus}


# ----------------------------------------------------------------------
# the doubled-semion decoder against the filter-search reference
# ----------------------------------------------------------------------

@functools.cache
def _ds(L):
    return build_doubled_semion(L, L)


def _ds_outcome(decoder, ds, syn):
    """The decoder's ``Correction``, or the type and message it raised."""
    try:
        return decoder(ds, syn)
    except QuditLabError as exc:
        return type(exc), str(exc)


# step 2 reads each trail edge's plaquettes, hint vertex and sites off the
# model, and its trail off the edge generators' words; the reference writes
# them out on the lattice and reads its own trail off the generator names.
# Every edge, alone or with one excited plaquette, under each hint the
# vertex exponents can give
@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3), (3, 4), (4, 5), (5, 6)])
def test_step2_plans_match_the_lattice_rules(rows, cols):
    ds = build_doubled_semion(rows, cols)
    gids = {k: [g.gid for g in ds.generators if g.kind == k]
            for k in ("edge", "plaquette", "vertex")}
    for edge in gids["edge"]:
        for plaquette in [None] + gids["plaquette"]:
            for hint in (None, 2, 3):
                exps0 = {edge: 1}
                if plaquette:
                    exps0[plaquette] = 1
                if hint:
                    exps0.update(dict.fromkeys(gids["vertex"], hint))
                assert (_step2_plans(ds, exps0, _trail_edges(ds, exps0))
                        == ds_reference.step2_plans(ds, exps0,
                                                    ds_reference.trail_edges(exps0))), exps0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.sampled_from((2, 3, 4)), rate=st.sampled_from((0.01, 0.02, 0.05, 0.1)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ds_decoder_matches_reference_on_iid_errors(L, rate, seed):
    ds = _ds(L)
    syn = engine.syndrome(ds, _qudit_error(4, ds.n_sites, rate, random.Random(seed)))
    assert (_ds_outcome(decode_doubled_semion, ds, syn)
            == _ds_outcome(ds_reference.decode_doubled_semion, ds, syn))


@st.composite
def ds_syndromes(draw):
    """A lattice size and a random set of doubled-semion generators, each with
    a random nonzero exponent below its order: mostly inconsistent."""
    L = draw(st.sampled_from((2, 3, 4)))
    gens = _ds(L).generators
    picked = draw(st.lists(st.integers(0, len(gens) - 1), unique=True, max_size=8))
    return L, {gens[i].gid: draw(st.integers(1, gens[i].order - 1)) for i in sorted(picked)}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ds_syndromes())
@example((3, {"A(1,1)": 2}))
def test_ds_decoder_matches_reference_on_arbitrary_syndromes(case):
    L, exponents = case
    ds = _ds(L)
    syn = Syndrome(exponents)
    assert (_ds_outcome(decode_doubled_semion, ds, syn)
            == _ds_outcome(ds_reference.decode_doubled_semion, ds, syn))


def _digest_models(rng):
    """(model, decoder, errors) for the decode digest: Z2 with one family
    above ``PAIRING_CAP``, the Z_N fold for N = 3..6, the doubled semion."""
    tc = build_toric_code(8, 8, 2)
    yield tc, decode_toric, [_chain_error(tc, PAIRING_CAP + 2, "m", rng)] + [
        _qudit_error(2, tc.n_sites, 0.03, rng) for _ in range(60)]
    for modulus in (3, 4, 5, 6):
        tc = build_toric_code(5, 5, modulus)
        yield tc, decode_toric, [_qudit_error(modulus, tc.n_sites, 0.03, rng)
                                 for _ in range(40)]
    for L in (3, 4):
        ds = build_doubled_semion(L, L)
        yield ds, decode_doubled_semion, [_qudit_error(4, ds.n_sites, 0.02, rng)
                                          for _ in range(40)]


# SHA-256 over correction, trace and outcome of 301 seeded decodes; a change
# that alters any decoder output on purpose re-pins it
DECODE_DIGEST = "416a70f669e2a255518e269660fededc9325a7e146e78890f7ad144a50f33bf8"


def test_decode_digest():
    h = hashlib.sha256()
    for model, decoder, errors in _digest_models(random.Random(2027)):
        # the class table once per model: classify_residual rebuilds it per call
        names = _class_names(model)
        for err in errors:
            try:
                corr = decoder(model, engine.syndrome(model, err))
            except InconsistentSyndromeError:
                h.update(b"gave-up\n")
                continue
            residual = pauli_mul(err, corr.op)
            label = ("syndrome" if engine.syndrome(model, residual)
                     else names[_class_tuple(residual, model.logicals)])
            h.update(f"{to_text(corr.op)} {','.join(corr.trace)} {label}\n".encode())
    assert h.hexdigest() == DECODE_DIGEST


# a decoder reads positions off anchors and roles off kinds, so a model whose
# generators are all renamed decodes every error as the original does
@pytest.mark.parametrize("build, decoder, rate", [
    (lambda: build_toric_code(4, 4, 2), decode_toric, 0.05),
    (lambda: build_toric_code(4, 4, 3), decode_toric, 0.05),
    (lambda: build_doubled_semion(3, 3), decode_doubled_semion, 0.03),
    (lambda: build_doubled_semion(4, 4), decode_doubled_semion, 0.02)])
def test_decoding_does_not_read_generator_names(build, decoder, rate):
    model = build()
    renamed = replace(model, generators=tuple(
        g._replace(gid=f"g{i}") for i, g in enumerate(model.generators)))
    rng = random.Random(30)
    decoded = 0
    for _ in range(40):
        err = _qudit_error(model.modulus, model.n_sites, rate, rng)
        want = _ds_outcome(decoder, model, engine.syndrome(model, err))
        assert _ds_outcome(decoder, renamed, engine.syndrome(renamed, err)) == want, err
        decoded += isinstance(want, Correction) and bool(want.op.terms)
    assert decoded >= 20


def test_mc_toric_config_class_counts():
    cfg = parse_config((CONFIGS / "mc_toric.cfg").read_text())
    tc = build_toric_code(cfg.rows, cfg.cols, cfg.modulus)
    res = monte_carlo_trial(tc, decode_toric, cfg.rate, cfg.trials, cfg.seed)
    assert res.class_counts == {"1": 9998, "Z2^1": 2}


# ----------------------------------------------------------------------
# the Monte Carlo harness against the plain per-site loop
# ----------------------------------------------------------------------

def _give_up_on_plaquettes(model, syn):
    if any(model.generator(g).kind == "plaquette" for g in syn.exponents):
        raise InconsistentSyndromeError("gives up on every plaquette violation")
    return decode_toric(model, syn)


# small lattices repeat errors within a run, so the memo is exercised; the
# doubled semion runs on 2x2 because at rate 0.3 a 4x4 trial can take seconds;
# the partial decoder leaves both ``gave-up`` and class labels in the memo
MC_MODELS = {
    "toric-z2": (lambda: build_toric_code(4, 4, 2), decode_toric),
    "toric-z2-partial": (lambda: build_toric_code(4, 4, 2), _give_up_on_plaquettes),
    "toric-z3": (lambda: build_toric_code(2, 2, 3), decode_toric),
    "toric-z4": (lambda: build_toric_code(3, 3, 4), decode_toric),
    "doubled-semion": (lambda: build_doubled_semion(2, 2), decode_doubled_semion),
}


@functools.cache
def _mc_model(name):
    return MC_MODELS[name][0]()


@pytest.mark.parametrize("name", sorted(MC_MODELS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(rate=st.sampled_from((0.0, 1e-3, 0.02, 0.3, 1.0)), trials=st.integers(0, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_monte_carlo_matches_per_site_reference(name, rate, trials, seed):
    model, decoder = _mc_model(name), MC_MODELS[name][1]
    assert (monte_carlo_trial(model, decoder, rate, trials, seed)
            == mc_reference.monte_carlo_trial(model, decoder, rate, trials, seed))


def _give_up(model, syn):
    if syn:
        raise InconsistentSyndromeError("gives up on every nonzero syndrome")
    return decode_toric(model, syn)


def test_monte_carlo_counts_give_ups():
    tc = build_toric_code(4, 4, 2)
    res = monte_carlo_trial(tc, _give_up, 0.02, 40, seed=7)
    assert res == mc_reference.monte_carlo_trial(tc, _give_up, 0.02, 40, seed=7)
    assert res.class_counts["gave-up"] == res.failures > 0


def test_monte_carlo_labels_each_distinct_error_once(monkeypatch):
    # mc_toric at seed 42: the per-site draw loop of the reference gives 587
    # noisy trials holding 79 distinct errors; the decoder runs once per
    # distinct error, and so do the error's and the residual's syndromes
    cfg = parse_config((CONFIGS / "mc_toric.cfg").read_text())
    tc = build_toric_code(cfg.rows, cfg.cols, cfg.modulus)
    noisy = [e for e in mc_reference.trial_errors(tc, cfg.rate, cfg.trials, cfg.seed) if e]
    assert (cfg.seed, len(noisy), len(set(noisy))) == (42, 587, 79)
    calls = []
    syndromes = []
    syndrome = engine.syndrome

    def counted(model, syn):
        calls.append(syn)
        return decode_toric(model, syn)

    def counted_syndrome(model, error):
        syndromes.append(error)
        return syndrome(model, error)

    monkeypatch.setattr(engine, "syndrome", counted_syndrome)
    res = monte_carlo_trial(tc, counted, cfg.rate, cfg.trials, cfg.seed)
    assert len(calls) == 79 and len(syndromes) == 2 * 79
    assert res.class_counts == {"1": 9998, "Z2^1": 2}


def test_monte_carlo_partial_give_up_keeps_both_labels():
    tc = _mc_model("toric-z2-partial")
    res = monte_carlo_trial(tc, _give_up_on_plaquettes, 0.02, 200, seed=3)
    assert res == mc_reference.monte_carlo_trial(tc, _give_up_on_plaquettes, 0.02, 200, seed=3)
    assert res.class_counts["gave-up"] > 0
    assert set(res.class_counts) - {"gave-up", "1"}
