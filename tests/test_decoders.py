"""Decoders: soundness, oracle agreement, the five-step trace, Monte Carlo."""

import functools
import gc
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairing_reference as ref
from quditlab import engine
from quditlab.cli import parse_config
from quditlab.decoders import (PAIRING_CAP, BruteForceOracle, _family_candidates,
                               _min_cost_pairings, _torus_path,
                               brute_force_decode, classify_residual,
                               decode_doubled_semion, decode_outcome, decode_toric,
                               monte_carlo_trial)
from quditlab.dsemion import build_doubled_semion, string_operator
from quditlab.engine import Syndrome
from quditlab.errors import DecodeNotFoundError, InconsistentSyndromeError
from quditlab.lattice import build_toric_code, toric_string_operator
from quditlab.pauli import from_terms, identity, pauli_mul, single_site, to_text

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_empty_syndrome_decodes_to_identity():
    tc = build_toric_code(4, 4, 2)
    corr = decode_toric(tc, engine.syndrome(tc, identity(2, tc.n_sites)))
    assert corr.op.is_identity(up_to_phase=True)
    ds = build_doubled_semion(4, 4)
    corr = decode_doubled_semion(ds, engine.syndrome(ds, identity(4, ds.n_sites)))
    assert corr.op.is_identity(up_to_phase=True)
    oracle = brute_force_decode(tc, engine.syndrome(tc, identity(2, tc.n_sites)), 1)
    assert oracle.op.is_identity(up_to_phase=True)


def test_adjacent_plaquette_pair_fixed_by_single_x():
    # derived by brute force: both decoders return the weight-1 correction
    tc = build_toric_code(4, 4, 2)
    err = single_site(2, tc.n_sites, tc.geometry.edge_index("v", 2, 1), x=1)
    syn = engine.syndrome(tc, err)
    assert len(syn.violated_plaquettes) == 2
    corr = decode_toric(tc, syn)
    assert corr.op == err  # exact inverse at modulus 2
    assert brute_force_decode(tc, syn, 2).op.weight() == 1


def test_weight1_toric_sweep_identity_class():
    tc = build_toric_code(4, 4, 2)
    oracle = BruteForceOracle(tc, 2)
    for site in range(tc.n_sites):
        for a, b in ((1, 0), (0, 1), (1, 1)):
            err = single_site(2, tc.n_sites, site, x=a, z=b)
            syn = engine.syndrome(tc, err)
            out = decode_outcome(tc, err, decode_toric(tc, syn))
            assert out.success and out.logical_class == "1"
            oout = decode_outcome(tc, err, oracle.decode(syn))
            assert oout.logical_class == out.logical_class


def test_weight2_toric_sample_matches_oracle():
    # the full exhaustive sweep runs in the acceptance suite
    tc = build_toric_code(4, 4, 2)
    oracle = BruteForceOracle(tc, 3)
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


def test_decode_toric_z4_weight1():
    tc = build_toric_code(4, 4, 4)
    for site in (0, 5, 13):
        for a, b in ((1, 0), (0, 3), (2, 1)):
            err = single_site(4, tc.n_sites, site, x=a, z=b)
            corr = decode_toric(tc, engine.syndrome(tc, err))
            assert not engine.syndrome(tc, pauli_mul(err, corr.op))


def test_inconsistent_syndrome_raises():
    tc = build_toric_code(4, 4, 2)
    fake = Syndrome({"A(0,0)": 1}, {"A(0,0)": "vertex"})
    with pytest.raises(InconsistentSyndromeError):
        decode_toric(tc, fake)


def test_ds_weight1_sample_and_traces():
    ds = build_doubled_semion(4, 4)
    rng = random.Random(41)
    for _ in range(60):
        site = rng.randrange(ds.n_sites)
        a, b = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2),
                           (3, 0), (0, 3), (1, 3), (3, 1), (2, 1), (1, 2)])
        err = single_site(4, ds.n_sites, site, x=a, z=b)
        corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
        out = decode_outcome(ds, err, corr)
        assert out.success, (site, a, b)


def test_ds_length2_x_string_trace():
    ds = build_doubled_semion(4, 4)
    geo = ds.geometry
    err = from_terms(4, ds.n_sites, [(geo.edge_index("h", 1, 1), 1, 0),
                                     (geo.edge_index("h", 2, 1), 1, 0)])
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    out = decode_outcome(ds, err, corr)
    assert out.success and out.logical_class == "1"
    # the trail fires the bit-flip rule; with the frozen operator conventions
    # the inverse is exact, so no semion closing step remains
    assert corr.trace[0] == "1" and "2a" in corr.trace


def test_ds_semion_segment_fires_step3():
    ds = build_doubled_semion(6, 6)
    err = string_operator(ds, "s", [(1, 1), (2, 1)]).op
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert "3" in corr.trace
    assert decode_outcome(ds, err, corr).success


def test_ds_ssbar_error_fires_step5b():
    ds = build_doubled_semion(6, 6)
    err = string_operator(ds, "ssbar", [(1, 1), (2, 1), (3, 1)]).op
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert "5b" in corr.trace and "4" in corr.trace
    assert decode_outcome(ds, err, corr).success


def test_ds_phase_flip_uses_rule_2b():
    ds = build_doubled_semion(4, 4)
    err = single_site(4, ds.n_sites, ds.geometry.edge_index("h", 1, 1), z=1)
    corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
    assert "2b" in corr.trace
    assert decode_outcome(ds, err, corr).success


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
    assert "2a" in corr.trace and decode_outcome(ds, err, corr).success


def test_left_right_convention_flip_is_equally_sound():
    # flipping the step-2a power convention globally must stay sound: the
    # candidate enumeration covers both signs, so force the opposite first
    # guess by checking both X powers clear a bit-flip error
    ds = build_doubled_semion(4, 4)
    site = ds.geometry.edge_index("h", 2, 2)
    for a in (1, 3):
        err = single_site(4, ds.n_sites, site, x=a)
        corr = decode_doubled_semion(ds, engine.syndrome(ds, err))
        assert decode_outcome(ds, err, corr).success


def test_brute_force_not_found():
    tc = build_toric_code(4, 4, 2)
    logical = tc.logicals[0][1]  # weight-4 logical: no weight-1 correction
    # build an uncorrectable-within-budget syndrome by hand
    err = pauli_mul(logical, single_site(2, tc.n_sites, 0, x=1))
    syn = engine.syndrome(tc, err)
    corr = brute_force_decode(tc, syn, 1)  # weight-1 fix exists for this one
    assert not engine.syndrome(tc, pauli_mul(err, corr.op))
    with pytest.raises(DecodeNotFoundError):
        BruteForceOracle(tc, 4)


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
        err = pauli_mul(err, toric_string_operator(model, _torus_path(geo, a, b), stype))
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


def test_mc_toric_config_class_counts():
    cfg = parse_config((CONFIGS / "mc_toric.cfg").read_text())
    tc = build_toric_code(cfg.rows, cfg.cols, cfg.modulus)
    res = monte_carlo_trial(tc, decode_toric, cfg.rate, cfg.trials, cfg.seed)
    assert res.class_counts == {"1": 9998, "Z2^1": 2}
