"""The three benchmark workloads: ``configs``, ``algebra`` and ``decode``.

Each ``setup_*`` function builds a fixed operation list from the workload
seed.  One pass runs the list once; every pass runs the same list, so a
pass is a fixed amount of work.  An operation's ``call`` holds only calls
into quditlab and is what the runner times; its ``check`` runs untimed,
raises ``CheckFailed`` on a wrong output, may add exact counts to the pass
counters, and returns a fingerprint that must repeat on every pass.

Why these workloads:

* ``configs`` is what users run today: every shipped config through
  ``cli.parse_config`` + ``cli.run`` and four ``cli.main`` subcommands.
  Small lattices, so build, defect surgery, spin extraction and per-call
  overhead dominate; a change that speeds large models but costs small
  ones shows here.
* ``algebra`` is a size curve of the dense Pauli core: build, constraint
  products, logical dimension (all-pairs commutation check plus
  elimination), subgroup order, syndromes and membership.  No decoder runs.
* ``decode`` is syndrome -> decoder -> residual -> classification on
  seeded i.i.d. noise, a fixed-weight sweep across the toric decoder's
  enumeration cap, and one Monte Carlo batch.  No elimination runs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


class CheckFailed(Exception):
    """An operation returned a wrong output."""


@dataclass
class Op:
    kind: str
    point: str
    call: Callable[[], object]
    check: Callable[[object, Counter], object]


@dataclass
class Workload:
    name: str
    ops: list
    tail_pct: float  # fixed per workload so the percentile never depends on speed
    min_passes: int = 1
    facts: dict = field(default_factory=dict)  # fixed at set-up: derived seeds, probabilities
    prepare: Callable[[], None] = lambda: None  # untimed check preparation


def derive(seed: int, label: str) -> random.Random:
    """Independent deterministic stream per (workload seed, label)."""
    return random.Random(f"{seed}:{label}")


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def equals(got, want, what: str):
    """Check ``got == want`` and return ``got`` as the fingerprint."""
    expect(got == want, f"{what}: got {got!r}, expected {want!r}")
    return got


# ----------------------------------------------------------------------
# independent syndrome oracle, built from the stable text serialization
# ----------------------------------------------------------------------

def parse_word(text: str) -> dict:
    """``phase|site:x,z;...`` -> {site: (x, z)}."""
    body = text.partition("|")[2]
    out = {}
    if body:
        for chunk in body.split(";"):
            site, _, exps = chunk.partition(":")
            x, _, z = exps.partition(",")
            out[int(site)] = (int(x), int(z))
    return out


class SyndromeOracle:
    """Site -> generator incidence; a syndrome costs O(weight x degree)."""

    def __init__(self, q, model):
        self.q = q
        self.modulus = model.modulus
        self.inc = {}
        for g in model.generators:
            for site, (x, z) in parse_word(q.pauli.to_text(g.op)).items():
                self.inc.setdefault(site, []).append((g.gid, g.order, x, z))

    def exponents(self, op) -> dict:
        acc = {}
        orders = {}
        for site, (ex, ez) in parse_word(self.q.pauli.to_text(op)).items():
            for gid, order, gx, gz in self.inc.get(site, ()):
                acc[gid] = acc.get(gid, 0) + gz * ex - gx * ez
                orders[gid] = order
        n = self.modulus
        out = {}
        for gid, k in acc.items():
            k %= n
            if k:
                out[gid] = k * orders[gid] // n % orders[gid]
        return out


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------

# logical dimensions asserted by tier-1 (tests/test_cli.py); the three
# condensate-patch configs carry the honest 16 / 8 / 4
CONFIG_DIMENSIONS = {
    "toric_2x2": 4, "toric_z3": 9, "toric_z4": 16, "bombin_4x4": 4,
    "twist_i": 4, "twist_ii": 2, "twist_iii": 4, "twist_iv": 4, "twist_v": 2,
    "ds_patch": 16, "ds_patch_ring": 8, "z4_patch_in_ds": 4,
    "wormhole_i": 16, "wormhole_ii": 32, "ising_twists_k2": 8,
}
CONFIG_GOLDEN = {"decode_single_x": "report_decode_single_x.txt",
                 "ds_spin": "report_ds_spin.txt"}
CONFIGS = tuple(sorted(CONFIG_DIMENSIONS) + sorted(CONFIG_GOLDEN)
                + ["condense_z4", "mc_toric"])
SUBCOMMANDS = (
    (("catalog", "toric"), "catalog_toric.txt"),
    (("catalog", "ising"), "catalog_ising.txt"),
    (("catalog", "doubled-semion"), "catalog_doubled_semion.txt"),
    (("condense", "z4", "1+e2m2"), "condense_z4.txt"),
)
SMOKE_CONFIGS = ("toric_2x2", "toric_z3", "ds_patch", "twist_i",
                 "decode_single_x", "ds_spin", "condense_z4")
MC_TORIC_TRIALS = 10000
MC_TORIC_MAX_RATE = 5e-3  # tier-1 criterion 9 bound


def _report_check(name, golden, mc_seed):
    def check(report, counts):
        lines = report.splitlines()
        for line in lines:
            if " qudits=" in line:
                counts["lattice.sites"] += int(line.rsplit("=", 1)[1])
            elif line.startswith("generators "):
                counts["lattice.generators"] += sum(
                    int(tok.split("=")[1]) for tok in line.split()[1:])
        if name in CONFIG_DIMENSIONS:
            expect(f"dimension {CONFIG_DIMENSIONS[name]}" in lines,
                   f"{name}: expected dimension {CONFIG_DIMENSIONS[name]}")
        elif name in CONFIG_GOLDEN:
            expect(report == golden[CONFIG_GOLDEN[name]], f"{name}: golden mismatch")
        elif name == "condense_z4":
            body = golden["condense_z4.txt"].split("\n", 1)[1]
            expect(report.endswith(body), "condense_z4: condense block mismatch")
        elif name == "mc_toric":
            mc = dict(tok.split("=", 1) for tok in lines[-2].split()[1:])
            classes = dict(tok.split("=", 1) for tok in lines[-1].split()[1:])
            expect(int(mc["trials"]) == MC_TORIC_TRIALS and int(mc["seed"]) == mc_seed,
                   "mc_toric: trials or seed not echoed")
            expect(sum(int(v) for v in classes.values()) == MC_TORIC_TRIALS,
                   "mc_toric: class counts do not sum to trials")
            expect(int(mc["failures"]) / MC_TORIC_TRIALS < MC_TORIC_MAX_RATE,
                   "mc_toric: failure rate above the tier-1 bound")
            counts["mc.trials"] += MC_TORIC_TRIALS
        return report
    return check


def _main_call(q, argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = q.cli.main(list(argv))
        return code, buf.getvalue()
    return call


def _golden_check(name, text):
    def check(out, counts):
        code, got = out
        expect(code == 0 and got == text, f"{name}: golden mismatch")
        return got
    return check


def setup_configs(q, seed, size, root):
    names = SMOKE_CONFIGS if size == "smoke" else CONFIGS
    subcommands = SUBCOMMANDS[::3] if size == "smoke" else SUBCOMMANDS
    golden = {p.name: p.read_text() for p in (root / "tests" / "golden").glob("*.txt")}
    mc_seed = derive(seed, "mc_toric").randrange(2 ** 31)
    ops = []
    for name in names:
        text = (root / "configs" / f"{name}.cfg").read_text()
        ops.append(Op("config", name,
                      lambda text=text: q.cli.run(q.cli.parse_config(text),
                                                  seed_override=mc_seed),
                      _report_check(name, golden, mc_seed)))
    for argv, gname in subcommands:
        ops.append(Op("main", " ".join(argv), _main_call(q, argv),
                      _golden_check(" ".join(argv), golden[gname])))
    # min_passes 2: the byte-identity check compares a second run of every op.
    # The inputs are fixed, so repeated runs are the tail's samples: p97.5
    # is the median of mc_toric, the slowest op, with half of its runs beyond.
    return Workload("configs", ops, tail_pct=97.5, min_passes=2,
                    facts={"mc_seed": mc_seed})


# ----------------------------------------------------------------------
# algebra
# ----------------------------------------------------------------------

ALGEBRA_POINTS = (
    [("Z2", L) for L in (4, 8, 12, 16)]
    + [("Z4", L) for L in (4, 8, 12, 16)]
    + [("Z3", L) for L in (4, 8, 12)]
    + [("bombin", 8), ("bombin", 16), ("dsemion", 8), ("dsemion", 12)]
)
SMOKE_ALGEBRA_POINTS = (("Z2", 4), ("Z3", 4), ("bombin", 4), ("dsemion", 4))
MEMBER_MAX_L = 8  # is_member takes 8 s at L = 12


def family_shape(fam, L):
    """(modulus, sites, generators, logical dimension) of a model family."""
    if fam == "bombin":
        return 2, L * L, L * L, 4
    if fam == "dsemion":
        return 4, 2 * L * L, 4 * L * L, 4
    n = int(fam[1:])
    return n, 2 * L * L, 2 * L * L, n * n


def build(q, fam, L):
    if fam == "bombin":
        return q.lattice.build_bombin_lattice(L, L)
    if fam == "dsemion":
        return q.dsemion.build_doubled_semion(L, L)
    return q.lattice.build_toric_code(L, L, int(fam[1:]))


def random_error(rng, q, modulus, sites, weight, x_only=False):
    terms = []
    for site in sorted(rng.sample(range(sites), weight)):
        if x_only:
            terms.append((site, rng.randrange(1, modulus), 0))
        else:
            x, z = 0, 0
            while not (x or z):
                x, z = rng.randrange(modulus), rng.randrange(modulus)
            terms.append((site, x, z))
    return q.pauli.from_terms(modulus, sites, terms)


def _bombin_row_logical(q, L):
    """Z on even and X on odd vertices of row 0: commutes with every cell."""
    return q.pauli.from_terms(2, L * L, [(x, x % 2, 1 - x % 2) for x in range(L)])


def algebra_point(q, seed, fam, L):
    label = f"{fam}.L{L}"
    rng = derive(seed, f"algebra:{label}")
    modulus, sites, n_gens, dim = family_shape(fam, L)
    st = {}

    def do_build():
        st["model"] = build(q, fam, L)
        return st["model"]

    def check_build(model, counts):
        expect(model.n_sites == sites and len(model.generators) == n_gens,
               f"{label}: unexpected site or generator count")
        counts["lattice.sites"] += sites
        counts["lattice.generators"] += n_gens
        st["oracle"] = SyndromeOracle(q, model)
        return sites, n_gens

    ops = [Op("build", label, do_build, check_build)]
    for c in range(2):
        ops.append(Op("constraint", label,
                      lambda c=c: q.lattice.evaluate_constraint(
                          st["model"], st["model"].constraints[c]),
                      lambda out, counts: equals(q.pauli.to_text(out), "0|",
                                                 f"{label}: certificate product")))
    ops.append(Op("dimension", label,
                  lambda: q.engine.logical_dimension(st["model"]),
                  lambda d, counts: equals(d, dim, f"{label}: dimension")))
    order = modulus ** sites // dim
    ops.append(Op("order", label,
                  lambda: q.engine.subgroup_order(q.engine.GeneratorMatrix.from_ops(
                      [g.op for g in st["model"].generators])),
                  lambda o, counts: equals(o, order, f"{label}: subgroup order")))
    toric = fam.startswith("Z")
    for w in (1, 2, 3):
        err = random_error(rng, q, modulus, sites, w, x_only=(w == 1))

        def check_syndrome(syn, counts, w=w, err=err):
            got = dict(syn.exponents)
            expect(got == st["oracle"].exponents(err), f"{label}: weight-{w} syndrome")
            if toric and w == 1:
                expect(len(got) == 2, f"{label}: weight-1 X error must violate 2 checks")
            counts["engine.syndrome.violations"] += len(got)
            return tuple(sorted(got.items()))

        ops.append(Op(f"syndrome.w{w}", label,
                      lambda err=err: q.engine.syndrome(st["model"], err), check_syndrome))
    if L <= MEMBER_MAX_L:
        picks = rng.sample(range(n_gens), 3)

        def member():
            gens = st["model"].generators
            prod = q.pauli.pauli_mul(q.pauli.pauli_mul(gens[picks[0]].op, gens[picks[1]].op),
                                     gens[picks[2]].op)
            return q.engine.is_member(st["model"], prod)

        bombin_logical = _bombin_row_logical(q, L) if fam == "bombin" else None

        def logical():
            if fam == "bombin":
                return bombin_logical
            if fam == "dsemion":
                return q.dsemion.logical_operators(st["model"])["X1"].op
            return st["model"].logicals[0][1]

        def nonmember():
            op = logical()
            st["logical"] = op
            return q.engine.is_member(st["model"], op)

        def check_nonmember(r, counts):
            expect(not st["oracle"].exponents(st["logical"]),
                   f"{label}: logical representative carries syndrome")
            return equals(r, False, f"{label}: logical representative")

        ops.append(Op("member", label, member,
                      lambda r, counts: equals(r, True, f"{label}: generator product")))
        ops.append(Op("nonmember", label, nonmember, check_nonmember))
    return ops


def setup_algebra(q, seed, size, root):
    points = SMOKE_ALGEBRA_POINTS if size == "smoke" else ALGEBRA_POINTS
    ops = []
    for fam, L in points:
        ops += algebra_point(q, seed, fam, L)
    # one run per op: p90 leaves 13 distinct operations beyond it
    return Workload("algebra", ops, tail_pct=90.0)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------

# (family, L, error rate, decoded trials).  Every site takes an X error and,
# independently, a Z error with the error rate.  Trials with no error
# bypass the decoder as in the Monte Carlo harness, so every point decodes
# a fixed number of nonzero errors and the operation mix is the same for
# every seed.  The pair (X errors, Z errors) per trial is drawn by
# systematic sampling from its law conditioned on at least one error; given
# the pair, the sites and exponents are uniform, which is the i.i.d. law.
# The toric decoder's cost grows steeply with the larger of the two counts,
# so this keeps the share of heavy trials from changing with the seed.
DECODE_POINTS = (
    ("Z2", 4, 0.02, 100), ("Z2", 6, 0.02, 100), ("Z2", 8, 0.02, 100),
    ("Z3", 6, 0.02, 40), ("Z4", 6, 0.02, 40),
    ("dsemion", 4, 0.01, 60), ("dsemion", 6, 0.01, 60),
)
SMOKE_DECODE_POINTS = (("Z2", 4, 0.02, 10), ("Z3", 4, 0.02, 5), ("dsemion", 4, 0.01, 10))
WEIGHT_L = 10
WEIGHTS = tuple(range(2, 17, 2))
SMOKE_WEIGHTS = (2, 4)
MC_POINT = ("Z2", 6, 0.02)
MC_TRIALS = 100
SMOKE_MC_TRIALS = 10


def error_counts(rng, sites, rate, trials):
    """Systematic sample of (X errors, Z errors) per trial, given >= 1 error.

    Pairs are ordered by (larger count, smaller count, X count), so each
    quantile of the heavy end gets its share of trials.  Returns the
    shuffled pairs and the probability that a trial has an error.
    """
    pmf = [math.comb(sites, k) * rate ** k * (1 - rate) ** (sites - k)
           for k in range(sites + 1)]
    kmax = max(k for k in range(sites + 1) if pmf[k] > 1e-15)
    pairs = sorted(((a, b) for a in range(kmax + 1) for b in range(kmax + 1) if a or b),
                   key=lambda ab: (max(ab), min(ab), ab[0]))
    touched = 1 - pmf[0] ** 2
    out = []
    i, cdf = 0, pmf[pairs[0][0]] * pmf[pairs[0][1]] / touched
    offset = rng.random()
    for j in range(trials):
        target = (j + offset) / trials
        while cdf < target and i < len(pairs) - 1:
            i += 1
            cdf += pmf[pairs[i][0]] * pmf[pairs[i][1]] / touched
        out.append(pairs[i])
    rng.shuffle(out)
    return out, touched


def noise_terms(rng, sites, modulus, n_x, n_z):
    """X and Z errors with uniform nonzero exponents on uniform site sets."""
    xz = {}
    for pauli, count in ((0, n_x), (1, n_z)):
        for site in rng.sample(range(sites), count):
            xz.setdefault(site, [0, 0])[pauli] = rng.randrange(1, modulus)
    return [(site, x, z) for site, (x, z) in sorted(xz.items())]


def weight_error_terms(rng, geo, w):
    """w/2 X errors on horizontal edges whose plaquette pairs are disjoint,
    so the syndrome has exactly w violated plaquettes."""
    used = set()
    terms = []
    while len(terms) < w // 2:
        x, y = rng.randrange(geo.cols), rng.randrange(geo.rows)
        pair = {(x, y), (x, (y - 1) % geo.rows)}
        if pair & used:
            continue
        used |= pair
        terms.append((geo.edge_index("h", x, y), 1, 0))
    return terms


def _decode_op(q, kind, point, label, model, err, oracles, weight=None):
    """syndrome -> decoder -> residual -> residual syndrome -> class, on the
    model ``label``; ``oracles[label]`` checks the residual independently.

    The doubled-semion decoder gives up (InconsistentSyndromeError, "no
    rule assignment clears the syndrome") on about one noisy trial in 140.
    Giving up on a nonzero syndrome is an outcome of the trial, counted in
    ``decoders.raised``, not an error of the operation; any other raised
    error is a wrong output."""
    ds = model.family == "doubled-semion"

    def call():
        syn = q.engine.syndrome(model, err)
        if ds:
            try:
                corr = q.decoders.decode_doubled_semion(model, syn)
            except q.errors.InconsistentSyndromeError as exc:
                return syn, exc
        else:
            corr = q.decoders.decode_toric(model, syn)
        residual = q.pauli.pauli_mul(err, corr.op)
        left = q.engine.syndrome(model, residual)
        cls = None if left else q.decoders.classify_residual(model, residual)
        return syn, corr, residual, left, cls

    def check(out, counts):
        if len(out) == 2:  # the doubled-semion decoder gave up
            syn, exc = out
            expect(kind == "trial" and syn, f"{label}: decoder gave up on {syn!r}")
            counts["decoders.raised"] += 1
            counts[f"decoders.raised.{label}"] += 1
            return "gave up", str(exc)
        syn, corr, residual, left, cls = out
        expect(not left, f"{label}: correction leaves a syndrome")
        expect(not oracles[label].exponents(residual),
               f"{label}: residual carries syndrome (oracle)")
        if weight is not None:
            expect(syn.weight() == weight, f"{label}: syndrome weight {syn.weight()} != {weight}")
        counts["engine.syndrome.violations"] += syn.weight()
        if kind == "trial":
            counts["decoded"] += 1
            if cls != "1":
                counts["decoders.logical_failures"] += 1
                counts[f"decoders.logical_failures.{label}"] += 1
        return q.pauli.to_text(corr.op), cls

    return Op(kind, point, call, check)


def setup_decode(q, seed, size, root):
    smoke = size == "smoke"
    models = {}
    oracles = {}  # filled by prepare(), after set-up is timed
    ops = []
    touched = {}
    for fam, L, rate, trials in (SMOKE_DECODE_POINTS if smoke else DECODE_POINTS):
        label = f"{fam}.L{L}"
        model = models[label] = build(q, fam, L)
        rng = derive(seed, f"decode:{label}")
        pairs, touched[label] = error_counts(rng, model.n_sites, rate, trials)
        for n_x, n_z in pairs:
            err = q.pauli.from_terms(model.modulus, model.n_sites,
                                     noise_terms(rng, model.n_sites, model.modulus, n_x, n_z))
            ops.append(_decode_op(q, "trial", label, label, model, err, oracles))

    wmodel = models[f"Z2.L{WEIGHT_L}"] = build(q, "Z2", WEIGHT_L)
    rng = derive(seed, "decode:weights")
    for w in (SMOKE_WEIGHTS if smoke else WEIGHTS):
        err = q.pauli.from_terms(2, wmodel.n_sites,
                                 weight_error_terms(rng, wmodel.geometry, w))
        ops.append(_decode_op(q, "weight", f"w{w}", f"Z2.L{WEIGHT_L}", wmodel, err,
                              oracles, weight=w))

    fam, L, rate = MC_POINT
    label = f"{fam}.L{L}"
    mc_model = models.get(label) or build(q, fam, L)
    mc_trials = SMOKE_MC_TRIALS if smoke else MC_TRIALS
    mc_seed = derive(seed, "decode:mc").randrange(2 ** 31)

    def check_mc(res, counts):
        cc = res.class_counts
        expect(res.trials == mc_trials and sum(cc.values()) == mc_trials,
               "mc: class counts do not sum to trials")
        expect(res.failures == mc_trials - cc.get("1", 0), "mc: failure count")
        expect("syndrome" not in cc and "unknown" not in cc,
               "mc: a correction left a syndrome or an unnamed class")
        counts["mc.trials"] += mc_trials
        return res.failures, tuple(sorted(cc.items()))

    ops.append(Op("mc", label,
                  lambda: q.decoders.monte_carlo_trial(
                      mc_model, q.decoders.decode_toric, rate, mc_trials, mc_seed),
                  check_mc))

    def prepare():
        for key, model in models.items():
            oracles[key] = SyndromeOracle(q, model)

    # every trial has its own seeded error, so distinct operations are the
    # tail's samples; p95 leaves 25 of them beyond it, enough that the few
    # heaviest trials of a seed do not set the tail
    return Workload("decode", ops, tail_pct=95.0 if not smoke else 90.0,
                    facts={"touched_frac": touched, "mc_seed": mc_seed},
                    prepare=prepare)


SETUP = {"configs": setup_configs, "algebra": setup_algebra, "decode": setup_decode}
