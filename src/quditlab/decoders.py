"""Error correction: toric pairing decoder, the five-step doubled-semion
decoder, a brute-force minimum-weight oracle of weight <= 2, and a seeded
Monte Carlo harness.

All decoders are pure functions of the syndrome.  Stochastic work takes an
explicit seed and reproduces bit-for-bit.  Soundness (the correction clears
the syndrome) is checked by the caller-facing helpers and asserted
exhaustively in the tests; residual logical classes are identified through
commutation exponents against the model's canonical logical strings.

Each rule is stated once: ``_staircases`` gives every torus path,
``_pairing_table`` is the one parity check, ``_joined`` joins each pair by
one string, ``_add`` is the one syndrome sum (the oracle's targets
included), ``_rank`` the one order, ``_canonical`` the one choice (the first
of least ``_rank``) and ``_label`` the one outcome rule, which turns every
residual into a label.  No decoder
reads a gid: ``_violations`` takes positions from ``Generator.anchor`` and
roles from ``Generator.kind``, and step 2 takes its hint vertex from
``incidence``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from . import engine
from .errors import DecodeNotFoundError, InconsistentSyndromeError
from .lattice import StabilizerModel, string_operator
from .pauli import (PauliOp, commutation_exponent, from_terms, identity,
                    pauli_adjoint, pauli_mul, pauli_pow, pauli_prod, single_site,
                    sort_key)

__all__ = [
    "Correction",
    "MonteCarloResult",
    "decode_toric",
    "decode_doubled_semion",
    "BruteForceOracle",
    "monte_carlo_trial",
    "classify_residual",
    "decode_outcome",
]


@dataclass(frozen=True)
class Correction:
    op: PauliOp
    trace: tuple = ()


@dataclass(frozen=True)
class MonteCarloResult:
    error_rate: float
    trials: int
    failures: int
    seed: int
    class_counts: dict = field(default_factory=dict)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def wilson_interval(self):
        """The 95 % Wilson score interval of the failure rate."""
        z = 1.96
        if not self.trials:
            return (0.0, 0.0)
        n = self.trials
        p = self.failure_rate
        mid = (p + z * z / (2 * n)) / (1 + z * z / n)
        half = (z / (1 + z * z / n)) * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5)
        return (max(0.0, mid - half), min(1.0, mid + half))


# ----------------------------------------------------------------------
# logical classes
# ----------------------------------------------------------------------

def _class_tuple(op, logicals):
    return tuple(commutation_exponent(op, l) for _, l in logicals)


def _rank(word, logicals):
    """The canonical order every decoder picks its correction by: weight,
    then logical class, then exponents."""
    return word.weight(), _class_tuple(word, logicals), sort_key(word)


def _canonical(cands, logicals) -> Correction:
    """The ``Correction`` of the first (word, trace) candidate of least
    ``_rank``; ``_rank`` orders by weight first, so only the lightest words
    are ranked."""
    cands = list(cands)
    w = min(word.weight() for word, _ in cands)
    return Correction(*min((c for c in cands if c[0].weight() == w),
                           key=lambda c: _rank(c[0], logicals)))


def _class_names(model):
    """Map class tuple -> shortest product name over the model's logicals."""
    logicals = model.logicals
    n = model.modulus
    combos = [((), identity(model.modulus, model.n_sites))]
    names = {_class_tuple(combos[0][1], logicals): "1"}
    for name, op in logicals:
        new = []
        for prev_name, prev_op in combos:
            acc = prev_op
            for k in range(n):
                if k:
                    acc = pauli_mul(acc, op)
                label = prev_name + ((f"{name}^{k}",) if k else ())
                new.append((label, acc))
                t = _class_tuple(acc, logicals)
                if t not in names:
                    names[t] = "*".join(label) if label else "1"
        combos = new
    return names


def _label(model, residual, names) -> str:
    """The outcome of a residual: ``syndrome`` when it violates a
    generator, else the name of its logical class in ``names`` (see
    ``_class_names``), or ``unknown`` for a class that has none."""
    if engine.syndrome(model, residual):
        return "syndrome"
    return names.get(_class_tuple(residual, model.logicals), "unknown")


def classify_residual(model, residual: PauliOp) -> str:
    """Name the logical class of a syndrome-free residual operator."""
    label = _label(model, residual, _class_names(model))
    if label in ("syndrome", "unknown"):
        raise InconsistentSyndromeError(f"residual has no logical class: {label}")
    return label


def decode_outcome(model, error: PauliOp, correction: Correction) -> str:
    """The ``_label`` of the residual the correction leaves; "1" is success."""
    return _label(model, pauli_mul(error, correction.op), _class_names(model))


# ----------------------------------------------------------------------
# toric pairing decoder
# ----------------------------------------------------------------------

def _legs(size, d):
    """The shortest ways round a cycle of ``size`` to cover the displacement
    d, as (direction, steps), forward first: two only on a half-way tie."""
    d %= size
    if 2 * d < size:
        return ((1, d),)
    if 2 * d > size:
        return ((-1, size - d),)
    return ((1, d), (-1, d))


def _torus_dist(geo, a, b):
    return (_legs(geo.cols, b[0] - a[0])[0][1]
            + _legs(geo.rows, b[1] - a[1])[0][1])


def _staircases(geo, a, b):
    """The shortest staircase paths from a to b: for each of the ``_legs``
    of x and of y, the path that takes the x leg first, then the one that
    takes the y leg first."""
    cols, rows = geo.cols, geo.rows
    for sx, nx in _legs(cols, b[0] - a[0]):
        for sy, ny in _legs(rows, b[1] - a[1]):
            xleg, yleg = [(sx, 0)] * nx, [(0, sy)] * ny
            for steps in (xleg + yleg, yleg + xleg):
                x, y = a
                path = [a]
                for ux, uy in steps:
                    x, y = (x + ux) % cols, (y + uy) % rows
                    path.append((x, y))
                yield path


def _torus_path(geo, a, b):
    """The deterministic staircase path from a to b: the first of
    ``_staircases``, x leg first, forward on a tie."""
    return next(_staircases(geo, a, b))


def _pairing_table(geo, positions):
    """Subset DP over torus distances: the upper-triangle distance matrix and
    ``_best_pairing`` of every index mask reached from the full set."""
    k = len(positions)
    if k % 2:
        raise InconsistentSyndromeError("odd number of violations cannot pair up")
    d = [[_torus_dist(geo, a, b) if j > i else 0 for j, b in enumerate(positions)]
         for i, a in enumerate(positions)]
    table = {0: (0, ())}
    _best_pairing((1 << k) - 1, d, table)
    return d, table


# these recurse at module level: a recursive closure is a reference cycle that
# keeps its table alive until the cyclic collector runs, a cost on every decode
def _best_pairing(mask, d, table):
    """``table[mask]`` = (cost, pairs) of the minimum-cost pairing of the mask:
    its lowest index pairs first, and cost ties go to the smaller pairs."""
    if mask in table:
        return table[mask]
    i = (mask & -mask).bit_length() - 1
    best = None
    for j in range(i + 1, len(d)):
        if mask >> j & 1:
            rest = _best_pairing(mask & ~(1 << i) & ~(1 << j), d, table)
            cand = (rest[0] + d[i][j], rest[1] + ((i, j),))
            if best is None or cand < best:
                best = cand
    table[mask] = best
    return best


def _walk_pairings(mask, d, table):
    if not mask:
        yield ()
        return
    i = (mask & -mask).bit_length() - 1
    for j in range(i + 1, len(d)):
        rest = mask & ~(1 << i) & ~(1 << j)
        if mask >> j & 1 and table[rest][0] + d[i][j] == table[mask][0]:
            for tail in _walk_pairings(rest, d, table):
                yield ((i, j),) + tail


def _pair_paths(geo, positions):
    """One ``_torus_path`` per pair of the canonical subset-DP pairing of
    ``positions``: an exact minimum-weight perfect matching."""
    pairs = _pairing_table(geo, positions)[1][(1 << len(positions)) - 1][1]
    return [_torus_path(geo, positions[i], positions[j]) for i, j in pairs]


def _joined(model, positions, stype):
    """The product of one ``stype`` string per ``_pair_paths`` pair of the
    sorted violation anchors ``positions``."""
    return pauli_prod(model.modulus, model.n_sites, [
        string_operator(model, stype, path) for path in _pair_paths(model.geometry, positions)])


def _min_cost_pairings(geo, positions):
    """Every minimum-cost pairing, walking only the ``_pairing_table``
    branches that stay at the minimum; the lowest index pairs with each later
    one in ascending order, the order of full enumeration."""
    return _walk_pairings((1 << len(positions)) - 1, *_pairing_table(geo, positions))


def _geodesic_paths(geo, a, b):
    """Every ``_staircases`` path from a to b, each once, sorted."""
    return sorted({tuple(path) for path in _staircases(geo, a, b)})


def _violations(model, exps, kind):
    """The violated generators of ``kind`` in the syndrome exponents
    ``exps`` as sorted (anchor, charge) pairs, the charge the commutation
    exponent mod N."""
    out = []
    for gid, e in exps.items():
        g = model.generator(gid)
        if g.kind == kind:
            out.append((g.anchor, e * model.modulus // g.order))
    return sorted(out)


# up to this many violations a family tries every minimum-cost pairing and
# geodesic (subset-DP table of O(k 2^k), then O(k^2) per minimum-cost
# pairing); above it, the canonical DP pairing along one path per pair
PAIRING_CAP = 12


def _family_candidates(model, positions, stype):
    """Syndrome-clearing string products for one violation family (modulus 2).

    Enumerates minimum-cost pairings and geodesic path variants, then keeps
    one representative per (weight, logical-class) so that degenerate
    choices are resolved by the same canonical order the oracle uses.
    """
    geo = model.geometry
    if not positions:
        return [identity(model.modulus, model.n_sites)]
    if len(positions) > PAIRING_CAP:
        return [_joined(model, positions, stype)]
    words = {}
    geodesics = {}  # pair -> its geodesic strings, built once per call
    for pr in _min_cost_pairings(geo, positions):
        for i, j in pr:
            if (i, j) not in geodesics:
                geodesics[i, j] = [
                    string_operator(model, stype, path)
                    for path in _geodesic_paths(geo, positions[i], positions[j])]
        legs = [geodesics[pair] for pair in pr]
        partial = legs[0]
        for strings in legs[1:]:
            partial = [pauli_mul(w, s) for w in partial for s in strings]
        for w in partial:
            words.setdefault(w.terms, w)
    out = sorted(words.values(), key=sort_key)
    if len(out) > 64:
        # keep one representative per (weight, logical class), the first two
        # fields of _rank, to bound the joint search
        reps = {}
        for w in out:
            reps.setdefault(_rank(w, model.logicals)[:2], w)
        out = [reps[k] for k in sorted(reps)]
    return out


def decode_toric(model: StabilizerModel, syn) -> Correction:
    """Pair violated vertices with Z strings and plaquettes with X strings.

    For modulus 2 the pairing is an exact minimum-weight perfect matching on
    torus distance from a subset-DP table (see ``PAIRING_CAP``); ties go to
    ``_canonical``, as in the brute-force oracle.
    For larger moduli the charges are folded into a reference location along
    shortest paths (sound, deterministic): a unit string's end charges are
    fixed by ``lattice.STRINGS``, so no merge takes a syndrome.  A violated
    generator of any other kind, a Z2 family of odd size or Z_N charges that
    do not cancel raise ``InconsistentSyndromeError``.
    """
    geo = model.geometry
    n = model.modulus
    vert = _violations(model, syn.exponents, "vertex")
    plaq = _violations(model, syn.exponents, "plaquette")
    if len(vert) + len(plaq) != len(syn.exponents):
        raise InconsistentSyndromeError(
            "decode_toric corrects vertex and plaquette violations only")
    if n == 2:
        words = product(_family_candidates(model, [p for p, _ in vert], "e"),
                        _family_candidates(model, [p for p, _ in plaq], "m"))
        return _canonical(((pauli_mul(zw, xw), ()) for zw, xw in words), model.logicals)

    corr = identity(n, model.n_sites)
    # a unit e string carries charge +1 at its first node and -1 at its last,
    # an m string -1 and +1
    for kind, items, stype, k0 in (("vertex", vert, "e", 1), ("plaquette", plaq, "m", -1)):
        if sum(q for _, q in items) % n:
            raise InconsistentSyndromeError(f"{kind} charges do not cancel mod {n}")
        # each merge keeps the total charge and drops an item it clears, so
        # once the total is 0 the fold ends with no charge left
        while len(items) > 1:
            (p0, q0), (p1, q1) = items[0], items[1]
            string = string_operator(model, stype, _torus_path(geo, p0, p1))
            # k0 = +-1 is its own inverse, so the power -q0 * k0 clears q0 and
            # moves q0 itself to p1
            corr = pauli_mul(corr, pauli_pow(string, -q0 * k0 % n))
            q1 = (q1 + q0) % n
            items = ([(p1, q1)] if q1 else []) + items[2:]
    return Correction(corr, ())


# ----------------------------------------------------------------------
# doubled-semion five-step decoder
# ----------------------------------------------------------------------

def _add(model, exps, *more):
    """The sum of syndrome exponent maps, mod each generator's order, zeros
    dropped: syndromes add, so this is the syndrome of the words' product."""
    out = dict(exps)
    for syn_exponents in more:
        for gid, e in syn_exponents.items():
            v = (out.get(gid, 0) + e) % model.generator(gid).order
            if v:
                out[gid] = v
            else:
                out.pop(gid, None)
    return out


def _trail_edges(ds, exps):
    """The violated edge generators, sorted by the site of their Z^2 term:
    row-major, h before v."""
    return sorted((g for g in map(ds.generator, exps) if g.kind == "edge"),
                  key=lambda g: next(s for s, _, z in g.op.terms if z))


def _step2_plans(ds, exps0, trail):
    """Step 2's (rule, site, first power) per trail edge, read off its edge
    generator, Z^2 on the edge and X^2 on its hop partner, and off the
    edge's incidence: rule 2a undoes X on the edge when a plaquette on the
    edge is excited, its power suggested by the exponent of the hint
    vertex, the one acting on the edge by a Z power alone; rule 2b
    otherwise undoes Z on the hop partner."""
    plans = []
    for g in trail:
        edge = next(s for s, _, z in g.op.terms if z)
        partner = next(s for s, xe, _ in g.op.terms if xe)
        row = [(ds.generators[j], x) for j, x, _ in ds.incidence[edge]]
        if any(h.kind == "plaquette" and h.gid in exps0 for h, _ in row):
            hint = next(h for h, x in row if h.kind == "vertex" and not x)
            e = exps0.get(hint.gid, 1) % 4
            plans.append(("2a", edge, -(e if e in (1, 3) else 1) % 4))
        else:
            plans.append(("2b", partner, 3))
    return plans


def _close_plaquettes(ds, exps):
    """Step 3: close residual plaquette excitations with semion strings."""
    pos = [p for p, _ in _violations(ds, exps, "plaquette")]
    # s, s-dagger, sbar, sbar-dagger per pair, the last pair varying fastest
    segs = [[v for w in (string_operator(ds, a, path) for a in ("s", "sbar"))
             for v in (w, pauli_adjoint(w))] for path in _pair_paths(ds.geometry, pos)]
    return [pauli_prod(4, ds.n_sites, ws) for ws in product(*segs)], ("3",) if pos else ()


def decode_doubled_semion(ds: StabilizerModel, syn) -> Correction:
    """The five-step doubled-semion correction.

    1. Trace the edge (C_e) excitations into a path of implicated edges.
    2. (a) Edges flanked by plaquette excitations are bit-flip errors: undo
       them with X powers read from the endpoint vertex exponents ("to the
       left of the path" fixes the power sign convention).  (b) Otherwise
       the implicated edge is the hop partner of a phase-flip: undo with Z.
    3. Close the remaining plaquette excitations with a semion (or
       anti-semion) string.
    4. Inspect the remaining vertex excitations at the corners.
    5. (a)/(b) Cancel paired double vertex excitations with ss-bar strings.

    The candidates are every step-2 power assignment (both signs per trail
    edge) times every step-3 closer (s, s-dagger, sbar or sbar-dagger per
    pair).  Any two differ by X^2 or Z^2 on single edges, which commute with
    every C and B and move A exponents by 2 or 4, so one candidate decides
    for all whether C or B excitations stay, an odd A exponent stays, or the
    A excitations cannot pair.  No candidate is rejected; the correction is
    their ``_canonical`` choice.
    """
    exps0 = dict(syn.exponents)
    trail = _trail_edges(ds, exps0)
    if len(trail) > 12:
        raise InconsistentSyndromeError("edge-excitation trail too long to trace")
    plans = _step2_plans(ds, exps0, trail)

    # one step-2 word per power assignment, plan 0 varying fastest: each plan
    # tries its first power, then the negated one
    steps2 = []
    for powers in product(*[(p, -p % 4) for _, _, p in reversed(plans)]):
        steps2.append(from_terms(4, ds.n_sites, [
            (site, s, 0) if rule == "2a" else (site, 0, s)
            for (rule, site, _), s in zip(plans, reversed(powers))]))
    fail = InconsistentSyndromeError("no rule assignment clears the syndrome")
    # a candidate's syndrome is the sum of its step-2 word's and its closer's,
    # each taken once
    syns2 = [engine.syndrome(ds, w).exponents for w in steps2]
    exps = _add(ds, exps0, syns2[0])
    if _violations(ds, exps, "edge"):
        raise fail
    closers, rule3 = _close_plaquettes(ds, exps)
    syns3 = [engine.syndrome(ds, w).exponents for w in closers]
    exps3 = _add(ds, exps, syns3[0])
    doubles = [e for _, e in _violations(ds, exps3, "vertex")]
    if (_violations(ds, exps3, "plaquette") or any(e != 2 for e in doubles)
            or len(doubles) % 2):
        raise fail
    trace0 = (("1",) if trail else ()) + tuple(dict.fromkeys(r for r, _, _ in plans)) + rule3
    # the step-5b closer depends only on the A excitations left, which
    # repeat across the candidates
    fixers = {}
    cands = []
    for (step2, syn2), (closer, syn3) in product(zip(steps2, syns2), zip(closers, syns3)):
        partial = pauli_mul(step2, closer)
        left = tuple(p for p, _ in _violations(ds, _add(ds, exps0, syn2, syn3), "vertex"))
        if left not in fixers:
            # steps 4 and 5b: pair the double vertex excitations
            fixers[left] = _joined(ds, left, "ssbar")
        cands.append((pauli_mul(partial, fixers[left]), trace0 + (("4", "5b") if left else ())))
    corr = _canonical(cands, ds.logicals)
    if _add(ds, exps0, engine.syndrome(ds, corr.op).exponents):
        raise fail
    return corr


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------

class BruteForceOracle:
    """Exhaustive minimum-weight search over corrections of weight <= 2.

    Desk scale only: one table of the single-site words keyed by the
    (gid, exponent) pairs of their syndrome, so a weight-2 match costs one
    ``_add`` and one lookup per single, whatever the model's size.  At the
    minimum weight the oracle enumerates every matching correction and
    returns their ``_canonical`` choice.
    """

    def __init__(self, model):
        self.model = model
        self.n = model.n_sites
        self.N = model.modulus
        self.singles = []  # (key, op) in deterministic order
        for site in range(self.n):
            for a in range(self.N):
                for b in range(self.N):
                    if a == 0 and b == 0:
                        continue
                    op = single_site(self.N, self.n, site, x=a, z=b)
                    syn = engine.syndrome(model, op)
                    self.singles.append((frozenset(syn.exponents.items()), op))
        self.by_key = {}
        for key, op in self.singles:
            self.by_key.setdefault(key, []).append(op)

    def _weight2_matches(self, target):
        """Every weight-2 word with syndrome ``target``, each unordered pair once.

        One single of a match has a nonzero key on a violated generator, so
        sits on its support: only those sites' singles are enumerated, each
        partner is looked up on any other site, and a pair with both sites
        among them is kept from its lower site.
        """
        model = self.model
        per = self.N * self.N - 1  # singles per site, in site order
        near = {s for g in target for s in model.generator(g).op.support()}
        out = []
        for site in sorted(near):
            for k1, op1 in self.singles[site * per:(site + 1) * per]:
                need = _add(model, target, {g: -v for g, v in k1})
                for op2 in self.by_key.get(frozenset(need.items()), ()):
                    s2 = op2.terms[0][0]
                    if s2 != site and (s2 > site or s2 not in near):
                        out.append(pauli_mul(op1, op2))
        return out

    def decode(self, syn) -> Correction:
        target = _add(self.model, {}, {g: -v for g, v in syn.exponents.items()})
        if not target:
            return Correction(identity(self.N, self.n), ("w0",))
        key = frozenset(target.items())
        if key in self.by_key:
            return _canonical(((w, ("w1",)) for w in self.by_key[key]), self.model.logicals)
        cands = self._weight2_matches(target)
        if cands:
            return _canonical(((w, ("w2",)) for w in cands), self.model.logicals)
        raise DecodeNotFoundError("no correction of weight <= 2 matches the syndrome")


# ----------------------------------------------------------------------
# Monte Carlo harness
# ----------------------------------------------------------------------

def _error_label(model, decoder, names, hits):
    """The class label of one trial's error, given by its hits (see
    ``monte_carlo_trial``): decode its syndrome, then ``_label`` the
    residual; a decoder that gives up labels it ``gave-up``."""
    N, n = model.modulus, model.n_sites
    # X^x then Z^z on one site is the normal form, so no phase arises
    err = from_terms(N, n, [(i >> 1, 0, e) if i & 1 else (i >> 1, e, 0) for i, e in hits])
    try:
        corr = decoder(model, engine.syndrome(model, err))
    except InconsistentSyndromeError:
        return "gave-up"
    return _label(model, pauli_mul(err, corr.op), names)


def monte_carlo_trial(model, decoder, error_rate: float, trials: int,
                      seed: int) -> MonteCarloResult:
    """i.i.d. per-site X/Z error injection, decode, classify the residual.

    Identical seeds reproduce identical trials bit-for-bit.  A trial makes
    2n draws in site order, X before Z: draw i is a uniform for site i // 2
    (X when i is even, Z when odd) and, on a hit, the exponent in [1, N)
    drawn before the next uniform, the call sequence of a per-site loop.
    An error-free trial costs one empty comprehension and one integer
    increment, and never decodes.

    A trial's hits, the (draw, exponent) pairs, are its error, and decoders
    are pure functions of the syndrome, so each distinct error is labelled
    once per call: a dict local to the call maps the hits to the class
    label.  The error word, its syndrome, the decode, the residual and its
    class run once per distinct error, not once per noisy trial.  A decoder
    that gives up (``InconsistentSyndromeError``) fails the trial under the
    class ``gave-up``, which the memo keeps like any other label.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must lie in [0, 1]")
    rng = random.Random(seed)
    rand, randrange = rng.random, rng.randrange
    N = model.modulus
    draws = range(2 * model.n_sites)
    clean = 0
    class_counts = {}
    names = _class_names(model)
    labels = {}  # a trial's hits -> its class label
    for _ in range(trials):
        hits = [(i, randrange(1, N)) for i in draws if rand() < error_rate]
        if not hits:
            clean += 1
            continue
        key = tuple(hits)
        label = labels.get(key)
        if label is None:
            label = labels[key] = _error_label(model, decoder, names, hits)
        class_counts[label] = class_counts.get(label, 0) + 1
    failures = trials - clean - class_counts.get("1", 0)
    if clean:
        class_counts["1"] = class_counts.get("1", 0) + clean
    return MonteCarloResult(error_rate, trials, failures, seed, class_counts)
