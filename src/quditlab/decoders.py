"""Error correction: toric pairing decoder, the five-step doubled-semion
decoder, a brute-force minimum-weight oracle, and a seeded Monte Carlo
harness.

All decoders are pure functions of the syndrome.  Stochastic work takes an
explicit seed and reproduces bit-for-bit.  Soundness (the correction clears
the syndrome) is checked by the caller-facing helpers and asserted
exhaustively in the tests; residual logical classes are identified through
commutation exponents against the model's canonical logical strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import engine
from .dsemion import string_operator
from .errors import DecodeNotFoundError, InconsistentSyndromeError
from .lattice import StabilizerModel, toric_string_operator
from .pauli import (PauliOp, commutation_exponent, identity, pauli_adjoint,
                    pauli_mul, pauli_pow, pauli_prod, single_site, sort_key)

__all__ = [
    "Correction",
    "DecodeOutcome",
    "MonteCarloResult",
    "decode_toric",
    "decode_doubled_semion",
    "brute_force_decode",
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
class DecodeOutcome:
    success: bool
    logical_class: str


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

    def wilson_interval(self, z: float = 1.96):
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


def _class_names(model, logicals):
    """Map class tuple -> shortest product name over the logical generators."""
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


def classify_residual(model, residual: PauliOp) -> str:
    """Name the logical class of a syndrome-free residual operator."""
    t = _class_tuple(residual, model.logicals)
    names = _class_names(model, model.logicals)
    if t not in names:
        raise InconsistentSyndromeError("residual carries syndrome; not a logical class")
    return names[t]


def decode_outcome(model, error: PauliOp, correction: Correction) -> DecodeOutcome:
    residual = pauli_mul(error, correction.op)
    if engine.syndrome(model, residual):
        return DecodeOutcome(False, "syndrome")
    label = classify_residual(model, residual)
    return DecodeOutcome(label == "1", label)


# ----------------------------------------------------------------------
# toric pairing decoder
# ----------------------------------------------------------------------

def _torus_dist(geo, a, b):
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    return min(dx, geo.cols - dx) + min(dy, geo.rows - dy)


def _torus_path(geo, a, b):
    """Deterministic staircase path from a to b: x leg first, then y leg."""
    path = [a]
    x, y = a
    dx = (b[0] - x) % geo.cols
    step = 1 if dx <= geo.cols - dx else -1
    for _ in range(min(dx, geo.cols - dx)):
        x = (x + step) % geo.cols
        path.append((x, y))
    dy = (b[1] - y) % geo.rows
    step = 1 if dy <= geo.rows - dy else -1
    for _ in range(min(dy, geo.rows - dy)):
        y = (y + step) % geo.rows
        path.append((x, y))
    return path


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


def _min_weight_pairing(geo, positions):
    """Exact minimum-weight perfect matching by subset dynamic programming."""
    return _pairing_table(geo, positions)[1][(1 << len(positions)) - 1][1]


def _min_cost_pairings(geo, positions):
    """Every minimum-cost pairing, walking only the ``_pairing_table``
    branches that stay at the minimum; the lowest index pairs with each later
    one in ascending order, the order of full enumeration."""
    return _walk_pairings((1 << len(positions)) - 1, *_pairing_table(geo, positions))


def _geodesic_paths(geo, a, b):
    """Shortest staircase paths a -> b, covering both legs' wrap ties."""
    def leg_steps(delta, size):
        fwd = delta % size
        back = size - fwd if fwd else 0
        if fwd == 0:
            return [()]
        opts = []
        if fwd <= back:
            opts.append((1,) * fwd)
        if back <= fwd:
            opts.append((-1,) * back)
        return opts

    paths = set()
    for xs in leg_steps(b[0] - a[0], geo.cols):
        for ys in leg_steps(b[1] - a[1], geo.rows):
            for order in ("xy", "yx"):
                x, y = a
                path = [a]
                seq = ([("x", s) for s in xs] + [("y", s) for s in ys]
                       if order == "xy" else
                       [("y", s) for s in ys] + [("x", s) for s in xs])
                for axis, s in seq:
                    if axis == "x":
                        x = (x + s) % geo.cols
                    else:
                        y = (y + s) % geo.rows
                    path.append((x, y))
                paths.add(tuple(path))
    return sorted(paths)


def _gid_coords(gid):
    inner = gid[gid.index("(") + 1:-1].split(",")
    return int(inner[-2]), int(inner[-1])


def _violations(model, syn, kind):
    out = []
    for gid, e in syn.exponents.items():
        g = model.generator(gid)
        if g.kind == kind:
            out.append((_gid_coords(gid), e * model.modulus // g.order))
    return sorted(out)


def _string_multiplier(model, string, anchor_gid, want):
    k = engine.syndrome(model, string).exponents.get(anchor_gid, 0)
    n = model.modulus
    for m in range(1, n):
        if (k * m) % n == (-want) % n:
            return m
    raise InconsistentSyndromeError("string cannot annihilate the charge")


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
        pairs = _min_weight_pairing(geo, positions)
        return [pauli_prod(model.modulus, model.n_sites, [toric_string_operator(
            model, _torus_path(geo, positions[i], positions[j]), stype)
            for i, j in pairs])]
    words = {}
    geodesics = {}  # pair -> its geodesic strings, built once per call
    for pr in _min_cost_pairings(geo, positions):
        for i, j in pr:
            if (i, j) not in geodesics:
                geodesics[i, j] = [
                    toric_string_operator(model, list(path), stype)
                    for path in _geodesic_paths(geo, positions[i], positions[j])]
        legs = [geodesics[pair] for pair in pr]
        partial = legs[0]
        for strings in legs[1:]:
            partial = [pauli_mul(w, s) for w in partial for s in strings]
        for w in partial:
            words.setdefault(w.terms, w)
    out = sorted(words.values(), key=sort_key)
    if len(out) > 64:
        # keep only one representative per logical class to bound the joint search
        reps = {}
        for w in out:
            key = (w.weight(), _class_tuple(w, model.logicals))
            if key not in reps:
                reps[key] = w
        out = [reps[k] for k in sorted(reps)]
    return out


def decode_toric(model: StabilizerModel, syn) -> Correction:
    """Pair violated vertices with Z strings and plaquettes with X strings.

    For modulus 2 the pairing is an exact minimum-weight perfect matching on
    torus distance from a subset-DP table (see ``PAIRING_CAP``), never a list
    of all (k-1)!! pairings; degenerate ties are broken canonically by (weight,
    logical class, exponents), the same order the brute-force oracle uses.
    For larger moduli the charges are folded into a reference location along
    shortest paths (sound, deterministic).
    """
    geo = model.geometry
    n = model.modulus
    if n == 2:
        vert = [p for p, q in _violations(model, syn, "vertex")]
        plaq = [p for p, q in _violations(model, syn, "plaquette")]
        if len(vert) % 2 or len(plaq) % 2:
            raise InconsistentSyndromeError("odd violation parity")
        best = None
        for zw in _family_candidates(model, vert, "e"):
            for xw in _family_candidates(model, plaq, "m"):
                w = pauli_mul(zw, xw)
                key = (w.weight(), _class_tuple(w, model.logicals), sort_key(w))
                if best is None or key < best[0]:
                    best = (key, w)
        return Correction(best[1], ())

    corr = identity(n, model.n_sites)
    for kind, stype in (("vertex", "e"), ("plaquette", "m")):
        current = _violations(model, syn, kind)
        if not current:
            continue
        if sum(q for _, q in current) % n:
            raise InconsistentSyndromeError(f"{kind} charges do not cancel mod {n}")
        items = list(current)
        while len(items) > 1:
            (p0, q0), (p1, q1) = items[0], items[1]
            gid = f"{'A' if kind == 'vertex' else 'B'}({p0[0]},{p0[1]})"
            string = toric_string_operator(model, _torus_path(geo, p0, p1), stype)
            m = _string_multiplier(model, string, gid, q0)
            word = pauli_pow(string, m)
            corr = pauli_mul(corr, word)
            moved = engine.syndrome(model, word).exponents.get(
                f"{'A' if kind == 'vertex' else 'B'}({p1[0]},{p1[1]})", 0)
            q1 = (q1 + moved) % n
            items = ([(p1, q1)] if q1 else []) + items[2:]
        if items and items[0][1]:
            raise InconsistentSyndromeError("unpaired charge remains")
    return Correction(corr, ())


# ----------------------------------------------------------------------
# doubled-semion five-step decoder
# ----------------------------------------------------------------------

def _combine(ds, syn_exponents, corr):
    """Exponents of error * corr given the error's syndrome exponents."""
    out = dict(syn_exponents)
    for gid, e in engine.syndrome(ds, corr).exponents.items():
        v = (out.get(gid, 0) + e) % ds.generator(gid).order
        if v:
            out[gid] = v
        else:
            out.pop(gid, None)
    return out


def _trail_edges(ds, exps):
    """Violated C generators as (orient, x, y) of their Z^2 edge, row-major."""
    edges = []
    for gid in exps:
        if ds.generator(gid).kind == "edge":
            o, xs, ys = gid[2:-1].split(",")
            edges.append((o, int(xs), int(ys)))
    return sorted(edges, key=lambda t: (t[2], t[1], t[0]))


def _close_plaquettes(ds, exps):
    """Step 3: close residual plaquette excitations with semion strings."""
    geo = ds.geometry
    pos = sorted(_gid_coords(g) for g in exps if g.startswith("B("))
    if not pos:
        return [identity(4, ds.n_sites)], "none"
    if len(pos) % 2:
        raise InconsistentSyndromeError("odd number of plaquette excitations")
    pairs = _min_weight_pairing(geo, pos)
    words = [identity(4, ds.n_sites)]
    for i, j in pairs:
        path = _torus_path(geo, pos[i], pos[j])
        segs = []
        for anyon in ("s", "sbar"):
            w = string_operator(ds, anyon, path).op
            segs += [w, pauli_adjoint(w)]
        words = [pauli_mul(w0, s) for w0 in words for s in segs]
    return words, "3"


def _close_vertices(ds, exps):
    """Step 5b: pair double vertex excitations with ss-bar strings."""
    geo = ds.geometry
    pos = []
    for g in exps:
        if g.startswith("A("):
            if exps[g] != 2:
                raise InconsistentSyndromeError("unpaired single vertex excitation")
            pos.append(_gid_coords(g))
    if not pos:
        return identity(4, ds.n_sites), "none"
    pairs = _min_weight_pairing(geo, sorted(pos))
    pos = sorted(pos)
    corr = identity(4, ds.n_sites)
    for i, j in pairs:
        w = string_operator(ds, "ssbar", _torus_path(geo, pos[i], pos[j])).op
        corr = pauli_mul(corr, w)
    return corr, "5b"


def _step2_candidates(plans, k, sites):
    """(word, rules) for every power assignment of ``plans[k:]``: plan k
    varies fastest, trying its ``first`` power, then the negated one.

    A plan is (rule, site, first): rule 2a puts X^s on the site, rule 2b
    Z^s.  Module-level recursion, so a decode leaves no reference cycle.
    """
    if k == len(plans):
        yield identity(4, sites), ()
        return
    rule, site, first = plans[k]
    for rest, rules in _step2_candidates(plans, k + 1, sites):
        for s in (first, (-first) % 4):
            word = (single_site(4, sites, site, x=s) if rule == "2a"
                    else single_site(4, sites, site, z=s))
            yield pauli_mul(word, rest), (rule,) + rules


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

    Sign ambiguities on interior edges are resolved by deterministic
    enumeration (first syndrome-clearing assignment in row-major order).
    """
    geo = ds.geometry
    exps0 = dict(syn.exponents)
    trail = _trail_edges(ds, exps0)
    if len(trail) > 12:
        raise InconsistentSyndromeError("edge-excitation trail too long to trace")

    # which interpretation per trail edge: X on the edge itself when a
    # flanking plaquette is excited, else Z on the hop partner edge
    def flanking_plaquettes(o, x, y):
        if o == "h":
            return [f"B({x},{y})", f"B({x},{(y - 1) % geo.rows})"]
        return [f"B({x},{y})", f"B({(x - 1) % geo.cols},{y})"]

    plans = []
    for o, x, y in trail:
        if any(b in exps0 for b in flanking_plaquettes(o, x, y)):
            # endpoint vertex exponent suggests the power
            hint_gid = (f"A({x},{(y - 1) % geo.rows})" if o == "h"
                        else f"A({(x - 1) % geo.cols},{y})")
            hint = exps0.get(hint_gid, 1) % 4
            hint = hint if hint in (1, 3) else 1
            plans.append(("2a", geo.edge_index(o, x, y), (-hint) % 4))
        elif o == "h":
            plans.append(("2b", geo.edge_index("v", x + 1, y), 3))
        else:
            plans.append(("2b", geo.edge_index("h", x, y + 1), 3))

    cleared = []
    for step2, rules in _step2_candidates(plans, 0, ds.n_sites):
        exps = _combine(ds, exps0, step2)
        if any(g.startswith("C(") for g in exps):
            continue
        trace = (("1",) if trail else ()) + tuple(dict.fromkeys(rules))
        closers, rule3 = _close_plaquettes(ds, exps)
        for closer in closers:
            exps3 = _combine(ds, exps, closer)
            if any(g.startswith("B(") for g in exps3):
                continue
            t3 = trace + ((rule3,) if rule3 != "none" else ())
            if any(g.startswith("A(") for g in exps3):
                t3 = t3 + ("4",)
            try:
                fixer, rule5 = _close_vertices(ds, exps3)
            except InconsistentSyndromeError:
                continue
            exps5 = _combine(ds, exps3, pauli_mul(closer, fixer)) if rule5 != "none" else exps3
            if exps5:
                continue
            corr = pauli_mul(step2, pauli_mul(closer, fixer))
            if rule5 != "none":
                t3 = t3 + (rule5,)
            cleared.append((corr, t3))
    if not cleared:
        raise InconsistentSyndromeError("no rule assignment clears the syndrome")
    corr, trace = min(cleared, key=lambda ct: (
        ct[0].weight(), _class_tuple(ct[0], ds.logicals), sort_key(ct[0])))
    return Correction(corr, trace)


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------

class BruteForceOracle:
    """Exhaustive minimum-weight search with meet-in-the-middle tables.

    Desk scale only: weight <= 3 on lattices up to 6x6.  At the minimum
    weight the oracle enumerates every matching correction and returns the
    canonical one: smallest (logical class, exponent tuple).
    """

    def __init__(self, model, max_weight: int = 2):
        if max_weight > 3:
            raise DecodeNotFoundError("oracle enumerates weight <= 3 only")
        self.model = model
        self.max_weight = max_weight
        self.n = model.n_sites
        self.N = model.modulus
        self.gens = list(model.generators)
        self._orders = [g.order for g in self.gens]
        self.singles = []  # (key, op) in deterministic order
        for site in range(self.n):
            for a in range(self.N):
                for b in range(self.N):
                    if a == 0 and b == 0:
                        continue
                    op = single_site(self.N, self.n, site, x=a, z=b)
                    self.singles.append((self._key(op), op))
        self.by_key = {}
        for key, op in self.singles:
            self.by_key.setdefault(key, []).append(op)
        self.w2 = None
        if max_weight >= 2:
            self.w2 = set()
            for i, (k1, op1) in enumerate(self.singles):
                s1 = op1.support()[0]
                for k2, op2 in self.singles[i + 1:]:
                    if op2.support()[0] == s1:
                        continue
                    self.w2.add(tuple((a + b) % o for a, b, o in
                                      zip(k1, k2, self._orders)))

    def _key(self, op):
        n = self.N
        return tuple(commutation_exponent(g.op, op) * g.order // n % g.order
                     for g in self.gens)

    def syndrome_key(self, syn):
        return tuple(syn.exponents.get(g.gid, 0) for g in self.gens)

    def _sub(self, a, b):
        return tuple((x - y) % o for x, y, o in zip(a, b, self._orders))

    def _weight2_matches(self, target):
        out = []
        for k1, op1 in self.singles:
            need = self._sub(target, k1)
            for op2 in self.by_key.get(need, []):
                if op2.support()[0] > op1.support()[0]:
                    out.append(pauli_mul(op1, op2))
        return out

    def _canonical(self, words, trace) -> Correction:
        best = min(words, key=lambda w: (_class_tuple(w, self.model.logicals),
                                         sort_key(w)))
        return Correction(best, trace)

    def decode(self, syn) -> Correction:
        target = tuple((-v) % o for v, o in zip(self.syndrome_key(syn), self._orders))
        if not any(target):
            return Correction(identity(self.N, self.n), ("w0",))
        if target in self.by_key:
            return self._canonical(self.by_key[target], ("w1",))
        if self.max_weight >= 2:
            cands = self._weight2_matches(target)
            if cands:
                return self._canonical(cands, ("w2",))
        if self.max_weight >= 3:
            cands = []
            for k1, op1 in self.singles:
                s1 = op1.support()[0]
                need = self._sub(target, k1)
                if need not in self.w2:
                    continue
                for w2op in self._weight2_matches(need):
                    if min(w2op.support()) > s1:
                        cands.append(pauli_mul(op1, w2op))
            if cands:
                return self._canonical(cands, ("w3",))
        raise DecodeNotFoundError(
            f"no correction of weight <= {self.max_weight} matches the syndrome")


def brute_force_decode(model, syn, max_weight: int = 2) -> Correction:
    """Exhaustive minimum-weight decode; ground truth for the two decoders."""
    return BruteForceOracle(model, max_weight).decode(syn)


# ----------------------------------------------------------------------
# Monte Carlo harness
# ----------------------------------------------------------------------

def monte_carlo_trial(model, decoder, error_rate: float, trials: int,
                      seed: int) -> MonteCarloResult:
    """i.i.d. per-site X/Z error injection, decode, classify the residual.

    Identical seeds reproduce identical trials bit-for-bit.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError("error_rate must lie in [0, 1]")
    rng = random.Random(seed)
    n = model.n_sites
    N = model.modulus
    failures = 0
    class_counts = {}
    names = _class_names(model, model.logicals)
    for _ in range(trials):
        terms = []
        for site in range(n):
            x = rng.randrange(1, N) if rng.random() < error_rate else 0
            z = rng.randrange(1, N) if rng.random() < error_rate else 0
            if x or z:
                terms.append((site, x, z))
        if not terms:
            class_counts["1"] = class_counts.get("1", 0) + 1
            continue
        err = PauliOp(N, n, tuple(terms))
        corr = decoder(model, engine.syndrome(model, err))
        residual = pauli_mul(err, corr.op)
        if engine.syndrome(model, residual):
            label = "syndrome"
        else:
            label = names.get(_class_tuple(residual, model.logicals), "unknown")
        class_counts[label] = class_counts.get(label, 0) + 1
        if label != "1":
            failures += 1
    return MonteCarloResult(error_rate, trials, failures, seed, class_counts)
