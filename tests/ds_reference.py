"""Reference oracle: the five-step doubled-semion decoder as a filter search.

An independent, deliberately plain path for cross-checking
``quditlab.decoders.decode_doubled_semion``.  Every step-2 power assignment
(built by recursion) is tried against every step-3 closer, and each pair is
tested in turn: no C left after step 2, no B left after step 3, a step-5b
fixer that exists (``_close_vertices`` raises otherwise) and that clears the
rest.  The pairs that pass compete on (weight, logical class, exponents).
The step-5b helper is kept here as it was, with its own give-up.

The step-2 rules are written out on the lattice, the step-3 closers are
built here, and every syndrome is that of the error times the whole
candidate word so far, so none of these is shared with the decoder.  The
reference reads positions off the doubled-semion naming rules, ``A(x,y)``,
``B(x,y)`` and ``C(o,x,y)``, where the decoder reads generator anchors.
"""

from quditlab import engine
from quditlab.decoders import Correction, _class_tuple, _pair_paths
from quditlab.errors import InconsistentSyndromeError
from quditlab.lattice import string_operator
from quditlab.pauli import (identity, pauli_adjoint, pauli_mul, pauli_prod, single_site,
                            sort_key)


def _coords(gid):
    """(x, y) of ``A(x,y)``, ``B(x,y)`` or ``C(o,x,y)``: its last two fields."""
    *_, x, y = gid[gid.index("(") + 1:-1].split(",")
    return int(x), int(y)


def trail_edges(exps):
    """Step 1: the excited C generators as (orient, x, y) of their Z^2 edge,
    row-major (y, then x, then h before v)."""
    edges = []
    for gid in exps:
        if gid.startswith("C("):
            o, x, y = gid[2:-1].split(",")
            edges.append((o, int(x), int(y)))
    return sorted(edges, key=lambda t: (t[2], t[1], t[0]))


def _syndrome_after(ds, exps0, word):
    """The syndrome exponents of error * ``word``, given the error's."""
    out = dict(exps0)
    for gid, e in engine.syndrome(ds, word).exponents.items():
        out[gid] = (out.get(gid, 0) + e) % ds.generator(gid).order
    return {gid: e for gid, e in out.items() if e}


def _close_plaquettes(ds, exps):
    """Step 3: s, s-dagger, sbar or sbar-dagger along each pairing path of
    the plaquette excitations, every combination."""
    pos = sorted(_coords(g) for g in exps if g.startswith("B("))
    words = [identity(4, ds.n_sites)]
    for path in _pair_paths(ds.geometry, pos):
        s = string_operator(ds, "s", path)
        sbar = string_operator(ds, "sbar", path)
        segs = [s, pauli_adjoint(s), sbar, pauli_adjoint(sbar)]
        words = [pauli_mul(w, seg) for w in words for seg in segs]
    return words, ("3",) if pos else ()


def _close_vertices(ds, exps):
    """Step 5b: pair double vertex excitations with ss-bar strings."""
    pos = []
    for g in exps:
        if g.startswith("A("):
            if exps[g] != 2:
                raise InconsistentSyndromeError("unpaired single vertex excitation")
            pos.append(_coords(g))
    strings = [string_operator(ds, "ssbar", path)
               for path in _pair_paths(ds.geometry, sorted(pos))]
    return pauli_prod(4, ds.n_sites, strings), ("5b",) if pos else ()


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


def step2_plans(ds, exps0, trail):
    """(rule, site, first power) per trail edge: X on the edge itself when a
    flanking plaquette is excited, else Z on the hop partner edge."""
    geo = ds.geometry

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
    return plans


def decode_doubled_semion(ds, syn):
    exps0 = dict(syn.exponents)
    trail = trail_edges(exps0)
    if len(trail) > 12:
        raise InconsistentSyndromeError("edge-excitation trail too long to trace")
    plans = step2_plans(ds, exps0, trail)

    cleared = []
    for step2, rules in _step2_candidates(plans, 0, ds.n_sites):
        exps = _syndrome_after(ds, exps0, step2)
        if any(g.startswith("C(") for g in exps):
            continue
        trace = (("1",) if trail else ()) + tuple(dict.fromkeys(rules))
        closers, rule3 = _close_plaquettes(ds, exps)
        for closer in closers:
            exps3 = _syndrome_after(ds, exps0, pauli_mul(step2, closer))
            if any(g.startswith("B(") for g in exps3):
                continue
            t3 = trace + rule3
            if any(g.startswith("A(") for g in exps3):
                t3 = t3 + ("4",)
            try:
                fixer, rule5 = _close_vertices(ds, exps3)
            except InconsistentSyndromeError:
                continue
            word = pauli_prod(4, ds.n_sites, [step2, closer, fixer])
            if _syndrome_after(ds, exps0, word):
                continue
            cleared.append((word, t3 + rule5))
    if not cleared:
        raise InconsistentSyndromeError("no rule assignment clears the syndrome")
    corr, trace = min(cleared, key=lambda ct: (
        ct[0].weight(), _class_tuple(ct[0], ds.logicals), sort_key(ct[0])))
    return Correction(corr, trace)
