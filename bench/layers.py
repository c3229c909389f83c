"""Per-layer metrics derived from the traced passes.

Every metric is printed on every workload; a layer that a workload does not
reach reads 0.  Times come from spans (inclusive), counts from the exact
counters that the output checks keep.  "sum" metrics are summed per pass
and the median over traced passes is reported; "mean" metrics are the mean
per call over all traced passes (set-up excluded).  Model builds are keyed by the lattice
shape of the call, so the decode workload's set-up builds are included.
"""

from __future__ import annotations

import statistics

from tracer import END, NAME, OP, PARENT, START, TAG
from workloads import ALGEBRA_POINTS, CONFIGS, DECODE_POINTS, MC_POINT, WEIGHT_L, WEIGHTS

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
BUILDERS = {"bombin": "lattice.build_bombin_lattice",
            "dsemion": "dsemion.build_doubled_semion"}
TORIC_BUILDER = "lattice.build_toric_code"
SURGERY_CHILD = "surgery.builds"  # builder spans directly under cli.build_model

BUILD_POINTS = list(ALGEBRA_POINTS)
for _fam, _L, *_ in DECODE_POINTS + (("Z2", WEIGHT_L), MC_POINT):
    if (_fam, _L) not in BUILD_POINTS:
        BUILD_POINTS.append((_fam, _L))


def _build_key(fam, L):
    """(metric name, span key) of a model build; spans are tagged by shape."""
    name = BUILDERS.get(fam, TORIC_BUILDER)
    shape = f"L{L}" if fam in BUILDERS else f"{fam}.L{L}"
    return f"{name}.{shape}.s", ("tag", name, shape)


def specs():
    """(metric, unit, mode, keys); see ``values`` for the modes."""
    out = []
    for fam, L in BUILD_POINTS:
        metric, key = _build_key(fam, L)
        out.append((metric, "s", "sum", [key]))
    out.append(("lattice.evaluate_constraint.s", "s", "sum",
                [("name", "lattice.evaluate_constraint")]))
    for fam, L in ALGEBRA_POINTS:
        p = f"{fam}.L{L}"
        dim = ("top", "engine.logical_dimension", p)
        order = ("top", "engine.subgroup_order", p)
        out.append((f"engine.logical_dimension.{p}.s", "s", "sum", [dim]))
        out.append((f"engine.subgroup_order.{p}.s", "s", "sum", [order]))
        out.append((f"engine.commute_check.{p}.s", "s", "diff", [dim, order]))
    for L in sorted({L for _, L in ALGEBRA_POINTS if L <= 8}):
        out.append((f"engine.is_member.L{L}.s", "s", "sum",
                    [("top", "engine.is_member", f"{fam}.L{LL}")
                     for fam, LL in ALGEBRA_POINTS if LL == L]))
    out.append(("engine.syndrome.us", "us", "mean", [("name", "engine.syndrome")]))
    out.append(("engine.syndrome.calls", "count", "calls", [("name", "engine.syndrome")]))
    # the benchmark's own residual and generator products; pauli-internal
    # products (from_terms, pauli_pow) are nested and excluded
    out.append(("pauli.pauli_mul.us", "us", "mean", [("top", "pauli.pauli_mul")]))
    for fam, L, *_ in DECODE_POINTS:
        p = f"{fam}.L{L}"
        if fam == "dsemion":
            out.append((f"decoders.decode_doubled_semion.L{L}.us", "us", "mean",
                        [("op", "decoders.decode_doubled_semion", "trial", p)]))
        else:
            out.append((f"decoders.decode_toric.{p}.us", "us", "mean",
                        [("op", "decoders.decode_toric", "trial", p)]))
    for w in WEIGHTS:
        out.append((f"decoders.decode_toric.w{w}.ms", "ms", "sum",
                    [("op", "decoders.decode_toric", "weight", f"w{w}")]))
    out.append(("decoders.classify_residual.us", "us", "mean",
                [("name", "decoders.classify_residual")]))
    out.append(("decoders.monte_carlo_trial.s", "s", "sum",
                [("name", "decoders.monte_carlo_trial")]))
    out.append(("decoders.mc_trials_per_s", "1/s", "rate",
                [("count", "mc.trials"), ("name", "decoders.monte_carlo_trial")]))
    out.append(("cli.parse_config.us", "us", "mean", [("name", "cli.parse_config")]))
    for name in CONFIGS:
        out.append((f"cli.run.{name}.ms", "ms", "sum", [("top", "cli.run", name)]))
    out.append(("cli.build_model.s", "s", "sum", [("name", "cli.build_model")]))
    out.append(("defects.surgery.s", "s", "diff",
                [("name", "cli.build_model"), ("name", SURGERY_CHILD)]))
    for name in ("dsemion.extract_topological_spin", "catalog.modular_data",
                 "condense.condensed_theory"):
        out.append((f"{name}.s", "s", "sum", [("name", name)]))
    for name in ("lattice.sites", "lattice.generators", "engine.syndrome.violations",
                 "decoders.raised", "decoders.logical_failures"):
        out.append((name, "count", "counter", [("count", name)]))
    out.append(("decode.touched_frac", "frac", "given", []))
    out.append(("decode.logical_fail_frac", "frac", "given", []))
    out.append(("fail_frac", "frac", "given", []))
    out.append(("trace.overhead_s", "s", "given", []))
    out.append(("trace.spans", "count", "given", []))
    return out


def aggregate(spans, op_table):
    """pass -> key -> [seconds, calls] for every key a spec can name."""
    agg = {}
    for rec in spans:
        dur = rec[END] - rec[START]
        pass_no, kind, point = op_table[rec[OP]] if rec[OP] >= 0 else (-1, "setup", "")
        keys = [("name", rec[NAME]), ("op", rec[NAME], kind, point)]
        if rec[PARENT] < 0:
            keys += [("top", rec[NAME], point), ("top", rec[NAME])]
        if rec[TAG] is not None:
            keys.append(("tag", rec[NAME], rec[TAG]))
            if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "cli.build_model":
                keys.append(("name", SURGERY_CHILD))
        table = agg.setdefault(pass_no, {})
        for key in keys:
            cell = table.setdefault(key, [0.0, 0])
            cell[0] += dur
            cell[1] += 1
    return agg


def values(spans, op_table, counters, given):
    """Metric -> (value, unit).

    ``counters`` is pass -> Counter of exact counts; ``given`` supplies the
    whole-run values (fractions, overhead).
    """
    agg = aggregate(spans, op_table)
    passes = sorted(agg)

    def per_pass(keys):
        vals = []
        for p in passes:
            cells = [agg[p].get(k) for k in keys]
            if any(cells):
                vals.append(sum(c[0] for c in cells if c))
        return vals

    def med(vals):
        return statistics.median(vals) if vals else 0.0

    out = {}
    for metric, unit, mode, keys in specs():
        scale = SCALE.get(unit, 1.0)
        if mode == "sum":
            v = med(per_pass(keys)) * scale
        elif mode == "diff":
            v = max(0.0, med(per_pass(keys[:1])) - med(per_pass(keys[1:]))) * scale
        elif mode == "mean":
            secs = calls = 0
            for p in passes[passes[0] < 0:]:  # passes only, not set-up
                for k in keys:
                    cell = agg[p].get(k)
                    if cell:
                        secs += cell[0]
                        calls += cell[1]
            v = secs / calls * scale if calls else 0.0
        elif mode == "calls":
            v = med([sum(agg[p][k][1] for k in keys if k in agg[p])
                     for p in passes if p >= 0])
        elif mode == "rate":
            (_, count), (_, name) = keys
            rates = [counters[p][count] / agg[p][("name", name)][0]
                     for p in passes if ("name", name) in agg[p] and counters.get(p)]
            v = med(rates)
        elif mode == "counter":
            v = counters[min(counters)][keys[0][1]] if counters else 0
        else:
            v = given[metric]
        out[metric] = (v, unit)
    return out
