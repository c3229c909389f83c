"""quditlab benchmark: one workload, one process, single-threaded.

    python3 bench/run.py --workload configs|algebra|decode --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root (the package is imported from ``src/``).

Run as a script, it first re-executes itself with a fixed string-hash seed
(see HASH_SEED).  It then imports the package and sets the workload up
SETUP_REPS times (``setup_s`` is the median), then repeats passes over the
fixed operation list until the next pass would overrun its time.
Its times are host-normalized (see REFERENCE_S); span times are raw.

``--trace 0`` measures untraced for ``--seconds``.  ``--trace 1`` measures
untraced for half the time, then sets the workload up again under the
tracer and runs traced for the other half; it prints the per-layer
metrics, including the tracing overhead.

The last line of standard output is the JSON result; a fuller result file
(seed, machine, percentiles with their sample counts, counts, failures, the
self-time table) goes to ``bench/results/``, with the spans of a traced run
beside it.  Exit status 2 means the package or its data files are missing.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MODULES = ("cli", "lattice", "dsemion", "defects", "engine", "pauli", "decoders",
           "catalog", "condense", "errors")
SETUP_REPS = 5
# Host-speed normalization: between operations (at most every REF_EVERY_S)
# and before each set-up the runner times reference_block(), and every
# end-to-end time and the tracing overhead are scaled by REFERENCE_S / (the
# median of the REF_WINDOW reference times on each side of it), i.e. in
# seconds of a host that runs the block in REFERENCE_S (about its time on
# the reference 2-vCPU VM).  The shared host slows everything by up to a
# half for stretches of a second to minutes; the block slows with it, the
# program's own speed does not move it.
REFERENCE_S = 0.005
REF_EVERY_S = 0.1
REF_WINDOW = 3
# The doubled-semion decoder gives up on about one noisy trial in 140 (see
# workloads._decode_op).  Giving up on more than this share of a point's
# trials in one pass is a wrong output, not a speed-up.
MAX_GAVE_UP_FRAC = 0.1
# The syndrome and decoder code keys dicts by generator-name strings, and
# whole runs moved by up to a sixth with the interpreter's string-hash seed,
# so the runner re-executes itself once with this fixed seed.
HASH_SEED = "0"
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SETUP, CheckFailed  # noqa: E402


def import_quditlab():
    """Fresh import of the package, so set-up time includes the import."""
    for name in [m for m in sys.modules if m == "quditlab" or m.startswith("quditlab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"quditlab.{m}")
                              for m in MODULES})


def reference_block():
    """Fixed pure-Python work in the style of the dense Pauli core."""
    a = tuple(range(128))
    b = tuple(range(1, 129))
    acc = 0
    for _ in range(300):
        acc += sum(x * y for x, y in zip(a, b)) % 7
        c = tuple((x + y) % 4 for x, y in zip(a, b))
        acc += len({i: c[i] for i in range(0, 128, 4)})
    return acc


def set_up(args, runs):
    """SETUP_REPS fresh imports plus set-ups, each after a reference timing;
    returns the last set-up and the (start, seconds) of each."""
    times = []
    for _ in range(SETUP_REPS):
        runs.time_reference()
        t0 = time.perf_counter()
        q = import_quditlab()
        wl = SETUP[args.workload](q, args.seed, args.size, ROOT)
        times.append((t0, time.perf_counter() - t0))
    wl.prepare()
    return q, wl, times


class Passes:
    """Latencies, failures, counts and fingerprints over the passes of a run.

    Only operations that return are timed; a raised error is a failed,
    wrong operation and its latency is left out."""

    def __init__(self):
        self.walls = {False: [], True: []}  # traced? -> [(start, seconds)] per pass
        self.op_lat = defaultdict(list)  # op -> [(start, seconds)], untraced passes
        self.op_table = []  # op id -> (pass, kind, point)
        self.counters = {}  # pass -> Counter
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # wrong outputs and raised errors
        self.fingerprints = {}
        self.checks = 0
        self.refs = []  # (end, seconds) of each reference_block(), outside any span
        self._last_ref = float("-inf")

    def time_reference(self):
        t0 = time.perf_counter()
        reference_block()
        self._last_ref = time.perf_counter()
        self.refs.append((self._last_ref, self._last_ref - t0))

    def scale_at(self, t):
        """REFERENCE_S over the median of the reference times nearest ``t``."""
        k = bisect.bisect(self.refs, (t,))
        near = [dt for _, dt in self.refs[max(0, k - REF_WINDOW):k + REF_WINDOW]]
        return REFERENCE_S / statistics.median(near)

    def pass_walls(self, traced):
        """Host-normalized wall of each pass: the sum of its operation times."""
        return [sum(dt * self.scale_at(t) for t, dt in samples)
                for samples in self.walls[traced]]

    def run_pass(self, wl, tracer=None):
        pass_no = len(self.counters)
        counts = self.counters[pass_no] = Counter()
        traced = tracer is not None
        wall = []
        for i, op in enumerate(wl.ops):
            if time.perf_counter() - self._last_ref >= REF_EVERY_S:
                self.time_reference()
            where = f"pass {pass_no} {op.kind} {op.point}"
            if traced:
                tracer.op = len(self.op_table)
            self.op_table.append((pass_no, op.kind, op.point))
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # keep running; reported as a wrong result
                self.failed += 1
                self.wrong.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            wall.append((t0, dt))
            if not traced:
                self.op_lat[i].append((t0, dt))
            self.checks += 1
            try:
                fp = op.check(out, counts)
            except CheckFailed as exc:
                self.failed += 1
                self.wrong.append(f"{where}: {exc}")
                continue
            if self.fingerprints.setdefault(i, fp) != fp:
                self.failed += 1
                self.wrong.append(f"{where}: output differs from the first pass")
        trials = Counter(op.point for op in wl.ops if op.kind == "trial")
        for point, n in trials.items():
            if counts[f"decoders.raised.{point}"] > MAX_GAVE_UP_FRAC * n:
                self.wrong.append(f"pass {pass_no} {point}: the decoder gave up on "
                                  f"{counts[f'decoders.raised.{point}']} of {n} trials")
        self.walls[traced].append(wall)

    def run_for(self, wl, seconds, min_passes, tracer=None):
        """Passes until the next one is predicted to overrun ``seconds``."""
        start = time.perf_counter()
        last = 0.0
        n = 0
        while n < min_passes or time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            self.run_pass(wl, tracer)
            last = time.perf_counter() - t0
            n += 1


def percentile(op_lat, pct):
    """The ``pct`` percentile of the operations' median latencies (every
    operation weighs the same), and the number of samples beyond it."""
    medians = sorted(statistics.median(xs) for xs in op_lat.values())
    value = medians[max(0, math.ceil(pct / 100 * len(medians)) - 1)]
    return value, sum(x > value for xs in op_lat.values() for x in xs)


def central(op_lat):
    """The median operation latency, estimated as the mean of the operations'
    median latencies from p45 to p55: ``algebra`` times each operation once
    per run, and one order statistic of single samples moved by up to a
    sixth from run to run."""
    medians = sorted(statistics.median(xs) for xs in op_lat.values())
    n = len(medians)
    return statistics.mean(medians[math.floor(0.45 * n):math.ceil(0.55 * n)])


def end_to_end(wl, runs, setup_times):
    """The untraced figures, host-normalized; wall_s sums per-operation
    medians, so it is the time of one pass."""
    runs.time_reference()
    op_lat = {i: [dt * runs.scale_at(t) for t, dt in xs] for i, xs in runs.op_lat.items()}
    wall = sum(statistics.median(xs) for xs in op_lat.values())
    tail_value, beyond = percentile(op_lat, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(dt * runs.scale_at(t) for t, dt in setup_times),
        "wall_s": wall,
        "ops_per_s": len(op_lat) / wall,
        "op_p50_ms": central(op_lat) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"setup_samples": len(setup_times),
              "passes": {"untraced": len(runs.walls[False]), "traced": len(runs.walls[True])},
              "reference_s": statistics.median(dt for _, dt in runs.refs),
              "reference_nominal_s": REFERENCE_S,
              "ops_timed": len(op_lat),
              "latency_samples": sum(len(xs) for xs in op_lat.values()),
              "op_tail_percentile": wl.tail_pct, "op_tail_samples_beyond": beyond}
    extras = {"fail_frac": runs.failed / runs.attempted}
    counts = runs.counters[0]
    if counts["decoded"]:
        extras["logical_fail_frac"] = counts["decoders.logical_failures"] / counts["decoded"]
        extras["gave_up_frac"] = counts["decoders.raised"] / (
            counts["decoded"] + counts["decoders.raised"])
    if "touched_frac" in wl.facts:  # per point; the mean over the noisy points
        extras["touched_frac"] = statistics.mean(wl.facts["touched_frac"].values())
    mc = [i for i, op in enumerate(wl.ops) if op.kind == "mc"]
    if mc and counts["mc.trials"]:
        extras["mc_trials_per_s"] = counts["mc.trials"] / statistics.median(op_lat[mc[0]])
    return metrics, extras, detail


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine():
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit()}


def traced_passes(args, q, runs):
    """Set the workload up again under the tracer and run traced passes for
    half the time; returns the tracer with its spans."""
    tracer = Tracer()
    tracer.install(vars(q))
    try:
        wl = SETUP[args.workload](q, args.seed, args.size, ROOT)
        wl.prepare()
        runs.run_for(wl, args.seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    return tracer


def trace_report(tracer, runs, extras, first_traced_pass, stem):
    """Per-layer metrics, report lines and the per-layer part of the result
    file; writes the spans beside the result file."""
    untraced_wall = statistics.median(runs.pass_walls(False))
    traced_wall = statistics.median(runs.pass_walls(True))
    given = {"fail_frac": extras["fail_frac"],
             "decode.touched_frac": extras.get("touched_frac", 0.0),
             "decode.logical_fail_frac": extras.get("logical_fail_frac", 0.0),
             "trace.overhead_s": traced_wall - untraced_wall,
             "trace.spans": len(tracer.spans) / len(runs.walls[True])}
    counters = {p: c for p, c in runs.counters.items() if p >= first_traced_pass}
    per_layer = layers.values(tracer.spans, runs.op_table, counters, given)
    self_times = tracer.self_times()
    tracer.dump(f"{stem}.spans.jsonl", runs.op_table)
    lines = [f"  traced pass wall = {traced_wall:.6g} s, untraced {untraced_wall:.6g} s "
             f"(overhead {given['trace.overhead_s']:.6g} s)",
             "  self time by span (calls, inclusive s, self s):"]
    lines += [f"    {name:36s} {c:8d} {incl:10.4f} {own:10.4f}"
              for name, (c, incl, own) in sorted(self_times.items(), key=lambda kv: -kv[1][2])]
    lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in per_layer.items()]
    result = {"per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
              "self_time": {name: {"calls": c, "inclusive_s": incl, "self_s": own}
                            for name, (c, incl, own) in sorted(self_times.items())}}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    needed = [SRC / "quditlab" / "__init__.py", ROOT / "configs", ROOT / "tests" / "golden"]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        print(f"benchmark: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    runs = Passes()
    q, wl, setup_times = set_up(args, runs)
    runs.run_for(wl, args.seconds / 2 if args.trace else args.seconds, wl.min_passes)
    first_traced_pass = len(runs.counters)
    tracer = traced_passes(args, q, runs) if args.trace else None
    metrics, extras, detail = end_to_end(wl, runs, setup_times)
    trace_lines, result = ([], {}) if tracer is None else trace_report(
        tracer, runs, extras, first_traced_pass, stem)
    wrong = runs.wrong
    result.update({
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "end_to_end": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "extras": extras, "detail": detail, "setup_facts": wl.facts,
        "counts": dict(runs.counters[0]), "checks": runs.checks,
        "attempted": runs.attempted, "failed": runs.failed,
        "wrong": wrong[:50]})
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} size={args.size} seed={args.seed} "
          f"passes={detail['passes']['untraced']}+{detail['passes']['traced']} "
          f"ops/pass={len(wl.ops)} checks={runs.checks} "
          f"attempted={runs.attempted} failed={runs.failed}")
    for k, u in END_TO_END:
        print(f"  {k} = {metrics[k]:.6g} {u}")
    print(f"  op_tail = p{wl.tail_pct:g} of {detail['latency_samples']} samples "
          f"({detail['op_tail_samples_beyond']} beyond)")
    for k, v in extras.items():
        print(f"  {k} = {v:.6g} {'1/s' if k.endswith('per_s') else 'frac'}")
    for line in wrong[:10]:
        print(f"  ! {line}")
    for line in trace_lines:
        print(line)
    final = result.get("per_layer") or result["end_to_end"]
    print(json.dumps({"correct": not wrong, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
