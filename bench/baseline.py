"""Regenerate the Z2 toric baseline table (bench/BASELINE.md) from the harness.

    python3 bench/baseline.py

Cells: build, logical dimension and weight-1 syndrome at L = 8 and 16,
``is_member`` at L = 8, and Monte Carlo milliseconds per trial at p = 0.02
for L = 4, 6, 8.  Each cell is the median of REPS timings of the same
operation the ``algebra`` and ``decode`` workloads run.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

import run
from workloads import algebra_point, build, derive, expect

TABLE_L = (8, 16)
MC_L = (4, 6, 8)
CELL_KINDS = ("build", "dimension", "syndrome.w1", "member")
MC_RATE = 0.02
MC_TRIALS = {4: 400, 6: 200, 8: 50}
REPS = 3
SEED = 1
OUT = run.HERE / "BASELINE.md"
OMITTED = [
    "L = 24 and 32: a Z2 L = 24 logical dimension alone takes about 70 s and "
    "L = 32 longer, so they stay out of a routine regeneration.",
    "`is_member` at L = 16: the Smith-normal-form membership path already "
    "takes about 8 s at L = 12.",
    "Monte Carlo beyond L = 8: the toric decoder's pairing enumeration makes "
    "trials at larger L too slow for this table.",
]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    q = run.import_quditlab()

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out

    cells = {}
    for L in TABLE_L:
        times = {}
        for _ in range(REPS):
            for op in algebra_point(q, SEED, "Z2", L):
                if op.kind in CELL_KINDS:  # build comes first and prepares the rest
                    dt, out = timed(op.call)
                    op.check(out, Counter())
                    times.setdefault(op.kind, []).append(dt)
        cells[L] = {k: statistics.median(v) for k, v in times.items()}

    mc = {}
    for L in MC_L:
        model = build(q, "Z2", L)
        per_trial = []
        for rep in range(REPS):
            seed = derive(SEED, f"baseline:mc:{L}:{rep}").randrange(2 ** 31)
            dt, res = timed(lambda: q.decoders.monte_carlo_trial(
                model, q.decoders.decode_toric, MC_RATE, MC_TRIALS[L], seed))
            expect(res.trials == MC_TRIALS[L] and "syndrome" not in res.class_counts,
                   f"Monte Carlo at L = {L}")
            per_trial.append(dt / MC_TRIALS[L])
        mc[L] = statistics.median(per_trial)

    m = run.machine()
    lines = [
        "# Z2 toric baseline",
        "",
        f"Generated by `python3 bench/baseline.py` (seed {SEED}).",
        f"Python {m['python']}, {m['platform']}, nproc {m['nproc']}, "
        f"commit {m['git_commit']}.  Each cell is the median of {REPS} "
        "timings of one operation; the host is shared, so single timings "
        "can move by up to a half.",
        "",
        "| L | build | `logical_dimension` | syndrome (weight-1 X error) | `is_member` |",
        "| --- | --- | --- | --- | --- |",
    ]

    def fmt(s):
        return f"{s * 1e3:.1f} ms" if s < 1 else f"{s:.2f} s"

    for L in TABLE_L:
        c = cells[L]
        member = fmt(c["member"]) if "member" in c else "omitted"
        lines.append(f"| {L} | {fmt(c['build'])} | {fmt(c['dimension'])} | "
                     f"{fmt(c['syndrome.w1'])} | {member} |")
    lines += ["", f"Monte Carlo at p = {MC_RATE} (`decoders.monte_carlo_trial` with "
              "`decode_toric`):", "", "| L | trials | ms per trial |", "| --- | --- | --- |"]
    for L in MC_L:
        lines.append(f"| {L} | {MC_TRIALS[L]} | {mc[L] * 1e3:.2f} |")
    lines += ["", "Omitted:", ""] + [f"- {o}" for o in OMITTED]
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
