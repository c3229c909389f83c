"""Smoke self-check of the benchmark; runs in well under a minute.

    python3 bench/selfcheck.py

Runs the smoke size of every workload, untraced and traced, and asserts
that the printed report names every end-to-end metric with its unit
(``fail_frac`` everywhere; ``logical_fail_frac``, ``gave_up_frac``,
``touched_frac`` and ``mc_trials_per_s`` on ``decode``), that
the final JSON line carries exactly the metrics ``BENCHMARK.json`` lists
(end-to-end untraced, per-layer traced) with their units, and that the
output checks ran and passed with no failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import layers
import run
from workloads import SETUP

SEED = 7
SECONDS = "1"


def fail(msg):
    print(f"selfcheck: FAIL {msg}")
    sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != dict(run.END_TO_END):
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != {name: unit for name, unit, *_ in layers.specs()}:
        fail("BENCHMARK.json per_layer differs from layers.specs()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(SETUP):
        fail("BENCHMARK.json workloads differ from the workloads module")

    for workload in sorted(SETUP):
        for trace, want in (("0", e2e), ("1", per_layer)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", str(SEED),
                                 "--seconds", SECONDS, "--trace", trace,
                                 "--size", "smoke"])
            text = buf.getvalue()
            lines = text.strip().splitlines()
            where = f"{workload} trace={trace}"
            if code != 0:
                fail(f"{where}: exit {code}")
            printed = dict(e2e, fail_frac="frac")
            if workload == "decode":
                printed.update(logical_fail_frac="frac", gave_up_frac="frac",
                               touched_frac="frac", mc_trials_per_s="1/s")
            for name, unit in printed.items():
                if not any(ln.strip().startswith(f"{name} = ") and ln.endswith(f" {unit}")
                           for ln in lines):
                    fail(f"{where}: report lacks '{name} = ... {unit}'")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            checks = int(lines[0].split("checks=")[1].split()[0])
            if not (result["correct"] and result["attempted"] > 0 and checks > 0):
                fail(f"{where}: checks={checks} result={result}")
            if result["failed"]:
                fail(f"{where}: {result['failed']} operations failed")
            print(f"selfcheck: ok {where} checks={checks} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
