"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the quditlab modules in place (module
attributes only; ``src/`` is never edited).  The package calls most of its
cross-module functions through module attributes (``engine.syndrome``,
``decoders.decode_toric``, ``defects.apply_ds_patch``...), so the wrappers
also see the calls that ``cli.run`` and the decoders make internally, which
gives nested spans.  Names a module imported with ``from x import y`` are
bound at import time and stay unwrapped inside that module.

A span is ``[name, start, end, parent, op, tag]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the operation id that was
current when the span opened, and ``tag`` the lattice shape for the model
builders (None elsewhere).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


def shape_tag(rows, cols, modulus=None):
    """``Z2.L8`` for an 8x8 Z_2 model; non-square shapes read ``6x8``."""
    shape = f"L{rows}" if rows == cols else f"{cols}x{rows}"
    return shape if modulus is None else f"Z{modulus}.{shape}"


def _toric_tag(rows, cols, modulus=2):
    return shape_tag(rows, cols, modulus)


# (module attribute path, span name[, tag function of the call arguments]).
# cli imports modular_data by name, so it is wrapped in both namespaces
# under one span name.
TRACED = (
    ("cli.parse_config", "cli.parse_config"),
    ("cli.run", "cli.run"),
    ("cli.build_model", "cli.build_model"),
    ("cli.main", "cli.main"),
    ("cli.modular_data", "catalog.modular_data"),
    ("catalog.modular_data", "catalog.modular_data"),
    ("condense.condensed_theory", "condense.condensed_theory"),
    ("lattice.build_toric_code", "lattice.build_toric_code", _toric_tag),
    ("lattice.build_bombin_lattice", "lattice.build_bombin_lattice", shape_tag),
    ("lattice.evaluate_constraint", "lattice.evaluate_constraint"),
    ("dsemion.build_doubled_semion", "dsemion.build_doubled_semion", shape_tag),
    ("dsemion.extract_topological_spin", "dsemion.extract_topological_spin"),
    ("defects.apply_bombin_twist", "defects.apply_bombin_twist"),
    ("defects.apply_kitaev_twist", "defects.apply_kitaev_twist"),
    ("defects.apply_dislocation", "defects.apply_dislocation"),
    ("defects.apply_ds_patch", "defects.apply_ds_patch"),
    ("defects.apply_z4_patch_in_ds", "defects.apply_z4_patch_in_ds"),
    ("defects.apply_multiple_ising_twists", "defects.apply_multiple_ising_twists"),
    ("defects.couple_bilayer", "defects.couple_bilayer"),
    ("engine.logical_dimension", "engine.logical_dimension"),
    ("engine.subgroup_order", "engine.subgroup_order"),
    ("engine.is_member", "engine.is_member"),
    ("engine.syndrome", "engine.syndrome"),
    ("pauli.pauli_mul", "pauli.pauli_mul"),
    ("decoders.decode_toric", "decoders.decode_toric"),
    ("decoders.decode_doubled_semion", "decoders.decode_doubled_semion"),
    ("decoders.classify_residual", "decoders.classify_residual"),
    ("decoders.decode_outcome", "decoders.decode_outcome"),
    ("decoders.monte_carlo_trial", "decoders.monte_carlo_trial"),
)

NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    """Records spans around wrapped calls; ``op`` tags each new span."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, tag=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   tag(*args, **kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def install(self, modules):
        """Wrap every TRACED function of ``modules`` (name -> module)."""
        for path, name, *tag in TRACED:
            mod_name, attr = path.split(".")
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, *tag))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self):
        """Span name -> (count, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {}
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            count, incl, own = out.get(rec[NAME], (0, 0.0, 0.0))
            out[rec[NAME]] = (count + 1, incl + dur, own + dur - child[i])
        return out

    def dump(self, path, ops):
        """Write the operation table, then one JSON array per span:
        ``[name, start, end, parent, op, tag]``."""
        with open(path, "w") as fh:
            for i, (pass_no, kind, point) in enumerate(ops):
                fh.write(json.dumps({"op": i, "pass": pass_no, "kind": kind,
                                     "point": point}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
