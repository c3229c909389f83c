"""Command-line entry point and config/report layer.

Config documents are line-structured text with a versioned header::

    quditlab-config v1
    model toric rows=4 cols=4 modulus=2
    defect ds-patch x=1 y=1 contractible=true
    error 0|0:1,0
    channel rate=0.001 trials=10000
    seed 7
    output dimension

Reports are deterministic line-structured text (or JSON with --format json):
identical config and seed produce byte-identical output.  Exit codes:
0 success, 2 config error, 3 model inconsistency, 4 decode inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import condense, decoders, defects, dsemion, engine, lattice
from .catalog import builtin_theory, modular_data, turn_to_str
from .errors import (ConfigError, DecodeNotFoundError,
                     InconsistentSyndromeError, NotCondensableError, ParseError,
                     QuditLabError, UnsupportedModelError)
from .pauli import from_text, to_text

__all__ = ["ExperimentConfig", "parse_config", "run", "main"]

CONFIG_HEADER = "quditlab-config v1"
REPORT_HEADER = "quditlab-report v1"

EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_DECODE = 4


@dataclass
class ExperimentConfig:
    family: str = "toric"
    rows: int = 4
    cols: int = 4
    modulus: int = 2
    defects: list = field(default_factory=list)  # (kind, parsed fields) pairs
    error_text: str = None
    string_spec: tuple = None  # (anyon-or-e/m, path) alternative to error
    rate: float = None
    trials: int = None
    seed: int = None
    outputs: list = field(default_factory=list)


def _flag(text: str) -> bool:
    return {"true": True, "1": True, "yes": True,
            "false": False, "0": False, "no": False}[text.lower()]


def _mouths(text: str):
    x1, y1, x2, y2 = (int(c) for c in text.split(","))
    return (x1, y1), (x2, y2)


def _at_most(cap):
    """An integer field of at most ``cap``: (parser, what the value must be)."""
    def parse(text):
        if int(text) > cap:
            raise ValueError(text)
        return int(text)
    return parse, f"an integer at most {cap}"


def _one_of(*options):
    """A field of one of ``options``: (parser, what the value must be)."""
    def parse(text):
        if text not in options:
            raise ValueError(text)
        return text
    return parse, "one of " + ", ".join(options)


# field -> (parser, what the value must be); the parser raises ValueError or
# KeyError on a bad value.  ``string`` is the type token of a string line.
FIELDS = {
    **dict.fromkeys(("modulus", "seed", "x", "y", "width", "length", "multiplicity", "k"),
                    (int, "an integer")),
    # a 64x64 build plus its dimension takes 0.17 s (Z_2 toric) to 1.1 s (doubled
    # semion), 10^6 mc trials 3.9 s on one 2-vCPU host; no cap bounds one decode
    **dict.fromkeys(("rows", "cols"), _at_most(64)),
    "trials": _at_most(1_000_000),
    "rate": (float, "a number"),
    "contractible": (_flag, "true or false"),
    "mouths": (_mouths, "x1,y1,x2,y2"),
    "anyon": _one_of("s", "sbar", "ssbar"),
    "string": _one_of("e", "m", "1", "s", "sbar", "ssbar"),
    "theory": (str, "a theory name"),
    "algebra": (str, "a sum of labels"),
}

# model family -> builder of (rows, cols, modulus).  Builders and surgeries
# are looked up on their module at call time, so a wrapper installed there
# (a tracer, say) sees the call.
MODELS = {
    "toric": lambda rows, cols, modulus: lattice.build_toric_code(rows, cols, modulus),
    "bombin": lambda rows, cols, modulus: lattice.build_bombin_lattice(rows, cols),
    "doubled-semion": lambda rows, cols, modulus: dsemion.build_doubled_semion(rows, cols),
    "bilayer": lambda rows, cols, modulus: lattice.build_bilayer_toric(rows, cols),
}
# family -> its one modulus; a toric code takes any (Z_2 when not given)
MODULI = {"bombin": 2, "doubled-semion": 4, "bilayer": 2}

# defect kind -> (fields, required fields, surgery of (model, **fields));
# anchors default to x=1, y=1
DEFECTS = {
    "bombin-twist": (("x", "y", "width", "contractible", "multiplicity"), (),
                     lambda m, x=1, y=1, **kw: defects.apply_bombin_twist(m, x, y, **kw)),
    "kitaev-twist": (("x", "y", "length", "contractible"), (),
                     lambda m, x=1, y=1, **kw: defects.apply_kitaev_twist(m, x, y, **kw)),
    "krishna-dislocation-i": (("x", "y"), (),
                              lambda m, x=1, y=1: defects.apply_dislocation(m, "i", x, y)),
    "krishna-dislocation-ii": (("x", "y"), (),
                               lambda m, x=1, y=1: defects.apply_dislocation(m, "ii", x, y)),
    "ds-patch": (("x", "y", "contractible"), (),
                 lambda m, x=1, y=1, **kw: defects.apply_ds_patch(m, x, y, **kw)),
    "z4-patch-in-ds": (("x", "y"), (),
                       lambda m, x=1, y=1: defects.apply_z4_patch_in_ds(m, x, y)),
    "bilayer-wormhole-i": (("mouths",), (),
                           lambda m, **kw: defects.couple_bilayer(m, "i", **kw)),
    "bilayer-wormhole-ii": (("mouths",), (),
                            lambda m, **kw: defects.couple_bilayer(m, "ii", **kw)),
    "ising-twists": (("k",), ("k",),
                     lambda m, k: defects.apply_multiple_ising_twists(m, k)),
}

# the key=value fields each output reads
OUTPUT_FIELDS = {
    "dimension": (), "generators": (), "syndrome": (), "decode": (), "mc": (),
    "spin": ("anyon", "x", "y"),
    "condense": ("theory", "algebra"),
}

# decode and mc name a residual's class from a table of the N^4 products of
# the four logicals, built per call: a decode of a one-site error on a 64x64
# toric code took 0.96 s at N = 8, 3.5 s at N = 12 and 10.4 s at N = 16 (one
# run each, 2-vCPU host, Python 3.11.7); dim, build and syndrome take any N
DECODE_MAX_MODULUS = 8

# a catalog dump builds the N^4 entries of S on Z_N: z20 takes about 1.5 s,
# z40 27 s; condense builds its quotient in O(N^4): z8 by the trivial algebra
# takes about 12 ms, z20 0.6 s (in-process, 2-vCPU host, Python 3.11.7)
CONDENSE_MAX_N = 8


def _value(key, text, line_no):
    parse, what = FIELDS[key]
    try:
        return parse(text)
    except (ValueError, KeyError):
        raise ConfigError(f"line {line_no}: field {key!r} must be {what}")


def _parse_kv(tokens, line_no, fields, required=()):
    """Parsed key=value tokens as a dict; a key outside ``fields``, repeated
    on the line or with a bad value is an error, and so is a missing
    ``required`` key."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"line {line_no}: expected key=value, got {tok!r}")
        k, _, v = tok.partition("=")
        if k not in fields:
            expected = ", ".join(fields) if fields else "no fields"
            raise ConfigError(f"line {line_no}: unknown field {k!r} (expected {expected})")
        if k in out:
            raise ConfigError(f"line {line_no}: repeated field {k!r}")
        out[k] = _value(k, v, line_no)
    for k in required:
        if k not in out:
            raise ConfigError(f"line {line_no}: missing field {k!r}")
    return out


def parse_config(text: str) -> ExperimentConfig:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CONFIG_HEADER:
        raise ConfigError(f"missing header line {CONFIG_HEADER!r}")
    cfg = ExperimentConfig()
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *rest = line.split()
        if head == "model":
            if not rest:
                raise ConfigError(f"line {no}: model needs a family")
            kv = _parse_kv(rest[1:], no, ("rows", "cols", "modulus"), ("rows", "cols"))
            if rest[0] not in MODELS:
                raise ConfigError(f"unknown model family {rest[0]!r}")
            cfg.family, cfg.rows, cfg.cols = rest[0], kv["rows"], kv["cols"]
            fixed = MODULI.get(rest[0])
            cfg.modulus = kv.get("modulus", fixed or 2)
            if fixed and cfg.modulus != fixed:
                raise ConfigError(f"line {no}: field 'modulus' must be {fixed} "
                                  f"for the {rest[0]} model")
        elif head == "defect":
            if not rest:
                raise ConfigError(f"line {no}: defect needs a kind")
            if rest[0] not in DEFECTS:
                raise ConfigError(f"line {no}: unknown defect kind {rest[0]!r}")
            fields, required, _ = DEFECTS[rest[0]]
            cfg.defects.append((rest[0], _parse_kv(rest[1:], no, fields, required)))
        elif head in ("error", "seed") and len(rest) > 1:
            raise ConfigError(f"line {no}: {head} takes one value, got {len(rest)}")
        elif head == "error":
            if not rest:
                raise ConfigError(f"line {no}: error needs a Pauli word")
            cfg.error_text = rest[0]
        elif head == "seed":
            if not rest:
                raise ConfigError(f"line {no}: missing field 'seed'")
            cfg.seed = _value("seed", rest[0], no)
        elif head == "string":
            if len(rest) < 3:
                raise ConfigError(f"line {no}: string needs an anyon type and "
                                  f"at least two path nodes")
            kind = _value("string", rest[0], no)
            try:
                path = tuple((int(x), int(y)) for x, y in (tok.split(",") for tok in rest[1:]))
            except ValueError:
                raise ConfigError(f"line {no}: string path nodes must be x,y pairs")
            cfg.string_spec = (kind, path)
        elif head == "channel":
            kv = _parse_kv(rest, no, ("rate", "trials"), ("rate", "trials"))
            cfg.rate, cfg.trials = kv["rate"], kv["trials"]
            if not 0.0 <= cfg.rate <= 1.0:
                raise ConfigError(f"line {no}: field 'rate' must lie in [0, 1]")
            if cfg.trials < 0:
                raise ConfigError(f"line {no}: field 'trials' must not be negative")
        elif head == "output":
            if not rest:
                raise ConfigError(f"line {no}: output needs a name")
            if rest[0] not in OUTPUT_FIELDS:
                raise ConfigError(f"line {no}: unknown output {rest[0]!r}")
            cfg.outputs.append((rest[0], _parse_kv(rest[1:], no, OUTPUT_FIELDS[rest[0]])))
        else:
            raise ConfigError(f"line {no}: unknown directive {head!r}")
    return cfg


def build_model(cfg: ExperimentConfig):
    """Construct the configured model with all defects applied; returns
    (model, [DefectReport])."""
    model = MODELS[cfg.family](cfg.rows, cfg.cols, cfg.modulus)
    reports = []
    for kind, kv in cfg.defects:
        _, _, surgery = DEFECTS[kind]
        model, report = surgery(model, **kv)
        reports.append(report)
    return model, reports


def _decoder_for(model):
    """The decoder of a plain toric or doubled-semion model; no decoder
    handles bombin, bilayer or defect models, or a toric modulus above
    ``DECODE_MAX_MODULUS``."""
    if model.defects or model.family not in ("toric", "doubled-semion"):
        what = "a model with a defect" if model.defects else f"the {model.family} model"
        raise ConfigError(f"no decoder handles {what}: decode and mc need "
                          "a toric or doubled-semion model without defects")
    if model.family == "doubled-semion":
        return decoders.decode_doubled_semion
    if model.modulus > DECODE_MAX_MODULUS:
        raise ConfigError(f"no decoder handles modulus {model.modulus}: decode and mc "
                          f"need a toric modulus at most {DECODE_MAX_MODULUS}")
    return decoders.decode_toric


def _model_lines(m, reports):
    kinds = Counter(g.kind for g in m.generators)
    orders = Counter(g.order for g in m.generators)
    return ([f"model {m.family} {m.geometry.cols}x{m.geometry.rows} "
             f"modulus={m.modulus} qudits={m.n_sites}",
             "generators " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
             "orders " + " ".join(f"order{k}={v}" for k, v in sorted(orders.items()))]
            + [f"defect-report {i} {rep.summary()}" for i, rep in enumerate(reports)])


def run(cfg: ExperimentConfig, seed_override: int = None) -> str:
    """Execute the configured pipeline and return the report document."""
    m, reports = build_model(cfg)
    seed = seed_override if seed_override is not None else cfg.seed
    lines = [REPORT_HEADER]
    lines += _model_lines(m, reports)
    outputs = cfg.outputs or [("dimension", {})]
    error = None
    if cfg.error_text is not None:
        try:
            error = from_text(cfg.error_text, m.modulus, m.n_sites)
        except ParseError as exc:
            raise ConfigError(f"field 'error': {exc}")
    elif cfg.string_spec is not None:
        kind, path = cfg.string_spec
        if kind not in ("e", "m") and m.family != "doubled-semion":
            raise ConfigError(f"string type {kind!r} needs the doubled-semion model")
        error = lattice.string_operator(m, kind, path)
    for name, kv in outputs:
        if name == "dimension":
            lines.append(f"dimension {engine.logical_dimension(m)}")
        elif name == "generators":
            for g in m.generators:
                lines.append(f"generator {g.gid} {g.kind} order={g.order} "
                             f"{to_text(g.op)}")
        elif name == "syndrome":
            if error is None:
                raise ConfigError("output syndrome needs an error line")
            syn = engine.syndrome(m, error)
            items = " ".join(f"{g}:{syn.exponents[g]}" for g in sorted(syn.exponents))
            lines.append(f"syndrome weight={syn.weight()} {items}".rstrip())
        elif name == "decode":
            if error is None:
                raise ConfigError("output decode needs an error line")
            corr = _decoder_for(m)(m, engine.syndrome(m, error))
            label = decoders.decode_outcome(m, error, corr)
            lines.append(f"decode correction={to_text(corr.op)} "
                         f"trace={','.join(corr.trace) or '-'} "
                         f"success={str(label == '1').lower()} class={label}")
        elif name == "mc":
            if cfg.rate is None or cfg.trials is None:
                raise ConfigError("output mc needs a channel line")
            if seed is None:
                raise ConfigError("output mc needs a seed")
            res = decoders.monte_carlo_trial(m, _decoder_for(m), cfg.rate,
                                             cfg.trials, seed)
            lo, hi = res.wilson_interval()
            lines.append(f"mc rate={res.error_rate} trials={res.trials} seed={res.seed} "
                         f"failures={res.failures} failure-rate={res.failure_rate:.6f} "
                         f"ci95={lo:.6f},{hi:.6f}")
            counts = " ".join(f"{k}={v}" for k, v in sorted(res.class_counts.items()))
            lines.append(f"mc-classes {counts}".rstrip())
        elif name == "spin":
            if m.family != "doubled-semion":
                raise ConfigError("output spin needs the doubled-semion model")
            which = kv.get("anyon")
            anyons = [which] if which else ["s", "sbar", "ssbar"]
            px = kv.get("x", max(2, m.geometry.cols // 2))
            py = kv.get("y", max(2, m.geometry.rows // 2))
            for anyon in anyons:
                k = dsemion.extract_topological_spin(m, (px, py), anyon)
                lines.append(f"spin {anyon} = {turn_to_str(Fraction(k, 4))}")
        elif name == "condense":
            theory = _theory_by_name(kv.get("theory", "z4"))
            lines += _condense_lines(theory, kv.get("algebra", "1"))
    return "\n".join(lines) + "\n"


def _theory_by_name(name: str):
    """A built-in theory by its CLI name; refuses z<N> below 2 or above
    ``CONDENSE_MAX_N``."""
    name = name.lower().replace("-", "_")
    if name.startswith("z") and name[1:].isdigit():
        n = int(name[1:])
        if n < 2:
            raise ConfigError(f"theory {name!r} is too small: z<N> needs N >= 2")
        if n > CONDENSE_MAX_N:
            raise ConfigError(f"theory {name!r} is too large: z<N> needs "
                              f"N <= {CONDENSE_MAX_N}")
        return builtin_theory("z_n", n)
    try:
        return builtin_theory(name)
    except UnsupportedModelError:
        raise ConfigError(f"unknown theory {name!r}")


def _condense_lines(theory, algebra_text):
    summands = algebra_text.split("+")
    unknown = [a for a in summands if a not in theory.labels]
    if unknown:
        raise ConfigError(f"algebra summand {unknown[0]!r} is not a label of {theory.name}")
    lines = [f"condense theory={theory.name} algebra={algebra_text}"]
    try:
        alg = condense.condensable_algebra(theory, summands)
    except NotCondensableError as exc:
        kind, where, witness = exc.failure
        lines.append(f"condense-invalid {kind} at {where} witness={witness}")
        return lines
    if alg.boundary_tag:
        lines.append(f"condense-boundary {alg.boundary_tag}")
    mods = condense.right_modules(alg)
    for mod in sorted(mods, key=lambda mm: mm.summands):
        status = "local" if mod.local else "confined"
        lines.append(f"module {mod.label()} {status}")
    new = condense.condensed_theory(alg)
    lines.append("condensed-labels " + " ".join(new.labels))
    lines.append("condensed-twists " + " ".join(
        f"{l}:{turn_to_str(new.twist[l])}" for l in new.labels))
    return lines


def _catalog_lines(theory):
    lines = [f"theory {theory.name}"]
    lines.append("labels " + " ".join(theory.labels))
    for a in theory.labels:
        lines.append(f"dim {a} = {theory.dim[a]}")
    lines.append(f"total-dimension {theory.total_dim}")
    for a in theory.labels:
        t = theory.twist[a]
        lines.append(f"twist {a} = {turn_to_str(t)} (turn {t})")
    for i, a in enumerate(theory.labels):
        for b in theory.labels[i:]:
            out = theory.fuse(a, b)
            pretty = " + ".join(
                (f"{m}*{c}" if m > 1 else c) for c, m in sorted(out.items()))
            lines.append(f"fuse {a} x {b} = {pretty}")
    try:
        s, t = modular_data(theory)
    except QuditLabError:
        return lines
    for i, a in enumerate(theory.labels):
        row = " ".join(
            f"{mag}*{turn_to_str(turn)}" if turn else str(mag)
            for (mag, turn) in s[i])
        lines.append(f"S {a} | {row}")
    return lines


def _emit(text: str, out_path, fmt: str):
    if fmt == "json":
        payload = {"lines": text.rstrip("\n").split("\n")}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


# subcommands that read a config: (help, outputs run in place of the
# config's own output lines; None keeps them)
CONFIG_COMMANDS = {
    "run": ("execute every output requested by the config", None),
    "build": ("build the model and report its generator content",
              ("dimension", "generators")),
    "dim": ("report the logical dimension", ("dimension",)),
    "syndrome": ("report the syndrome of the configured error", ("syndrome",)),
    "decode": ("decode the configured error", ("decode",)),
    "mc": ("run the configured Monte Carlo channel", ("mc",)),
    "spin": ("extract topological spins on the doubled-semion model", ("spin",)),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for later calls."""
    parser = argparse.ArgumentParser(
        prog="quditlab",
        description="Qudit stabilizer laboratory: build lattice models, apply "
                    "defects, decode errors, and inspect anyon data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="config document path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", default="text", choices=("text", "json"))

    for name, (help_text, _) in CONFIG_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "spin":
            p.add_argument("--anyon", default=None, choices=("s", "sbar", "ssbar"))

    p = sub.add_parser("condense", help="condense a theory by a boson algebra")
    p.add_argument("theory")
    p.add_argument("algebra", help="e.g. 1+e2m2")
    add_common(p, needs_config=False)

    p = sub.add_parser("catalog", help="dump a built-in anyon theory")
    p.add_argument("theory")
    add_common(p, needs_config=False)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "condense":
            theory = _theory_by_name(args.theory)
            text = "\n".join([REPORT_HEADER] +
                             _condense_lines(theory, args.algebra)) + "\n"
        elif args.command == "catalog":
            theory = _theory_by_name(args.theory)
            text = "\n".join([REPORT_HEADER] + _catalog_lines(theory)) + "\n"
        else:
            cfg = _load_config(args.config)
            outputs = CONFIG_COMMANDS[args.command][1]
            if outputs is not None:
                kv = {"anyon": args.anyon} if getattr(args, "anyon", None) else {}
                cfg.outputs = [(name, kv) for name in outputs]
            text = run(cfg, seed_override=args.seed)
        _emit(text, args.out, args.format)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InconsistentSyndromeError, DecodeNotFoundError) as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except QuditLabError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
