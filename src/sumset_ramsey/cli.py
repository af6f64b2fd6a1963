"""Command-line front end: colorings, searches, audits, progression scans,
word dynamics, and witness checks with reproducible machine-readable output.

Every subcommand writes one JSON document (default), a CSV table, or a plain
text summary to stdout. Errors become JSON objects on stderr: exit 2 for
unparsable flags or spec strings, exit 1 for domain failures. Identical
command lines produce byte-identical output; the only randomness source is
the explicit --seed flag (default 0).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction
from typing import IO, Callable, Sequence

from .coloring import (
    DEFAULT_WINDOW_CAP,
    Coloring,
    ExplicitColoring,
    PeriodicColoring,
    SeededRandomColoring,
    _int_tok,
    case2_coloring,
    geometric_3coloring,
    power_2coloring,
    read_runlength,
    recursive_log_coloring,
    triple_2coloring,
    write_runlength,
)
from .dynamics import (
    density_profile,
    dichotomy_detect,
    return_set,
    word_from_coloring,
)
from .errors import (
    NoConfiguration,
    ParseError,
    PolynomialError,
    SumsetRamseyError,
    WindowOverrun,
)
from .poly import IntPolynomial, parse_poly
from .search import (
    bad_set,
    bad_set_growth,
    exhaustive_search,
    greedy_search,
    longest_ap,
)
from .witness import (
    VARIANT_FIELDS,
    WitnessParams,
    build_witness,
    check_sumset_identity,
    variant_name,
)

__all__ = ["parse_coloring_spec", "run", "main"]

# ---------------------------------------------------------------------------
# coloring spec grammar: kind[:params][@file], params = positional and
# key=value entries separated by commas, rationals written p/q
# ---------------------------------------------------------------------------


def _frac_tok(tok: str, text: str, pos: int) -> Fraction:
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected rational, got {tok.strip()!r}", text, pos) from None


def _poly_tok(tok: str, text: str, pos: int) -> IntPolynomial:
    try:
        return parse_poly(tok)
    except (PolynomialError, ValueError) as exc:
        raise ParseError(str(exc), text, pos) from None


def _pattern_tok(tok: str, text: str, pos: int) -> list[int]:
    t = tok.strip()
    if "-" in t:
        return [_int_tok(x, text, pos) for x in t.split("-")]
    if t.isdigit():
        return [int(ch) for ch in t]
    raise ParseError(f"expected digit string or dash-joined colors, got {t!r}", text, pos)


def _pair_tok(tok: str, text: str, pos: int) -> tuple[int, int]:
    d, sep, k = tok.partition(":")
    if not sep:
        raise ParseError(f"expected d:k pair, got {tok.strip()!r}", text, pos)
    return _int_tok(d, text, pos), _int_tok(k, text, pos + len(d) + 1)


def _listed(tok: Callable) -> Callable[[str], tuple]:
    """argparse type of a comma-separated flag: each item read by tok at its offset."""

    def read(text: str) -> tuple:
        values, pos = [], 0
        for item in text.split(","):
            values.append(tok(item, text, pos))
            pos += len(item) + 1
        return tuple(values)

    return read


def _split_params(params: str, text: str, base: int):
    """Positional tokens and named tokens with their offsets in text."""
    pos_args: list[tuple[str, int]] = []
    named: dict[str, tuple[str, int]] = {}
    if params == "":
        return pos_args, named
    pos = base
    for tok in params.split(","):
        if "=" in tok:
            key, _, val = tok.partition("=")
            key = key.strip()
            if key in named:
                raise ParseError(f"duplicate parameter {key!r}", text, pos)
            named[key] = (val, pos + len(key) + 1)
        elif named:
            raise ParseError("positional parameter after named one", text, pos)
        else:
            pos_args.append((tok, pos))
        pos += len(tok) + 1
    return pos_args, named


_TOKENS = {
    "a": _int_tok, "b": _int_tok, "c": _int_tok, "a0": _int_tok, "window": _int_tok,
    "seed": _int_tok, "k": _int_tok,
    "l": _frac_tok, "x": _frac_tok, "y": _frac_tok,
    "P": _poly_tok, "Q": _poly_tok,
    "pattern": _pattern_tok,
}

# kind -> (positional params, named params, required named params, builder);
# the builder takes every param by name.  The --kind flags of `color` carry the
# same names, so this table is the whole grammar of both spellings.
_SIGNATURES: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], Callable]] = {
    "power2": (("a", "b"), (), (), power_2coloring),
    "geo3": (("a", "b"), ("l", "x", "y"), (), geometric_3coloring),
    "triple": (("a", "b", "c"), ("x", "l"), (), triple_2coloring),
    "recursive": (
        (),
        ("P", "Q", "a0", "window"),
        ("P", "Q"),
        lambda P, Q, a0=None, window=DEFAULT_WINDOW_CAP: recursive_log_coloring(
            P, Q, a0, window
        ),
    ),
    "case2": ((), ("P", "Q"), ("P", "Q"), case2_coloring),
    "periodic": (("pattern",), (), (), PeriodicColoring),
    "random": ((), ("seed", "k"), (), lambda seed, k=2: SeededRandomColoring(seed, k)),
    "explicit": (("pattern",), (), (), lambda pattern: ExplicitColoring(pattern)),
}
_KINDS = (*_SIGNATURES, "file")
# the kind flags of `color`; its seed comes from --seed, as the default seed
_KIND_FLAGS = tuple(k for k in _TOKENS if k != "seed")


def _read_text(path: str) -> str:
    """An input file's text; a non-ASCII byte is a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte {data[exc.start]:#04x} at offset {exc.start} of {path}") from None


def parse_coloring_spec(s: str, default_seed: int = 0) -> Coloring:
    """Resolve a coloring descriptor to a coloring instance."""
    text = s.strip()
    if not text:
        raise ParseError("empty coloring spec", s, 0)
    head, at, path = text.partition("@")
    kind, colon, params = head.partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ParseError(f"unknown coloring kind {kind!r}", s, 0)
    if at and kind != "file":
        raise ParseError("only 'file' specs take @path", s, len(head))
    if kind == "file":
        if colon:
            raise ParseError("file spec takes no parameters", s, len(kind))
        if not at or not path:
            raise ParseError("file spec needs @path", s, len(head))
        return read_runlength(io.StringIO(_read_text(path)), descriptor=f"file@{path}")
    positional, allowed, required, build = _SIGNATURES[kind]
    base = len(kind) + 1
    pos_args, named = _split_params(params, s, base)
    if len(pos_args) != len(positional):
        at_pos = pos_args[len(positional)][1] if len(pos_args) > len(positional) else len(s)
        raise ParseError(
            f"{kind} takes {len(positional)} positional parameter(s), got {len(pos_args)}",
            s,
            at_pos,
        )
    for key, (_, pos) in named.items():
        if key not in allowed:
            raise ParseError(f"unknown parameter {key!r}", s, pos - len(key) - 1)
    for req in required:
        if req not in named:
            raise ParseError(f"{kind} spec needs {req}=<polynomial>", s, base)
    values = {
        key: _TOKENS[key](tok, s, pos)
        for key, (tok, pos) in (*zip(positional, pos_args), *named.items())
    }
    if "seed" in allowed:
        values.setdefault("seed", default_seed)
    return build(**values)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _fix(obj):
    """Normalize a document for stable JSON: floats to 12 significant digits."""
    if isinstance(obj, dict):
        return {k: _fix(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fix(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    return obj


def _print_json(doc, out: IO[str]) -> None:
    out.write(json.dumps(_fix(doc)) + "\n")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, list):
        return " ".join(map(str, v))
    return str(v)


def _emit(fmt: str, out: IO[str], doc, record=None, table=None) -> None:
    """Write one result in the --out format.

    json writes ``doc``.  ``record`` is a sequence of (key, value) pairs:
    text writes it as "key value" lines and csv as a field,value table.
    ``table`` is (header, rows): csv writes it, and text writes each row as
    "name=value" fields with "-" for a missing value.  csv prefers the table,
    text the record.
    """
    if fmt == "json":
        _print_json(doc, out)
    elif fmt == "csv":
        header, rows = table if table is not None else (("field", "value"), record)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    elif record is not None:
        for key, value in record:
            out.write(f"{key} {_cell(value)}\n")
    else:
        header, rows = table
        for row in rows:
            out.write(" ".join(f"{h}={_cell(v) or '-'}" for h, v in zip(header, row)) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _refuse(args, mode: str, flags: dict[str, str]) -> None:
    """ParseError naming the first of `flags` (dest: spelling) that was given; `mode` reads none."""
    for dest, flag in flags.items():
        if getattr(args, dest) is not None:
            raise ParseError(f"{flag} does not apply {mode}", "", None)


def _set_arg(args) -> set[int]:
    if args.set:
        _refuse(args, "with --set", {"file": "--file"})
        return set(args.set)
    if args.file:
        return {_int_tok(t, args.file) for t in _read_text(args.file).split()}
    raise ParseError("need --set or --file", "", None)


def _coloring_from_args(args) -> Coloring:
    """The --coloring spec, or the --kind flags spelled as the same spec.

    Every kind flag given is spelled out, the kind's own in its signature
    order, then the others by name, then --path as @path, so the grammar
    alone accepts or rejects them.
    """
    if args.coloring:
        return parse_coloring_spec(args.coloring, args.seed)
    kind = args.kind
    positional, named, required, _ = _SIGNATURES.get(kind, ((), (), (), None))
    missing = [f"--{k}" for k in (*positional, *required) if getattr(args, k) is None]
    if missing:
        raise ParseError(f"{kind} needs {', '.join(missing)}", "", None)
    flags = {k: getattr(args, k) for k in _KIND_FLAGS if getattr(args, k) is not None}
    for k, v in flags.items():
        if "," in v:
            raise ParseError(f"--{k} may not contain ','", v, v.index(","))
    params = [flags.pop(k) for k in positional]
    params += [f"{k}={flags.pop(k)}" for k in named if k in flags]
    params += [f"{k}={v}" for k, v in flags.items()]
    spec = kind + (":" + ",".join(params) if params else "")
    if args.path is not None:
        spec += "@" + args.path
    return parse_coloring_spec(spec, args.seed)


def _cmd_color(args, out: IO[str], err: IO[str]) -> int:
    c = _coloring_from_args(args)
    n = args.N
    if args.out == "runlength":
        write_runlength(c, n, out)
        return 0
    runs = [[color, length] for color, length in c.runs(n)]
    counts = [0] * c.palette
    for color, length in runs:
        counts[color - 1] += length
    doc = {
        "descriptor": c.descriptor,
        "N": n,
        "palette": c.palette,
        "counts": counts,
        "runs": runs,
    }
    record = [
        ("descriptor", c.descriptor),
        ("N", n),
        ("palette", c.palette),
        ("counts", " ".join(f"{i + 1}={v}" for i, v in enumerate(counts))),
        ("runs", len(runs)),
    ]
    _emit(args.out, out, doc, record=record, table=(("color", "length"), runs))
    return 0


# |C| at which a greedy search stops unless --maxC says otherwise
_GREEDY_MAXC = 8


def _cmd_search(args, out: IO[str], err: IO[str]) -> int:
    if args.strategy == "exhaustive":
        _refuse(args, "to strategy exhaustive", {"candidate_cap": "--candidate-cap", "maxC": "--maxC"})
    else:
        _refuse(args, "to strategy greedy", {"sizeC": "--sizeC"})
    c = parse_coloring_spec(args.coloring, args.seed)
    w = c.window(args.N)
    if args.strategy == "exhaustive":
        if args.sizeC is None:
            raise ParseError("exhaustive strategy needs --sizeC", "", None)
        cfg = exhaustive_search(w, args.polys, r=args.r, sizeC=args.sizeC)
        if cfg is None:
            raise NoConfiguration(
                f"no configuration with |C| = {args.sizeC} at r = {args.r}"
            )
    else:
        maxC = _GREEDY_MAXC if args.maxC is None else args.maxC
        cfg = greedy_search(w, args.polys, r=args.r, maxC=maxC, candidate_cap=args.candidate_cap)
    doc = cfg.to_json(args.N)
    _emit(args.out, out, doc, record=doc.items())
    return 0


def _cmd_audit(args, out: IO[str], err: IO[str]) -> int:
    c = parse_coloring_spec(args.coloring, args.seed)
    if args.growth:
        if args.n is None or args.color is None:
            raise ParseError("--growth needs --n and --color", "", None)
        _refuse(args, "with --growth", {"n_max": "--n-max", "M": "--M"})
        rows = bad_set_growth(c, args.n, args.polys, args.color, args.growth)
        header = ("M", "count", "max_element")
    else:
        if args.n_max is None:
            raise ParseError("audit needs --n-max (or --growth with --n and --color)", "", None)
        if args.M is None:
            raise ParseError("audit needs --M", "", None)
        _refuse(args, "without --growth", {"n": "--n"})
        colors = [args.color] if args.color is not None else range(1, c.palette + 1)
        reports = [
            bad_set(c, n, args.polys, i, args.M)[1]
            for n in range(1, args.n_max + 1)
            for i in colors
        ]
        header = ("n", "color", "count", "max_element", "M", "stabilized")
        rows = [tuple(r.to_json().get(h) for h in header) for r in reports]
    doc = [{h: v for h, v in zip(header, row) if v is not None} for row in rows]
    _emit(args.out, out, doc, table=(header, rows))
    return 0


def _cmd_ap(args, out: IO[str], err: IO[str]) -> int:
    start, diff, length = longest_ap(_set_arg(args))
    doc = {"start": start, "difference": diff, "length": length}
    _emit(args.out, out, doc, table=(tuple(doc), [tuple(doc.values())]))
    return 0


# the flags of `dynamics` besides --op and --out, and the ones each op reads.
# Those with defaults parse to None, so that a given one is told from a
# defaulted one.
_DYNAMICS_FLAGS = ("coloring", "y", "z", "N", "a", "b", "h", "M", "D", "K", "set", "file", "window_sizes", "seed")
_DYNAMICS_READS = {
    "return": ("coloring", "N", "a", "b", "h", "M", "window_sizes", "seed"),
    "dichotomy": ("y", "z", "N", "a", "b", "D", "K", "seed"),
    "density": ("M", "window_sizes", "set", "file"),
}
_DYNAMICS_DEFAULTS = {"a": 1, "b": 2, "h": 0, "seed": 0}


def _cmd_dynamics(args, out: IO[str], err: IO[str]) -> int:
    reads = _DYNAMICS_READS[args.op]
    unread = {d: "--" + d.replace("_", "-") for d in _DYNAMICS_FLAGS if d not in reads}
    _refuse(args, f"to --op {args.op}", unread)
    for dest, value in _DYNAMICS_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    if args.op == "return":
        if args.coloring is None or args.N is None:
            raise ParseError("return op needs --coloring and --N", "", None)
        c = parse_coloring_spec(args.coloring, args.seed)
        M = args.M if args.M is not None else (args.N - args.h) // args.b
        if args.h + args.b * M > args.N:
            raise WindowOverrun(f"--N {args.N} does not cover h + b*M = {args.h + args.b * M}")
        rs = return_set(c, args.a, args.b, args.h, M)
        doc = rs.to_json()
        if args.window_sizes:
            doc["density"] = [list(row) for row in density_profile(rs.elements, M, args.window_sizes)]
        record = [(k, doc[k]) for k in ("a", "b", "h", "M", "count", "max_gap")]
        _emit(args.out, out, doc, record=record, table=(("n",), [(n,) for n in rs.elements]))
        return 0
    if args.op == "dichotomy":
        if args.y is None or args.z is None or args.N is None:
            raise ParseError("dichotomy op needs --y, --z and --N", "", None)
        if args.D is None or args.K is None:
            raise ParseError("dichotomy op needs --D and --K", "", None)
        yw = word_from_coloring(parse_coloring_spec(args.y, args.seed), args.N)
        zw = word_from_coloring(parse_coloring_spec(args.z, args.seed), args.N)
        d = dichotomy_detect(yw, zw, args.a, args.b, args.D, args.K)
        doc = {"found": d is not None, "d": d}
        _emit(args.out, out, doc, table=(tuple(doc), [tuple(doc.values())]))
        return 0
    # density
    if args.M is None or not args.window_sizes:
        raise ParseError("density op needs --M and --window-sizes", "", None)
    prof = density_profile(_set_arg(args), args.M, args.window_sizes)
    doc = [{"window": w_, "density": v} for w_, v in prof]
    _emit(args.out, out, doc, table=(("window", "density"), prof))
    return 0


def _cmd_witness(args, out: IO[str], err: IO[str]) -> int:
    variant = variant_name(args.variant)
    # the other variants' flags; the list flags spell their field without
    # "_values": --d, --v
    unread = {
        f: "--" + f.removesuffix("_values")
        for fields in VARIANT_FIELDS.values() for f in fields if f not in VARIANT_FIELDS[variant]
    }
    _refuse(args, f"to variant {variant}", unread)
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(WitnessParams)}
    p = WitnessParams(**{k: v for k, v in given.items() if v is not None})
    B, C = build_witness(p)
    verdict = check_sumset_identity(p, B, C) if args.check else None
    e_chain = None
    if p.variant == "CaseI":
        e_chain = "verified" if p.e_chain_checked else "unchecked"
    doc = {
        "variant": p.variant,
        "a": p.a,
        "b": p.b,
        "r": p.r,
        "d_tilde": p.d_tilde,
        "B": list(B),
        "C": list(C),
    }
    if e_chain is not None:
        doc["e_chain"] = e_chain
    if verdict is not None:
        doc["check"] = verdict
    _emit(args.out, out, doc, record=doc.items())
    if args.check and not verdict:
        _print_json(
            {"error": "IdentityMismatch", "message": "sumset identity check failed"},
            err,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ParseError (exit 2, as JSON).

    Subcommand parsers inherit the class, so every usage error takes this path;
    --help still prints its text and exits 0.
    """

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_out(p: argparse.ArgumentParser, extra: Sequence[str] = ()) -> None:
    p.add_argument(
        "--out",
        choices=["json", "csv", "text", *extra],
        default="json",
        help="output format (default json)",
    )


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for random colorings without an explicit seed= (default 0)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sumset-ramsey",
        description="Monochromatic sumset colorings, searches, and audits.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("color", help="evaluate a coloring over [1, N]")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coloring", help="coloring spec, e.g. power2:1,2")
    src.add_argument("--kind", choices=_KINDS, help="built-in kind, with flags below")
    for name in _KIND_FLAGS:
        p.add_argument(f"--{name}")
    p.add_argument("--path")
    p.add_argument("--N", type=_positive_int, required=True)
    _add_seed(p)
    _add_out(p, extra=("runlength",))
    p.set_defaults(handler=_cmd_color)

    p = sub.add_parser("search", help="hunt a monochromatic configuration")
    p.add_argument("--coloring", required=True)
    p.add_argument("--polys", type=_listed(_poly_tok), required=True, help='e.g. "n,2n"')
    p.add_argument("--N", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--maxC", type=_positive_int, help=f"greedy only (default {_GREEDY_MAXC})")
    p.add_argument("--strategy", choices=["greedy", "exhaustive"], default="greedy")
    p.add_argument("--sizeC", type=_positive_int, help="exhaustive only")
    p.add_argument("--candidate-cap", dest="candidate_cap", type=_positive_int, help="greedy only")
    _add_seed(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("audit", help="bad-set stabilization reports")
    p.add_argument("--coloring", required=True)
    p.add_argument("--polys", type=_listed(_poly_tok), required=True)
    p.add_argument("--n-max", dest="n_max", type=_positive_int)
    p.add_argument("--n", type=_positive_int, help="single n (growth mode)")
    p.add_argument("--color", type=_positive_int)
    p.add_argument("--M", type=_positive_int)
    p.add_argument(
        "--growth", type=_listed(_int_tok), help="comma-separated horizons for a growth curve"
    )
    _add_seed(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("ap", help="longest arithmetic progression in a set")
    p.add_argument("--set", type=_listed(_int_tok), help="comma-separated integers")
    p.add_argument("--file", help="file of whitespace-separated integers")
    _add_out(p)
    p.set_defaults(handler=_cmd_ap)

    p = sub.add_parser("dynamics", help="return sets, dichotomy scans, densities")
    p.add_argument("--op", choices=["return", "dichotomy", "density"], required=True)
    p.add_argument("--coloring")
    p.add_argument("--y", help="first word's coloring spec (dichotomy)")
    p.add_argument("--z", help="second word's coloring spec (dichotomy)")
    p.add_argument("--N", type=_positive_int)
    p.add_argument("--a", type=_positive_int, help=f"default {_DYNAMICS_DEFAULTS['a']}")
    p.add_argument("--b", type=_positive_int, help=f"default {_DYNAMICS_DEFAULTS['b']}")
    p.add_argument("--h", type=int, help=f"default {_DYNAMICS_DEFAULTS['h']}")
    p.add_argument("--M", type=_positive_int)
    p.add_argument("--D", type=_positive_int)
    p.add_argument("--K", type=int)
    p.add_argument("--set", type=_listed(_int_tok))
    p.add_argument("--file")
    p.add_argument("--window-sizes", dest="window_sizes", type=_listed(_int_tok))
    _add_seed(p)
    _add_out(p)
    # defaults are filled in by the handler, once it has refused unread flags
    p.set_defaults(handler=_cmd_dynamics, seed=None)

    p = sub.add_parser("witness", help="build and check a witness pair")
    p.add_argument("--variant", required=True)
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--dtilde", dest="d_tilde", type=int, default=0)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--d", dest="d_values", type=_listed(_int_tok), help="comma-separated d values")
    p.add_argument("--E", type=int)
    p.add_argument("--pairs", type=_listed(_pair_tok), help="comma-separated d:k pairs")
    p.add_argument("--v", dest="v_values", type=_listed(_int_tok), help="comma-separated v values")
    p.add_argument("--j", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--L0", type=int)
    p.add_argument("--offsets", type=_listed(_int_tok), help="comma-separated offsets")
    p.add_argument("--xi", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--check", action="store_true", help="verify the sumset identity")
    _add_out(p)
    p.set_defaults(handler=_cmd_witness)

    return parser


def run(
    argv: Sequence[str] | None = None,
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
        return args.handler(args, out, err)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ParseError as exc:
        _print_json(
            {
                "error": "ParseError",
                "message": str(exc),
                "text": exc.text,
                "pos": exc.pos,
            },
            err,
        )
        return 2
    except SumsetRamseyError as exc:
        _print_json({"error": type(exc).__name__, "message": str(exc)}, err)
        return 1
    except OSError as exc:
        _print_json({"error": "IOError", "message": str(exc)}, err)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
