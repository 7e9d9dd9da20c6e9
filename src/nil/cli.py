"""Command-line surface: graph files in, deterministic JSON reports out.

Graph file formats (selected by --format, else by file extension):

  text   lines of `vertices <n>` then `edge <u> <v> [<w>]` (weight
         defaults to 1); `#` starts a comment; blank lines are ignored.
  json   {"vertices": n, "edges": [[u, v, w], ...]}

Exit codes: 0 success (for `classify`: normal), 10 not integrally closed,
11 integrally closed but not normal, 2 input error, 3 resource budget
exceeded, 1 enumeration found disagreements.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from itertools import chain
from pathlib import Path

from . import __version__
from .classifier import (
    ForbiddenConfig,
    GraphFamily,
    classify,
    cross_validate,
    graph_as_dict,
    verify_certificate,
)
from .closure import (
    DEFAULT_BOX_BUDGET,
    ClosureOracle,
    closure_power_generators,
    normality_scan,
)
from .errors import GraphError, GraphFileError, IdealError, ResourceLimitError, _quote
from .ideal import edge_ideal
from .wgraph import build_graph, classify_compact

ENV_BOX_BUDGET = "NIL_BOX_BUDGET"


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

def _exact_int(text):
    """The int that `text` spells as ASCII `[+-]?[0-9]+`, else None.

    int() alone also reads `1_0` as 10, other scripts' digits (`٢` as 2)
    and surrounding whitespace.  Past Python's int-string digit limit,
    raises ValueError with a message that gives the length, not the digits.
    """
    try:
        if text.isdigit() and text.isascii():
            return int(text)
        if text[:1] in ("+", "-") and text[1:].isdigit() and text[1:].isascii():
            return int(text)
    except ValueError:
        raise ValueError(f"has {len(text)} characters, too many digits for an integer") from None
    return None


def _parse_int(text, lineno, what):
    try:
        value = _exact_int(text)
    except ValueError as exc:
        raise GraphFileError(f"{what} {exc}", lineno) from None
    if value is None:
        raise GraphFileError(f"{what} must be an integer, got {_quote(text)}", lineno)
    return value


def parse_graph_text(text):
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n is not None:
                raise GraphFileError("duplicate vertices line", lineno)
            if len(parts) != 2:
                raise GraphFileError("expected: vertices <n>", lineno)
            n = _parse_int(parts[1], lineno, "vertex count")
        elif parts[0] == "edge":
            if n is None:
                raise GraphFileError("edge line before vertices header", lineno)
            if len(parts) not in (3, 4):
                raise GraphFileError("expected: edge <u> <v> [<w>]", lineno)
            u = _parse_int(parts[1], lineno, "endpoint")
            v = _parse_int(parts[2], lineno, "endpoint")
            w = _parse_int(parts[3], lineno, "weight") if len(parts) == 4 else 1
            edges.append((u, v, w))
        else:
            raise GraphFileError(f"unknown directive {_quote(parts[0])}", lineno)
    if n is None:
        raise GraphFileError("missing vertices header")
    return build_graph(n, edges)


def parse_graph_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"invalid JSON: {exc}", exc.lineno) from None
    except (ValueError, RecursionError) as exc:
        # integers past the digit limit; arrays nested past the recursion limit
        raise GraphFileError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise GraphFileError('expected an object with "vertices" and "edges"')
    n = data["vertices"]
    if type(n) is not int:
        raise GraphFileError('"vertices" must be an integer')
    if not isinstance(data["edges"], list):
        raise GraphFileError('"edges" must be a list')
    edges = []
    for item in data["edges"]:
        if not isinstance(item, list) or len(item) not in (2, 3):
            raise GraphFileError(f"edge entries must be [u, v] or [u, v, w], got {_quote(item)}")
        edges.append(tuple(item) if len(item) == 3 else (item[0], item[1], 1))
    return build_graph(n, edges)


def parse_graph_file(path, fmt=None):
    """Parse a graph file; format from `fmt` or the file extension."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if fmt is None:
        fmt = "json" if str(path).endswith(".json") else "text"
    if fmt == "json":
        return parse_graph_json(text)
    return parse_graph_text(text)


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------

# Every scalar but an exact int goes through the C encoder, which writes it
# as json.dumps does; dict keys are str and take the same quoting.
_encode_scalar = json.JSONEncoder(sort_keys=True, separators=(",", ": ")).encode
_encode_key = json.encoder.encode_basestring_ascii


def _dumps(value):
    """json.dumps(value, indent=2, sort_keys=True) for the report payloads:
    dicts with str keys, lists, tuples, str, int, bool, None and
    `ForbiddenConfig` records.

    With `indent`, json.dumps takes the pure-Python encoder, which spends a
    call per value; here a list of exact ints is one join. A record is
    written straight from its fields, in the layout of
    `tests/_oracles.py::reference_config_payload`: its ints fill the `%d`
    slots of one template per record shape and indent.
    """
    return _write(value, "\n")


def _write(value, newline):
    # `newline` starts each line at this value's own depth.
    if isinstance(value, (list, tuple)):
        if not [x for x in value if type(x) is not int]:
            return _layout(list(map(int.__repr__, value)), newline)
        inner = newline + "  "
        return _layout([_write(x, inner) for x in value], newline)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = [_encode_key(k) + ": " + _write(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is ForbiddenConfig:
        return _write_record(value, newline)
    return _encode_scalar(value)


def _write_record(config, newline):
    # The key holds the row counts and every row's length, so a template
    # serves only records whose ints fill its slots in the same places.  A
    # record's ints are exact ints (WeightedGraph's rule), which %d writes
    # as repr does.
    connectors, cycles, edges, pendant = (
        config.connectors, config.cycles, config.edges, config.pendant
    )
    rows = (*connectors, *cycles, *edges)
    template = _record_template((
        newline, config.kind, len(connectors), len(cycles),
        -1 if pendant is None else len(pendant), len(config.vertices), *map(len, rows),
    ))
    return template % (*chain.from_iterable(rows), *(pendant or ()), *config.vertices)


# Reports repeat a few shapes (kinds, cycle lengths, connector counts), and
# a template is about as long as its record, so a bounded cache holds them.
@functools.lru_cache(maxsize=256)
def _record_template(key):
    """A record's text with a `%d` slot for each int.  `key` is the
    newline, the kind, the connector and cycle counts, the pendant's length
    (-1 for none), the vertex count, then the length of each connector,
    cycle and edge row in turn.  The record's JSON keys come in sorted
    order, `connectors` for every F5, even when empty, `cycles` only when
    there are any."""
    newline, kind, n_connectors, n_cycles, pendant, vertices, *lengths = key
    inner = newline + "  "
    row_at = inner + "  "
    rows = [_slots(k, row_at) for k in lengths]
    cycles_at = n_connectors + n_cycles
    body = []
    if kind == "F5":
        body.append('"connectors": ' + _layout(rows[:n_connectors], inner))
    if n_cycles:
        body.append('"cycles": ' + _layout(rows[n_connectors:cycles_at], inner))
    body.append('"edges": ' + _layout(rows[cycles_at:], inner))
    body.append('"kind": ' + _encode_key(kind).replace("%", "%%"))
    if pendant >= 0:
        body.append('"pendant": ' + _slots(pendant, inner))
    body.append('"vertices": ' + _slots(vertices, inner))
    return "{" + inner + ("," + inner).join(body) + newline + "}"


def _slots(length, newline):
    return _layout(["%d"] * length, newline)


def _layout(items, newline):
    # json.dumps's layout of a list whose items' texts are given
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _emit(payload):
    # The newline goes out on its own: appending it would copy the whole
    # report once more, and the longest run to megabytes.
    sys.stdout.write(_dumps(payload))
    sys.stdout.write("\n")


def _certificate_payload(cert):
    out = {
        "kind": cert.config.kind,
        "t": cert.t,
        "witness": list(cert.witness),
        "verified": cert.verified,
    }
    if cert.note:
        out["note"] = cert.note
    return out


def _monomial(exponent):
    factors = [
        f"x{i}" if e == 1 else f"x{i}^{e}"
        for i, e in enumerate(exponent, start=1)
        if e
    ]
    return " ".join(factors) if factors else "1"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    G = parse_graph_file(args.file, args.format)
    report = classify(G)
    payload = {
        "graph": graph_as_dict(G),
        "integrally_closed": report.integrally_closed,
        "normal": report.normal,
        "configs": list(report.found),
        "certificate": None,
        "notes": list(report.notes),
    }
    if args.certificates and report.primary_certificate is not None:
        cert = report.primary_certificate
        if args.verify:
            cert = verify_certificate(G, cert)
        payload["certificate"] = _certificate_payload(cert)
        payload["certificate"]["witness_monomial"] = _monomial(cert.witness)
    _emit(payload)
    if report.normal:
        return 0
    return 10 if not report.integrally_closed else 11


def cmd_closure(args):
    G = parse_graph_file(args.file, args.format)
    oracle = ClosureOracle(edge_ideal(G))
    closure = closure_power_generators(oracle, args.k, box_budget=args.box_budget)
    pk = oracle.power(args.k)
    # A minimal closure generator lies in I^k only as a generator of I^k.
    power_gens = set(pk.gens)
    difference = [g for g in closure.gens if g not in power_gens]
    _emit(
        {
            "k": args.k,
            "power_generators": [list(g) for g in pk.gens],
            "closure_generators": [list(g) for g in closure.gens],
            "difference": [list(g) for g in difference],
            "integrally_closed": not difference,
        }
    )
    return 0


def cmd_normality(args):
    G = parse_graph_file(args.file, args.format)
    verdict = normality_scan(edge_ideal(G), t_max=args.tmax, box_budget=args.box_budget)
    payload = {"status": verdict.status, "t": verdict.t}
    if verdict.witness is not None:
        payload["witness"] = list(verdict.witness)
        payload["witness_monomial"] = _monomial(verdict.witness)
    else:
        payload["note"] = (
            "no counterexample up to t_max; this bounds but does not prove normality"
        )
    _emit(payload)
    return 0


def cmd_compact(args):
    G = parse_graph_file(args.file, args.format)
    result = classify_compact(G)
    payload = {"tag": result.tag, "stems": list(result.stems)}
    if result.has_even_path is not None:
        payload["has_even_path"] = result.has_even_path
    _emit(payload)
    return 0


def cmd_enumerate(args):
    if args.max_vertices < 2:
        raise GraphError("--max-vertices must be at least 2")
    report = cross_validate(
        GraphFamily(args.max_vertices, args.weights),
        t_max=args.tmax,
        box_budget=args.box_budget,
    )
    _emit(dataclasses.asdict(report))
    return 0 if report.agreed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _int_arg(text):
    try:
        value = _exact_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"the value {exc}") from None
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {_quote(text)}")
    return value


def _weights_arg(text):
    values = tuple(_int_arg(part) for part in text.split(","))
    if any(w < 1 for w in values):
        raise argparse.ArgumentTypeError("weights must be positive integers")
    return values


def _default_box_budget():
    raw = os.environ.get(ENV_BOX_BUDGET)
    if raw is None:
        return DEFAULT_BOX_BUDGET
    try:
        value = _exact_int(raw)
    except ValueError as exc:
        raise GraphError(f"{ENV_BOX_BUDGET} {exc}") from None
    if value is None or value < 1:
        raise GraphError(f"{ENV_BOX_BUDGET} must be a positive integer, got {_quote(raw)}")
    return value


def _add_format(sub):
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default=None,
        help="graph file format (default: by extension, .json means json)",
    )


def _add_box_budget(sub):
    sub.add_argument(
        "--box-budget",
        type=_int_arg,
        default=None,
        metavar="N",
        help=f"lattice box volume budget (default {DEFAULT_BOX_BUDGET}, "
        f"or the {ENV_BOX_BUDGET} environment variable)",
    )


# Building the parser costs more than a small request; argparse parsers keep
# no state between parse_args calls, so one serves every call in a process.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="nil",
        description="Integral closedness and normality of edge ideals of "
        "edge-weighted graphs.",
    )
    parser.add_argument("--version", action="version", version=f"nil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural verdicts and certificate")
    p.add_argument("file")
    _add_format(p)
    p.add_argument(
        "--certificates",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include the primary counterexample certificate (default on)",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="check the certificate against the exact LP oracle",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("closure", help="generators of the closure of I^k vs I^k")
    p.add_argument("file")
    p.add_argument("k", type=_int_arg, help="power to close (k >= 1)")
    _add_format(p)
    _add_box_budget(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("normality", help="scan powers 1..t_max for counterexamples")
    p.add_argument("file")
    _add_format(p)
    _add_box_budget(p)
    p.add_argument("--tmax", type=_int_arg, default=3, help="largest power to scan (default 3)")
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("compact", help="bouquet classification of a leafless graph")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("enumerate", help="cross-validate classifier vs oracle")
    _add_box_budget(p)
    p.add_argument("--max-vertices", type=_int_arg, default=4)
    p.add_argument("--weights", type=_weights_arg, default=(1, 2))
    p.add_argument("--tmax", type=_int_arg, default=3)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Only the commands that scan a lattice box take a budget.
        if hasattr(args, "box_budget"):
            if args.box_budget is None:
                args.box_budget = _default_box_budget()
            elif args.box_budget < 1:
                raise GraphError("--box-budget must be a positive integer")
        if getattr(args, "k", None) is not None and args.k < 1:
            raise GraphError("k must be a positive integer")
        if getattr(args, "tmax", None) is not None and args.tmax < 1:
            raise GraphError("--tmax must be a positive integer")
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphFileError, GraphError, IdealError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
