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
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .classifier import (
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
from .errors import GraphError, GraphFileError, IdealError, ResourceLimitError
from .ideal import edge_ideal
from .wgraph import build_graph, classify_compact

ENV_BOX_BUDGET = "NIL_BOX_BUDGET"


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------

def _parse_int(text, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise GraphFileError(f"{what} must be an integer, got {text!r}", lineno) from None


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
            raise GraphFileError(f"unknown directive {parts[0]!r}", lineno)
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
            raise GraphFileError(f"edge entries must be [u, v] or [u, v, w], got {item!r}")
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


def _dumps(value, newline="\n"):
    """json.dumps(value, indent=2, sort_keys=True) for the report payloads:
    dicts with str keys, lists, tuples, str, int, bool and None.

    With `indent`, json.dumps takes the pure-Python encoder, which spends a
    call per value; here a list of exact ints is one join.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if not [x for x in value if type(x) is not int]:
            body = map(int.__repr__, value)
        else:
            body = [_dumps(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = [_encode_key(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if type(value) is int:
        return int.__repr__(value)
    return _encode_scalar(value)


def _emit(payload):
    sys.stdout.write(_dumps(payload) + "\n")


def _config_payload(config):
    out = {
        "kind": config.kind,
        "vertices": list(config.vertices),
        "edges": [list(e) for e in config.edges],
    }
    if config.cycles:
        out["cycles"] = [list(c) for c in config.cycles]
    if config.pendant is not None:
        out["pendant"] = list(config.pendant)
    if config.kind == "F5":
        out["connectors"] = [list(e) for e in config.connectors]
    return out


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
        "configs": [_config_payload(c) for c in report.found],
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
    _emit(
        {
            # the family checked: its weights sorted, without repeats
            "family": {"max_vertices": args.max_vertices, "weights": list(report.family.weights)},
            "t_max": args.tmax,
            "graphs_checked": report.graphs_checked,
            "classes_checked": report.classes_checked,
            "disagreements": list(report.disagreements),
            "skipped": list(report.skipped),
            "normal_classes": report.normal_classes,
            "closed_not_normal_classes": report.closed_not_normal_classes,
            "not_closed_classes": report.not_closed_classes,
            "note": report.note,
        }
    )
    return 0 if report.agreed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _weights_arg(text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(w < 1 for w in values):
        raise argparse.ArgumentTypeError("weights must be positive integers")
    return values


def _default_box_budget():
    raw = os.environ.get(ENV_BOX_BUDGET)
    if raw is None:
        return DEFAULT_BOX_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise GraphError(f"{ENV_BOX_BUDGET} must be a positive integer, got {raw!r}")
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
        type=int,
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
    p.add_argument("k", type=int, help="power to close (k >= 1)")
    _add_format(p)
    _add_box_budget(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("normality", help="scan powers 1..t_max for counterexamples")
    p.add_argument("file")
    _add_format(p)
    _add_box_budget(p)
    p.add_argument("--tmax", type=int, default=3, help="largest power to scan (default 3)")
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("compact", help="bouquet classification of a leafless graph")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("enumerate", help="cross-validate classifier vs oracle")
    _add_box_budget(p)
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--weights", type=_weights_arg, default=(1, 2))
    p.add_argument("--tmax", type=int, default=3)
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
