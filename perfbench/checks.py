"""Output checks, run after the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The checks know the graph the program was given, never how the
program computed its answer.
"""

from __future__ import annotations

import json
from itertools import combinations

XVAL_GRAPHS = 4161
XVAL_CLASSES = 297


def check_xval(report):
    problems = []
    if report.graphs_checked != XVAL_GRAPHS:
        problems.append(f"graphs_checked {report.graphs_checked} != {XVAL_GRAPHS}")
    if report.classes_checked != XVAL_CLASSES:
        problems.append(f"classes_checked {report.classes_checked} != {XVAL_CLASSES}")
    if report.disagreements:
        problems.append(f"{len(report.disagreements)} disagreements")
    if report.skipped:
        problems.append(f"{len(report.skipped)} skipped classes")
    return problems


def reference_verdict(nil, graph):
    """(integrally_closed, normal, certificate power or None) from the
    classifier, computed before timing starts."""
    report = nil.classify(nil.build_graph(*graph))
    cert = report.primary_certificate
    return report.integrally_closed, report.normal, cert.t if cert else None


def _witness_problems(nil, ideal, witness, t, what):
    problems = []
    if not nil.in_closure_power(ideal, witness, t):
        problems.append(f"{what} {witness} is not in the closure of I^{t}")
    if nil.contains_power(ideal, witness, t):
        problems.append(f"{what} {witness} lies in I^{t}")
    return problems


def check_normality(nil, graph, tmax, exit_code, stdout, reference):
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out = json.loads(stdout)
    closed, normal, cert_t = reference
    status, t = out["status"], out["t"]
    if not closed and (status, t) != ("counterexample", 1):
        return [f"not integrally closed, but the scan says {status} at t={t}"]
    if normal and (status, t) != ("normal_up_to", tmax):
        return [f"normal, but the scan says {status} at t={t}"]
    if closed and not normal:
        if status == "counterexample" and t == 1:
            return ["integrally closed, but the scan found a counterexample at t=1"]
        if cert_t <= tmax and status != "counterexample":
            return [f"a certificate exists at t={cert_t} <= {tmax}, but the scan says {status}"]
    if status == "normal_up_to":
        return [] if "witness" not in out else ["normal_up_to carries a witness"]
    ideal = nil.edge_ideal(nil.build_graph(*graph))
    return _witness_problems(nil, ideal, tuple(out["witness"]), t, "witness")


def check_closure(nil, graph, k, exit_code, stdout, reference):
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out = json.loads(stdout)
    closed, normal, cert_t = reference
    difference = [tuple(g) for g in out["difference"]]
    problems = []
    if out["k"] != k:
        problems.append(f"k {out['k']} != {k}")
    if out["integrally_closed"] != (not difference):
        problems.append("integrally_closed disagrees with the difference list")
    if not set(difference) <= {tuple(g) for g in out["closure_generators"]}:
        problems.append("a difference generator is not a closure generator")
    if normal and difference:
        problems.append(f"normal graph, but I^{k} is not integrally closed")
    if closed and not normal and cert_t == k and not difference:
        problems.append(f"a certificate exists at t={k}, but the difference is empty")
    ideal = nil.edge_ideal(nil.build_graph(*graph))
    for g in difference:
        problems.extend(_witness_problems(nil, ideal, g, k, "difference generator"))
    problems.extend(_closure_generator_problems(nil, ideal, k, out["closure_generators"]))
    return problems


def _closure_generator_problems(nil, ideal, k, listed):
    """The listed generators must lie in the closure of I^k, none may divide
    another, and each generator of I^k must be a multiple of one of them."""
    gens = [tuple(g) for g in listed]
    problems = []
    outside = [g for g in gens if not nil.in_closure_power(ideal, g, k)]
    if outside:
        problems.append(f"closure generator {outside[0]} is not in the closure of I^{k}")
    if len(set(gens)) != len(gens) or any(
            a != b and divides(a, b) for a in gens for b in gens):
        problems.append("the closure generators are not minimal")
    uncovered = [p for p in nil.power(ideal, k).gens if not any(divides(g, p) for g in gens)]
    if uncovered:
        problems.append(f"generator {uncovered[0]} of I^{k} is not a multiple of any closure generator")
    return problems


def divides(a, b):
    """x^a divides x^b.  Not nil's own `divides`, which the box scan that
    is being checked uses."""
    return all(x <= y for x, y in zip(a, b))


def check_classify(graph, exit_code, stdout):
    if exit_code not in (0, 10, 11):
        return [f"exit code {exit_code}"]
    out = json.loads(stdout)
    closed, normal = out["integrally_closed"], out["normal"]
    problems = []
    expected_code = 0 if normal else (10 if not closed else 11)
    if exit_code != expected_code:
        problems.append(f"exit code {exit_code} but the verdicts imply {expected_code}")
    if (out["certificate"] is None) != normal:
        problems.append("a certificate must be present exactly when the graph is not normal")
    if normal and out["configs"]:
        problems.append("normal, but configurations are listed")
    if not normal and not out["configs"]:
        problems.append("not normal, but no configuration is listed")
    kinds = {c["kind"] for c in out["configs"]}
    if closed == bool(kinds & {"F1", "F2", "F3"}):
        problems.append("integrally_closed disagrees with the F1-F3 configurations listed")
    weight = {(u, v): w for u, v, w in graph[1]}
    for config in out["configs"]:
        vertices = sorted(config["vertices"])
        induced = [
            [a, b, weight[a, b]] for a, b in combinations(vertices, 2) if (a, b) in weight
        ]
        if induced != sorted(config["edges"]):
            problems.append(f"{config['kind']} on {vertices} does not induce its listed edges")
            break
    return problems
