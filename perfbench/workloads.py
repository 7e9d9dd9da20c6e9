"""The three workloads: what one request is, its warm-up, and its check.

A workload is driven as a closed loop by run.py: one request at a time,
the next sent only after the previous one completed.  `request(nil, i)`
runs input i of the pool and returns (exit code, output).  Outside the
timed window, `prepare_check` readies the reference for input i and
`problems` checks an output; `digest_text` is what the stdout digest hashes.
"""

from __future__ import annotations

import contextlib
import io
import json

import checks
import inputs

# Distinct inputs per run; the loop starts over only if a run gets through
# all of them.  A 30 s run at the seed commit completes about 330 oracle and
# 1,700 classify requests.
ORACLE_POOL = 1000
CLASSIFY_POOL = 4250
TMAX = 2
CLOSURE_K = 2

# Fixed warm-up inputs, the same for every seed: a triangle with a heavy
# pendant edge (an F1, so classify exits 10) and the xval family at n <= 3.
WARMUP_GRAPH = (5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 2), (4, 5, 2)])
WARMUP_FAMILY = (3, (1, 2))


def cli_request(nil, argv):
    """Run `nil <argv>` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = nil.cli.main(argv)
    return code, out.getvalue()


class Workload:
    pool = 1  # distinct inputs
    items_per_request = 1

    def prepare_check(self, nil, i):
        """Compute, untimed, what checking input i needs."""


class Xval(Workload):
    """One cross_validate call over every labelled graph on <= 4 vertices
    with weights {1, 2, 3}, scanning powers up to 2.  The family is fixed;
    the seed does not change it."""

    name = "xval"
    item_unit = "labelled graphs"
    items_per_request = checks.XVAL_GRAPHS
    expected = frozenset({
        "simplex.maximize_total", "closure.lp_max_weight",
        "closure.is_power_integrally_closed", "closure.normality_scan",
        "ideal.power", "ideal.contains_power", "wgraph.chordless_cycles",
        "classifier.find_f1_f2_f3", "classifier.find_f4", "classifier.find_f5",
        "classifier.classify", "classifier.verify_certificate",
        "classifier.cross_validate",
    })

    def __init__(self, seed, workdir):
        pass

    @staticmethod
    def warmup(nil, workdir):
        nil.cross_validate(nil.GraphFamily(*WARMUP_FAMILY), t_max=TMAX)

    def request(self, nil, i):
        family = nil.GraphFamily(4, (1, 2, 3))
        return 0, nil.classifier.cross_validate(family, t_max=TMAX)

    def problems(self, nil, i, code, report):
        return checks.check_xval(report)

    def digest_text(self, report):
        fields = {
            key: getattr(report, key)
            for key in ("graphs_checked", "classes_checked", "disagreements", "skipped",
                        "normal_classes", "closed_not_normal_classes",
                        "not_closed_classes", "note")
        }
        return json.dumps(fields, sort_keys=True, default=list)


class _CliWorkload(Workload):
    """Requests are `nil` command lines on seeded graph files."""

    item_unit = "requests"

    def __init__(self, workdir, graphs, argv_of):
        self.workdir = workdir
        self.graphs = graphs
        paths = inputs.write_graphs(workdir, graphs)
        self.argvs = [argv_of(i, str(p)) for i, p in enumerate(paths)]
        self.pool = len(paths)

    @classmethod
    def warmup(cls, nil, workdir):
        path = workdir / "warmup.txt"
        path.write_text(inputs.graph_text(WARMUP_GRAPH), encoding="utf-8")
        cli_request(nil, cls.warmup_argv(str(path)))

    def request(self, nil, i):
        return cli_request(nil, self.argvs[i])

    def digest_text(self, stdout):
        return stdout


class Oracle(_CliWorkload):
    """`nil normality FILE --tmax 2` and `nil closure FILE 2`, alternating,
    on connected 5-vertex graphs.  The classifier does no work here (the
    reference verdicts for the checks are computed outside the timing)."""

    name = "oracle"
    expected = frozenset({
        "simplex.maximize_total", "closure.lp_max_weight",
        "closure.is_power_integrally_closed", "closure.closure_power_generators",
        "closure.normality_scan", "ideal.power", "ideal.contains_power",
        "cli.main", "cli.parse_graph_file", "cli._emit",
    })

    def __init__(self, seed, workdir):
        requests = inputs.oracle_requests(seed, ORACLE_POOL)
        self.kinds = [kind for kind, _ in requests]
        super().__init__(workdir, [g for _, g in requests], self._argv)
        self.reference = {}

    def _argv(self, i, path):
        if self.kinds[i] == "normality":
            return self.warmup_argv(path)
        return ["closure", path, str(CLOSURE_K)]

    @staticmethod
    def warmup_argv(path):
        return ["normality", path, "--tmax", str(TMAX)]

    def prepare_check(self, nil, i):
        if i not in self.reference:
            self.reference[i] = checks.reference_verdict(nil, self.graphs[i])

    def problems(self, nil, i, code, stdout):
        if self.kinds[i] == "normality":
            return checks.check_normality(
                nil, self.graphs[i], TMAX, code, stdout, self.reference[i])
        return checks.check_closure(
            nil, self.graphs[i], CLOSURE_K, code, stdout, self.reference[i])


class Classify(_CliWorkload):
    """`nil classify FILE` on random graphs whose size cycles through
    12..28 vertices.  No LP is solved here."""

    name = "classify"
    expected = frozenset({
        "wgraph.chordless_cycles", "classifier.find_f1_f2_f3", "classifier.find_f4",
        "classifier.find_f5", "classifier.classify",
        "cli.main", "cli.parse_graph_file", "cli._emit",
    })

    def __init__(self, seed, workdir):
        super().__init__(workdir, inputs.classify_requests(seed, CLASSIFY_POOL),
                         lambda i, path: ["classify", path])

    @staticmethod
    def warmup_argv(path):
        return ["classify", path]

    def problems(self, nil, i, code, stdout):
        return checks.check_classify(self.graphs[i], code, stdout)


WORKLOADS = {w.name: w for w in (Xval, Oracle, Classify)}
