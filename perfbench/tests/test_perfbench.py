"""Tests for the benchmark itself (not for nil).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import random
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import nil  # noqa: E402
import nil.cli  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Advances by one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSelfTime(unittest.TestCase):
    def test_nested_toy_call(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def leaf():
            clock.now += 5.0  # leaf works 5 s between its two clock readings

        traced_leaf = tracer.wrap("leaf", leaf)

        def middle():
            traced_leaf()
            traced_leaf()

        traced_middle = tracer.wrap("middle", middle)

        def outer():
            clock.now += 10.0
            traced_middle()

        tracer.wrap("outer", outer)()
        summary = tracer.summary()
        # leaf: start, +5, end  -> 6 s each
        # middle: start, 2 leaf spans of 6 s plus the gaps between readings -> 15 s
        # outer: start, +10, middle span, end -> 27 s
        self.assertEqual(summary["leaf"], {"calls": 2, "self_s": 12.0, "errors": 0})
        self.assertEqual(summary["middle"]["self_s"], 15.0 - 12.0)
        self.assertEqual(summary["outer"]["self_s"], 27.0 - 15.0)
        self.assertEqual(list(tracer.parents), [-1, 0, 1, 1])

    def test_error_is_counted_and_span_closed(self):
        tracer = tracing.Tracer(clock=FakeClock())

        def boom():
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            tracer.wrap("boom", boom)()
        self.assertEqual(tracer.summary()["boom"], {"calls": 1, "self_s": 1.0, "errors": 1})

    def test_install_wraps_every_binding_and_pause_restores(self):
        original = nil.ideal.power
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module in (nil.ideal, nil.closure, nil.cli, nil):
                self.assertIsNot(module.power, original)
            self.assertIs(nil.classifier.chordless_cycles, nil.wgraph.chordless_cycles)
            nil.power(nil.edge_ideal(nil.build_graph(2, [(1, 2, 1)])), 2)
            self.assertEqual(tracer.summary()["ideal.power"]["calls"], 1)
        finally:
            tracer.pause()
        for module in (nil.ideal, nil.closure, nil.cli, nil):
            self.assertIs(module.power, original)


class TestMissingLayer(unittest.TestCase):
    def test_expected_function_without_calls_is_missing_not_zero(self):
        renamed = ("classifier", "find_f5_renamed_away")
        workload = workloads.Classify.__new__(workloads.Classify)
        workload.expected = workloads.Classify.expected | {"classifier.find_f5_renamed_away"}
        old = tracing.TRACED
        tracing.TRACED = old + (renamed,)
        try:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.pause()
            loop = {"busy_s": 1.0, "scale": 1.0, "stdout_bytes": 0}
            metrics, missing = run.per_layer(workload, loop, tracer)
        finally:
            tracing.TRACED = old
        self.assertIn("classifier.find_f5_renamed_away", missing)
        self.assertIn("classifier.find_f5", missing)  # expected, but nothing ran
        self.assertNotIn("classifier.find_f5.calls", metrics)
        self.assertEqual(metrics["simplex.maximize_total.calls"]["value"], 0)
        loop.update(attempted=1, failed=0)
        self.assertFalse(run.result(loop, metrics, missing)["correct"])
        self.assertTrue(run.result(loop, metrics, [])["correct"])


class TestInputs(unittest.TestCase):
    def _files(self, make, seed):
        with tempfile.TemporaryDirectory() as tmp:
            paths = inputs.write_graphs(tmp, make(seed))
            return [p.read_bytes() for p in paths]

    def test_same_seed_same_bytes_other_seed_differs(self):
        makers = {
            "oracle": lambda seed: [g for _, g in inputs.oracle_requests(seed, 30)],
            "classify": lambda seed: inputs.classify_requests(seed, 30),
        }
        for name, make in makers.items():
            with self.subTest(workload=name):
                first = self._files(make, 7)
                self.assertEqual(first, self._files(make, 7))
                self.assertNotEqual(first, self._files(make, 8))

    def test_graphs_parse_and_oracle_graphs_are_connected(self):
        for _, (n, edges) in inputs.oracle_requests(3, 12):
            G = nil.cli.parse_graph_text(inputs.graph_text((n, edges)))
            self.assertEqual(len(nil.connected_components(G)), 1)
            self.assertEqual(sum(w == 2 for _, _, w in edges), round(len(edges) / 4))


    def test_oracle_strata_follow_the_measured_shares(self):
        shares = inputs.oracle_strata()
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        closed = sum(share for (c, _), share in shares.items() if c)
        self.assertAlmostEqual(closed, inputs.closed_share())
        requests = inputs.oracle_requests(4, 200)
        for stratum, share in shares.items():
            got = sum(inputs.oracle_stratum(g) == stratum for _, g in requests)
            self.assertLessEqual(abs(got / len(requests) - share), 0.01, stratum)

    def test_closedness_strata_match_the_classifier(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.choice((3, 4, 5, 6))
            _, edges = inputs.connected_graph(rng, n, rng.choice((0.3, 0.6, 0.9)))
            graph = (n, [(u, v, rng.choice((1, 2, 3))) for u, v, _ in edges])
            report = nil.classify(nil.build_graph(*graph))
            self.assertEqual(inputs.integrally_closed(graph), report.integrally_closed, graph)


class TestCalibrator(unittest.TestCase):
    def test_timer_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with calibrate.Calibrator() as calibrator:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        self.assertGreater(len(calibrator.samples), 2)
        self.assertAlmostEqual(calibrator.spent_s, sum(calibrator.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(calibrator.scale(), 0)

    def test_scale_needs_samples(self):
        with self.assertRaises(RuntimeError):
            calibrate.Calibrator().scale()


def _cli(argv):
    return workloads.cli_request(nil, argv)


class TestChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def _graph_file(self, graph):
        path = Path(self.tmp.name) / "g.txt"
        path.write_text(inputs.graph_text(graph), encoding="utf-8")
        return str(path)

    # A heavy path on three vertices (an F1): not integrally closed.
    F1 = (3, [(1, 2, 2), (2, 3, 2)])
    # A triangle with a disjoint heavy edge (an F4 needing t = 2).
    F4 = (5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 2)])

    def test_untampered_outputs_pass(self):
        for graph in (self.F1, self.F4):
            path = self._graph_file(graph)
            ref = checks.reference_verdict(nil, graph)
            code, out = _cli(["normality", path, "--tmax", "2"])
            self.assertEqual(checks.check_normality(nil, graph, 2, code, out, ref), [])
            code, out = _cli(["closure", path, "2"])
            self.assertEqual(checks.check_closure(nil, graph, 2, code, out, ref), [])
            code, out = _cli(["classify", path])
            self.assertEqual(checks.check_classify(graph, code, out), [])

    def test_flipped_classify_verdict_fails(self):
        code, out = _cli(["classify", self._graph_file(self.F4)])
        payload = json.loads(out)
        payload["normal"] = True
        self.assertNotEqual(checks.check_classify(self.F4, code, json.dumps(payload)), [])

    def test_config_with_wrong_edges_fails(self):
        code, out = _cli(["classify", self._graph_file(self.F4)])
        payload = json.loads(out)
        payload["configs"][0]["edges"].pop()
        self.assertNotEqual(checks.check_classify(self.F4, code, json.dumps(payload)), [])

    def test_wrong_exit_code_fails(self):
        code, out = _cli(["classify", self._graph_file(self.F4)])
        self.assertEqual(code, 11)
        self.assertNotEqual(checks.check_classify(self.F4, 0, out), [])
        self.assertNotEqual(checks.check_classify(self.F4, 2, out), [])

    def test_witness_in_power_fails(self):
        graph = self.F4
        ref = checks.reference_verdict(nil, graph)
        code, out = _cli(["normality", self._graph_file(graph), "--tmax", "2"])
        payload = json.loads(out)
        self.assertEqual((payload["status"], payload["t"]), ("counterexample", 2))
        in_power = nil.power(nil.edge_ideal(nil.build_graph(*graph)), 2).gens[0]
        payload["witness"] = list(in_power)
        self.assertNotEqual(
            checks.check_normality(nil, graph, 2, code, json.dumps(payload), ref), [])

    def test_flipped_normality_verdict_fails(self):
        graph = self.F1
        ref = checks.reference_verdict(nil, graph)
        out = json.dumps({"status": "normal_up_to", "t": 2, "note": ""})
        self.assertNotEqual(checks.check_normality(nil, graph, 2, 0, out, ref), [])

    def test_difference_generator_in_power_fails(self):
        graph = self.F1
        ref = checks.reference_verdict(nil, graph)
        code, out = _cli(["closure", self._graph_file(graph), "2"])
        payload = json.loads(out)
        fake = nil.power(nil.edge_ideal(nil.build_graph(*graph)), 2).gens[0]
        payload["difference"].append(list(fake))
        payload["closure_generators"].append(list(fake))
        self.assertNotEqual(
            checks.check_closure(nil, graph, 2, code, json.dumps(payload), ref), [])


    def _closure_payload(self, graph):
        ref = checks.reference_verdict(nil, graph)
        code, out = _cli(["closure", self._graph_file(graph), "2"])
        return ref, code, json.loads(out)

    def test_dropped_or_extra_closure_generator_fails(self):
        graph = self.F1
        ref, code, payload = self._closure_payload(graph)
        in_power = [g for g in payload["closure_generators"] if g not in payload["difference"]]
        dropped = dict(payload, closure_generators=[
            g for g in payload["closure_generators"] if g != in_power[0]])
        multiple = [x + 1 for x in in_power[0]]
        extra = dict(payload, closure_generators=payload["closure_generators"] + [multiple])
        outside = dict(payload, closure_generators=payload["closure_generators"] + [[1, 0, 0]])
        for tampered in (dropped, extra, outside):
            self.assertNotEqual(
                checks.check_closure(nil, graph, 2, code, json.dumps(tampered), ref), [])


class TamperedClassify(workloads.Classify):
    """Classify workload whose every other output has its verdict flipped."""

    def request(self, nil, i):
        code, out = super().request(nil, i)
        if i % 2:
            payload = json.loads(out)
            payload["integrally_closed"] = not payload["integrally_closed"]
            out = json.dumps(payload)
        return code, out


class TestFailureAccounting(unittest.TestCase):
    def test_tampered_outputs_count_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = TamperedClassify(1, Path(tmp))
            workload.pool = 4  # later requests repeat the tampered inputs
            loop = run.closed_loop(nil, workload, 0.2, None, calibrate.Calibrator())
        self.assertGreater(loop["attempted"], 4)
        self.assertEqual(loop["failed"], loop["attempted"] // 2)
        self.assertTrue(all("input" in p for p in loop["problems"]))

    def test_unparseable_output_counts_as_failed(self):
        class Garbled(workloads.Classify):
            def request(self, nil, i):
                return 0, "not json"

        with tempfile.TemporaryDirectory() as tmp:
            loop = run.closed_loop(nil, Garbled(1, Path(tmp)), 1e-9, None,
                                   calibrate.Calibrator())
        self.assertEqual((loop["attempted"], loop["failed"]), (1, 1))

    def test_exception_counts_as_failed(self):
        class Raising(workloads.Workload):
            name = "raising"
            items_per_request = 3

            def request(self, nil, i):
                raise RuntimeError("boom")

        loop = run.closed_loop(nil, Raising(), 1e-9, None, calibrate.Calibrator())
        self.assertEqual((loop["attempted"], loop["failed"]), (3, 3))


class TestStdoutDigest(unittest.TestCase):
    def test_digest_covers_a_fixed_number_of_inputs(self):
        """A run that stopped early gets the digest of one that went far."""
        with tempfile.TemporaryDirectory() as tmp:
            workload = workloads.Classify(1, Path(tmp))
            workload.pool = 6
            short = run.closed_loop(nil, workload, 1e-9, None, calibrate.Calibrator())
            long = run.closed_loop(nil, workload, 0.3, None, calibrate.Calibrator())
            self.assertLess(len(short["texts"]), len(long["texts"]))
            digests = [run.stdout_digest(nil, workload, loop) for loop in (short, long)]
        self.assertEqual(digests[0], digests[1])
        self.assertEqual(len(short["texts"]), 6)
        self.assertEqual(short["timed_items"], 1)
        self.assertEqual((short["attempted"], short["failed"]), (6, 0))


class TestPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(range(99), 90))
        self.assertEqual(stats.percentile(range(100), 90), 89)
        self.assertIsNone(stats.percentile([1.0] * 5, 50))

    def test_rejects_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile(range(100), 100)


if __name__ == "__main__":
    unittest.main()
