import dataclasses
import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nil.classifier import GraphFamily, cross_validate
from nil.cli import (
    _dumps,
    build_parser,
    main,
    parse_graph_file,
    parse_graph_json,
    parse_graph_text,
)
from nil.errors import GraphError, GraphFileError
from nil.wgraph import build_graph

from _oracles import random_graph, serialize_graph

F1_TEXT = "vertices 3\nedge 1 2 2\nedge 2 3 2\n"
F4_TEXT = "vertices 5\nedge 1 2\nedge 2 3\nedge 1 3\nedge 4 5 2\n"


@pytest.fixture
def f1_file(tmp_path):
    path = tmp_path / "f1.txt"
    path.write_text(F1_TEXT)
    return str(path)


@pytest.fixture
def f4_file(tmp_path):
    path = tmp_path / "f4.txt"
    path.write_text(F4_TEXT)
    return str(path)


class TestParsing:
    def test_text_example(self):
        G = parse_graph_text("vertices 3\nedge 1 2 2\nedge 2 3 3")
        assert G == build_graph(3, [(1, 2, 2), (2, 3, 3)])

    def test_default_weight_and_comments(self):
        text = "# a path\nvertices 3\n\nedge 1 2   # weight defaults to 1\nedge 2 3 4\n"
        G = parse_graph_text(text)
        assert G.weight(1, 2) == 1
        assert G.weight(2, 3) == 4

    def test_edge_before_header(self):
        with pytest.raises(GraphFileError, match="line 1"):
            parse_graph_text("edge 1 2 2")

    def test_missing_header(self):
        with pytest.raises(GraphFileError, match="vertices"):
            parse_graph_text("# nothing\n")

    def test_duplicate_header(self):
        with pytest.raises(GraphFileError, match="line 2: duplicate"):
            parse_graph_text("vertices 2\nvertices 2")

    def test_unknown_directive(self):
        with pytest.raises(GraphFileError, match="line 2: unknown directive"):
            parse_graph_text("vertices 2\nnode 1")

    def test_bad_integer(self):
        with pytest.raises(GraphFileError, match="line 2"):
            parse_graph_text("vertices 2\nedge 1 two")

    def test_validation_surfaced(self):
        with pytest.raises(GraphError, match="self-loop"):
            parse_graph_text("vertices 2\nedge 1 1")

    def test_json_example(self):
        G = parse_graph_json('{"vertices": 3, "edges": [[1, 2, 2], [2, 3]]}')
        assert G == build_graph(3, [(1, 2, 2), (2, 3, 1)])

    def test_json_errors(self):
        with pytest.raises(GraphFileError, match="invalid JSON"):
            parse_graph_json("{")
        with pytest.raises(GraphFileError, match="vertices"):
            parse_graph_json('{"edges": []}')
        with pytest.raises(GraphFileError, match="edge entries"):
            parse_graph_json('{"vertices": 2, "edges": [[1]]}')
        with pytest.raises(GraphFileError, match='"edges" must be a list'):
            parse_graph_json('{"vertices": 3, "edges": 5}')
        with pytest.raises(GraphFileError, match='"vertices" must be an integer'):
            parse_graph_json('{"vertices": true, "edges": []}')
        with pytest.raises(GraphError, match="endpoints must be integers"):
            parse_graph_json('{"vertices": 3, "edges": [[1, true, 2]]}')
        with pytest.raises(GraphError, match="weights must be integers"):
            parse_graph_json('{"vertices": 3, "edges": [[1, 2, true]]}')

    def test_format_detection(self, tmp_path):
        G = build_graph(4, [(1, 2, 2), (3, 4, 5)])
        text_path = tmp_path / "g.txt"
        json_path = tmp_path / "g.json"
        text_path.write_text(serialize_graph(G, "text"))
        json_path.write_text(serialize_graph(G, "json"))
        assert parse_graph_file(text_path) == G
        assert parse_graph_file(json_path) == G
        assert parse_graph_file(json_path, fmt="json") == G

    def test_round_trip_random(self):
        rng = random.Random(131)
        for _ in range(100):
            G = random_graph(rng, n_min=1, n_max=10, weights=(1, 2, 3, 4, 5))
            assert parse_graph_text(serialize_graph(G, "text")) == G
            assert parse_graph_json(serialize_graph(G, "json")) == G


class TestExitCodes:
    def test_normal_graph_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "c4.txt"
        path.write_text("vertices 4\nedge 1 2\nedge 2 3\nedge 3 4\nedge 1 4\n")
        assert main(["classify", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["normal"] and payload["integrally_closed"]

    def test_not_closed_exits_ten(self, f1_file, capsys):
        assert main(["classify", f1_file, "--verify"]) == 10
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["witness"] == [1, 2, 1]
        assert payload["certificate"]["t"] == 1
        assert payload["certificate"]["verified"] == "verified"

    def test_closed_not_normal_exits_eleven(self, f4_file, capsys):
        assert main(["classify", f4_file, "--verify"]) == 11
        payload = json.loads(capsys.readouterr().out)
        assert payload["integrally_closed"] and not payload["normal"]
        assert payload["certificate"]["t"] == 2

    def test_input_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("edge 1 2\n")
        assert main(["classify", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err
        for text in (
            '{"vertices": 3, "edges": 5}',
            '{"vertices": true, "edges": []}',
            '{"vertices": 3, "edges": [[1, true, 2]]}',
        ):
            path = tmp_path / "bad.json"
            path.write_text(text)
            assert main(["classify", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_undecodable_input_exits_two(self, tmp_path, capsys):
        for name, data in (
            ("bad.txt", b"vertices 2\nedge 1 2 \xff\n"),
            ("deep.json", b"[" * 100_000 + b"]" * 100_000),
            ("digits.json", b'{"vertices": ' + b"1" * 5000 + b', "edges": []}'),
        ):
            path = tmp_path / name
            path.write_bytes(data)
            assert main(["classify", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_vertex_cap_exits_three(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("vertices 1000000000\nedge 1 2\n")
        assert main(["classify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap" in err

    def test_long_cycle_classifies(self, tmp_path, capsys):
        n = 1500
        path = tmp_path / "c1500.txt"
        path.write_text(
            f"vertices {n}\n" + "".join(f"edge {v} {v % n + 1}\n" for v in range(1, n + 1))
        )
        assert main(["classify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["normal"]

    def test_many_vertices_oracle_commands(self, tmp_path, capsys):
        path = tmp_path / "p3.txt"
        path.write_text("vertices 1200\nedge 1 2\nedge 2 3\n")
        assert main(["normality", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "normal_up_to"
        assert main(["closure", str(path), "1"]) == 0
        assert json.loads(capsys.readouterr().out)["integrally_closed"]

    def test_untouched_vertices_stay_out_of_the_lp(self, tmp_path, capsys):
        # One LP row per declared vertex made this take about 80 s.
        path = tmp_path / "p3_heavy.txt"
        path.write_text("vertices 5000\nedge 1 2 1\nedge 2 3 2\n")
        assert main(["normality", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "normal_up_to"

    def test_missing_file_exits_two(self, capsys):
        assert main(["classify", "/nonexistent/graph.txt"]) == 2

    def test_budget_exceeded_exits_three(self, f4_file, capsys):
        assert main(["normality", f4_file, "--box-budget", "5"]) == 3
        assert "budget 5" in capsys.readouterr().err

    def test_env_budget_override(self, f4_file, capsys, monkeypatch):
        monkeypatch.setenv("NIL_BOX_BUDGET", "5")
        assert main(["normality", f4_file]) == 3
        capsys.readouterr()
        monkeypatch.setenv("NIL_BOX_BUDGET", "junk")
        assert main(["normality", f4_file]) == 2

    def test_commands_without_a_scan_ignore_the_budget(self, f1_file, capsys, monkeypatch):
        monkeypatch.setenv("NIL_BOX_BUDGET", "junk")
        assert main(["classify", f1_file]) == 10
        assert main(["classify", f1_file, "--verify"]) == 10
        capsys.readouterr()
        for command in ("classify", "compact"):
            with pytest.raises(SystemExit) as exc:
                main([command, f1_file, "--box-budget", "1"])
            assert exc.value.code == 2

    def test_flag_beats_env(self, f4_file, capsys, monkeypatch):
        monkeypatch.setenv("NIL_BOX_BUDGET", "5")
        assert main(["normality", f4_file, "--box-budget", "1000000"]) == 0

    def test_enumerate_too_few_vertices_exits_two(self, capsys):
        for max_vertices in ("1", "0", "-3"):
            assert main(["enumerate", "--max-vertices", max_vertices]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--max-vertices" in err


class TestCommands:
    def test_classify_no_certificates(self, f1_file, capsys):
        assert main(["classify", f1_file, "--no-certificates"]) == 10
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] is None
        assert payload["configs"]

    def test_closure_difference(self, f1_file, capsys):
        assert main(["closure", f1_file, "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["difference"] == [[1, 2, 1]]
        assert payload["closure_generators"] == [[0, 2, 2], [1, 2, 1], [2, 2, 0]]
        assert not payload["integrally_closed"]

    def test_closure_of_single_edge_square(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("vertices 2\nedge 1 2\n")
        assert main(["closure", str(path), "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["difference"] == []
        assert payload["closure_generators"] == payload["power_generators"] == [[2, 2]]

    def test_closure_builds_the_power_once(self, f4_file, capsys, power_calls):
        assert main(["closure", f4_file, "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["difference"] == [[1, 1, 1, 1, 1]]
        assert power_calls == [2]

    def test_closure_box_refused_before_the_power(self, f4_file, capsys, power_calls):
        assert main(["closure", f4_file, "10000"]) == 3
        assert "power t=10000: box volume" in capsys.readouterr().err
        assert power_calls == []

    def test_closure_f3_contains_all_ones(self, tmp_path, capsys):
        path = tmp_path / "f3.txt"
        path.write_text("vertices 4\nedge 1 2 2\nedge 3 4 2\n")
        assert main(["closure", str(path), "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [1, 1, 1, 1] in payload["difference"]

    def test_normality_counterexample(self, tmp_path, capsys):
        path = tmp_path / "tt.txt"
        path.write_text(
            "vertices 6\nedge 1 2\nedge 2 3\nedge 1 3\nedge 4 5\nedge 5 6\nedge 4 6\n"
        )
        assert main(["normality", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "counterexample"
        assert payload["t"] == 3
        assert payload["witness"] == [1, 1, 1, 1, 1, 1]

    def test_normality_bounded_verdict(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("vertices 3\nedge 1 2 5\nedge 2 3\nedge 1 3\n")
        assert main(["normality", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "normal_up_to"
        assert payload["t"] == 3
        assert "does not prove" in payload["note"]

    def test_compact(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("vertices 3\nedge 1 2\nedge 2 3\nedge 1 3\n")
        assert main(["compact", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"stems": [1], "tag": "bouquet"}

    def test_compact_rejects_leaf_distinctly(self, tmp_path, capsys):
        path = tmp_path / "leafy.txt"
        path.write_text("vertices 4\nedge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\n")
        assert main(["compact", str(path)]) == 2
        assert "leaf" in capsys.readouterr().err
        path.write_text("vertices 4\nedge 1 2\nedge 3 4\n")
        assert main(["compact", str(path)]) == 2
        assert "disconnected" in capsys.readouterr().err

    def test_enumerate_small(self, capsys):
        code = main(
            ["enumerate", "--max-vertices", "3", "--weights", "1,2", "--tmax", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graphs_checked"] == 28
        assert payload["disagreements"] == []
        assert payload["skipped"] == []

    def test_enumerate_trivial_weights_all_normal(self, capsys):
        # with weight 1 everywhere and at most 3 vertices no configuration fits
        assert main(["enumerate", "--max-vertices", "3", "--weights", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["normal_classes"] == payload["classes_checked"]
        assert payload["disagreements"] == []

    def test_enumerate_four_vertices(self, capsys):
        code = main(
            ["enumerate", "--max-vertices", "4", "--weights", "1,2", "--tmax", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graphs_checked"] == 2 + 26 + 728
        assert payload["disagreements"] == []

    def test_enumerate_respects_safety_cap(self, capsys):
        # The family is counted one vertex count at a time, up to the first
        # over the budget: 140 once overflowed int-to-str conversion, and
        # 3000 ran for minutes.
        for max_vertices in ("7", "140", "3000"):
            assert main(["enumerate", "--max-vertices", max_vertices]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "budget" in err

    def test_enumerate_fails_on_a_disagreement(self, monkeypatch, capsys):
        # Negative control: flip the verdict of one relabelled graph (the
        # edge 1-2 on three vertices; its class representative is 2-3).
        import nil.classifier

        original = nil.classifier.classify

        def flipped(G):
            report = original(G)
            if G.n == 3 and G.edges == {(1, 2): 1}:
                return dataclasses.replace(report, normal=not report.normal)
            return report

        monkeypatch.setattr(nil.classifier, "classify", flipped)
        report = cross_validate(GraphFamily(3, (1,)), t_max=1)
        assert [d["issue"] for d in report.disagreements] == [
            "verdicts differ from canonical relabeling"
        ]
        assert report.disagreements[0]["graph"] == {"vertices": 3, "edges": [[1, 2, 1]]}
        assert main(["enumerate", "--max-vertices", "3", "--weights", "1", "--tmax", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        [entry] = payload["disagreements"]
        assert entry["issue"] == "verdicts differ from canonical relabeling"
        assert entry["labeled"] != entry["canonical"]

    def test_weights_argument_validation(self, capsys):
        with pytest.raises(SystemExit):
            main(["enumerate", "--weights", "1,x"])

    def test_enumerate_reports_the_family_it_checked(self, capsys):
        # GraphFamily sorts the weights and drops repeats; the report names
        # that family, so both spellings give the same bytes
        outputs = []
        for weights in ("2,1,1", "1,2"):
            assert main(["enumerate", "--max-vertices", "3", "--weights", weights, "--tmax", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert json.loads(outputs[0])["family"] == {"max_vertices": 3, "weights": [1, 2]}
        assert outputs[0] == outputs[1]


class TestDeterminism:
    def test_byte_for_byte_stable(self, f4_file, capsys):
        main(["classify", f4_file, "--verify"])
        first = capsys.readouterr().out
        main(["classify", f4_file, "--verify"])
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # valid JSON

    def test_enumerate_stable(self, capsys):
        main(["enumerate", "--max-vertices", "3", "--weights", "1,2"])
        first = capsys.readouterr().out
        main(["enumerate", "--max-vertices", "3", "--weights", "1,2"])
        second = capsys.readouterr().out
        assert first == second

    def test_one_parser_serves_every_request(self, f1_file, capsys):
        requests = [
            ["closure", f1_file],  # no k: a usage error
            ["classify", f1_file, "--verify"],
            ["closure", f1_file, "2"],
            ["normality", f1_file],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        build_parser.cache_clear()
        shared = [run(argv) for argv in requests]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in requests:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, _ in shared] == [2, 10, 0, 0]


@st.composite
def _graphs(draw):
    """(n, edges): distinct (u, v, w) edges on 1..n, n <= 12, w in 1..3."""
    n = draw(st.integers(min_value=2, max_value=12))
    vertex = st.integers(min_value=1, max_value=n)
    pairs = draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=20,
            unique_by=frozenset,
        )
    )
    return n, [(u, v, draw(st.integers(min_value=1, max_value=3))) for u, v in pairs]


# a stray line: an edge that may be out of range, a loop, weight 0, or junk
_TEXT_LINE = st.one_of(
    st.tuples(
        st.integers(min_value=-1, max_value=13),
        st.integers(min_value=-1, max_value=13),
        st.integers(min_value=0, max_value=3),
    ).map(lambda e: "edge %d %d %d" % e),
    st.text(max_size=12),
)
_TEXT_FILES = st.tuples(_graphs(), st.lists(_TEXT_LINE, max_size=2)).map(
    lambda case: "\n".join(
        [f"vertices {case[0][0]}"]
        + [f"edge {u} {v} {w}" for u, v, w in case[0][1]]
        + case[1]
    ).encode()
)

_JSON_VALUES = st.recursive(
    st.one_of(
        st.integers(min_value=-1, max_value=13),
        st.booleans(),
        st.floats(),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
_JSON_FILES = st.one_of(
    _graphs().map(lambda g: {"vertices": g[0], "edges": [list(e) for e in g[1]]}),
    st.fixed_dictionaries({"vertices": _JSON_VALUES, "edges": _JSON_VALUES}),
    _JSON_VALUES,
).map(lambda doc: json.dumps(doc).encode())

_GRAPH_FILES = st.one_of(
    st.tuples(st.sampled_from([".txt", ".json"]), st.binary(max_size=200)),
    st.tuples(st.just(".txt"), _TEXT_FILES),
    st.tuples(st.just(".json"), _JSON_FILES),
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_GRAPH_FILES)
    def test_classify_exits_cleanly(self, case):
        # any file ends in a report or a clean input/budget error, never a raise
        suffix, data = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph" + suffix)
            with open(path, "wb") as fh:
                fh.write(data)
            assert main(["classify", path]) in {0, 2, 3, 10, 11}


# Strings mix any code point with surrogates and control characters, which
# json.dumps escapes.
_CHARS = st.one_of(
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
    st.characters(max_codepoint=0x1F),
)
_STRINGS = st.text(_CHARS, max_size=6)
_INTS = st.one_of(st.integers(), st.integers(min_value=-(2**80), max_value=2**80))
_DOCS = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        _INTS,
        _STRINGS,
        # the encoder joins lists of exact ints; a bool among them is not one
        st.lists(st.one_of(_INTS, st.booleans()), max_size=5),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=4),
    ),
    max_leaves=20,
)


class TestEncoder:
    @settings(max_examples=500, deadline=None)
    @given(_DOCS)
    @example({"a": [1, True, 0, False], "b": (), "c": {}, "d": [[]], "\ud800\x00é": None})
    @example([-(2**70), 2**70, 0])
    def test_matches_json_dumps(self, doc):
        assert _dumps(doc) + "\n" == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_every_report_matches_json_dumps(self, tmp_path, monkeypatch, capsys):
        import nil.cli

        # two triangles joined by a weight-2 edge: F5, with a connector
        f5_file = tmp_path / "f5.txt"
        f5_file.write_text(
            "vertices 6\nedge 1 2\nedge 2 3\nedge 1 3\nedge 4 5\nedge 5 6\nedge 4 6\nedge 1 4 2\n"
        )
        f1_file = tmp_path / "f1.txt"
        f1_file.write_text(F1_TEXT)
        requests = [
            ["classify", str(f5_file), "--verify"],
            ["classify", str(f1_file), "--no-certificates"],
            ["closure", str(f1_file), "2"],
            ["normality", str(f5_file), "--tmax", "1"],
            ["normality", str(f1_file)],
            ["compact", str(f5_file)],
            ["enumerate", "--max-vertices", "3", "--weights", "1,2", "--tmax", "1"],
        ]
        payloads = []
        emit = nil.cli._emit
        monkeypatch.setattr(nil.cli, "_emit", lambda p: (payloads.append(p), emit(p)))
        for argv in requests:
            main(argv)
            assert capsys.readouterr().out == json.dumps(payloads[-1], indent=2, sort_keys=True) + "\n"
        assert len(payloads) == len(requests)
        assert [c["kind"] for c in payloads[0]["configs"]] == ["F5"]
        assert payloads[0]["certificate"]["verified"] == "verified"
