import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nil.classifier import ForbiddenConfig, GraphFamily, classify, cross_validate
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

from _oracles import random_graph, random_sparse_graph, reference_config_payload, serialize_graph

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

    def test_integers_are_ascii_digits(self):
        # int() alone read `1_0` as 10 and the Arabic-Indic digit two as 2
        for token in ("1_0", "\u0662", "\u00b2", "0x2", "+-2", "2.0"):
            with pytest.raises(GraphFileError, match="line 3: weight must be an integer"):
                parse_graph_text(f"vertices 3\nedge 1 2\nedge 2 3 {token}\n")
            with pytest.raises(GraphFileError, match="line 2: endpoint must be an integer"):
                parse_graph_text(f"vertices 3\nedge {token} 3\n")
            with pytest.raises(GraphFileError, match="line 1: vertex count must be an integer"):
                parse_graph_text(f"vertices {token}\n")
        G = parse_graph_text("vertices +3\nedge 1 2 +2\nedge 2 3 0002\n")
        assert G == build_graph(3, [(1, 2, 2), (2, 3, 2)])

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

    def test_unverified_certificate_carries_its_note(self, f1_file, capsys, monkeypatch):
        import nil.ideal

        monkeypatch.setattr(nil.ideal, "POWER_SEARCH_BUDGET", 0)
        assert main(["classify", f1_file, "--verify"]) == 10
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["verified"] == "unverified"
        assert cert["note"].startswith("power membership search exceeds budget 0")
        # a verified certificate has no note
        monkeypatch.undo()
        assert main(["classify", f1_file, "--verify"]) == 10
        assert "note" not in json.loads(capsys.readouterr().out)["certificate"]

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

    def test_wrong_arity_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        for text, lineno, message in (
            ("vertices 3 4\nedge 1 2\n", 1, "expected: vertices <n>"),
            ("vertices\nedge 1 2\n", 1, "expected: vertices <n>"),
            ("vertices 3\nedge 1\n", 2, "expected: edge <u> <v> [<w>]"),
            ("vertices 3\nedge 1 2 2 5\n", 2, "expected: edge <u> <v> [<w>]"),
        ):
            path.write_text(text)
            assert main(["classify", str(path)]) == 2
            assert capsys.readouterr().err == f"error: line {lineno}: {message}\n"

    def test_non_positive_arguments_exit_two(self, f4_file, capsys):
        for argv, message in (
            (["normality", f4_file, "--box-budget", "0"], "--box-budget must be a positive integer"),
            (["closure", f4_file, "0"], "k must be a positive integer"),
            (["normality", f4_file, "--tmax", "0"], "--tmax must be a positive integer"),
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

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

    def test_integers_past_the_digit_limit_exit_two(self, tmp_path, f4_file, capsys, monkeypatch):
        # int() refuses a string of more than 4,300 digits; the refusal is
        # one short line that gives the length, not the digits
        digits = "9" * 5000
        path = tmp_path / "w.txt"
        path.write_text(f"vertices 2\nedge 1 2 {digits}\n")
        for argv in (["classify", str(path)], ["normality", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr() == (
                "", "error: line 2: weight has 5000 characters, too many digits for an integer\n"
            )
        monkeypatch.setenv("NIL_BOX_BUDGET", digits)
        assert main(["normality", f4_file]) == 2
        assert capsys.readouterr() == (
            "", "error: NIL_BOX_BUDGET has 5000 characters, too many digits for an integer\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["normality", f4_file, "--box-budget", digits])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "5000 characters" in err and "99999" not in err

    def test_box_refusal_is_one_short_line(self, tmp_path, capsys):
        # a volume past the digit limit is written by its size, and a long
        # bounds list by its first 8 entries and its length
        weight = 10**1499
        path = tmp_path / "tri.txt"
        path.write_text(f"vertices 3\nedge 1 2 {weight}\nedge 2 3 {weight}\nedge 1 3 {weight}\n")
        for argv in (["normality", str(path)], ["closure", str(path), "1"]):
            assert main(argv) == 3
            assert capsys.readouterr() == (
                "",
                "error: power t=1: box volume at least 2^14938 exceeds budget 10000000 "
                "(bounds [at least 2^4979, at least 2^4979, at least 2^4979])\n",
            )
        path.write_text("vertices 300\n" + "".join(f"edge {v} 300\n" for v in range(1, 300)))
        assert main(["normality", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: power t=1: box volume at least 2^300 exceeds budget 10000000 "
            "(bounds [1, 1, 1, 1, 1, 1, 1, 1, ... (300 bounds)])\n"
        )

    def test_oversized_input_values_are_quoted_short(self, tmp_path, capsys):
        # an input error quotes the offending value abridged, not whole
        inputs = {
            "w.json": json.dumps({"vertices": 2, "edges": [[1, 2, [0] * 200_000]]}),
            "token.txt": "vertices 2\nedge 1 2 " + "x" * 200_000 + "\n",
            "directive.txt": "vertices 2\n" + "y" * 200_000 + " 1\n",
        }
        for name, text in inputs.items():
            path = tmp_path / name
            path.write_text(text)
            assert main(["classify", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert len(err.encode()) < 200 and "Traceback" not in err
        assert err == "error: line 2: unknown directive 'yyyyyyyyyyyy...yyyyyyyyyyyyy'\n"

    def test_input_errors_write_a_huge_int_by_its_size(self, tmp_path, capsys):
        # the CLI quotes a value by the package's one rule: an int past 64
        # bits is written as a power-of-two bound, also inside a list
        path = tmp_path / "g.json"
        for edges, shown in (
            ([1234567890123456789012345678901], "at least 2^99"),
            ([[1, 2, 3, -(2**200)]], "[1, 2, 3, at most -2^200]"),
        ):
            path.write_text(json.dumps({"vertices": 2, "edges": edges}))
            assert main(["classify", str(path)]) == 2
            assert capsys.readouterr() == (
                "",
                f"error: edge entries must be [u, v] or [u, v, w], got {shown}\n",
            )

    def test_vertex_cap_exits_three(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("vertices 1000000000\nedge 1 2\n")
        assert main(["classify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap" in err

    def test_vertex_cap_bounds_the_neighbour_masks(self, tmp_path, capsys):
        # A star centred at the last label would give every vertex a mask
        # as wide as the graph: the cap of 2^15 vertices bounds all masks
        # at 2^30 bits.  One vertex past it is refused; the cap itself is not.
        path = tmp_path / "star.txt"
        path.write_text("vertices 32769\n" + "".join(f"edge {v} 32769\n" for v in range(1, 32769)))
        assert main(["compact", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: vertex count 32769 exceeds the cap 32768\n"
        path.write_text("vertices 32768\nedge 1 2\n")
        assert main(["classify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["graph"]["vertices"] == 32768

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

    def test_graph_file_integers_exit_two(self, tmp_path, capsys):
        for token in ("1_0", "\u0662"):
            path = tmp_path / "g.txt"
            path.write_text(f"vertices 3\nedge 1 2 1\nedge 2 3 {token}\n", encoding="utf-8")
            assert main(["classify", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: line 3: weight must be an integer")

    @pytest.mark.parametrize(
        "argv",
        [
            ["normality", "F4", "--tmax", "1_0"],
            ["normality", "F4", "--tmax", "\u0662"],
            ["closure", "F4", "\u0661"],
            ["enumerate", "--weights", "\u0661,2"],
            ["enumerate", "--weights", "1, 2"],
            ["enumerate", "--max-vertices", "3_0"],
            ["normality", "F4", "--box-budget", "1_000_000"],
        ],
    )
    def test_integer_arguments_are_ascii_digits(self, argv, f4_file, capsys):
        # the rule of graph files and NIL_BOX_BUDGET: ASCII [+-]?[0-9]+ only
        with pytest.raises(SystemExit) as exc:
            main([f4_file if arg == "F4" else arg for arg in argv])
        assert exc.value.code == 2
        assert "integer" in capsys.readouterr().err

    def test_env_budget_is_ascii_digits(self, f4_file, capsys, monkeypatch):
        for raw in ("1_000_000", "\u0665", " 5", "5 ", ""):
            monkeypatch.setenv("NIL_BOX_BUDGET", raw)
            assert main(["normality", f4_file]) == 2
            assert "NIL_BOX_BUDGET must be a positive integer" in capsys.readouterr().err
        monkeypatch.setenv("NIL_BOX_BUDGET", "+5")
        assert main(["normality", f4_file]) == 3

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

        original = nil.classifier._verdicts

        def flipped(G):
            closed, normal = original(G)
            if G.n == 3 and G.edges == {(1, 2): 1}:
                return closed, not normal
            return closed, normal

        monkeypatch.setattr(nil.classifier, "_verdicts", flipped)
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
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--weights", "0,1"])
        assert exc.value.code == 2
        assert "weights must be positive integers" in capsys.readouterr().err

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
            assert capsys.readouterr().out == json.dumps(
                payloads[-1], indent=2, sort_keys=True, default=reference_config_payload
            ) + "\n"
        assert len(payloads) == len(requests)
        assert [c.kind for c in payloads[0]["configs"]] == ["F5"]
        assert payloads[0]["certificate"]["verified"] == "verified"


class TestRecordWriter:
    """`nil classify` writes its configuration records from their fields;
    the reference is json.dumps over reference_config_payload."""

    @pytest.fixture
    def classify_matches_reference(self, tmp_path, monkeypatch, capsys):
        import nil.cli

        payloads = []
        emit = nil.cli._emit
        monkeypatch.setattr(nil.cli, "_emit", lambda p: (payloads.append(p), emit(p)))

        def check(G, *flags):
            path = tmp_path / "g.txt"
            path.write_text(serialize_graph(G))
            main(["classify", str(path), *flags])
            out = capsys.readouterr().out
            expected = json.dumps(
                payloads[-1], indent=2, sort_keys=True, default=reference_config_payload
            )
            assert out == expected + "\n"
            return json.loads(out)

        return check

    def test_sparse_graphs(self, classify_matches_reference):
        rng = random.Random(107)
        kinds = set()
        pendants = 0
        for _ in range(150):
            G = random_sparse_graph(rng)
            report = classify_matches_reference(G)
            assert report == classify_matches_reference(G, "--no-certificates") | {
                "certificate": report["certificate"]
            }
            kinds.update(c["kind"] for c in report["configs"])
            pendants += sum("pendant" in c for c in report["configs"])
        # F4 records repeat their cycle's rows with each pendant, which in
        # turn recurs in the record's own edges one indent deeper
        assert kinds == {"F1", "F2", "F3", "F4", "F5"}
        assert pendants > 1000

    def test_f5_with_no_connector(self, classify_matches_reference):
        G = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        report = classify_matches_reference(G, "--verify")
        assert [(c["kind"], c["connectors"]) for c in report["configs"]] == [("F5", [])]
        assert report["certificate"]["verified"] == "verified"

    def test_truncated_report(self, classify_matches_reference):
        # a triangle beside a weight-2 star with 46 leaves: C(46, 2) F1s
        # and an F4 for every star edge
        star = [(7, 7 + i, 2) for i in range(1, 47)]
        G = build_graph(53, [(1, 2), (2, 3), (1, 3), *star])
        report = classify_matches_reference(G, "--verify")
        assert report["notes"] == ["F1 list truncated to 1000 of 1035"]
        assert [c["kind"] for c in report["configs"]].count("F4") == 46
        assert report["certificate"]["verified"] == "verified"

    def test_interleaved_shapes(self):
        # One process, one template cache: records of many shapes, written
        # in turn at three depths, each checked against json.dumps.
        def cycle(length, start, weight=1):
            vs = range(start, start + length)
            return [(v, v + 1, weight) for v in vs[:-1]] + [(vs[0], vs[-1], weight)]

        graphs = [
            # F4 on cycles of length 3, 5 and 7, each with a weight-10 pendant
            build_graph(n + 3, cycle(n, 1) + [(n + 2, n + 3, 10)]) for n in (3, 5, 7)
        ] + [
            # F5 with no connector; its weight-12 triangle is an F2 as well
            build_graph(8, cycle(3, 1, 12) + cycle(5, 4)),
            # F5 with three connectors, weights 10, 11 and 13
            build_graph(6, cycle(3, 1) + cycle(3, 4) + [(1, 4, 10), (2, 5, 11), (3, 6, 13)]),
        ]
        records = [c for G in graphs for c in classify(G).found]
        # F5s on cycles 3 + 5 and 5 + 3, and rows split two ways over the
        # same number of ints: equal counts, other shapes
        records += [
            ForbiddenConfig("F5", tuple(range(1, 9)), (), ((1, 2, 3), (4, 5, 6, 7, 8))),
            ForbiddenConfig("F5", tuple(range(1, 9)), (), ((1, 2, 3, 4, 5), (6, 7, 8))),
            ForbiddenConfig("F1", (1, 2, 3), ((1, 2, 10), (2, 3, 11))),
            ForbiddenConfig("F1", (1, 2, 3), ((1, 2), (2, 3, 10, 11))),
            ForbiddenConfig("F4", (1, 2, 3, 4), ((1, 2, 3),), ((1, 2, 3),), pendant=(4, 5)),
        ]
        kinds = [c.kind for c in records]
        assert set(kinds) == {"F1", "F2", "F4", "F5"}
        assert {len(c.cycles[0]) for c in records if c.kind == "F4"} >= {3, 5, 7}
        assert {len(c.connectors) for c in records if c.kind == "F5"} >= {0, 3}
        for doc in [*records, *records[::-1], records, {"configs": records[::2], "k": [records[1]]}]:
            assert _dumps(doc) == json.dumps(
                doc, indent=2, sort_keys=True, default=reference_config_payload
            )

    def test_verified_certificates(self, classify_matches_reference):
        rng = random.Random(109)
        for _ in range(20):
            G = random_graph(rng, n_min=3, n_max=7, weights=(1, 2, 3))
            classify_matches_reference(G, "--verify")
