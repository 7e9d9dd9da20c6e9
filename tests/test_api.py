import ast
from pathlib import Path

import nil

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_resolve():
    for name in nil.__all__:
        assert getattr(nil, name) is not None


def test_version():
    assert nil.__version__


def test_readme_library_example():
    # Run README's "Library example" block statement by statement and check
    # each bare expression against the value its comment states.
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    scan = values.pop("normality_scan(edge_ideal(G), t_max=3)")
    assert (scan.status, scan.t) == ("counterexample", 2)
    assert values == {
        "report.integrally_closed": True,
        "report.normal": False,
        "cert.t, cert.witness": (2, (1, 1, 1, 1, 1)),
        "verify_certificate(G, cert).verified": "verified",
    }
