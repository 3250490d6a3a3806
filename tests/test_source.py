"""Mechanical guards on the package source: arithmetic stays exact."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hfroots"
MATH_ALLOWED = {"gcd", "isqrt", "prod"}


def float_uses(tree):
    """(line, what) for every float literal, use of the name `float` and math
    import other than MATH_ALLOWED in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "math":
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in MATH_ALLOWED:
                    yield node.lineno, f"from math import {alias.name}"


def test_package_source_has_no_floats():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package sources under {SRC}"
    found = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in float_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_guard_catches_each_kind():
    source = "x = 0.5\ny = 2j\nz = float(1)\nimport math\nfrom math import gcd, sqrt\n"
    found = sorted(float_uses(ast.parse(source)))
    assert [line for line, _ in found] == [1, 2, 3, 4, 5]
    assert found[-1][1] == "from math import sqrt"
