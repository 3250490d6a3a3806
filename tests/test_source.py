"""Mechanical guards on the package source: arithmetic stays exact and every
cache is bounded."""

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


def _name(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def unbounded_caches(tree):
    """(line, what) for every lru_cache without an explicit maxsize other than
    None, and every import or attribute use of functools.cache."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            size = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if not size:
                yield node.lineno, "lru_cache without maxsize"
            elif isinstance(size[0], ast.Constant) and size[0].value is None:
                yield node.lineno, "lru_cache with maxsize None"
        elif _name(node) == "lru_cache" and id(node) not in called:
            yield node.lineno, "bare lru_cache"
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and _name(node.value) == "functools":
            yield node.lineno, "functools.cache"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno, "from functools import cache"


def test_every_lru_cache_is_bounded():
    paths = sorted(SRC.glob("*.py"))
    found = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in unbounded_caches(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    assert any("lru_cache(maxsize=" in path.read_text() for path in paths)


def test_cache_guard_catches_each_form():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache\ndef a(): pass\n"
        "@lru_cache()\ndef b(): pass\n"
        "@lru_cache(maxsize=None)\ndef c(): pass\n"
        "@functools.lru_cache(None, typed=True)\ndef d(): pass\n"
        "@functools.cache\ndef e(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef ok(): pass\n"
        "@lru_cache(16)\ndef ok2(): pass\n"
        "@lru_cache(maxsize=SIZE)\ndef ok3(): pass\n"
    )
    found = sorted(unbounded_caches(ast.parse(source)))
    assert found == [
        (2, "from functools import cache"),
        (3, "bare lru_cache"),
        (5, "lru_cache without maxsize"),
        (7, "lru_cache with maxsize None"),
        (9, "lru_cache with maxsize None"),
        (11, "functools.cache"),
    ]
