"""Mechanical guards on the package source: arithmetic stays exact, every
cache is bounded, every module is in use and the public names stay as they
are."""

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


ENTRY_MODULES = {"__init__", "__main__", "cli"}


def orphan_modules(sources: dict) -> list[str]:
    """The modules of a package, given as {name: source}, that no other module
    of it imports by a relative `from` import, anywhere in its source (inside
    functions too, as in `from . import plumbing`), entry points aside."""
    imported = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
                imported.update(t for t in targets if t != name)
    return sorted(set(sources) - imported - ENTRY_MODULES)


def test_every_module_is_imported():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert {"plumbing", "lens", "frozen"} < set(sources)  # both imported only inside cli's functions
    assert orphan_modules(sources) == []


PUBLIC_NAMES = {
    "AlgebraicKnot", "GradedRoot", "InternalInvariantError", "NegContinuedFraction", "NumericalSemigroup",
    "ResourceLimitError", "SpincRun", "SurgerySpec", "compute_run", "compute_runs",
    "dedekind_sum", "from_newton_pairs", "mod_inverse", "module_from_tau", "neg_cfrac", "reduced_rank", "render",
    "root_from_tau",
}


def test_public_names_resolve():
    # the exports are exactly these names, each one bound, and a star import binds them and nothing else
    import hfroots

    assert sorted(hfroots.__all__) == sorted(PUBLIC_NAMES)
    assert [name for name in hfroots.__all__ if not hasattr(hfroots, name)] == []
    namespace = {}
    exec("from hfroots import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == PUBLIC_NAMES
    assert all(namespace[name] is getattr(hfroots, name) for name in PUBLIC_NAMES)


def test_orphan_guard_flags_an_unused_module():
    sources = {
        "__init__": "from .a import f\n",
        "cli": "def main():\n    from . import b\n",
        "a": "from .errors import E\n",
        "b": "from .a import f as g\n",
        "errors": "class E(Exception): pass\n",
        "self_only": "from .self_only import x\n",
        "orphan": "from . import a\n",
    }
    assert orphan_modules(sources) == ["orphan", "self_only"]


LENS_IMPORTS = {"numtheory", "errors"}


def fraction_uses(tree):
    """(line, what) for every import of `fractions` and every mention of the
    name `Fraction` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "fractions":
            yield node.lineno, "fractions"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, f"import {alias.name}") for alias in node.names
                        if alias.name.split(".")[0] == "fractions")
        elif _name(node) == "Fraction":
            yield node.lineno, "Fraction"


def lens_dependencies(tree):
    """(line, what) for every import of a package module other than those in
    LENS_IMPORTS (relative or through `hfroots.`) in a parsed module, and
    every `fraction_uses` of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "hfroots":
                inner = module.removeprefix("hfroots").lstrip(".")
                targets = [inner.split(".")[0]] if inner else [alias.name for alias in node.names]
                yield from ((node.lineno, f"from {t}") for t in targets if t not in LENS_IMPORTS)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "hfroots" and rest.split(".")[0] not in LENS_IMPORTS:
                    yield node.lineno, f"import {alias.name}"
    yield from fraction_uses(tree)


def test_lens_routes_stay_independent():
    # the closed-form shift and the lens recursion check hfcore and the
    # lattice oracle, so they share no code with either, and run in integers
    path = SRC / "lens.py"
    assert list(lens_dependencies(ast.parse(path.read_text(), filename=str(path)))) == []


def test_lens_guard_flags_planted_imports():
    source = (
        "from math import gcd\n"
        "from .errors import InternalInvariantError\n"
        "from .numtheory import dedekind_sum, mod_inverse\n"
        "from .hfcore import grading_shift\n"
        "from fractions import Fraction\n"
        "import fractions\n"
        "from . import root, numtheory\n"
        "from hfroots.plumbing import graph_doc\n"
        "import hfroots.numtheory, hfroots.plumbing\n"
        "x = numtheory.Fraction(1, 2)\n"
    )
    assert sorted(lens_dependencies(ast.parse(source))) == [
        (4, "from hfcore"),
        (5, "fractions"),
        (6, "import fractions"),
        (7, "from root"),
        (8, "from plumbing"),
        (9, "import hfroots.plumbing"),
        (10, "Fraction"),
    ]


def test_no_module_builds_a_fraction():
    # a rational is a reduced (num, den) pair of ints throughout: r_a of a
    # run, s(q, p) and the lattice shift; the writers print each from its
    # two ints, so no module imports fractions or names Fraction
    paths = sorted(SRC.glob("*.py"))
    assert {"cli.py", "numtheory.py", "plumbing.py"} < {path.name for path in paths}
    found = [
        f"{path.name}:{line}: {what}"
        for path in paths
        for line, what in fraction_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_hfcore_imports_neither_check_route():
    # `verify` checks hfcore's r_a against lens.grading_shift_formula and
    # plumbing.lattice_grading_shift, so hfcore loads neither
    path = SRC / "hfcore.py"
    found = {what for _, what in lens_dependencies(ast.parse(path.read_text(), filename=str(path)))}
    assert found & {"from lens", "from plumbing", "import hfroots.lens", "import hfroots.plumbing"} == set()
    assert "from root" in found  # the guard sees hfcore's own package imports


def test_plumbing_imports_neither_formula_route():
    # the lattice oracle checks hfcore's r_a and tau and lens's closed-form
    # shift, so it loads neither: a spin^c class is its index, read into
    # chain digits off the continued fraction alone
    path = SRC / "plumbing.py"
    found = {what for _, what in lens_dependencies(ast.parse(path.read_text(), filename=str(path)))}
    assert found & {"from hfcore", "from lens", "import hfroots.hfcore", "import hfroots.lens"} == set()
    assert "from root" in found  # the guard sees plumbing's own package imports


LAUFER_FORBIDDEN = {"SurgerySpec", "mf", "delta", "floor_sum", "dedekind_sum", "divisorial_cycle", "cfrac"}


def laufer_reads(tree, entry="_laufer_run"):
    """(functions walked, [(function, line, name)]): every module-level
    function or class that `entry` reaches by naming it, directly or through
    others, and each mention in them of a name in LAUFER_FORBIDDEN, as a
    variable, an attribute, a parameter or a keyword."""
    funcs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo, walked, found = [entry], set(), []
    while todo:
        name = todo.pop()
        if name in walked or name not in funcs:
            continue
        walked.add(name)
        for node in ast.walk(funcs[name]):
            ident = _name(node) or getattr(node, "arg", None)
            if ident in LAUFER_FORBIDDEN:
                found.append((name, node.lineno, ident))
            if isinstance(node, ast.Name) and node.id in funcs:
                todo.append(node.id)
    return walked, sorted(found)


def test_laufer_engine_reads_only_the_graph():
    # the lattice route stays independent of the closed formulas: the
    # engine and its helpers never see p/q, mf, delta or the sums behind r_a
    path = SRC / "plumbing.py"
    walked, found = laufer_reads(ast.parse(path.read_text(), filename=str(path)))
    assert {"_laufer_run", "_string", "_string_cycle", "_branch_walk", "_Interior"} <= walked
    assert found == []


def test_laufer_guard_catches_helpers():
    source = (
        "def _laufer_run(g, spec):\n"
        "    return _helper(g) + _other(g, cfrac=1)\n"
        "def _helper(g):\n"
        "    return g.mf + delta\n"
        "def _other(g, SurgerySpec=None, **kw):\n"
        "    return 0\n"
        "def unrelated(knot):\n"
        "    return knot.mf + dedekind_sum(1, 2)\n"
    )
    walked, found = laufer_reads(ast.parse(source))
    assert walked == {"_laufer_run", "_helper", "_other"}
    assert found == [("_helper", 4, "delta"), ("_helper", 4, "mf"), ("_laufer_run", 2, "cfrac"), ("_other", 5, "SurgerySpec")]


def test_laufer_guard_follows_classes():
    # a class the engine names is walked whole, methods and all
    source = (
        "def _laufer_run(g):\n"
        "    return _Walk(g).run()\n"
        "class _Walk:\n"
        "    def run(self):\n"
        "        return self.spec.delta\n"
    )
    walked, found = laufer_reads(ast.parse(source))
    assert walked == {"_laufer_run", "_Walk"}
    assert found == [("_Walk", 5, "delta")]


def test_lattice_shift_reads_only_the_graph():
    # the lattice shift, its checked solve and the class's Laufer run see
    # only the graph and the pairings class_pairings builds on it from the
    # digits; a class reads the continued fraction's digits alone
    path = SRC / "plumbing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    walked, found = laufer_reads(tree, "class_pairings")
    assert "class_pairings" in walked
    assert found == []
    walked, found = laufer_reads(tree, "lattice_grading_shift")
    assert "_k_square" in walked
    assert found == []
    walked, found = laufer_reads(tree, "class_laufer_values")
    assert "_laufer_run" in walked
    assert found == []
    walked, found = laufer_reads(tree, "chain_digits")
    assert "_si_coefficients" in walked
    assert found and {ident for _, _, ident in found} == {"cfrac"}


def test_laufer_guard_catches_helpers_of_the_lattice_shift():
    source = (
        "def lattice_grading_shift(gm, cls):\n"
        "    return _k_square(gm, class_pairings(gm, cls)[1])\n"
        "def class_pairings(gm, cls):\n"
        "    return cls.a_coeffs, gm.euler, cls.spec.mf\n"
        "def _k_square(g, kb):\n"
        "    return g.solve(kb), dedekind_sum(g.n, kb[0])\n"
    )
    walked, found = laufer_reads(ast.parse(source), "lattice_grading_shift")
    assert walked == {"lattice_grading_shift", "class_pairings", "_k_square"}
    assert found == [("_k_square", 6, "dedekind_sum"), ("class_pairings", 4, "mf")]


FORMATTERS = {"str", "format", "repr", "ascii"}
FORMAT_METHODS = {"format", "format_map", "__str__", "__format__", "__repr__"}
BLOCK_WRITERS = ("_tau_piece", "_grade_lists", "_group_blocks", "_run_blocks", "_compute_json")


def _int_repr(node):
    return isinstance(node, ast.Attribute) and node.attr == "__repr__" and _name(node.value) == "int"


def _is_text(node, names):
    """Whether `node` is sure to be a str or to raise TypeError: a str literal,
    an f-string, int.__repr__(...), a join, a sum or choice of those, or a
    name in `names`."""
    if isinstance(node, ast.Constant):
        return type(node.value) is str
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.Call):
        return _int_repr(node.func) or isinstance(node.func, ast.Attribute) and node.func.attr == "join"
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Add) and _is_text(node.left, names) and _is_text(node.right, names)
    if isinstance(node, ast.IfExp):
        return _is_text(node.body, names) and _is_text(node.orelse, names)
    return isinstance(node, ast.Name) and node.id in names


def formatted_values(func):
    """(line, what) for every way `func` could print a value other than by
    int.__repr__: a use of str, format, repr or ascii; a format method or a
    __repr__ other than int's; a % on text; and an f-string field that is neither
    int.__repr__(...) nor a name bound only to text (`_is_text`)."""
    body = [node for stmt in func.body for node in ast.walk(stmt)]  # not the annotations
    bound: dict = {}
    for node in body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        # a tuple target unpacks a value that is not known to be text
                        bound.setdefault(name.id, []).append(node.value if target is name else None)
    text = set(bound)
    while True:  # keep the names whose every binding is text, given the others
        kept = {n for n in text if all(v is not None and _is_text(v, text) for v in bound[n])}
        if kept == text:
            break
        text = kept
    for node in body:
        if isinstance(node, ast.Name) and node.id in FORMATTERS:
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in FORMAT_METHODS and not _int_repr(node):
            yield node.lineno, f"attribute {node.attr}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and _is_text(node.left, text):
            yield node.lineno, "% on text"
        elif isinstance(node, ast.FormattedValue):
            value = node.value
            if node.conversion != -1 or node.format_spec is not None:
                yield node.lineno, "f-string conversion or format spec"
            elif not (isinstance(value, ast.Call) and _int_repr(value.func)
                      or isinstance(value, ast.Name) and value.id in text):
                yield node.lineno, f"f-string field {ast.unparse(value)}"


def test_spinc_block_writer_prints_ints_only_by_int_repr():
    # a Fraction, float or bool that reached a compute document through the
    # class-block template would be printed unquoted; int.__repr__ refuses
    # the first two, and the writer's type check the third
    path = SRC / "cli.py"
    funcs = {node.name: node for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, ast.FunctionDef)}
    assert set(BLOCK_WRITERS) <= set(funcs)
    found = [f"{name}:{line}: {what}" for name in BLOCK_WRITERS for line, what in formatted_values(funcs[name])]
    assert found == []


def test_block_writer_guard_catches_each_form():
    source = (
        "def w(res: str, n) -> str:\n"
        "    head = int.__repr__(res.a) + '/'\n"
        "    items = ', '.join(map(int.__repr__, res.tau))\n"
        "    x, y = res.a, res.b\n"
        "    z = res.c if n else 'none'\n"
        "    loop = head\n"
        "    loop = loop + res.d\n"
        "    ok = f'{head}{items}{int.__repr__(n % 2)}'\n"
        "    bad = f'{res.a}{x}{z}{loop}'\n"
        "    fmt = f'{head!r}{items:>4}'\n"
        "    return str(n) + '{}'.format(n) + '%d' % n + repr(n) + ''.join(map(format, res)) + n.__str__()\n"
    )
    found = sorted(formatted_values(ast.parse(source).body[0]))
    assert found == [
        (9, "f-string field loop"),
        (9, "f-string field res.a"),
        (9, "f-string field x"),
        (9, "f-string field z"),
        (10, "f-string conversion or format spec"),
        (10, "f-string conversion or format spec"),
        (11, "% on text"),
        (11, "attribute __str__"),
        (11, "attribute format"),
        (11, "name format"),
        (11, "name repr"),
        (11, "name str"),
    ]


RENDERERS = ("_layout", "render")


def true_divisions(func):
    """(line, what) for every `/` and `/=` in a parsed function: an int / int
    makes a float, which the float guard above cannot see."""
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, ast.unparse(node)


def test_renderers_never_divide():
    # positions are ints or Fractions built by Fraction(num, den); every
    # coordinate is floored by //
    path = SRC / "root.py"
    funcs = {node.name: node for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, ast.FunctionDef)}
    assert set(RENDERERS) <= set(funcs)
    assert [f"{name}:{line}: {what}" for name in RENDERERS for line, what in true_divisions(funcs[name])] == []


def test_division_guard_catches_each_form():
    source = (
        "def _layout(root):\n"
        "    xs = [pos[c] for c in kids]\n"
        "    mean = sum(xs) / len(xs)\n"
        "    mean /= 2\n"
        "    ok = Fraction(sum(xs), len(xs)) + 7 // 2\n"
        "    return [int(48 * p / q) for p, q in xs]\n"
    )
    assert sorted(true_divisions(ast.parse(source).body[0])) == [
        (3, "sum(xs) / len(xs)"),
        (4, "mean /= 2"),
        (6, "48 * p / q"),
    ]
