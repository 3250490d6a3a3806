"""Command line interface: `hfroots knot|compute|verify`.

The surgery coefficient is entered as a positive fraction P/Q and always
means the negative coefficient -P/Q; a P with a minus sign (`--surgery -3/2`,
`--lens=-5/2`) exits 1 with that rule.  A rational is a pair of ints in
lowest terms, as the package returns it, and is printed exactly; in JSON it
is a "numerator/denominator" string, never a float.  A grade r_a + g is
written from the two ints of r_a = N/D and the integer g (`root.grade_text`
in text).
Documents have the bytes of json.dumps(doc, indent=2): `_json` writes every
`knot` and `verify` document and the head of a `compute` one, and rejects
any value but dict, list, str, int, bool and None.  `compute` and `verify`
take the formula side as runs of equal tau (`hfcore.compute_runs` for
`--spinc all`, with the ker U rank identity checked before any output, and
`hfcore.compute_run` for `--spinc N`), and every writer works one run at a
time; no writer builds a per-class object.  A `compute` document's classes
are written from their integers: one `_tau_piece` per run holds the tau
text, the sorted ker/coker offsets and the grouped finite towers, and
`_group_blocks` writes the classes of the run with one denominator D of r_a
with the group's fixed text once and each slot that depends on r_a (a, N,
each N + g D, sw) as one column; a grade list is a column per grade when the
group has at least as many classes as grades, else one text per class.  An
int slot holding anything but an int raises TypeError.  The text writer
writes the tau line, the grouped towers and the sorted offsets once per run.
`--format svg --spinc all` draws one root per run (`root.render`) and
writes its text to the file of every class of the run before drawing the
next.  Every document is built whole before any of it is written; a
regular or new `--out` file gets it through a temporary file written beside
it and renamed over it once complete (`_emit`), so a fault partway leaves
the old file, or none, and no temporary.  Under `--format svg --spinc all` the files of the classes
already written stay, each complete.  Output is deterministic byte for
byte; timings go to stderr (HFROOTS_LOG=debug|info), never into the
document.  Only `verify` loads the lattice oracle
(`plumbing`) and the closed-form routes (`lens`); `verify --lens` loads
`lens` alone, compares its two routes' integer numerators cross-multiplied
to one denominator and writes each value reduced by one gcd.  `verify`
checks each class's closed-form shift against r_a = N/D by an integer
identity over 2p and its lattice shift, a reduced pair, against (N, D), and
writes each shift as n/d where a class disagrees; it builds the "graphs"
blocks and the rest of a document only under `--format json`.  Its formula side is
computed before it builds any graph, so an index outside [0, p) is refused
first; it then loops over the runs and, in each, over the classes, building
each class's chain digits and pairings one class at a time and the formula
root of `--oracle sublevel|both` once per run.
`verify` runs the Laufer sequence of the resolution graph once per
surgery and only the surgery chain per class; a class whose check fails
also gets the values that differ ("shifts",
"laufer_first_diff" at the first differing tau index, and
"sublevel_first_diff" at the lowest level where the two roots differ).  A
sublevel set that leaves its enumeration is an internal fault (exit 3).

The command line is read against one table, `_COMMANDS`: per command its
handler and, per flag, a default (or required) and the values it takes.  A
flag's value is the next argument or the text after '=', whatever its first
character (`--newton -2,3` reaches the Newton pair check, `--out -x.json`
names a file).  A flag given twice, an unknown or abbreviated flag, a flag
with no value or an empty one, a value outside its choices or a missing
required flag is a usage error; -h or --help prints a fixed usage text.

Exit codes: 0 ok, 1 input error (usage errors included), 2 verification
mismatch, 3 internal invariant failure, 4 resource limit reached (the Laufer
step cap per engine run, the sublevel point cap or the semigroup table cap).
"""

from __future__ import annotations

import os
import sys
import time
from errno import EACCES
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from operator import eq
from stat import S_IMODE, S_ISREG
from types import SimpleNamespace

from . import hfcore
from .errors import InternalInvariantError, ResourceLimitError
from .knot import AlgebraicKnot, from_newton_pairs
from .root import grade_text, grouped, module_text, render, root_from_tau


def _info(message: str) -> None:
    """An `hfroots INFO` line on stderr if HFROOTS_LOG (read per call) is info or debug."""
    if os.environ.get("HFROOTS_LOG", "").lower() in ("info", "debug"):
        print(f"hfroots INFO {message}", file=sys.stderr)


def _json(obj, indent: str = "") -> str:
    """obj as json.dumps(obj, indent=2) writes it, for documents made only of
    dicts with str keys, lists, str, int, bool and None.

    Anything else raises TypeError, so no float or Fraction can reach a
    document.  Strings go through the C string encoder of `json`.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = indent + "  "
    if kind is list:
        if not obj:
            return "[]"
        items = [_json(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict:
        if not obj:
            return "{}"
        items = [_key(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _key(k) -> str:
    if type(k) is not str:
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return _quote(k)


def _pretty_poly(coeffs) -> str:
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            term = str(mag)
        elif e == 1:
            term = "t" if mag == 1 else f"{mag}*t"
        else:
            term = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


def _int(text: str) -> int:
    """The integer of an optional '-' and ASCII digits 0-9, for --newton,
    --surgery, --lens and --spinc.  int() alone would also take '+', '_',
    spaces and non-ASCII digits; any of them raises ValueError here."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_newton(text: str) -> AlgebraicKnot:
    try:
        nums = [_int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--newton expects a comma list of integers, got {text!r}")
    if len(nums) % 2 != 0 or not nums:
        raise ValueError("--newton expects an even number of integers p1,q1[,p2,q2,...]")
    return from_newton_pairs(list(zip(nums[0::2], nums[1::2])))


def _parse_fraction(text: str, flag: str) -> tuple[int, int]:
    """(P, Q) from the text P or P/Q of --surgery or --lens.  A negative P gets
    the sign rule; other ranges are checked where the pair is used."""
    parts = text.split("/")
    try:
        p, q = (_int(parts[0]), 1) if len(parts) == 1 else map(_int, parts)  # three parts fail to unpack
    except ValueError:
        raise ValueError(f"{flag} expects P or P/Q, got {text!r}") from None
    if p < 0:
        raise ValueError(f"{flag} takes the coefficient as a positive P/Q, which means -P/Q; got {text!r}")
    return p, q


# ---------------------------------------------------------------------------
# report document builders
# ---------------------------------------------------------------------------


def _knot_block(knot: AlgebraicKnot) -> dict:
    return {
        "newton_pairs": [list(p) for p in knot.newton_pairs],
        "linking_pairs": [list(p) for p in knot.linking_pairs],
        "delta": knot.delta,
        "mu": knot.mu,
        "mf": knot.mf,
        "semigroup_generators": list(knot.semigroup.generators),
        "gaps": list(knot.gaps),
        "alpha": list(knot.alpha),
        "alexander": list(knot.alexander),
    }


def _surgery_block(spec: hfcore.SurgerySpec) -> dict:
    p, q = spec.p, spec.q
    return {"p": p, "q": q, "coefficient": f"-{p}/{q}", "continued_fraction": list(spec.cfrac.terms)}


_ITEM = ",\n        "  # between two items of a list in a spin^c block
_TOWER = ',\n          {\n            "grade": "'  # from the end of a finite tower to the next grade


def _only_ints(kinds: set) -> None:
    """Raise TypeError unless every type in `kinds` is int."""
    if kinds != {int}:
        raise TypeError("a spin^c block holds only ints, not " + " or ".join(k.__name__ for k in kinds - {int}))


def _tau_piece(run: hfcore.SpincRun) -> tuple:
    """What the blocks of a run share, all functions of its tau: the tau
    text, the sorted grade offsets of ker U and coker U, the grouped finite
    towers (g, length, multiplicity), the tower offset 2 min tau and the
    alpha sum.  Each is checked to be an int, so a Fraction, float or bool
    raises TypeError here.
    """
    kinds = {*map(type, run.tau), type(run.tower), type(run.alpha_sum)}
    for column in zip(*run.towers):  # the grades, then the lengths
        kinds.update(map(type, column))
    _only_ints(kinds)
    tau = _ITEM.join(map(int.__repr__, run.tau))
    return tau, run.ker, run.coker, grouped(run.towers), run.tower, run.alpha_sum


def _grade_lists(nums, den: int, offsets, links) -> list[str]:
    """Per N of `nums`, the ints N + g D for g in `offsets` with `links`
    between them, the i-th after the i-th int: one text per class.  A group
    with at least as many classes as grades is written a column per grade
    and joined per class; a longer list, one class at a time."""
    if len(nums) < len(offsets):
        texts, column = [""] * (2 * len(offsets) - 1), []
        texts[1::2] = links
        for n in nums:
            texts[::2] = map(int.__repr__, [n + g * den for g in offsets])
            column.append("".join(texts))
        return column
    columns = [map(int.__repr__, map((g * den).__add__, nums)) for g in offsets]
    if len(columns) < 2:  # no link to join
        return [*columns[0]] if columns else [""] * len(nums)
    slots = [None] * (2 * len(columns) - 1)
    slots[::2], slots[1::2] = columns, map(repeat, links)
    return [*map("".join, zip(*slots))]


def _group_blocks(piece: tuple, depth: int, den: int, a, nums) -> list[str]:
    """The blocks (`tests/oracles.py::spinc_block` through `_json` at indent 4)
    of the classes `a` of one run, which share the tau of `piece`, t_a =
    `depth` and the denominator D = `den` of r_a = N/D, N in `nums`.  They
    differ only in a, N, the grades N + g D over D (d = r_a + 2 min tau is
    the tower grade) and sw = r_a/2 - alpha_sum, (N - 2 D alpha_sum)/(2 D)
    for odd N, else (N/2 - D alpha_sum)/D; gcd(N, D) = 1 keeps each in lowest
    terms.  Each slot is one column over the group, zipped with the fixed
    text between slots and joined per block; every int is written by
    `int.__repr__`, so a Fraction or float raises TypeError, as in `_json`."""
    tau, kers, cokers, groups, tower, alpha_sum = piece
    over = "/" + int.__repr__(den)
    grade = over + '"' + _ITEM + '"'  # ends one grade in a list and opens the next
    end = over + '"\n      ]'  # ends the last grade of a list
    tower_grade = [*map(int.__repr__, map((tower * den).__add__, nums))]  # also d
    half, double = "/" + int.__repr__(2 * den), 2 * den * alpha_sum
    sw = [int.__repr__(n - double) + half if n % 2 else int.__repr__(n // 2 - den * alpha_sum) + over for n in nums]
    towers = [f'{over}",\n            "length": {int.__repr__(n)},\n            "multiplicity": {int.__repr__(m)}\n'
              '          },\n          {\n            "grade": "' for _, n, m in groups]  # to the next grade
    last = towers.pop().removesuffix(_TOWER) + "\n        ]" if towers else ""
    fixed = ['{\n      "a": ', ',\n      "t_a": ' + int.__repr__(depth) + ',\n      "r_a": "',
             over + '",\n      "tau": [\n        ' + tau + '\n      ],\n      "module": {\n        "tower_grade": "',
             over + '",\n        "finite_towers": ' + ('[\n          {\n            "grade": "' if groups else "[]"),
             last + '\n      },\n      "d_invariant": "', over + '",\n      "sw_invariant": "',
             '",\n      "ker_u": [\n        "', end + ',\n      "coker_u": ' + ('[\n        "' if cokers else "[]"),
             (end if cokers else "") + "\n    }"]  # the text before each column, and after the last
    columns = [map(int.__repr__, a), map(int.__repr__, nums), tower_grade,
               _grade_lists(nums, den, [g for g, _, _ in groups], towers), tower_grade, sw,
               _grade_lists(nums, den, kers, [grade] * (len(kers) - 1)),
               _grade_lists(nums, den, cokers, [grade] * (len(cokers) - 1))]
    slots = fixed + columns  # the fixed texts, each repeated, between the columns
    slots[::2], slots[1::2] = map(repeat, fixed), columns
    return [*map("".join, zip(*slots))]


def _run_blocks(piece: tuple, run: hfcore.SpincRun) -> list[str]:
    """The blocks of the classes of `run`, in order, from the `_tau_piece` of
    its tau: one `_group_blocks` per denominator D of r_a in the run.  The
    run's start, stop and t_a and each class's N and D must be ints (a bool
    is refused too, so True never joins the group of D = 1)."""
    nums, dens = run.r_num, run.r_den
    _only_ints({type(run.start), type(run.stop), type(run.depth), *map(type, nums), *map(type, dens)})
    a = range(run.start, run.stop)
    distinct = dict.fromkeys(dens)
    if len(distinct) == 1:
        return _group_blocks(piece, run.depth, dens[0], a, nums)
    blocks = {}  # place in the run -> block
    for den in distinct:
        places = [*compress(range(len(dens)), map(eq, dens, repeat(den)))]
        blocks.update(zip(places, _group_blocks(piece, run.depth, den, map(a.__getitem__, places),
                                                [*map(nums.__getitem__, places)])))
    return [*map(blocks.__getitem__, range(len(dens)))]


def _compute_json(spec: hfcore.SurgerySpec, runs) -> str:
    """The `compute` JSON document: `_json` writes the "knot" and "surgery"
    blocks, `_run_blocks` the classes of each run from one `_tau_piece` per
    run (it lives for this document only); the blocks go out in one join.
    """
    blocks = []
    for run in runs:
        blocks += _run_blocks(_tau_piece(run), run)
    parts = [",\n    "] * (2 * len(blocks) + 1)  # the document: one copy of each block
    parts[1::2] = blocks
    parts[0] = ('{\n  "knot": ' + _json(_knot_block(spec.knot), "  ") + ',\n  "surgery": '
                + _json(_surgery_block(spec), "  ") + ',\n  "spinc": [\n    ')
    parts[-1] = "\n  ]\n}\n"
    return "".join(parts)


def _run_text(run: hfcore.SpincRun) -> list[str]:
    """The text lines of the classes of `run`, each class after a blank line:
    the tau line, the grouped towers and the sorted ker/coker offsets once
    per run, then per class each value written from r_a = N/D as
    str(Fraction) prints it (`root.grade_text`): r_a, d and every grade as
    N + g D over D, sw = r_a/2 - alpha_sum as (N - 2 D alpha_sum)/(2 D) for
    odd N, else as N/2 - D alpha_sum over D."""
    tower, groups, alpha_sum, kers, cokers = run.tower, grouped(run.towers), run.alpha_sum, run.ker, run.coker
    depth, tau = f"  t_a = {run.depth}   r_a = ", "  tau: " + ", ".join(map(str, run.tau))
    lines = []
    for a, num, den in zip(range(run.start, run.stop), run.r_num, run.r_den):
        sw = f"{num - 2 * den * alpha_sum}/{2 * den}" if num % 2 else grade_text(num // 2 - den * alpha_sum, den, 0)
        lines += [
            "",
            f"spin^c a = {a}:",
            depth + grade_text(num, den, 0),
            tau,
            "  HF+ = " + module_text(num, den, tower, groups),
            f"  d = {grade_text(num, den, tower)}   sw = {sw}",
            "  ker U gradings: " + ", ".join([grade_text(num, den, g) for g in kers]),
            "  coker U gradings: " + (", ".join([grade_text(num, den, g) for g in cokers]) or "(none)"),
        ]
    return lines


def _knot_text(knot: AlgebraicKnot) -> list[str]:
    return [
        "algebraic knot: Newton pairs " + " ".join(f"({p},{q})" for p, q in knot.newton_pairs),
        "  linking pairs: " + " ".join(f"({p},{a})" for p, a in knot.linking_pairs),
        f"  delta = {knot.delta}   mu = {knot.mu}   mf = {knot.mf}",
        "  semigroup generators: " + ", ".join(str(g) for g in knot.semigroup.generators),
        "  gaps: " + ", ".join(str(g) for g in knot.gaps),
        "  alpha: " + ", ".join(str(a) for a in knot.alpha),
        "  Alexander: " + _pretty_poly(knot.alexander),
    ]


def _emit(text: str, out_path):
    """Write a whole document to stdout or to `out_path`.  A path under /dev,
    or one that names no regular file (a pipe, a terminal), is written in
    place.  Any other path gets the text through a temporary `PATH.<pid>.tmp`
    beside it, renamed over PATH once complete, so a write that fails partway
    leaves the old file, or none, and no temporary; an error that names a
    file names PATH, not the temporary.  An existing file that may not be
    written is refused, as opening it would be, and the file that replaces
    it keeps its permission bits.  A symbolic link stays a link: the file it
    names is the one replaced."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(out_path).st_mode
    except FileNotFoundError:
        mode = None
    if os.path.abspath(out_path).startswith("/dev/") or not (mode is None or S_ISREG(mode)):
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    if mode is not None and not os.access(out_path, os.W_OK):
        raise PermissionError(EACCES, os.strerror(EACCES), out_path)
    target = os.path.realpath(out_path) if os.path.islink(out_path) else out_path
    tmp, made = f"{target}.{os.getpid()}.tmp", False
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            made = True
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException as exc:
        if made:
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:  # it names the temporary
            raise OSError(exc.errno, exc.strerror, out_path) from exc
        raise


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_knot(args) -> int:
    knot = _parse_newton(args.newton)
    if args.format == "json":
        _emit(_json({"knot": _knot_block(knot)}) + "\n", args.out)
    else:
        _emit("\n".join(_knot_text(knot)) + "\n", args.out)
    return 0


def _parse_spinc(text: str) -> int | None:
    """None for 'all', else the spin^c index (checked against p later)."""
    if text == "all":
        return None
    try:
        return _int(text)
    except ValueError:
        raise ValueError(f"--spinc expects a spin^c index or 'all', got {text!r}")


def cmd_compute(args) -> int:
    knot = _parse_newton(args.newton)
    p, q = _parse_fraction(args.surgery, "--surgery")
    spec = hfcore.SurgerySpec(knot, p, q)
    index = _parse_spinc(args.spinc)
    if args.format == "svg" and index is None and spec.p > 1 and not args.out:
        raise ValueError("--format svg with --spinc all requires --out")
    t0 = time.perf_counter()
    runs = hfcore.compute_runs(spec) if index is None else [hfcore.compute_run(spec, index)]
    _info(f"computed {runs[-1].stop - runs[0].start} spin^c structures in {time.perf_counter() - t0:.3f}s")

    if args.format == "svg":
        many = index is None and spec.p > 1  # a file per class, under --out (checked above)
        stem, ext = os.path.splitext(args.out or "")
        for run in runs:  # one root drawn per run, one text alive
            svg = render(root_from_tau(run.tau))
            for a in range(run.start, run.stop):
                _emit(svg, f"{stem}_a{a}{ext or '.svg'}" if many else args.out)
        return 0

    if args.format == "json":
        _emit(_compute_json(spec, runs), args.out)
        return 0

    lines = _knot_text(knot)
    lines.append("")
    lines.append(f"surgery -{p}/{q}   (continued fraction {list(spec.cfrac.terms)})")
    for run in runs:
        lines += _run_text(run)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return num // g, den // g


def _verify_lens(args) -> int:
    from . import lens
    p, q = _parse_fraction(args.lens, "--lens")
    formula, formula_den = lens.lens_d_invariants(p, q), 2 * p
    recursion, recursion_den = lens.lens_d_classical(p, q)
    # equal multisets of num/den, cross-multiplied to the one denominator formula_den * recursion_den
    ok = sorted([n * recursion_den for n in formula]) == sorted([n * formula_den for n in recursion])
    formula_path = [_ratio(n, formula_den) for n in formula]
    recursion_path = [_ratio(n, recursion_den) for n in recursion]
    if args.format == "json":
        doc = {
            "verification": {
                "lens": f"{p}/{q}",
                "formula_path": [f"{n}/{d}" for n, d in formula_path],
                "recursion_path": [f"{n}/{d}" for n, d in recursion_path],
                "multiset_ok": ok,
            }
        }
        _emit(_json(doc) + "\n", args.out)
    else:
        formula_text = [grade_text(n, d, 0) for n, d in formula_path]
        recursion_text = [grade_text(n, d, 0) for n, d in recursion_path]
        _emit(
            f"lens {p}/{q}: formula path {formula_text}\n"
            f"          recursion   {recursion_text}\n"
            f"result: {'AGREE' if ok else 'DISAGREE'}\n",
            args.out,
        )
    return 0 if ok else 2


def _first_diff(lattice, formula) -> dict:
    """The first index where two value lists differ, and each one's value there
    (None past its end)."""
    i = next((i for i, (u, v) in enumerate(zip(lattice, formula)) if u != v), min(len(lattice), len(formula)))
    return {"index": i, "lattice": lattice[i] if i < len(lattice) else None,
            "formula": formula[i] if i < len(formula) else None}


def _root_first_diff(lattice: dict, formula: dict) -> dict:
    """The lowest level whose sorted labels differ between the
    `GradedRoot.level_keys` of two roots, with each root's vertex count there."""
    level = min(k for k in lattice.keys() | formula.keys() if lattice.get(k) != formula.get(k))
    return {"level": level, "lattice": len(lattice.get(level, ())), "formula": len(formula.get(level, ()))}


def cmd_verify(args) -> int:
    if args.lens:
        given = [flag for flag in ("newton", "surgery", "spinc", "oracle") if getattr(args, flag) is not None]
        if given:
            raise ValueError("--lens checks a lens space alone; drop " + " and ".join("--" + f for f in given))
        return _verify_lens(args)
    if not args.newton or not args.surgery:
        raise ValueError("verify needs --newton and --surgery (or --lens P/Q)")
    from . import lens, plumbing
    knot = _parse_newton(args.newton)
    p, q = _parse_fraction(args.surgery, "--surgery")
    spec = hfcore.SurgerySpec(knot, p, q)
    index = _parse_spinc("all" if args.spinc is None else args.spinc)
    oracle = args.oracle or "laufer"
    use_laufer = oracle in ("laufer", "both")
    use_sublevel = oracle in ("sublevel", "both")

    t0 = time.perf_counter()
    # the formula side first, so that its range check refuses a outside [0, p) before any graph;
    # compute_runs checks the ker U rank identity and builds one module per run of equal tau
    runs = hfcore.compute_runs(spec) if index is None else [hfcore.compute_run(spec, index)]
    gf = plumbing.embedded_resolution(knot)
    gm = plumbing.surgery_graph(knot, spec.cfrac)
    _info(f"formula side and graphs built in {time.perf_counter() - t0:.3f}s")
    shifts_formula = lens.grading_shift_formula(p, q, knot.delta, runs[-1].stop - 1)  # numerators over 2p
    if use_laufer:  # the resolution side once per surgery; t_a falls as a grows, so runs[0] is deepest
        chi_gf = plumbing.laufer_values(gf, [0] * gf.n, (runs[0].depth + 1) * knot.mf)

    per = []
    overall = True
    for run in runs:
        tau, i_max = run.tau, (run.depth + 1) * knot.mf
        if use_sublevel:  # the formula root once per run
            formula_keys = root_from_tau(tau).level_keys()
        for a, num, den in zip(range(run.start, run.stop), run.r_num, run.r_den):
            # one class at a time: its digits and pairings are dropped with it
            l_pairs, k_pairs = plumbing.class_pairings(gm, plumbing.chain_digits(spec.cfrac, a))
            shift_lattice = plumbing.lattice_grading_shift(gm, k_pairs)
            entry = {
                "a": a,
                "shift_lattice_ok": shift_lattice == (num, den),
                "shift_formula_ok": shifts_formula[a] * den == 2 * p * num,
            }
            if not (entry["shift_lattice_ok"] and entry["shift_formula_ok"]):
                shifts = {"r_a": (num, den), "lattice": shift_lattice, "formula": _ratio(shifts_formula[a], 2 * p)}
                entry["shifts"] = {name: f"{n}/{d}" for name, (n, d) in shifts.items()}
            if use_laufer:
                condensed = plumbing.condense_tau(plumbing.class_laufer_values(gm, l_pairs, chi_gf, i_max), knot.mf)
                entry["laufer_tau_ok"] = condensed == tau
                if not entry["laufer_tau_ok"]:
                    entry["laufer_first_diff"] = _first_diff(condensed, tau)
            if use_sublevel:
                n_top = max(tau)
                box = plumbing.exact_sublevel_box(gm, k_pairs, n_top)
                lattice_keys = plumbing.sublevel_root(gm, k_pairs, n_top, box).level_keys()
                same = lattice_keys == formula_keys
                entry["sublevel"] = "ok" if same else "disagree"
                if not same:
                    entry["sublevel_first_diff"] = _root_first_diff(lattice_keys, formula_keys)
            per.append(entry)
            bad = (
                not entry["shift_lattice_ok"]
                or not entry["shift_formula_ok"]
                or not entry.get("laufer_tau_ok", True)
                or entry.get("sublevel", "ok") != "ok"
            )
            overall = overall and not bad

    if args.format == "json":
        doc = {"knot": _knot_block(knot), "surgery": _surgery_block(spec),
               "graphs": {"resolution": plumbing.graph_doc(gf), "surgery": plumbing.graph_doc(gm)},
               "verification": {"oracle": oracle, "per_spinc": per, "ok": overall}}
        _emit(_json(doc) + "\n", args.out)
    else:
        lines = [f"verification of -{p}/{q} surgery (oracle: {oracle})"]
        for entry in per:
            status = []
            status.append("shift " + ("ok" if entry["shift_lattice_ok"] and entry["shift_formula_ok"] else "MISMATCH"))
            if "laufer_tau_ok" in entry:
                status.append("tau " + ("ok" if entry["laufer_tau_ok"] else "MISMATCH"))
            if "sublevel" in entry:
                status.append("sublevel " + entry["sublevel"])
            lines.append(f"  a = {entry['a']}: " + ", ".join(status))
            if "shifts" in entry:
                lines.append("    shifts: " + ", ".join(f"{k} = {v}" for k, v in entry["shifts"].items()))
            if "laufer_first_diff" in entry:
                lines.append("    tau first differs at index {index}: lattice {lattice}, formula {formula}"
                             .format_map(entry["laufer_first_diff"]))
            if "sublevel_first_diff" in entry:
                lines.append("    roots first differ at level {level}: lattice {lattice} vertices, formula {formula}"
                             .format_map(entry["sublevel_first_diff"]))
        lines.append(f"result: {'AGREE' if overall else 'DISAGREE'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if overall else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_USAGE = """\
usage: hfroots knot --newton P1,Q1[,P2,Q2,...] [--format text|json] [--out FILE]
       hfroots compute --newton ... --surgery P[/Q] [--spinc A|all] [--format text|json|svg] [--out FILE]
       hfroots verify --newton ... --surgery P[/Q] [--spinc A|all] [--oracle laufer|sublevel|both]
                      [--format text|json] [--out FILE]
       hfroots verify --lens P[/Q] [--format text|json] [--out FILE]

Heegaard Floer homology of negative rational surgeries on algebraic knots, via
graded roots: `knot` prints the knot's invariants, `compute` HF+ of -M per spin^c
structure (all by default), `verify` checks it against the lattice oracle (laufer
by default) or, with --lens, the correction terms of a lens space.  P/Q always
means the coefficient -P/Q.  A flag's value is the next argument or the text
after '=', even when it starts with '-'; a flag is given at most once, in full.
Exit codes: 0 ok, 1 input error, 2 verification mismatch, 3 internal invariant
failure, 4 resource limit reached.
"""

_HELP = ("-h", "--help")
_REQUIRED = object()  # the default of a flag that must be given
_TEXT_JSON = ("text", "json")

# command -> (handler, {flag: (default, the values it takes or None for any)})
_COMMANDS = {
    "knot": (cmd_knot, {"--newton": (_REQUIRED, None), "--format": ("text", _TEXT_JSON), "--out": (None, None)}),
    "compute": (cmd_compute, {
        "--newton": (_REQUIRED, None), "--surgery": (_REQUIRED, None), "--spinc": ("all", None),
        "--format": ("text", (*_TEXT_JSON, "svg")), "--out": (None, None)}),
    "verify": (cmd_verify, {
        "--newton": (None, None), "--surgery": (None, None), "--spinc": (None, None),
        "--oracle": (None, ("laufer", "sublevel", "both")), "--lens": (None, None),
        "--format": ("text", _TEXT_JSON), "--out": (None, None)}),
}


def _help():
    sys.stdout.write(_USAGE)
    raise SystemExit(0)


def _parse_args(argv) -> SimpleNamespace:
    """The namespace of argv = [command, flags...] that a command's handler
    reads: `func` the handler and one attribute per flag of the command (the
    flag without its dashes), its value or its default.  A flag's value is
    the next argument or the text after '=', whatever its first character.
    A missing command, an unknown or repeated flag, a flag with no value or
    an empty one, a value outside the flag's choices or a required flag left
    out raises ValueError; -h or --help in place of a command or a flag
    prints the usage and raises SystemExit(0)."""
    command = argv[0] if argv else None
    if command in _HELP:
        _help()
    if command not in _COMMANDS:
        raise ValueError("expected a command: knot, compute or verify" + (f", got {command!r}" if argv else ""))
    func, flags = _COMMANDS[command]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            _help()
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ValueError(f"unknown argument {flag} for {command}")
        if flag in given:
            raise ValueError(f"{flag} given twice")
        if not eq:
            value = next(tokens, None)
        if not value:  # none, or an empty one: `--out=` must not mean stdout
            raise ValueError(f"{flag} expects a value")
        choices = flags[flag][1]
        if choices and value not in choices:
            raise ValueError(f"{flag} takes {', '.join(choices)}, got {value!r}")
        given[flag] = value
    missing = [flag for flag, (default, _) in flags.items() if default is _REQUIRED and flag not in given]
    if missing:
        raise ValueError(f"{command} needs " + " and ".join(missing))
    return SimpleNamespace(func=func, **{flag[2:]: given.get(flag, default) for flag, (default, _) in flags.items()})


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
