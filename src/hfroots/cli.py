"""Command line interface: `hfroots knot|compute|verify`.

The surgery coefficient is entered as a positive fraction P/Q and always
means the negative coefficient -P/Q.  Rationals are printed exactly; in
JSON they are "numerator/denominator" strings, never floats.  Output is
deterministic byte for byte; timings go to the log (HFROOTS_LOG=debug|info),
never into the document.

Exit codes: 0 ok, 1 input error, 2 verification mismatch (or an oracle whose
search box was invalidated), 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from fractions import Fraction

from . import hfcore, plumbing
from .errors import InternalInvariantError
from .knot import AlgebraicKnot, from_newton_pairs
from .root import TauFunction, render, root_from_tau

log = logging.getLogger("hfroots")


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


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


def _parse_newton(text: str) -> AlgebraicKnot:
    try:
        nums = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--newton expects a comma list of integers, got {text!r}")
    if len(nums) % 2 != 0 or not nums:
        raise ValueError("--newton expects an even number of integers p1,q1[,p2,q2,...]")
    return from_newton_pairs(list(zip(nums[0::2], nums[1::2])))


def _parse_fraction(text: str, flag: str) -> tuple[int, int]:
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return int(parts[0]), 1
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ValueError(f"{flag} expects P or P/Q, got {text!r}")


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


def _module_block(module) -> dict:
    towers = [{"grade": _rat(g), "length": n, "multiplicity": m} for g, n, m in module.grouped()]
    return {"tower_grade": _rat(module.tower_grade), "finite_towers": towers}


def _spinc_block(res: hfcore.SpincResult) -> dict:
    return {
        "a": res.a,
        "t_a": res.depth,
        "r_a": _rat(res.shift),
        "tau": list(res.tau.values),
        "module": _module_block(res.module),
        "d_invariant": _rat(res.d_invariant),
        "sw_invariant": _rat(res.sw_invariant),
        "ker_u": [_rat(x) for x in res.ker_u],
        "coker_u": [_rat(x) for x in res.coker_u],
    }


def _spinc_text(res: hfcore.SpincResult) -> list[str]:
    return [
        f"spin^c a = {res.a}:",
        f"  t_a = {res.depth}   r_a = {res.shift}",
        "  tau: " + ", ".join(str(v) for v in res.tau.values),
        f"  HF+ = {res.module}",
        f"  d = {res.d_invariant}   sw = {res.sw_invariant}",
        "  ker U gradings: " + ", ".join(str(x) for x in res.ker_u),
        "  coker U gradings: " + (", ".join(str(x) for x in res.coker_u) or "(none)"),
    ]


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
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_knot(args) -> int:
    knot = _parse_newton(args.newton)
    if args.format == "json":
        _emit(json.dumps({"knot": _knot_block(knot)}, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(_knot_text(knot)) + "\n", args.out)
    return 0


def _selected_results(spec: hfcore.SurgerySpec, spinc: str) -> list[hfcore.SpincResult]:
    if spinc == "all":
        return hfcore.compute_all(spec)
    a = int(spinc)
    return [hfcore.compute_spinc(spec, a)]


def cmd_compute(args) -> int:
    knot = _parse_newton(args.newton)
    p, q = _parse_fraction(args.surgery, "--surgery")
    spec = hfcore.SurgerySpec(knot, p, q)
    t0 = time.perf_counter()
    results = _selected_results(spec, args.spinc)
    log.info("computed %d spin^c structures in %.3fs", len(results), time.perf_counter() - t0)

    if args.format == "svg":
        if len(results) > 1 and not args.out:
            raise ValueError("--format svg with --spinc all requires --out")
        for res in results:
            svg = render(root_from_tau(res.tau), "svg")
            if args.out and len(results) > 1:
                stem, ext = os.path.splitext(args.out)
                _emit(svg, f"{stem}_a{res.a}{ext or '.svg'}")
            else:
                _emit(svg, args.out)
        return 0

    if args.format == "json":
        doc = {
            "knot": _knot_block(knot),
            "surgery": {
                "p": p,
                "q": q,
                "coefficient": f"-{p}/{q}",
                "continued_fraction": list(spec.cfrac.terms),
            },
            "spinc": [_spinc_block(r) for r in results],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0

    lines = _knot_text(knot)
    lines.append("")
    lines.append(f"surgery -{p}/{q}   (continued fraction {list(spec.cfrac.terms)})")
    for res in results:
        lines.append("")
        lines.extend(_spinc_text(res))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _verify_lens(args) -> int:
    p, q = _parse_fraction(args.lens, "--lens")
    formula = plumbing.lens_d_invariants(p, q)
    recursion = plumbing.lens_d_classical(p, q)
    ok = sorted(formula) == sorted(recursion)
    doc = {
        "verification": {
            "lens": f"{p}/{q}",
            "formula_path": [_rat(x) for x in formula],
            "recursion_path": [_rat(x) for x in recursion],
            "multiset_ok": ok,
        }
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(
            f"lens {p}/{q}: formula path {[str(x) for x in formula]}\n"
            f"          recursion   {[str(x) for x in recursion]}\n"
            f"result: {'AGREE' if ok else 'DISAGREE'}\n",
            args.out,
        )
    return 0 if ok else 2


def cmd_verify(args) -> int:
    if args.lens:
        return _verify_lens(args)
    if not args.newton or not args.surgery:
        raise ValueError("verify needs --newton and --surgery (or --lens P/Q)")
    knot = _parse_newton(args.newton)
    p, q = _parse_fraction(args.surgery, "--surgery")
    spec = hfcore.SurgerySpec(knot, p, q)
    use_laufer = args.oracle in ("laufer", "both")
    use_sublevel = args.oracle in ("sublevel", "both")

    t0 = time.perf_counter()
    gf = plumbing.embedded_resolution(knot)
    gm = plumbing.surgery_graph(knot, spec.cfrac)
    classes = plumbing.spinc_classes(gm, spec)
    log.info("graphs and spin^c classes built in %.3fs", time.perf_counter() - t0)

    indices = range(p) if args.spinc == "all" else [int(args.spinc)]
    per = []
    overall = True
    for a in indices:
        res = hfcore.compute_spinc(spec, a)  # rejects a outside [0, p) before classes[a]
        cls = classes[a]
        shift_lattice = plumbing.lattice_grading_shift(gm, cls)
        shift_formula = plumbing.grading_shift_formula(p, q, knot.delta, a)
        entry = {
            "a": a,
            "shift_lattice_ok": shift_lattice == res.shift,
            "shift_formula_ok": shift_formula == res.shift,
        }
        if use_laufer:
            values, _ = plumbing.laufer_sequence(gm, cls, (res.depth + 1) * knot.mf)
            condensed = plumbing.condense_tau(TauFunction(tuple(values)), knot.mf)
            entry["laufer_tau_ok"] = condensed.values == res.tau.values
        if use_sublevel:
            n_top = res.tau.max()
            box = plumbing.exact_sublevel_box(gm, cls.k_r, n_top)
            sub = plumbing.sublevel_root(gm, cls.k_r, n_top, box)
            if sub.boundary_contact:
                entry["sublevel"] = "unreliable-box"
            else:
                same = sub.root.canonical_key() == root_from_tau(res.tau).canonical_key()
                entry["sublevel"] = "ok" if same else "disagree"
        per.append(entry)
        bad = (
            not entry["shift_lattice_ok"]
            or not entry["shift_formula_ok"]
            or not entry.get("laufer_tau_ok", True)
            or entry.get("sublevel", "ok") != "ok"
        )
        overall = overall and not bad

    doc = {
        "knot": _knot_block(knot),
        "surgery": {"p": p, "q": q, "coefficient": f"-{p}/{q}",
                    "continued_fraction": list(spec.cfrac.terms)},
        "graphs": {
            "resolution": json.loads(plumbing.graph_to_json(gf)),
            "surgery": json.loads(plumbing.graph_to_json(gm)),
        },
        "verification": {"oracle": args.oracle, "per_spinc": per, "ok": overall},
    }
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        lines = [f"verification of -{p}/{q} surgery (oracle: {args.oracle})"]
        for entry in per:
            status = []
            status.append("shift " + ("ok" if entry["shift_lattice_ok"] and entry["shift_formula_ok"] else "MISMATCH"))
            if "laufer_tau_ok" in entry:
                status.append("tau " + ("ok" if entry["laufer_tau_ok"] else "MISMATCH"))
            if "sublevel" in entry:
                status.append("sublevel " + entry["sublevel"])
            lines.append(f"  a = {entry['a']}: " + ", ".join(status))
        lines.append(f"result: {'AGREE' if overall else 'DISAGREE'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if overall else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hfroots",
        description="Heegaard Floer homology of negative rational surgeries on "
                    "algebraic knots, via graded roots (surgery P/Q means -P/Q).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    k = sub.add_parser("knot", help="classical invariants of an algebraic knot")
    k.add_argument("--newton", required=True, help="Newton pairs p1,q1[,p2,q2,...]")
    k.add_argument("--format", choices=["text", "json"], default="text")
    k.add_argument("--out", default=None, help="write output to a file")
    k.set_defaults(func=cmd_knot)

    c = sub.add_parser("compute", help="HF+ of -M per spin^c structure")
    c.add_argument("--newton", required=True, help="Newton pairs p1,q1[,p2,q2,...]")
    c.add_argument("--surgery", required=True, help="P/Q for surgery coefficient -P/Q")
    c.add_argument("--spinc", default="all", help="a spin^c index or 'all'")
    c.add_argument("--format", choices=["text", "json", "svg"], default="text")
    c.add_argument("--out", default=None, help="write output to a file")
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="cross-check against the lattice oracle")
    v.add_argument("--newton", default=None, help="Newton pairs p1,q1[,p2,q2,...]")
    v.add_argument("--surgery", default=None, help="P/Q for surgery coefficient -P/Q")
    v.add_argument("--spinc", default="all", help="a spin^c index or 'all'")
    v.add_argument("--oracle", choices=["laufer", "sublevel", "both"], default="laufer")
    v.add_argument("--lens", default=None, help="P/Q: check lens-space correction terms instead")
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.add_argument("--out", default=None, help="write output to a file")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("HFROOTS_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
