"""Correctness gate for benchmark documents, run outside the timed region.

A document fails when its CLI call exits non-zero, when its bytes differ
from the sha256 pinned in `digests.json`, or when it breaks an invariant
that the graded-root pipeline does not itself compute:

* compute: one entry per spin^c structure; per entry the finite-tower
  lengths sum to `min tau + sum of downward jumps`, `d = 2 min tau + r_a`,
  `d = 0` when `p = 1`, and `r_a = ((p + 2 delta - 2 - 2a)^2 - p)/(4p)` when
  `q = 1`;
* verify: `"ok": true` and one entry per spin^c structure;
* verify --lens: `"multiset_ok": true` and one value per spin^c structure;
* svg: a well-formed `<svg>` document that draws at least one vertex.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _compute_problems(doc: dict) -> list[str]:
    p, q = doc["surgery"]["p"], doc["surgery"]["q"]
    delta = doc["knot"]["delta"]
    entries = doc["spinc"]
    out = []
    if [e["a"] for e in entries] != list(range(p)):
        out.append(f"spin^c entries {len(entries)} != p = {p}")
    for e in entries:
        a, tau = e["a"], e["tau"]
        r_a, d = Fraction(e["r_a"]), Fraction(e["d_invariant"])
        lo = min(tau)
        drops = sum(max(x - y, 0) for x, y in zip(tau, tau[1:]))
        towers = sum(t["length"] * t["multiplicity"] for t in e["module"]["finite_towers"])
        if towers != lo + drops:
            out.append(f"a={a}: tower lengths {towers} != min tau + drops {lo + drops}")
        if d != 2 * lo + r_a:
            out.append(f"a={a}: d {d} != 2 min tau + r_a {2 * lo + r_a}")
        if p == 1 and d != 0:
            out.append(f"a={a}: d {d} != 0 at p = 1")
        if q == 1 and r_a != Fraction((p + 2 * delta - 2 - 2 * a) ** 2 - p, 4 * p):
            out.append(f"a={a}: r_a {r_a} breaks the q = 1 closed form")
    return out


def _verify_problems(doc: dict) -> list[str]:
    ver = doc["verification"]
    out = [] if ver["ok"] is True else ["verification not ok"]
    if len(ver["per_spinc"]) != doc["surgery"]["p"]:
        out.append("per_spinc does not cover every spin^c structure")
    return out


def _lens_problems(doc: dict) -> list[str]:
    ver = doc["verification"]
    p = int(ver["lens"].split("/")[0])
    out = [] if ver["multiset_ok"] is True else ["lens multisets differ"]
    if len(ver["formula_path"]) != p:
        out.append("formula path does not cover every spin^c structure")
    return out


def _svg_problems(data: bytes) -> list[str]:
    root = ET.fromstring(data)
    if not root.tag.endswith("svg"):
        return [f"root element {root.tag!r} is not svg"]
    if not any(el.tag.endswith("circle") for el in root.iter()):
        return ["svg draws no vertex"]
    return []


_CHECKS = {"compute": _compute_problems, "verify": _verify_problems, "lens": _lens_problems}


def problems(kind: str, key: str, code: int, path: Path, digests: dict[str, str]) -> list[str]:
    """Every reason the document at `path` fails; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"no output: {exc}"]
    out = []
    pinned = digests.get(key)
    if pinned is not None and sha256(data) != pinned:
        out.append("sha256 differs from the pinned digest")
    try:
        if kind == "svg":
            out += _svg_problems(data)
        else:
            out += _CHECKS[kind](json.loads(data))
    except (ValueError, KeyError, TypeError, ET.ParseError) as exc:
        out.append(f"malformed document: {exc!r}")
    return out
