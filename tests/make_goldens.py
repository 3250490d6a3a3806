"""Regenerate the golden files, or check them (run from the repository root):

    PYTHONPATH=src python tests/make_goldens.py            # rewrite tests/golden
    PYTHONPATH=src python tests/make_goldens.py --check    # compare, write nothing

`--check` regenerates every golden file into a temporary directory and
exits 1, naming each file whose bytes differ from the committed one (or
that exists on one side only), else exits 0.  Only the standard library
and `hfroots` are imported, so it runs on any supported Python without
pytest.

The tau values behind the renders are pinned independently in
test_root/test_hfcore; these files only freeze the SVG drawing of a root
and the JSON and text report layouts.
"""

import sys
import tempfile
from pathlib import Path

from hfroots import SurgerySpec, compute_run, from_newton_pairs, render, root_from_tau
from hfroots.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(out=None):
    """Write every golden file into `out`, by default `GOLDEN`."""
    out = GOLDEN if out is None else Path(out)
    out.mkdir(exist_ok=True)
    knot = from_newton_pairs([(4, 5)])
    for name, p, q, a in [
        ("root_45_1_1_a0", 1, 1, 0),
        ("root_45_2_1_a0", 2, 1, 0),
        ("root_45_2_1_a1", 2, 1, 1),
    ]:
        root = root_from_tau(compute_run(SurgerySpec(knot, p, q), a).tau)
        (out / f"{name}.svg").write_text(render(root))
    # -12/5 on (2,5): four runs of equal tau, one of them with three denominators of r_a
    for name, newton, surgery in [("compute_45_2_1", "4,5", "2/1"), ("compute_25_12_5", "2,5", "12/5")]:
        rc = main(["compute", "--newton", newton, "--surgery", surgery, "--format", "json",
                   "--out", str(out / f"{name}.json")])
        assert rc == 0
    rc = main(
        ["verify", "--newton", "2,3", "--surgery", "2/1", "--oracle", "both",
         "--format", "json", "--out", str(out / "verify_23_2_1.json")]
    )
    assert rc == 0
    # text reports: fractional r_a, an integer r_a, both kinds side by side, and
    # several runs of equal tau with several denominators in one run
    for name, newton, surgery in [
        ("compute_45_2_1", "4,5", "2/1"),
        ("compute_45_1_1", "4,5", "1/1"),
        ("compute_23_4_1", "2,3", "4/1"),
        ("compute_25_12_5", "2,5", "12/5"),
    ]:
        rc = main(["compute", "--newton", newton, "--surgery", surgery, "--format", "text",
                   "--out", str(out / f"{name}.txt")])
        assert rc == 0
    rc = main(
        ["verify", "--newton", "2,3", "--surgery", "2/1", "--oracle", "both",
         "--format", "text", "--out", str(out / "verify_23_2_1.txt")]
    )
    assert rc == 0
    # lens checks: fractional d, and S^3, whose d = 0 is "0/1" in JSON and 0 in text
    for p, q in [(7, 3), (1, 1)]:
        for fmt, ext in [("json", "json"), ("text", "txt")]:
            rc = main(["verify", "--lens", f"{p}/{q}", "--format", fmt,
                       "--out", str(out / f"verify_lens_{p}_{q}.{ext}")])
            assert rc == 0


def differing() -> list[str]:
    """The names of the golden files whose committed bytes differ from a
    fresh regeneration, sorted; a file on one side only counts."""
    with tempfile.TemporaryDirectory() as tmp:
        run(tmp)
        fresh = {f.name: f.read_bytes() for f in Path(tmp).iterdir()}
    kept = {f.name: f.read_bytes() for f in GOLDEN.iterdir()}
    return sorted(name for name in fresh.keys() | kept.keys() if fresh.get(name) != kept.get(name))


def command(argv) -> int:
    """No argument: rewrite the golden files, exit 0.  `--check`: exit 1 if
    any golden file differs from a fresh regeneration, naming each, else 0.
    Anything else: a usage line, exit 2."""
    if argv == ["--check"]:
        names = differing()
        for name in names:
            print(f"differs: {GOLDEN / name}")
        print(f"{len(names)} golden file(s) differ" if names else f"golden files in {GOLDEN} are up to date")
        return 1 if names else 0
    if argv:
        print("usage: make_goldens.py [--check]", file=sys.stderr)
        return 2
    run()
    print(f"golden files written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(command(sys.argv[1:]))
