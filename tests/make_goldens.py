"""Regenerate the golden files (run from the repository root).

The tau values behind the renders are pinned independently in
test_root/test_hfcore; these files only freeze the rendering conventions
and the JSON and text report layouts.
"""

from pathlib import Path

from hfroots import SurgerySpec, from_newton_pairs, render, root_from_tau
from hfroots.cli import main
from hfroots.hfcore import compute_spinc

GOLDEN = Path(__file__).parent / "golden"


def run():
    GOLDEN.mkdir(exist_ok=True)
    knot = from_newton_pairs([(4, 5)])
    for name, p, q, a in [
        ("root_45_1_1_a0", 1, 1, 0),
        ("root_45_2_1_a0", 2, 1, 0),
        ("root_45_2_1_a1", 2, 1, 1),
    ]:
        root = root_from_tau(compute_spinc(SurgerySpec(knot, p, q), a).tau)
        (GOLDEN / f"{name}.txt").write_text(render(root, "ascii"))
        (GOLDEN / f"{name}.svg").write_text(render(root, "svg"))
    rc = main(
        ["compute", "--newton", "4,5", "--surgery", "2/1", "--format", "json",
         "--out", str(GOLDEN / "compute_45_2_1.json")]
    )
    assert rc == 0
    rc = main(
        ["verify", "--newton", "2,3", "--surgery", "2/1", "--oracle", "both",
         "--format", "json", "--out", str(GOLDEN / "verify_23_2_1.json")]
    )
    assert rc == 0
    # text reports: fractional r_a, an integer r_a, and both kinds side by side
    for name, newton, surgery in [
        ("compute_45_2_1", "4,5", "2/1"),
        ("compute_45_1_1", "4,5", "1/1"),
        ("compute_23_4_1", "2,3", "4/1"),
    ]:
        rc = main(["compute", "--newton", newton, "--surgery", surgery, "--format", "text",
                   "--out", str(GOLDEN / f"{name}.txt")])
        assert rc == 0
    rc = main(
        ["verify", "--newton", "2,3", "--surgery", "2/1", "--oracle", "both",
         "--format", "text", "--out", str(GOLDEN / "verify_23_2_1.txt")]
    )
    assert rc == 0
    # lens checks: fractional d, and S^3, whose d = 0 is "0/1" in JSON and 0 in text
    for p, q in [(7, 3), (1, 1)]:
        for fmt, ext in [("json", "json"), ("text", "txt")]:
            rc = main(["verify", "--lens", f"{p}/{q}", "--format", fmt,
                       "--out", str(GOLDEN / f"verify_lens_{p}_{q}.{ext}")])
            assert rc == 0


if __name__ == "__main__":
    run()
    print(f"golden files written to {GOLDEN}")
