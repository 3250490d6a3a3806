import json
from fractions import Fraction
from pathlib import Path

import pytest

import hfroots.plumbing as pl
from hfroots.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestKnotCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "knot", "--newton", "4,5")
        assert code == 0
        assert "delta = 6" in out
        assert "alpha: 6, 5, 4, 3, 3, 3, 2, 1, 1, 1, 1" in out

    def test_invalid_input_exit_1(self, capsys):
        code, out, err = run(capsys, "knot", "--newton", "2,2")
        assert code == 1
        assert out == ""
        assert "gcd" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "knot", "--newton", "2,3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["knot"]["delta"] == 1
        assert doc["knot"]["alexander"] == [1, -1, 1]


class TestComputeCommand:
    def test_golden_json(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--newton", "4,5", "--surgery", "2/1", "--format", "json"
        )
        assert code == 0
        assert out == (GOLDEN / "compute_45_2_1.json").read_text()

    def test_single_spinc_text(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--newton", "4,5", "--surgery", "2/1", "--spinc", "0"
        )
        assert code == 0
        assert "r_a = 71/4" in out
        assert "spin^c a = 1" not in out

    def test_deterministic(self, capsys):
        args = ("compute", "--newton", "2,3", "--surgery", "7/5", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_rationals_never_floats(self, capsys):
        _, out, _ = run(
            capsys, "compute", "--newton", "4,5", "--surgery", "2/1", "--format", "json"
        )
        doc = json.loads(out)
        block = doc["spinc"][0]
        assert block["r_a"] == "71/4"
        assert isinstance(block["module"]["tower_grade"], str)

    def test_svg_single(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--newton", "2,3", "--surgery", "1/1",
            "--spinc", "0", "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")

    def test_svg_all_needs_out(self, capsys):
        code, _, err = run(
            capsys, "compute", "--newton", "4,5", "--surgery", "2/1", "--format", "svg"
        )
        assert code == 1
        assert "--out" in err

    def test_svg_files(self, capsys, tmp_path):
        target = tmp_path / "root.svg"
        code, _, _ = run(
            capsys, "compute", "--newton", "4,5", "--surgery", "2/1",
            "--format", "svg", "--out", str(target),
        )
        assert code == 0
        for a in (0, 1):
            assert (tmp_path / f"root_a{a}.svg").exists()

    def test_surgery_shorthand(self, capsys):
        code, out, _ = run(capsys, "compute", "--newton", "2,3", "--surgery", "6", "--spinc", "0")
        assert code == 0
        assert "surgery -6/1" in out

    def test_total_ker_rank(self, capsys):
        _, out, _ = run(
            capsys, "compute", "--newton", "4,5", "--surgery", "2/1", "--format", "json"
        )
        doc = json.loads(out)
        assert sum(block["t_a"] + 2 for block in doc["spinc"]) == 13

    def test_half_surgery_shift(self, capsys):
        code, out, _ = run(capsys, "compute", "--newton", "4,5", "--surgery", "1/2")
        assert code == 0
        assert "r_a = 60" in out

    def test_log_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HFROOTS_LOG", "info")
        code, _, _ = run(capsys, "compute", "--newton", "2,3", "--surgery", "1/1")
        assert code == 0


class TestVerifyCommand:
    def test_agreement_both_oracles(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--newton", "2,3", "--surgery", "1/1", "--oracle", "both"
        )
        assert code == 0
        assert "result: AGREE" in out

    def test_golden_verify_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--newton", "2,3", "--surgery", "2/1",
            "--oracle", "both", "--format", "json",
        )
        assert code == 0
        assert out == (GOLDEN / "verify_23_2_1.json").read_text()
        doc = json.loads(out)
        assert doc["verification"]["ok"] is True
        assert doc["graphs"]["surgery"]["distinguished"] == doc["graphs"]["resolution"]["arrow"]

    def test_lens(self, capsys):
        code, out, _ = run(capsys, "verify", "--lens", "7/3")
        assert code == 0
        assert "AGREE" in out

    def test_lens_single_class(self, capsys):
        code, out, _ = run(capsys, "verify", "--lens", "1/1", "--format", "json")
        assert code == 0
        assert json.loads(out)["verification"]["multiset_ok"] is True

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "verify", "--newton", "2,3")
        assert code == 1
        assert "--surgery" in err

    @pytest.mark.parametrize("index", ["3", "-1"])
    def test_spinc_out_of_range(self, capsys, index):
        code, out, err = run(
            capsys, "verify", "--newton", "2,3", "--surgery", "3/1", "--spinc", index
        )
        assert code == 1
        assert out == ""
        assert f"spin^c index a={index} outside [0, 3)" in err

    def test_laufer_two_classes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--newton", "4,5", "--surgery", "2/1", "--oracle", "laufer"
        )
        assert code == 0
        assert "a = 0: shift ok, tau ok" in out
        assert "a = 1: shift ok, tau ok" in out

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            pl, "grading_shift_formula", lambda p, q, d, a: Fraction(12345)
        )
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/1")
        assert code == 2
        assert "result: DISAGREE" in out

    def test_unreliable_box_reported_distinctly(self, capsys, monkeypatch):
        real = pl.sublevel_root

        def truncated(g, kr, n_max, box):
            return pl.SublevelRoot(real(g, kr, n_max, box).root, True)

        monkeypatch.setattr(pl, "sublevel_root", truncated)
        code, out, _ = run(
            capsys, "verify", "--newton", "2,3", "--surgery", "1/1", "--oracle", "sublevel"
        )
        assert code == 2
        assert "sublevel unreliable-box" in out
        assert "MISMATCH" not in out

    def test_internal_failure_exits_3(self, capsys, monkeypatch):
        from hfroots import InternalInvariantError
        import hfroots.cli as cli_mod

        def boom(spec, a):
            raise InternalInvariantError("forced")

        monkeypatch.setattr(cli_mod.hfcore, "compute_spinc", boom)
        code, _, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/1")
        assert code == 3
        assert "internal invariant failure" in err
