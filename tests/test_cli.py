import ast
import errno
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import argparse_parser, laufer_run_rescan, root_first_diff_nested

import hfroots.cli as cli
import hfroots.knot as knot_mod
import hfroots.lens as lens
import hfroots.plumbing as pl
from hfroots.cli import main
from hfroots.root import GradedRoot, render, root_from_tau

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


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
    @pytest.mark.parametrize("newton, surgery, name", [("4,5", "2/1", "compute_45_2_1"), ("2,5", "12/5", "compute_25_12_5")])
    def test_golden_json(self, capsys, newton, surgery, name):
        code, out, _ = run(capsys, "compute", "--newton", newton, "--surgery", surgery, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize(
        "newton, surgery, name",
        [("4,5", "2/1", "compute_45_2_1"), ("4,5", "1/1", "compute_45_1_1"), ("2,3", "4/1", "compute_23_4_1"),
         ("2,5", "12/5", "compute_25_12_5")],
    )
    def test_golden_text(self, capsys, newton, surgery, name):
        # r_a = 71/4 and 49/4; r_a = 30, an integer; integer and negative r_a
        # side by side; four runs of equal tau, one with r_a over 4, 6 and 12
        code, out, _ = run(capsys, "compute", "--newton", newton, "--surgery", surgery)
        assert code == 0
        assert out == (GOLDEN / f"{name}.txt").read_text()

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

    def test_svg_all_refused_before_any_work(self, capsys, monkeypatch):
        def boom(spec):
            raise AssertionError("computed before refusing")

        monkeypatch.setattr(cli.hfcore, "compute_runs", boom)
        code, out, err = run(capsys, "compute", "--newton", "4,5", "--surgery", "2/1", "--format", "svg")
        assert code == 1
        assert out == ""
        assert err == "error: --format svg with --spinc all requires --out\n"

    def test_svg_all_with_one_class_goes_to_stdout(self, capsys):
        code, out, _ = run(capsys, "compute", "--newton", "2,3", "--surgery", "1/3", "--format", "svg")
        assert code == 0
        assert out.startswith("<svg ")

    def test_svg_files(self, capsys, tmp_path):
        target = tmp_path / "root.svg"
        code, _, _ = run(
            capsys, "compute", "--newton", "4,5", "--surgery", "2/1",
            "--format", "svg", "--out", str(target),
        )
        assert code == 0
        for a in (0, 1):
            assert (tmp_path / f"root_a{a}.svg").exists()

    def test_svg_drawn_once_per_distinct_tau(self, capsys, monkeypatch, tmp_path):
        # 256 classes, 6 distinct taus: each root is built and drawn once,
        # and every class still gets the file of its own tau
        calls = {"render": 0, "root_from_tau": 0}
        for name in calls:
            def counting(*args, real=getattr(cli, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(cli, name, counting)
        code, _, _ = run(capsys, "compute", "--newton", "3,4", "--surgery", "256/251",
                         "--format", "svg", "--out", str(tmp_path / "root.svg"))
        assert code == 0
        assert calls == {"render": 6, "root_from_tau": 6}
        spec = cli.hfcore.SurgerySpec(knot_mod.from_newton_pairs([(3, 4)]), 256, 251)
        assert sorted(tmp_path.iterdir()) == sorted(tmp_path / f"root_a{a}.svg" for a in range(256))
        for same_tau in cli.hfcore.compute_runs(spec):
            for a in range(same_tau.start, same_tau.stop):
                assert (tmp_path / f"root_a{a}.svg").read_text() == render(root_from_tau(same_tau.tau))

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
        argv = ("compute", "--newton", "2,3", "--surgery", "1/1")
        monkeypatch.delenv("HFROOTS_LOG", raising=False)
        code, quiet_out, quiet_err = run(capsys, *argv)
        assert code == 0
        assert quiet_err == ""
        # the variable is read on every call: set after a first call, it still counts
        for level in ("info", "info", "DEBUG"):
            monkeypatch.setenv("HFROOTS_LOG", level)
            code, out, err = run(capsys, *argv)
            assert code == 0
            assert out == quiet_out
            assert re.fullmatch(r"hfroots INFO computed 1 spin\^c structures in \d+\.\d{3}s\n", err)


class TestAtomicOut:
    """`--out` gets a document only whole: a write that fails partway leaves
    the old file, or none, and no temporary beside it."""

    ALL = [
        ("compute", "--newton", "2,5", "--surgery", "12/5", "--spinc", "all", "--format", "json"),
        ("compute", "--newton", "2,5", "--surgery", "12/5", "--spinc", "all", "--format", "text"),
        ("verify", "--newton", "2,3", "--surgery", "7/5", "--spinc", "all", "--oracle", "both", "--format", "json"),
        ("verify", "--newton", "2,3", "--surgery", "7/5", "--spinc", "all", "--oracle", "both", "--format", "text"),
        ("verify", "--lens", "7/3", "--format", "json"),
        ("knot", "--newton", "2,5", "--format", "text"),
    ]
    SVG_ALL = ("compute", "--newton", "2,5", "--surgery", "12/5", "--spinc", "all", "--format", "svg")

    @staticmethod
    def written(capsys, argv, out):
        """Exit code and {file name: bytes} of `argv` run with --out in the directory `out`."""
        out.mkdir(exist_ok=True)
        code, stdout, _ = run(capsys, *argv, "--out", str(out / "doc.out"))
        assert stdout == ""
        return code, {f.name: f.read_bytes() for f in out.iterdir()}

    @staticmethod
    def fail_writes_after(monkeypatch, whole):
        """Let `whole` file writes of cli through, then write half of the next
        text and raise OSError(ENOSPC)."""
        real, count = open, [0]

        class Partial:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                count[0] += 1
                if count[0] <= whole:
                    return self.fh.write(text)
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Partial(real(*args, **kwargs)), raising=False)

    @pytest.mark.parametrize("argv", ALL, ids=["compute-json", "compute-text", "verify-json", "verify-text",
                                               "verify-lens", "knot"])
    def test_a_failed_write_leaves_the_old_file(self, capsys, monkeypatch, tmp_path, argv):
        (tmp_path / "doc.out").write_bytes(b"old document\n")
        self.fail_writes_after(monkeypatch, 0)
        code, files = self.written(capsys, argv, tmp_path)
        assert code == 1
        assert files == {"doc.out": b"old document\n"}
        monkeypatch.undo()
        code, files = self.written(capsys, argv, tmp_path)
        assert code == 0 and [*files] == ["doc.out"] and files["doc.out"] != b"old document\n"

    def test_a_new_file_that_fails_is_removed(self, capsys, monkeypatch, tmp_path):
        # a new file goes through the temporary too: a fault leaves no file
        self.fail_writes_after(monkeypatch, 0)
        code, out, err = run(capsys, *self.ALL[0], "--out", str(tmp_path / "doc.json"))
        assert (code, out, err) == (1, "", "error: [Errno 28] No space left on device\n")
        assert [*tmp_path.iterdir()] == []
        monkeypatch.undo()
        missing = tmp_path / "missing" / "doc.json"
        code, out, err = run(capsys, *self.ALL[0], "--out", str(missing))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"  # the path given
        assert [*tmp_path.iterdir()] == []

    def test_a_failed_rename_names_the_path_given(self, capsys, monkeypatch, tmp_path):
        # the rename's error names the temporary and the target; the message
        # names --out alone, and the temporary is gone
        target = tmp_path / "doc.out"
        target.write_text("old document\n")

        def busy(src, dst):
            raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, dst)

        monkeypatch.setattr(cli.os, "replace", busy)
        code, out, err = run(capsys, "knot", "--newton", "2,5", "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.EBUSY}] {os.strerror(errno.EBUSY)}: {str(target)!r}\n"
        assert [*tmp_path.iterdir()] == [target] and target.read_text() == "old document\n"

    def test_a_replaced_file_keeps_its_mode(self, capsys, tmp_path):
        code, expected, _ = run(capsys, "knot", "--newton", "2,5")
        target = tmp_path / "doc.out"
        target.write_text("old document\n")
        target.chmod(0o640)
        code, out, err = run(capsys, "knot", "--newton", "2,5", "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text() == expected
        assert stat.S_IMODE(target.stat().st_mode) == 0o640 and [*tmp_path.iterdir()] == [target]

    def test_a_read_only_file_is_refused(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "doc.out"
        target.write_text("old document\n")
        target.chmod(0o444)
        if os.access(target, os.W_OK):
            # the superuser may write any file; answer as the kernel does a user
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        code, out, err = run(capsys, "knot", "--newton", "2,5", "--out", str(target))
        assert (code, out, err) == (1, "", f"error: [Errno 13] Permission denied: {str(target)!r}\n")
        assert target.read_text() == "old document\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o444 and [*tmp_path.iterdir()] == [target]

    def test_dev_stdout_redirected_to_a_file_is_written_in_place(self, capsys, tmp_path):
        # /dev/stdout resolves to the file stdout is redirected to; that file
        # is written through, not replaced by another
        code, expected, _ = run(capsys, "knot", "--newton", "2,5")
        target = tmp_path / "doc.out"
        target.write_text("old document\n")
        target.chmod(0o640)
        inode = target.stat().st_ino
        src = Path(cli.__file__).resolve().parent.parent
        with open(target, "w") as fh:
            subprocess.run([sys.executable, "-m", "hfroots", "knot", "--newton", "2,5", "--out", "/dev/stdout"],
                           env=dict(os.environ, PYTHONPATH=str(src)), stdout=fh, check=True)
        assert target.read_text() == expected
        assert target.stat().st_ino == inode and stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [*tmp_path.iterdir()] == [target]

    def test_a_pipe_is_written_in_place(self, capsys, tmp_path):
        # a path that is no regular file gets the text itself; renaming a
        # temporary over it would replace the pipe with a file
        code, expected, _ = run(capsys, "knot", "--newton", "2,5")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        code, out, err = run(capsys, "knot", "--newton", "2,5", "--out", str(pipe))
        reader.join(timeout=30)
        assert (code, out, err) == (0, "", "")
        assert got == [expected]
        assert stat.S_ISFIFO(pipe.stat().st_mode) and [*tmp_path.iterdir()] == [pipe]

    def test_a_link_keeps_pointing_at_the_new_text(self, capsys, tmp_path):
        # the file a link names is replaced, beside itself; the link stays
        code, expected, _ = run(capsys, "knot", "--newton", "2,5")
        (tmp_path / "docs").mkdir()
        target, link = tmp_path / "docs" / "doc.out", tmp_path / "doc.out"
        target.write_text("old document\n")
        link.symlink_to(target)
        code, out, err = run(capsys, "knot", "--newton", "2,5", "--out", str(link))
        assert (code, out, err) == (0, "", "")
        assert link.is_symlink() and link.read_text() == target.read_text() == expected
        assert sorted(tmp_path.rglob("*")) == sorted([tmp_path / "docs", target, link])

    def test_svg_all_keeps_the_files_already_written(self, capsys, monkeypatch, tmp_path):
        # a file per class: a fault at the third leaves the first two whole
        code, before = self.written(capsys, self.SVG_ALL, tmp_path / "before")
        assert code == 0 and len(before) == 12
        self.fail_writes_after(monkeypatch, 2)
        code, after = self.written(capsys, self.SVG_ALL, tmp_path / "after")
        assert code == 1
        assert after == {name: before[name] for name in ("doc_a0.out", "doc_a1.out")}


class TestRunWriters:
    """`compute` and `verify` take the formula side one run of equal tau at a time."""

    ALL = [
        ("compute", "--newton", "2,5", "--surgery", "12/5", "--spinc", "all", "--format", "json"),
        ("compute", "--newton", "2,5", "--surgery", "12/5", "--spinc", "all", "--format", "text"),
        ("compute", "--newton", "2,5", "--surgery", "12/5", "--spinc", "all", "--format", "svg"),
        ("verify", "--newton", "2,3", "--surgery", "7/5", "--spinc", "all", "--oracle", "both", "--format", "json"),
        ("verify", "--newton", "2,3", "--surgery", "7/5", "--spinc", "all", "--oracle", "both", "--format", "text"),
    ]

    @staticmethod
    def written(capsys, argv, out):
        """Exit code and {file name: bytes} of `argv` run with --out in the empty directory `out`."""
        out.mkdir()
        code, stdout, _ = run(capsys, *argv, "--out", str(out / "doc.out"))
        assert stdout == ""
        return code, {f.name: f.read_bytes() for f in out.iterdir()}

    @pytest.mark.parametrize("argv", ALL, ids=["compute-json", "compute-text", "compute-svg", "verify-json",
                                               "verify-text"])
    def test_all_classes_build_no_spinc_result(self, capsys, monkeypatch, tmp_path, argv):
        # every writer and verify's loop read the runs of compute_runs; a
        # record built per class, a run of one from compute_run, would be a
        # second path beside them
        code, before = self.written(capsys, argv, tmp_path / "before")
        assert code == 0 and before

        def refuse(spec, a):
            raise AssertionError(f"a record was built for the class a = {a}")

        monkeypatch.setattr(cli.hfcore, "compute_run", refuse)
        assert self.written(capsys, argv, tmp_path / "after") == (0, before)

    def test_text_groups_each_run_once(self, capsys, monkeypatch):
        # 599 classes in 2 runs: the grouped towers, like the tau text and
        # the sorted ker and coker offsets, are built once per run
        spec = cli.hfcore.SurgerySpec(knot_mod.from_newton_pairs([(2, 3)]), 599, 397)
        runs = cli.hfcore.compute_runs(spec)
        assert len(runs) == 2
        calls = []
        real = cli.grouped

        def counting(towers):
            calls.append(towers)
            return real(towers)

        argv = ("compute", "--newton", "2,3", "--surgery", "599/397", "--format", "text")
        code, before, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "grouped", counting)
        code, after, _ = run(capsys, *argv)
        assert code == 0 and after == before
        assert before.count("spin^c a = ") == 599
        assert len(calls) == len(runs)

    @pytest.mark.parametrize("argv", [
        ("compute", "--format", "json"), ("compute", "--format", "text"), ("compute", "--format", "svg"),
        ("verify", "--format", "json"),
    ])
    def test_rank_identity_is_checked_before_any_output(self, capsys, monkeypatch, tmp_path, argv):
        # a depth planted one too deep in the first run breaks the ker U rank
        # identity: exit 3, no --out file and nothing on stdout
        real = cli.hfcore._runs

        def deeper(spec, start, stop):
            first, *rest = real(spec, start, stop)
            parts = {name: getattr(first, name) for name in first.__slots__}
            return [type(first)(**{**parts, "depth": first.depth + 1}), *rest]

        monkeypatch.setattr(cli.hfcore, "_runs", deeper)
        command, *flags = argv
        code, out, err = run(capsys, command, "--newton", "4,5", "--surgery", "2/1", *flags,
                             "--out", str(tmp_path / "doc.out"))
        assert (code, out) == (3, "")
        assert err == "internal invariant failure: ker U rank 14 != p + (2 delta - 1) q = 13\n"
        assert [*tmp_path.iterdir()] == []


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

    def test_golden_verify_text(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--newton", "2,3", "--surgery", "2/1", "--oracle", "both"
        )
        assert code == 0
        assert out == (GOLDEN / "verify_23_2_1.txt").read_text()

    def test_lens(self, capsys):
        code, out, _ = run(capsys, "verify", "--lens", "7/3")
        assert code == 0
        assert "AGREE" in out

    @pytest.mark.parametrize("lens_pq", ["7/3", "1/1"])
    @pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
    def test_golden_lens(self, capsys, lens_pq, fmt, ext):
        # at 1/1 d = 0 is "0/1" in JSON and a bare 0 in text
        code, out, _ = run(capsys, "verify", "--lens", lens_pq, "--format", fmt)
        assert code == 0
        assert out == (GOLDEN / f"verify_lens_{lens_pq.replace('/', '_')}.{ext}").read_text()

    @pytest.mark.parametrize("route", ["lens_d_invariants", "lens_d_classical"])
    def test_lens_one_unit_off_exits_2(self, capsys, monkeypatch, route):
        # one numerator of either route raised by one unit of its denominator
        real = getattr(lens, route)

        def raised(nums):
            return [nums[0] + 1, *nums[1:]]

        if route == "lens_d_invariants":  # numerators over 2p
            monkeypatch.setattr(lens, route, lambda p, q: raised(real(p, q)))
        else:  # (numerators, their denominator)
            monkeypatch.setattr(lens, route, lambda p, q: (raised(real(p, q)[0]), real(p, q)[1]))
        code, out, _ = run(capsys, "verify", "--lens", "7/3", "--format", "json")
        assert code == 2
        assert json.loads(out)["verification"]["multiset_ok"] is False
        code, out, _ = run(capsys, "verify", "--lens", "7/3")
        assert code == 2
        assert out.endswith("result: DISAGREE\n")

    @pytest.mark.parametrize("extra", [
        ["--newton", "2,3"], ["--surgery", "1/1"], ["--newton", "2,3", "--surgery", "1/1"],
        ["--spinc", "5"], ["--spinc", "all"], ["--oracle", "sublevel"], ["--oracle", "laufer"],
        ["--spinc", "5", "--oracle", "sublevel"],
    ])
    def test_lens_refuses_surgery_flags(self, capsys, extra):
        # the surgery would otherwise go unverified while the lens check passes,
        # and a class or an oracle would be asked for and silently ignored
        code, out, err = run(capsys, "verify", "--lens", "7/3", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --lens ")
        for flag in extra[0::2]:
            assert flag in err

    def test_lens_single_class(self, capsys):
        code, out, _ = run(capsys, "verify", "--lens", "1/1", "--format", "json")
        assert code == 0
        assert json.loads(out)["verification"]["multiset_ok"] is True

    @pytest.mark.parametrize("lens", ["1/0", "1/-5", "1/2", "3/4"])
    def test_lens_rejects_invalid(self, capsys, lens):
        # p = 1 is S^3 only with q = 1; other q are refused like 3/4
        code, out, err = run(capsys, "verify", "--lens", lens)
        assert code == 1
        assert out == ""
        assert err.startswith("error: lens parameters need 0 < q < p")

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

    @pytest.mark.parametrize("index", ["3", "-1"])
    def test_spinc_out_of_range_builds_no_graph(self, capsys, monkeypatch, index):
        # the formula side's range check comes before either plumbing graph
        def refuse(*args):
            raise AssertionError("a plumbing graph was built for an index outside [0, p)")

        monkeypatch.setattr(pl, "embedded_resolution", refuse)
        monkeypatch.setattr(pl, "surgery_graph", refuse)
        code, out, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "3/1", "--spinc", index)
        assert code == 1
        assert out == ""
        assert f"spin^c index a={index} outside [0, 3)" in err

    def test_single_class_matches_all(self, capsys):
        argv = ("verify", "--newton", "2,3", "--surgery", "3/1", "--oracle", "both", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        full = json.loads(out)
        for a in range(3):
            code, out, _ = run(capsys, *argv, "--spinc", str(a))
            assert code == 0
            single = json.loads(out)
            assert single["verification"].pop("per_spinc") == [full["verification"]["per_spinc"][a]]
            assert single == {**full, "verification": {"oracle": "both", "ok": True}}

    def test_agreeing_classes_read_no_fraction_shift(self, capsys, monkeypatch):
        # both shift checks compare r_a's two ints: the lattice pair as a
        # tuple, never taken apart; the shifts are reduced and written as
        # n/d only to name those of a class that disagrees
        def refuse(*args):
            raise AssertionError(f"a shift was named for {args}")

        class Sealed(tuple):
            """A pair that compares as a tuple and refuses to be read."""

            def __iter__(self):
                raise AssertionError(f"the lattice shift {tuple.__repr__(self)} was taken apart")

            __getitem__ = __iter__

        real = pl.lattice_grading_shift
        monkeypatch.setattr(pl, "lattice_grading_shift", lambda gm, k_pairs: Sealed(real(gm, k_pairs)))
        monkeypatch.setattr(cli, "_ratio", refuse)
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "12/7", "--oracle", "both")
        assert code == 0
        assert out.count("shift ok, tau ok, sublevel ok") == 12

    def test_text_report_builds_no_json_blocks(self, capsys, monkeypatch):
        # the "knot", "surgery" and "graphs" blocks are built only for a JSON
        # document, whose two graphs are described once each
        def refuse(*args):
            raise AssertionError(f"a JSON block was built for {args}")

        for owner, name in ((pl, "graph_doc"), (cli, "_knot_block"), (cli, "_surgery_block")):
            monkeypatch.setattr(owner, name, refuse)
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "7/5")
        assert code == 0
        assert out.endswith("result: AGREE\n")
        monkeypatch.undo()
        described = []
        real = pl.graph_doc
        monkeypatch.setattr(pl, "graph_doc", lambda g: described.append(g.n) or real(g))
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "7/5", "--format", "json")
        assert code == 0
        assert sorted(described) == [3, 6]  # the resolution graph of the trefoil, and the chain [2, 2, 3] at v0
        assert json.loads(out)["verification"]["ok"] is True

    def test_lattice_mismatch_names_the_pair(self, capsys, monkeypatch):
        # a lattice shift that differs from r_a in its denominator alone
        # fails the tuple comparison and is written as n/d, even when d = 1
        one = cli.hfcore.compute_run(cli.hfcore.SurgerySpec(cli.from_newton_pairs([(2, 3)]), 3, 1), 2)
        num, den = one.r_num[0], one.r_den[0]
        monkeypatch.setattr(pl, "lattice_grading_shift", lambda gm, k_pairs: (num, 1))
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "3/1", "--spinc", "2", "--format", "json")
        assert code == 2
        entry = json.loads(out)["verification"]["per_spinc"][0]
        assert den != 1 and entry["shift_lattice_ok"] is False and entry["shift_formula_ok"] is True
        assert entry["shifts"] == {"r_a": f"{num}/{den}", "lattice": f"{num}/1", "formula": f"{num}/{den}"}

    def test_long_surgery_chain(self, capsys):
        # -200/199 hangs a chain of 199 vertices of weight -2 at v0: 202
        # vertices and 200 classes, each one tree solve
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "200/199", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["ok"] is True
        assert len(doc["verification"]["per_spinc"]) == 200

    def test_laufer_two_classes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--newton", "4,5", "--surgery", "2/1", "--oracle", "laufer"
        )
        assert code == 0
        assert "a = 0: shift ok, tau ok" in out
        assert "a = 1: shift ok, tau ok" in out

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(  # numerators over 2p, here 12345 for every class
            lens, "grading_shift_formula", lambda p, q, d, a: [12345 * 2 * p] * (a + 1)
        )
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/1")
        assert code == 2
        assert "result: DISAGREE" in out
        # the three shifts are named, in the text and in the JSON document
        one = cli.hfcore.compute_run(cli.hfcore.SurgerySpec(cli.from_newton_pairs([(2, 3)]), 1, 1), 0)
        r_a = f"{one.r_num[0]}/{one.r_den[0]}"
        assert f"    shifts: r_a = {r_a}, lattice = {r_a}, formula = 12345/1\n" in out
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/1", "--format", "json")
        assert code == 2
        entry = json.loads(out)["verification"]["per_spinc"][0]
        assert entry["shifts"] == {"r_a": r_a, "lattice": r_a, "formula": "12345/1"}
        assert "laufer_first_diff" not in entry

    def test_laufer_mismatch_names_the_first_difference(self, capsys, monkeypatch):
        # -2/1 surgery on T(2,5), class 0 (the one whose pairings all vanish):
        # chi(x(10)) lowered by 100 on the Laufer route moves tau(2) and
        # leaves the block maxima around it
        real = pl.class_laufer_values

        def lowered(gm, l_pairs, chi_gf, i_max):
            values = real(gm, l_pairs, chi_gf, i_max)
            return values if any(l_pairs) else values[:10] + [values[10] - 100] + values[11:]

        monkeypatch.setattr(pl, "class_laufer_values", lowered)
        argv = ("verify", "--newton", "2,5", "--surgery", "2/1")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 2
        per = json.loads(out)["verification"]["per_spinc"]
        tau = cli.hfcore.compute_run(cli.hfcore.SurgerySpec(cli.from_newton_pairs([(2, 5)]), 2, 1), 0).tau
        assert len(tau) == 5
        assert per[0]["laufer_tau_ok"] is False
        assert per[0]["laufer_first_diff"] == {"index": 2, "lattice": tau[2] - 100, "formula": tau[2]}
        assert "shifts" not in per[0]
        assert per[1] == {"a": 1, "shift_lattice_ok": True, "shift_formula_ok": True, "laufer_tau_ok": True}
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert f"  a = 0: shift ok, tau MISMATCH\n    tau first differs at index 2: lattice {tau[2] - 100}, formula {tau[2]}\n" in out

    def test_first_difference_past_an_end(self):
        assert cli._first_diff((0, 1, 2), (0, 1)) == {"index": 2, "lattice": 2, "formula": None}
        assert cli._first_diff((0,), (0, -1, 0)) == {"index": 1, "lattice": None, "formula": -1}

    def test_sublevel_mismatch_names_the_first_difference(self, capsys, monkeypatch):
        # -1/1 surgery on the trefoil: two leaves at level 0 joined at level 1;
        # the fake lattice root joins them one level higher
        monkeypatch.setattr(pl, "sublevel_root", lambda g, kb, n_max, box: GradedRoot([0, 0, 1, 1, 2], [2, 3, 4, 4, None]))
        argv = ("verify", "--newton", "2,3", "--surgery", "1/1", "--oracle", "sublevel")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 2
        entry = json.loads(out)["verification"]["per_spinc"][0]
        assert entry["sublevel"] == "disagree"
        assert entry["sublevel_first_diff"] == {"level": 1, "lattice": 2, "formula": 1}
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert "  a = 0: shift ok, sublevel disagree\n    roots first differ at level 1: lattice 2 vertices, formula 1\n" in out

    def test_root_first_difference_at_the_top(self):
        # equal below, but one root stops a level lower than the other
        two = GradedRoot([0, 1], [1, None]).level_keys()
        assert cli._root_first_diff(GradedRoot([0], [None]).level_keys(), two) == {
            "level": 1, "lattice": 0, "formula": 1}
        assert cli._root_first_diff(GradedRoot([1], [None]).level_keys(), two) == {
            "level": 0, "lattice": 0, "formula": 1}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=20), st.integers(0, 10**6), st.integers(-2, 2))
    def test_root_first_difference_matches_nested_keys(self, vals, at, step):
        # a tau and one value of it moved: the same level and counts as
        # comparing the nested subtree keys
        bumped = list(vals)
        bumped[at % len(vals)] += step
        a, b = root_from_tau(tuple(vals)), root_from_tau(tuple(bumped))
        keys_a, keys_b = a.level_keys(), b.level_keys()
        if keys_a != keys_b:
            assert cli._root_first_diff(keys_a, keys_b) == root_first_diff_nested(a, b)

    def test_root_first_difference_of_tall_roots(self):
        # height 6001: sorting nested subtree keys would overflow the recursion limit
        spec = cli.hfcore.SurgerySpec(knot_mod.from_newton_pairs([(4, 5)]), 1, 400)
        vals = list(cli.hfcore.compute_run(spec, 0).tau)
        root = root_from_tau(tuple(vals))
        keys = root.level_keys()

        def lowered(i):
            return root_from_tau(tuple(vals[:i] + [vals[i] - 1] + vals[i + 1:])).level_keys()

        assert cli._root_first_diff(keys, lowered(vals.index(min(vals)))) == {
            "level": root.min_level() - 1, "lattice": 0, "formula": 1}
        # a strict local minimum halfway along, lowered: one more run one level below it
        i = next(i for i in range(len(vals) // 2, len(vals) - 1) if vals[i - 1] > vals[i] < vals[i + 1])
        level = vals[i] - 1
        count = root.chi.count(level)
        assert cli._root_first_diff(keys, lowered(i)) == {"level": level, "lattice": count, "formula": count + 1}

    def test_sublevel_leak_exits_3(self, capsys, monkeypatch):
        # a point the enumeration skips is an internal fault, not a mismatch
        real = pl._ellipsoid_points
        monkeypatch.setattr(pl, "_ellipsoid_points", lambda *args: real(*args)[1:])
        code, out, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "2/1", "--oracle", "sublevel")
        assert code == 3
        assert out == ""
        assert err.startswith("internal invariant failure: ")

    def test_internal_failure_exits_3(self, capsys, monkeypatch):
        # one class (--spinc N) takes its formula side from compute_run
        from hfroots import InternalInvariantError
        import hfroots.cli as cli_mod

        def boom(spec, a):
            raise InternalInvariantError("forced")

        monkeypatch.setattr(cli_mod.hfcore, "compute_run", boom)
        code, _, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/1", "--spinc", "0")
        assert code == 3
        assert "internal invariant failure" in err

    def test_internal_failure_in_compute_all_exits_3(self, capsys, monkeypatch):
        # every class (--spinc all, the default) takes it from compute_runs,
        # so a broken rank identity there stops verify
        from hfroots import InternalInvariantError

        def boom(spec):
            raise InternalInvariantError("ker U rank forced off")

        monkeypatch.setattr(cli.hfcore, "compute_runs", boom)
        monkeypatch.setattr(cli.hfcore, "compute_run", lambda spec, a: pytest.fail("compute_run called"))
        for extra in ((), ("--spinc", "all")):
            code, out, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "3/1", *extra)
            assert code == 3
            assert out == ""
            assert err == "internal invariant failure: ker U rank forced off\n"

    def test_pairings_built_once_per_class(self, capsys, monkeypatch):
        # the shift, the Laufer run and the sublevel root each read their half
        real, built = pl.class_pairings, []

        def counting(gm, digits):
            built.append(digits)
            return real(gm, digits)

        monkeypatch.setattr(pl, "class_pairings", counting)
        code, out, _ = run(capsys, "verify", "--newton", "2,3", "--surgery", "3/1", "--oracle", "both", "--format", "json")
        assert code == 0
        assert built == [(0,), (1,), (2,)]  # classes 0, 1, 2 of -3/1 = [3]
        assert [e["sublevel"] for e in json.loads(out)["verification"]["per_spinc"]] == ["ok"] * 3

    def test_all_classes_share_one_module_per_tau(self, capsys, monkeypatch):
        # -7/1 on the trefoil: classes 1..6 all have tau = [0], so verify
        # builds two modules for seven classes, and its document is unchanged
        counted = []
        real = cli.hfcore.module_from_tau

        def counting(tau):
            counted.append(tau)
            return real(tau)

        argv = ("verify", "--newton", "2,3", "--surgery", "7/1", "--format", "json")
        code, before, _ = run(capsys, *argv)
        monkeypatch.setattr(cli.hfcore, "module_from_tau", counting)
        code, after, _ = run(capsys, *argv)
        assert code == 0 and after == before
        assert len(json.loads(after)["verification"]["per_spinc"]) == 7
        assert sorted(counted) == [(0,), (0, 1, 0)]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["knot"],  # no --newton
            ["verify", "--newton", "2,3", "--surgery", "1/1", "--oracle", "nope"],
            ["compute", "--newton", "2,3", "--surgery", "1/1", "--format", "pdf"],
            ["compute", "--newton", "2,3", "--surgery", "-3/-1"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # not 2, which means a verification mismatch
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error: " in err

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["compute", "--newton", "2,3", "--surgery", "-3/2"], "--surgery takes the coefficient as a positive P/Q, which means -P/Q; got '-3/2'"),
            (["compute", "--newton", "2,3", "--surgery=-3/2"], "--surgery takes the coefficient as a positive P/Q, which means -P/Q; got '-3/2'"),
            (["verify", "--newton", "2,3", "--surgery", "-1"], "--surgery takes the coefficient as a positive P/Q, which means -P/Q; got '-1'"),
            (["verify", "--lens", "-5/2"], "--lens takes the coefficient as a positive P/Q, which means -P/Q; got '-5/2'"),
            (["verify", "--lens=-5/2"], "--lens takes the coefficient as a positive P/Q, which means -P/Q; got '-5/2'"),
        ],
    )
    def test_signed_coefficient_names_the_rule(self, capsys, argv, shown):
        # without this, argparse reads "-3/2" as an option: "expected one argument"
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {shown}\n"

    @pytest.mark.parametrize("argv", [["knot", "--newton", "-2,3"], ["knot", "--newton=-2,3"]])
    def test_a_value_may_start_with_a_minus_sign(self, capsys, argv):
        # the next argument is the value whatever its first character, so
        # both forms reach the Newton pair check
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: Newton pair 1: p_1 = -2 must be >= 2\n"

    def test_out_may_name_a_file_that_starts_with_a_minus_sign(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "knot", "--newton", "2,3", "--format", "json", "--out", "-x.json")
        assert (code, out, err) == (0, "", "")
        assert json.loads((tmp_path / "-x.json").read_text())["knot"]["delta"] == 1

    @pytest.mark.parametrize("argv, flag", [
        (["knot", "--newton", "2,3", "--newton", "2,5"], "--newton"),
        (["knot", "--newton", "2,3", "--format", "json", "--format=text"], "--format"),
        (["compute", "--newton", "2,3", "--surgery", "3/1", "--newton", "2,5", "--spinc", "0", "--format", "json"],
         "--newton"),
        (["compute", "--newton", "2,3", "--surgery", "3/1", "--out", "a", "--out", "b"], "--out"),
        (["verify", "--newton", "2,3", "--surgery", "3/1", "--oracle", "both", "--oracle", "laufer"], "--oracle"),
        (["verify", "--lens", "7/3", "--lens=5/2"], "--lens"),
    ])
    def test_a_repeated_flag_exits_1(self, capsys, argv, flag):
        # a second value must not replace the first silently: the first
        # compute argv would compute the (2,5) knot
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {flag} given twice\n"

    @pytest.mark.parametrize("argv, shown", [
        (["compute", "--newton", "2,3", "--surg", "3/1"], "unknown argument --surg for compute"),
        (["knot", "--newton", "2,3", "--spinc", "0"], "unknown argument --spinc for knot"),
        (["knot", "--newton", "2,3", "extra"], "unknown argument extra for knot"),
        (["knot", "--newton"], "--newton expects a value"),
        (["render", "--newton", "2,3"], "expected a command: knot, compute or verify, got 'render'"),
        ([], "expected a command: knot, compute or verify"),
        (["compute", "--newton", "2,3", "--format=pdf"], "--format takes text, json, svg, got 'pdf'"),
        (["compute", "--format", "json"], "compute needs --newton and --surgery"),
    ])
    def test_usage_errors_name_the_argument(self, capsys, argv, shown):
        # flags match in full: --surg is an unknown flag, not --surgery
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {shown}\n"

    @pytest.mark.parametrize("argv", [
        ("knot", "--newton", "2,3", "--out"),
        ("compute", "--newton", "2,3", "--surgery", "2/1", "--format", "svg", "--out"),
        ("compute", "--newton", "2,3", "--surgery", "2/1", "--spinc", "0", "--format", "json", "--out"),
        ("verify", "--lens", "7/3", "--out"),
        ("knot", "--newton"),
        ("knot", "--newton", "2,3", "--format"),
        ("compute", "--newton", "2,3", "--surgery"),
        ("compute", "--newton", "2,3", "--surgery", "2/1", "--spinc"),
        ("verify", "--newton", "2,3", "--surgery", "3/1", "--oracle"),
        ("verify", "--lens"),
    ], ids=["knot-out", "compute-svg-out", "compute-json-out", "verify-lens-out", "newton", "format", "surgery",
            "spinc", "oracle", "lens"])
    @pytest.mark.parametrize("form", ["=", "next"])
    def test_an_empty_value_is_a_usage_error(self, capsys, monkeypatch, tmp_path, argv, form):
        # `--out=` is no --out: it must not send the document to stdout
        monkeypatch.chdir(tmp_path)
        *head, flag = argv
        code, out, err = run(capsys, *head, *([f"{flag}="] if form == "=" else [flag, ""]))
        assert (code, out, err) == (1, "", f"error: {flag} expects a value\n")
        assert [*tmp_path.iterdir()] == []

    @pytest.mark.parametrize("command", ["compute", "verify"])
    @pytest.mark.parametrize("index", ["x", "1.5", "+1", " 1", "1_0", "\uff11", "-\u0661"])
    def test_malformed_spinc_names_the_flag(self, capsys, command, index):
        code, out, err = run(capsys, command, "--newton", "2,3", "--surgery", "3/1", "--spinc", index)
        assert code == 1
        assert out == ""
        assert err == f"error: --spinc expects a spin^c index or 'all', got {index!r}\n"

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["compute", "--newton", "2,3", "--surgery", "1_0/3"], "--surgery expects P or P/Q, got '1_0/3'"),
            (["knot", "--newton", "\uff12,\uff13"], "--newton expects a comma list of integers, got '\uff12,\uff13'"),
            (["knot", "--newton", "2, 3"], "--newton expects a comma list of integers, got '2, 3'"),
            (["verify", "--lens", "+7/3"], "--lens expects P or P/Q, got '+7/3'"),
        ],
    )
    def test_integers_are_ascii_decimals(self, capsys, argv, shown):
        # int() would read these as -10/3 surgery and the trefoil
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {shown}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"], ["compute", "--newton", "2,3", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: hfroots" in capsys.readouterr().out

    @pytest.mark.parametrize("newton", ["99999999999999,100000000000001", "2,100000001"])
    def test_semigroup_table_cap_exits_4(self, capsys, monkeypatch, newton):
        def allocate(gens, bound):
            raise AssertionError(f"a semigroup table to {bound} was allocated")

        monkeypatch.setattr(knot_mod, "_membership", allocate)
        code, out, err = run(capsys, "knot", "--newton", newton)
        assert code == 4
        assert out == ""
        assert re.fullmatch(r"error: the semigroup table needs mf \+ 11 = \d+ entries, over the cap of 2000000\n", err)

    def test_laufer_step_cap_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(pl, "_LAUFER_STEP_CAP", 3)
        code, out, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/1", "--oracle", "laufer")
        assert code == 4
        assert out == ""
        assert err == "error: Laufer iteration exceeded its step cap of 3 additions\n"

    @pytest.mark.parametrize("side", ["resolution", "chain"])
    def test_laufer_step_cap_bounds_each_run(self, capsys, monkeypatch, side):
        # -1/12 surgery on the trefoil: its one class runs 72 steps of v0;
        # the resolution side takes 132 additions, the 12-vertex chain 150,
        # so a cap of 132 passes the resolution run and stops the chain's
        knot = cli.from_newton_pairs([(2, 3)])
        gf = pl.embedded_resolution(knot)
        i_max = (cli.hfcore.compute_run(cli.hfcore.SurgerySpec(knot, 1, 12), 0).depth + 1) * knot.mf
        resolution_steps = sum(laufer_run_rescan(gf, [0] * gf.n, i_max)[1][-1])
        cap = resolution_steps - 1 if side == "resolution" else resolution_steps
        real, roots_run = pl._laufer_run, []

        def recorded(g, offsets, i_max, roots, base):
            roots_run.append(tuple(roots))
            return real(g, offsets, i_max, roots, base)

        monkeypatch.setattr(pl, "_laufer_run", recorded)
        monkeypatch.setattr(pl, "_LAUFER_STEP_CAP", cap)
        code, out, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/12")
        assert code == 4
        assert out == ""
        assert err == f"error: Laufer iteration exceeded its step cap of {cap} additions\n"
        assert roots_run[-1] == (gf.adj[gf.distinguished] if side == "resolution" else (gf.n,))
        assert len(roots_run) == (1 if side == "resolution" else 2)

    def test_sublevel_point_cap_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(pl, "_SUBLEVEL_POINT_CAP", 2)
        code, out, err = run(capsys, "verify", "--newton", "2,3", "--surgery", "1/1", "--oracle", "sublevel")
        assert code == 4
        assert out == ""
        assert err == "error: sublevel set exceeds the enumeration cap of 2 points\n"

    def test_tower_disagreement_exits_3(self, capsys, monkeypatch):
        # a module whose tower grade is not 2 min tau is caught once per tau,
        # for every class (--spinc all) and for one (--spinc N)
        real = cli.hfcore.module_from_tau

        def wrong_tower(tau):
            tower, towers = real(tau)
            return tower + 2, towers

        monkeypatch.setattr(cli.hfcore, "module_from_tau", wrong_tower)
        for extra in ((), ("--spinc", "0"), ("--spinc", "2")):
            code, out, err = run(capsys, "compute", "--newton", "2,3", "--surgery", "3/1", *extra)
            assert code == 3
            assert out == ""
            assert err == "internal invariant failure: tower grade disagrees with 2 min tau\n"

    def test_index_error_is_not_an_input_error(self, capsys, monkeypatch):
        # no input path raises IndexError, so one is a fault of the program
        # and surfaces with its traceback instead of exit 1
        def boom(spec):
            raise IndexError("forced")

        monkeypatch.setattr(cli.hfcore, "compute_runs", boom)
        with pytest.raises(IndexError, match="forced"):
            main(["compute", "--newton", "2,3", "--surgery", "3/1"])
        assert capsys.readouterr().err == ""


SMALL = st.integers(-3, 12)
NONPOSITIVE = st.integers(-3, 0)
VALID_NEWTON = ["2,3", "2,5", "3,4", "2,3,2,1"]
# each is an int to int(), but not an optional '-' and ASCII digits
NOT_DECIMAL = ["1_0", " 3", "3 ", "+3", "\uff13", "\u0663", "3\n"]
BAD_NEWTON = st.one_of(
    st.integers(0, 2).flatmap(lambda k: st.lists(SMALL, min_size=2 * k + 1, max_size=2 * k + 1)).map(
        lambda xs: ",".join(map(str, xs))
    ),  # odd length
    st.tuples(NONPOSITIVE, SMALL, st.booleans(), st.booleans()).map(
        lambda t: ("2,3," if t[3] else "") + (f"{t[0]},{t[1]}" if t[2] else f"{t[1]},{t[0]}")
    ),  # a zero or negative entry
    st.tuples(SMALL, st.sampled_from(["x", "2.5", "", "3/2", " "] + NOT_DECIMAL)).map(lambda t: f"{t[0]},{t[1]}"),
)
VALID_FRACTION = st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda pq: gcd(*pq) == 1)
BAD_FRACTION = st.one_of(
    st.tuples(SMALL, SMALL, SMALL).map(lambda t: "/".join(map(str, t))),  # extra slash
    st.sampled_from(["1.5", "a/2", "2/x", "", "1//2", "/"]),
    st.tuples(st.sampled_from(NOT_DECIMAL), st.booleans()).map(lambda t: f"{t[0]}/2" if t[1] else f"3/{t[0]}"),
    st.tuples(NONPOSITIVE, SMALL).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(SMALL, NONPOSITIVE).map(lambda t: f"{t[0]}/{t[1]}"),
    NONPOSITIVE.map(str),
)


@st.composite
def malformed_argv(draw):
    """A knot, compute or verify argv with at least one malformed field: a
    bad value, an unknown choice or a missing required flag."""
    command = draw(st.sampled_from(["knot", "compute", "verify"]))
    flags = ["--newton", "--format"]
    if command != "knot":
        flags += ["--surgery", "--spinc"]
    if command == "verify":
        flags.append("--oracle")
    bad = draw(st.lists(st.sampled_from(flags + ["missing"]), min_size=1, max_size=2, unique=True))
    p, q = draw(VALID_FRACTION)
    choices = {
        "--newton": (BAD_NEWTON, st.sampled_from(VALID_NEWTON)),
        "--surgery": (BAD_FRACTION, st.just(f"{p}/{q}")),
        "--spinc": (
            st.one_of(st.integers(p, 12).map(str), st.integers(-3, -1).map(str), st.sampled_from(["x", "1.5", ""])),
            st.one_of(st.just("all"), st.integers(0, p - 1).map(str)),
        ),
        "--format": (st.sampled_from(["pdf", "JSON", ""]), st.sampled_from(["text", "json"])),
        "--oracle": (st.sampled_from(["nope", "all", ""]), st.sampled_from(["laufer", "sublevel", "both"])),
    }
    required = ["--newton"] + (["--surgery"] if command != "knot" else [])
    omit = draw(st.sampled_from(required)) if "missing" in bad else None
    argv = [command]
    for flag in flags:
        if flag != omit:
            argv += [flag, draw(choices[flag][0] if flag in bad else choices[flag][1])]
    return argv


class TestMalformedInput:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(malformed_argv())
    # one per integer flag, each value one that int() alone would take
    @example(["compute", "--newton", "2,+3", "--surgery", "3/1"])
    @example(["compute", "--newton", "2,3", "--surgery", "1_0/3"])
    @example(["compute", "--newton", "2,3", "--surgery", "3/1", "--spinc", " 1"])
    def test_exits_1_without_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code == 1, argv
        assert out == ""
        assert any("error: " in line for line in err.splitlines()), err
        assert "Traceback" not in err


class TestJsonWriter:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    def test_edge_values(self):
        for value in ({}, [], "", "\u00e9\U0001f600\"\\\n", 10**200, -(10**200), True, False, None,
                      {"a": {}, "b": [[], {}], "c": [True, None, 0, -1]}):
            assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [Fraction(1, 2), 0.5, [1, Fraction(3)], {"x": [0.0]}, (1, 2), {1: "key"}],
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


VALUE = st.text(st.sampled_from("=-,/ 19a") | st.characters(), max_size=6).filter(
    lambda t: not t.startswith("-"))  # argparse reads '-...' as a flag
TEXT_JSON = st.sampled_from(["text", "json"])
FLAG_VALUES = {
    "knot": {"--newton": VALUE, "--format": TEXT_JSON, "--out": VALUE},
    "compute": {"--newton": VALUE, "--surgery": VALUE, "--spinc": VALUE,
                "--format": st.sampled_from(["text", "json", "svg"]), "--out": VALUE},
    "verify": {"--newton": VALUE, "--surgery": VALUE, "--spinc": VALUE, "--lens": VALUE,
               "--oracle": st.sampled_from(["laufer", "sublevel", "both"]), "--format": TEXT_JSON, "--out": VALUE},
}
REQUIRED = {"knot": {"--newton"}, "compute": {"--newton", "--surgery"}, "verify": set()}


@st.composite
def valid_argv(draw):
    """A command and some of its flags, every required one among them, in
    any order, each as `--flag value` or `--flag=value`."""
    command = draw(st.sampled_from(sorted(FLAG_VALUES)))
    flags = FLAG_VALUES[command]
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if flag in REQUIRED[command] or draw(st.booleans()):
            value = draw(flags[flag])
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


class TestParserReuse:
    ARGVS = [
        ["compute", "--newton", "4,5", "--surgery", "2/1", "--spinc", "0"],
        ["knot", "--newton", "2,3", "--format", "json"],
        ["compute", "--newton", "4,5", "--surgery", "2/1"],
        ["verify", "--newton", "2,3", "--surgery", "3/1", "--spinc", "1", "--oracle", "both"],
        ["verify", "--lens", "7/3", "--format", "json"],
        ["compute", "--newton", "2,3", "--surgery", "6", "--format", "json"],
        ["verify", "--newton", "2,3", "--surgery", "3/1"],
        ["knot", "--newton", "2,2"],
        ["compute", "--newton", "2,3", "--surgery", "3/1", "--spinc", "1", "--format", "json"],
    ]
    ORACLE = argparse_parser()

    def test_interleaved_calls_match_fresh_ones(self, capsys, monkeypatch):
        # one process answers each argv, after all the ones before it, as a
        # fresh interpreter does
        monkeypatch.delenv("HFROOTS_LOG", raising=False)
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        fresh = []
        for argv in self.ARGVS:
            done = subprocess.run([sys.executable, "-m", "hfroots", *argv], env=env, capture_output=True, text=True)
            fresh.append((done.returncode, done.stdout, done.stderr))
        interleaved = [run(capsys, *argv) for argv in self.ARGVS]
        assert interleaved == fresh

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(valid_argv())
    def test_matches_the_argparse_parser(self, argv):
        ref = vars(self.ORACLE.parse_args(argv))
        assert ref.pop("command") == argv[0]
        if "" in ref.values():  # argparse takes an empty value; this parser refuses it as none
            with pytest.raises(ValueError, match=r"^--\w+ expects a value$") as exc:
                cli._parse_args(argv)
            assert ref[str(exc.value).split()[0][2:]] == ""
        else:
            assert vars(cli._parse_args(argv)) == ref

    def test_python_m_hfroots(self):
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        shown = subprocess.run([sys.executable, "-m", "hfroots", "--help"], env=env, capture_output=True, text=True)
        assert shown.returncode == 0
        assert shown.stdout.startswith("usage: hfroots")
        bare = subprocess.run([sys.executable, "-m", "hfroots"], env=env, capture_output=True, text=True)
        assert (bare.returncode, bare.stdout) == (1, "")
        assert bare.stderr.startswith("error: ") and bare.stderr.count("\n") == 1


class TestStartup:
    """The modules a fresh interpreter loads beyond a bare one, after
    `import hfroots.cli` and after one `main` call.  Gated on modules, never
    on seconds."""

    PROBE = (
        "import sys\n"
        "base = set(sys.modules)\n"
        "import hfroots.cli\n"
        "after_import = sorted(set(sys.modules) - base)\n"
        "code = hfroots.cli.main(sys.argv[1:])\n"
        "print([code, after_import, sorted(set(sys.modules) - base)])\n"
    )
    UNUSED = {"hfroots.plumbing", "hfroots.lens", "argparse", "dataclasses", "decimal", "fractions", "gettext",
              "inspect", "logging", "typing"}

    def loaded(self, tmp_path, *argv):
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        cmd = [sys.executable, "-c", self.PROBE, *argv, "--out", str(tmp_path / "doc")]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        code, after_import, after_main = ast.literal_eval(out.stdout)
        assert code == 0
        return set(after_import), set(after_main)

    @pytest.mark.parametrize("argv", [
        ["knot", "--newton", "2,3"],
        ["compute", "--newton", "2,3", "--surgery", "1/1", "--format", "json"],
        ["compute", "--newton", "4,5", "--surgery", "2/1", "--format", "svg", "--spinc", "0"],
    ])
    def test_knot_and_compute_load_no_oracle(self, tmp_path, argv):
        after_import, after_main = self.loaded(tmp_path, *argv)
        assert "hfroots.cli" in after_import
        assert after_import & self.UNUSED == set()
        assert after_main & self.UNUSED == set()

    def test_verify_loads_the_oracle(self, tmp_path):
        after_import, after_main = self.loaded(tmp_path, "verify", "--newton", "2,3", "--surgery", "1/1")
        assert after_import & self.UNUSED == set()
        assert after_main & self.UNUSED == {"hfroots.plumbing", "hfroots.lens"}

    def test_verify_lens_loads_no_oracle(self, tmp_path):
        after_import, after_main = self.loaded(tmp_path, "verify", "--lens", "7/3", "--format", "json")
        assert after_import & self.UNUSED == set()
        assert after_main & self.UNUSED == {"hfroots.lens"}


class TestGoldens:
    def test_make_goldens_writes_the_committed_files(self, monkeypatch, tmp_path):
        import make_goldens

        monkeypatch.setattr(make_goldens, "GOLDEN", tmp_path)
        make_goldens.run()
        written = sorted(f.name for f in tmp_path.iterdir())
        assert written == sorted(f.name for f in GOLDEN.iterdir())
        assert len(written) == 15
        for name in written:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_make_goldens_check_names_every_differing_file(self, monkeypatch, tmp_path, capsys):
        # --check regenerates into a temporary directory and writes nothing
        import make_goldens

        for f in GOLDEN.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        monkeypatch.setattr(make_goldens, "GOLDEN", tmp_path)
        assert make_goldens.command(["--check"]) == 0
        (tmp_path / "compute_45_2_1.txt").write_bytes(b"changed\n")
        (tmp_path / "verify_lens_1_1.json").unlink()
        capsys.readouterr()
        assert make_goldens.command(["--check"]) == 1
        out = capsys.readouterr().out
        named = [line.removeprefix("differs: ") for line in out.splitlines() if line.startswith("differs: ")]
        assert named == [str(tmp_path / "compute_45_2_1.txt"), str(tmp_path / "verify_lens_1_1.json")]
        assert (tmp_path / "compute_45_2_1.txt").read_bytes() == b"changed\n"
        assert not (tmp_path / "verify_lens_1_1.json").exists()
        assert make_goldens.command(["--bogus"]) == 2
