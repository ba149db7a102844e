import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pga.cli import build_parser, main
from pga.config import Caps
from pga.corpus import parse_group_file, read_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CAP_FLAGS = {
    "enumeration_cap": "--enumeration-cap",
    "lattice_cap": "--lattice-cap",
    "closure_degree_cap": "--closure-cap",
    "max_degree": "--max-degree",
}

# the Caps fields each subcommand reads, and so the cap flags it takes
CAPS_READ = {
    "analyze": tuple(CAP_FLAGS),
    "verify": tuple(CAP_FLAGS),
    "two-closure": ("closure_degree_cap", "max_degree"),
    "fixity": ("enumeration_cap", "max_degree"),
    "gen": ("max_degree",),
}


def command_argv(command, corpus_dir, out_path):
    """A run of the subcommand that exits 0 with the default caps and
    writes out_path if it writes anything; verify is strict, so that a
    skip exits 3."""
    return {
        "analyze": ["analyze", str(corpus_dir / "symmetric_4.grp")],
        "verify": ["verify", str(corpus_dir), "--jobs", "1", "--strict", "--out", str(out_path)],
        "two-closure": ["two-closure", str(corpus_dir / "symmetric_4.grp"), "--emit", str(out_path)],
        "fixity": ["fixity", str(corpus_dir / "symmetric_4.grp")],
        "gen": ["gen", "cyclic", "4", "-o", str(out_path)],
    }[command]


class TestAnalyze:
    def test_m11(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "analyze", str(corpus_dir / "m11_12.grp"))
        assert code == 0
        assert "elusive: yes" in out
        assert "order: 7920" in out

    def test_c6(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "analyze", str(corpus_dir / "cyclic_6.grp"))
        assert code == 0
        assert "fixity: 0" in out
        assert "elusive: no" in out

    def test_cyclic_1(self, capsys, tmp_path):
        path = tmp_path / "c1.grp"
        assert run(capsys, "gen", "cyclic", "1", "-o", str(path))[0] == 0
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 3
        assert out == (
            "name: cyclic_1\ndegree: 1 = 1\norder: 1 = 1\ntransitive: yes\n"
            "fixity: skipped (fixity is undefined for the trivial group)\n"
            "elusive: no\n2-closed: yes\nsolvable: yes\n"
            "normal subgroup orders: 1\nminimal normal orders: -\n"
        )
        code, out, _ = run(capsys, "analyze", str(path), "--format", "machine-records")
        assert code == 3
        assert out == (
            '{"group":"cyclic_1","degree":1,"order":"1","transitive":true,"fixity":null,'
            '"elusive":false,"two_closed":true,"solvable":true,"normal_orders":["1"],'
            '"skipped":["fixity"]}\n'
        )

    def test_broken_file_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "broken.grp"
        bad.write_text("name: x\ndegree: 3\ngen: (0 1 9)\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert ":3:" in err

    def test_cap_exceeded_exits_3_with_partial_output(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys,
            "analyze",
            str(corpus_dir / "symmetric_5.grp"),
            "--enumeration-cap",
            "10",
        )
        assert code == 3
        assert "order: 120" in out
        assert "skipped" in out

    def test_pga_caps_in_the_environment_changes_nothing(self, capsys, corpus_dir, monkeypatch):
        path = str(corpus_dir / "symmetric_5.grp")
        code, plain, _ = run(capsys, "analyze", path)
        assert code == 0
        monkeypatch.setenv("PGA_CAPS", "enumeration_cap=10")
        assert run(capsys, "analyze", path) == (0, plain, "")

    def test_machine_records_mode(self, capsys, corpus_dir):
        code, out, _ = run(
            capsys, "analyze", str(corpus_dir / "symmetric_4.grp"), "--format", "machine-records"
        )
        assert code == 0
        record = json.loads(out)
        assert record["order"] == "24"
        assert record["two_closed"] is True


class TestVerify:
    def test_full_corpus_exits_zero(self, capsys, corpus_dir, tmp_path):
        out_path = tmp_path / "report.jsonl"
        code, out, _ = run(
            capsys, "verify", str(corpus_dir), "--check", "all", "--jobs", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "violated" in out  # summary table header
        meta, records = read_report(out_path)
        assert meta["tool"] == "pga"
        assert all(r["status"] != "violated" for r in records)

    def test_check_filter(self, capsys, corpus_dir, tmp_path):
        out_path = tmp_path / "r.jsonl"
        code, _, _ = run(
            capsys, "verify", str(corpus_dir), "--check", "C2_3", "--jobs", "1",
            "--out", str(out_path),
        )
        assert code == 0
        _, records = read_report(out_path)
        assert records and all(r["check"] == "C2_3" for r in records)

    def test_empty_directory_warns_and_exits_zero(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path), "--jobs", "1")
        assert code == 0
        assert "no .grp files" in err

    def test_load_error_exits_2(self, capsys, tmp_path):
        (tmp_path / "bad.grp").write_text("degree: 2\n")
        code, _, err = run(capsys, "verify", str(tmp_path))
        assert code == 2
        assert "bad.grp" in err

    def test_unknown_check_exits_2(self, capsys, corpus_dir):
        code, _, err = run(capsys, "verify", str(corpus_dir), "--check", "BOGUS")
        assert code == 2
        assert "BOGUS" in err

    def test_unknown_check_on_empty_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path), "--check", "BOGUS")
        assert code == 2
        assert out == ""
        assert err == "error: unknown check ids ['BOGUS']\n"

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    @pytest.mark.parametrize("selection", ["", ",", " , "])
    def test_check_list_without_an_id_exits_2(self, capsys, corpus_dir, selection, strict):
        code, out, err = run(capsys, "verify", str(corpus_dir), "--jobs", "1", "--check", selection, *strict)
        assert (code, out) == (2, "")
        assert err == f"error: --check {selection!r} names no check id\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2(self, capsys, corpus_dir, tmp_path, jobs):
        out_path = tmp_path / "out"
        code, out, err = run(capsys, "verify", str(corpus_dir), "--jobs", jobs, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out_path.exists()

    def test_strict_with_forced_skips_exits_3(self, capsys, corpus_dir, tmp_path):
        code, _, _ = run(
            capsys, "verify", str(corpus_dir), "--jobs", "1", "--strict",
            "--enumeration-cap", "100", "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 3

    def test_machine_records_to_stdout_parse_back(self, capsys, corpus_dir, tmp_path):
        single = tmp_path / "one"
        single.mkdir()
        (single / "c6.grp").write_text((corpus_dir / "cyclic_6.grp").read_text())
        code, out, _ = run(
            capsys, "verify", str(single), "--jobs", "1", "--format", "machine-records"
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        meta = json.loads(lines[0])
        assert meta["caps"]["enumeration_cap"] == 1_000_000
        records = [json.loads(ln) for ln in lines[1:]]
        assert len(records) == 16
        assert {r["group"] for r in records} == {"cyclic_6"}

    @staticmethod
    def _report_digest(capsys, corpus_dir, *cap_flags):
        """sha256 of the whole-corpus machine-records report, and the
        report's status counts."""
        code, out, _ = run(
            capsys, "verify", str(corpus_dir), "--jobs", "1", "--format", "machine-records",
            *cap_flags,
        )
        assert code == 0
        statuses = [json.loads(line)["status"] for line in out.splitlines()[1:]]
        counts = {s: statuses.count(s) for s in sorted(set(statuses))}
        return hashlib.sha256(out.encode()).hexdigest(), counts

    def test_corpus_report_is_pinned(self, capsys, corpus_dir):
        # a change to chains, element walks or checks must leave every
        # status, witness and order in the report as it is
        digest, _ = self._report_digest(capsys, corpus_dir)
        assert digest == "01e3a0cd89e6728c2e01367b727e99146d6b27743bfa48c5765c1a07bbf6e03a"

    def test_capped_corpus_report_is_pinned(self, capsys, corpus_dir):
        # caps low enough that every check skips on some groups, which
        # pins each skip witness (missing field and reason) as well
        digest, counts = self._report_digest(
            capsys, corpus_dir,
            "--enumeration-cap", "5000", "--closure-cap", "8", "--lattice-cap", "5",
        )
        assert counts == {"skipped": 75, "vacuous": 480, "verified": 5}
        assert digest == "9b3759d3a6f4837fccee0f6780308b841adcc6d92e11d410254b8f1578d9ddb3"


class TestTwoClosureCommand:
    def test_alt4(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "two-closure", str(corpus_dir / "alternating_4.grp"))
        assert code == 0
        assert "closure order: 24" in out
        assert "is 2-closed: no" in out

    def test_sym5(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "two-closure", str(corpus_dir / "symmetric_5.grp"))
        assert code == 0
        assert "closure order: 120" in out
        assert "is 2-closed: yes" in out

    def test_c4(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "two-closure", str(corpus_dir / "cyclic_4.grp"))
        assert code == 0
        assert "closure order: 4" in out
        assert "is 2-closed: yes" in out

    def test_over_cap_exits_3(self, capsys, corpus_dir):
        code, _, err = run(
            capsys, "two-closure", str(corpus_dir / "cyclic_12.grp"), "--closure-cap", "10"
        )
        assert code == 3

    def test_emit_round_trips(self, capsys, corpus_dir, tmp_path):
        emitted = tmp_path / "closure.grp"
        code, _, _ = run(
            capsys, "two-closure", str(corpus_dir / "alternating_4.grp"),
            "--emit", str(emitted),
        )
        assert code == 0
        entry = parse_group_file(emitted.read_text())
        assert entry.group.order() == 24


class TestFixityCommand:
    def test_dihedral5(self, capsys, corpus_dir):
        code, out, _ = run(capsys, "fixity", str(corpus_dir / "dihedral_5.grp"))
        assert code == 0
        assert "fixity: 1" in out

    def test_cap_exits_3(self, capsys, corpus_dir):
        code, _, _ = run(
            capsys, "fixity", str(corpus_dir / "symmetric_6.grp"), "--enumeration-cap", "10"
        )
        assert code == 3

    def test_trivial_group_exits_3_like_analyze(self, capsys, tmp_path):
        # an undefined quantity is a skipped result, not a parse error
        path = tmp_path / "one.grp"
        path.write_text("name: one\ndegree: 1\n")
        assert run(capsys, "fixity", str(path)) == (3, "", "error: fixity is undefined for the trivial group\n")
        assert run(capsys, "analyze", str(path))[0] == 3


class TestGen:
    def test_frobenius_21(self, capsys, tmp_path):
        path = tmp_path / "f21.grp"
        code, _, _ = run(capsys, "gen", "frobenius", "7", "3", "-o", str(path))
        assert code == 0
        entry = parse_group_file(path.read_text())
        assert entry.declared_degree == 7
        assert entry.group.order() == 21
        code, out, _ = run(capsys, "fixity", str(path))
        assert code == 0
        assert "fixity: 1" in out

    def test_symmetric_4(self, capsys, tmp_path):
        path = tmp_path / "s4.grp"
        code, _, _ = run(capsys, "gen", "symmetric", "4", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "order: 24" in out

    def test_invalid_params_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "frobenius", "7", "4", "-o", str(tmp_path / "x.grp"))
        assert code == 2
        assert not (tmp_path / "x.grp").exists()

    @pytest.mark.parametrize("param", [" 5", "\u0663", "1_0", "+4"])
    def test_params_need_ascii_digits(self, capsys, tmp_path, param):
        # int() takes each of these, and the name would not spell the degree
        code, _, err = run(capsys, "gen", "cyclic", param, "-o", str(tmp_path / "c.grp"))
        assert code == 2
        assert "ASCII digits" in err
        assert not (tmp_path / "c.grp").exists()

    def test_max_degree_from_flag(self, capsys, tmp_path):
        path = tmp_path / "ea.grp"
        code, _, _ = run(capsys, "gen", "elem_abelian", "2", "7", "--max-degree", "128", "-o", str(path))
        assert code == 0
        assert parse_group_file(path.read_text(), max_degree=128).declared_degree == 128
        code, _, err = run(capsys, "gen", "symmetric", "9", "--max-degree", "8", "-o", str(tmp_path / "s9.grp"))
        assert code == 2
        assert "exceeds the configured maximum 8" in err
        assert not (tmp_path / "s9.grp").exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["verify", "two-closure", "gen"])
    def test_exits_2_with_one_error_line(self, capsys, corpus_dir, tmp_path, command):
        # a file in a missing directory cannot be written, whoever runs
        # the test; this is a file error, not a violation (exit 1)
        missing = str(tmp_path / "missing" / "out")
        single = tmp_path / "one"
        single.mkdir()
        (single / "c6.grp").write_text((corpus_dir / "cyclic_6.grp").read_text())
        argv = {
            "verify": ["verify", str(single), "--jobs", "1", "--out", missing],
            "two-closure": ["two-closure", str(single / "c6.grp"), "--emit", missing],
            "gen": ["gen", "cyclic", "4", "-o", missing],
        }[command]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and missing in err


class TestFileEncoding:
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_file_that_is_not_utf8_exits_2_naming_it(self, capsys, tmp_path, command):
        path = tmp_path / "latin.grp"
        path.write_bytes(b"\xffname: x\ndegree: 2\n")
        code, out, err = run(capsys, command, str(path if command == "analyze" else tmp_path))
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(path) in line

    @pytest.mark.parametrize("command", sorted(CAPS_READ))
    def test_no_file_is_opened_with_the_locale_encoding(self, corpus_dir, tmp_path, command):
        # run as -m pga.cli, the command line's module is named __main__
        warnings_as_errors = [
            f"-Werror::EncodingWarning:{module}" for module in ("__main__", "pga.cli", "pga.corpus")
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = command_argv(command, corpus_dir, tmp_path / "out")
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", *warnings_as_errors, "-m", "pga.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, ""), command


class TestClosedStdout:
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["analyze", "verify", "fixity", "two-closure"])
    def test_exits_141_saying_nothing(self, corpus_dir, command, buffered):
        # the read end is closed before the command writes: a buffered
        # stdout first writes in the interpreter's final flush
        argv = {
            "analyze": ["analyze", str(corpus_dir / "symmetric_4.grp")],
            "verify": ["verify", str(corpus_dir), "--format", "machine-records"],
            "fixity": ["fixity", str(corpus_dir / "symmetric_4.grp")],
            "two-closure": ["two-closure", str(corpus_dir / "symmetric_4.grp")],
        }[command]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "pga.cli", *argv], env=env, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_the_worker_pool(self):
        # a run with --jobs 1 never uses the pool; -S keeps site's imports out
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import pga.cli, pga.harness; "
            "print([m for m in ('dataclasses', 'concurrent.futures', 'multiprocessing') if m in sys.modules])"
        )
        done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


class TestCapValues:
    @pytest.mark.parametrize("field", sorted(Caps().as_dict()))
    @pytest.mark.parametrize("value", [0, -1, 2.5, "8", True])
    def test_caps_reject_anything_but_a_positive_int(self, field, value):
        with pytest.raises(ValueError, match=field):
            Caps(**{field: value})

    @pytest.mark.parametrize("flag", ["--enumeration-cap", "--lattice-cap", "--closure-cap", "--max-degree"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_flag_below_one_exits_2(self, capsys, corpus_dir, tmp_path, flag, value):
        out_path = tmp_path / "out"
        commands = [c for c, fields in CAPS_READ.items() if any(CAP_FLAGS[f] == flag for f in fields)]
        assert commands
        for command in commands:
            argv = command_argv(command, corpus_dir, out_path)
            code, out, err = run(capsys, *argv, flag, value)
            assert (code, out) == (2, ""), argv
            assert "must be an integer of at least 1" in err, argv
        assert not out_path.exists()


class TestCapFlags:
    def test_each_subcommand_registers_exactly_its_caps(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(CAPS_READ)
        for command, sub in subparsers.choices.items():
            taken = {
                a.dest: a.option_strings
                for a in sub._actions
                if a.dest in CAP_FLAGS or set(a.option_strings) & set(CAP_FLAGS.values())
            }
            assert taken == {f: [CAP_FLAGS[f]] for f in CAPS_READ[command]}, command

    @pytest.mark.parametrize(
        "command, field",
        [(c, f) for c in CAPS_READ for f in CAP_FLAGS if f not in CAPS_READ[c]],
    )
    def test_flag_of_a_cap_not_read_is_unrecognized(self, capsys, corpus_dir, tmp_path, command, field):
        out_path = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main([*command_argv(command, corpus_dir, out_path), CAP_FLAGS[field], "5"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {CAP_FLAGS[field]} 5" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, file, prefix",
        [("fixity", "symmetric_6.grp", "--enum"), ("analyze", "symmetric_4.grp", "--closure")],
    )
    def test_prefix_of_a_flag_is_unrecognized(self, capsys, corpus_dir, command, file, prefix):
        with pytest.raises(SystemExit) as exited:
            main([command, str(corpus_dir / file), prefix, "2"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {prefix} 2" in captured.err

    @pytest.mark.parametrize("command", sorted(CAPS_READ))
    def test_each_flag_sets_its_cap(self, capsys, corpus_dir, tmp_path, command):
        # a value of 1 is below every input these runs read, so each
        # flag must reach its computation and end the run with an error
        for field in CAPS_READ[command]:
            out_path = tmp_path / "out"
            code, _, _ = run(capsys, *command_argv(command, corpus_dir, out_path), CAP_FLAGS[field], "1")
            assert code != 0, (command, field)
