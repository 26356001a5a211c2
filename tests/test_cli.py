"""End-to-end CLI behavior through real subprocesses (the property test of
the exit-code contract calls ``main`` in process).

Exit code contract: 0 success, 1 verification failed or infeasible,
2 usage error or inadmissible parameters, 3 node budget exhausted.
"""

import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucycles.cli
import ucycles.doubling
import ucycles.searchgen
import ucycles.verify
from ucycles.cli import build_parser, main as cli_main
from ucycles.core import CycleWord
from ucycles.searchgen import generate_subset_ucycle
from ucycles.ucyfile import save_ucy

from goldens import BASE_WORD_4, GEN_EXIT_CODES


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    """Run the command in a fresh interpreter that imports the package from the source tree."""
    return subprocess.run(
        [sys.executable, "-m", "ucycles", *args],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
    )


@pytest.fixture(scope="module")
def base_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("ucy") / "base4.ucy"
    save_ucy(p, CycleWord(4, BASE_WORD_4), 3)
    return str(p)


@pytest.fixture(scope="module")
def subset_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("ucy") / "subset8.ucy"
    save_ucy(p, generate_subset_ucycle(8, 3), 3)
    return str(p)


class TestGen:
    def test_inductive(self, tmp_path):
        out = tmp_path / "w.ucy"
        r = run_cli("gen", "--n", "10", "--t", "3", "--method", "inductive", "--out", str(out))
        assert r.returncode == 0
        body = out.read_text().splitlines()
        assert body[0] == "10 3"
        assert len(body[1].split()) == 220
        assert out.with_suffix(".provenance").read_text() == "n=10 path=pattern\n"

    def test_doubling(self):
        r = run_cli("gen", "--n", "8", "--t", "3", "--method", "doubling")
        assert r.returncode == 0
        assert len(r.stdout.splitlines()[1].split()) == 120

    def test_auto_picks_inadmissible_apart(self):
        r = run_cli("gen", "--n", "9", "--t", "3", "--method", "auto")
        assert r.returncode == 2
        assert "inadmissible" in r.stderr

    def test_method_preconditions(self):
        assert run_cli("gen", "--n", "8", "--t", "3", "--method", "inductive").returncode == 2
        assert run_cli("gen", "--n", "13", "--t", "3", "--method", "doubling").returncode == 2

    def test_budget_exhaustion(self):
        r = run_cli("gen", "--n", "5", "--t", "4", "--budget", "100")
        assert r.returncode == 3
        assert "budget" in r.stderr

    def test_out_is_written_as_utf8_whatever_the_locale(self, tmp_path):
        # a write that leaves the encoding to the locale is an EncodingWarning,
        # made an error here
        r = subprocess.run(
            [
                sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                "-m", "ucycles", "gen", "--n", "10", "--t", "3", "--out", "w.ucy",
            ],
            capture_output=True,
            text=True,
            timeout=240,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "w.ucy").read_text(encoding="utf-8").startswith("10 3\n")
        assert (tmp_path / "w.provenance").read_text(encoding="utf-8") == "n=10 path=pattern\n"

    def test_round_trip_with_verify(self, tmp_path):
        out = tmp_path / "w.ucy"
        r = run_cli("gen", "--n", "7", "--t", "3", "--method", "auto", "--out", str(out))
        assert r.returncode == 0
        r2 = run_cli("verify", "--input", str(out), "--kind", "multiset")
        assert r2.returncode == 0


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--n", "0", "--t", "3"),
            ("gen", "--n", "3", "--t", "0"),
            ("count", "--n", "4", "--t", "3", "--workers", "-1"),
            # a count over [1] runs no branch, but a negative --workers is still refused
            ("count", "--n", "1", "--t", "3", "--workers", "-1"),
            ("count", "--n", "4", "--t", "3", "--budget", "-1"),
            ("gen", "--n", "13", "--t", "3", "--method", "search", "--budget", "0"),
            (
                "gen", "--n", "8", "--t", "3", "--method", "doubling",
                "--subset-input", "/nonexistent/x.ucy",
            ),
            # --subset-input off the doubling route: auto picks inductive,
            # and an explicit search
            ("gen", "--n", "10", "--t", "3", "--subset-input", "/nonexistent/x.ucy"),
            (
                "gen", "--n", "8", "--t", "3", "--method", "search",
                "--subset-input", "/nonexistent/x.ucy",
            ),
            # the constructions refuse an n outside their preconditions
            ("gen", "--n", "8", "--t", "3", "--method", "inductive"),
            ("gen", "--n", "13", "--t", "3", "--method", "doubling"),
            # an --out that cannot be written: a missing directory, a directory
            ("gen", "--n", "4", "--t", "3", "--method", "inductive", "--out", "/nonexistent/w.ucy"),
            ("gen", "--n", "4", "--t", "3", "--method", "inductive", "--out", "."),
            # an --out that is its own .provenance sidecar's path
            ("gen", "--n", "10", "--t", "3", "--method", "inductive", "--out", "w.provenance"),
        ],
    )
    def test_one_line_error(self, argv, tmp_path):
        r = run_cli(*argv, cwd=tmp_path)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        # a refused request leaves no file behind
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_sidecar_leaves_no_word(self, tmp_path):
        # the word file is written first; a sidecar path that is a directory
        # must take the word file back out with it
        (tmp_path / "w.provenance").mkdir()
        r = run_cli(
            "gen", "--n", "10", "--t", "3", "--method", "inductive", "--out", "w.ucy", cwd=tmp_path
        )
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["w.provenance"]

    def test_subset_input_over_another_alphabet(self, subset_file):
        # subset_file holds a word over [8]
        r = run_cli(
            "gen", "--n", "10", "--t", "3", "--method", "doubling",
            "--subset-input", subset_file,
        )
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_subset_input_with_another_window_size(self, tmp_path):
        path = tmp_path / "pairs8.ucy"
        save_ucy(path, generate_subset_ucycle(8, 3), 2)
        r = run_cli(
            "gen", "--n", "8", "--t", "3", "--method", "doubling",
            "--subset-input", str(path),
        )
        assert r.returncode == 2
        assert r.stderr == "error: subset input must carry t=3\n"


def run_fresh(code, *flags):
    """Run ``code`` in a fresh interpreter, started with ``flags``, that
    imports the package from the source tree."""
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        timeout=240,
        env={**os.environ, "PYTHONPATH": SRC},
    )


class TestColdStart:
    """No process pool is loaded, not even by a count that asks for workers,
    and no module of the package loads ``typing``."""

    def test_importing_the_cli_loads_no_pool(self):
        r = run_fresh(
            "import sys, ucycles, ucycles.cli; ucycles.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

    def test_importing_the_cli_loads_no_typing(self):
        # -S keeps site's hooks, which may import typing themselves, out
        r = run_fresh(
            "import sys, ucycles.cli; ucycles.cli.build_parser(); "
            "assert 'typing' not in sys.modules",
            "-S",
        )
        assert r.returncode == 0, r.stderr

    def test_the_root_loads_the_library_and_exports_no_names(self):
        # perfbench imports the package before its first timed operation, so
        # what the root loads decides what that operation pays
        r = run_fresh(
            "import sys, ucycles; "
            "print([name for name in ('CycleWord', 'construct_inductive', 'construct_doubling', "
            "'verify_multiset_ucycle', 'load_ucy', 'count_distinct') if hasattr(ucycles, name)]); "
            "print(sorted(m for m in sys.modules if m.startswith('ucycles.')))"
        )
        assert r.returncode == 0, r.stderr
        modules = ("core", "doubling", "euler", "inductive", "searchgen", "ucyfile", "verify")
        assert r.stdout.splitlines() == ["[]", str([f"ucycles.{m}" for m in modules])]

    def test_workers_still_count(self):
        r = run_fresh(
            "import sys; from ucycles.searchgen import count_distinct; "
            "print(count_distinct(5, 2, workers=2).as_text()); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))"
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "5 2 72 36 true 19565\n[]\n"


def _run_in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(argv)
        except SystemExit as exc:
            return exc.code


def _captured_in_process(argv):
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    """``main`` keeps one parser per process; what a command does is unchanged."""

    def test_importing_the_cli_builds_no_parser(self):
        r = run_fresh(
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import ucycles.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(3):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        ucycles.cli.main(['count', '--n', '1', '--t', '3'])\n"
            "    counts.append(len(built))\n"
            "print(*counts)\n"
        )
        assert r.returncode == 0, r.stderr
        after_import, *after_calls = map(int, r.stdout.split())
        assert after_import == 0
        assert after_calls[0] > 0
        assert after_calls == [after_calls[0]] * 3

    def test_mixed_commands_match_a_fresh_process(self, tmp_path, subset_file):
        word = str(tmp_path / "w8.ucy")
        sequence = [
            ["gen", "--n", "8", "--t", "3", "--out", word],
            ["verify", "--input", word, "--kind", "multiset"],
            ["count", "--n", "4", "--t", "3", "--list"],
            ["pairs", "--input", subset_file],
            ["gen", "--n", "0", "--t", "3"],
            ["gen", "--n", "8"],
            ["--help"],
            ["verify", "--help"],
            ["gen", "--n", "7", "--t", "3"],
        ]
        fresh = [(r.returncode, r.stdout, r.stderr) for r in (run_cli(*argv) for argv in sequence)]
        # the sequence twice, so every command also runs on a parser kept
        # from every other kind of call, a usage error and --help included
        for _ in range(2):
            assert [_captured_in_process(argv) for argv in sequence] == fresh

    def test_a_wrapper_installed_after_a_first_call_is_called(self, monkeypatch):
        assert _run_in_process(["gen", "--n", "4", "--t", "3"]) == 0
        seen = []
        original = ucycles.cli.cmd_gen

        def wrapped(args):
            seen.append(args.n)
            return original(args)

        monkeypatch.setattr(ucycles.cli, "cmd_gen", wrapped)
        assert _run_in_process(["gen", "--n", "4", "--t", "3"]) == 0
        assert seen == [4]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


class TestExitCodeContract:
    """Any argument vector or input file ends in a documented exit code, in process."""

    @settings(max_examples=50, deadline=None)
    @given(
        command=st.sampled_from(["gen", "count"]),
        n=st.integers(-2, 30),
        t=st.integers(-1, 4),
        budget=st.integers(-2, 5000),
        workers=st.integers(-2, 3),
    )
    def test_random_integer_arguments(self, command, n, t, budget, workers):
        argv = [command, "--n", str(n), "--t", str(t), "--budget", str(budget)]
        if command == "count":
            argv += ["--workers", str(workers)]
        assert _run_in_process(argv) in (0, 1, 2, 3)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(-1, 8),
        t=st.integers(-1, 4),
        letters=st.lists(st.integers(-1, 9), max_size=30),
        garbage_at=st.sampled_from([None, None, None, "header", "word", "after"]),
        kind=st.sampled_from(["multiset", "subset"]),
    )
    def test_random_ucy_files(self, tmp_path_factory, n, t, letters, garbage_at, kind):
        lines = [f"{n} {t}", " ".join(map(str, letters))]
        if garbage_at == "header":
            lines[0] += " x"
        elif garbage_at == "word":
            lines[1] += " 2.5"
        elif garbage_at == "after":
            lines.append("junk")
        path = tmp_path_factory.mktemp("ucy") / "random.ucy"
        path.write_text("\n".join(lines) + "\n")
        assert _run_in_process(["verify", "--input", str(path), "--kind", kind]) in (0, 1, 2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--kind", "multiset", "--input"],
            ["verify", "--kind", "subset", "--input"],
            ["pairs", "--input"],
            ["gen", "--n", "8", "--t", "3", "--method", "doubling", "--subset-input"],
        ],
    )
    def test_file_that_is_not_utf8(self, tmp_path, argv):
        path = tmp_path / "binary.ucy"
        path.write_bytes(b"\xff\xfe 3\n1 2\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli_main([*argv, str(path)]) == 2
        assert err.getvalue().startswith("error: ")
        assert "not UTF-8" in err.getvalue()
        assert len(err.getvalue().splitlines()) == 1

    def test_gen_exit_code_grid(self):
        got = {
            (method, t): "".join(
                str(_run_in_process([
                    "gen", "--method", method, "--n", str(n), "--t", str(t),
                    "--budget", "20000",
                ]))
                for n in range(1, 21)
            )
            for method, t in GEN_EXIT_CODES
        }
        assert got == GEN_EXIT_CODES


class TestFailureLines:
    """Each family of failure ends in its exit code and exactly its stderr lines, in process."""

    @pytest.mark.parametrize(
        "argv, code, stderr",
        [
            (
                "gen --n 5 --t 4 --budget 100", 3,
                "auto-selected method: search\nbudget exhausted: node budget 100 exhausted\n",
            ),
            (
                "gen --n 2 --t 3", 1,
                "auto-selected method: search\n"
                "infeasible: no 3-multiset ucycle over [2] satisfies the constraints\n",
            ),
            (
                "gen --n 13 --t 3 --method search --budget 0", 2,
                "error: --budget must be a positive integer, got 0\n",
            ),
            (
                "verify --input missing.ucy --kind multiset", 2,
                "error: [Errno 2] No such file or directory: 'missing.ucy'\n",
            ),
            (
                "verify --input garbage.ucy --kind multiset", 2,
                "error: header must hold exactly two integers: n t\n",
            ),
            (
                "gen --n 8 --t 3 --method inductive", 2,
                "error: the inductive path covers n = 3k+1 with n >= 4 only; "
                "use doubling or search for n=8\n",
            ),
            (
                "gen --n 9 --t 3", 2,
                "auto-selected method: search\ninadmissible: 9 does not divide C(11,3)\n",
            ),
            ("count --n 3 --t 3", 2, "inadmissible: 3 does not divide C(5,3)\n"),
            # a word longer than MAX_LETTERS is refused before it is allocated
            (
                "gen --n 999999 --t 2", 2,
                "auto-selected method: search\n"
                "error: n=999999 t=2 asks for a word of 499999500000 letters; "
                "the limit is 20000000\n",
            ),
            (
                "count --n 999999 --t 2", 2,
                "error: n=999999 t=2 asks for a word of 499999500000 letters; "
                "the limit is 20000000\n",
            ),
        ],
    )
    def test_exact_stderr(self, tmp_path, monkeypatch, argv, code, stderr):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "garbage.ucy").write_text("garbage\nnot numbers\n")
        assert _captured_in_process(argv.split()) == (code, "", stderr)

    def test_an_internal_error_is_one_line_with_one_prefix(self, monkeypatch):
        monkeypatch.setattr(ucycles.doubling, "_euler_block3", lambda n, distinct: None)
        assert _captured_in_process(["gen", "--n", "22", "--t", "3", "--method", "doubling"]) == (
            1, "", "internal error: no Euler block for 3-subsets of [22]\n"
        )
        monkeypatch.setattr(
            ucycles.verify, "verify_multiset_ucycle", lambda word, t: SimpleNamespace(ok=False)
        )
        assert _captured_in_process(["gen", "--n", "13", "--t", "3", "--method", "search"]) == (
            1, "", "internal error: emitted word failed verification\n"
        )

    @pytest.mark.parametrize("n, method", [(4, "inductive"), (8, "doubling"), (13, "search")])
    def test_every_route_verifies_through_one_exit(self, monkeypatch, n, method):
        # one patch on ucycles.verify reaches the word every route returns
        monkeypatch.setattr(
            ucycles.verify, "verify_multiset_ucycle", lambda word, t: SimpleNamespace(ok=False)
        )
        argv = ["gen", "--n", str(n), "--t", "3", "--method", method]
        assert _captured_in_process(argv) == (
            1, "", "internal error: emitted word failed verification\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            "gen --n 100 --t 3",  # inductive
            "gen --n 22 --t 3 --method doubling",
            "gen --n 14 --t 3 --method search",  # the Euler block
            "gen --n 17 --t 3",  # the Euler block
            "gen --n 4 --t 3 --method search",  # the witness search
        ],
    )
    def test_no_route_calls_the_checked_constructor(self, monkeypatch, argv):
        # verify._emitted checks a built word's letters; CycleWord's own
        # check is for outside input only
        calls = []
        monkeypatch.setattr(CycleWord, "__init__", lambda *args: calls.append(args))
        assert _captured_in_process(argv.split())[0] == 0
        assert calls == []
        assert generate_subset_ucycle(7, 3).alphabet_size == 7  # the subset search
        assert calls == []

    @pytest.mark.parametrize(
        "module, name, value, argv",
        [
            # the connector of the step to [10] reaches letter 11
            (ucycles.inductive, "_CONNECTOR_PATTERN", (7,) * 29, "--n 10 --method inductive"),
            (ucycles.searchgen, "_euler_block3", lambda n, distinct: (1, 0, 2), "--n 17 --method search"),
        ],
    )
    def test_a_built_letter_out_of_range_is_an_internal_error(self, monkeypatch, module, name, value, argv):
        # the library's bug, not a usage error: verify._emitted refuses it
        monkeypatch.setattr(module, name, value)
        n = argv.split()[1]
        assert _captured_in_process(["gen", "--t", "3", *argv.split()]) == (
            1, "", f"internal error: emitted letter out of range 1..{n}\n"
        )

    def test_an_exception_of_another_family_is_not_caught(self, monkeypatch):
        class Unforeseen(Exception):
            pass

        def fail(n):
            raise Unforeseen("a real bug")

        monkeypatch.setattr(ucycles.cli, "construct_inductive", fail)
        with pytest.raises(Unforeseen):
            _captured_in_process(["gen", "--n", "4", "--t", "3"])


class TestAutoMethod:
    def test_every_admissible_alphabet_to_100(self):
        for n in range(4, 101):
            if n % 3:
                assert _run_in_process(["gen", "--n", str(n), "--t", "3"]) == 0, n

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_alphabets_are_infeasible(self, n):
        assert _run_in_process(["gen", "--n", str(n), "--t", "3"]) == 1


class TestVerify:
    def test_ok(self, base_file):
        r = run_cli("verify", "--input", base_file, "--kind", "multiset")
        assert r.returncode == 0
        assert "ok: true" in r.stdout

    def test_subset_kind(self, subset_file):
        r = run_cli("verify", "--input", subset_file, "--kind", "subset")
        assert r.returncode == 0

    def test_truncated_word_fails(self, tmp_path, base_file):
        lines = Path(base_file).read_text(encoding="utf-8").splitlines()
        words = lines[1].split()
        bad = tmp_path / "short.ucy"
        bad.write_text(lines[0] + "\n" + " ".join(words[:-1]) + "\n")
        r = run_cli("verify", "--input", str(bad), "--kind", "multiset")
        assert r.returncode == 1
        assert "missing_count: " in r.stdout
        assert "missing_count: 0" not in r.stdout

    def test_huge_family_over_a_short_word(self, tmp_path):
        # C(20002, 3) ~ 1.3e12 multisets: the report counts the missing ones
        # and walks the family only for the keys it prints
        huge = tmp_path / "huge.ucy"
        huge.write_text("20000 3\n1 2 3\n")
        argv = ["verify", "--input", str(huge), "--kind", "multiset"]
        r = subprocess.run(
            [sys.executable, "-m", "ucycles", *argv], capture_output=True, text=True, timeout=30
        )
        assert r.returncode == 1
        assert f"missing_count: {math.comb(20002, 3) - 1}" in r.stdout
        assert "missing: {1,1,1} {1,1,2} " in r.stdout
        assert f"(+{math.comb(20002, 3) - 51} more)" in r.stdout
        # the same command in process, without interpreter start-up
        start = time.perf_counter()
        assert _run_in_process(argv) == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("kind", ["multiset", "subset"])
    @pytest.mark.parametrize(
        "header, bounded_line",
        [
            # n = 10**9 over three letters: only the letters that occur
            ("1000000000 3", "frequency: 1=1 2=1 3=1 (+999999997 absent)"),
            # t = 10**6 over three letters: no window, so no key is listed
            ("3 1000000", "frequency: 1=1 2=1 3=1"),
            # n = t = 10**6: the multisets are shown by the gate's bound,
            # never sized; C(10**6, 10**6) = 1 subset is sized exactly
            ("1000000 1000000", {"multiset": "expected_length: at least 40116600", "subset": "expected_length: 1"}),
        ],
    )
    def test_report_is_bounded_by_the_word(self, tmp_path, kind, header, bounded_line):
        if isinstance(bounded_line, dict):
            bounded_line = bounded_line[kind]
        huge = tmp_path / "huge.ucy"
        huge.write_text(f"{header}\n1 2 3\n")

        def cap_memory():
            # an unbounded report fails with MemoryError instead of filling
            # the machine
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        r = subprocess.run(
            [sys.executable, "-m", "ucycles", "verify", "--input", str(huge), "--kind", kind],
            capture_output=True, text=True, timeout=20, preexec_fn=cap_memory,
        )
        assert (r.returncode, r.stderr) == (1, "")
        assert len(r.stdout) < 4096
        assert bounded_line in r.stdout.splitlines()
        if header == "3 1000000":
            assert "missing:" not in r.stdout

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.ucy"
        bad.write_text("garbage\nnot numbers\n")
        assert run_cli("verify", "--input", str(bad), "--kind", "multiset").returncode == 2

    def test_missing_file(self):
        assert run_cli("verify", "--input", "/nonexistent.ucy", "--kind", "subset").returncode == 2

    def test_reader_closes_the_pipe_early(self, tmp_path):
        # the report's frequency line alone (20 000 letters, about 150 KB)
        # outgrows a pipe buffer, so the command is still writing when the
        # reader leaves
        huge = tmp_path / "huge.ucy"
        huge.write_text("20000 3\n" + " ".join(map(str, range(1, 20001))) + "\n")
        err = tmp_path / "stderr.txt"
        with open(err, "wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ucycles", "verify", "--input", str(huge), "--kind", "subset"],
                stdout=subprocess.PIPE,
                stderr=err_file,
            )
            try:
                assert proc.stdout.read(100).startswith(b"kind: subset")
                proc.stdout.close()
                assert proc.wait(timeout=30) == 1
            finally:
                proc.kill()
        stderr = err.read_text()
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr


class TestPairs:
    def test_report(self, subset_file):
        r = run_cli("pairs", "--input", subset_file)
        assert r.returncode == 0
        assert "matching_ok: true" in r.stdout
        assert "missing_count:" in r.stdout

    def test_rejects_non_subset_word(self, base_file):
        assert run_cli("pairs", "--input", base_file).returncode == 1


class TestCount:
    def test_exhaustive(self):
        r = run_cli("count", "--n", "4", "--t", "3")
        assert r.returncode == 0
        fields = r.stdout.split()
        assert fields[:5] == ["4", "3", "2", "2", "true"]
        assert int(fields[5]) > 0
        # byte-identical on a repeat run, node count included
        assert run_cli("count", "--n", "4", "--t", "3").stdout == r.stdout

    def test_inadmissible(self):
        assert run_cli("count", "--n", "3", "--t", "3").returncode == 2

    def test_budget_starved(self):
        r = run_cli("count", "--n", "5", "--t", "3", "--budget", "1000")
        assert r.returncode == 3
        assert "false" in r.stdout.split()

    def test_list(self):
        r = run_cli("count", "--n", "4", "--t", "3", "--list")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "4 3 2 2 true 24302",
            "1 1 1 2 2 2 3 1 3 1 4 2 4 2 3 3 3 4 4 4",
            "1 1 1 2 2 2 3 1 3 1 4 4 4 3 3 3 2 4 2 4",
        ]

    def test_single_letter_alphabet_agrees_with_gen(self):
        # the word "1" is shorter than a 3-window: no class to list, and no
        # word for gen to emit
        r = run_cli("count", "--n", "1", "--t", "3", "--list")
        assert r.returncode == 0
        assert r.stdout.splitlines() == ["1 3 0 0 true 0"]
        assert run_cli("gen", "--n", "1", "--t", "3").returncode == 1

    def test_list_needs_a_full_count(self):
        r = run_cli("count", "--n", "5", "--t", "3", "--budget", "1000", "--list")
        assert r.returncode == 3
        assert len(r.stdout.splitlines()) == 1


def test_usage_error_without_subcommand():
    assert run_cli().returncode == 2
