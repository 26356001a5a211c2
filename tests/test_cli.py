"""End-to-end CLI behavior through real subprocesses (the property test of
the exit-code contract calls ``main`` in process).

Exit code contract: 0 success, 1 verification failed or infeasible,
2 usage error or inadmissible parameters, 3 node budget exhausted.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucycles.cli import main as cli_main
from ucycles.core import CycleWord
from ucycles.searchgen import generate_subset_ucycle
from ucycles.ucyfile import save_ucy

from goldens import BASE_WORD_4


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ucycles", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
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
        r = run_cli("gen", "--n", "13", "--t", "3", "--method", "search", "--budget", "100")
        assert r.returncode == 3
        assert "budget" in r.stderr

    def test_env_budget(self):
        r = run_cli(
            "gen", "--n", "13", "--t", "3", "--method", "search",
            env_extra={"UCYCLE_BUDGET": "100"},
        )
        assert r.returncode == 3

    def test_env_budget_malformed(self):
        r = run_cli(
            "gen", "--n", "13", "--t", "3", "--method", "search",
            env_extra={"UCYCLE_BUDGET": "lots"},
        )
        assert r.returncode == 2

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
            ("count", "--n", "4", "--t", "3", "--budget", "-1"),
            ("gen", "--n", "13", "--t", "3", "--method", "search", "--budget", "0"),
            (
                "gen", "--n", "8", "--t", "3", "--method", "doubling",
                "--subset-input", "/nonexistent/x.ucy",
            ),
        ],
    )
    def test_one_line_error(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_subset_input_over_another_alphabet(self, subset_file):
        # subset_file holds a word over [8]
        r = run_cli(
            "gen", "--n", "10", "--t", "3", "--method", "doubling",
            "--subset-input", subset_file,
        )
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def _run_in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_main(argv)
        except SystemExit as exc:
            return exc.code


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
        lines = open(base_file).read().splitlines()
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

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.ucy"
        bad.write_text("garbage\nnot numbers\n")
        assert run_cli("verify", "--input", str(bad), "--kind", "multiset").returncode == 2

    def test_missing_file(self):
        assert run_cli("verify", "--input", "/nonexistent.ucy", "--kind", "subset").returncode == 2

    def test_reader_closes_the_pipe_early(self, tmp_path):
        # the report's frequency line alone (20 000 letters) outgrows a pipe
        # buffer, so the command is still writing when the reader leaves
        huge = tmp_path / "huge.ucy"
        huge.write_text("20000 3\n1 2 3\n")
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

    def test_list_needs_a_full_count(self):
        r = run_cli("count", "--n", "5", "--t", "3", "--budget", "1000", "--list")
        assert r.returncode == 3
        assert len(r.stdout.splitlines()) == 1

    def test_reflect_flag(self):
        r = run_cli("count", "--n", "3", "--t", "2", "--reflect")
        assert r.returncode == 0
        assert "reflections" in r.stderr


def test_usage_error_without_subcommand():
    assert run_cli().returncode == 2
