"""The three-letters-at-a-time growth of 3-multiset ucycles (n = 3k + 1)."""

import hashlib
import math
import subprocess
import sys
import textwrap

import pytest

import ucycles.inductive
from ucycles.cli import main as cli_main
from ucycles.core import CycleWord
from ucycles.doubling import construct_doubling
from ucycles.inductive import (
    BASE_CYCLE_4,
    BASE_EXTENSION_7,
    _connector_letters,
    _filler_letters,
    _next_extension,
    construct_inductive,
    provenance_report,
)
from ucycles.ucyfile import format_ucy
from ucycles.verify import InadmissibleError, verify_multiset_ucycle

from goldens import (
    ASSEMBLY_10,
    BASE_WORD_4,
    CONNECTOR_10,
    CONNECTOR_13,
    EXTENSION_7,
    EXTENSION_10,
    FILLER_10,
    INDUCTIVE_SHA256,
)


class TestSeeds:
    def test_n4_is_the_frozen_base(self):
        assert construct_inductive(4).letters == BASE_WORD_4

    def test_n7_is_base_plus_extension(self):
        word = construct_inductive(7)
        assert word.letters == BASE_WORD_4 + EXTENSION_7
        assert verify_multiset_ucycle(word, 3).ok

    def test_base_case_shape(self):
        assert BASE_CYCLE_4[:3] == (1, 1, 1)
        assert BASE_EXTENSION_7[:2] == (1, 1)
        assert BASE_EXTENSION_7[-2:] == (7, 6)
        assert verify_multiset_ucycle(CycleWord(7, BASE_CYCLE_4 + BASE_EXTENSION_7), 3).ok


class TestStepPieces:
    def test_connector_10(self):
        assert _connector_letters(10) == CONNECTOR_10

    def test_connector_13_is_the_odd_pattern(self):
        assert _connector_letters(13) == CONNECTOR_13

    def test_filler_10(self):
        assert tuple(_filler_letters(10)) == FILLER_10

    def test_filler_length_formula(self):
        for n in (10, 13, 16, 19):
            assert len(_filler_letters(n)) == 9 * n - 47


class TestExtend:
    """One growth step on letter lists (``_next_extension``)."""

    def test_one_step_reproduces_the_frozen_assembly(self):
        extension = tuple(_next_extension(BASE_EXTENSION_7, 10))
        assert extension == EXTENSION_10 + CONNECTOR_10 + FILLER_10
        assert BASE_CYCLE_4 + BASE_EXTENSION_7 + extension == ASSEMBLY_10

    def test_extension_endpoints(self):
        # every extension over [m] opens with 1,1 and closes with m, m-1: the
        # lead-in and lead-out the next seam needs
        extension = list(BASE_EXTENSION_7)
        for m in range(10, 23, 3):
            extension = _next_extension(extension, m)
            assert extension[:2] == [1, 1]
            assert extension[-2:] == [m, m - 1]


class TestDriver:
    def test_n10_matches_assembly(self):
        assert construct_inductive(10).letters == ASSEMBLY_10

    def test_n13_verifies(self):
        word = construct_inductive(13)
        assert len(word) == math.comb(15, 3)
        assert verify_multiset_ucycle(word, 3).ok

    def test_provenance_lines(self):
        assert provenance_report(4) == provenance_report(7) == ""
        assert provenance_report(19) == (
            "n=10 path=pattern\nn=13 path=repaired\n"
            "n=16 path=pattern\nn=19 path=repaired\n"
        )

    @pytest.mark.parametrize("n", sorted(INDUCTIVE_SHA256))
    def test_pinned_word_digests(self, n):
        payload = format_ucy(construct_inductive(n), 3).encode()
        assert hashlib.sha256(payload).hexdigest() == INDUCTIVE_SHA256[n]

    def test_a_broken_connector_is_caught_by_the_one_verification(self, monkeypatch, capsys):
        broken = ucycles.inductive._ODD_CONNECTOR_PATTERN[::-1]
        monkeypatch.setattr(ucycles.inductive, "_ODD_CONNECTOR_PATTERN", broken)
        assert construct_inductive(10).letters == ASSEMBLY_10
        with pytest.raises(AssertionError, match="failed verification"):
            construct_inductive(13)
        assert cli_main(["gen", "--n", "13", "--t", "3"]) == 1
        assert "internal error" in capsys.readouterr().err

    def test_build_and_verification_keep_one_copy_of_the_word(self):
        # in a fresh interpreter, so that nothing built before is counted:
        # the word's tuple (8 bytes a letter), its window codes (40) and their
        # table (about 45 at the last resize) stay below 100 bytes a letter;
        # a letter list kept next to the word while it is verified, or a copy
        # of the letter codes kept beside the table, crosses it from Python
        # 3.11 on, and both together on 3.10
        child = textwrap.dedent(
            """
            import tracemalloc
            from ucycles.inductive import construct_inductive
            tracemalloc.start()
            word = construct_inductive(100)
            peak = tracemalloc.get_traced_memory()[1]
            print(len(word), round(peak / len(word), 1))
            """
        )
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        length, per_letter = done.stdout.split()
        assert int(length) == math.comb(102, 3)
        assert float(per_letter) < 100

    @pytest.mark.parametrize("n", [5, 6, 9, 3, 0])
    def test_rejects_off_lattice_alphabets(self, n):
        with pytest.raises((InadmissibleError, ValueError)):
            construct_inductive(n)


class TestRoutesAgree:
    """Where both the inductive and the doubling route apply, both words verify."""

    @pytest.mark.parametrize("n", [10, 16, 22, 28])
    def test_both_routes_verify(self, n):
        inductive = construct_inductive(n)
        doubled = construct_doubling(n)
        assert len(inductive) == len(doubled) == math.comb(n + 2, 3)
        assert verify_multiset_ucycle(inductive, 3).ok
        assert verify_multiset_ucycle(doubled, 3).ok
