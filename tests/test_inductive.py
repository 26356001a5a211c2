"""The three-letters-at-a-time growth of 3-multiset ucycles (n = 3k + 1)."""

import hashlib
import math

import pytest

import ucycles.inductive
from ucycles.cli import main as cli_main
from ucycles.core import CycleWord
from ucycles.doubling import construct_doubling
from ucycles.inductive import (
    InductionState,
    base_case,
    build_connector,
    build_filler,
    construct_inductive,
    extend,
    partition_triples,
    provenance_report,
    run_induction,
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
        state = base_case()
        assert state.alphabet_size == 7
        assert state.base.letters[:3] == (1, 1, 1)
        assert state.extension.letters[:2] == (1, 1)
        assert state.extension.letters[-2:] == (7, 6)
        assert verify_multiset_ucycle(state.cycle(), 3).ok


class TestStepPieces:
    def test_connector_10(self):
        assert build_connector(10).letters == CONNECTOR_10

    def test_connector_13_is_the_odd_pattern(self):
        connector = build_connector(13)
        assert connector.letters == CONNECTOR_13

    def test_filler_10(self):
        assert build_filler(10).letters == FILLER_10

    def test_filler_length_formula(self):
        for n in (10, 13, 16, 19):
            assert len(build_filler(n)) == 9 * n - 47

    def test_partition_is_a_partition(self):
        blocks = partition_triples(10)
        union = blocks.carried | blocks.lifted | blocks.bridge | blocks.cross
        assert len(union) == math.comb(12, 3)
        assert (
            len(blocks.carried) + len(blocks.lifted)
            + len(blocks.bridge) + len(blocks.cross)
            == len(union)
        )
        assert len(blocks.carried) == math.comb(9, 3)

    @pytest.mark.parametrize("n", [9, 11, 7])
    def test_pieces_reject_wrong_alphabet(self, n):
        with pytest.raises(ValueError):
            partition_triples(n)


class TestExtend:
    def test_one_step_reproduces_the_frozen_assembly(self):
        state = extend(base_case())
        assert state.alphabet_size == 10
        assert state.extension.letters == EXTENSION_10 + CONNECTOR_10 + FILLER_10
        assert state.cycle().letters == ASSEMBLY_10

    def test_extension_endpoints(self):
        state = extend(extend(base_case()))
        n = state.alphabet_size
        assert n == 13
        assert state.extension.letters[:2] == (1, 1)
        assert state.extension.letters[-2:] == (n, n - 1)
        assert verify_multiset_ucycle(state.cycle(), 3).ok

    def test_agrees_with_the_driver(self):
        state = extend(run_induction(13))
        direct = run_induction(16)
        assert state.cycle() == direct.cycle()
        assert state.base == direct.base and state.extension == direct.extension
        assert state.provenance == direct.provenance

    def test_rejects_unverified_state(self):
        fake = InductionState(
            alphabet_size=7,
            base=CycleWord(4, (1, 1, 1, 2)),
            extension=CycleWord(7, (1, 1, 7, 6)),
        )
        with pytest.raises(ValueError):
            extend(fake)


class TestStateInvariants:
    def test_base_must_open_with_triple_one(self):
        with pytest.raises(ValueError):
            InductionState(7, CycleWord(4, (1, 2, 1, 1)), CycleWord(7, (1, 1, 7, 6)))

    def test_extension_must_close_with_top_pair(self):
        with pytest.raises(ValueError):
            InductionState(7, CycleWord(4, (1, 1, 1, 2)), CycleWord(7, (1, 1, 6, 7)))

    def test_alphabet_gap_enforced(self):
        with pytest.raises(ValueError):
            InductionState(7, CycleWord(5, (1, 1, 1, 2)), CycleWord(7, (1, 1, 7, 6)))


class TestDriver:
    def test_n10_matches_assembly(self):
        assert construct_inductive(10).letters == ASSEMBLY_10

    def test_n13_verifies(self):
        word = construct_inductive(13)
        assert len(word) == math.comb(15, 3)
        assert verify_multiset_ucycle(word, 3).ok

    def test_provenance_lines(self):
        state = run_induction(19)
        report = provenance_report(state)
        assert report == (
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
        assert run_induction(10).cycle().letters == ASSEMBLY_10
        with pytest.raises(AssertionError, match="failed verification"):
            run_induction(13)
        assert cli_main(["gen", "--n", "13", "--t", "3"]) == 1
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [5, 6, 9, 3, 0])
    def test_rejects_off_lattice_alphabets(self, n):
        with pytest.raises((InadmissibleError, ValueError)):
            construct_inductive(n)

    def test_run_induction_needs_seven_or_more(self):
        with pytest.raises(InadmissibleError):
            run_induction(4)


class TestRoutesAgree:
    """Where both the inductive and the doubling route apply, both words verify."""

    @pytest.mark.parametrize("n", [10, 16, 22, 28])
    def test_both_routes_verify(self, n):
        inductive = construct_inductive(n)
        doubled = construct_doubling(n)
        assert len(inductive) == len(doubled) == math.comb(n + 2, 3)
        assert verify_multiset_ucycle(inductive, 3).ok
        assert verify_multiset_ucycle(doubled, 3).ok
