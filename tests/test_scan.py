from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gapscan.claims import PAIR_CLAIMS, ClaimId, ClaimOutcome, Status
import gapscan.primes
import gapscan.scan
from gapscan.primes import SCAN_LIMIT, is_prime
from gapscan.scan import (
    DEFAULT_VIOLATION_CAP,
    CheckpointState,
    ChunkTally,
    ClaimCounter,
    GapRecord,
    RatioRecord,
    ScanConfig,
    ScanReport,
    load_checkpoint,
    merge_reports,
    plan_chunks,
    run_scan,
    save_checkpoint,
    default_workers,
    scan_chunk,
)

from conftest import (
    count_calls,
    oracle_consecutive_pairs,
    oracle_gap_records,
    oracle_prime_pi,
    oracle_primes_below,
    record_path_outcomes,
    reference_scan,
    run_capped,
)

# No prime lies in [90, 96), so a scan of it sees only the crafted pairs.
PRIMELESS = (90, 96)


def full_scan(lo: int, hi: int, **kwargs) -> ScanReport:
    return scan_chunk(lo, hi, **kwargs)


def refusal(a: ScanReport, b: ScanReport) -> str:
    """The pattern of the message `merge_reports(a, b)` refuses them with."""
    return re.escape(
        f"cannot merge [{a.start}, {a.stop}) with [{b.start}, {b.stop}): "
        "reports merge end to end, of one claim set and one violation cap"
    )


def empty_report(lo: int, hi: int) -> ScanReport:
    """The report of a range that owns no pair, from a tally that saw none."""
    return ChunkTally(PAIR_CLAIMS, DEFAULT_VIOLATION_CAP).report(lo, hi, 0)


@pytest.fixture
def pools(monkeypatch) -> list[int]:
    """The worker count of each pool run_scan opens, in order; the pools
    are real."""
    opened = []
    context = multiprocessing.get_context()

    def pool(workers):
        opened.append(workers)
        return context.Pool(workers)

    # run_scan imports get_context when it opens a pool, so it reads the
    # patched name.
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda: SimpleNamespace(Pool=pool)
    )
    return opened


class TestPlanChunks:
    def test_uneven_tail(self):
        config = ScanConfig(start=0, stop=100, chunk_size=40)
        assert list(plan_chunks(config)) == [(0, 40), (40, 80), (80, 100)]

    def test_single_unit(self):
        config = ScanConfig(start=5, stop=6, chunk_size=1 << 24)
        assert list(plan_chunks(config)) == [(5, 6)]

    def test_exact_fit(self):
        config = ScanConfig(start=0, stop=1 << 24, chunk_size=1 << 24)
        assert list(plan_chunks(config)) == [(0, 1 << 24)]

    def test_empty_range_plans_nothing(self):
        # validate() rejects this config; plan_chunks does not re-check it.
        assert list(plan_chunks(ScanConfig(start=10, stop=10, chunk_size=40))) == []
        assert list(plan_chunks(ScanConfig(start=10, stop=5, chunk_size=40))) == []

    @given(
        start=st.integers(min_value=0, max_value=10**6),
        width=st.integers(min_value=1, max_value=10**6),
        chunk=st.integers(min_value=1 << 10, max_value=10**5),
    )
    @settings(max_examples=50)
    def test_partition_properties(self, start, width, chunk):
        config = ScanConfig(start=start, stop=start + width, chunk_size=chunk)
        chunks = list(plan_chunks(config))
        assert chunks[0][0] == start
        assert chunks[-1][1] == start + width
        for (lo, hi), (lo2, _) in zip(chunks, chunks[1:]):
            assert hi == lo2
        assert all(hi - lo <= chunk for lo, hi in chunks)


class TestScanChunk:
    def test_first_five_pairs_all_clean(self):
        report = full_scan(2, 12)
        assert report.pairs_checked == 5
        for counter in report.per_claim.values():
            assert counter.failed == 0
            assert counter.checked == counter.passed + counter.vacuous

    def test_primeless_chunk(self):
        report = full_scan(90, 96)
        assert report.pairs_checked == 0
        assert report.max_ratio is None
        assert report.gap_records == []

    def test_theorem_only_subset(self):
        report = full_scan(3, 8, claims={ClaimId.THEOREM_CUBE_BOUND})
        assert report.pairs_checked == 3
        assert set(report.per_claim) == {ClaimId.THEOREM_CUBE_BOUND}
        assert report.per_claim[ClaimId.THEOREM_CUBE_BOUND].checked == 3

    def test_pair_at_two_skips_midpoint_claims(self):
        report = full_scan(2, 3)
        assert report.pairs_checked == 1
        assert report.per_claim[ClaimId.IDENTITIES].checked == 0
        assert report.per_claim[ClaimId.THEOREM_CUBE_BOUND].checked == 1

    def test_instrumentation_only_scan(self):
        report = full_scan(2, 130, claims=frozenset())
        assert report.per_claim == {}
        assert [(r.p, r.g) for r in report.gap_records] == [
            (2, 1), (3, 2), (7, 4), (23, 6), (89, 8), (113, 14),
        ]

    def test_counters_match_per_record_checks(self):
        # The scan must agree with the one-record-at-a-time checkers.
        lo, hi = 2, 20000
        report = full_scan(lo, hi)
        expected = {claim: [0, 0, 0] for claim in PAIR_CLAIMS}  # pass/vac/fail
        for p, q in oracle_consecutive_pairs(lo, hi):
            for outcome in record_path_outcomes(p, q):
                slot = expected[outcome.claim]
                if outcome.status is Status.PASS:
                    slot[0] += 1
                elif outcome.status is Status.VACUOUS_PASS:
                    slot[1] += 1
                else:
                    slot[2] += 1
        for claim, (passed, vacuous, failed) in expected.items():
            counter = report.per_claim[claim]
            assert counter.passed == passed, claim
            assert counter.vacuous == vacuous, claim
            assert counter.failed == failed, claim
            assert counter.checked == passed + vacuous + failed

    def test_histogram_counts_every_midpoint_pair(self):
        report = full_scan(3, 10**5)
        assert report.c_histogram == {0: report.per_claim[ClaimId.IDENTITIES].checked}

    def test_max_ratio_matches_fraction_oracle(self):
        primes = oracle_primes_below(10**4 + 200)
        best = Fraction(0)
        best_at = None
        for p, q in zip(primes, primes[1:]):
            if p >= 10**4:
                break
            ratio = Fraction((q - p) ** 3, p * p)
            if ratio > best:
                best = ratio
                best_at = (p, q - p)
        report = full_scan(2, 10**4)
        assert report.max_ratio is not None
        assert Fraction(report.max_ratio.g_cubed, report.max_ratio.p_squared) == best
        assert (report.max_ratio.p, report.max_ratio.g) == best_at

    def test_gap_records_match_oracle(self):
        primes = oracle_primes_below(2 * 10**4)
        expected = oracle_gap_records(primes, 10**4)
        report = full_scan(2, 10**4)
        assert [(r.p, r.g) for r in report.gap_records] == expected


class TestReferenceEquality:
    """scan_chunk evaluates only the pairs a check, a gap record or the
    extremal ratio can depend on; its report must equal the every-pair
    reference scan's."""

    def test_first_million(self):
        assert full_scan(2, 10**6) == reference_scan(2, 10**6)

    @given(
        lo=st.integers(min_value=2, max_value=10**12),
        width=st.integers(min_value=1, max_value=1 << 16),
        claims=st.just(PAIR_CLAIMS) | st.frozensets(st.sampled_from(PAIR_CLAIMS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_windows(self, lo, width, claims):
        assert full_scan(lo, lo + width, claims=claims) == reference_scan(
            lo, lo + width, claims=claims
        )

    @pytest.mark.parametrize(
        "lo, hi, width",
        [
            (2, 40000, 16),  # the gaps of 34 at 1327 and 72 at 31397
            (2, 40000, 1024),
            (47326600, 47327000, 16),  # the gap of 220 at 47326693
            (47326600, 47327000, 1024),
            # One window of the rule at 10**12, four under a 2**20 cap.
            (10**12, 10**12 + 2**22, 2**20),
        ],
    )
    def test_gaps_spanning_whole_windows(self, monkeypatch, lo, hi, width):
        by_rule = full_scan(lo, hi)
        monkeypatch.setattr(gapscan.primes, "MAX_WINDOW", width)
        report = full_scan(lo, hi)
        # At width 16, the range's largest gap spans whole windows.
        assert width > 16 or max(r.g for r in report.gap_records) > 2 * width
        assert report == by_rule
        # The every-pair reference takes seconds over 2**22 numbers at 10**12.
        assert hi - lo > 10**5 or report == reference_scan(lo, hi)

    @pytest.mark.parametrize("width", [1, 7])
    @pytest.mark.parametrize(
        "lo, hi", [(2, 3), (2, 4), (3, 4), (2, 200), (3, 200), (4, 200)]
    )
    def test_two_and_windows_without_odd_numbers(self, monkeypatch, width, lo, hi):
        # 2 has no sieve flag but opens the first pair of a range holding
        # it, and at width 1 every other window holds no odd number.
        monkeypatch.setattr(gapscan.primes, "MAX_WINDOW", width)
        assert full_scan(lo, hi) == reference_scan(lo, hi)

    @given(
        fed=st.lists(
            st.tuples(st.just(2), st.integers(min_value=-200, max_value=200))
            | st.tuples(
                st.integers(min_value=3, max_value=10**4),
                st.integers(min_value=-100, max_value=100).map(lambda b: 2 * b),
            ),
            max_size=3,
        ).map(lambda fed: [(p, p + g) for p, g in fed if g]),
        lo=st.integers(min_value=2, max_value=3000),
        width=st.integers(min_value=1, max_value=3000),
    )
    # An odd best gap, so the next gap record is exactly one more.
    @example(fed=[(2, 9)], lo=2, width=3000)
    # The fed gap record (9, 4) lies past the search's start at 7, so the
    # threshold stays 0: (7, 11) only ties its gap but beats its ratio 64/81.
    @example(fed=[(9, 13)], lo=7, width=5)
    # Two pairs with the same g**3 / p**2: the first one stays.
    @example(fed=[(3, 5), (81, 99)], lo=90, width=6)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_crafted_pairs_fed_first(self, crafted_pairs, fed, lo, width):
        # Even p breaks the identities, so both sides may abort instead.
        crafted_pairs(*fed)
        try:
            expected = reference_scan(lo, lo + width, fed=fed)
        except RuntimeError as exc:
            assert str(exc).startswith("identity failed at pair (")
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                full_scan(lo, lo + width)
        else:
            assert full_scan(lo, lo + width) == expected


class TestKnownAnswerAtHeight:
    def test_maximal_gap_of_1132(self):
        # The maximal gap of 1,132 follows this prime (Nyman, 1999; OEIS
        # A002386 and A005250).
        p, g = 1_693_182_318_746_371, 1132
        lo, hi = p - 1000, p + 2000
        single = scan_chunk(lo, hi)
        # Chunk edges at p + 24 and p + 1048 lie inside the gap, so the
        # pair crossing a window's end is evaluated at height.
        chunked = run_scan(ScanConfig(lo, hi, chunk_size=1024, workers=1))
        assert single.gap_records[-1] == GapRecord(p, g)
        assert chunked.gap_records[-1] == GapRecord(p, g)
        assert chunked == single
        assert is_prime(p) and is_prime(p + g)
        assert not any(map(is_prime, range(p + 1, p + g)))


class TestPrimeCount:
    """scan_chunk's pair count against pi(x) by Lucy_Hedgehog's method,
    which sieves nothing."""

    def test_oracle_matches_a006880(self):
        # pi(10**k) for k = 1..9 (OEIS A006880).
        assert [oracle_prime_pi(10**k) for k in range(1, 10)] == [
            4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534,
        ]

    def test_oracle_matches_the_sieve_oracle_below_10_4(self):
        primes = oracle_primes_below(10**4)
        assert [oracle_prime_pi(x) for x in range(10**4)] == [
            bisect_right(primes, x) for x in range(10**4)
        ]

    @given(
        lo=st.integers(min_value=2, max_value=10**7 - 1),
        hi=st.integers(min_value=3, max_value=10**7),
    )
    @example(lo=2, hi=3)
    @example(lo=2, hi=10**7)
    @example(lo=10**7 - 1, hi=10**7)
    @settings(max_examples=25, deadline=None)
    def test_pairs_checked_counts_the_primes_owned(self, lo, hi):
        # A pair is owned by its first prime, so [lo, hi) owns one pair for
        # each prime in [lo, hi - 1].
        assume(lo < hi)
        expected = oracle_prime_pi(hi - 1) - oracle_prime_pi(lo - 1)
        assert scan_chunk(lo, hi).pairs_checked == expected


def logged_scan(monkeypatch, lo: int, hi: int) -> tuple[ScanReport, list[tuple]]:
    """scan_chunk(lo, hi) and its tally's log, in order: ("t", t) for each
    threshold a search starts with, ("e", p, q) for each evaluated pair."""
    log: list[tuple] = []

    class LoggedTally(ChunkTally):
        def threshold(self, p):
            t = super().threshold(p)
            log.append(("t", t))
            return t

        def evaluate(self, p, q):
            log.append(("e", p, q))
            super().evaluate(p, q)

    monkeypatch.setattr(gapscan.scan, "ChunkTally", LoggedTally)
    return scan_chunk(lo, hi), log


class TestZeroRunSearch:
    """The edges of scan_chunk's search for r zero flags and the prime flag
    that closes them."""

    def test_record_closed_by_a_windows_last_prime(self, monkeypatch):
        # Windows of 7867 numbers from 2 end at 31470, so the gap record of
        # 72 at 31397 is closed by its window's last flagged prime.
        monkeypatch.setattr(gapscan.primes, "MAX_WINDOW", 7867)
        lasts = [b + 2 * f.rfind(1) for b, f in gapscan.primes.windows(2, 40000)]
        assert 31397 + 72 in lasts
        report, log = logged_scan(monkeypatch, 2, 40000)
        assert ("e", 31397, 31469) in log
        assert GapRecord(31397, 72) in report.gap_records
        assert report == reference_scan(2, 40000)

    def test_p_is_found_before_a_run_longer_than_searched(self, monkeypatch):
        # The record gap of 34 at 1327 has 16 zero flags; the search that
        # finds it looks for fewer, so p lies before the matched zeros.
        report, log = logged_scan(monkeypatch, 1200, 1400)
        k = log.index(("e", 1327, 1361))
        t = next(entry[1] for entry in reversed(log[:k]) if entry[0] == "t")
        assert 0 < t >> 1 < 34 // 2 - 1
        assert report == reference_scan(1200, 1400)

    @pytest.mark.parametrize("width", [16, 1 << 20])
    def test_every_pair_until_the_first_record_at_height(self, monkeypatch, width):
        # Above 10**12 no gap record is known when the range starts, so the
        # first search looks for a lone 1.
        lo = 10**12
        monkeypatch.setattr(gapscan.primes, "MAX_WINDOW", width)
        report, log = logged_scan(monkeypatch, lo, lo + 3000)
        assert log[0] == ("t", 0)
        assert log[1][:2] == ("e", gapscan.primes.next_prime_above(lo - 1))
        assert report == reference_scan(lo, lo + 3000)

    def test_evaluated_pairs_below_ten_million(self, monkeypatch):
        # A search that evaluates extra pairs stays correct but slow.
        calls = []
        evaluate = ChunkTally.evaluate

        def counted(self, p, q):
            calls.append((p, q))
            evaluate(self, p, q)

        monkeypatch.setattr(ChunkTally, "evaluate", counted)
        report = run_scan(ScanConfig(2, 10**7, workers=1))
        assert len(calls) == 32
        assert report.gap_records[-1] == GapRecord(4652353, 154)


class TestInjection:
    """Failure paths, reached by feeding crafted non-genuine pairs."""

    def test_second_feed_replaces_first(self, crafted_pairs):
        crafted_pairs((3, 9))
        crafted_pairs((5, 1))
        assert full_scan(*PRIMELESS) == reference_scan(*PRIMELESS, fed=[(5, 1)])

    def test_feed_refuses_zero_gap(self, crafted_pairs):
        with pytest.raises(ValueError, match="q != p"):
            crafted_pairs((3, 5), (7, 7))

    def test_forced_product_failure(self, crafted_pairs):
        crafted_pairs((3, 9))
        report = full_scan(2, 100)
        counter = report.per_claim[ClaimId.COR_PRODUCT]
        assert counter.failed == 1
        assert counter.checked == 25
        assert counter.checked == counter.passed + counter.vacuous + counter.failed
        assert ClaimOutcome(ClaimId.COR_PRODUCT, 3, Status.FAIL, -6, 12) in (
            report.violations
        )
        # claims the crafted pair satisfies stay clean
        assert report.per_claim[ClaimId.LEMMA_SQRT].failed == 0

    def test_forced_identity_failure_aborts(self, crafted_pairs):
        crafted_pairs((3, 4))
        with pytest.raises(
            RuntimeError, match=r"^identity failed at pair \(3, 4\): lhs=-3 rhs=0$"
        ):
            full_scan(2, 100)

    def test_violation_cap_zero_keeps_counters(self, crafted_pairs):
        crafted_pairs((5, 1))
        report = full_scan(3, 100, violation_cap=0)
        assert report.per_claim[ClaimId.LEMMA_ORDER].failed == 1
        assert report.violations == []

    @pytest.mark.parametrize(
        "pair, claims, claim",
        [
            ((5, 1), None, ClaimId.LEMMA_ORDER),
            ((3, -59), None, ClaimId.COR_BOUND),
            ((3, 9), None, ClaimId.COR_PRODUCT),
            ((3, 9), None, ClaimId.LEMMA_RATIO),
            ((3, 9), None, ClaimId.THEOREM_CUBE_BOUND),
            ((3, 8), {ClaimId.LEMMA_SQRT}, ClaimId.LEMMA_SQRT),
            ((2, 9), None, ClaimId.THEOREM_CUBE_BOUND),
        ],
    )
    def test_crafted_pair_reaches_failure_branch(
        self, crafted_pairs, pair, claims, claim
    ):
        crafted_pairs(pair)
        # None in the table stands for every claim.
        report = full_scan(*PRIMELESS, claims=PAIR_CLAIMS if claims is None else claims)
        (expected,) = [o for o in record_path_outcomes(*pair) if o.claim is claim]
        assert expected.status is Status.FAIL
        assert report.per_claim[claim].failed == 1
        assert [v for v in report.violations if v.claim is claim] == [expected]

    @given(
        p=st.just(2) | st.integers(min_value=3, max_value=10**12),
        g=st.integers(min_value=-(10**4), max_value=10**4)
        | st.integers(min_value=-(10**13), max_value=10**13),
        claims=st.just(frozenset(PAIR_CLAIMS))
        | st.frozensets(st.sampled_from(PAIR_CLAIMS)),
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_crafted_pair_matches_record_path(self, crafted_pairs, p, g, claims):
        # The scan against the one-record-at-a-time checkers on data
        # that fails; each example replaces the fed pair.  Claim subsets
        # matter: an odd gap aborts on IDENTITIES before LEMMA_SQRT can fail.
        q = p + g
        assume(g != 0 and q != 0)
        crafted_pairs((p, q))
        outcomes = [o for o in record_path_outcomes(p, q) if o.claim in claims]
        broken = [
            o for o in outcomes
            if o.claim is ClaimId.IDENTITIES and o.status is Status.FAIL
        ]
        if broken:
            message = (
                f"identity failed at pair ({p}, {q}): "
                f"lhs={broken[0].lhs} rhs={broken[0].rhs}"
            )
            with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
                full_scan(*PRIMELESS, claims=claims)
            return
        report = full_scan(*PRIMELESS, claims=claims)
        expected = {claim: ClaimCounter() for claim in claims}
        for o in outcomes:
            expected[o.claim] = ClaimCounter(
                checked=1,
                passed=int(o.status is Status.PASS),
                vacuous=int(o.status is Status.VACUOUS_PASS),
                failed=int(o.status is Status.FAIL),
            )
        assert report.pairs_checked == 1
        assert report.per_claim == expected
        assert [(v.claim, v.pair_p, v.lhs, v.rhs) for v in report.violations] == [
            (o.claim, o.pair_p, o.lhs, o.rhs)
            for o in outcomes
            if o.status is Status.FAIL
        ]


class TestMergeReports:
    def test_zero_width_identity(self):
        report = full_scan(2, 100)
        empty = empty_report(100, 100)
        assert merge_reports(report, empty) == report
        left = empty_report(2, 2)
        assert merge_reports(left, report) == report

    def test_split_equals_single_scan(self):
        merged = merge_reports(full_scan(2, 50), full_scan(50, 100))
        assert merged == full_scan(2, 100)

    def test_pairs_checked_adds_up(self):
        a, b = full_scan(2, 50), full_scan(50, 100)
        assert a.pairs_checked + b.pairs_checked == full_scan(2, 100).pairs_checked

    def test_gap_records_refiltered_across_boundary(self):
        merged = merge_reports(full_scan(2, 64), full_scan(64, 130))
        assert [(r.p, r.g) for r in merged.gap_records] == [
            (2, 1), (3, 2), (7, 4), (23, 6), (89, 8), (113, 14),
        ]

    def test_reports_with_different_claims_are_refused(self):
        # A union would count some claims over [2, 5000) alone and others
        # over [5000, 10**4) alone, under one range.  A superset of a's
        # claims is refused too.
        a = full_scan(2, 5000, claims={ClaimId.LEMMA_SQRT})
        for other in (ClaimId.THEOREM_CUBE_BOUND, ClaimId.LEMMA_SQRT):
            b = full_scan(5000, 10**4, claims={other, ClaimId.COR_PRODUCT})
            with pytest.raises(ValueError, match=refusal(a, b)):
                merge_reports(a, b)
        # The same claim set on both sides merges to the scan of the union.
        b = full_scan(5000, 10**4, claims={ClaimId.LEMMA_SQRT})
        merged = merge_reports(a, b)
        assert merged == full_scan(2, 10**4, claims={ClaimId.LEMMA_SQRT})
        assert set(merged.per_claim) == {ClaimId.LEMMA_SQRT}
        assert merged.pairs_checked == a.pairs_checked + b.pairs_checked
        assert merged.gap_records == full_scan(2, 10**4).gap_records
        assert merged.max_ratio == full_scan(2, 10**4).max_ratio

    def test_tied_ratios_keep_the_first(self):
        # 2**3 / 3**2 == 8**3 / 24**2: the later range's ratio only ties,
        # and a tie never beats.
        first, tied = RatioRecord(8, 9, 3, 2), RatioRecord(512, 576, 24, 8)
        a = replace(empty_report(2, 50), max_ratio=first)
        b = replace(empty_report(50, 100), max_ratio=tied)
        assert merge_reports(a, b).max_ratio == first

    def test_violations_past_the_cap_keep_the_first_in_p_order(self, crafted_pairs):
        # Every fed pair fails several claims; [90, 96) and [96, 97) hold
        # no prime, so each report sees its fed pairs alone.
        cap = 7
        crafted_pairs((3, 9), (5, 15))
        a = full_scan(90, 96, violation_cap=cap)
        crafted_pairs((7, 21), (11, 33))
        b = full_scan(96, 97, violation_cap=cap)
        assert len(a.violations) < cap < len(a.violations) + len(b.violations)
        merged = merge_reports(a, b)
        assert merged.violations == (a.violations + b.violations)[:cap]
        assert [v.pair_p for v in merged.violations] == sorted(
            v.pair_p for v in merged.violations
        )
        assert {v.pair_p for v in merged.violations} == {3, 5, 7}
        for claim, counter in merged.per_claim.items():
            assert counter.failed == (
                a.per_claim[claim].failed + b.per_claim[claim].failed
            )
        assert merged.pairs_checked == 4

    def test_rejects_overlap(self):
        with pytest.raises(
            ValueError,
            match=r"^cannot merge \[2, 60\) with \[50, 100\): reports merge end "
            r"to end, of one claim set and one violation cap$",
        ):
            merge_reports(full_scan(2, 60), full_scan(50, 100))

    def test_rejects_gap(self):
        # Merged, the two would claim [2, 1001000) from 243 of its 78,573
        # pairs, and a last gap record of (1000457, 50), not (492113, 114).
        a, b = full_scan(2, 1000), full_scan(10**6, 10**6 + 1000)
        with pytest.raises(ValueError, match=refusal(a, b)):
            merge_reports(a, b)

    def test_rejects_different_violation_caps(self):
        a = full_scan(2, 50, violation_cap=3)
        b = full_scan(50, 100, violation_cap=4)
        with pytest.raises(ValueError, match=refusal(a, b)):
            merge_reports(a, b)

    def test_rejects_reversed_order(self):
        a, b = full_scan(50, 100), full_scan(2, 50)
        with pytest.raises(ValueError, match=refusal(a, b)):
            merge_reports(a, b)

    @given(
        x=st.integers(min_value=3, max_value=3000),
        y=st.integers(min_value=3, max_value=3000),
    )
    @settings(max_examples=25, deadline=None)
    @example(x=1000, y=1000)
    def test_merges_only_where_the_ranges_meet(self, x, y):
        a, b = full_scan(2, x), full_scan(y, 3100)
        if x != y:
            with pytest.raises(ValueError, match=refusal(a, b)):
                merge_reports(a, b)
        else:
            assert merge_reports(a, b) == full_scan(2, 3100)

    @given(
        cut1=st.integers(min_value=3, max_value=3000),
        cut2=st.integers(min_value=3, max_value=3000),
    )
    @settings(max_examples=25, deadline=None)
    def test_associative(self, cut1, cut2):
        lo, hi = 2, 3100
        a_end, b_end = sorted((cut1, cut2))
        a = full_scan(lo, a_end) if lo < a_end else empty_report(lo, a_end)
        b = full_scan(a_end, b_end) if a_end < b_end else empty_report(a_end, b_end)
        c = full_scan(b_end, hi)
        assert merge_reports(merge_reports(a, b), c) == merge_reports(
            a, merge_reports(b, c)
        )

    def test_partition_invariance_small(self, pools):
        # Three rule windows of 2**20 numbers: each chunk size sends three
        # tasks, cut at 2**20 or, for 33333, at 31 chunks.
        whole = full_scan(2, 3 * 10**6)
        for chunk_size in (1 << 10, 1 << 12, 33333):
            config = ScanConfig(start=2, stop=3 * 10**6, chunk_size=chunk_size,
                                workers=1)
            assert run_scan(config) == whole
        config = ScanConfig(start=2, stop=3 * 10**6, chunk_size=1 << 12, workers=3)
        assert run_scan(config) == whole
        assert pools == [3]


class TestReportSerialization:
    def test_json_round_trip(self):
        report = full_scan(2, 10**4)
        assert ScanReport.from_json_dict(report.to_json_dict()) == report

    def test_round_trip_with_violations(self, crafted_pairs):
        crafted_pairs((3, 9), (5, 1), (3, -59))
        report = full_scan(2, 1000)
        assert len(report.violations) == 7
        assert ScanReport.from_json_dict(report.to_json_dict()) == report

    def test_integers_serialized_as_decimal_strings(self):
        data = full_scan(2, 100).to_json_dict()
        assert data["pairs_checked"] == "25"
        assert data["range"] == ["2", "100"]
        assert data["max_ratio"]["g_cubed"] == "64"
        for counter in data["per_claim"].values():
            assert all(isinstance(v, str) for v in counter.values())


def _json_paths(node, prefix=()):
    """The key path of every value inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@functools.cache
def valid_checkpoint() -> dict:
    """A checkpoint document with every kind of report field filled in,
    built on first use, so a scan_chunk that raises fails the tests that
    read it, not the module's collection.  Copy it before changing it."""
    partial = full_scan(2, 1024)
    partial.violations.append(ClaimOutcome(ClaimId.COR_PRODUCT, 3, Status.FAIL, -6, 12))
    partial.c_histogram[1] = 1
    return {
        "version": 1,
        "config_digest": "digest",
        "partial": partial.to_json_dict(),
    }


GOLDEN_CHECKPOINT = Path(__file__).parent / "golden" / "checkpoint-2-5000-1024.json"
checkpoint_paths = st.deferred(
    lambda: st.sampled_from(list(_json_paths(valid_checkpoint())))
)

# Everything Python's json module reads, NaN and Infinity included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestCheckpoint:
    @given(where=checkpoint_paths, value=json_values)
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_swapped_field_loads_or_is_rejected(self, tmp_path, where, value):
        document = json.loads(json.dumps(valid_checkpoint()))
        node = document
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        # A fresh file per example: truncating a written one waits for the disk.
        path = tmp_path / "scan.ckpt"
        path.write_text(json.dumps(document))
        # Only the version mismatch is a ValueError; every other rejection
        # is a RuntimeError naming the decode step that refused the file.
        try:
            load_checkpoint(str(path))
        except ValueError as exc:
            assert type(exc) is ValueError
            assert re.fullmatch(r"checkpoint version -?\d+, expected 1", str(exc))
        except RuntimeError as exc:
            assert type(exc) is RuntimeError
            assert re.match(
                r"(unreadable|malformed) checkpoint |checkpoint .*: partial "
                r"report does not match its SHA-256$",
                str(exc),
            )
        finally:
            path.unlink()

    @given(value=json_values)
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_other_stored_hash_is_rejected(self, tmp_path, value):
        path = tmp_path / "scan.ckpt"
        save_checkpoint(CheckpointState("x", full_scan(2, 1024)), str(path))
        document = json.loads(path.read_text())
        assume(value != document["partial_sha256"])
        document["partial_sha256"] = value
        path.write_text(json.dumps(document))
        with pytest.raises(RuntimeError, match="does not match its SHA-256$"):
            load_checkpoint(str(path))

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=5000, chunk_size=1 << 10)
        partial = full_scan(2, 1024)
        state = CheckpointState(config.digest(), partial)
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.config_digest == config.digest()
        assert loaded.partial == partial

    def test_on_disk_schema(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=5000, chunk_size=1 << 10,
                            checkpoint_path=path, workers=1)
        run_scan(config, halt_after_chunks=1)
        with open(path) as fh:
            document = json.load(fh)
        assert document["partial"]["range"] == ["2", "1026"]
        run_scan(config)
        with open(path) as fh:
            document = json.load(fh)
        assert set(document) == {
            "version", "config_digest", "partial", "partial_sha256"
        }
        assert document["version"] == 1
        assert document["partial_sha256"] == hashlib.sha256(
            json.dumps(document["partial"], sort_keys=True).encode()
        ).hexdigest()
        assert document["partial"]["range"] == ["2", "5000"]

    def test_resumes_a_checkpoint_that_lists_its_chunks(self, tmp_path):
        # Written by a run_scan that also saved the list of completed
        # chunks, halted after two of them; the list is ignored.
        golden = GOLDEN_CHECKPOINT.read_text()
        assert '"completed": [["2", "1026"], ["1026", "2050"]]' in golden
        path = tmp_path / "scan.ckpt"
        shutil.copy(GOLDEN_CHECKPOINT, path)
        config = ScanConfig(start=2, stop=5000, chunk_size=1024,
                            checkpoint_path=str(path), workers=1)
        seen = []
        resumed = run_scan(config, lambda *args: seen.append(args))
        assert resumed == run_scan(
            ScanConfig(start=2, stop=5000, chunk_size=1024, workers=1)
        )
        # The three chunks left lie in one rule window: one task.
        assert seen == [(5, 5, (2050, 5000))]
        assert set(json.loads(path.read_text())) == {
            "version", "config_digest", "partial", "partial_sha256"
        }

    def test_corrupt_file_detected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        path.write_text("{not json")
        with pytest.raises(RuntimeError, match="^unreadable checkpoint "):
            load_checkpoint(str(path))
        path.write_text('{"version": 1}')
        with pytest.raises(RuntimeError, match="^malformed checkpoint "):
            load_checkpoint(str(path))

    def test_version_mismatch_detected(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        path.write_text(
            '{"version": 2, "config_digest": "x", "partial": null}'
        )
        with pytest.raises(ValueError, match="^checkpoint version 2, expected 1$"):
            load_checkpoint(str(path))

    def test_config_mismatch_rejected_on_resume(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=5000, chunk_size=1 << 10,
                            checkpoint_path=path, workers=1)
        run_scan(config, halt_after_chunks=1)
        other = ScanConfig(start=2, stop=6000, chunk_size=1 << 10,
                           checkpoint_path=path, workers=1)
        with pytest.raises(ValueError, match=(
            "^checkpoint was written by a different scan configuration$"
        )):
            run_scan(other)

    def test_interrupt_and_resume_reproduces_report(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=5000, chunk_size=1 << 10,
                            checkpoint_path=path, workers=1)
        partial = run_scan(config, halt_after_chunks=2)
        assert partial.stop < 5000
        resumed = run_scan(config)
        uninterrupted = run_scan(
            ScanConfig(start=2, stop=5000, chunk_size=1 << 10, workers=1)
        )
        assert resumed == uninterrupted

    @pytest.mark.parametrize("halt", [0, -1])
    def test_halt_below_one_is_rejected(self, tmp_path, halt):
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=5000, chunk_size=1 << 10,
                            checkpoint_path=path, workers=1)
        with pytest.raises(ValueError, match="halt_after_chunks"):
            run_scan(config, halt_after_chunks=halt)
        assert not os.path.exists(path)

    def test_resume_of_finished_scan_is_a_no_op(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=5000, chunk_size=1 << 10,
                            checkpoint_path=path, workers=1)
        first = run_scan(config)
        again = run_scan(config)
        assert again == first

    @pytest.mark.parametrize(
        "step, halt, saved_at",
        [
            (0.0, None, [64]),
            (0.0, 5, [5]),
            (0.25, None, list(range(4, 65, 4))),
            (1.5, None, list(range(1, 65))),
        ],
    )
    def test_saves_at_most_once_per_interval(
        self, tmp_path, monkeypatch, step, halt, saved_at
    ):
        # A stubbed clock advances `step` seconds per scanned task; every
        # save records how many of the 64 chunks its partial report covers.
        # A chunk of 2**20 numbers fills a rule window here, so each chunk
        # is a task of its own.
        now = 0.0
        scan_chunk_ = gapscan.scan.scan_chunk
        save_checkpoint_ = gapscan.scan.save_checkpoint
        saved = []

        def timed_chunk(*args):
            nonlocal now
            now += step
            return scan_chunk_(*args)

        def counted_save(state, path):
            saved.append((state.partial.stop - 2) // 2**20)
            save_checkpoint_(state, path)

        clock = SimpleNamespace(
            monotonic=lambda: now, perf_counter_ns=time.perf_counter_ns
        )
        monkeypatch.setattr(gapscan.scan, "time", clock)
        monkeypatch.setattr(gapscan.scan, "scan_chunk", timed_chunk)
        monkeypatch.setattr(gapscan.scan, "save_checkpoint", counted_save)
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=2 + 64 * 2**20, chunk_size=1 << 20,
                            checkpoint_path=path, workers=1)
        report = run_scan(config, halt_after_chunks=halt)
        assert saved == saved_at
        assert load_checkpoint(path).partial == report

    def test_save_syncs_before_replace(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace

        def logged_fsync(fd):
            calls.append("fsync")
            fsync(fd)

        def logged_replace(src, dst):
            calls.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(os, "replace", logged_replace)
        path = str(tmp_path / "scan.ckpt")
        partial = full_scan(2, 1024)
        save_checkpoint(CheckpointState("x", partial), path)
        assert calls == ["fsync", "replace"]
        assert load_checkpoint(path).partial == partial

    def test_workers_do_not_change_digest(self):
        base = ScanConfig(start=2, stop=5000, workers=1)
        assert base.digest() == ScanConfig(start=2, stop=5000, workers=7).digest()
        assert base.digest() != ScanConfig(start=2, stop=5001, workers=1).digest()


class TestPool:
    def test_halt_and_resume_under_a_pool(self, tmp_path, pools):
        # 49 chunks of 2**18 numbers: the halt at 5 leaves too few chunks for
        # 4 tasks per worker, so they go out one to a task; the resume sends
        # tasks of 4, one rule window, from there.
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(start=2, stop=12_800_000, chunk_size=1 << 18,
                            checkpoint_path=path, workers=2)
        plan = list(plan_chunks(config))
        assert len(plan) == 49
        seen = []

        def progress(done, total, chunk):
            seen.append((done, total, chunk))

        partial = run_scan(config, progress, halt_after_chunks=5)
        assert multiprocessing.active_children() == []
        state = load_checkpoint(path)
        assert state.partial.stop == plan[4][1]
        assert state.partial == partial
        prefix = ScanConfig(start=2, stop=plan[4][1], chunk_size=1 << 18, workers=1)
        assert partial == run_scan(prefix)

        resumed = run_scan(config, progress)
        assert multiprocessing.active_children() == []
        uninterrupted = run_scan(
            ScanConfig(start=2, stop=12_800_000, chunk_size=1 << 18, workers=1)
        )
        assert resumed == uninterrupted
        assert pools == [2, 2]
        cuts = [*range(6), *range(9, 50, 4)]
        assert seen == [
            (j, len(plan), (plan[i][0], plan[j - 1][1]))
            for i, j in zip(cuts, cuts[1:])
        ]

    # [2, 10**15) in chunks of 2**10 is about 10**12 chunks, sent as about
    # 1.5 * 10**7 tasks of one 2**26-number window.  A task held in a list
    # takes some 140 bytes, so a scan that listed its tasks, or fed them to
    # Pool.map, would fail under the 1 GiB cap before it merged one.  A halt
    # would cut the stream short, so these scans run unhalted and stop by
    # raising from `progress` at the first merge.  Never run them without
    # the cap.
    FIRST_TASK = (
        "from gapscan.scan import ScanConfig, run_scan\n"
        "class Merged(Exception):\n"
        "    pass\n"
        "def stop(done, total, task):\n"
        "    raise Merged(task)\n"
        "def first_task(workers):\n"
        "    config = ScanConfig(2, 10**15, chunk_size=2**10, workers=workers)\n"
        "    try:\n"
        "        run_scan(config, stop)\n"
        "    except Merged as merged:\n"
        "        return merged.args[0]\n"
        "    raise AssertionError('the scan ended')\n"
    )

    def test_huge_plan_runs_in_bounded_memory(self):
        code, err = run_capped(
            self.FIRST_TASK + "assert first_task(1) == (2, 2 + 2**26)\n",
            limit_mib=1024,
        )
        assert code == 0, err

    def test_huge_plan_on_a_pool_runs_in_bounded_memory(self):
        code, err = run_capped(
            "import multiprocessing\n"
            "from types import SimpleNamespace\n"
            "opened = []\n"
            "context = multiprocessing.get_context()\n"
            "def pool(workers):\n"
            "    opened.append(workers)\n"
            "    return context.Pool(workers)\n"
            "multiprocessing.get_context = lambda: SimpleNamespace(Pool=pool)\n"
            + self.FIRST_TASK
            + "assert first_task(2) == (2, 2 + 2**26)\n"
            "assert opened == [2], opened\n"
            "assert multiprocessing.active_children() == []\n",
            limit_mib=1024,
        )
        assert code == 0, err

    @staticmethod
    def sent(monkeypatch, config: ScanConfig) -> tuple[list[int], list[tuple[int, int]]]:
        """The worker count of each pool run_scan opens for config, and the
        (lo, hi) of each task it sends, from a stand-in pool that maps in
        this process and a scan_chunk that scans nothing."""
        opened, tasks = [], []

        class RecordingPool:
            def __init__(self, workers):
                opened.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def imap(self, fn, stream):
                return map(fn, stream)

        def unscanned(lo, hi, claims, violation_cap):
            tasks.append((lo, hi))
            return ChunkTally(claims, violation_cap).report(lo, hi, 0)

        monkeypatch.setattr(
            multiprocessing, "get_context", lambda: SimpleNamespace(Pool=RecordingPool)
        )
        monkeypatch.setattr(gapscan.scan, "scan_chunk", unscanned)
        run_scan(config)
        return opened, tasks

    @pytest.mark.parametrize("chunk_size", [1 << 20, 1 << 22, 1 << 24])
    def test_one_chunk_per_message_from_a_floor_window_up(
        self, monkeypatch, chunk_size
    ):
        # A chunk at least as wide as its rule window is a task of its own.
        config = ScanConfig(start=2, stop=2 + 64 * chunk_size,
                            chunk_size=chunk_size, workers=2)
        assert self.sent(monkeypatch, config) == ([2], list(plan_chunks(config)))

    def test_cheap_chunks_fill_a_floor_window(self, monkeypatch):
        # The parallel checkpointed benchmark's shape: its 306 chunks go out
        # 16 to a task, 20 tasks, the last one cut at stop.
        stop = 2 * 10**7
        config = ScanConfig(start=2, stop=stop, chunk_size=1 << 16, workers=2)
        opened, tasks = self.sent(monkeypatch, config)
        assert opened == [2]
        assert tasks == [
            (lo, min(lo + 16 * 2**16, stop)) for lo in range(2, stop, 2**20)
        ]
        assert len(tasks) == 20

    @pytest.mark.parametrize("chunks", [2, 7, 8, 9, 17, 33, 100])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_short_plan_gives_each_worker_four_messages(
        self, monkeypatch, chunks, workers
    ):
        # The whole plan fits in one rule window, so only the four-tasks
        # rule splits it: 17 chunks on 2 workers go out 2 to a task.
        config = ScanConfig(start=2, stop=2 + chunks * 1024, chunk_size=1024,
                            workers=workers)
        [opened], tasks = self.sent(monkeypatch, config)
        assert opened == min(workers, chunks)
        k = max(1, chunks // (4 * opened))
        assert tasks == [(lo, min(lo + k * 1024, config.stop))
                         for lo in range(2, config.stop, k * 1024)]
        assert len(tasks) >= min(chunks, 4 * opened)

    def test_plan_inside_one_window_is_one_task_in_process(self, monkeypatch):
        config = ScanConfig(start=2, stop=2 + 100 * 1024, chunk_size=1024,
                            workers=1)
        assert self.sent(monkeypatch, config) == ([], [(2, 2 + 100 * 1024)])

    def test_per_claim_order_ignores_hash_seed(self):
        # ClaimId hashes are string hashes, so an order taken from a set
        # would change with PYTHONHASHSEED.
        script = (
            "from gapscan.scan import scan_chunk; "
            "print(' '.join(c.value for c in scan_chunk(2, 1000).per_claim))"
        )
        src = os.path.dirname(os.path.dirname(gapscan.scan.__file__))
        orders = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=60,
            )
            orders.append(done.stdout.split())
        assert orders[0] == orders[1] == [c.value for c in PAIR_CLAIMS]


class TestColdStart:
    """A process loads `multiprocessing` only when run_scan opens a pool,
    and `hashlib` only when a scan checkpoints."""

    SCAN = "from gapscan.scan import ScanConfig, run_scan, scan_chunk\n"

    @pytest.mark.parametrize("call, loaded", [
        pytest.param(SCAN + "scan_chunk(2, 10**5)", set(), id="scan_chunk"),
        pytest.param(
            "from gapscan.claims import check_cube_interval\n"
            "check_cube_interval(3)", set(), id="check_cube_interval",
        ),
        pytest.param(
            SCAN + "run_scan(ScanConfig(2, 10**5, workers=1))", set(),
            id="run_scan-1w",
        ),
        pytest.param(
            "from gapscan.cli import run\n"
            "assert run(['pair', '113']) == 0\n"
            "assert run(['cubes', '--max-n', '3']) == 0", set(), id="pair-cubes",
        ),
        # Controls: these runs load one each, so the check is shown to see it.
        pytest.param(
            SCAN + "run_scan(ScanConfig(2, 10**5, workers=1, checkpoint_path=PATH))",
            {"hashlib"}, id="run_scan-1w-checkpoint",
        ),
        pytest.param(
            SCAN + "run_scan(ScanConfig(2, 10**5, chunk_size=1024, workers=2))",
            {"multiprocessing"}, id="run_scan-pool",
        ),
    ])
    def test_entry_point_loads_only_what_it_uses(self, tmp_path, call, loaded):
        script = (
            f"PATH = {str(tmp_path / 'scan.ckpt')!r}\n{call}\n"
            "import sys\n"
            "print(*(m for m in ('hashlib', 'multiprocessing') if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(gapscan.scan.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert set(done.stdout.splitlines()[-1].split()) == loaded


class TestTasks:
    """A task is the consecutive chunks of one rule window, scanned by one
    walk: the sieve windows of a scan do not depend on its chunk size."""

    def test_dense_tasks_sieve_one_floor_window_each(self, monkeypatch):
        # 306 chunks of 2**16 numbers go out as 20 tasks of one window.
        stop = 2 * 10**7
        calls = count_calls(monkeypatch, gapscan.primes, "sieve_range")
        report = run_scan(ScanConfig(2, stop, chunk_size=1 << 16, workers=1))
        assert calls == [(lo, min(lo + 2**20, stop)) for lo in range(2, stop, 2**20)]
        assert len(calls) == 20
        assert report == run_scan(ScanConfig(2, stop, chunk_size=1 << 10, workers=1))
        assert report == scan_chunk(2, stop)

    def test_high_default_chunks_are_one_window(self, monkeypatch):
        # Four default chunks of 2**24 numbers make one 2**26-number window.
        lo, hi = 10**12, 10**12 + 2**26
        calls = count_calls(monkeypatch, gapscan.primes, "sieve_range")
        report = run_scan(ScanConfig(lo, hi, workers=1))
        assert calls == [(lo, hi)]
        assert report == run_scan(ScanConfig(lo, hi, chunk_size=1 << 10, workers=1))
        assert report == scan_chunk(lo, hi)

    def test_halt_on_a_pool_stops_on_the_chunk_grid(self, tmp_path, pools):
        stop, chunk = 2 * 10**7, 1 << 16
        path = str(tmp_path / "scan.ckpt")
        config = ScanConfig(2, stop, chunk_size=chunk, checkpoint_path=path,
                            workers=2)
        halt = 2 + 37 * chunk
        partial = run_scan(config, halt_after_chunks=37)
        assert (partial.start, partial.stop) == (2, halt)
        assert load_checkpoint(path).partial == partial
        assert partial == scan_chunk(2, halt)

        # 37 chunks is off the grid of 16-chunk tasks, and the resume's
        # tasks start there.
        seen = []
        resumed = run_scan(config, lambda *args: seen.append(args))
        assert seen[0] == (37 + 16, 306, (halt, halt + 2**20))
        assert seen[-1] == (306, 306, (seen[-1][2][0], stop))
        assert resumed == scan_chunk(2, stop)
        assert pools == [2, 2]
        assert multiprocessing.active_children() == []


class TestScanConfigValidation:
    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            ScanConfig(start=2, stop=0).validate()

    @pytest.mark.parametrize("stop", [10, 5])
    def test_rejects_empty_or_reversed_range(self, stop):
        with pytest.raises(
            ValueError, match=rf"^empty, reversed or negative range \[10, {stop}\)$"
        ):
            ScanConfig(start=10, stop=stop).validate()

    def test_rejects_start_below_two(self):
        with pytest.raises(ValueError):
            ScanConfig(start=1, stop=100).validate()

    def test_rejects_tiny_chunks(self):
        with pytest.raises(ValueError):
            ScanConfig(start=2, stop=100, chunk_size=512).validate()

    def test_rejects_no_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ScanConfig(start=2, stop=100, workers=0).validate()

    def test_rejects_negative_violation_cap(self):
        with pytest.raises(ValueError, match="violation_cap must be >= 0"):
            ScanConfig(start=2, stop=100, violation_cap=-1).validate()

    def test_rejects_cube_interval_claim(self):
        with pytest.raises(ValueError):
            ScanConfig(
                start=2, stop=100, claims=frozenset({ClaimId.CUBE_INTERVAL})
            ).validate()

    def test_rejects_universe_escape(self):
        with pytest.raises(ValueError):
            ScanConfig(start=2, stop=(1 << 63) + 1).validate()

    def test_stop_is_capped_at_the_scan_limit(self):
        # Validation only: no scan runs, so no base prime is sieved.
        assert SCAN_LIMIT == 10**16
        ScanConfig(start=2, stop=SCAN_LIMIT).validate()
        for start, stop in [(2, SCAN_LIMIT + 1), (2**63 - 100, 2**63)]:
            with pytest.raises(ValueError, match=r"exceeds 10\*\*16"):
                ScanConfig(start=start, stop=stop).validate()

    def test_walks_past_the_scan_limit_are_refused_before_sieving(self):
        # Called without a ScanConfig, the pair walk and scan_chunk meet the
        # limit in windows.  Near 2**63 the base primes alone outgrow the
        # 1 GiB cap, so a walk that sieved first would die of MemoryError.
        code, err = run_capped(
            "from gapscan.primes import iter_consecutive_pairs\n"
            "from gapscan.scan import scan_chunk\n"
            "walks = [lambda: next(iter_consecutive_pairs(2**63 - 100, 2**63)),\n"
            "         lambda: scan_chunk(2**63 - 100, 2**63)]\n"
            "for walk in walks:\n"
            "    try:\n"
            "        walk()\n"
            "    except ValueError as exc:\n"
            "        assert 'exceeds 10**16' in str(exc), exc\n"
            "    else:\n"
            "        raise AssertionError('the walk was not refused')\n",
            limit_mib=1024,
        )
        assert code == 0, err

    def test_default_workers_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_workers() == 1
        assert ScanConfig(start=2, stop=100).workers == 1

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_default_workers_without_affinity_count_every_cpu(
        self, monkeypatch, cpus, workers
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert default_workers() == workers
