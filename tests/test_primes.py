from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapscan.errors import InvalidRangeError, RangeTooLargeError
from gapscan.primes import (
    MAX_SIEVE_WIDTH,
    is_prime,
    iter_consecutive_pairs,
    next_prime_above,
    sieve_range,
)

from conftest import (
    flagged_primes,
    oracle_count_primes_below,
    stream_consecutive_pairs,
    trial_division_is_prime,
    trial_division_primes,
)


def segment_primes(lo: int, hi: int) -> list[int]:
    return list(flagged_primes(sieve_range(lo, hi)))


class TestSieveRange:
    def test_small_window(self):
        assert segment_primes(10, 30) == [11, 13, 17, 19, 23, 29]

    def test_window_holding_only_two(self):
        assert segment_primes(0, 3) == [2]

    def test_all_composite_window(self):
        assert segment_primes(24, 28) == []

    def test_matches_trial_division_low(self):
        assert segment_primes(0, 1000) == trial_division_primes(0, 1000)

    def test_matches_trial_division_offset(self):
        assert segment_primes(10**6, 10**6 + 2000) == trial_division_primes(
            10**6, 10**6 + 2000
        )

    def test_flag_semantics(self):
        seg = sieve_range(10, 30)
        assert 11 in seg and 29 in seg
        assert 21 not in seg
        assert 9 not in seg  # outside the window
        assert seg.count() == 6

    def test_rejects_empty_range(self):
        with pytest.raises(InvalidRangeError):
            sieve_range(30, 30)
        with pytest.raises(InvalidRangeError):
            sieve_range(30, 10)

    def test_rejects_universe_escape(self):
        with pytest.raises(InvalidRangeError):
            sieve_range(2**63 - 10, 2**63 + 10)

    def test_rejects_oversized_allocation(self):
        with pytest.raises(RangeTooLargeError):
            sieve_range(0, MAX_SIEVE_WIDTH + 1)

    @given(
        lo=st.integers(min_value=0, max_value=10**6),
        width=st.integers(min_value=1, max_value=512),
    )
    def test_agrees_with_trial_division(self, lo: int, width: int):
        assert segment_primes(lo, lo + width) == trial_division_primes(lo, lo + width)

    def test_agrees_with_miller_rabin_on_random_high_segments(self):
        # Scaled-down version of the 10^4-segment sweep: full agreement on
        # every cell of random windows below 10^12.
        rng = random.Random(0x5EED)
        for _ in range(12):
            lo = rng.randrange(2, 10**12 - 10**4)
            seg = sieve_range(lo, lo + 10**4)
            for offset, flag in enumerate(seg.flags):
                assert bool(flag) == is_prime(lo + offset)


class TestIsPrime:
    def test_two_is_prime(self):
        assert is_prime(2)

    def test_units_are_not_prime(self):
        assert not is_prime(1)
        assert not is_prime(0)

    def test_semiprime(self):
        assert 31 * 151 == 4681
        assert not is_prime(4681)

    def test_carmichael_number(self):
        assert 3 * 11 * 17 == 561
        assert not is_prime(561)

    def test_strong_pseudoprime_to_nine_bases(self):
        # Smallest composite passing bases 2..23; the witness set must
        # still catch it.
        n = 3825123056546413051
        assert 149491 * 747451 * 34233211 == n
        assert not is_prime(n)

    def test_large_known_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**64 - 59)

    @given(n=st.integers(min_value=0, max_value=10**6))
    def test_matches_trial_division(self, n: int):
        assert is_prime(n) == trial_division_is_prime(n)

    @given(n=st.integers(min_value=10**9, max_value=10**10))
    @settings(max_examples=50)
    def test_matches_trial_division_high(self, n: int):
        assert is_prime(n) == trial_division_is_prime(n)


class TestNextPrimeAbove:
    def test_examples(self):
        assert next_prime_above(7) == 11
        assert next_prime_above(1) == 2
        assert next_prime_above(113) == 127
        assert next_prime_above(0) == 2
        assert next_prime_above(2) == 3

    def test_overflow_near_universe_cap(self):
        with pytest.raises(OverflowError):
            next_prime_above(2**63 - 1)

    @given(n=st.integers(min_value=0, max_value=10**7))
    @settings(max_examples=60)
    def test_is_smallest_prime_above(self, n: int):
        q = next_prime_above(n)
        assert q > n
        assert trial_division_is_prime(q)
        assert all(not trial_division_is_prime(k) for k in range(n + 1, q))


class TestConsecutivePairs:
    def test_pairs_from_two(self):
        assert list(iter_consecutive_pairs(2, 12)) == [
            (2, 3), (3, 5), (5, 7), (7, 11), (11, 13),
        ]

    def test_primeless_window_emits_nothing(self):
        assert trial_division_primes(90, 97) == []
        assert list(iter_consecutive_pairs(90, 97)) == []

    def test_successor_found_past_the_window(self):
        assert list(iter_consecutive_pairs(113, 114)) == [(113, 127)]

    def test_emit_callback_and_count(self):
        seen = []
        count = stream_consecutive_pairs(2, 12, lambda p, q: seen.append((p, q)))
        assert count == 5
        assert seen == [(2, 3), (3, 5), (5, 7), (7, 11), (11, 13)]

    def test_pair_count_to_one_million(self):
        expected = oracle_count_primes_below(10**6)
        assert expected == 78498
        count = sum(1 for _ in iter_consecutive_pairs(2, 10**6))
        assert count == expected

    @given(
        lo=st.integers(min_value=0, max_value=10**9),
        width=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=40)
    def test_pairs_chain_and_use_true_successors(self, lo: int, width: int):
        pairs = list(iter_consecutive_pairs(lo, lo + width, segment_width=1024))
        for (p, q), (p2, _) in zip(pairs, pairs[1:]):
            assert q == p2
        for p, q in pairs:
            assert lo <= p < lo + width
            assert is_prime(p) and is_prime(q)
            assert all(not is_prime(k) for k in range(p + 1, q))
