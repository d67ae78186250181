from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapscan.errors import (
    InvalidRangeError,
    MidpointUndefinedError,
    NotConsecutiveError,
    NotPrimeError,
)
from gapscan.midpoint import (
    MidpointRecord,
    PrimePair,
    compute_record,
    make_pair,
)
from gapscan.primes import iter_consecutive_pairs, next_prime_above

from conftest import count_odd_multiples, oracle_largest_odd_multiple


def record_by_enumeration(p: int, q: int) -> MidpointRecord:
    """Independent construction: step through odd multiples directly instead
    of using the closed forms."""
    g = q - p
    b = g // 2
    m = p + b
    m2 = m * m
    ap = oracle_largest_odd_multiple(p, m2)
    bq = oracle_largest_odd_multiple(q, m2)
    c_lo = count_odd_multiples(p, p * q, m2) if p * q < m2 else 0
    c_hi = count_odd_multiples(q, p * q, m2) if p * q < m2 else 0
    return MidpointRecord(
        pair=PrimePair(p=p, q=q, g=g, m=m, b=b),
        m2=m2,
        alpha_mult=ap // p,
        beta_mult=bq // q,
        c_lo=c_lo,
        c_hi=c_hi,
        x_lo=m2 - ap,
        x_hi=m2 - bq,
        delta=bq - ap,
    )


def consecutive_pair_at(seed: int) -> PrimePair:
    p = next_prime_above(max(seed, 2))
    return make_pair(p, next_prime_above(p))


class TestMakePair:
    def test_smallest_odd_pair(self):
        pair = make_pair(3, 5)
        assert (pair.g, pair.m, pair.b) == (2, 4, 1)

    def test_gap_four_pair(self):
        pair = make_pair(7, 11)
        assert (pair.g, pair.m, pair.b) == (4, 9, 2)

    def test_rejects_skipped_prime(self):
        with pytest.raises(NotConsecutiveError):
            make_pair(7, 13)

    def test_rejects_composites(self):
        with pytest.raises(NotPrimeError):
            make_pair(9, 11)
        with pytest.raises(NotPrimeError):
            make_pair(7, 9)

    def test_rejects_even_prime_start(self):
        with pytest.raises(MidpointUndefinedError):
            make_pair(2, 3)

    def test_rejects_reversed_input(self):
        with pytest.raises(InvalidRangeError):
            make_pair(11, 7)


class TestComputeRecord:
    def test_pair_3_5(self):
        r = compute_record(make_pair(3, 5))
        assert (r.m2, r.x_lo, r.x_hi) == (16, 1, 1)
        assert (r.c_lo, r.c_hi) == (0, 0)
        assert (r.alpha_mult, r.beta_mult, r.delta) == (5, 3, 0)

    def test_pair_7_11(self):
        r = compute_record(make_pair(7, 11))
        assert (r.m2, r.x_lo, r.x_hi) == (81, 4, 4)
        assert (r.c_lo, r.c_hi) == (0, 0)
        assert (r.alpha_mult, r.beta_mult, r.delta) == (11, 7, 0)

    def test_pair_89_97(self):
        r = compute_record(make_pair(89, 97))
        assert 89 * 97 == 8649 - 16
        assert (r.m2, r.x_lo, r.x_hi) == (8649, 16, 16)
        assert (r.c_lo, r.c_hi, r.delta) == (0, 0, 0)

    def test_rejects_p_two(self):
        with pytest.raises(MidpointUndefinedError):
            compute_record(PrimePair(p=2, q=3, g=1, m=2, b=0))

    def test_matches_enumeration_exhaustively_below_1e5(self):
        for p, q in iter_consecutive_pairs(3, 10**5):
            pair = PrimePair(p=p, q=q, g=q - p, m=(p + q) // 2, b=(q - p) // 2)
            assert compute_record(pair) == record_by_enumeration(p, q)

    @given(seed=st.integers(min_value=3, max_value=10**9))
    @settings(max_examples=60)
    def test_matches_enumeration_at_random_heights(self, seed: int):
        pair = consecutive_pair_at(seed)
        assert compute_record(pair) == record_by_enumeration(pair.p, pair.q)

    @given(seed=st.integers(min_value=3, max_value=10**12))
    @settings(max_examples=40)
    def test_invariants_hold(self, seed: int):
        pair = consecutive_pair_at(seed)
        r = compute_record(pair)
        p, q, b = pair.p, pair.q, pair.b
        # squared-midpoint offset identity
        assert r.m2 - p * q == b * b
        # the two largest odd multiples sit exactly x below m**2
        assert r.alpha_mult * p == r.m2 - r.x_lo
        assert r.beta_mult * q == r.m2 - r.x_hi
        assert r.alpha_mult * p == p * (q + 2 * r.c_lo)
        assert r.beta_mult * q == q * (p + 2 * r.c_hi)
        # residue ranges; zero is impossible because p < m < q < 2p
        assert 0 < r.x_lo < 2 * p
        assert 0 < r.x_hi < 2 * q
        assert r.delta == r.x_lo - r.x_hi
        # reconstruction: alpha*p is the largest odd multiple not above m**2
        assert r.alpha_mult % 2 == 1 and r.beta_mult % 2 == 1
        assert r.alpha_mult * p + 2 * p > r.m2
        assert r.beta_mult * q + 2 * q > r.m2
        # counts never increase when the divisor grows
        assert r.c_hi <= r.c_lo


class TestCountOddMultiples:
    def test_empty_stretch(self):
        assert count_odd_multiples(3, 15, 16) == 0

    def test_single_hit(self):
        assert count_odd_multiples(3, 15, 21) == 1

    def test_window_between_multiples(self):
        assert count_odd_multiples(7, 77, 81) == 0

    def test_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            count_odd_multiples(4, 0, 100)
        with pytest.raises(ValueError):
            count_odd_multiples(1, 0, 100)

    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidRangeError):
            count_odd_multiples(3, 10, 10)

    def test_closed_form_beyond_enumeration_span(self):
        d = 3
        hi = 10**8 * d
        # (0, hi] holds hi/d multiples of d, half of them odd
        assert count_odd_multiples(d, 0, hi) == 10**8 // 2

    @given(
        d=st.integers(min_value=1, max_value=60).map(lambda k: 2 * k + 1),
        lo=st.integers(min_value=0, max_value=10**6),
        span=st.integers(min_value=1, max_value=5000),
    )
    def test_enumeration_matches_direct_listing(self, d: int, lo: int, span: int):
        hi = lo + span
        expected = sum(
            1 for v in range(lo + 1, hi + 1) if v % d == 0 and (v // d) % 2 == 1
        )
        assert count_odd_multiples(d, lo, hi) == expected

    @given(
        d=st.integers(min_value=1, max_value=10**6).map(lambda k: 2 * k + 1),
        lo=st.integers(min_value=0, max_value=10**14),
        span=st.integers(min_value=1, max_value=10**14),
    )
    @settings(max_examples=80)
    def test_closed_form_agrees_with_enumeration_mode(self, d, lo, span):
        hi = lo + span
        closed = (hi // d + 1) // 2 - (lo // d + 1) // 2
        assert count_odd_multiples(d, lo, hi) == closed
