from __future__ import annotations

import dataclasses
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapscan.primes
from gapscan.claims import (
    PAIR_CLAIMS,
    ClaimId,
    Status,
    check_cor_bound,
    check_cor_product,
    check_cube_interval,
    check_identities,
    check_lemma_order,
    check_lemma_ratio,
    check_lemma_sqrt,
    check_pair,
    check_theorem,
)
from gapscan.midpoint import MidpointRecord, PrimePair, compute_record
from gapscan.primes import iter_consecutive_pairs, next_prime_above

from conftest import make_pair, run_capped, trial_division_primes


def record_at(p: int, q: int) -> MidpointRecord:
    return compute_record(make_pair(p, q))


class TestIdentities:
    def test_passes_on_computed_records(self):
        for p, q in ((3, 5), (89, 97), (113, 127)):
            outcome = check_identities(record_at(p, q))
            assert outcome.status is Status.PASS
            assert (outcome.lhs, outcome.rhs) == (0, 0)

    def test_fails_on_corrupted_residue(self):
        broken = dataclasses.replace(record_at(3, 5), x_lo=2)
        outcome = check_identities(broken)
        assert outcome.status is Status.FAIL
        # first violated equation is alpha*p = m2 - x_lo
        assert (outcome.lhs, outcome.rhs) == (15, 14)

    def test_fails_on_corrupted_count(self):
        broken = dataclasses.replace(record_at(7, 11), c_lo=1)
        assert check_identities(broken).status is Status.FAIL

    def test_exhaustive_below_one_million(self):
        # Definitional soundness: every computed record passes.
        bad = 0
        for p, q in iter_consecutive_pairs(3, 10**6):
            r = compute_record(PrimePair(p=p, q=q, g=q - p, m=(p + q) // 2, b=(q - p) // 2))
            if check_identities(r).status is not Status.PASS:
                bad += 1
        assert bad == 0


class TestLemmaOrder:
    def test_passes_on_small_pairs(self):
        for p, q in ((7, 11), (113, 127)):
            outcome = check_lemma_order(record_at(p, q))
            assert outcome.status is Status.PASS
            assert (outcome.lhs, outcome.rhs) == (0, 0)

    def test_synthetic_inversion_fails(self):
        broken = dataclasses.replace(record_at(7, 11), c_hi=2, c_lo=1)
        outcome = check_lemma_order(broken)
        assert outcome.status is Status.FAIL
        assert (outcome.lhs, outcome.rhs) == (2, 1)


class TestCorBound:
    def test_small_pairs(self):
        outcome = check_cor_bound(record_at(3, 5))
        assert outcome.status is Status.PASS
        assert (outcome.lhs, outcome.rhs) == (0, 6)

    def test_equal_largest_odd_multiples(self):
        r = record_at(23, 29)
        assert r.alpha_mult * 23 == r.beta_mult * 29 == 667
        outcome = check_cor_bound(r)
        assert outcome.status is Status.PASS
        assert (outcome.lhs, outcome.rhs) == (0, 46)

    def test_boundary_is_strict(self):
        broken = dataclasses.replace(record_at(3, 5), delta=6)
        assert check_cor_bound(broken).status is Status.FAIL


class TestCorProduct:
    def test_vacuous_when_both_sides_zero(self):
        for p, q in ((7, 11), (3, 5)):
            outcome = check_cor_product(record_at(p, q))
            assert outcome.status is Status.VACUOUS_PASS
            assert (outcome.lhs, outcome.rhs) == (0, 0)

    def test_fabricated_counterexample_fails(self):
        # Not a real consecutive pair: forces c_lo=1 with c_hi=0.
        pair = PrimePair(p=101, q=103, g=2, m=102, b=1)
        alpha = 103 + 2 * 1
        beta = 101
        record = MidpointRecord(
            pair=pair,
            m2=102 * 102,
            alpha_mult=alpha,
            beta_mult=beta,
            c_lo=1,
            c_hi=0,
            x_lo=102 * 102 - alpha * 101,
            x_hi=102 * 102 - beta * 103,
            delta=beta * 103 - alpha * 101,
        )
        assert record.delta == -202
        outcome = check_cor_product(record)
        assert outcome.status is Status.FAIL
        assert (outcome.lhs, outcome.rhs) == (-202, 4)

    def test_nonzero_agreement_is_plain_pass(self):
        fabricated = dataclasses.replace(record_at(7, 11), delta=8, c_lo=1)
        assert check_cor_product(fabricated).status is Status.PASS

    @given(seed=st.integers(min_value=3, max_value=10**7))
    @settings(max_examples=60)
    def test_vacuous_whenever_gap_squared_below_8p(self, seed: int):
        p = next_prime_above(seed)
        r = record_at(p, next_prime_above(p))
        if r.pair.g ** 2 < 8 * p:
            assert check_cor_product(r).status is Status.VACUOUS_PASS


class TestLemmaRatio:
    def test_zero_left_side(self):
        outcome = check_lemma_ratio(record_at(7, 11))
        assert outcome.status is Status.PASS
        assert (outcome.lhs, outcome.rhs) == (0, 7)

    def test_pair_113(self):
        outcome = check_lemma_ratio(record_at(113, 127))
        assert (outcome.lhs, outcome.rhs) == (0, 113)

    def test_synthetic_violation(self):
        pair = PrimePair(p=11, q=15, g=4, m=13, b=2)
        broken = dataclasses.replace(record_at(7, 11), pair=pair, c_lo=3)
        outcome = check_lemma_ratio(broken)
        assert outcome.status is Status.FAIL
        assert (outcome.lhs, outcome.rhs) == (12, 11)


class TestLemmaSqrt:
    @pytest.mark.parametrize(
        "p,q,lhs,rhs",
        [(7, 11, 16, 56), (113, 127, 196, 904), (3, 5, 4, 24)],
    )
    def test_examples(self, p, q, lhs, rhs):
        outcome = check_lemma_sqrt(record_at(p, q))
        assert outcome.status is Status.PASS
        assert (outcome.lhs, outcome.rhs) == (lhs, rhs)


class TestTheorem:
    def test_only_odd_gap(self):
        outcome = check_theorem(2, 1)
        assert outcome.status is Status.PASS
        assert (outcome.lhs, outcome.rhs) == (1, 64)

    def test_gap_four(self):
        outcome = check_theorem(7, 4)
        assert (outcome.lhs, outcome.rhs) == (64, 784)

    def test_constant_sixteen_and_strictness(self):
        # 4**3 == 16 * 2**2 exactly, so the strict form must fail there.
        assert check_theorem(2, 4).status is Status.FAIL
        assert check_theorem(2, 4).rhs == 16 * 4

    def test_exhaustive_small_range(self):
        primes = trial_division_primes(2, 5000)
        for p, q in zip(primes, primes[1:]):
            assert check_theorem(p, q - p).status is Status.PASS


class TestCheckPair:
    def test_every_check_in_claim_order(self):
        r = record_at(113, 127)
        assert check_pair(113, 127) == (r, [
            check_identities(r),
            check_lemma_order(r),
            check_cor_bound(r),
            check_cor_product(r),
            check_lemma_ratio(r),
            check_lemma_sqrt(r),
            check_theorem(113, 14),
        ])

    def test_subset(self):
        r = record_at(113, 127)
        subset = {ClaimId.LEMMA_SQRT, ClaimId.IDENTITIES}
        assert check_pair(113, 127, subset) == (r, [
            check_identities(r),
            check_lemma_sqrt(r),
        ])
        assert check_pair(113, 127, frozenset()) == (r, [])

    def test_pair_at_two_gets_theorem_only(self):
        assert check_pair(2, 3) == (None, [check_theorem(2, 1)])
        assert check_pair(2, 3, {ClaimId.IDENTITIES}) == (None, [])


class TestGapLemma:
    """The lemma behind scan_chunk's shortcut, on arbitrary odd p < q (not
    only primes) up to 2**63."""

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_lemma(self, data):
        p = data.draw(
            st.integers(min_value=1, max_value=(1 << 62) - 2).map(lambda k: 2 * k + 1),
            label="p",
        )
        top = ((1 << 63) - 1 - p) // 2
        b = data.draw(
            st.integers(min_value=1, max_value=min(top, isqrt(2 * p) + 2))
            | st.integers(min_value=1, max_value=top),
            label="b",
        )
        g = 2 * b
        record, outcomes = check_pair(p, p + g)
        assert record == compute_record(PrimePair(p=p, q=p + g, g=g, m=p + b, b=b))
        status = {o.claim: o.status for o in outcomes}
        assert list(status) == list(PAIR_CLAIMS)
        small = g * g < 8 * p
        if small:
            assert status == {
                c: Status.VACUOUS_PASS if c is ClaimId.COR_PRODUCT else Status.PASS
                for c in PAIR_CLAIMS
            }
        assert (record.c_lo >= 1) == (not small)
        assert (status[ClaimId.COR_PRODUCT] is Status.VACUOUS_PASS) == small
        for claim in (ClaimId.IDENTITIES, ClaimId.LEMMA_ORDER, ClaimId.COR_BOUND,
                      ClaimId.LEMMA_SQRT):
            assert status[claim] is Status.PASS
        if status[ClaimId.LEMMA_RATIO] is Status.FAIL:
            assert g**3 >= 8 * p * p
        if status[ClaimId.THEOREM_CUBE_BOUND] is Status.FAIL:
            assert g**3 >= 16 * p * p


class TestDerivationChain:
    def test_ratio_and_sqrt_imply_theorem(self):
        # Mirrors the derivation the cubed bound rests on, as an empirical
        # implication over genuine records.
        for p, q in iter_consecutive_pairs(3, 10**5):
            r = compute_record(PrimePair(p=p, q=q, g=q - p, m=(p + q) // 2, b=(q - p) // 2))
            if (
                check_lemma_ratio(r).status is Status.PASS
                and check_lemma_sqrt(r).status is Status.PASS
            ):
                assert check_theorem(p, q - p).status is Status.PASS


class TestCubeInterval:
    def test_first_interval(self):
        result = check_cube_interval(1)
        assert (result.count, result.witness) == (4, 2)
        assert result.status is Status.PASS

    def test_second_interval(self):
        result = check_cube_interval(2)
        assert (result.count, result.witness) == (5, 11)
        assert result.status is Status.PASS

    def test_counts_match_trial_division(self):
        for n in range(1, 25):
            expected = trial_division_primes(n**3 + 1, (n + 1) ** 3)
            result = check_cube_interval(n)
            assert result.count == len(expected)
            assert result.witness == expected[0]

    @pytest.mark.parametrize("width", [1, 7, 100])
    def test_narrow_windows_match_default_and_trial_division(
        self, monkeypatch, width
    ):
        # Most intervals then span many windows: the count sums over them,
        # and at width 1 the witness comes from a window after the first
        # whenever n**3 + 1 is composite.
        default = [check_cube_interval(n) for n in range(1, 31)]
        monkeypatch.setattr(gapscan.primes, "MAX_WINDOW", width)
        for n, expected in zip(range(1, 31), default):
            result = check_cube_interval(n)
            primes = trial_division_primes(n**3 + 1, (n + 1) ** 3)
            assert result == expected
            assert (result.count, result.witness) == (len(primes), primes[0])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_cube_interval(0)

    def test_rejects_universe_escape(self):
        with pytest.raises(OverflowError):
            check_cube_interval(2**21)

    def test_refuses_intervals_past_the_scan_limit_before_sieving(self):
        # Near (2 * 10**6)**3 the base primes alone outgrow the 1 GiB cap;
        # 215_443 is the least n with (n + 1)**3 past 10**16.
        code, err = run_capped(
            "from gapscan.claims import check_cube_interval\n"
            "for n in (2_000_000, 215_443):\n"
            "    try:\n"
            "        check_cube_interval(n)\n"
            "    except ValueError as exc:\n"
            "        assert 'exceeds 10**16' in str(exc), exc\n"
            "    else:\n"
            "        raise AssertionError(f'n = {n} was not refused')\n",
            limit_mib=1024,
        )
        assert code == 0, err

    def test_theorem_prefix_implies_occupancy(self):
        # If the cubed gap bound holds for every pair below (n+1)**3, some
        # prime must land between n**3 and (n+1)**3 (n beyond the manual
        # window).
        for n in range(17, 23):
            limit = (n + 1) ** 3
            for p, q in iter_consecutive_pairs(2, limit):
                assert check_theorem(p, q - p).status is Status.PASS
            assert check_cube_interval(n).status is Status.PASS


class TestClaimCatalog:
    def test_exactly_eight_claims(self):
        assert len(ClaimId) == 8
        assert {c.value for c in ClaimId} == {
            "IDENTITIES",
            "LEMMA_ORDER",
            "COR_BOUND",
            "COR_PRODUCT",
            "LEMMA_RATIO",
            "LEMMA_SQRT",
            "THEOREM_CUBE_BOUND",
            "CUBE_INTERVAL",
        }

    def test_pair_claims_exclude_cube_interval(self):
        assert ClaimId.CUBE_INTERVAL not in PAIR_CLAIMS
        assert len(PAIR_CLAIMS) == 7
