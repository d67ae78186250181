from __future__ import annotations

import inspect
import os
import random
import re
from itertools import islice
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapscan
import gapscan.claims
import gapscan.primes
import gapscan.scan
from gapscan.claims import CUBE_WINDOW, check_cube_interval
from gapscan.errors import InvalidRangeError, RangeTooLargeError
from gapscan.primes import (
    _ZEROS,
    MAX_SIEVE_WIDTH,
    SEGMENT_WIDTH,
    Z,
    count_flags,
    is_prime,
    iter_consecutive_pairs,
    next_prime_above,
    sieve_range,
    windows,
)

from conftest import (
    flagged_primes,
    oracle_count_primes_below,
    oracle_primes_below,
    sieved_is_prime,
    stream_consecutive_pairs,
    trial_division_is_prime,
    trial_division_primes,
)


def with_two(lo: int, hi: int, odd_primes: list[int]) -> list[int]:
    """The primes of [lo, hi): 2 has no sieve flag, so every consumer adds
    it by the same rule when the range holds it."""
    return [2] * (lo <= 2 < hi) + odd_primes


def segment_primes(lo: int, hi: int) -> list[int]:
    return with_two(lo, hi, list(flagged_primes(lo | 1, sieve_range(lo, hi))))


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
        flags = sieve_range(10, 30)  # flags[i] stands for 11 + 2i
        assert flags[(11 - 11) // 2] and flags[(29 - 11) // 2]
        assert not flags[(21 - 11) // 2]
        assert len(flags) == 10  # 9 and every even number lie outside
        assert flags.count(1) == 6

    @pytest.mark.parametrize(
        "lo, hi, base, flags",
        [
            (0, 3, 1, b"\x00"),  # 1 is not prime, and 2 has no flag
            (1, 2, 1, b"\x00"),
            (2, 3, 3, b""),  # no odd number at all
            (2, 4, 3, b"\x01"),
            (3, 4, 3, b"\x01"),
            (10, 17, 11, b"\x01\x01\x00"),  # starts at an even number
            (24, 32, 25, b"\x00\x00\x01\x01"),
        ],
    )
    def test_odd_only_flags_at_the_edges(self, lo, hi, base, flags):
        assert sieve_range(lo, hi) == flags
        assert list(windows(lo, hi)) == [(base, flags)]

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
            flags = sieve_range(lo, lo + 10**4)
            assert len(flags) == 5000
            for n in range(lo, lo + 10**4):
                assert sieved_is_prime(lo, flags, n) == is_prime(n)


def assert_true_flags(lo: int, hi: int) -> bytearray:
    """sieve_range(lo, hi) flags every odd number of [lo, hi) as is_prime
    does, and the flags are returned."""
    flags = sieve_range(lo, hi)
    assert list(flags) == [is_prime(x) for x in range(lo | 1, hi, 2)]
    return flags


def odd_multiple_struck_only_by(p: int) -> int:
    """p times the next prime above it: odd, and no base prime but p divides
    it, so only p's own strike keeps it from being flagged prime."""
    return p * next_prime_above(p)


def even_multiple_below_a_prime(p: int) -> int:
    """An even multiple m of p, past p**2, with m + 1 prime: a strike at the
    wrong parity, which lands on m + 1, shows as a missing prime."""
    m = p * (p + 1)
    while not is_prime(m + 1):
        m += 2 * p
    return m


class TestLargeBasePrimes:
    """A base prime p >= 2n, n = len(flags), strikes at most one flag; the
    flag is found from r = last mod p, where last = base + 2(n - 1)."""

    @pytest.mark.parametrize("p", [10007, 65537, 1000003])
    def test_odd_multiple_at_the_first_and_the_last_flag(self, p):
        m = odd_multiple_struck_only_by(p)
        for width in sorted({1, 2, 3, 64, min(p - 1, 20000)}):
            for lo in (m, m - 1):  # the first flag, from an odd or even lo
                flags = assert_true_flags(lo, m + width)
                assert 2 * len(flags) <= p and flags[0] == 0
            for hi in (m + 1, m + 2):  # the last flag, to an odd or even hi
                flags = assert_true_flags(m + 1 - width, hi)
                assert 2 * len(flags) <= p and flags[-1] == 0

    @pytest.mark.parametrize("p", [10007, 65537, 1000003])
    def test_window_whose_one_multiple_is_even_strikes_nothing(self, p):
        m = even_multiple_below_a_prime(p)
        for width in sorted({3, 4, 64, min(p - 1, 20000)}):
            lo = m - width // 2
            flags = assert_true_flags(lo, lo + width)
            assert 2 * len(flags) <= p
            assert flags[(m + 1 - (lo | 1)) >> 1] == 1

    @pytest.mark.parametrize("p", [10007, 65537])
    def test_threshold_windows_with_last_one_past_a_multiple(self, p):
        # last = 1 (mod p): last - 1 is an even multiple of p, and
        # last - 1 - p is odd and in range exactly when p <= 2n - 3.
        base = odd_multiple_struck_only_by(p)
        flags = assert_true_flags(base, base + p + 2)
        assert 2 * len(flags) - 3 == p
        assert (base + 2 * len(flags) - 2) % p == 1 and flags[0] == 0
        last = even_multiple_below_a_prime(p) + 1
        for n in ((p + 1) // 2, (p - 1) // 2):  # p = 2n - 1 and p = 2n + 1
            flags = assert_true_flags(last - 2 * (n - 1), last + 1)
            assert len(flags) == n and flags[-1] == 1

    @pytest.mark.parametrize("p", [10007, 65537, 1000003])
    def test_window_holding_p_squared(self, p):
        square = p * p
        for lo, hi in [(square, square + 1), (square, square + 64),
                       (square - 32, square + 32), (square - 63, square + 1)]:
            flags = assert_true_flags(lo, hi)
            assert 2 * len(flags) <= p
            assert flags[(square - (lo | 1)) >> 1] == 0

    @given(
        lo=st.integers(min_value=10**12, max_value=10**13 - 1),
        width=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_miller_rabin_at_height(self, lo: int, width: int):
        # Almost every base prime below isqrt(10**13) is wider than the
        # window, so nearly every strike takes the one-remainder path.
        assert_true_flags(lo, lo + width)


class TestMediumBasePrimes:
    """A base prime p with ceil(n/Z) <= p < 2n, n = len(flags), strikes its
    c <= Z flags with the cached _ZEROS[c]; a smaller one allocates a zero
    run.  A band edge off by one asks for a cached run of the wrong length,
    which raises, or for one the cache does not hold."""

    @pytest.mark.parametrize("p", [17, 101, 263])
    def test_strike_counts_at_the_band_edges(self, p):
        # The window starts at an odd multiple struck only by p, so p's
        # strikes start at flag 0 and number ceil(n/p).
        m = odd_multiple_struck_only_by(p)
        for n, edge, c in [
            (p * Z + 1, p + 1, Z + 1),  # p = ceil(n/Z) - 1: the last small one
            (p * Z, p, Z),  # p = ceil(n/Z): the first medium prime
            ((p - 1) * Z + 1, p, -(-((p - 1) * Z + 1) // p)),  # and narrowest
            (p, -(-p // Z), 1),  # p = n
            ((p + 1) // 2, -(-((p + 1) // 2) // Z), 1),  # p = 2n - 1
        ]:
            assert -(-n // Z) == edge and -(-n // p) == c
            flags = assert_true_flags(m, m + 2 * n)
            assert len(flags) == n and flags[0] == 0

    @given(
        lo=st.integers(min_value=10**6, max_value=10**10),
        width=st.integers(min_value=1, max_value=1 << 15),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_miller_rabin_across_the_bands(self, lo, width):
        # Windows of up to 2**14 flags have small primes below 64, and base
        # primes up to 10**5 reach both the medium and the large band.
        assert_true_flags(lo, lo + width)

    def test_cached_zero_runs_stay_zero(self):
        for lo in (10**6, 10**9, 10**12):
            for width in (1, 1000, 2 * 300 * Z, SEGMENT_WIDTH):
                sieve_range(lo, lo + width)
        assert [len(run) for run in _ZEROS] == list(range(Z + 1))
        assert all(run == bytes(len(run)) for run in _ZEROS)


class TestCountFlags:
    @pytest.mark.parametrize(
        "length", [0, 1, 65518, 65519, 65520, 2 * 65519 + 1]
    )
    def test_matches_count_of_ones(self, length):
        # All ones is the only way to reach the bound of one adler32 run.
        ones = bytearray(b"\x01") * length
        assert count_flags(ones) == ones.count(1) == length
        rng = random.Random(length)
        flags = bytearray(rng.getrandbits(1) for _ in range(length))
        assert count_flags(flags) == flags.count(1)


class TestWindows:
    @given(
        lo=st.integers(min_value=0, max_value=10**5),
        span=st.integers(min_value=1, max_value=3000),
        width=st.integers(min_value=1, max_value=700),
    )
    @settings(max_examples=80)
    def test_windows_cover_the_range_with_true_flags(self, lo, span, width):
        hi = lo + span
        walk = list(windows(lo, hi, width))
        assert walk[0][0] == lo | 1
        for (base, flags), (next_base, _) in zip(walk, walk[1:]):
            assert base + 2 * len(flags) == next_base
        assert walk[-1][0] + 2 * len(walk[-1][1]) == hi | 1
        assert len(walk) == -(-span // width)
        assert all(len(flags) <= (width + 1) // 2 for _, flags in walk)
        found = [p for w in walk for p in flagged_primes(*w)]
        assert with_two(lo, hi, found) == trial_division_primes(lo, hi)

    @pytest.mark.parametrize("width", [1, 7])
    @pytest.mark.parametrize("lo", [0, 1, 2, 3, 10, 11])
    def test_bases_stay_odd_as_window_starts_change_parity(self, lo, width):
        hi = lo + 60
        starts = range(lo, hi, width)
        walk = list(windows(lo, hi, width))
        assert [base for base, _ in walk] == [s | 1 for s in starts]
        assert [len(flags) for _, flags in walk] == [
            len(range(s | 1, min(s + width, hi), 2)) for s in starts
        ]
        found = [p for w in walk for p in flagged_primes(*w)]
        assert with_two(lo, hi, found) == trial_division_primes(lo, hi)

    def test_default_width_is_segment_width(self):
        walk = windows(0, SEGMENT_WIDTH + 5)
        assert [(base, len(flags)) for base, flags in walk] == [
            (1, SEGMENT_WIDTH // 2), (SEGMENT_WIDTH + 1, 2),
        ]

    def test_rejects_empty_range_at_the_call(self):
        with pytest.raises(InvalidRangeError):
            windows(30, 30)
        with pytest.raises(InvalidRangeError):
            windows(30, 10, 4)

    @pytest.mark.parametrize("width", [0, -4])
    def test_rejects_width_below_one(self, width):
        # Before the check, width 0 failed inside range() and a negative
        # width yielded no window, so a pair walk lost every pair but (2, 3).
        message = f"width must be >= 1, got {width}"
        with pytest.raises(ValueError, match=message):
            windows(2, 100, width)
        with pytest.raises(ValueError, match=message):
            list(iter_consecutive_pairs(2, 30, width))


@pytest.fixture
def cold_store(monkeypatch):
    """The base-prime store in its seed state, the odd primes <= 13, for one
    test; the warm store comes back after it."""
    monkeypatch.setattr(gapscan.primes, "_base_primes", [3, 5, 7, 11, 13])
    monkeypatch.setattr(gapscan.primes, "_base_limit", 13)


def assert_exact_store() -> None:
    """The store holds exactly the odd primes <= its limit, in order."""
    store = gapscan.primes._base_primes
    assert store == oracle_primes_below(gapscan.primes._base_limit + 1)[1:]


def count_calls(monkeypatch, module, name: str) -> list[tuple[int, int]]:
    """Wrap module.name, as the benchmark tracer does, and return the list
    of (lo, hi) it is called with."""
    calls = []
    inner = getattr(module, name)

    def counted(lo, hi):
        calls.append((lo, hi))
        return inner(lo, hi)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestBasePrimeCache:
    @pytest.mark.parametrize("x", [10**7, 37**4, 10**12, 10**12 + 39])
    def test_one_number_window_fills_the_cache(self, cold_store, x):
        # A one-number window warms the base primes every window ending near
        # x needs, also when x is even and the window holds no odd number.
        # At x = 37**4 the store's limit is 37**2, which its sieve must strike.
        sieve_range(x, x + 1)
        limit = gapscan.primes._base_limit
        assert limit >= isqrt(x)
        cache = gapscan.primes._base_primes
        assert cache[:5] == [3, 5, 7, 11, 13]
        assert len(cache) == oracle_count_primes_below(limit + 1) - 1  # 2 left out

    def test_many_small_steps_keep_the_store_exact(self, cold_store):
        for n in range(1, 201):
            check_cube_interval(n)
        assert gapscan.primes._base_limit >= isqrt(201**3 - 1)
        assert_exact_store()

    def test_growth_over_several_segment_widths(self, monkeypatch, cold_store):
        steps = count_calls(monkeypatch, gapscan.primes, "_sieve")
        sieve_range(10**14, 10**14 + 1)
        assert gapscan.primes._base_limit == 10**7
        assert len(steps) > 10**7 // SEGMENT_WIDTH
        assert all(hi - lo <= SEGMENT_WIDTH for lo, hi in steps[1:])
        assert_exact_store()

    @pytest.mark.parametrize("torn", [False, True])
    def test_interrupted_growth_leaves_an_exact_store(
        self, monkeypatch, cold_store, torn
    ):
        # The second call of the private body is the first growth step.  It
        # raises before the store changes, or (torn) half-way through
        # extending it, as a MemoryError inside list.extend would.
        sieve = gapscan.primes._sieve
        calls = 0

        class TornFlags(bytearray):
            def __iter__(self):
                yield from islice(super().__iter__(), len(self) // 2)
                raise MemoryError

        def interrupted(lo, hi):
            nonlocal calls
            calls += 1
            if calls != 2:
                return sieve(lo, hi)
            if not torn:
                raise KeyboardInterrupt
            return TornFlags(sieve(lo, hi))

        monkeypatch.setattr(gapscan.primes, "_sieve", interrupted)
        with pytest.raises(MemoryError if torn else KeyboardInterrupt):
            sieve_range(10**12, 10**12 + 1)
        assert gapscan.primes._base_limit == 13
        if torn:  # the torn step left primes past the limit
            assert len(gapscan.primes._base_primes) > 5
        flags = sieve_range(10**12, 10**12 + 10**4)
        assert gapscan.primes._base_limit == isqrt(10**12 + 10**4 - 1)
        assert_exact_store()
        assert flags.count(1) == sum(map(is_prime, range(10**12, 10**12 + 10**4)))


class TestTracedNames:
    def test_names_the_benchmark_tracer_wraps(self):
        # perfbench/tracing.py wraps these four by name, and counts hi - lo
        # numbers per sieve_range call.
        for module, name in [
            (gapscan.primes, "sieve_range"),
            (gapscan.claims, "sieve_range"),
            (gapscan.primes, "next_prime_above"),
            (gapscan.scan, "iter_consecutive_pairs"),
        ]:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"
        params = inspect.signature(gapscan.primes.sieve_range).parameters.values()
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 2
        assert len(gapscan.primes.sieve_range(10, 30)) == 10
        assert len(gapscan.claims.sieve_range(10, 30)) == 10
        # perfbench/ reads these from the package root.
        for name in [
            "ScanConfig", "run_scan", "plan_chunks", "scan_chunk",
            "compute_record", "PrimePair", "check_cube_interval", "is_prime",
            "sieve_range", "iter_consecutive_pairs",
        ]:
            assert hasattr(gapscan, name), f"gapscan.{name}"
        for module in ("primes", "claims", "scan"):
            assert hasattr(gapscan, module), f"gapscan.{module}"

    def test_names_the_readme_tour_imports(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            tour = re.search(r"from gapscan import \(([^)]*)\)", fh.read())
        names = re.findall(r"\w+", tour.group(1))
        assert "make_pair" in names
        for name in names:
            assert hasattr(gapscan, name), f"gapscan.{name}"

    @pytest.mark.parametrize("n", [1, 3000])
    def test_cube_interval_calls_the_traced_name_once_per_window(
        self, monkeypatch, cold_store, n
    ):
        # Base-prime growth sieves through the private body, so the traced
        # name counts the cube windows and nothing else.
        calls = count_calls(monkeypatch, gapscan.primes, "sieve_range")
        check_cube_interval(n)
        lo, hi = n**3 + 1, (n + 1) ** 3
        assert calls == [
            (w, min(w + CUBE_WINDOW, hi)) for w in range(lo, hi, CUBE_WINDOW)
        ]
        assert len(calls) == (2 if n == 3000 else 1)

    def test_one_number_window_calls_the_traced_name_once(
        self, monkeypatch, cold_store
    ):
        calls = count_calls(monkeypatch, gapscan.primes, "sieve_range")
        gapscan.primes.sieve_range(10**12 + 39, 10**12 + 40)
        assert calls == [(10**12 + 39, 10**12 + 40)]
        assert gapscan.primes._base_limit == 10**6


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

    def test_matches_trial_division_below_two_hundred_thousand(self):
        # Covers n = 73, 193 and 14089, where the base 28178 is 0 mod n.
        assert 28178 % 73 == 28178 % 193 == 28178 % 14089 == 0
        assert [n for n in range(2 * 10**5) if is_prime(n)] == [
            n for n in range(2 * 10**5) if trial_division_is_prime(n)
        ]

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

    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_pairs_from_two_at_narrow_widths(self, width):
        assert next(iter_consecutive_pairs(2, 10)) == (2, 3)
        assert list(iter_consecutive_pairs(2, 12, segment_width=width)) == [
            (2, 3), (3, 5), (5, 7), (7, 11), (11, 13),
        ]
        assert list(iter_consecutive_pairs(2, 3, segment_width=width)) == [(2, 3)]

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
