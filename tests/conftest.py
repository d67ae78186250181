"""Shared test oracles and fixtures, implemented independently of the
package code.

The sieve here keeps one flag byte per number (the package sieves odd
numbers only, from a presieved pattern, and supplies 2 by a rule of its
own), and primality falls back to trial division, so agreement between the
two sides is meaningful.  `oracle_consecutive_pairs` walks a range's pairs
on that sieve, with the package's Miller-Rabin test only for the last
successor; `reference_scan`, the plain every-pair scan that `scan_chunk`'s
shortcut must equal, takes its pairs from it, and `make_pair` is the
validated pair constructor the record tests build their pairs with.
`oracle_prime_pi` counts primes with no sieve at all, so a count that a
sieve gives, the package's or this one, has a check outside both.  The
`crafted_pairs` fixture feeds chosen non-genuine pairs to the scan, which
is how the failure and exit-code paths are reached: genuine consecutive
primes never fail a claim.  `count_calls` records the ranges a wrapped
function is called with, for the tests that pin sieve traffic.
`run_capped` runs a snippet in a fresh interpreter under a cap on its
address space, for the tests that a scan's memory stays bounded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain, compress
from math import isqrt
from typing import Callable, Iterable, Iterator

import pytest

import gapscan.scan
from gapscan.claims import (
    PAIR_CLAIMS,
    ClaimId,
    ClaimOutcome,
    Status,
    check_cor_bound,
    check_cor_product,
    check_identities,
    check_lemma_order,
    check_lemma_ratio,
    check_lemma_sqrt,
    check_theorem,
)
from gapscan.midpoint import PrimePair, compute_record
from gapscan.primes import is_prime
from gapscan.scan import ClaimCounter, GapRecord, RatioRecord, ScanReport


def run_capped(code: str, limit_mib: int, timeout: float = 120) -> tuple[int, str]:
    """Run the Python snippet `code` in a fresh interpreter, with this
    package importable, after capping its address space (RLIMIT_AS, which
    its forked children inherit) at `limit_mib` MiB.  Returns the exit code
    and stderr: an allocation past the cap fails with MemoryError, exit 1."""
    limit = limit_mib << 20
    script = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n{code}"
    )
    src = os.path.dirname(os.path.dirname(gapscan.scan.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=timeout,
    )
    return done.returncode, done.stderr


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


# count_odd_multiples enumerates while the span is at most this many times
# the divisor, and uses the closed form beyond it.
_ENUMERATION_SPAN = 10**7


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_division_primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi) if trial_division_is_prime(n)]


class NotPrimeError(ValueError):
    """make_pair rejected an input that is not prime."""


class NotConsecutiveError(ValueError):
    """make_pair found another prime strictly between the two inputs."""


def make_pair(p: int, q: int) -> PrimePair:
    """Validate and build a consecutive-prime pair.

    Rejects non-primes, non-consecutive primes (gap scan between them), and
    the pair starting at 2, whose midpoint is not an integer.
    """
    if p >= q:
        raise ValueError(f"need p < q, got ({p}, {q})")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if not is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if p == 2:
        raise ValueError("midpoint of (2, 3) is not an integer")
    for between in range(p + 2, q, 2):
        if is_prime(between):
            raise NotConsecutiveError(f"{between} lies between {p} and {q}")
    g = q - p
    return PrimePair(p=p, q=q, g=g, m=p + g // 2, b=g // 2)


def _oracle_flags(limit: int) -> bytearray:
    """flags[n] is 1 exactly when n < limit is prime: a plain sieve of
    Eratosthenes, one byte per number."""
    size = max(limit, 2)
    flags = bytearray(b"\x01") * size
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(size - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, size, p)))
    del flags[limit:]
    return flags


def oracle_primes_below(limit: int) -> list[int]:
    """All primes < limit, by the one-byte-per-number oracle sieve."""
    return list(compress(range(limit), _oracle_flags(limit)))


def oracle_count_primes_below(limit: int) -> int:
    return _oracle_flags(limit).count(1)


def oracle_prime_pi(x: int) -> int:
    """pi(x), the count of primes <= x, by Lucy_Hedgehog's method, which
    sieves nothing: it keeps S(v), the count of the numbers in [2, v] not
    yet struck, only at the values v = x // i, starting from v - 1.  Each
    prime p <= isqrt(x), in order, strikes from each S(v) with v >= p*p the
    numbers in [p*p, v] whose least prime factor is p: S(v // p) - S(p - 1)
    of them.  p is prime exactly when S(p) > S(p - 1).  Exact, in
    O(x**0.75) steps."""
    if x < 2:
        return 0
    r = isqrt(x)
    small = [max(v - 1, 0) for v in range(r + 1)]  # S(v)
    large = [0] + [x // i - 1 for i in range(1, r + 1)]  # S(x // i) at i
    for p in range(2, r + 1):
        below = small[p - 1]
        if small[p] == below:
            continue  # p was struck: it is composite
        square = p * p
        # S(x // i // p) is large[i*p] while i*p <= r, else small[x // (i*p)].
        for i in range(1, min(r, x // square) + 1):
            d = i * p
            large[i] -= (large[d] if d <= r else small[x // d]) - below
        for v in range(r, square - 1, -1):
            small[v] -= small[v // p] - below
    return large[1]


def oracle_consecutive_pairs(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Every consecutive-prime pair (p, q) with lo <= p < hi, 0 <= lo < hi,
    found without the package's sieve: [lo, hi) is sieved one byte per
    number by the oracle primes up to isqrt(hi - 1), and the successor of
    its last prime is found by stepping `is_prime` (Miller-Rabin)."""
    flags = bytearray(b"\x01") * (hi - lo)
    for n in range(lo, min(2, hi)):
        flags[n - lo] = 0  # 0 and 1 are not prime
    for p in oracle_primes_below(isqrt(hi - 1) + 1):
        first = max(p * p, -(-lo // p) * p) - lo
        flags[first::p] = bytes(len(range(first, hi - lo, p)))
    found = list(compress(range(lo, hi), flags))
    if found:
        q = found[-1] + 1
        while not is_prime(q):
            q += 1
        found.append(q)
    return zip(found, found[1:])


def oracle_gap_records(primes: list[int], stop: int) -> list[tuple[int, int]]:
    """(p, gap) rows where the gap beats every earlier gap, for p < stop.

    `primes` must extend past stop so the last pair has its successor.
    """
    records = []
    best = 0
    for p, q in zip(primes, primes[1:]):
        if p >= stop:
            break
        g = q - p
        if g > best:
            best = g
            records.append((p, g))
    return records


def oracle_largest_odd_multiple(d: int, bound: int) -> int:
    """Largest k*d <= bound with k odd, by downward stepping."""
    k = bound // d
    if k % 2 == 0:
        k -= 1
    return k * d


def count_odd_multiples(d: int, lo: int, hi: int) -> int:
    """Count integers k*d with k odd and lo < k*d <= hi, exactly.

    Enumerates when the span is small enough to serve as an oracle
    (hi - lo <= 10**7 * d), otherwise uses floor arithmetic; the two agree
    wherever both apply.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"divisor must be odd and >= 3, got {d}")
    if lo >= hi:
        raise ValueError(f"empty or reversed interval ({lo}, {hi}]")
    if hi - lo <= _ENUMERATION_SPAN * d:
        k = lo // d + 1
        if k % 2 == 0:
            k += 1
        count = 0
        value = k * d
        step = 2 * d
        while value <= hi:
            count += 1
            value += step
        return count
    # Number of odd k with k*d <= x is (x//d + 1) // 2.
    return (hi // d + 1) // 2 - (lo // d + 1) // 2


def flagged_primes(base: int, flags: bytearray) -> Iterator[int]:
    """Yield the primes flagged in odd-only sieve flags whose index i stands
    for base + 2i, in increasing order.  2 is never flagged."""
    idx = flags.find(1)
    while idx >= 0:
        yield base + 2 * idx
        idx = flags.find(1, idx + 1)


def sieved_is_prime(lo: int, flags: bytearray, n: int) -> bool:
    """What the odd-only sieve flags of a range starting at lo say of n in
    that range: an odd n's flag, and for an even n the rule that 2 is the
    only even prime."""
    return bool(flags[(n - (lo | 1)) >> 1]) if n & 1 else n == 2


def stream_consecutive_pairs(
    lo: int, hi: int, emit: Callable[[int, int], object]
) -> int:
    """Feed every consecutive pair with lo <= p < hi to `emit(p, q)`.

    Returns the number of pairs emitted.
    """
    count = 0
    for p, q in oracle_consecutive_pairs(lo, hi):
        emit(p, q)
        count += 1
    return count


def record_path_outcomes(p: int, q: int) -> list[ClaimOutcome]:
    """Every applicable per-pair check, one record at a time, in
    PAIR_CLAIMS order."""
    g = q - p
    if p == 2:
        return [check_theorem(p, g)]
    r = compute_record(PrimePair(p=p, q=q, g=g, m=p + g // 2, b=g // 2))
    return [
        check_identities(r),
        check_lemma_order(r),
        check_cor_bound(r),
        check_cor_product(r),
        check_lemma_ratio(r),
        check_lemma_sqrt(r),
        check_theorem(p, g),
    ]


def reference_scan(
    lo: int,
    hi: int,
    claims: Iterable[ClaimId] = PAIR_CLAIMS,
    violation_cap: int = 100,
    fed: Iterable[tuple[int, int]] = (),
) -> ScanReport:
    """The report of [lo, hi) computed the plain way: the pairs in `fed`,
    then every consecutive pair the range owns, each run through
    compute_record and every check_* function, with the extremal ratio
    kept as a Fraction."""
    enabled = frozenset(claims)
    counts = {c: [0, 0, 0] for c in enabled}  # passed, vacuous, failed
    violations: list[ClaimOutcome] = []
    hist: dict[int, int] = {}
    gap_records: list[GapRecord] = []
    best_gap = 0
    best: tuple[Fraction, int, int] | None = None
    pairs = 0
    for p, q in chain(fed, oracle_consecutive_pairs(lo, hi)):
        pairs += 1
        g = q - p
        if g > best_gap:
            best_gap = g
            gap_records.append(GapRecord(p=p, g=g))
        if best is None or best[0] == 0 or Fraction(g**3, p * p) > best[0]:
            best = (Fraction(g**3, p * p), p, g)
        if p != 2:
            c_lo = (g // 2) ** 2 // (2 * p)
            hist[c_lo] = hist.get(c_lo, 0) + 1
        for o in record_path_outcomes(p, q):
            if o.claim not in enabled:
                continue
            if o.claim is ClaimId.IDENTITIES and o.status is Status.FAIL:
                raise RuntimeError(
                    f"identity failed at pair ({p}, {q}): lhs={o.lhs} rhs={o.rhs}"
                )
            slot = [Status.PASS, Status.VACUOUS_PASS, Status.FAIL].index(o.status)
            counts[o.claim][slot] += 1
            if o.status is Status.FAIL:
                violations.append(o)
    max_ratio = None
    if best is not None and best[0] != 0:
        _, p, g = best
        max_ratio = RatioRecord(g_cubed=g**3, p_squared=p * p, p=p, g=g)
    return ScanReport(
        start=lo,
        stop=hi,
        pairs_checked=pairs,
        per_claim={c: ClaimCounter(sum(n), *n) for c, n in counts.items()},
        violations=violations[:violation_cap],
        max_ratio=max_ratio,
        gap_records=gap_records,
        c_histogram=hist,
        violation_cap=violation_cap,
    )


@pytest.fixture
def crafted_pairs(monkeypatch):
    """Make `scan_chunk` see chosen (p, q) pairs ahead of its range's
    genuine pairs.

    Returns `feed(*pairs)`.  After `feed((3, 9))`, every scan_chunk call
    first evaluates the pair (3, 9), then the consecutive pairs it owns, so
    the real failure branches run and record real lhs/rhs values.  Each
    call to `feed` replaces the pairs fed before.  The patch swaps
    `gapscan.scan.ChunkTally`, the tally scan_chunk makes once per call,
    for a subclass that counts and evaluates the fed pairs as scan_chunk
    makes it; the tally merge_reports folds two reports into starts empty.
    The patch is seen by scans in this process, and pool workers only see
    it when they are forked.  A pair with q == p has no gap and is refused.
    """
    # The class in place when the test starts, so that a later feed does
    # not subclass the tally an earlier feed swapped in.
    tally = gapscan.scan.ChunkTally

    def feed(*pairs: tuple[int, int]) -> None:
        if any(p == q for p, q in pairs):
            raise ValueError(f"a fed pair needs q != p, got {pairs}")

        class FedTally(tally):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                if sys._getframe(1).f_code.co_name != "scan_chunk":
                    return
                self.pairs += len(pairs)
                for p, q in pairs:
                    self.evaluate(p, q)

        monkeypatch.setattr(gapscan.scan, "ChunkTally", FedTally)

    return feed
