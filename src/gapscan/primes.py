"""Prime generation over 64-bit ranges.

Two independent code paths are kept deliberately separate so they can
cross-validate each other: a segmented sieve (`sieve_range`, and the
streaming helpers built on it) and a deterministic Miller-Rabin test
(`is_prime`) that never touches sieve data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .errors import InvalidRangeError, RangeTooLargeError

UNIVERSE_LIMIT = 1 << 63

# Default window for streaming iteration; one window is a 1 MiB flag buffer.
SEGMENT_WIDTH = 1 << 20

# Hard cap on a single sieve_range allocation (256 MiB of flags).
MAX_SIEVE_WIDTH = 1 << 28

# Witness set proven deterministic for every n < 2**64 (covers well past it).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass
class PrimeSegment:
    """Sieved flags for the half-open range [lo, hi).

    ``flags[i]`` is 1 exactly when ``lo + i`` is prime.  One byte per number;
    the byte layout is an implementation detail, only the flag semantics are
    contractual.
    """

    lo: int
    hi: int
    flags: bytearray

    def __contains__(self, n: int) -> bool:
        return self.lo <= n < self.hi and self.flags[n - self.lo] != 0

    def count(self) -> int:
        return self.flags.count(1)


_small_primes_cache: list[int] = []
_small_primes_limit = 0


def _small_primes(limit: int) -> list[int]:
    """Primes <= limit via a plain sieve, cached and grown monotonically."""
    global _small_primes_cache, _small_primes_limit
    if limit <= _small_primes_limit:
        return _small_primes_cache
    limit = max(limit, 1 << 10)
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    _small_primes_cache = [i for i, f in enumerate(flags) if f]
    _small_primes_limit = limit
    return _small_primes_cache


def sieve_range(lo: int, hi: int) -> PrimeSegment:
    """Sieve the half-open range [lo, hi) and return its prime flags.

    The range must fit in one allocation (width <= MAX_SIEVE_WIDTH); callers
    scanning big ranges chunk it themselves or use `iter_primes`.
    """
    if lo >= hi:
        raise InvalidRangeError(f"empty or reversed range [{lo}, {hi})")
    if lo < 0 or hi > UNIVERSE_LIMIT:
        raise InvalidRangeError(f"range [{lo}, {hi}) leaves [0, 2**63]")
    width = hi - lo
    if width > MAX_SIEVE_WIDTH:
        raise RangeTooLargeError(
            f"width {width} exceeds {MAX_SIEVE_WIDTH}; chunk the range"
        )

    flags = bytearray(b"\x01") * width

    # 0 and 1 are not prime.
    for v in (0, 1):
        if lo <= v < hi:
            flags[v - lo] = 0

    # Even numbers out, except 2 itself.
    first_even = lo + (lo & 1)
    if first_even < hi:
        flags[first_even - lo :: 2] = b"\x00" * ((hi - first_even + 1) // 2)
    if lo <= 2 < hi:
        flags[2 - lo] = 1

    # Strike odd multiples of each odd base prime (step 2p keeps parity odd).
    for p in _small_primes(isqrt(hi - 1)):
        if p == 2:
            continue
        pp = p * p
        if pp >= hi:
            break
        start = max(pp, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            step = 2 * p
            flags[start - lo :: step] = b"\x00" * ((hi - start + step - 1) // step)
    return PrimeSegment(lo, hi, flags)


def is_prime(n: int) -> bool:
    """Deterministic primality test, correct for every n < 2**64.

    Independent of the sieve code path on purpose: the two are used to
    cross-check each other.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    # n is now odd, > 37, and coprime to all witnesses.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    if n < 2:
        return 2
    candidate = n + 1 | 1
    while candidate < UNIVERSE_LIMIT:
        if is_prime(candidate):
            return candidate
        candidate += 2
    raise OverflowError(f"no prime above {n} within the 2**63 universe")


def iter_primes(lo: int, hi: int, segment_width: int = SEGMENT_WIDTH) -> Iterator[int]:
    """Yield primes in [lo, hi) in increasing order, sieving in fixed windows."""
    if lo >= hi:
        raise InvalidRangeError(f"empty or reversed range [{lo}, {hi})")
    window_lo = lo
    while window_lo < hi:
        window_hi = min(window_lo + segment_width, hi)
        seg = sieve_range(window_lo, window_hi)
        flags = seg.flags
        idx = flags.find(1)
        while idx >= 0:
            yield window_lo + idx
            idx = flags.find(1, idx + 1)
        window_lo = window_hi


def iter_consecutive_pairs(
    lo: int, hi: int, segment_width: int = SEGMENT_WIDTH
) -> Iterator[tuple[int, int]]:
    """Yield (p, q) for every consecutive-prime pair with lo <= p < hi.

    q is always the true successor prime, found past hi when the last prime
    of the range needs it.
    """
    prev = None
    for p in iter_primes(lo, hi, segment_width):
        if prev is not None:
            yield prev, p
        prev = p
    if prev is not None:
        yield prev, next_prime_above(prev)
