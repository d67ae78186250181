"""Prime generation over 64-bit ranges.

Two independent code paths are kept deliberately separate so they can
cross-validate each other: a segmented sieve (`sieve_range`, and
`windows`, the one walk of a range in sieve windows that every consumer of
primes uses) and a deterministic Miller-Rabin test (`is_prime`) that never
touches sieve data.

Sieve layout: odd numbers only, one flag byte each.  The flags of a range
[lo, hi) start at base = lo | 1, the first odd number at or past lo, and
``flags[i]`` stands for ``base + 2*i``.  The one even prime, 2, has no
flag, so every consumer counts it by its own explicit rule whenever
lo <= 2 < hi.  A window's flags start as a rotation of a fixed pattern
with every multiple of 3, 5, 7, 11 and 13 struck, tiled from one period
of 15015 odd numbers, so the base-prime loop starts at 17.

The base primes that the windows strike with come from the same window
sieve: one ordered list, grown in place in steps of at most SEGMENT_WIDTH
numbers, each step struck by the primes the list already holds.  A window
ending at hi still keeps the pi(isqrt(hi - 1)) base primes as Python ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from math import isqrt
from operator import mod
from typing import Iterator
from zlib import adler32

from .errors import InvalidRangeError, RangeTooLargeError

UNIVERSE_LIMIT = 1 << 63

# Default width of `windows`, in numbers; one window is 512 KiB of flags.
SEGMENT_WIDTH = 1 << 20

# Hard cap on the width of one sieve_range call, in numbers (128 MiB of
# flags).
MAX_SIEVE_WIDTH = 1 << 28

# The primes `is_prime` tries as divisors before its Miller-Rabin rounds.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Sinclair's witness set, deterministic for every n < 2**64 when each base is
# reduced mod n and a base that is 0 mod n is skipped
# (https://miller-rabin.appspot.com).
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# The odd primes whose multiples the pattern strikes; it repeats every
# _PERIOD odd numbers.
_PRESIEVED = (3, 5, 7, 11, 13)
_PERIOD = 3 * 5 * 7 * 11 * 13

# A base prime that strikes at most Z flags of a window takes its zero run
# from _ZEROS[c], c <= Z, instead of allocating one.  Nothing writes to the
# cache: a bytearray value is read, never copied or changed, by the slice
# assignment it feeds.
Z = 256
_ZEROS = tuple(bytearray(c) for c in range(Z + 1))

# The longest run of flags whose adler32 low half is 1 plus their count.
_ADLER_RUN = 65519


def _presieve_pattern() -> bytearray:
    """Two periods of flags for the odd numbers 1, 3, 5, ... (index j stands
    for 2j + 1): 0 at every multiple of a presieved prime, the prime itself
    included, 1 elsewhere."""
    pattern = bytearray(b"\x01") * _PERIOD
    for p in _PRESIEVED:
        # 2j + 1 is a multiple of p exactly when j = p >> 1 (mod p).
        pattern[p >> 1 :: p] = bytes(len(range(p >> 1, _PERIOD, p)))
    return pattern * 2


_PATTERN = _presieve_pattern()

# The odd primes <= _base_limit, in order: the base primes every window
# strikes with.  `_odd_primes_to` grows them with the window sieve itself.
_base_primes: list[int] = list(_PRESIEVED)
_base_limit = _PRESIEVED[-1]


def _odd_primes_to(limit: int) -> list[int]:
    """The base-prime list, grown in place until it holds every odd prime
    <= limit (2 is left out); it may hold more.

    Each step sieves the next window [_base_limit + 1, top] with
    top <= min(limit, _base_limit**2, _base_limit + SEGMENT_WIDTH): its
    composites all have an odd prime factor <= isqrt(top) <= _base_limit,
    so the primes the list already holds strike them.  The step trims any
    entry past _base_limit, which an interrupted step may have left, before
    it extends the list, so the list stays sorted and exact.
    """
    global _base_limit
    while _base_limit < limit:
        lo = _base_limit + 1
        top = min(limit, _base_limit * _base_limit, _base_limit + SEGMENT_WIDTH)
        flags = _sieve(lo, top + 1)
        del _base_primes[bisect_right(_base_primes, _base_limit) :]
        _base_primes.extend(compress(range(lo | 1, top + 1, 2), flags))
        _base_limit = top
    return _base_primes


def sieve_range(lo: int, hi: int) -> bytearray:
    """Sieve the odd numbers of the half-open range [lo, hi).

    ``flags[i]`` is 1 exactly when ``(lo | 1) + 2*i`` is prime, one byte per
    odd number, so ``len(flags)`` is the count of odd numbers in [lo, hi)
    (0 for [2, 3)).  2 has no flag: a caller whose range holds it counts it
    by its own rule.  The range must fit in one allocation (width
    hi - lo <= MAX_SIEVE_WIDTH numbers); walk big ranges with `windows`.

    The flags start as one period of `_PATTERN` from index
    (base >> 1) mod 15015, where base = lo | 1, repeated to length: every
    multiple of 3, 5, 7, 11 and 13 is struck.  Each odd base prime p from
    17 to isqrt(hi - 1) then strikes its odd multiples in the range, and
    the loop splits into three bands, small, medium and large, at
    ceil(n/Z) and at the range's span of 2n numbers, n = len(flags):

    - A small or medium prime, p < 2n, strikes every p-th flag from its first odd multiple
      at or past base, at index i = ((p >> 1) - (base >> 1)) mod p:
      base + 2i = 2((base >> 1) + i) + 1 is then 2(p >> 1) + 1 = p
      modulo p.  When i < n the slice flags[i::p] holds
      c = (n - 1 - i)//p + 1 flags, and a zero run of that length is
      assigned to it.
      - A small prime, p < ceil(n/Z) <= n, gets a new zero run; its
        i < p < n needs no test.
      - A medium prime, ceil(n/Z) <= p < 2n, gets the cached _ZEROS[c],
        since c <= Z: p >= ceil(n/Z) >= n/Z gives
        (n - 1 - i)/p <= (n - 1)/p < n/p <= Z, so (n - 1 - i)//p <= Z - 1.
    - A large prime, p >= 2n, strikes at most one flag.  Let
      last = base + 2(n - 1) and r = last mod p.  [base, last] holds
      2n - 1 < p integers, so at most one multiple of p; if it holds one,
      that is last - r, which is in range exactly when r <= 2n - 2.  last
      is odd, so last - r is odd exactly when r is even.  The range thus
      holds an odd multiple of p exactly when r is even and r < 2n, and
      its flag is n - 1 - r/2.  Each such prime costs one remainder,
      streamed from the base-prime list.

    Every odd composite below hi has an odd prime factor <= isqrt(hi - 1),
    so exactly the odd primes survive, except that each struck prime inside
    the range was struck at itself, its first odd multiple, and 1 was never
    struck; both are set right at the end.

    The base primes come from this same sieve: they are grown, up to
    isqrt(hi - 1), in windows of at most SEGMENT_WIDTH numbers past the
    largest one found so far, and kept as a list of pi(isqrt(hi - 1))
    Python ints.  They are grown even when the range holds no odd number.
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
    return _sieve(lo, hi)


def _sieve(lo: int, hi: int) -> bytearray:
    """`sieve_range` without its checks; base-prime growth calls it, so a
    wrapper on the module's `sieve_range` sees only the callers' windows."""
    base = lo | 1
    n = (hi - base + 1) >> 1
    root = isqrt(hi - 1)
    odd_primes = _odd_primes_to(root)
    struck = max(bisect_right(odd_primes, root), len(_PRESIEVED))

    k = base >> 1
    offset = k % _PERIOD
    flags = _PATTERN[offset : offset + _PERIOD] * -(-n // _PERIOD)
    del flags[n:]

    span = 2 * n
    medium = bisect_left(odd_primes, -(-n // Z), len(_PRESIEVED), struck)
    wide = bisect_left(odd_primes, span, medium, struck)
    for p in islice(odd_primes, len(_PRESIEVED), medium):
        i = ((p >> 1) - k) % p
        # A bytearray value is assigned without an intermediate copy.
        flags[i::p] = bytearray((n - 1 - i) // p + 1)
    for p in islice(odd_primes, medium, wide):
        i = ((p >> 1) - k) % p
        if i < n:
            flags[i::p] = _ZEROS[(n - 1 - i) // p + 1]

    last = base + span - 2
    for r in map(mod, repeat(last), islice(odd_primes, wide, struck)):
        if r < span and not r & 1:  # p has one odd multiple in range
            flags[n - 1 - (r >> 1)] = 0

    for p in islice(odd_primes, bisect_left(odd_primes, base), struck):
        if p < hi:
            flags[(p - base) >> 1] = 1
    if base == 1 and n:
        flags[0] = 0  # 1 is not prime
    return flags


def count_flags(flags: bytearray) -> int:
    """The number of 1 bytes in flags, whose every byte is 0 or 1.

    Each run of at most _ADLER_RUN = 65519 flags is summed by zlib's
    adler32, read from a memoryview slice, so nothing is copied.  By
    RFC 1950 the checksum's low 16 bits are s1 = (1 + sum of the bytes)
    mod 65521 from the start value 1.  A run of at most 65519 bytes of 0
    or 1 has 1 + sum <= 65520 < 65521, so s1 is never reduced, and
    s1 - 1 is the run's count of ones.
    """
    with memoryview(flags) as view:
        return sum(
            (adler32(view[j : j + _ADLER_RUN]) & 0xFFFF) - 1
            for j in range(0, len(view), _ADLER_RUN)
        )


def is_prime(n: int) -> bool:
    """Deterministic primality test, correct for every n < 2**64.

    Independent of the sieve code path on purpose: the two are used to
    cross-check each other.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    # n is now odd and > 37.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
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


def windows(
    lo: int, hi: int, width: int = SEGMENT_WIDTH
) -> Iterator[tuple[int, bytearray]]:
    """Yield (base, flags) for contiguous windows of at most `width`
    numbers that cover [lo, hi) in order: flags is the window's
    `sieve_range` and base the first odd number at or past the window's
    start, so ``flags[i]`` stands for ``base + 2*i``.  One window ends where
    the next begins: base + 2 * len(flags) is the next window's base.  A
    window holding no odd number yields empty flags, and 2 is never
    flagged.  The range is checked at the call; each window is sieved when
    the walk reaches it; a width below 1 raises ValueError."""
    if width < 1:
        raise ValueError(f"window width must be >= 1, got {width}")
    if lo >= hi:
        raise InvalidRangeError(f"empty or reversed range [{lo}, {hi})")
    return (
        (window_lo | 1, sieve_range(window_lo, min(window_lo + width, hi)))
        for window_lo in range(lo, hi, width)
    )


def iter_consecutive_pairs(
    lo: int, hi: int, segment_width: int = SEGMENT_WIDTH
) -> Iterator[tuple[int, int]]:
    """Yield (p, q) for every consecutive-prime pair with lo <= p < hi.

    q is always the true successor prime, found past hi when the last prime
    of the range needs it.
    """
    # 2, the one even prime, has no flag: it heads the range's first pair.
    prev = 2 if lo <= 2 < hi else None
    for base, flags in windows(lo, hi, segment_width):
        i = flags.find(1)
        while i >= 0:
            q = base + 2 * i
            if prev is not None:
                yield prev, q
            prev = q
            i = flags.find(1, i + 1)
    if prev is not None:
        yield prev, next_prime_above(prev)
