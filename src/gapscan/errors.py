"""Exception types shared across the package."""


class InvalidRangeError(ValueError):
    """Raised when a half-open range [lo, hi) is empty, reversed, or leaves the
    supported universe (hi must stay at or below 2**63)."""


class RangeTooLargeError(ValueError):
    """Raised when a single sieve call asks for more cells than one segment may
    hold; the caller is expected to chunk the range instead."""


class MidpointUndefinedError(ValueError):
    """Midpoint analysis needs two odd primes; the pair (2, 3) has a
    non-integral midpoint and is rejected."""


class IdentityCheckError(RuntimeError):
    """An exact arithmetic identity failed on genuine pair data.  This is an
    internal error (an arithmetic bug), never a mathematical finding, and it
    aborts the scan that detected it."""


class OverlappingRangesError(ValueError):
    """merge_reports received reports whose ranges overlap."""


class CheckpointCorruptError(RuntimeError):
    """Checkpoint file is unreadable or structurally invalid."""


class CheckpointMismatchError(ValueError):
    """Checkpoint belongs to a different scan configuration (or an
    unsupported checkpoint version)."""
