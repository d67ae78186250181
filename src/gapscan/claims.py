"""Exact integer predicates over midpoint records and prime gaps.

Each check returns a structured outcome instead of a bare bool so scans can
aggregate counters and keep violation samples.  All comparisons are done in
squared or cubed integer form; there is no floating point and no rounding.

A FAIL from IDENTITIES means the arithmetic that built the record is broken
(the six equations are definitional).  A FAIL from any other check on
genuine pair data is a reportable mathematical finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Container

from .midpoint import MidpointRecord, PrimePair, compute_record
from .primes import count_flags, windows
# perfbench/tracing.py wraps gapscan.claims.sieve_range by name.
from .primes import sieve_range  # noqa: F401


class ClaimId(Enum):
    IDENTITIES = "IDENTITIES"
    LEMMA_ORDER = "LEMMA_ORDER"
    COR_BOUND = "COR_BOUND"
    COR_PRODUCT = "COR_PRODUCT"
    LEMMA_RATIO = "LEMMA_RATIO"
    LEMMA_SQRT = "LEMMA_SQRT"
    THEOREM_CUBE_BOUND = "THEOREM_CUBE_BOUND"
    CUBE_INTERVAL = "CUBE_INTERVAL"


# The per-pair checks a range scan can run; CUBE_INTERVAL is per-N instead.
PAIR_CLAIMS = (
    ClaimId.IDENTITIES,
    ClaimId.LEMMA_ORDER,
    ClaimId.COR_BOUND,
    ClaimId.COR_PRODUCT,
    ClaimId.LEMMA_RATIO,
    ClaimId.LEMMA_SQRT,
    ClaimId.THEOREM_CUBE_BOUND,
)


class Status(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    VACUOUS_PASS = "VACUOUS_PASS"


@dataclass(frozen=True)
class ClaimOutcome:
    """Result of one per-pair check on the pair starting at pair_p.

    lhs/rhs carry the two evaluated sides of the claim's comparison; for
    IDENTITIES they carry the first violated equation's sides (0, 0 when
    everything holds).
    """

    claim: ClaimId
    pair_p: int
    status: Status
    lhs: int
    rhs: int


def check_identities(r: MidpointRecord) -> ClaimOutcome:
    """Verify the six defining equations of a record.

    In order: m2 - p*q = b**2; alpha*p = m2 - x_lo; beta*q = m2 - x_hi;
    alpha = q + 2*c_lo; beta = p + 2*c_hi; delta = x_lo - x_hi.
    """
    p, q, b = r.pair.p, r.pair.q, r.pair.b
    ap = r.alpha_mult * p
    bq = r.beta_mult * q
    equations = (
        (r.m2 - p * q, b * b),
        (ap, r.m2 - r.x_lo),
        (bq, r.m2 - r.x_hi),
        (r.alpha_mult, q + 2 * r.c_lo),
        (r.beta_mult, p + 2 * r.c_hi),
        (r.delta, r.x_lo - r.x_hi),
    )
    for lhs, rhs in equations:
        if lhs != rhs:
            return ClaimOutcome(ClaimId.IDENTITIES, p, Status.FAIL, lhs, rhs)
    return ClaimOutcome(ClaimId.IDENTITIES, p, Status.PASS, 0, 0)


def check_lemma_order(r: MidpointRecord) -> ClaimOutcome:
    """The odd-multiple count for the larger prime never exceeds the
    smaller prime's count: c_hi <= c_lo."""
    status = Status.PASS if r.c_hi <= r.c_lo else Status.FAIL
    return ClaimOutcome(ClaimId.LEMMA_ORDER, r.pair.p, status, r.c_hi, r.c_lo)


def check_cor_bound(r: MidpointRecord) -> ClaimOutcome:
    """The signed difference of the two largest odd multiples stays below
    2p: delta < 2p."""
    rhs = 2 * r.pair.p
    status = Status.PASS if r.delta < rhs else Status.FAIL
    return ClaimOutcome(ClaimId.COR_BOUND, r.pair.p, status, r.delta, rhs)


def check_cor_product(r: MidpointRecord) -> ClaimOutcome:
    """Contested product form: delta = 2 * c_lo * g.

    VACUOUS_PASS when both sides are zero (the claim is not exercised);
    a FAIL on genuine data is a counterexample worth reporting, not a bug.
    """
    rhs = 2 * r.c_lo * r.pair.g
    if r.delta == rhs:
        status = Status.VACUOUS_PASS if rhs == 0 else Status.PASS
    else:
        status = Status.FAIL
    return ClaimOutcome(ClaimId.COR_PRODUCT, r.pair.p, status, r.delta, rhs)


def check_lemma_ratio(r: MidpointRecord) -> ClaimOutcome:
    """Count-gap product stays below the smaller prime: c_lo * g < p."""
    lhs = r.c_lo * r.pair.g
    status = Status.PASS if lhs < r.pair.p else Status.FAIL
    return ClaimOutcome(ClaimId.LEMMA_RATIO, r.pair.p, status, lhs, r.pair.p)


def check_lemma_sqrt(r: MidpointRecord) -> ClaimOutcome:
    """Squared gap bound: g**2 < 8 * p * (c_lo + 1)."""
    lhs = r.pair.g * r.pair.g
    rhs = 8 * r.pair.p * (r.c_lo + 1)
    status = Status.PASS if lhs < rhs else Status.FAIL
    return ClaimOutcome(ClaimId.LEMMA_SQRT, r.pair.p, status, lhs, rhs)


def check_theorem(p: int, g: int) -> ClaimOutcome:
    """Cubed gap bound: g**3 < 16 * p**2.  Applies to every pair, (2, 3)
    included."""
    lhs = g * g * g
    rhs = 16 * p * p
    status = Status.PASS if lhs < rhs else Status.FAIL
    return ClaimOutcome(ClaimId.THEOREM_CUBE_BOUND, p, status, lhs, rhs)


_RECORD_CHECKS = (
    (ClaimId.IDENTITIES, check_identities),
    (ClaimId.LEMMA_ORDER, check_lemma_order),
    (ClaimId.COR_BOUND, check_cor_bound),
    (ClaimId.COR_PRODUCT, check_cor_product),
    (ClaimId.LEMMA_RATIO, check_lemma_ratio),
    (ClaimId.LEMMA_SQRT, check_lemma_sqrt),
)


def check_pair(
    p: int, q: int, claims: Container[ClaimId] = PAIR_CLAIMS
) -> tuple[MidpointRecord | None, list[ClaimOutcome]]:
    """The record of the pair (p, q) and every check in `claims` on it, in
    PAIR_CLAIMS order.

    The pair is taken as given, with m = p + (g >> 1) and b = g >> 1, so
    crafted pairs reach the failure branches.  The pair at p = 2 has no
    integral midpoint: its record is None and it gets THEOREM_CUBE_BOUND
    alone.
    """
    g = q - p
    record, outcomes = None, []
    if p != 2:
        record = compute_record(PrimePair(p=p, q=q, g=g, m=p + (g >> 1), b=g >> 1))
        outcomes = [check(record) for claim, check in _RECORD_CHECKS if claim in claims]
    if ClaimId.THEOREM_CUBE_BOUND in claims:
        outcomes.append(check_theorem(p, g))
    return record, outcomes


@dataclass(frozen=True)
class CubeIntervalResult:
    """Prime occupancy of the open interval (n**3, (n+1)**3)."""

    n: int
    count: int
    witness: int
    status: Status


def check_cube_interval(n: int) -> CubeIntervalResult:
    """Count primes strictly between n**3 and (n+1)**3.

    witness is the smallest such prime (0 if none); PASS means at least one
    prime lives in the interval.  (n+1)**3 may reach at most 10**16:
    `windows` refuses a larger one with ValueError before it sieves.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    count = witness = 0
    for base, flags in windows(n**3 + 1, (n + 1) ** 3):
        count += count_flags(flags)
        if not witness and (i := flags.find(1)) >= 0:
            witness = base + 2 * i
    status = Status.PASS if count >= 1 else Status.FAIL
    return CubeIntervalResult(n=n, count=count, witness=witness, status=status)
