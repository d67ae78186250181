"""Exact per-pair quantities around the midpoint of two consecutive primes.

Everything here is integer arithmetic; no floats anywhere.  For a pair of
odd consecutive primes p < q with gap g = q - p, midpoint m = (p + q) / 2
and half-gap b = g / 2, the record captures m**2 together with the largest
odd multiples of p and of q not exceeding m**2, the counts of odd multiples
strictly between p*q and m**2, and the residues that measure how far m**2
sits above those largest odd multiples.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PrimePair:
    """Two consecutive primes with derived gap, midpoint, and half-gap."""

    p: int
    q: int
    g: int
    m: int
    b: int


@dataclass(frozen=True)
class MidpointRecord:
    """All derived quantities for one pair, exact.

    alpha_mult * p is the largest odd multiple of p not exceeding m2, and
    beta_mult * q the same for q.  c_lo / c_hi count odd multiples of p / q
    in the half-open interval (p*q, m2].  x_lo / x_hi are (m2 - p) mod 2p
    and (m2 - q) mod 2q.  delta is beta_mult*q - alpha_mult*p.  The fields
    are declared in the order the JSON and CSV output lists them.
    """

    pair: PrimePair
    m2: int
    x_lo: int
    x_hi: int
    c_lo: int
    c_hi: int
    alpha_mult: int
    beta_mult: int
    delta: int


def compute_record(pair: PrimePair) -> MidpointRecord:
    """Compute the full record of a pair with p >= 3, taken as given.

    The odd-multiple counts use the closed forms c_lo = b**2 // (2p) and
    c_hi = b**2 // (2q); the tests check them against direct enumeration.
    """
    p, q, g, m, b = pair.p, pair.q, pair.g, pair.m, pair.b
    if p < 3:
        raise ValueError("midpoint analysis needs p >= 3")
    m2 = m * m
    b2 = b * b
    two_p = 2 * p
    two_q = 2 * q
    c_lo = b2 // two_p
    c_hi = b2 // two_q
    alpha = q + 2 * c_lo
    beta = p + 2 * c_hi
    return MidpointRecord(
        pair=pair,
        m2=m2,
        alpha_mult=alpha,
        beta_mult=beta,
        c_lo=c_lo,
        c_hi=c_hi,
        x_lo=(m2 - p) % two_p,
        x_hi=(m2 - q) % two_q,
        delta=beta * q - alpha * p,
    )
