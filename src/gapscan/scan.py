"""Chunked, mergeable range scans of every consecutive-prime pair under
the enabled per-pair checks.

A chunk is sieved in fixed windows; its pairs are counted from the prime
flags, and only the few pairs a check, a gap record or the extremal ratio
can depend on are found by a zero-run search and run through
`midpoint.compute_record` and `claims.check_pair`.  Every other pair is
settled by the lemma proved in `scan_chunk`, which tests pin against an
every-pair reference scan.  Determinism contract: the final report never
depends on worker count, scheduling, or chunking (chunk merges happen in
range order).

Reports are value objects that merge associatively, so a scan can be
partitioned, checkpointed, and resumed without changing its result.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import isqrt
from multiprocessing import get_context
from typing import Callable, Iterable

from . import primes
from .claims import PAIR_CLAIMS, ClaimId, ClaimOutcome, Status, check_pair
from .codec import from_json, to_json
from .errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    IdentityCheckError,
    OverlappingRangesError,
)
from .midpoint import PrimePair, compute_record
from .primes import SEGMENT_WIDTH, UNIVERSE_LIMIT
# perfbench/tracing.py wraps gapscan.scan.iter_consecutive_pairs by name.
from .primes import iter_consecutive_pairs  # noqa: F401

DEFAULT_CHUNK_SIZE = 1 << 24
MIN_CHUNK_SIZE = 1 << 10
DEFAULT_VIOLATION_CAP = 100
CHECKPOINT_VERSION = 1
# Each save waits for the disk (tens of ms on ext4), so between the halt and
# final saves run_scan saves at most once per this many wall seconds; a crash
# loses at most that much merged work.
CHECKPOINT_INTERVAL_S = 1.0

# Pairs that every scan_chunk call evaluates, with every check and counter,
# ahead of the pairs it owns.  Always empty in the program: tests fill it
# to reach the failure branches, which genuine consecutive primes never take.
FED_PAIRS: tuple[tuple[int, int], ...] = ()


def default_workers() -> int:
    """Worker count for a scan: the CPUs this process may run on where the
    platform reports its affinity, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of one scan over [start, stop)."""

    start: int
    stop: int
    chunk_size: int = DEFAULT_CHUNK_SIZE
    workers: int = field(default_factory=default_workers)
    claims: frozenset[ClaimId] = frozenset(PAIR_CLAIMS)
    violation_cap: int = DEFAULT_VIOLATION_CAP
    checkpoint_path: str | None = None

    def validate(self) -> None:
        if self.start < 2:
            raise ValueError(f"scan start must be >= 2, got {self.start}")
        if self.start >= self.stop:
            raise ValueError(f"empty or reversed range [{self.start}, {self.stop})")
        if self.stop > UNIVERSE_LIMIT:
            raise ValueError(f"scan stop {self.stop} exceeds 2**63")
        if self.chunk_size < MIN_CHUNK_SIZE:
            raise ValueError(f"chunk_size must be >= {MIN_CHUNK_SIZE}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.violation_cap < 0:
            raise ValueError("violation_cap must be >= 0")
        bad = set(self.claims) - set(PAIR_CLAIMS)
        if bad:
            names = ", ".join(sorted(c.value for c in bad))
            raise ValueError(f"not a per-pair claim: {names}")

    def digest(self) -> str:
        """Hex digest over the fields that determine the report."""
        payload = json.dumps(
            {
                "start": self.start,
                "stop": self.stop,
                "chunk_size": self.chunk_size,
                "claims": sorted(c.value for c in self.claims),
                "violation_cap": self.violation_cap,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ClaimCounter:
    checked: int = 0
    passed: int = 0
    vacuous: int = 0
    failed: int = 0

    def __add__(self, other: "ClaimCounter") -> "ClaimCounter":
        return ClaimCounter(
            self.checked + other.checked,
            self.passed + other.passed,
            self.vacuous + other.vacuous,
            self.failed + other.failed,
        )


# What one evaluated outcome adds to its claim's counter.
_TALLY = {
    Status.PASS: ClaimCounter(checked=1, passed=1),
    Status.VACUOUS_PASS: ClaimCounter(checked=1, vacuous=1),
    Status.FAIL: ClaimCounter(checked=1, failed=1),
}


@dataclass(frozen=True)
class GapRecord:
    """A pair whose gap exceeds every gap at smaller primes in the scanned
    prefix."""

    p: int
    g: int


@dataclass(frozen=True)
class RatioRecord:
    """The exact fraction g**3 / p**2 of the pair maximizing it, kept as the
    integer pair (g_cubed, p_squared) so comparisons never round."""

    g_cubed: int
    p_squared: int
    p: int
    g: int

    def beats(self, other: "RatioRecord") -> bool:
        return self.g_cubed * other.p_squared > other.g_cubed * self.p_squared


@dataclass(eq=True)
class ScanReport:
    """Mergeable aggregate of one scanned range.

    elapsed_ns is wall-clock bookkeeping and is excluded from equality:
    everything else is deterministic for a given range and configuration.
    """

    start: int
    stop: int
    pairs_checked: int
    per_claim: dict[ClaimId, ClaimCounter]
    violations: list[ClaimOutcome]
    max_ratio: RatioRecord | None
    gap_records: list[GapRecord]
    c_histogram: dict[int, int]
    violation_cap: int
    elapsed_ns: int = field(default=0, compare=False)

    @classmethod
    def empty(
        cls,
        start: int,
        stop: int,
        claims: Iterable[ClaimId] = PAIR_CLAIMS,
        violation_cap: int = DEFAULT_VIOLATION_CAP,
    ) -> "ScanReport":
        return cls(
            start=start,
            stop=stop,
            pairs_checked=0,
            per_claim={c: ClaimCounter() for c in claims},
            violations=[],
            max_ratio=None,
            gap_records=[],
            c_histogram={},
            violation_cap=violation_cap,
        )

    def to_json_dict(self) -> dict:
        """The codec's JSON form, with start and stop as "range": [lo, hi]."""
        data = to_json(self)
        return {"range": [data.pop("start"), data.pop("stop")], **data}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScanReport":
        start, stop = data["range"]
        return from_json(cls, {**data, "start": start, "stop": stop})

    def total_failed(self) -> int:
        return sum(c.failed for c in self.per_claim.values())


def plan_chunks(config: ScanConfig) -> list[tuple[int, int]]:
    """Disjoint ordered chunks covering [start, stop) exactly, each at most
    chunk_size wide.  A pair belongs to the chunk containing its first
    element."""
    return [
        (lo, min(lo + config.chunk_size, config.stop))
        for lo in range(config.start, config.stop, config.chunk_size)
    ]


def _icbrt(n: int) -> int:
    """Floor cube root, exact for arbitrarily large n."""
    if n <= 0:
        return 0
    x = int(round(n ** (1.0 / 3.0)))
    while x > 0 and x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def scan_chunk(
    lo: int,
    hi: int,
    claims: Iterable[ClaimId] = PAIR_CLAIMS,
    violation_cap: int = DEFAULT_VIOLATION_CAP,
) -> ScanReport:
    """Scan every pair owned by [lo, hi) (ownership by first element).

    The pair at p = 2 has no integral midpoint, so it only sees the cubed
    gap bound; all other enabled checks count every pair.

    Only a few pairs are evaluated, by `compute_record` and `check_pair`:
    the pair at p = 2, the pair crossing each sieve window's end (the last
    one takes its successor from `next_prime_above`), and every pair whose
    gap g exceeds t = min(best gap so far, isqrt(8P - 1),
    icbrt(bg3 * P**2 // bp2)), where P is the prime the search starts from
    and bg3 / bp2 is the best g**3 / p**2 so far.  Each term only grows
    with P and with the state, so a pair with p >= P > 2 and g <= t neither
    sets a gap record, nor beats the best ratio (g**3 * bp2 <= bg3 * p**2),
    and has g**2 < 8p.  A gap above t is a run of at least t zero flags, so
    the zero-run search finds exactly the pairs to evaluate.

    Lemma: for odd p < q with g = q - p, b = g / 2 and g**2 < 8p, every
    check passes, and COR_PRODUCT vacuously.  b**2 = g**2 / 4 < 2p < 2q,
    so c_lo = c_hi = 0; then alpha = q and beta = p, so delta =
    beta*q - alpha*p = 0 and 2*c_lo*g = 0 (COR_PRODUCT holds vacuously),
    delta = 0 < 2p (COR_BOUND), c_hi <= c_lo (LEMMA_ORDER),
    c_lo*g = 0 < p (LEMMA_RATIO), g**2 < 8p = 8p*(c_lo + 1) (LEMMA_SQRT),
    and g**3 < (8p)**(3/2) <= 16p**2 for p >= 2 (THEOREM_CUBE_BOUND).  The
    six IDENTITIES equations hold as algebra.  So every other pair adds
    exactly 1 to each enabled claim's `checked`, 1 to COR_PRODUCT's
    `vacuous` and every other claim's `passed`, 1 to c_histogram[0], and
    nothing else.

    The pairs in FED_PAIRS are evaluated first, through the same path.
    """
    t0 = time.perf_counter_ns()
    # Sieve and successor calls go through the module, so a wrapper set on
    # gapscan.primes sees them.  windows rejects an empty range here.
    walk = primes.windows(lo, hi, SEGMENT_WIDTH)
    enabled = frozenset(claims)

    tally = {c: ClaimCounter() for c in enabled}
    violations: list[ClaimOutcome] = []
    hist: dict[int, int] = {}
    gap_records: list[GapRecord] = []
    best_gap = 0
    bg3 = bp2 = best_p = best_g = 0
    evaluated = 0

    def evaluate(p: int, q: int) -> None:
        nonlocal best_gap, bg3, bp2, best_p, best_g, evaluated
        evaluated += 1
        g = q - p
        if g > best_gap:
            best_gap = g
            gap_records.append(GapRecord(p=p, g=g))
        if bg3 == 0 or g * g * g * bp2 > bg3 * p * p:
            bg3, bp2, best_p, best_g = g * g * g, p * p, p, g
        pair = PrimePair(p=p, q=q, g=g, m=p + (g >> 1), b=g >> 1)
        record = None
        if p != 2:
            record = compute_record(pair)
            hist[record.c_lo] = hist.get(record.c_lo, 0) + 1
        for outcome in check_pair(pair, record, enabled):
            if outcome.status is Status.FAIL:
                if outcome.claim is ClaimId.IDENTITIES:
                    raise IdentityCheckError(
                        f"identity failed at pair ({p}, {q}): "
                        f"lhs={outcome.lhs} rhs={outcome.rhs}"
                    )
                if len(violations) < violation_cap:
                    violations.append(outcome)
            tally[outcome.claim] += _TALLY[outcome.status]

    for p, q in FED_PAIRS:
        evaluate(p, q)
    pairs = len(FED_PAIRS)

    prev = None  # the last prime of the windows so far; its pair is open
    for window_lo, flags in walk:
        i = flags.find(1)
        if i < 0:
            continue
        pairs += flags.count(1)
        if prev is not None:
            evaluate(prev, window_lo + i)
        last = flags.rfind(1)
        # i indexes the prime P whose pair is the next one undecided.
        while True:
            p = window_lo + i
            if p == 2 or not bp2:  # the pair at 2, or nothing evaluated yet
                t = 0
            else:
                t = min(best_gap, isqrt(8 * p - 1), _icbrt(bg3 * p * p // bp2))
            # The first run of t zeros from i + 1 starts right after the
            # first prime at or past P whose gap exceeds t.
            z = flags.find(bytes(t), i + 1, last)
            if z < 0:
                break
            i = flags.find(1, z + t)
            evaluate(window_lo + z - 1, window_lo + i)
        prev = window_lo + last
    if prev is not None:
        evaluate(prev, primes.next_prime_above(prev))

    discharged = pairs - evaluated
    per_claim = {
        claim: counter + ClaimCounter(
            checked=discharged,
            passed=0 if claim is ClaimId.COR_PRODUCT else discharged,
            vacuous=discharged if claim is ClaimId.COR_PRODUCT else 0,
        )
        for claim, counter in tally.items()
    }
    if discharged:
        hist[0] = hist.get(0, 0) + discharged

    max_ratio = None
    if bg3:
        max_ratio = RatioRecord(g_cubed=bg3, p_squared=bp2, p=best_p, g=best_g)

    return ScanReport(
        start=lo,
        stop=hi,
        pairs_checked=pairs,
        per_claim=per_claim,
        violations=violations,
        max_ratio=max_ratio,
        gap_records=gap_records,
        c_histogram=hist,
        violation_cap=violation_cap,
        elapsed_ns=time.perf_counter_ns() - t0,
    )


def merge_reports(a: ScanReport, b: ScanReport) -> ScanReport:
    """Combine two reports over adjacent or disjoint ranges (a before b).

    Associative; the zero-width report is the identity.  Violations stay in
    increasing-p order and are re-capped; gap records are re-filtered so the
    strictly-increasing invariant holds across the boundary.
    """
    if a.stop > b.start:
        raise OverlappingRangesError(
            f"[{a.start}, {a.stop}) must lie entirely before [{b.start}, {b.stop})"
        )
    if a.violation_cap != b.violation_cap:
        raise ValueError("cannot merge reports with different violation caps")

    per_claim = dict(a.per_claim)
    for claim, counter in b.per_claim.items():
        per_claim[claim] = per_claim.get(claim, ClaimCounter()) + counter

    violations = (a.violations + b.violations)[: a.violation_cap]

    if a.max_ratio is None:
        max_ratio = b.max_ratio
    elif b.max_ratio is None or not b.max_ratio.beats(a.max_ratio):
        max_ratio = a.max_ratio
    else:
        max_ratio = b.max_ratio

    gap_records = list(a.gap_records)
    largest = gap_records[-1].g if gap_records else 0
    for record in b.gap_records:
        if record.g > largest:
            gap_records.append(record)
            largest = record.g

    c_histogram = dict(a.c_histogram)
    for key, count in b.c_histogram.items():
        c_histogram[key] = c_histogram.get(key, 0) + count

    return ScanReport(
        start=a.start,
        stop=b.stop,
        pairs_checked=a.pairs_checked + b.pairs_checked,
        per_claim=per_claim,
        violations=violations,
        max_ratio=max_ratio,
        gap_records=gap_records,
        c_histogram=c_histogram,
        violation_cap=a.violation_cap,
        elapsed_ns=a.elapsed_ns + b.elapsed_ns,
    )


@dataclass
class CheckpointState:
    """Resumable scan progress: which plan prefix is done and its merged
    partial report."""

    config_digest: str
    completed: list[tuple[int, int]]
    partial: ScanReport | None


def save_checkpoint(state: CheckpointState, path: str) -> None:
    document = {
        "version": CHECKPOINT_VERSION,
        "config_digest": state.config_digest,
        "completed": to_json(state.completed),
        "partial": None if state.partial is None else state.partial.to_json_dict(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> CheckpointState:
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"unreadable checkpoint {path}: {exc}") from exc
    try:
        version = int(document["version"])
        if version != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )
        partial = None
        if document["partial"] is not None:
            partial = ScanReport.from_json_dict(document["partial"])
        state = CheckpointState(
            config_digest=str(document["config_digest"]),
            completed=from_json(list[tuple[int, int]], document["completed"]),
            partial=partial,
        )
    except CheckpointMismatchError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed checkpoint {path}: {exc}") from exc
    # The partial report covers exactly the completed chunks, or is absent
    # when none are completed.
    done = state.completed
    covered = (done[0][0], done[-1][1]) if done else None
    span = None if partial is None else (partial.start, partial.stop)
    if span != covered:
        raise CheckpointCorruptError(
            f"checkpoint {path}: completed chunks cover {covered}, "
            f"its partial report covers {span}"
        )
    return state


def _scan_chunk_task(args: tuple[int, int, frozenset[ClaimId], int]) -> ScanReport:
    return scan_chunk(*args)


def run_scan(
    config: ScanConfig,
    progress: Callable[[int, int, tuple[int, int]], None] | None = None,
    halt_after_chunks: int | None = None,
) -> ScanReport:
    """Execute a full scan: plan chunks, fan out to workers, merge in range
    order, checkpointing the completed prefix at most once per
    CHECKPOINT_INTERVAL_S of wall time, on halt, and after the last chunk.

    `progress` is called as progress(done, total, chunk) after each merge.
    `halt_after_chunks` stops early after that many newly merged chunks
    (the checkpoint, if configured, then allows an exact resume); used to
    exercise interrupt/resume.
    """
    config.validate()
    plan = plan_chunks(config)
    digest = config.digest()

    done = 0
    partial: ScanReport | None = None
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        state = load_checkpoint(config.checkpoint_path)
        if state.config_digest != digest:
            raise CheckpointMismatchError(
                "checkpoint was written by a different scan configuration"
            )
        if state.completed != plan[: len(state.completed)]:
            raise CheckpointMismatchError(
                "checkpoint chunk list does not match the scan plan"
            )
        done = len(state.completed)
        partial = state.partial

    remaining = plan[done:]
    tasks = [(lo, hi, config.claims, config.violation_cap) for lo, hi in remaining]
    workers = min(config.workers, len(tasks))
    last_save = time.monotonic()
    # Leaving the block terminates the pool, also on halt.
    with (get_context().Pool(workers) if workers > 1 else nullcontext()) as pool:
        if pool is None:
            reports = map(_scan_chunk_task, tasks)
        else:
            reports = pool.imap(_scan_chunk_task, tasks)
        for newly_done, (chunk, report) in enumerate(zip(remaining, reports), 1):
            partial = report if partial is None else merge_reports(partial, report)
            done += 1
            halt = halt_after_chunks is not None and newly_done >= halt_after_chunks
            if config.checkpoint_path and (
                halt
                or done == len(plan)
                or time.monotonic() - last_save >= CHECKPOINT_INTERVAL_S
            ):
                state = CheckpointState(digest, plan[:done], partial)
                save_checkpoint(state, config.checkpoint_path)
                last_save = time.monotonic()
            if progress is not None:
                progress(done, len(plan), chunk)
            if halt:
                break

    assert partial is not None  # plan is never empty for a validated config
    return partial
