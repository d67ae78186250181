"""Chunked, mergeable range scans of every consecutive-prime pair under
the enabled per-pair checks.

A chunk is sieved in windows whose width `primes.windows` works out from
the chunk's top; its pairs are counted from the prime flags by
`primes.count_flags`, and only the few pairs a check, a gap record or the
extremal ratio can depend on are found by a zero-run search and run
through `claims.check_pair`, which builds each one's record.  A
`ChunkTally` adds them up.  Every other pair is settled by the lemma
proved in `scan_chunk`, which tests pin against an every-pair reference
scan.  Determinism contract: the final report never depends on worker
count, scheduling, or chunking (chunk merges happen in range order).

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
# perfbench/tracing.py wraps gapscan.scan.iter_consecutive_pairs by name.
from .primes import iter_consecutive_pairs  # noqa: F401

DEFAULT_CHUNK_SIZE = 1 << 24
MIN_CHUNK_SIZE = 1 << 10
DEFAULT_VIOLATION_CAP = 100
CHECKPOINT_VERSION = 1
# Each save waits for the disk (tens of ms on ext4), so between the halt and
# final saves run_scan saves at most once per this many wall seconds; a crash
# loses at most that much merged work, plus what the workers hold unmerged:
# the batch each one is scanning, at most primes.SEGMENT_WIDTH numbers or one
# chunk (see run_scan), and any chunks done ahead of an earlier one.
CHECKPOINT_INTERVAL_S = 1.0


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
        if self.stop > primes.SCAN_LIMIT:
            raise ValueError(f"scan stop {self.stop} exceeds 10**16")
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


# The column of a ChunkTally row that an outcome's status counts in.
_COLUMN = {Status.PASS: 0, Status.VACUOUS_PASS: 1, Status.FAIL: 2}


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


class ChunkTally:
    """What the pairs of one chunk add up to.  `pairs` counts every pair the
    chunk owns; the few that `scan_chunk`'s lemma cannot settle go through
    `evaluate`, and `report` settles the rest.  `claims` holds the enabled
    claims in PAIR_CLAIMS order, and `rows` [passed, vacuous, failed] for
    each."""

    def __init__(self, claims: Iterable[ClaimId], violation_cap: int) -> None:
        enabled = frozenset(claims)
        self.claims = tuple(c for c in PAIR_CLAIMS if c in enabled)
        self.violation_cap = violation_cap
        self.pairs = 0
        self.evaluated = 0
        self.rows = [[0, 0, 0] for _ in self.claims]
        self.violations: list[ClaimOutcome] = []
        self.histogram: dict[int, int] = {}
        self.gap_records: list[GapRecord] = []
        self.best_gap = 0
        self.best: RatioRecord | None = None

    def evaluate(self, p: int, q: int) -> None:
        """Run the pair (p, q) through `check_pair` and update every counter
        and record; an IDENTITIES failure aborts the scan."""
        self.evaluated += 1
        g = q - p
        if g > self.best_gap:
            self.best_gap = g
            self.gap_records.append(GapRecord(p=p, g=g))
        ratio = RatioRecord(g_cubed=g * g * g, p_squared=p * p, p=p, g=g)
        if self.best is None or ratio.beats(self.best):
            self.best = ratio
        record, outcomes = check_pair(p, q, self.claims)
        if record is not None:
            self.histogram[record.c_lo] = self.histogram.get(record.c_lo, 0) + 1
        # check_pair returns the enabled checks in PAIR_CLAIMS order, and the
        # pair at p = 2 gets THEOREM_CUBE_BOUND alone, the last of them, so
        # the outcomes line up with the last len(outcomes) rows.
        rows = self.rows[len(self.rows) - len(outcomes):]
        for row, outcome in zip(rows, outcomes):
            if outcome.status is Status.FAIL:
                if outcome.claim is ClaimId.IDENTITIES:
                    raise IdentityCheckError(
                        f"identity failed at pair ({p}, {q}): "
                        f"lhs={outcome.lhs} rhs={outcome.rhs}"
                    )
                if len(self.violations) < self.violation_cap:
                    self.violations.append(outcome)
            row[_COLUMN[outcome.status]] += 1

    def threshold(self, p: int) -> int:
        """The t of `scan_chunk`'s lemma for a search starting at the prime
        p: 0 while nothing is evaluated."""
        if self.best is None:
            return 0
        bar = _icbrt(self.best.g_cubed * p * p // self.best.p_squared)
        return min(self.best_gap, isqrt(8 * p - 1), bar)

    def report(self, lo: int, hi: int, elapsed_ns: int) -> ScanReport:
        """The report of [lo, hi): each pair not evaluated adds what
        `scan_chunk`'s lemma proves of it."""
        discharged = self.pairs - self.evaluated
        histogram = self.histogram
        if discharged:
            histogram = {**histogram, 0: histogram.get(0, 0) + discharged}
        per_claim = {}
        for claim, (passed, vacuous, failed) in zip(self.claims, self.rows):
            if claim is ClaimId.COR_PRODUCT:
                vacuous += discharged
            else:
                passed += discharged
            per_claim[claim] = ClaimCounter(
                passed + vacuous + failed, passed, vacuous, failed
            )
        return ScanReport(
            start=lo,
            stop=hi,
            pairs_checked=self.pairs,
            per_claim=per_claim,
            violations=self.violations,
            max_ratio=self.best,
            gap_records=self.gap_records,
            c_histogram=histogram,
            violation_cap=self.violation_cap,
            elapsed_ns=elapsed_ns,
        )


def scan_chunk(
    lo: int,
    hi: int,
    claims: Iterable[ClaimId] = PAIR_CLAIMS,
    violation_cap: int = DEFAULT_VIOLATION_CAP,
) -> ScanReport:
    """Scan every pair owned by [lo, hi) (ownership by first element).

    The pair at p = 2 has no integral midpoint, so it only sees the cubed
    gap bound; all other enabled checks count every pair.

    Only a few pairs are evaluated, by `ChunkTally.evaluate` through
    `check_pair`, which builds the pair's record: the pair at p = 2, the
    pair crossing each sieve window's end (the last one takes its successor
    from `next_prime_above`), and every pair whose gap g exceeds t =
    min(best gap so far, isqrt(8P - 1), icbrt(bg3 * P**2 // bp2)), where P
    is the prime the search starts from and bg3 / bp2 is the g_cubed /
    p_squared of the best `RatioRecord` so far by `RatioRecord.beats`.
    Each term only grows with P and with the state, so a pair with
    p >= P > 2 and g <= t neither sets a gap record, nor beats the best
    ratio (g**3 * bp2 <= bg3 * p**2), and has g**2 < 8p.

    2 has no sieve flag; `primes.windows` yields it in a one-flag window of
    its own, so it opens the chunk's first pair, (2, 3), which is evaluated
    like a window-crossing pair (or as the last pair when hi = 3).  Odd
    primes p < q sit g / 2 flags apart, with g / 2 - 1 zero flags between
    them, and g is even, so g > t exactly when g >= 2 * (t >> 1) + 2, that
    is, when g / 2 - 1 >= t >> 1.  The first run of t >> 1 zero flags past
    P's flag therefore starts right after the first prime at or past P
    whose gap exceeds t, and the zero-run search finds exactly the pairs to
    evaluate.

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
    """
    t0 = time.perf_counter_ns()
    # Sieve and successor calls go through the module, so a wrapper set on
    # gapscan.primes sees them.  windows rejects an empty range here.
    walk = primes.windows(lo, hi)
    tally = ChunkTally(claims, violation_cap)

    prev = None  # the last prime of the windows so far; its pair is open
    for base, flags in walk:
        i = flags.find(1)
        if i < 0:
            continue
        tally.pairs += primes.count_flags(flags)
        if prev is not None:
            tally.evaluate(prev, base + 2 * i)
        last = flags.rfind(1)
        # i indexes the prime P whose pair is the next one undecided.
        while True:
            run = tally.threshold(base + 2 * i) >> 1
            z = flags.find(bytes(run), i + 1, last)
            if z < 0:
                break
            i = flags.find(1, z + run)
            tally.evaluate(base + 2 * (z - 1), base + 2 * i)
        prev = base + 2 * last
    if prev is not None:
        tally.evaluate(prev, primes.next_prime_above(prev))
    return tally.report(lo, hi, time.perf_counter_ns() - t0)


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
    `halt_after_chunks` stops early after that many newly merged chunks, at
    least 1 (the checkpoint, if configured, then allows an exact resume);
    used to exercise interrupt/resume.

    With more than one worker, chunks go to the pool in batches of
    max(1, min(tasks // (4 * workers), primes.SEGMENT_WIDTH // chunk_size)),
    tasks being the chunks left: at least 4 batches per worker where there
    are that many chunks, and at most SEGMENT_WIDTH numbers or one chunk
    each.  Merges, `progress`, halts and checkpoints go chunk by chunk.
    """
    if halt_after_chunks is not None and halt_after_chunks < 1:
        raise ValueError(f"halt_after_chunks must be >= 1, got {halt_after_chunks}")
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
            batch = min(
                len(tasks) // (4 * workers),
                primes.SEGMENT_WIDTH // config.chunk_size,
            )
            reports = pool.imap(_scan_chunk_task, tasks, max(1, batch))
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
