"""Chunked, mergeable range scans of every consecutive-prime pair under
the enabled per-pair checks.

A chunk is sieved in windows whose width `primes.windows` works out from the
chunk's top, and its pairs are counted from the prime flags by
`primes.count_flags`.  Only the pairs a check, a gap record or the extremal
ratio can depend on are found, each by one search for a zero run and the
prime flag closing it, and go through `claims.check_pair`, which builds each
one's record.  A `ChunkTally` adds them up.  The lemma proved in `scan_chunk`
settles every other pair; tests pin it to an every-pair reference scan.
Determinism contract: the final report never depends on worker count,
scheduling, or chunking (merges go in range order).

Reports merge associatively, end to end, of one claim set and one cap,
so a scan can be partitioned, checkpointed, and resumed without changing
its result.  `merge_reports` adds both reports to one `ChunkTally`, whose
`join` is the one rule that combines results, for pairs and reports alike.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Iterable, Iterator

from . import primes
from .claims import PAIR_CLAIMS, ClaimId, ClaimOutcome, Status, check_pair
from .codec import from_json, to_json
# perfbench/tracing.py wraps gapscan.scan.iter_consecutive_pairs by name.
from .primes import iter_consecutive_pairs  # noqa: F401

DEFAULT_CHUNK_SIZE = 1 << 24
MIN_CHUNK_SIZE = 1 << 10
DEFAULT_VIOLATION_CAP = 100
CHECKPOINT_VERSION = 1
# Each save waits for the disk (tens of ms on ext4), so between the halt and
# final saves run_scan saves at most once per this many wall seconds; a crash
# loses at most that much merged work, plus what the workers hold unmerged:
# the task each one is scanning, at most one rule window or one chunk (see
# run_scan), and any tasks done ahead of an earlier one.
CHECKPOINT_INTERVAL_S = 1.0


def default_workers() -> int:
    """Worker count for a scan: the CPUs this process may run on where the
    platform reports its affinity, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sha256(value: object) -> str:
    """Hex SHA-256 of the JSON of `value` with its keys sorted."""
    import hashlib  # only checkpoints hash, so other runs never load it
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


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
        primes.windows(self.start, self.stop)  # checks the range, sieves nothing
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


@dataclass(frozen=True)
class ClaimCounter:
    checked: int = 0
    passed: int = 0
    vacuous: int = 0
    failed: int = 0


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


def plan_chunks(config: ScanConfig) -> Iterator[tuple[int, int]]:
    """Disjoint ordered chunks covering [start, stop) exactly, each at most
    chunk_size wide, yielded lazily.  A pair belongs to the chunk containing
    its first element."""
    for lo in range(config.start, config.stop, config.chunk_size):
        yield lo, min(lo + config.chunk_size, config.stop)


class ChunkTally:
    """What a range's `pairs` add up to, pair by pair or report by report:
    `evaluate` settles a pair that `scan_chunk`'s lemma cannot, `add` a
    later range's report, both through `join`, and `report` the pairs not
    yet `settled`, by the lemma.  `rows[i]` is [passed, vacuous, failed]
    for `claims[i]`, the enabled claims in PAIR_CLAIMS order."""

    def __init__(self, claims: Iterable[ClaimId], violation_cap: int) -> None:
        enabled = frozenset(claims)
        self.claims = tuple(c for c in PAIR_CLAIMS if c in enabled)
        self.rows = [[0, 0, 0] for _ in self.claims]
        self.violation_cap = violation_cap
        self.pairs = 0
        self.settled = 0
        self.violations: list[ClaimOutcome] = []
        self.histogram: dict[int, int] = {}
        self.gap_records: list[GapRecord] = []
        self.best: RatioRecord | None = None

    def join(self, gaps: Iterable[GapRecord], ratio: RatioRecord | None,
             violations: list[ClaimOutcome], histogram: dict[int, int]) -> None:
        """Join a later pair or range: its gap records past the best gap, its
        ratio if it beats the best, its violations up to the cap, its bins."""
        best_gap = self.gap_records[-1].g if self.gap_records else 0
        for record in gaps:
            if record.g > best_gap:
                best_gap = record.g
                self.gap_records.append(record)
        if ratio is not None and (self.best is None or ratio.beats(self.best)):
            self.best = ratio
        self.violations += violations[: self.violation_cap - len(self.violations)]
        for c_lo, n in histogram.items():
            self.histogram[c_lo] = self.histogram.get(c_lo, 0) + n

    def evaluate(self, p: int, q: int) -> None:
        """Run the pair (p, q) through `check_pair` and settle it; an
        IDENTITIES failure is an arithmetic bug, never a finding, and aborts
        the scan with a RuntimeError."""
        self.settled += 1
        record, outcomes = check_pair(p, q, self.claims)
        failures = []
        for outcome in outcomes:
            if outcome.status is Status.FAIL:
                if outcome.claim is ClaimId.IDENTITIES:
                    raise RuntimeError(
                        f"identity failed at pair ({p}, {q}): "
                        f"lhs={outcome.lhs} rhs={outcome.rhs}"
                    )
                failures.append(outcome)
            self.rows[self.claims.index(outcome.claim)][_COLUMN[outcome.status]] += 1
        g = q - p
        bins = {} if record is None else {record.c_lo: 1}
        self.join([GapRecord(p, g)], RatioRecord(g**3, p * p, p, g), failures, bins)

    def add(self, report: ScanReport) -> None:
        """Take in the report of the range after every pair so far."""
        self.pairs += report.pairs_checked
        self.settled += report.pairs_checked
        self.join(report.gap_records, report.max_ratio, report.violations,
                  report.c_histogram)
        for claim, counter in report.per_claim.items():
            row = self.rows[self.claims.index(claim)]
            row[0] += counter.passed
            row[1] += counter.vacuous
            row[2] += counter.failed

    def threshold(self, p: int) -> int:
        """The t of `scan_chunk`'s lemma for a search starting at the prime
        p: min(best gap, isqrt(8p - 1)) once the last gap record lies
        below p, else 0, so every pair is evaluated.

        8p - 1 states g**2 <= 8p - 1 < 8p directly.  isqrt(8p) would give
        the same t: 8p is a square only if p = 2m**2, so only for p = 2,
        where no gap record lies below p and t is 0 before that term."""
        if not self.gap_records or self.gap_records[-1].p >= p:
            return 0
        return min(self.gap_records[-1].g, isqrt(8 * p - 1))

    def report(self, lo: int, hi: int, elapsed_ns: int) -> ScanReport:
        """The report of [lo, hi): each pair not yet settled adds what
        `scan_chunk`'s lemma proves of it."""
        discharged = self.pairs - self.settled
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

    Only a few pairs are evaluated, by `ChunkTally.evaluate`: the pair
    crossing each sieve window's end (`primes.windows` gives 2, which has no
    sieve flag, a one-flag window of its own; the last pair takes its
    successor from `next_prime_above`), and every pair whose gap g exceeds
    `ChunkTally.threshold`'s t, for P the prime the search starts from and
    (p_r, g_r) the last gap record so far: t = min(g_r, isqrt(8P - 1)) if
    p_r < P, else 0.  Take a pair with p >= P > p_r and g <= t.  It sets no
    gap record, as g <= g_r, and g**2 <= 8P - 1 < 8p.  Nor does it beat the
    best ratio R so far (`RatioRecord.beats` is strict): g**3 / p**2 <=
    g_r**3 / p**2 < g_r**3 / p_r**2 <= R, as the record pair itself went
    through `ChunkTally.join`.  Genuine pairs are evaluated in p order, so
    p_r >= P only before the first gap record, where t = 0 as well.

    Odd primes p < q sit g / 2 flags apart, g / 2 - 1 zeros between them,
    and g is even, so g > t exactly when g / 2 - 1 >= r = t >> 1 (odd t
    from crafted pairs too).  The search finds r zeros and a 1 in flags
    i + 1 to last, i being P's flag.  A match z ends at a prime's flag
    j = z + r in (i, last] after r or more zeros, and each such j matches
    at j - r > i, which grows with j: the leftmost match closes the first
    pair at or past P with g > t.  Its p is the last 1 in [i, z), not z - 1
    if the run exceeds r.  As j <= last, `prev` keeps the window-crossing
    pair.  For r = 0 the needle is a lone 1, matching every prime past P.

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
    # gapscan.primes sees them.  windows checks the range here.
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
            z = flags.find(bytes(run) + b"\x01", i + 1, last + 1)
            if z < 0:
                break
            tally.evaluate(base + 2 * flags.rfind(1, i, z), base + 2 * (z + run))
            i = z + run
        prev = base + 2 * last
    if prev is not None:
        tally.evaluate(prev, primes.next_prime_above(prev))
    return tally.report(lo, hi, time.perf_counter_ns() - t0)


def merge_reports(a: ScanReport, b: ScanReport) -> ScanReport:
    """Combine the reports of ranges that meet end to end (a then b), of
    one claim set and one violation cap (else ValueError), adding both in
    order to one `ChunkTally`, so two ranges join by the rule of two pairs.

    Associative; the zero-width report is the identity.
    """
    if (a.stop, a.violation_cap, a.per_claim.keys()) != (
        b.start, b.violation_cap, b.per_claim.keys()
    ):
        raise ValueError(
            f"cannot merge [{a.start}, {a.stop}) with [{b.start}, {b.stop}): "
            "reports merge end to end, of one claim set and one violation cap"
        )
    tally = ChunkTally(a.per_claim, a.violation_cap)
    tally.add(a)
    tally.add(b)
    return tally.report(a.start, b.stop, a.elapsed_ns + b.elapsed_ns)


def save_checkpoint(partial: ScanReport, path: str) -> None:
    """Write `partial`, the merged report of a scan's first chunks, to
    `path` with its SHA-256, synced to disk before it replaces the file."""
    data = partial.to_json_dict()
    document = {
        "version": CHECKPOINT_VERSION,
        "partial": data,
        "partial_sha256": _sha256(data),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> ScanReport:
    """Read the partial report of a checkpoint that `save_checkpoint` wrote.
    A file that cannot be decoded, or whose partial report no longer matches
    its stored hash, is corrupt: a RuntimeError.  Files without the hash
    still load.  Another version is a ValueError, and a file that cannot be
    opened or read an OSError, both raised outside the decode guards.  Other
    keys, such as the chunk list `completed` and the `config_digest` of
    older files, are ignored; `resumed_report` checks the report against a
    scan's config."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (RecursionError, ValueError) as exc:
        raise RuntimeError(f"unreadable checkpoint {path}: {exc}") from exc
    malformed = (AttributeError, KeyError, OverflowError, TypeError, ValueError)
    try:
        version = int(document["version"])
    except malformed as exc:
        raise RuntimeError(f"malformed checkpoint {path}: {exc}") from exc
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    try:
        partial = ScanReport.from_json_dict(document["partial"])
        digest = _sha256(document["partial"])
        if document.get("partial_sha256", digest) != digest:
            raise RuntimeError(
                f"checkpoint {path}: partial report does not match its SHA-256"
            )
        return partial
    except malformed as exc:
        raise RuntimeError(f"malformed checkpoint {path}: {exc}") from exc


def resumed_report(partial: ScanReport, config: ScanConfig) -> ScanReport:
    """`partial` as the report a scan of `config` resumes from: it must
    cover [start, b) under the config's claim set and violation cap, b
    being stop or a chunk boundary inside the range, else it is another
    scan's checkpoint (ValueError).

    No other check is needed.  `merge_reports` joins [start, b) and
    [b, stop) under one claim set and cap into the report of [start, stop)
    whatever b is (`TestMergeReports` pins this), and a report has no
    chunk-size field, so a prefix written under another stop, chunk size
    or worker count resumes to the uninterrupted report."""
    inner = range(config.start + config.chunk_size, config.stop, config.chunk_size)
    if (partial.start, partial.violation_cap, frozenset(partial.per_claim)) != (
        config.start, config.violation_cap, frozenset(config.claims)
    ) or partial.stop != config.stop and partial.stop not in inner:
        claims = ", ".join(sorted(c.value for c in partial.per_claim))
        raise ValueError(
            f"checkpoint report over [{partial.start}, {partial.stop}) with "
            f"violation cap {partial.violation_cap} and claims "
            f"{claims or 'none'} is no prefix of this scan"
        )
    return partial


def _scan_chunk_task(args: tuple[int, int, frozenset[ClaimId], int]) -> ScanReport:
    return scan_chunk(*args)


def run_scan(
    config: ScanConfig,
    progress: Callable[[int, int, tuple[int, int]], None] | None = None,
    halt_after_chunks: int | None = None,
) -> ScanReport:
    """Execute a full scan: fan tasks out to workers, merge in range order,
    checkpointing the merged report at most once per CHECKPOINT_INTERVAL_S
    of wall time, on halt, and after the last task.  A scan resumes at its
    checkpoint's partial report's stop.  Tasks go out as a lazy stream, so
    memory does not grow with their count.

    A task is k = max(1, primes.window_width(stop) // chunk_size)
    consecutive grid chunks, scanned by one `scan_chunk` walk, so it is at
    most one rule window at stop wide; the walk sizes its windows by the
    task's own top, so a lower task may walk several narrower ones (the
    first task of [2, 10**10) in chunks of 2**16 walks 13 of 2**20).  With
    more than one worker, k is also at most chunks // (4 * workers), chunks
    being those this call scans: at least 4 tasks per worker where there
    are that many chunks.  Tasks start at the resume point, from the
    checkpoint's report or the zero-width report of start; merges,
    checkpoints and `progress` go task by task.

    `progress` is called as progress(done, total, task) after each merge,
    done and total counting grid chunks.  `halt_after_chunks` ends the
    stream that many chunks past the resume point, at least 1, cutting the
    last task there, so every partial report ends on the chunk grid (the
    checkpoint, if configured, then allows an exact resume); used to
    exercise interrupt/resume.
    """
    if halt_after_chunks is not None and halt_after_chunks < 1:
        raise ValueError(f"halt_after_chunks must be >= 1, got {halt_after_chunks}")
    config.validate()

    partial = ChunkTally(config.claims, config.violation_cap).report(
        config.start, config.start, 0
    )
    if config.checkpoint_path and os.path.exists(config.checkpoint_path):
        partial = resumed_report(load_checkpoint(config.checkpoint_path), config)
    resume = partial.stop

    size = config.chunk_size
    end = config.stop
    if halt_after_chunks is not None:
        end = min(end, resume + halt_after_chunks * size)
    chunks = len(range(resume, end, size))
    workers = min(config.workers, chunks)
    k = primes.window_width(config.stop) // size
    if workers > 1:
        k = min(k, chunks // (4 * workers))
    step = max(1, k) * size
    tasks = ((lo, min(lo + step, end), config.claims, config.violation_cap)
             for lo in range(resume, end, step))
    total = len(range(config.start, config.stop, size))
    last_save = time.monotonic()
    pool = nullcontext()
    if workers > 1:
        from multiprocessing import get_context  # only pools load it
        pool = get_context().Pool(workers)
    # Leaving the block terminates the pool, also on an error.
    with pool:
        fan_out = pool.imap if workers > 1 else map
        for report in fan_out(_scan_chunk_task, tasks):
            partial = merge_reports(partial, report)
            if config.checkpoint_path and (
                report.stop == end
                or time.monotonic() - last_save >= CHECKPOINT_INTERVAL_S
            ):
                save_checkpoint(partial, config.checkpoint_path)
                last_save = time.monotonic()
            if progress is not None:
                done = len(range(config.start, report.stop, size))
                progress(done, total, (report.start, report.stop))
    return partial
