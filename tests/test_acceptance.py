"""Acceptance suite: every exit criterion, each printed as one pass/fail line.

Expected values are frozen from independent oracles (the one-byte-per-number
sieve and trial division in conftest, Fraction arithmetic for the extremal
ratio), never from the code paths under test.  Run with `-s` to see the
per-criterion lines.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from gapscan.claims import ClaimId, Status, check_cube_interval
from gapscan.primes import is_prime, sieve_range
from gapscan.scan import ScanConfig, ScanReport, run_scan, scan_chunk

from conftest import (
    oracle_count_primes_below,
    oracle_gap_records,
    oracle_primes_below,
    sieved_is_prime,
)

BIG_STOP = 10**8

# pi(10**8), recomputed by the independent sieve in the fixture below; every
# prime in [3, 10**8) heads exactly one consecutive pair, so the midpoint
# checks see pi(10**8) - 1 pairs.
PI_1E8 = 5_761_455

GAP_RECORD_PREFIX = [(2, 1), (3, 2), (7, 4), (23, 6), (89, 8), (113, 14), (523, 18)]


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def big_scan() -> tuple[ScanReport, float]:
    t0 = time.perf_counter()
    report = run_scan(ScanConfig(start=2, stop=BIG_STOP, workers=4))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def million_scan() -> ScanReport:
    return run_scan(ScanConfig(start=2, stop=10**6, workers=1))


@pytest.fixture(scope="module")
def million_primes() -> list[int]:
    return oracle_primes_below(10**6 + 200)


def test_criterion_1_identities(big_scan):
    report, elapsed = big_scan
    counter = report.per_claim[ClaimId.IDENTITIES]
    pi = oracle_count_primes_below(BIG_STOP)
    expected_checked = pi - 1
    assert pi == PI_1E8
    # Scanning from 3 changes nothing for the midpoint claims: the pair at
    # p = 2 only sees the cubed gap bound.  Cross-checked on a small prefix.
    from_three = scan_chunk(3, 10**4)
    from_two = scan_chunk(2, 10**4)
    assert from_three.per_claim[ClaimId.IDENTITIES] == from_two.per_claim[ClaimId.IDENTITIES]
    ok = (
        counter.failed == 0
        and counter.checked == expected_checked
        and elapsed < 300.0
    )
    report_line(
        "criterion-1 identities over [3, 1e8)",
        ok,
        f"failed={counter.failed} checked={counter.checked} "
        f"(expected {expected_checked}) elapsed={elapsed:.1f}s",
    )


def test_criterion_2_cubed_gap_bound(big_scan, million_scan, million_primes):
    report, _ = big_scan
    counter = report.per_claim[ClaimId.THEOREM_CUBE_BOUND]
    best = Fraction(0)
    best_at = None
    for p, q in zip(million_primes, million_primes[1:]):
        if p >= 10**6:
            break
        ratio = Fraction((q - p) ** 3, p * p)
        if ratio > best:
            best, best_at = ratio, (p, q - p)
    ratio_rec = million_scan.max_ratio
    ok = (
        counter.failed == 0
        and counter.checked == report.pairs_checked
        and best == Fraction(64, 49)
        and best_at == (7, 4)
        and ratio_rec is not None
        and (ratio_rec.g_cubed, ratio_rec.p_squared) == (64, 49)
        and (ratio_rec.p, ratio_rec.g) == (7, 4)
    )
    report_line(
        "criterion-2 cubed gap bound",
        ok,
        f"failed={counter.failed} over [2, 1e8); extremal ratio "
        f"{ratio_rec.g_cubed}/{ratio_rec.p_squared} at p={ratio_rec.p} "
        f"(oracle {best} at {best_at})",
    )


def test_criterion_3_order_bound_ratio_sqrt(big_scan):
    report, _ = big_scan
    failures = {
        claim.value: report.per_claim[claim].failed
        for claim in (
            ClaimId.LEMMA_ORDER,
            ClaimId.COR_BOUND,
            ClaimId.LEMMA_RATIO,
            ClaimId.LEMMA_SQRT,
        )
    }
    ok = all(v == 0 for v in failures.values())
    report_line(
        "criterion-3 order/bound/ratio/sqrt claims",
        ok,
        f"failures over [2, 1e8): {failures}",
    )


def test_criterion_4_product_vacuity(big_scan):
    report, _ = big_scan
    counter = report.per_claim[ClaimId.COR_PRODUCT]
    ok = (
        counter.failed == 0
        and counter.vacuous == counter.checked
        and counter.passed == 0
        and counter.checked == PI_1E8 - 1
        and set(report.c_histogram) == {0}
    )
    report_line(
        "criterion-4 product-form vacuity",
        ok,
        f"checked={counter.checked} vacuous={counter.vacuous} "
        f"failed={counter.failed} c_histogram keys={sorted(report.c_histogram)}",
    )


def test_criterion_5_cube_intervals():
    t0 = time.perf_counter()
    results = [check_cube_interval(n) for n in range(1, 1001)]
    elapsed = time.perf_counter() - t0
    failing = [r.n for r in results if r.status is not Status.PASS]
    ok = (
        not failing
        and results[0].count == 4
        and results[0].witness == 2
        and results[1].count == 5
        and results[1].witness == 11
        and elapsed < 60.0
    )
    report_line(
        "criterion-5 cube intervals n=1..1000",
        ok,
        f"failing={failing} n1_count={results[0].count} "
        f"n2_count={results[1].count} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_oracle_agreement():
    rng = random.Random(0xACCE97)
    window = 10**4
    disagreements = []
    checked = 0
    for _ in range(100):
        base = rng.randrange(2, 10**12 - window)
        flags = sieve_range(base, base + window)
        for _ in range(100):
            n = base + rng.randrange(window)
            checked += 1
            if sieved_is_prime(base, flags, n) != is_prime(n):
                disagreements.append(n)
    ok = checked == 10**4 and not disagreements
    report_line(
        "criterion-6 sieve vs deterministic-test agreement",
        ok,
        f"checked={checked} random integers below 1e12, "
        f"disagreements={disagreements[:5]}",
    )


def test_criterion_7_determinism(tmp_path):
    reports = {}
    for chunk_size in (10**5, 10**6):
        for workers in (1, 4):
            config = ScanConfig(
                start=2, stop=10**7, chunk_size=chunk_size, workers=workers
            )
            reports[(chunk_size, workers)] = run_scan(config)
    baseline = reports[(10**5, 1)]
    all_equal = all(r == baseline for r in reports.values())

    ckpt = str(tmp_path / "determinism.ckpt")
    config = ScanConfig(
        start=2, stop=10**7, chunk_size=10**6, workers=1, checkpoint_path=ckpt
    )
    partial = run_scan(config, halt_after_chunks=3)
    assert partial.stop < 10**7
    resumed = run_scan(config)
    resume_equal = resumed == reports[(10**6, 1)]

    def canonical(report: ScanReport) -> str:
        data = report.to_json_dict()
        data.pop("elapsed_ns")
        return json.dumps(data, sort_keys=True)

    bytes_equal = canonical(resumed) == canonical(baseline)
    ok = all_equal and resume_equal and bytes_equal
    report_line(
        "criterion-7 determinism over [2, 1e7)",
        ok,
        f"chunk/worker grid equal={all_equal} resume equal={resume_equal} "
        f"serialized forms equal={bytes_equal}",
    )


def test_criterion_8_gap_records(million_scan, million_primes):
    expected = oracle_gap_records(million_primes, 10**6)
    got = [(r.p, r.g) for r in million_scan.gap_records]
    ok = got == expected and got[:7] == GAP_RECORD_PREFIX
    report_line(
        "criterion-8 gap records over [2, 1e6)",
        ok,
        f"first records {got[:7]} (oracle prefix {expected[:7]}, "
        f"{len(got)} records total)",
    )
