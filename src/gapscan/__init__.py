"""Exact integer scanner for consecutive-prime midpoint quantities, gap
records, and cube-interval verification."""

from .claims import (
    PAIR_CLAIMS,
    ClaimId,
    ClaimOutcome,
    CubeIntervalResult,
    Status,
    check_cor_bound,
    check_cor_product,
    check_cube_interval,
    check_identities,
    check_lemma_order,
    check_lemma_ratio,
    check_lemma_sqrt,
    check_theorem,
)
from .midpoint import (
    MidpointRecord,
    PrimePair,
    compute_record,
    make_pair,
)
from .primes import (
    is_prime,
    iter_consecutive_pairs,
    next_prime_above,
    sieve_range,
)
from .scan import (
    ClaimCounter,
    GapRecord,
    RatioRecord,
    ScanConfig,
    ScanReport,
    load_checkpoint,
    merge_reports,
    plan_chunks,
    run_scan,
    save_checkpoint,
    scan_chunk,
)

__version__ = "0.1.0"

__all__ = [
    "PAIR_CLAIMS",
    "ClaimCounter",
    "ClaimId",
    "ClaimOutcome",
    "CubeIntervalResult",
    "GapRecord",
    "MidpointRecord",
    "PrimePair",
    "RatioRecord",
    "ScanConfig",
    "ScanReport",
    "Status",
    "check_cor_bound",
    "check_cor_product",
    "check_cube_interval",
    "check_identities",
    "check_lemma_order",
    "check_lemma_ratio",
    "check_lemma_sqrt",
    "check_theorem",
    "compute_record",
    "is_prime",
    "iter_consecutive_pairs",
    "load_checkpoint",
    "make_pair",
    "merge_reports",
    "next_prime_above",
    "plan_chunks",
    "run_scan",
    "save_checkpoint",
    "scan_chunk",
    "sieve_range",
]
