"""Exact integer scanner for consecutive-prime midpoint quantities, gap
records, and cube-interval verification.

The package root holds the names the README's quick tour uses and the few
the benchmark reads; every other name is imported from its submodule."""

from .claims import check_cube_interval
from .midpoint import PrimePair, compute_record, make_pair
from .primes import is_prime, iter_consecutive_pairs, sieve_range
from .scan import ScanConfig, plan_chunks, run_scan, scan_chunk

__version__ = "0.1.0"

__all__ = [
    "PrimePair",
    "ScanConfig",
    "check_cube_interval",
    "compute_record",
    "is_prime",
    "iter_consecutive_pairs",
    "make_pair",
    "plan_chunks",
    "run_scan",
    "scan_chunk",
    "sieve_range",
]
