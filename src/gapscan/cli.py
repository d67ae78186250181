"""Command-line frontend.

Reports go to stdout (or --out); progress and diagnostics go to stderr.
Exit codes: 0 all checks passed (vacuous included), 1 a claim FAILed on
genuine data (a mathematical finding), 2 usage or configuration error,
3 internal or disk error (identity failure, corrupt checkpoint, a report or
checkpoint file that cannot be read or written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Iterable, Sequence

from .claims import PAIR_CLAIMS, ClaimId, Status, check_cube_interval, check_pair
from .codec import to_json
from .errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    IdentityCheckError,
)
from .midpoint import PrimePair, compute_record, make_pair
from .primes import UNIVERSE_LIMIT, is_prime, next_prime_above
from .scan import ScanConfig, ScanReport, default_workers, run_scan

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

RECORD_COLUMNS = (
    "p", "q", "g", "m", "b", "m2",
    "x_lo", "x_hi", "c_lo", "c_hi",
    "alpha_mult", "beta_mult", "delta",
)


def _parse_claims(text: str) -> frozenset[ClaimId]:
    if text.strip().lower() == "all":
        return frozenset(PAIR_CLAIMS)
    claims = set()
    for raw in text.split(","):
        name = raw.strip().upper()
        if not name:
            continue
        try:
            claims.add(ClaimId(name))
        except ValueError:
            known = ", ".join(c.value for c in PAIR_CLAIMS)
            raise ValueError(f"unknown claim {raw.strip()!r}; expected one of {known}")
    if not claims:
        raise ValueError("claim list is empty")
    return frozenset(claims)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapscan",
        description=(
            "Scan consecutive-prime pairs for exact midpoint/odd-multiple "
            "quantities, verify gap claims, track maximal-gap records, and "
            "check prime occupancy between consecutive cubes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="check every pair in a range")
    scan.add_argument("--from", dest="start", type=int, required=True,
                      help="inclusive lower bound (>= 2)")
    scan.add_argument("--to", dest="stop", type=int, required=True,
                      help="exclusive upper bound (<= 2**63)")
    scan.add_argument("--chunk-size", type=int, default=1 << 24)
    scan.add_argument("--jobs", type=int, default=0,
                      help="worker processes (default: all cores)")
    scan.add_argument("--claims", default="all",
                      help="comma-separated claim names, or 'all'")
    scan.add_argument("--format", choices=("json", "csv"), default="json")
    scan.add_argument("--out", default=None, help="write the report here "
                      "instead of stdout")
    scan.add_argument("--checkpoint", default=None,
                      help="checkpoint file for interrupt/resume")
    scan.add_argument("--violation-cap", type=int, default=100)
    scan.set_defaults(func=_cmd_scan)

    pair = sub.add_parser("pair", help="inspect one consecutive pair")
    pair.add_argument("lower_bound", type=int,
                      help="the pair with the smallest p >= this value")
    pair.add_argument("--format", choices=("json", "csv"), default="json")
    pair.set_defaults(func=_cmd_pair)

    cubes = sub.add_parser("cubes", help="primes between consecutive cubes")
    cubes.add_argument("--max-n", type=int, required=True)
    cubes.add_argument("--format", choices=("json", "csv"), default="json")
    cubes.set_defaults(func=_cmd_cubes)

    records = sub.add_parser("records", help="gap records and extremal ratio")
    records.add_argument("--to", dest="stop", type=int, required=True)
    records.add_argument("--format", choices=("json", "csv"), default="json")
    records.set_defaults(func=_cmd_records)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(*rows: Iterable) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _report_csv(report: ScanReport) -> str:
    return _csv(
        ("claim", "checked", "passed", "vacuous", "failed"),
        *([claim, *counter.values()]
          for claim, counter in to_json(report.per_claim).items()),
    )


def _progress(done: int, total: int, chunk: tuple[int, int]) -> None:
    print(f"[{done}/{total}] chunk [{chunk[0]}, {chunk[1]}) merged",
          file=sys.stderr)


def _cmd_scan(args: argparse.Namespace) -> int:
    config = ScanConfig(
        start=args.start,
        stop=args.stop,
        chunk_size=args.chunk_size,
        workers=args.jobs if args.jobs > 0 else default_workers(),
        claims=_parse_claims(args.claims),
        violation_cap=args.violation_cap,
        checkpoint_path=args.checkpoint,
    )
    config.validate()
    report = run_scan(config, progress=_progress)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    else:
        _emit(_report_csv(report), args.out)
    return EXIT_FINDING if report.total_failed() > 0 else EXIT_OK


def _cmd_pair(args: argparse.Namespace) -> int:
    lower = args.lower_bound
    if lower > UNIVERSE_LIMIT:
        raise ValueError(f"lower bound {lower} exceeds 2**63")
    p = lower if lower >= 2 and is_prime(lower) else next_prime_above(lower)
    q = next_prime_above(p)

    if p == 2:
        # No integral midpoint for (2, 3): no record, so only the cubed gap
        # bound applies.
        pair, record = PrimePair(p=p, q=q, g=q - p, m=p, b=0), None
        pair_json = {"p": to_json(p), "q": to_json(q), "g": to_json(q - p)}
        record_json = None
    else:
        pair = make_pair(p, q)
        record = compute_record(pair)
        pair_json = to_json(pair)
        record_json = to_json(record)
        del record_json["pair"]
    outcomes = check_pair(pair, record)

    if args.format == "json":
        document = {
            "pair": pair_json,
            "record": record_json,
            "claims": to_json(outcomes),
        }
        _emit(json.dumps(document, indent=2), None)
    else:
        row = [*pair_json.values(), *(record_json or {}).values()]
        _emit(_csv(
            RECORD_COLUMNS,
            row + [""] * (len(RECORD_COLUMNS) - len(row)),
            (),
            ("claim", "pair_p", "status", "lhs", "rhs"),
            *(o.values() for o in to_json(outcomes)),
        ), None)

    failed = [o for o in outcomes if o.status is Status.FAIL]
    if any(o.claim is ClaimId.IDENTITIES for o in failed):
        return EXIT_INTERNAL
    return EXIT_FINDING if failed else EXIT_OK


def _cmd_cubes(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    results = [check_cube_interval(n) for n in range(1, args.max_n + 1)]
    if args.format == "json":
        document = {"max_n": to_json(args.max_n), "results": to_json(results)}
        _emit(json.dumps(document, indent=2), None)
    else:
        _emit(_csv(
            ("n", "count", "witness", "status"),
            *(r.values() for r in to_json(results)),
        ), None)
    failing = [r for r in results if r.status is Status.FAIL]
    return EXIT_FINDING if failing else EXIT_OK


def _cmd_records(args: argparse.Namespace) -> int:
    config = ScanConfig(
        start=2,
        stop=args.stop,
        claims=frozenset(),
    )
    config.validate()
    report = run_scan(config, progress=_progress)
    if args.format == "json":
        data = report.to_json_dict()
        document = {k: data[k] for k in ("range", "gap_records", "max_ratio")}
        _emit(json.dumps(document, indent=2), None)
    else:
        rows = [("gap", r.p, r.g, "", "") for r in report.gap_records]
        if report.max_ratio is not None:
            m = report.max_ratio
            rows.append(("max_ratio", m.p, m.g, m.g_cubed, m.p_squared))
        _emit(_csv(("record_type", "p", "g", "g_cubed", "p_squared"), *rows), None)
    return EXIT_OK


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (IdentityCheckError, CheckpointCorruptError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CheckpointMismatchError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
