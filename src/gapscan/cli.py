"""Command-line frontend.

Reports go to stdout (or --out); progress and diagnostics go to stderr.
Exit codes: 0 all checks passed (vacuous included), 1 a claim FAILed on
genuine data (a mathematical finding), 2 usage or configuration error (any
ValueError or OverflowError), 3 disk error (any OSError) or internal error
(any other exception: identity failure, corrupt checkpoint, a bug).  A scan
that runs out of memory can hang instead of exiting 3 (ROADMAP item 3).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import fields
from typing import Iterable, Sequence

from .claims import PAIR_CLAIMS, ClaimId, Status, check_cube_interval, check_pair
from .codec import to_json
from .midpoint import MidpointRecord, PrimePair
from .primes import SCAN_LIMIT, next_prime_above
from .scan import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_VIOLATION_CAP,
    ScanConfig,
    default_workers,
    run_scan,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

RECORD_COLUMNS = tuple(
    f.name for cls in (PrimePair, MidpointRecord) for f in fields(cls)
    if f.name != "pair"
)

# What a command returns for `run` to write: its exit code, its JSON
# document, and its CSV table as rows.
Result = tuple[int, object, Iterable[Iterable]]


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
                      help="exclusive upper bound (<= 10**16)")
    scan.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    scan.add_argument("--jobs", type=int, default=0,
                      help="worker processes (default: all cores)")
    scan.add_argument("--claims", default="all",
                      help="comma-separated claim names, or 'all'")
    scan.add_argument("--format", choices=("json", "csv"), default="json")
    scan.add_argument("--out", default=None, help="write the report here "
                      "instead of stdout")
    scan.add_argument("--checkpoint", default=None,
                      help="checkpoint file for interrupt/resume")
    scan.add_argument("--violation-cap", type=int, default=DEFAULT_VIOLATION_CAP)
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


def _progress(done: int, total: int, chunk: tuple[int, int]) -> None:
    print(f"[{done}/{total}] chunk [{chunk[0]}, {chunk[1]}) merged",
          file=sys.stderr)


def _cmd_scan(args: argparse.Namespace) -> Result:
    if args.jobs < 0:
        raise ValueError("--jobs must be >= 0")
    config = ScanConfig(
        start=args.start,
        stop=args.stop,
        chunk_size=args.chunk_size,
        workers=args.jobs if args.jobs > 0 else default_workers(),
        claims=_parse_claims(args.claims),
        violation_cap=args.violation_cap,
        checkpoint_path=args.checkpoint,
    )
    report = run_scan(config, progress=_progress)
    document = report.to_json_dict()
    table = [
        ("claim", "checked", "passed", "vacuous", "failed"),
        *([claim, *counter.values()]
          for claim, counter in document["per_claim"].items()),
    ]
    return EXIT_FINDING if report.total_failed() > 0 else EXIT_OK, document, table


def _cmd_pair(args: argparse.Namespace) -> Result:
    p = next_prime_above(args.lower_bound - 1)
    q = next_prime_above(p)
    record, outcomes = check_pair(p, q)
    record_json = None if record is None else to_json(record)
    # (2, 3) has no integral midpoint, so no record and no m or b.
    pair_json = (
        record_json.pop("pair") if record_json
        else {"p": to_json(p), "q": to_json(q), "g": to_json(q - p)}
    )
    outcomes_json = to_json(outcomes)
    document = {"pair": pair_json, "record": record_json, "claims": outcomes_json}
    row = [*pair_json.values(), *(record_json or {}).values()]
    table = [
        RECORD_COLUMNS,
        row + [""] * (len(RECORD_COLUMNS) - len(row)),
        (),
        ("claim", "pair_p", "status", "lhs", "rhs"),
        *(o.values() for o in outcomes_json),
    ]
    failed = {o.claim for o in outcomes if o.status is Status.FAIL}
    if ClaimId.IDENTITIES in failed:
        return EXIT_INTERNAL, document, table
    return EXIT_FINDING if failed else EXIT_OK, document, table


def _cmd_cubes(args: argparse.Namespace) -> Result:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    if (args.max_n + 1) ** 3 > SCAN_LIMIT:
        raise ValueError(f"--max-n {args.max_n}: (max_n + 1)**3 exceeds 10**16")
    results = [check_cube_interval(n) for n in range(1, args.max_n + 1)]
    results_json = to_json(results)
    document = {"max_n": to_json(args.max_n), "results": results_json}
    table = [("n", "count", "witness", "status"), *(r.values() for r in results_json)]
    failing = [r for r in results if r.status is Status.FAIL]
    return EXIT_FINDING if failing else EXIT_OK, document, table


def _cmd_records(args: argparse.Namespace) -> Result:
    config = ScanConfig(start=2, stop=args.stop, claims=frozenset())
    report = run_scan(config, progress=_progress)
    data = report.to_json_dict()
    document = {k: data[k] for k in ("range", "gap_records", "max_ratio")}
    table = [("record_type", "p", "g", "g_cubed", "p_squared")]
    table += [("gap", r.p, r.g, "", "") for r in report.gap_records]
    if report.max_ratio is not None:
        m = report.max_ratio
        table.append(("max_ratio", m.p, m.g, m.g_cubed, m.p_squared))
    return EXIT_OK, document, table


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, write the result, and map errors to exit
    codes by their base class alone.  This is the one place a command's
    output is written: to --out where the command has it and the user gave
    it, else to stdout."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code, document, table = args.func(args)
        if args.format == "json":
            text = json.dumps(document, indent=2) + "\n"
        else:
            buf = io.StringIO()
            csv.writer(buf).writerows(table)
            text = buf.getvalue()
        out_path = getattr(args, "out", None)
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except (OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
