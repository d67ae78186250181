"""Golden outputs: the exact stdout bytes of representative CLI calls.

Each file under tests/golden/ holds one invocation's stdout with the
wall-clock `elapsed_ns` value masked.  A change to the JSON or CSV form of
any report, record, outcome or cube result shows up here as a byte diff.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapscan.claims import PAIR_CLAIMS, ClaimId, ClaimOutcome, Status
from gapscan.cli import run
from gapscan.scan import ClaimCounter, GapRecord, RatioRecord, ScanReport

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "pair-2.json": ("pair", "2"),
    "pair-2.csv": ("pair", "2", "--format", "csv"),
    "pair-113.json": ("pair", "113"),
    "pair-113.csv": ("pair", "113", "--format", "csv"),
    "cubes-3.json": ("cubes", "--max-n", "3"),
    "cubes-3.csv": ("cubes", "--max-n", "3", "--format", "csv"),
    "records-1000.json": ("records", "--to", "1000"),
    "records-1000.csv": ("records", "--to", "1000", "--format", "csv"),
    "scan-2-1000.json": ("scan", "--from", "2", "--to", "1000", "--jobs", "1"),
    "scan-2-1000.csv": (
        "scan", "--from", "2", "--to", "1000", "--jobs", "1", "--format", "csv",
    ),
    "scan-2-10000000.json": ("scan", "--from", "2", "--to", "10000000", "--jobs", "1"),
}


def mask(text: str) -> str:
    return re.sub(r'"elapsed_ns": "\d+"', '"elapsed_ns": "<masked>"', text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    assert run(list(CASES[name])) == 0
    out = capsys.readouterr().out
    assert mask(out).encode() == (GOLDEN / name).read_bytes()


def test_module_entry_point_writes_the_same_bytes():
    # `python -m gapscan.cli` runs `main`, which exits with `run`'s code.
    # Run from src/, so the interpreter imports this checkout's package.
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "gapscan.cli", *argv],
            capture_output=True, cwd=GOLDEN.parent.parent / "src", timeout=60,
        )

    pair = cli("pair", "113")
    assert pair.returncode == 0
    assert pair.stdout == (GOLDEN / "pair-113.json").read_bytes()
    cubes = cli("cubes", "--max-n", "0")
    assert cubes.returncode == 2
    assert cubes.stdout == b""
    assert cubes.stderr == b"error: --max-n must be >= 1\n"


# Crafted pairs put violations with negative sides and a c-histogram with
# several keys into the report.
CRAFTED = ((3, 9), (5, 1), (3, -59))


def test_scan_with_violations_matches_golden(capsys, crafted_pairs):
    crafted_pairs(*CRAFTED)
    assert run(["scan", "--from", "90", "--to", "96", "--jobs", "1"]) == 1
    out = capsys.readouterr().out
    assert mask(out).encode() == (GOLDEN / "scan-crafted.json").read_bytes()


# Any int, with both signs and far past 2**64, so no field can lean on a
# fixed-width or non-negative encoding.
big = st.integers(min_value=-(1 << 80), max_value=1 << 80) | st.integers(
    min_value=-(10**40), max_value=10**40
)


@st.composite
def reports(draw) -> ScanReport:
    claims = draw(st.frozensets(st.sampled_from(PAIR_CLAIMS)))
    return ScanReport(
        start=draw(big),
        stop=draw(big),
        pairs_checked=draw(big),
        per_claim={
            c: ClaimCounter(draw(big), draw(big), draw(big), draw(big))
            for c in claims
        },
        violations=draw(st.lists(st.builds(
            ClaimOutcome, st.sampled_from(ClaimId), big, st.sampled_from(Status),
            big, big,
        ), max_size=5)),
        max_ratio=draw(st.none() | st.builds(RatioRecord, big, big, big, big)),
        gap_records=draw(st.lists(st.builds(GapRecord, big, big), max_size=5)),
        c_histogram=draw(st.dictionaries(big, big, max_size=5)),
        violation_cap=draw(big),
        elapsed_ns=draw(big),
    )


@given(report=reports())
@settings(max_examples=200, deadline=None)
def test_report_json_round_trip(report):
    data = report.to_json_dict()
    back = ScanReport.from_json_dict(data)
    assert back == report
    assert back.elapsed_ns == report.elapsed_ns
    assert back.to_json_dict() == data
