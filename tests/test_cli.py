from __future__ import annotations

import csv
import io
import json

import pytest

from gapscan.cli import RECORD_COLUMNS, run
from gapscan.scan import ScanConfig, ScanReport, run_scan


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPairCommand:
    def test_pair_seven(self, capsys):
        code, out, _ = invoke(capsys, "pair", "7")
        assert code == 0
        document = json.loads(out)
        assert document["pair"] == {"p": "7", "q": "11", "g": "4", "m": "9", "b": "2"}
        assert document["record"]["m2"] == "81"
        assert document["record"]["x_lo"] == "4"
        assert document["record"]["x_hi"] == "4"
        statuses = {c["claim"]: c["status"] for c in document["claims"]}
        assert statuses["COR_PRODUCT"] == "VACUOUS_PASS"
        assert all(s in ("PASS", "VACUOUS_PASS") for s in statuses.values())
        assert len(document["claims"]) == 7

    def test_lower_bound_need_not_be_prime(self, capsys):
        code, out, _ = invoke(capsys, "pair", "8")
        assert code == 0
        assert json.loads(out)["pair"]["p"] == "11"

    def test_pair_at_two_has_no_record(self, capsys):
        # Every lower bound up to 2 names the pair (2, 3).
        for lower in ("-5", "0", "1", "2"):
            code, out, _ = invoke(capsys, "pair", lower)
            assert code == 0
            document = json.loads(out)
            assert document["pair"] == {"p": "2", "q": "3", "g": "1"}
            assert document["record"] is None
            assert [c["claim"] for c in document["claims"]] == ["THEOREM_CUBE_BOUND"]

    def test_csv_column_order(self, capsys):
        code, out, _ = invoke(capsys, "pair", "7", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(RECORD_COLUMNS)
        assert rows[1] == [
            "7", "11", "4", "9", "2", "81", "4", "4", "0", "0", "11", "7", "0",
        ]
        assert rows[3] == ["claim", "pair_p", "status", "lhs", "rhs"]

    def test_out_of_universe_bound(self, capsys):
        code, _, err = invoke(capsys, "pair", str(2**63))
        assert code == 2
        assert "error" in err


class TestCubesCommand:
    def test_first_two_intervals(self, capsys):
        code, out, _ = invoke(capsys, "cubes", "--max-n", "2")
        assert code == 0
        document = json.loads(out)
        assert document["results"] == [
            {"n": "1", "count": "4", "witness": "2", "status": "PASS"},
            {"n": "2", "count": "5", "witness": "11", "status": "PASS"},
        ]

    def test_csv_rows(self, capsys):
        code, out, _ = invoke(capsys, "cubes", "--max-n", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "count", "witness", "status"]
        assert rows[1] == ["1", "4", "2", "PASS"]
        assert len(rows) == 4

    def test_rejects_zero(self, capsys):
        code, _, err = invoke(capsys, "cubes", "--max-n", "0")
        assert code == 2

    def test_rejects_universe_escape_before_any_interval(self, capsys):
        # (2**21)**3 = 2**63: rejected at once, not after sieving every
        # smaller n.
        code, out, err = invoke(capsys, "cubes", "--max-n", str(2**21 - 1))
        assert code == 2
        assert out == ""
        assert "10**16" in err


class TestRecordsCommand:
    def test_gap_records_json(self, capsys):
        code, out, _ = invoke(capsys, "records", "--to", "130")
        assert code == 0
        document = json.loads(out)
        assert document["gap_records"] == [
            {"p": "2", "g": "1"},
            {"p": "3", "g": "2"},
            {"p": "7", "g": "4"},
            {"p": "23", "g": "6"},
            {"p": "89", "g": "8"},
            {"p": "113", "g": "14"},
        ]
        assert document["max_ratio"]["g_cubed"] == "64"
        assert document["max_ratio"]["p_squared"] == "49"

    def test_records_csv(self, capsys):
        code, out, _ = invoke(capsys, "records", "--to", "130", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["record_type", "p", "g", "g_cubed", "p_squared"]
        assert rows[1] == ["gap", "2", "1", "", ""]
        assert rows[-1] == ["max_ratio", "7", "4", "64", "49"]


class TestScanCommand:
    def test_json_report_round_trips(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--from", "2", "--to", "10000", "--jobs", "1"
        )
        assert code == 0
        parsed = ScanReport.from_json_dict(json.loads(out))
        direct = run_scan(ScanConfig(start=2, stop=10000, workers=1))
        assert parsed == direct

    def test_csv_counters(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["claim", "checked", "passed", "vacuous", "failed"]
        by_claim = {row[0]: row[1:] for row in rows[1:]}
        # 168 primes below 1000; the pair at p=2 only sees the cubed bound
        assert by_claim["THEOREM_CUBE_BOUND"] == ["168", "168", "0", "0"]
        assert by_claim["IDENTITIES"] == ["167", "167", "0", "0"]

    def test_claims_subset(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1",
            "--claims", "lemma_sqrt,theorem_cube_bound",
        )
        assert code == 0
        document = json.loads(out)
        assert set(document["per_claim"]) == {"LEMMA_SQRT", "THEOREM_CUBE_BOUND"}

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["pairs_checked"] == "168"

    def test_checkpoint_resume_via_cli(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        args = (
            "scan", "--from", "2", "--to", "100000", "--jobs", "1",
            "--chunk-size", "16384", "--checkpoint", str(ckpt),
        )
        code, first_out, _ = invoke(capsys, *args)
        assert code == 0
        assert ckpt.exists()
        code, second_out, _ = invoke(capsys, *args)
        assert code == 0
        first = json.loads(first_out)
        second = json.loads(second_out)
        first.pop("elapsed_ns")
        second.pop("elapsed_ns")
        assert first == second

    def test_invalid_range_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "scan", "--from", "2", "--to", "0")
        assert code == 2
        assert "error" in err

    def test_negative_jobs_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "scan", "--from", "2", "--to", "100", "--jobs", "-2"
        )
        assert code == 2
        assert out == ""
        assert "error: --jobs must be >= 0" in err

    def test_unknown_claim_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "scan", "--from", "2", "--to", "100", "--claims", "BOGUS"
        )
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "scan", "--frum", "2", "--to", "100")
        assert code == 2

    def test_unknown_format_is_usage_error(self, capsys):
        code, _, _ = invoke(
            capsys, "scan", "--from", "2", "--to", "100", "--format", "xml"
        )
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2


class TestExitCodeFidelity:
    def test_injected_product_failure_exits_one(self, capsys, crafted_pairs):
        crafted_pairs((3, 9))
        code, out, _ = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1"
        )
        assert code == 1
        document = json.loads(out)
        assert document["per_claim"]["COR_PRODUCT"]["failed"] == "1"

    def test_injected_identity_failure_exits_three(self, capsys, crafted_pairs):
        crafted_pairs((3, 4))
        code, _, err = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1"
        )
        assert code == 3
        assert "internal error" in err
        assert "lhs=-3 rhs=0" in err

    def test_corrupt_checkpoint_exits_three(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        ckpt.write_text("{nope")
        code, _, err = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1",
            "--checkpoint", str(ckpt),
        )
        assert code == 3
        assert "internal error" in err

    @pytest.mark.parametrize(
        "field, value",
        [("completed", []), ("partial", None), ("completed", [["2", "1026"]])],
    )
    def test_partial_disagreeing_with_completed_exits_three(
        self, capsys, tmp_path, field, value
    ):
        # Two chunks are done: [2, 1026) and [1026, 2050).
        ckpt = tmp_path / "scan.ckpt"
        args = ("scan", "--from", "2", "--to", "5000", "--chunk-size", "1024",
                "--jobs", "1", "--checkpoint", str(ckpt))
        run_scan(
            ScanConfig(start=2, stop=5000, chunk_size=1024, workers=1,
                       checkpoint_path=str(ckpt)),
            halt_after_chunks=2,
        )
        document = json.loads(ckpt.read_text())
        document[field] = value
        ckpt.write_text(json.dumps(document))
        code, out, err = invoke(capsys, *args)
        assert code == 3
        assert out == ""
        assert "internal error" in err
        assert "completed chunks cover" in err

    @pytest.mark.parametrize("flag", ["--checkpoint", "--out"])
    def test_unwritable_file_exits_three(self, capsys, tmp_path, flag):
        missing = tmp_path / "missing" / "file"
        code, _, err = invoke(
            capsys, "scan", "--from", "2", "--to", "5000", "--jobs", "1",
            flag, str(missing),
        )
        assert code == 3
        assert err.splitlines()[-1].startswith("error: ")
        assert str(missing) in err

    def test_mismatched_checkpoint_exits_two(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        args = ("scan", "--from", "2", "--to", "100000", "--jobs", "1",
                "--chunk-size", "16384", "--checkpoint", str(ckpt))
        assert invoke(capsys, *args)[0] == 0
        code, _, err = invoke(
            capsys, "scan", "--from", "2", "--to", "200000", "--jobs", "1",
            "--chunk-size", "16384", "--checkpoint", str(ckpt),
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--from", "2", "--to", "100", "--jobs", "-1"),
        ("pair", str(2**63 + 1)),
        ("cubes", "--max-n", "0"),
        ("records", "--to", "1"),
        # Past the scan limit of 10**16, rejected before any base prime is
        # sieved: near 2**63 the base primes alone take several GB.
        ("scan", "--from", str(2**63 - 100), "--to", str(2**63)),
        ("records", "--to", str(10**16 + 1)),
        ("cubes", "--max-n", "215443"),  # 215444**3 > 10**16 > 215443**3
    ],
)
def test_usage_error_exits_two_and_writes_nothing(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_subcommand_help_exits_zero(self, capsys):
        assert invoke(capsys, "scan", "--help")[0] == 0
