from __future__ import annotations

import csv
import io
import json
from dataclasses import replace

import pytest

import gapscan.cli
from gapscan.claims import ClaimId, Status
from gapscan.cli import RECORD_COLUMNS, run
from gapscan.scan import ScanConfig, ScanReport, run_scan


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_checkpoint(tmp_path, halt: int | None):
    """The checkpoint of a scan of [2, 5000) in chunks of 1024, halted after
    `halt` chunks, or finished when halt is None."""
    ckpt = tmp_path / "scan.ckpt"
    run_scan(
        ScanConfig(start=2, stop=5000, chunk_size=1024, workers=1,
                   checkpoint_path=str(ckpt)),
        halt_after_chunks=halt,
    )
    return ckpt


def resume_args(ckpt) -> tuple[str, ...]:
    """The CLI call that resumes the scan `write_checkpoint` started."""
    return ("scan", "--from", "2", "--to", "5000", "--chunk-size", "1024",
            "--jobs", "1", "--checkpoint", str(ckpt))


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

    @pytest.mark.parametrize("completed", [[], [["2", "1026"]], "junk"])
    def test_edited_completed_key_is_ignored(self, capsys, tmp_path, completed):
        ckpt = write_checkpoint(tmp_path, halt=2)
        document = json.loads(ckpt.read_text())
        document["completed"] = completed
        ckpt.write_text(json.dumps(document))
        code, out, _ = invoke(capsys, *resume_args(ckpt))
        assert code == 0
        resumed = json.loads(out)
        uninterrupted = run_scan(
            ScanConfig(start=2, stop=5000, chunk_size=1024, workers=1)
        ).to_json_dict()
        resumed.pop("elapsed_ns")
        uninterrupted.pop("elapsed_ns")
        assert resumed == uninterrupted

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

    def test_empty_names_in_claim_list_are_skipped(self, capsys):
        argv = ("scan", "--from", "2", "--to", "1000", "--jobs", "1", "--claims")
        reports = []
        for claims in ("LEMMA_SQRT,", "LEMMA_SQRT"):
            code, out, _ = invoke(capsys, *argv, claims)
            assert code == 0
            document = json.loads(out)
            document.pop("elapsed_ns")
            reports.append(document)
        assert reports[0] == reports[1]
        assert set(reports[0]["per_claim"]) == {"LEMMA_SQRT"}

    def test_empty_claim_list_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "scan", "--from", "2", "--to", "100", "--claims", ","
        )
        assert code == 2
        assert out == ""
        assert "claim list is empty" in err

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

    def test_identity_failure_in_pair_exits_three_with_its_document(
        self, capsys, monkeypatch
    ):
        # No genuine pair fails IDENTITIES, so check_pair is made to.
        real = gapscan.cli.check_pair

        def broken(p, q):
            record, outcomes = real(p, q)
            assert outcomes[0].claim is ClaimId.IDENTITIES
            outcomes[0] = replace(outcomes[0], status=Status.FAIL, lhs=1, rhs=0)
            return record, outcomes

        monkeypatch.setattr(gapscan.cli, "check_pair", broken)
        code, out, _ = invoke(capsys, "pair", "113")
        assert code == 3
        document = json.loads(out)
        assert document["pair"]["p"] == "113"
        assert document["claims"][0] == {
            "claim": "IDENTITIES", "pair_p": "113", "status": "FAIL",
            "lhs": "1", "rhs": "0",
        }

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
        "content", [b"[" * 200_000, b"\xff\xfe{}"], ids=["nested", "not-utf8"]
    )
    def test_unreadable_checkpoint_exits_three(self, capsys, tmp_path, content):
        ckpt = tmp_path / "scan.ckpt"
        ckpt.write_bytes(content)
        code, out, err = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1",
            "--checkpoint", str(ckpt),
        )
        assert code == 3
        assert out == ""
        assert "internal error: unreadable checkpoint" in err

    @pytest.mark.parametrize(
        "path, value, halt, message",
        [
            (("partial",), None, 2, "malformed checkpoint"),
            (("partial", "range", 0), "3", 2, "no prefix"),
            (("partial", "range", 1), "2000", 2, "no prefix"),
            (("partial", "violation_cap"), "5", 2, "no prefix"),
            (("partial", "violation_cap"), "5", None, "no prefix"),
        ],
        ids=["partial-None", "start-moved", "stop-off-grid", "cap-halted",
             "cap-finished"],
    )
    def test_partial_disagreeing_with_completed_exits_three(
        self, capsys, tmp_path, path, value, halt, message
    ):
        # The partial report must cover the plan's first chunks, here
        # [2, 2050) after a halt or [2, 5000) when finished, under the
        # scan's violation cap.  Without its hash, as in files written
        # before the hash was stored, an edit reaches that check.
        ckpt = write_checkpoint(tmp_path, halt)
        document = json.loads(ckpt.read_text())
        del document["partial_sha256"]
        node = document
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        ckpt.write_text(json.dumps(document))
        code, out, err = invoke(capsys, *resume_args(ckpt))
        assert code == 3
        assert out == ""
        assert "internal error" in err
        assert message in err

    @pytest.mark.parametrize(
        "key, value, halt",
        [
            # Another chunk boundary: resumed, [2050, 3074) would be skipped.
            ("range", ["2", "3074"], 2),
            ("pairs_checked", "1", None),
        ],
        ids=["stop-moved-on-grid", "count-edited"],
    )
    def test_edited_partial_report_exits_three(
        self, capsys, tmp_path, key, value, halt
    ):
        ckpt = write_checkpoint(tmp_path, halt)
        document = json.loads(ckpt.read_text())
        document["partial"][key] = value
        ckpt.write_text(json.dumps(document))
        code, out, err = invoke(capsys, *resume_args(ckpt))
        assert code == 3
        assert out == ""
        assert "internal error" in err
        assert "does not match its SHA-256" in err

    @pytest.mark.parametrize(
        "version, code, prefix",
        [
            (2, 2, "error: checkpoint version 2, expected 1"),
            ("x", 3, "internal error: malformed checkpoint {ckpt}: invalid literal"),
        ],
        ids=["other-version", "not-a-number"],
    )
    def test_checkpoint_version(self, capsys, tmp_path, version, code, prefix):
        # Another version is a checkpoint of another scan (exit 2); a
        # version that is no number leaves the file undecodable (exit 3).
        ckpt = write_checkpoint(tmp_path, 2)
        document = json.loads(ckpt.read_text())
        document["version"] = version
        ckpt.write_text(json.dumps(document))
        got, out, err = invoke(capsys, *resume_args(ckpt))
        assert got == code
        assert out == ""
        assert err.startswith(prefix.format(ckpt=ckpt))
        assert err.count("\n") == 1

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
        "exc, message",
        [(MemoryError(), "MemoryError"), (RuntimeError("boom"), "boom")],
        ids=["memory", "bug"],
    )
    def test_unexpected_error_exits_three_not_one(
        self, capsys, monkeypatch, exc, message
    ):
        # Exit 1 is a finding on genuine data; a crash must never pose as
        # one.  A message-less exception is named by its type.
        def crash(config, progress=None):
            raise exc

        monkeypatch.setattr(gapscan.cli, "run_scan", crash)
        code, out, err = invoke(
            capsys, "scan", "--from", "2", "--to", "1000", "--jobs", "1"
        )
        assert code == 3
        assert out == ""
        assert err == f"internal error: {message}\n"


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
