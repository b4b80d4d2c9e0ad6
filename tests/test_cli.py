"""End-to-end CLI behavior: output shapes, exit codes, catalog writing."""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Any

import pytest

from bidouble import SearchConfig, SearchResult, read_catalog, search
from bidouble.cli import main
from bidouble.serialize import (
    certificate_from_json,
    key_to_json,
    search_to_json_text,
    tuple_to_json,
)


def run(capsys: pytest.CaptureFixture[str], *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_json(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(capsys, "invariants", "--type", "16,22,52,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["kk"] == 10368
    assert payload["chi"] == 1856
    assert payload["r"] == 18
    assert payload["type"] == {"a": 16, "b": 22, "m2": 52, "n2": 4}


def test_invariants_csv(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(capsys, "invariants", "--type", "7,3,7,3", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("a,b,m2,n2,")
    assert row.startswith("7,3,7,3,")
    assert ",512,106," in row


def test_invariants_constraint_violation_exits_one(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out, err = run(capsys, "invariants", "--type", "16,22,52,5")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ConstraintViolation"
    assert payload["violations"] == ["a == n2 (mod 2) (got a=16, n2=5)"]
    assert "error:" in err


def test_all_violations_are_reported(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(capsys, "invariants", "--type", "3,2,3,2")
    assert code == 1
    assert len(json.loads(out)["violations"]) == 6


def test_out_of_range_exits_one(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(capsys, "invariants", "--type", "10001,22,52,4")
    assert code == 1
    assert json.loads(out)["error"] == "OutOfRange"


def test_malformed_type_is_a_usage_error(capsys: pytest.CaptureFixture[str]) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["invariants", "--type", "16,22,52"])
    assert excinfo.value.code == 2


def test_wrong_type_arity_is_a_usage_error(capsys: pytest.CaptureFixture[str]) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["check-pair", "--type", "16,22,52,4"])
    assert excinfo.value.code == 2


def test_unknown_command_is_a_usage_error() -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_check_pair_worked_example(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(
        capsys, "check-pair", "--type", "16,22,52,4", "--type", "28,10,28,10"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["homeomorphic"] is True
    assert payload["obstruction"] == "not_diffeomorphic"
    assert payload["indices"] == [18, 36]


def test_check_pair_distinct_keys(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(capsys, "check-pair", "--type", "7,3,7,3", "--type", "9,3,9,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["homeomorphic"] is False
    assert payload["obstruction"] is None


def test_check_tuple_verdict(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(
        capsys, "check-tuple", "--type", "16,22,52,4", "--type", "16,22,52,4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_catanese"] is False
    assert any("equal divisibility index" in f for f in payload["failures"])


def test_discriminant_profiles(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(
        capsys, "discriminant", "--type", "16,22,52,4", "--m", "5", "--m", "6"
    )
    assert code == 0
    payload = json.loads(out)
    assert [p["mult"] for p in payload["profiles"]] == [5, 6]
    assert payload["profiles"][0]["deg_b"] == "829440"
    assert payload["profiles"][0]["nodes"] == "343979116800"


def test_discriminant_requires_a_multiple(capsys: pytest.CaptureFixture[str]) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["discriminant", "--type", "16,22,52,4"])
    assert excinfo.value.code == 2


def test_discriminant_small_multiple_is_a_domain_error(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out, _ = run(capsys, "discriminant", "--type", "16,22,52,4", "--m", "4")
    assert code == 1
    assert json.loads(out)["error"] == "MultTooSmall"


def test_search_writes_catalog(
    capsys: pytest.CaptureFixture[str], tmp_path: Path
) -> None:
    out_path = tmp_path / "catalog.jsonl"
    code, out, err = run(
        capsys,
        "search", "--bound", "60", "--k", "2",
        "--out", str(out_path), "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tuple_count"] >= 1
    assert payload["tuple_count"] == len(payload["tuples"])
    records = read_catalog(out_path)
    assert len(records) == payload["tuple_count"]
    assert all(r.kind == "tuple" for r in records)
    assert all(r.created_at == "" for r in records)
    wanted = {
        "key": {"kk": 10368, "chi": 1856},
        "members": [
            {"a": 16, "b": 22, "m2": 52, "n2": 4},
            {"a": 28, "b": 10, "m2": 28, "n2": 10},
        ],
        "indices": [18, 36],
    }
    assert sum(1 for r in records if r.payload == wanted) == 1
    # Stdout and the catalog come from two renderers; they must agree.
    assert [r.payload for r in records] == payload["tuples"]
    assert "appended" in err


def test_search_csv_lists_members(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(capsys, "search", "--bound", "30", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kk,chi,members,indices"
    assert len(lines) == 106


# SHA-256 of `bidouble search --bound 60` stdout, frozen from the
# enumerate-bucket-extract implementation before the pair-indexed kernel.
SEARCH_60_DIGESTS = {
    "json": "9044865f9ce021f9ca37de9ff7af8510105d4dbfd6c934b0901a3555d3b9787a",
    "csv": "9e5587b4d33761d916b2e9fa373bd422c996bdb7bdcd90db0d93982179dbb032",
}


@pytest.mark.parametrize("fmt", sorted(SEARCH_60_DIGESTS))
def test_search_stdout_matches_the_golden_digest(
    capsys: pytest.CaptureFixture[str], fmt: str
) -> None:
    code, out, _ = run(capsys, "search", "--bound", "60", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_60_DIGESTS[fmt]


class WriteRecorder(io.TextIOBase):
    """A stdout that keeps each write separately."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_search_json_is_written_in_bounded_chunks(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(["search", "--bound", "60"]) == 0
    monkeypatch.undo()
    writes = [w.encode() for w in recorder.writes]
    head = recorder.writes[0]
    for count in ("type_count", "bucket_count", "tuple_count"):
        assert f'"{count}": ' in head
    # The whole output is 2.38 MB; no write may hold a large share of it.
    assert len(writes) > 1
    assert max(map(len, writes)) <= 1_000_000
    digest = hashlib.sha256(b"".join(writes)).hexdigest()
    assert digest == SEARCH_60_DIGESTS["json"]


def search_view(config: SearchConfig, result: SearchResult) -> dict[str, Any]:
    """The search JSON view as a dict, built as the CLI built it for json.dumps."""
    return {
        "config": {
            "bound": config.bound,
            "k": config.k,
            "max_results": config.max_results,
            "shard_count": config.shard_count,
        },
        "type_count": result.type_count,
        "bucket_count": result.bucket_count,
        "tuple_count": len(result.tuples),
        "truncated_buckets": [key_to_json(k) for k in result.truncated_buckets],
        "clipped": result.clipped,
        "tuples": [tuple_to_json(t) for t in result.tuples],
    }


def first_difference(got: str, want: str) -> str:
    for number, (line, wanted) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if line != wanted:
            return f"line {number}: {line!r} != {wanted!r}"
    return f"{len(got)} characters != {len(want)}"


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(bound=3),
        *(SearchConfig(bound=b, k=k) for b in (20, 40, 60) for k in (2, 3)),
        SearchConfig(bound=40, max_results=0),
        SearchConfig(bound=40, max_results=7),
        SearchConfig(bound=40, tuples_per_bucket=1),
        # One full chunk of tuples, and one tuple past it.
        SearchConfig(bound=60, max_results=1024),
        SearchConfig(bound=60, max_results=1025),
    ],
    ids=repr,
)
def test_search_text_equals_json_dumps_of_the_view(config: SearchConfig) -> None:
    result = search(config)
    text = search_to_json_text(config, result)
    expected = json.dumps(search_view(config, result), indent=2)
    # A bare comparison would make pytest diff megabytes of text for minutes.
    same = text == expected
    assert same, first_difference(text, expected)


def test_search_bound_above_cap_is_a_domain_error(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out, _ = run(capsys, "search", "--bound", "10001")
    assert code == 1
    assert json.loads(out)["error"] == "BoundTooLarge"


def test_search_degenerate_flags_are_usage_errors() -> None:
    for argv in (
        ["search", "--bound", "2"],
        ["search", "--bound", "30", "--k", "1"],
        ["search", "--bound", "30", "--shards", "0"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_certify_round_trips_through_catalog(
    capsys: pytest.CaptureFixture[str], tmp_path: Path
) -> None:
    out_path = tmp_path / "catalog.jsonl"
    code, out, _ = run(
        capsys,
        "certify", "--type", "16,22,52,4", "--type", "28,10,28,10",
        "--m", "5", "--out", str(out_path), "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == [18, 36]
    assert [s["name"] for s in payload["argument"]][-1] == "contradiction"
    (record,) = read_catalog(out_path)
    assert record.kind == "certificate"
    cert = certificate_from_json(record.payload)
    assert cert.profiles[0].deg_b == 829440


def test_certify_rejects_non_catanese_tuple(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out, _ = run(
        capsys, "certify", "--type", "7,3,7,3", "--type", "9,3,9,3", "--m", "5"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotCatanese"
    assert payload["failures"]


def test_certify_timestamps_by_default(
    capsys: pytest.CaptureFixture[str], tmp_path: Path
) -> None:
    out_path = tmp_path / "catalog.jsonl"
    code, _, _ = run(
        capsys,
        "certify", "--type", "16,22,52,4", "--type", "28,10,28,10",
        "--out", str(out_path),
    )
    assert code == 0
    (record,) = read_catalog(out_path)
    assert record.created_at != ""


def test_verify_paper_example_pattern_passes(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out, _ = run(capsys, "verify-paper-example")
    assert code == 0
    payload = json.loads(out)
    assert payload["pattern_ok"] is True
    by_field = {e["field"]: e for e in payload["entries"]}
    assert by_field["chi"]["match"] is False
    assert by_field["chi"]["computed"] == "1856"
    assert by_field["kk"]["match"] is True


def test_verify_paper_example_csv(capsys: pytest.CaptureFixture[str]) -> None:
    code, out, _ = run(capsys, "verify-paper-example", "--m", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,paper_printed,computed,match,note"
    assert len(lines) == 8


def test_stdout_is_deterministic(capsys: pytest.CaptureFixture[str]) -> None:
    first = run(capsys, "search", "--bound", "20", "--k", "2")
    second = run(capsys, "search", "--bound", "20", "--k", "2")
    assert first == second
    third = run(capsys, "verify-paper-example", "--m", "6")
    fourth = run(capsys, "verify-paper-example", "--m", "6")
    assert third == fourth


def test_io_failure_exits_one(capsys: pytest.CaptureFixture[str], tmp_path: Path) -> None:
    missing_dir = tmp_path / "absent" / "catalog.jsonl"
    code, out, _ = run(
        capsys, "invariants", "--type", "16,22,52,4", "--out", str(missing_dir)
    )
    assert code == 1
    assert json.loads(out)["error"] == "IoError"
