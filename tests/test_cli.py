"""End-to-end CLI behavior: output shapes, exit codes, catalog writing."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Any

import pytest

import bidouble
from bidouble import (
    CoverType,
    SearchConfig,
    SearchResult,
    SearchStats,
    discriminant_profile,
    read_catalog,
    scan,
    search,
    surface_invariants,
)
from bidouble.catalog import CatalogRecord, record_to_line
from bidouble.cli import build_parser, main
from bidouble.search import DEFAULT_TUPLES_PER_BUCKET
from bidouble.serialize import (
    certificate_from_json,
    key_to_json,
    profile_from_json,
    search_to_catalog_chunks,
    search_to_csv_chunks,
    search_to_json_chunks,
    tuple_row_to_cells,
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


@pytest.mark.parametrize(
    "text",
    [
        "16,22,52", "16,22,52,4,5", "a,b,c,d", "",
        # Spellings int() reads but str() never writes: spaces, _, a non-ASCII
        # digit, a + sign, a leading zero.
        "16, 2_2,52,\u0664", "16,+22,52,4", "16,22,52,04",
    ],
)
def test_malformed_type_is_a_usage_error(
    capsys: pytest.CaptureFixture[str], text: str
) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["invariants", "--type", text])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: bidouble invariants ")
    assert "expected four comma-separated integers" in err


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


HUGE_MULT_ARGV = [
    ["discriminant", "--type", "16,22,52,4"],
    ["certify", "--type", "16,22,52,4", "--type", "28,10,28,10"],
    ["verify-paper-example"],
]


@pytest.mark.parametrize("argv", HUGE_MULT_ARGV, ids=lambda argv: argv[0])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_multiple_of_10_to_the_1000_is_a_domain_error(
    capsys: pytest.CaptureFixture[str], argv: list[str], fmt: str
) -> None:
    code, out, err = run(capsys, *argv, "--m", str(10**1000), "--format", fmt)
    assert code == 1
    assert json.loads(out) == {
        "error": "OutOfRange", "message": "canonical multiple must be below 10**1000",
    }
    assert err == "error: canonical multiple must be below 10**1000\n"


def test_a_small_multiple_is_printed_up_to_the_digit_limit(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # The longest --m that parses has 4300 digits, so the message always
    # prints the multiple itself; one digit more is a usage error.
    mult = -(10**4300 - 1)
    code, out, _ = run(capsys, "discriminant", "--type", "16,22,52,4", "--m", str(mult))
    assert code == 1
    assert json.loads(out) == {
        "error": "MultTooSmall", "message": f"canonical multiple must be >= 5, got {mult}",
    }
    with pytest.raises(SystemExit) as excinfo:
        main(["discriminant", "--type", "16,22,52,4", "--m", "-1" + "0" * 4300])
    assert excinfo.value.code == 2


def test_a_multiple_just_below_10_to_the_1000_reads_back(
    capsys: pytest.CaptureFixture[str],
) -> None:
    mult = 10**1000 - 1
    code, out, _ = run(capsys, "discriminant", "--type", "16,22,52,4", "--m", str(mult))
    assert code == 0
    (profile,) = json.loads(out)["profiles"]
    assert profile_from_json(profile) == discriminant_profile(
        surface_invariants(CoverType(16, 22, 52, 4)), mult
    )


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


# Exit code and SHA-256 of stdout for each subcommand in both formats,
# frozen before the CSV tables were derived from the JSON views.  The
# `search --bound 60` pair dates from the enumerate-bucket-extract
# implementation, before the pair-indexed kernel, and the `search --bound 80
# --k 4` pair from the index-group walk, before in-cap buckets were emitted
# by the definition.  The three-member `check-tuple` pair dates from the
# verdict that checks each member against one witness: its JSON has no
# `members 1 and 2` failure, and each CSV row holds only the failures that
# name its member.  Domain errors print the same JSON error object in
# either format.
GOLDEN_STDOUT: dict[str, dict[str, tuple[int, str]]] = {
    "invariants --type 16,22,52,4": {
        "json": (0, "4227f74c391c6f66542b498d8769913d978ab9162069cf0bbd33365d070bd75f"),
        "csv": (0, "7ff235772c0db431f487016c71fd9709e67e6b61c80e66fba72e459176df94f3"),
    },
    "invariants --type 16,22,52,5": {
        "json": (1, "6c346794e633b7a9ece67295eee21e74df4843668437370574f15ba6f1e720d0"),
        "csv": (1, "6c346794e633b7a9ece67295eee21e74df4843668437370574f15ba6f1e720d0"),
    },
    "check-pair --type 16,22,52,4 --type 28,10,28,10": {
        "json": (0, "7abe3e4c84929c7ae315aec7645229d5fcb4d6ace52c3e9c579de2862c92c371"),
        "csv": (0, "a1a1278422ef5f29486f88d101487b519431796a9dfa9c1c530c44f183d22cef"),
    },
    "check-pair --type 7,3,7,3 --type 9,3,9,3": {
        "json": (0, "f09a73708fae839608dd155483a170613524e237aded42bb7c2191d62ae5ee3f"),
        "csv": (0, "c441e844626ce0b624ec076fd9a94692aed217e78bbe0cc740b8a30812bd3137"),
    },
    "check-tuple --type 16,22,52,4 --type 28,10,28,10": {
        "json": (0, "c8460470cf3529538b6c6212c752e69a7a494f314e73f87513a5dc5aae28e86e"),
        "csv": (0, "24f2bf47cffe556a2609de0b74c1806d75deac900db5c8db89583653d3e9b1de"),
    },
    "check-tuple --type 16,22,52,4 --type 16,22,52,4": {
        "json": (0, "a8acf451ad2bb81d71f57ef2d42892ca3176c52517c5e17e6e4d65863e1d8025"),
        "csv": (0, "fbe43b9b32be1756b08a320a6e9677c5293b0b0c320e1e5c50e6de211fcf6816"),
    },
    "check-tuple --type 7,3,7,3 --type 9,3,9,3 --type 16,22,52,4": {
        "json": (0, "b723e703b89239f649dbddfe4d73e9a02aa1d3ecfbfc62bb4e2863fe101acb6b"),
        "csv": (0, "066dec1a8c880a943c8f7055cc97a25bce169d3705e9b120cebb4ceee1b6c71f"),
    },
    "discriminant --type 16,22,52,4 --m 5 --m 6": {
        "json": (0, "57e04d03b3c157a1fcadc014c7c9fcbb22c06a275d99ee0eb8633239e0de0e0c"),
        "csv": (0, "c24190145cc732c847a9065a335a0c82b85d205c643b9eeb0d42424ae2460f6f"),
    },
    "discriminant --type 16,22,52,4 --m 4": {
        "json": (1, "40ce2cd47f09bc1a3c12e5b290ab07ff767a0148c8e7d4f21c512fcc3302201d"),
        "csv": (1, "40ce2cd47f09bc1a3c12e5b290ab07ff767a0148c8e7d4f21c512fcc3302201d"),
    },
    "search --bound 3": {
        "json": (0, "af8666e2a5895a51e9971f87fdcab19874179f8e58d3a0592d7e087644a0a44d"),
        "csv": (0, "473dd89447661176d4def3b64561e265752eeb54f50d6c9e9b8b6f2f56fff01c"),
    },
    "search --bound 40 --k 3 --max-results 7": {
        "json": (0, "c16d66c1d7008f8ede9421b80574dce8b0e882dee1bdd7e957ac61bb5424d561"),
        "csv": (0, "3658abfb73d557d1fc6708c8030ec831152e23744928530563ffc65c79a27d8a"),
    },
    "search --bound 60": {
        "json": (0, "9044865f9ce021f9ca37de9ff7af8510105d4dbfd6c934b0901a3555d3b9787a"),
        "csv": (0, "9e5587b4d33761d916b2e9fa373bd422c996bdb7bdcd90db0d93982179dbb032"),
    },
    "search --bound 80 --k 4": {
        "json": (0, "9aca0736c4f8962f489f6b466d1ffc5d65d891eae9f532baaf2bb670dc167775"),
        "csv": (0, "f00e4c90534483c83f4688a291dccd02aed3c14b2e76c5b720877b8257e141bb"),
    },
    "certify --type 16,22,52,4 --type 28,10,28,10 --m 5 --m 6": {
        "json": (0, "a0affaf0dda971d18c294418cc437d7ffea7fe5de002ffe6e240afd29c040148"),
        "csv": (0, "5fd6386e7965e08e95255fe3f7545996d72ae4566d82056f13cb76cbbabb570e"),
    },
    "certify --type 16,22,52,4 --type 28,10,28,10": {
        "json": (0, "238c064bfb80b605078c6bffc0eb9a40846a0f8f75cc8d86316c6d5f252dc945"),
        "csv": (0, "085ea9204856e53db50bd627e2a331008883d72e17c7c847915d896475bbc476"),
    },
    "certify --type 7,3,7,3 --type 9,3,9,3 --m 5": {
        "json": (1, "7b33e712e780d07582649441fa48ae72a2ae157bf99627676c5befc06f856075"),
        "csv": (1, "7b33e712e780d07582649441fa48ae72a2ae157bf99627676c5befc06f856075"),
    },
    "verify-paper-example": {
        "json": (0, "290ce142db59a9a6773badc77fdfb733022a0e7ea434c1cb5a08aa457e8d735a"),
        "csv": (0, "ab3a111ee1659467f04c6a407c4a03b21fb6d3d55ac2def00d29a8edf288667e"),
    },
    "verify-paper-example --m 5": {
        "json": (0, "1a97e07fb3642d4f433650573c36278469d51aedead1a67996c7caab29658262"),
        "csv": (0, "43004da9bfd823c1a1079e28af04152ec248b2f01ea073d0561911c08a4abd7e"),
    },
}


@pytest.mark.parametrize(
    ("command", "fmt"),
    [(command, fmt) for command in GOLDEN_STDOUT for fmt in ("json", "csv")],
)
def test_stdout_matches_the_golden_digest(
    capsys: pytest.CaptureFixture[str], command: str, fmt: str
) -> None:
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_STDOUT[command][fmt]


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
    assert digest == GOLDEN_STDOUT["search --bound 60"]["json"][1]


def search_view(config: SearchConfig, result: SearchResult) -> dict[str, Any]:
    """The search JSON view as a dict, built as the CLI built it for json.dumps."""
    return {
        "config": {
            "bound": config.bound,
            "k": config.k,
            "max_results": config.max_results,
            "shard_count": 1,
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


# Search configs with the per-bucket cap to run them under.
VIEW_CASES = [
    (SearchConfig(bound=3), DEFAULT_TUPLES_PER_BUCKET),
    *((SearchConfig(bound=b, k=k), DEFAULT_TUPLES_PER_BUCKET)
      for b in (20, 40, 60) for k in (2, 3)),
    (SearchConfig(bound=40, max_results=0), DEFAULT_TUPLES_PER_BUCKET),
    (SearchConfig(bound=40, max_results=7), DEFAULT_TUPLES_PER_BUCKET),
    # Every multi-index bucket truncated.
    (SearchConfig(bound=40), 1),
    # One full chunk of tuples, and one tuple past it.
    (SearchConfig(bound=60, max_results=1024), DEFAULT_TUPLES_PER_BUCKET),
    (SearchConfig(bound=60, max_results=1025), DEFAULT_TUPLES_PER_BUCKET),
    # More member slots per tuple, and a truncated walk with k > 2.
    (SearchConfig(bound=60, k=4), DEFAULT_TUPLES_PER_BUCKET),
    (SearchConfig(bound=80, k=5), DEFAULT_TUPLES_PER_BUCKET),
    (SearchConfig(bound=60, k=3), 2),
]


@pytest.mark.parametrize(("config", "cap"), VIEW_CASES, ids=repr)
def test_search_text_equals_json_dumps_of_the_view(
    config: SearchConfig, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The text streams from the kernel pass's rows; the view is built from
    # the collected SearchResult.
    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "DEFAULT_TUPLES_PER_BUCKET", cap)
    text = "".join(search_to_json_chunks(scan(config)))
    expected = json.dumps(search_view(config, search(config)), indent=2)
    # A bare comparison would make pytest diff megabytes of text for minutes.
    same = text == expected
    assert same, first_difference(text, expected)


@pytest.mark.parametrize("cap", [1, 2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize("k", [2, 3])
def test_search_text_equals_json_dumps_at_every_max_results(
    k: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # A cut inside a bucket renders that bucket from a plan of the tuples kept.
    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "DEFAULT_TUPLES_PER_BUCKET", cap)
    run = scan(SearchConfig(bound=30, k=k))
    if cap > 1:
        assert max(run.tuple_counts) > 1
    for limit in range(run.stats.tuples + 1):
        config = SearchConfig(bound=30, k=k, max_results=limit)
        text = "".join(search_to_json_chunks(scan(config)))
        expected = json.dumps(search_view(config, search(config)), indent=2)
        same = text == expected
        assert same, (limit, first_difference(text, expected))


@pytest.mark.parametrize(("config", "cap"), VIEW_CASES, ids=repr)
def test_search_report_line_agrees_with_the_json_head(
    config: SearchConfig, cap: int, capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Tools read a run's counts from the report line alone.
    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "DEFAULT_TUPLES_PER_BUCKET", cap)
    argv = ["search", "--bound", str(config.bound), "--k", str(config.k)]
    if config.max_results is not None:
        argv += ["--max-results", str(config.max_results)]
    code, out, err = run(capsys, *argv)
    assert code == 0
    head, report = json.loads(out), search_report(err)
    assert [report[f] for f in ("types", "buckets", "tuples", "clipped")] == [
        head[f] for f in ("type_count", "bucket_count", "tuple_count", "clipped")
    ]
    assert report["truncated"] == len(head["truncated_buckets"])


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
        ["search", "--bound", "30", "--max-results", "-1"],
        ["invariants", "--type", "16,22,52,4", "--type", "28,10,28,10"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


# Each usage error, with the message argparse prints after the usage line.
USAGE_ERRORS: list[tuple[list[str], str]] = [
    (["check-pair", "--type", "16,22,52,4"],
     "check-pair takes exactly 2 --type flag(s), got 1"),
    (["search", "--bound", "2"], "bound must be >= 3"),
    (["search", "--bound", "30", "--k", "1"], "k must be >= 2"),
    # Every search reports its run, so there is no --stats flag.
    (["search", "--bound", "40", "--stats"], "unrecognized arguments: --stats"),
    # search has no --shards flag, so any value is a usage error.
    (["search", "--bound", "40", "--shards", "1"], "unrecognized arguments: --shards 1"),
    # --no-timestamp exists only beside --out.
    (["check-pair", "--type", "16,22,52,4", "--type", "28,10,28,10", "--no-timestamp"],
     "unrecognized arguments: --no-timestamp"),
    # argparse's own error, for comparison.
    (["discriminant", "--type", "16,22,52,4"], "the following arguments are required: --m"),
    # An integer flag is read as a catalog reads a decimal string, and a
    # refused one is reported under the flag's name.
    (["discriminant", "--type", "16,22,52,4", "--m", "1_0"],
     "argument --m: invalid integer: '1_0'"),
    (["search", "--bound", "\uff180"], "argument --bound: invalid integer: '\uff180'"),
    (["search", "--bound", "30", "--k", "+2"], "argument --k: invalid integer: '+2'"),
    (["search", "--bound", "30", "--max-results", "0_1"],
     "argument --max-results: invalid integer: '0_1'"),
]


@pytest.mark.parametrize(
    ("argv", "error"),
    [pytest.param(argv, error, id=" ".join(argv)) for argv, error in USAGE_ERRORS],
)
def test_usage_errors_print_the_subcommand_usage(
    capsys: pytest.CaptureFixture[str], argv: list[str], error: str
) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: bidouble {argv[0]} ")
    assert err.endswith(f"\nbidouble {argv[0]}: error: {error}\n")
    assert "int_from_text" not in err


def search_report(err: str) -> dict[str, Any]:
    """The JSON report line a search writes last on stderr."""
    report = json.loads(err.splitlines()[-1])
    assert list(report) == [
        *(field.name for field in dataclasses.fields(SearchStats)), "kernel_s", "emit_s",
    ]
    return report


def test_search_reports_its_run_on_stderr(capsys: pytest.CaptureFixture[str]) -> None:
    # Stdout is pinned by GOLDEN_STDOUT; the report goes to stderr alone.
    for fmt in ("json", "csv"):
        code, _, err = run(capsys, "search", "--bound", "40", "--format", fmt)
        assert code == 0
        assert err.count("\n") == 1
        report = search_report(err)
        assert {k: report[k] for k in ("pairs", "types", "buckets", "tuples")} == {
            "pairs": 153, "types": 11_781, "buckets": 8_416, "tuples": 709,
        }
        assert report["multi_index_buckets"] <= report["cells"]
        assert report["kernel_s"] >= 0 and report["emit_s"] >= 0


class Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def test_search_memory_stays_flat_at_bound_80(monkeypatch: pytest.MonkeyPatch) -> None:
    # The JSON is rendered from the kernel's bucket arrays as it is written,
    # so the peak stays far below the 10.7 MB of output and its 30,911
    # tuples (9.9 MB when every tuple was collected before the first write).
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        assert main(["search", "--bound", "80"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


class Digest(io.TextIOBase):
    """A stdout that keeps only the SHA-256 of the text written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


def test_search_pins_the_bound_100_output(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    # The kernel's lane arrays reach 1,981 lanes and 6 index groups here,
    # against 1,249 and 5 at bound 80.  The digest of the 33 MB of JSON is
    # the one every recorded bound-100 benchmark run has printed.
    sink = Digest()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["search", "--bound", "100"]) == 0
    monkeypatch.undo()
    report = search_report(capsys.readouterr().err)
    counts = ("types", "buckets", "multi_index_buckets", "cells", "tuples")
    assert {count: report[count] for count in counts} == {
        "types": 636_756,
        "buckets": 367_890,
        "multi_index_buckets": 29_475,
        "cells": 100_230,
        "tuples": 93_543,
    }
    assert sink.sha.hexdigest() == (
        "dbda50c340c28b44837eb067c646a027add10ee2d3bc4566558dc1933ae0d095"
    )


def test_search_pins_the_bound_100_csv(monkeypatch: pytest.MonkeyPatch) -> None:
    # The digest of the 3,771,490 bytes in 93,544 lines of CSV, as csv.writer
    # wrote each tuple's row.
    sink = Digest()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["search", "--bound", "100", "--format", "csv"]) == 0
    assert sink.sha.hexdigest() == (
        "d9c759b75a44bbe35dc6aa9e7d98859cf3d3bfff70abbbc0e67d11bdae383b12"
    )


def test_search_pins_the_bound_140_k_5_output(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    # At k = 5 only a product with at least 5 index groups fills a lane
    # array per group; 28 products do here, up to 7 groups each.  The digest
    # of the 2,162,553 bytes of JSON is the one every recorded k = 5,
    # bound-140 benchmark run has printed.
    sink = Digest()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["search", "--bound", "140", "--k", "5"]) == 0
    monkeypatch.undo()
    report = search_report(capsys.readouterr().err)
    counts = ("types", "buckets", "multi_index_buckets", "cells", "tuples")
    assert {count: report[count] for count in counts} == {
        "types": 2_595_781,
        "buckets": 1_411_282,
        "multi_index_buckets": 179,
        "cells": 1_461,
        "tuples": 3_194,
    }
    assert sink.sha.hexdigest() == (
        "6d15695ae3dbceb2b8483010c151d8cb081707f3c625d56f15d94d25a685c288"
    )


@pytest.mark.parametrize("to_catalog", [False, True], ids=["json", "out"])
def test_search_with_a_huge_k_renders_no_template(
    capsys: pytest.CaptureFixture[str], tmp_path: Path, to_catalog: bool
) -> None:
    # A tuple needs k distinct indices in one bucket, so no tuple exists, and
    # neither renderer may build its template of O(k) slots.
    argv = ["search", "--bound", "20", "--k", "100000"]
    if to_catalog:
        argv += ["--out", str(tmp_path / "catalog.jsonl")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["tuple_count"] == 0 == search_report(err)["tuples"]
    assert peak < 4_000_000
    if to_catalog:
        assert read_catalog(tmp_path / "catalog.jsonl") == []


# The option strings of each subcommand, so that adding or removing a knob
# shows up here.
OPTIONS = {
    "invariants": ["--format", "--no-timestamp", "--out", "--type"],
    "check-pair": ["--format", "--type"],
    "check-tuple": ["--format", "--type"],
    "discriminant": ["--format", "--m", "--type"],
    "search": ["--bound", "--format", "--k", "--max-results", "--no-timestamp", "--out"],
    "certify": ["--format", "--m", "--no-timestamp", "--out", "--type"],
    "verify-paper-example": ["--format", "--m"],
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (commands,) = (
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands


def test_each_subcommand_has_exactly_its_options() -> None:
    got = {
        command: sorted(
            option
            for action in subparser._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        )
        for command, subparser in subcommands().items()
    }
    assert got == OPTIONS


# An otherwise valid command line of each subcommand, and a valid value of
# each option; with --k 3, each option changes what a command line parses to.
VALID_ARGV = {
    "invariants": ["--type", "16,22,52,4"],
    "check-pair": ["--type", "16,22,52,4", "--type", "28,10,28,10"],
    "check-tuple": ["--type", "16,22,52,4", "--type", "28,10,28,10"],
    "discriminant": ["--type", "16,22,52,4", "--m", "5"],
    "search": ["--bound", "60"],
    "certify": ["--type", "16,22,52,4", "--type", "28,10,28,10"],
    "verify-paper-example": [],
}
OPTION_VALUES = {
    "--type": ["7,3,7,3"], "--m": ["6"], "--bound": ["20"], "--k": ["3"],
    "--max-results": ["5"], "--format": ["csv"], "--out": ["catalog.jsonl"],
    "--no-timestamp": [], "--help": [],
}


def abbreviations() -> list[tuple[str, str, str]]:
    """Each ``(command, prefix, option)`` whose prefix starts the long option
    and no other option of the command, and is not the whole option: each
    spelling that an abbreviating parser would read as the option."""
    cases = []
    for command, subparser in subcommands().items():
        options = [s for s in subparser._option_string_actions if s.startswith("--")]
        for option in options:
            for end in range(len("--x"), len(option)):
                if [o for o in options if o.startswith(option[:end])] == [option]:
                    cases.append((command, option[:end], option))
    return cases


def test_abbreviations_cover_every_option() -> None:
    # 103 prefixes of the 24 option strings, and --h, --he, --hel in each of
    # the 7 subcommands.
    cases = abbreviations()
    assert {(command, option) for command, _, option in cases} == {
        (command, option) for command, options in OPTIONS.items()
        for option in [*options, "--help"] if len(option) > len("--x")
    }
    assert sum(option != "--help" for _, _, option in cases) == 103
    assert len(cases) == 103 + 3 * 7


@pytest.mark.parametrize(
    ("command", "prefix", "option"),
    [pytest.param(*case, id=" ".join(case[:2])) for case in abbreviations()],
)
def test_an_abbreviated_option_is_a_usage_error(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch, tmp_path: Path,
    command: str, prefix: str, option: str,
) -> None:
    # `search --bound 60 --m 5` was once read as --max-results 5, and a new
    # option could have made any prefix ambiguous: options are read only as
    # declared.
    monkeypatch.chdir(tmp_path)
    unknown = [prefix, *OPTION_VALUES[option]]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *VALID_ARGV[command], *unknown])
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: bidouble {command} ")
    error = f"unrecognized arguments: {' '.join(unknown)}"
    assert err.endswith(f"\nbidouble {command}: error: {error}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("command", "option"),
    [
        pytest.param(command, option, id=f"{command} {option}")
        for command, options in OPTIONS.items() for option in options
    ],
)
def test_each_option_parses_as_declared(command: str, option: str) -> None:
    # Spelt in full, and as --option=value when it takes a value.
    def parsed(*spelling: str) -> dict[str, Any]:
        return vars(build_parser().parse_args([command, *VALID_ARGV[command], *spelling]))

    values = OPTION_VALUES[option]
    assert parsed(option, *values) != parsed()
    if values:
        assert parsed(f"{option}={values[0]}") == parsed(option, *values)


def test_no_flag_reads_integers_with_int() -> None:
    # int() also reads "1_0", "+2" and non-ASCII digits; every integer flag
    # goes through the one reader that refuses them, as the catalog does.
    for command, subparser in subcommands().items():
        for action in subparser._actions:
            assert action.type is not int, (command, action.option_strings)


def test_search_config_has_exactly_its_fields() -> None:
    # As OPTIONS does for the command line, so that a new knob shows up here.
    fields = [field.name for field in dataclasses.fields(SearchConfig)]
    assert fields == ["bound", "k", "max_results"]


def test_search_catalog_bytes_are_unchanged(
    capsys: pytest.CaptureFixture[str], tmp_path: Path
) -> None:
    # SHA-256 of the bound-60 catalog as written when search() collected
    # every tuple before the first line; 6,856 lines.
    out_path = tmp_path / "catalog.jsonl"
    code, out, err = run(
        capsys, "search", "--bound", "60", "--out", str(out_path), "--no-timestamp"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT["search --bound 60"]["json"][1]
    appended, _ = err.splitlines()
    assert appended == f"appended 6856 tuple record(s) to {out_path}"
    assert search_report(err)["tuples"] == 6856
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == "b5fe49ebbe4a691c1ff9eeaa057bb0c5db05d561ca3d3cbb9a3ff749bbd3ca08"


@pytest.mark.parametrize("limit", [1023, 1024, 1025, 2048, None])
def test_search_catalog_is_whole_across_chunk_boundaries(
    capsys: pytest.CaptureFixture[str], tmp_path: Path, limit: int | None
) -> None:
    # search --out writes the emit's chunks as they come, 1024 tuples at
    # most unless one bucket holds more; a max_results cut near a chunk's
    # end must neither drop nor repeat a line, and the count must hold.
    out_path = tmp_path / "catalog.jsonl"
    argv = ["search", "--bound", "60", "--out", str(out_path), "--no-timestamp"]
    argv += [] if limit is None else ["--max-results", str(limit)]
    code, _, err = run(capsys, *argv)
    assert code == 0
    tuples = search(SearchConfig(bound=60, max_results=limit)).tuples
    assert out_path.read_text() == "".join(
        record_to_line(CatalogRecord("tuple", tuple_to_json(t))) + "\n" for t in tuples
    )
    assert err.splitlines()[0] == f"appended {len(tuples)} tuple record(s) to {out_path}"
    chunks = list(search_to_catalog_chunks(scan(SearchConfig(bound=60, max_results=limit)), ""))
    assert len(chunks) == (1 if len(tuples) <= 1024 else 2 if len(tuples) <= 2048 else 7)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "stamp",
    [
        "", "2026-10-18T12:00:00+00:00", 'x"{0}%d\\{{1}}', "\u00e9\u2028",
        # Shaped like a slot of the cut tuple, and a bytes format slot.
        "1000000000000002", "%d",
    ],
)
def test_search_catalog_lines_equal_record_to_line(k: int, stamp: str) -> None:
    # Each line is joined from pieces cut once; it must be what
    # record_to_line makes of the tuple's payload, whatever the stamp holds.
    config = SearchConfig(bound=40, k=k)
    wanted = "".join(
        record_to_line(CatalogRecord("tuple", tuple_to_json(t), stamp)) + "\n"
        for t in search(config).tuples
    )
    assert "".join(search_to_catalog_chunks(scan(config), stamp)) == wanted


@pytest.mark.parametrize("cap", [1, 2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize("k", [2, 3])
def test_search_csv_and_catalog_lines_equal_their_writers_at_every_max_results(
    k: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # Every output cuts a bucket by the same plan when max_results ends the
    # run inside it; each must keep the tuples search() keeps.
    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "DEFAULT_TUPLES_PER_BUCKET", cap)
    run = scan(SearchConfig(bound=30, k=k))
    if cap > 1:
        assert max(run.tuple_counts) > 1
    for limit in range(run.stats.tuples + 1):
        config = SearchConfig(bound=30, k=k, max_results=limit)
        tuples = search(config).tuples
        wanted = io.StringIO()
        writer = csv.writer(wanted, lineterminator="\n")
        writer.writerow(["kk", "chi", "members", "indices"])
        writer.writerows(
            tuple_row_to_cells(*t.key, map(CoverType.as_tuple, t.members), t.indices)
            for t in tuples
        )
        assert "".join(search_to_csv_chunks(scan(config))) == wanted.getvalue(), limit
        lines = "".join(
            record_to_line(CatalogRecord("tuple", tuple_to_json(t))) + "\n" for t in tuples
        )
        assert "".join(search_to_catalog_chunks(scan(config), "")) == lines, limit


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


def test_verdict_output_is_linear_in_the_members(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # Members (7 + 2i, 3, 7, 3): no two share a key and many share an index,
    # so most of the 79,800 pairs fail the definition.  Each fault is stated
    # once, so the output stays within a fixed size per member.
    n = 400
    types = [arg for i in range(n) for arg in ("--type", f"{7 + 2 * i},3,7,3")]
    for fmt in ("json", "csv"):
        code, out, _ = run(capsys, "check-tuple", *types, "--format", fmt)
        assert code == 0
        assert len(out.encode()) <= 400 * n
    assert len(list(csv.reader(io.StringIO(out)))) == 1 + n
    code, out, err = run(capsys, "certify", *types)
    assert code == 1
    assert json.loads(out)["error"] == "NotCatanese"
    assert len(out.encode()) <= 400 * n
    assert len(err.encode()) <= 400 * n


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


def without_times(result: tuple[int, str, str]) -> tuple[int, str, dict[str, Any]]:
    """Exit code, stdout and the search report less its wall times."""
    code, out, err = result
    report = search_report(err)
    del report["kernel_s"], report["emit_s"]
    return code, out, report


def test_stdout_is_deterministic(capsys: pytest.CaptureFixture[str]) -> None:
    first = run(capsys, "search", "--bound", "20", "--k", "2")
    second = run(capsys, "search", "--bound", "20", "--k", "2")
    assert without_times(first) == without_times(second)
    third = run(capsys, "verify-paper-example", "--m", "6")
    fourth = run(capsys, "verify-paper-example", "--m", "6")
    assert third == fourth


PAIR = ["--type", "16,22,52,4", "--type", "28,10,28,10"]

# Calls that share the cached parser, in this order: certify and
# verify-paper-example without --m after calls with it, and each usage error
# followed by a valid call to the same subcommand.
CACHED_PARSER_CALLS = [
    ["certify", *PAIR, "--m", "5"],
    ["certify", *PAIR],
    ["verify-paper-example", "--m", "6"],
    ["verify-paper-example"],
    ["certify", *PAIR, "--m", "7", "--format", "csv"],
    ["certify", *PAIR, "--format", "csv"],
    ["invariants", "--type", "16,22,52,4", "--bogus"],
    ["invariants", "--type", "16,22,52,4", "--format", "csv"],
    ["check-pair", "--type", "16,22,52,4"],
    ["check-pair", *PAIR],
    ["search", "--bound", "2"],
    ["search", "--bound", "20", "--format", "csv"],
    ["search", "--bound", "20"],
    ["invariants", "--type", "16,22,52,5"],
    ["discriminant", "--type", "16,22,52,4", "--m", "5", "--m", "6"],
    ["check-tuple", *PAIR, "--format", "csv"],
]


def outcome(capsys: pytest.CaptureFixture[str], argv: list[str]) -> tuple[Any, str, str]:
    """Exit code, stdout and stderr of one call, less the search pass times."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, re.sub(r'"(kernel_s|emit_s)": [^,}]+', r'"\1": 0', err)


def test_the_cached_parser_gives_what_a_fresh_one_gives(
    capsys: pytest.CaptureFixture[str],
) -> None:
    parser = build_parser()
    assert build_parser() is parser
    cached = [outcome(capsys, argv) for argv in CACHED_PARSER_CALLS]
    assert build_parser() is parser
    fresh = []
    for argv in CACHED_PARSER_CALLS:
        build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert build_parser() is not parser
    assert cached == fresh
    codes = [code for code, _, _ in cached]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0, 0, 1, 0, 0]
    # A certify without --m has no profiles, after one that had them.
    assert len(json.loads(cached[0][1])["profiles"]) == 1
    assert json.loads(cached[1][1])["profiles"] == []


def test_a_command_patched_after_the_first_call_is_the_one_that_runs(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    assert main(["invariants", "--type", "16,22,52,4"]) == 0
    capsys.readouterr()
    seen = []

    def patched(args: argparse.Namespace) -> tuple[dict[str, Any], None, int]:
        seen.append(args.types)
        return {"patched": True}, None, 0

    monkeypatch.setattr(bidouble.cli, "cmd_invariants", patched)
    assert main(["invariants", "--type", "16,22,52,4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"patched": True}
    assert seen == [[bidouble.CoverType(16, 22, 52, 4)]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_search_into_a_pipe_closed_early_exits_one_quietly(fmt: str) -> None:
    # The reader takes 100 bytes of the 2.38 MB (JSON) or 0.27 MB (CSV)
    # output and goes, as `bidouble search ... | head -c 100` does.
    src = Path(bidouble.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "bidouble.cli", "search", "--bound", "60", "--format", fmt]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as child:
        assert child.stdout is not None and child.stderr is not None
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read().decode()
    assert child.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--type", "16,22,52,5"],
        ["search", "--bound", "10001"],
        ["invariants", "--type", "16,22,52,4", "--out", "{tmp}/absent/c.jsonl"],
    ],
    ids=["ConstraintViolation", "BoundTooLarge", "IoError"],
)
def test_errors_into_a_closed_pipe_exit_one_quietly(argv: list[str], tmp_path: Path) -> None:
    # The error object goes to stdout through the same guarded writer as
    # results do, so a reader that left before it does not end in a traceback.
    src = Path(bidouble.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bidouble.cli", *(a.format(tmp=tmp_path) for a in argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    # The error's own line, then the closed pipe's.
    error, pipe = err.splitlines()
    assert error.startswith("error: ") and pipe.startswith("error: ")


def test_io_failure_exits_one(capsys: pytest.CaptureFixture[str], tmp_path: Path) -> None:
    missing_dir = tmp_path / "absent" / "catalog.jsonl"
    code, out, _ = run(
        capsys, "invariants", "--type", "16,22,52,4", "--out", str(missing_dir)
    )
    assert code == 1
    assert json.loads(out)["error"] == "IoError"
