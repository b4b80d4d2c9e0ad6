"""JSONL catalog round trips, strict parsing, and payload schemas."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bidouble import (
    CatalogRecord,
    CoverType,
    SchemaMismatch,
    derive_params,
    discriminant_profile,
    is_catanese_tuple,
    read_catalog,
    surface_invariants,
    write_catalog,
    zariski_certificate,
)
from bidouble.catalog import KINDS, RECORDS_PER_CHUNK, record_to_line, write_chunks
from bidouble.search import CataneseTuple
from bidouble.serialize import (
    certificate_from_json,
    certificate_to_json,
    cover_type_from_json,
    cover_type_to_json,
    invariants_to_json,
    key_from_json,
    profile_from_json,
    profile_to_json,
    tuple_from_json,
    tuple_to_json,
)
from bidouble.topology import HomeoClassKey

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)


def test_cover_type_json_round_trip() -> None:
    payload = cover_type_to_json(TYPE_1)
    assert payload == {"a": 16, "b": 22, "m2": 52, "n2": 4}
    assert cover_type_from_json(payload) == TYPE_1


def test_invariants_payload_shape() -> None:
    inv = surface_invariants(TYPE_1)
    payload = invariants_to_json(TYPE_1, derive_params(TYPE_1), inv)
    assert payload["kk"] == 10368
    assert payload["chi"] == 1856
    assert payload["r"] == 18
    assert payload["params"] == {"u": 18, "v": 72, "w": 12, "z": 30}


def test_profile_big_fields_are_decimal_strings() -> None:
    profile = discriminant_profile(surface_invariants(TYPE_1), 5)
    payload = profile_to_json(profile)
    assert payload["mult"] == 5
    assert payload["ram_mult"] == 16
    assert payload["deg_b"] == "829440"
    assert payload["nodes"] == "343979116800"
    assert profile_from_json(payload) == profile


def test_profile_parser_rejects_numeric_big_fields() -> None:
    profile = discriminant_profile(surface_invariants(TYPE_1), 5)
    payload = profile_to_json(profile)
    payload["nodes"] = 343979116800
    with pytest.raises(SchemaMismatch):
        profile_from_json(payload)


@pytest.mark.parametrize(
    "spelling",
    [
        " 829440", "829_440", "+829440", "0829440", "\uff18\uff12\uff19\uff14\uff14\uff10",
        "-0", "829440 ", "", "\u0668\u0662\u0669\u0664\u0664\u0660",
    ],
)
def test_profile_parser_rejects_non_canonical_decimal_strings(spelling: str) -> None:
    payload = profile_to_json(discriminant_profile(surface_invariants(TYPE_1), 5))
    assert payload["deg_b"] == "829440"
    payload["deg_b"] = spelling
    with pytest.raises(SchemaMismatch, match="is not a decimal string"):
        profile_from_json(payload)


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
@pytest.mark.parametrize(
    "parse, payload",
    [
        (cover_type_from_json, {"a": 16, "b": 22, "m2": 52, "n2": 4}),
        (key_from_json, {"kk": 10368, "chi": 1856}),
    ],
    ids=["cover_type", "key"],
)
def test_json_parsers_refuse_a_bool_or_float_field(
    parse: Callable[[Any], Any], payload: dict[str, int], value: object
) -> None:
    # Both equal 1, but only an int is an integer field.
    for field in payload:
        with pytest.raises(SchemaMismatch, match=f"field '{field}' must be an integer"):
            parse({**payload, field: value})


@pytest.mark.parametrize(
    ("indices", "error"),
    [
        ([18, True], "{where}.indices[1] must be an integer, got True"),
        # One index per member, so neither parser takes a misaligned tuple.
        ([18], "{where}: 1 indices for 2 members"),
        ([18, 36, 2], "{where}: 3 indices for 2 members"),
        ([], "{where}: 0 indices for 2 members"),
    ],
    ids=["bool", "too-few", "too-many", "none"],
)
@pytest.mark.parametrize(
    ("payload", "parse", "where"),
    [
        (
            tuple_to_json(CataneseTuple(HomeoClassKey(10368, 1856), (TYPE_1, TYPE_2), (18, 36))),
            tuple_from_json,
            "tuple",
        ),
        (
            certificate_to_json(zariski_certificate([TYPE_1, TYPE_2], [5])),
            certificate_from_json,
            "certificate",
        ),
    ],
    ids=["tuple", "certificate"],
)
def test_tuple_parsers_refuse_bad_indices(
    payload: dict[str, Any],
    parse: Callable[[Any], Any],
    where: str,
    indices: list[Any],
    error: str,
) -> None:
    with pytest.raises(SchemaMismatch, match=re.escape(error.format(where=where))):
        parse({**payload, "indices": indices})


def test_tuple_json_round_trip() -> None:
    t = CataneseTuple(
        key=HomeoClassKey(10368, 1856), members=(TYPE_1, TYPE_2), indices=(18, 36)
    )
    assert tuple_from_json(tuple_to_json(t)) == t


def test_certificate_json_round_trip() -> None:
    cert = zariski_certificate([TYPE_1, TYPE_2], [5, 6])
    payload = certificate_to_json(cert)
    assert certificate_from_json(payload) == cert


def test_certificate_parser_reports_the_bad_member() -> None:
    payload = certificate_to_json(zariski_certificate([TYPE_1, TYPE_2], [5]))
    payload["members"][1] = {"a": 28, "b": 10, "m2": 28}
    with pytest.raises(SchemaMismatch) as excinfo:
        certificate_from_json(payload)
    assert "members[1]" in str(excinfo.value)


def test_catalog_round_trip(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    cert = zariski_certificate([TYPE_1, TYPE_2], [5])
    records = [
        CatalogRecord(
            kind="invariants",
            payload=invariants_to_json(
                TYPE_1, derive_params(TYPE_1), surface_invariants(TYPE_1)
            ),
            created_at="2026-08-23T00:00:00+00:00",
        ),
        CatalogRecord(kind="certificate", payload=certificate_to_json(cert)),
    ]
    assert write_catalog(records, path) == 2
    assert read_catalog(path) == records


# JSON-native payloads: objects with string keys over ints, finite floats,
# strings, bools, null, arrays and nested objects.
json_values = st.recursive(
    st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text()
    | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
catalog_records = st.builds(
    CatalogRecord,
    kind=st.sampled_from(KINDS),
    payload=st.dictionaries(st.text(), json_values, max_size=5),
    created_at=st.text(),
)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(catalog_records, max_size=4))
def test_catalog_reads_back_what_it_writes(tmp_path: Path, written: list[CatalogRecord]) -> None:
    path = tmp_path / "catalog.jsonl"
    path.unlink(missing_ok=True)
    assert write_catalog(written, path) == len(written)
    assert read_catalog(path) == written


def test_catalog_appends_instead_of_overwriting(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    record = CatalogRecord(kind="invariants", payload={"kk": 512})
    write_catalog([record], path)
    write_catalog([record], path)
    assert read_catalog(path) == [record, record]
    assert len(path.read_text().splitlines()) == 2


def test_catalog_rejects_unknown_kind_with_line_number(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    write_catalog([CatalogRecord(kind="invariants", payload={})], path)
    bogus = {"schema_version": 1, "kind": "bogus", "payload": {}, "created_at": ""}
    with open(path, "a") as handle:
        handle.write(json.dumps(bogus) + "\n")
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    assert "line 2" in str(excinfo.value)
    assert "bogus" in str(excinfo.value)


def test_catalog_rejects_future_schema_version(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    future = {"schema_version": 2, "kind": "tuple", "payload": {}, "created_at": ""}
    path.write_text(json.dumps(future) + "\n")
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    assert "line 1" in str(excinfo.value)
    assert "schema_version" in str(excinfo.value)


def test_catalog_record_has_no_schema_version_field(tmp_path: Path) -> None:
    # Every written line carries the one version the reader accepts, so a
    # record cannot hold another that would make its line unreadable.
    with pytest.raises(TypeError):
        CatalogRecord("tuple", {}, schema_version=2)  # type: ignore[call-arg]
    path = tmp_path / "catalog.jsonl"
    write_catalog([CatalogRecord("tuple", {})], path)
    assert json.loads(path.read_text())["schema_version"] == 1


@pytest.mark.parametrize("version", ["true", "1.0"])
def test_catalog_rejects_a_version_equal_to_but_not_the_integer_1(
    tmp_path: Path, version: str
) -> None:
    path = tmp_path / "catalog.jsonl"
    write_catalog([CatalogRecord(kind="invariants", payload={})], path)
    with open(path, "a") as handle:
        handle.write(
            f'{{"schema_version": {version}, "kind": "tuple", '
            '"payload": {}, "created_at": ""}\n'
        )
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    assert "line 2" in str(excinfo.value)
    assert f"schema_version {json.loads(version)!r}" in str(excinfo.value)


@pytest.mark.parametrize(
    "line",
    [
        '{"schema_version": 1,',
        '{"schema_version": 1, "kind": "tuple", "payload": {"x": NaN}, "created_at": ""}',
        '{"schema_version": 1, "kind": "tuple", "payload": {"x": Infinity}, "created_at": ""}',
        '{"schema_version": 1, "kind": "tuple", "payload": {"x": -Infinity}, "created_at": ""}',
        # Valid JSON numbers, but they overflow a double to an infinity.
        '{"schema_version": 1, "kind": "tuple", "payload": {"x": 1e400}, "created_at": ""}',
        '{"schema_version": 1, "kind": "tuple", "payload": {"x": -1e400}, "created_at": ""}',
    ],
    ids=["truncated", "NaN", "Infinity", "-Infinity", "1e400", "-1e400"],
)
def test_catalog_rejects_invalid_json(tmp_path: Path, line: str) -> None:
    path = tmp_path / "catalog.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    assert str(excinfo.value).startswith("line 1: invalid JSON")


def test_catalog_refuses_a_leading_byte_order_mark_in_json_loads_words(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    good = record_to_line(CatalogRecord("tuple", {"x": 1}))
    path.write_text(good + "\n\ufeff" + good + "\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    assert str(excinfo.value) == (
        "line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0))"
    )


def test_catalog_reads_finite_floats_as_before(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    path.write_text(
        '{"schema_version": 1, "kind": "tuple", "created_at": "", '
        '"payload": {"x": 1.5, "big": 1e308, "zero": -0.0}}\n'
    )
    (record,) = read_catalog(path)
    assert record.payload == {"x": 1.5, "big": 1e308, "zero": 0.0}
    assert math.copysign(1.0, record.payload["zero"]) == -1.0


def test_catalog_rejects_bytes_that_are_not_utf8(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    good = record_to_line(CatalogRecord("tuple", {"x": 1}))
    path.write_bytes(good.encode() + b"\n" + b'{"kind": "\xff"}\n')
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    assert str(excinfo.value).startswith("line 2: invalid JSON")


@pytest.mark.parametrize(
    "tail", ["\x1c", "\n\x85"], ids=["record-ending-in-x1c", "line-of-only-x85"]
)
def test_catalog_strips_only_json_whitespace(tmp_path: Path, tail: str) -> None:
    # str.strip() also drops these characters; json.loads rejects them.
    path = tmp_path / "catalog.jsonl"
    good = record_to_line(CatalogRecord("tuple", {"x": 1}))
    path.write_text(good + "\n" + good + tail + "\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    lineno = 2 + tail.count("\n")
    assert str(excinfo.value).startswith(f"line {lineno}: invalid JSON")


def test_catalog_rejects_unexpected_keys(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    extra = {
        "schema_version": 1,
        "kind": "tuple",
        "payload": {},
        "created_at": "",
        "comment": "hi",
    }
    path.write_text(json.dumps(extra) + "\n")
    with pytest.raises(SchemaMismatch):
        read_catalog(path)


# Each record the writer refuses, with the reason the reader gives for its
# line after "line N: ".  The writer refuses exactly these, in those words,
# so no write can leave a line that stops every later read of the file.
REFUSED_RECORDS: dict[str, tuple[CatalogRecord, str]] = {
    "unknown-kind": (CatalogRecord("bogus", {}), "unknown record kind 'bogus'"),
    "NaN": (
        CatalogRecord("tuple", {"n": 1, "x": [math.nan]}),
        "invalid JSON (NaN is not a JSON value)",
    ),
    "Infinity": (
        CatalogRecord("tuple", {"x": {"y": math.inf}}),
        "invalid JSON (Infinity is not a JSON value)",
    ),
    "-Infinity": (
        CatalogRecord("tuple", {"x": -math.inf}),
        "invalid JSON (-Infinity is not a JSON value)",
    ),
    # Two records that break the field annotations, which nothing enforces.
    "list-payload": (CatalogRecord("tuple", [1]), "payload must be an object"),  # type: ignore
    "None-stamp": (CatalogRecord("tuple", {}, None), "created_at must be a string"),  # type: ignore
}
refused = pytest.mark.parametrize(
    ("bad", "reason"), list(REFUSED_RECORDS.values()), ids=list(REFUSED_RECORDS)
)


@refused
def test_catalog_write_refuses_what_the_read_refuses(
    tmp_path: Path, bad: CatalogRecord, reason: str
) -> None:
    # The line json.dumps would have written, appended by hand after a good one.
    path = tmp_path / "catalog.jsonl"
    write_catalog([CatalogRecord("tuple", {"n": 0})], path)
    with open(path, "a") as handle:
        line = {"schema_version": 1, "kind": bad.kind, "payload": bad.payload,
                "created_at": bad.created_at}
        handle.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(SchemaMismatch) as excinfo:
        read_catalog(path)
    assert str(excinfo.value) == f"line 2: {reason}"
    with pytest.raises(SchemaMismatch) as excinfo:
        record_to_line(bad)
    assert str(excinfo.value) == reason


@refused
def test_catalog_write_rejects_unknown_kind(
    tmp_path: Path, bad: CatalogRecord, reason: str
) -> None:
    path = tmp_path / "catalog.jsonl"
    with pytest.raises(SchemaMismatch, match=re.escape(reason)):
        write_catalog([bad], path)
    assert not path.exists()


# Payloads json cannot encode at all, so that no line holds them.
UNENCODABLE_RECORDS: dict[str, tuple[CatalogRecord, str]] = {
    "mixed-keys": (
        CatalogRecord("tuple", {1: 2, "a": 3}),
        "not encodable as JSON ('<' not supported between instances of 'str' and 'int')",
    ),
    "object": (
        CatalogRecord("tuple", {"x": [object()]}),
        "not encodable as JSON (Object of type object is not JSON serializable)",
    ),
}


@pytest.mark.parametrize(
    ("bad", "reason"), list(UNENCODABLE_RECORDS.values()), ids=list(UNENCODABLE_RECORDS)
)
def test_catalog_write_refuses_a_payload_json_cannot_encode(
    tmp_path: Path, bad: CatalogRecord, reason: str
) -> None:
    with pytest.raises(SchemaMismatch) as excinfo:
        record_to_line(bad)
    assert str(excinfo.value) == reason
    path = tmp_path / "catalog.jsonl"
    write_catalog([CatalogRecord(kind="invariants", payload={"kk": 512})], path)
    before = path.read_bytes()
    with pytest.raises(SchemaMismatch, match=re.escape(reason)):
        write_catalog(records_failing_at(RECORDS_PER_CHUNK + 2, bad), path)
    assert path.read_bytes() == before


def records_failing_at(position: int, bad: CatalogRecord) -> Iterator[CatalogRecord]:
    """A stream of valid records whose record number ``position`` is ``bad``."""
    for number in range(1, position):
        yield CatalogRecord(kind="tuple", payload={"n": number})
    yield bad


@refused
@pytest.mark.parametrize(
    "position",
    # In the first chunk, rendered before the file is opened; then past the
    # first chunk, after a whole chunk has been written.
    [3, RECORDS_PER_CHUNK + 2],
)
def test_catalog_write_failing_midway_leaves_the_file_as_it_was(
    tmp_path: Path, position: int, bad: CatalogRecord, reason: str
) -> None:
    path = tmp_path / "catalog.jsonl"
    write_catalog([CatalogRecord(kind="invariants", payload={"kk": 512})], path)
    before = path.read_bytes()
    with pytest.raises(SchemaMismatch, match=re.escape(reason)):
        write_catalog(records_failing_at(position, bad), path)
    assert path.read_bytes() == before


@refused
@pytest.mark.parametrize("position", [3, RECORDS_PER_CHUNK + 2])
def test_catalog_write_failing_midway_on_a_new_file(
    tmp_path: Path, position: int, bad: CatalogRecord, reason: str
) -> None:
    # A failure in the first chunk creates no file; one past the first chunk
    # leaves the created file empty, a catalog of no records.
    path = tmp_path / "catalog.jsonl"
    with pytest.raises(SchemaMismatch, match=re.escape(reason)):
        write_catalog(records_failing_at(position, bad), path)
    if position <= RECORDS_PER_CHUNK:
        assert not path.exists()
    else:
        assert path.read_bytes() == b""
        assert read_catalog(path) == []


@pytest.mark.parametrize(
    "count", [RECORDS_PER_CHUNK, RECORDS_PER_CHUNK + 1, 2 * RECORDS_PER_CHUNK + 1]
)
def test_catalog_write_streams_many_chunks(tmp_path: Path, count: int) -> None:
    path = tmp_path / "catalog.jsonl"
    records = (CatalogRecord(kind="tuple", payload={"n": n}) for n in range(count))
    assert write_catalog(records, path) == count
    assert [r.payload["n"] for r in read_catalog(path)] == list(range(count))


def test_write_chunks_counts_the_records_of_each_chunk(tmp_path: Path) -> None:
    # Chunks of any size are written as they come, and every record counts,
    # its escaped newlines and separators included.
    path = tmp_path / "catalog.jsonl"
    lines = [
        record_to_line(CatalogRecord("tuple", {"n": n, "text": "a\nb\u2028"})) + "\n"
        for n in range(7)
    ]
    chunks = ["".join(lines[:1]), "", "".join(lines[1:6]), lines[6]]
    assert write_chunks(iter(chunks), path) == 7
    assert path.read_text() == "".join(lines)
    assert [r.payload["n"] for r in read_catalog(path)] == list(range(7))


def test_reread_certificate_still_verifies(tmp_path: Path) -> None:
    path = tmp_path / "catalog.jsonl"
    cert = zariski_certificate([TYPE_1, TYPE_2], [5, 7])
    write_catalog([CatalogRecord(kind="certificate", payload=certificate_to_json(cert))], path)
    (record,) = read_catalog(path)
    restored = certificate_from_json(record.payload)
    assert restored == cert
    assert is_catanese_tuple(list(restored.members)).is_catanese
    assert [p.nodes for p in restored.profiles] == [p.nodes for p in cert.profiles]
