"""Append-only JSONL catalog of computation records.

One JSON object per line, each with exactly the keys ``schema_version``,
``kind``, ``payload``, ``created_at``.  Reads are strict: any malformed line
raises :class:`SchemaMismatch` naming the line number.  Writes take an
exclusive ``flock`` on the file, so concurrent appenders to one path
serialize instead of interleaving partial lines.
"""

from __future__ import annotations

import fcntl
import json
from dataclasses import dataclass
from os import PathLike
from typing import Any, Iterable

from .errors import SchemaMismatch

SCHEMA_VERSION = 1
KINDS = ("invariants", "tuple", "certificate")
_RECORD_KEYS = frozenset({"schema_version", "kind", "payload", "created_at"})


@dataclass(frozen=True, slots=True)
class CatalogRecord:
    """One catalog line: a kind tag, a payload dict, and a creation stamp.

    ``created_at`` is an ISO timestamp or empty for reproducible files.  The
    line's ``schema_version`` is always :data:`SCHEMA_VERSION`, the only one
    :func:`read_catalog` accepts, so it is no field of the record.
    """

    kind: str
    payload: dict[str, Any]
    created_at: str = ""


def record_to_line(record: CatalogRecord) -> str:
    if record.kind not in KINDS:
        raise SchemaMismatch(f"unknown record kind {record.kind!r}")
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": record.kind,
            "payload": record.payload,
            "created_at": record.created_at,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def write_catalog(records: Iterable[CatalogRecord], path: str | PathLike[str]) -> int:
    """Append records to the JSONL file at ``path``; returns the count written.

    Every line carries :data:`SCHEMA_VERSION`.  Lines are rendered before the
    lock is taken, so a schema error cannot leave a half-written file behind.
    """
    lines = [record_to_line(record) for record in records]
    with open(path, "a", encoding="utf-8", newline="\n") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            for line in lines:
                handle.write(line + "\n")
            handle.flush()
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
    return len(lines)


def read_catalog(path: str | PathLike[str]) -> list[CatalogRecord]:
    """Parse the JSONL file at ``path`` into records, strictly.

    Raises :class:`SchemaMismatch` naming the line number for invalid JSON,
    a wrong key set, an unsupported schema version (or one that is not an
    ``int``, such as ``true`` or ``1.0``), or an unknown kind.
    """
    records: list[CatalogRecord] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaMismatch(f"line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise SchemaMismatch(f"line {lineno}: expected an object")
            if set(obj) != _RECORD_KEYS:
                raise SchemaMismatch(
                    f"line {lineno}: expected keys {sorted(_RECORD_KEYS)}, "
                    f"got {sorted(obj)}"
                )
            version = obj["schema_version"]
            # true and 1.0 compare equal to 1, but only an int is a version.
            if (
                isinstance(version, bool)
                or not isinstance(version, int)
                or version != SCHEMA_VERSION
            ):
                raise SchemaMismatch(
                    f"line {lineno}: unsupported schema_version {version!r} "
                    f"(expected {SCHEMA_VERSION})"
                )
            kind = obj["kind"]
            if kind not in KINDS:
                raise SchemaMismatch(f"line {lineno}: unknown record kind {kind!r}")
            payload = obj["payload"]
            if not isinstance(payload, dict):
                raise SchemaMismatch(f"line {lineno}: payload must be an object")
            created_at = obj["created_at"]
            if not isinstance(created_at, str):
                raise SchemaMismatch(f"line {lineno}: created_at must be a string")
            records.append(CatalogRecord(kind, payload, created_at))
    return records
