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
import math
import os
from dataclasses import dataclass
from itertools import chain, islice
from os import PathLike
from typing import Any, Iterable, Iterator, NoReturn

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


#: Records rendered and written at a time while :func:`write_lines` holds
#: the lock.
RECORDS_PER_CHUNK = 1024


def write_catalog(records: Iterable[CatalogRecord], path: str | PathLike[str]) -> int:
    """Append records to the JSONL file at ``path``; returns the count written.

    Each record is rendered by :func:`record_to_line` and appended by
    :func:`write_lines`, so the records may come from a generator.
    """
    return write_lines(map(record_to_line, records), path)


def write_lines(lines: Iterable[str], path: str | PathLike[str]) -> int:
    """Append catalog lines to the JSONL file at ``path``; returns the count written.

    Each line is one record as :func:`record_to_line` renders it, without
    the newline.  Lines are taken and written :data:`RECORDS_PER_CHUNK` at
    a time under one exclusive lock, so only one chunk's text is held at a
    time.  The first chunk is taken before the file is opened, and if
    anything fails after that, the file is truncated back to its length
    when the lock was taken before the error propagates: a schema error
    cannot leave a half-written file behind.  A file that did not exist is
    created only once the first chunk is in hand, so a later failure leaves
    it empty, which reads as a catalog of no records.  It is not removed:
    another writer may already hold it open, waiting for the lock.
    """
    chunks = _chunks(lines)
    first = list(islice(chunks, 1))
    written = 0
    # Unbuffered, so that nothing written can linger in a buffer past the
    # truncation.
    with open(path, "ab", buffering=0) as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            start = os.fstat(handle.fileno()).st_size
            try:
                for count, data in chain(first, chunks):
                    view = memoryview(data)
                    while view:
                        view = view[handle.write(view) :]
                    written += count
            except BaseException:
                os.ftruncate(handle.fileno(), start)
                raise
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
    return written


def _chunks(lines: Iterable[str]) -> Iterator[tuple[int, bytes]]:
    """Up to :data:`RECORDS_PER_CHUNK` lines at a time: their count and their bytes."""
    lines = iter(lines)
    while batch := list(islice(lines, RECORDS_PER_CHUNK)):
        yield len(batch), "".join(line + "\n" for line in batch).encode()


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(text: str) -> float:
    """A JSON float, refused when it overflows a double to an infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} overflows a double")
    return value


def read_catalog(path: str | PathLike[str]) -> list[CatalogRecord]:
    """Parse the JSONL file at ``path`` into records, strictly.

    Raises :class:`SchemaMismatch` naming the line number for invalid JSON
    (including bytes that are not UTF-8, ``NaN`` or the infinities, and
    numbers that overflow a double), a wrong key set, an unsupported schema
    version (or one that is not an ``int``, such as ``true`` or ``1.0``), or
    an unknown kind.  A line of JSON whitespace alone is skipped; any other
    character around a record, such as U+001C or U+0085, is invalid JSON.
    """
    records: list[CatalogRecord] = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                # str.strip() would also drop characters that JSON rejects.
                line = raw.decode("utf-8").strip(" \t\n\r")
                if not line:
                    continue
                obj = json.loads(
                    line, parse_constant=_reject_constant, parse_float=_finite_float
                )
            except ValueError as exc:  # also UnicodeDecodeError and JSONDecodeError
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
