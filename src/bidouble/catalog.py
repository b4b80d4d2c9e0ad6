"""Append-only JSONL catalog of computation records.

One JSON object per line, each with exactly the keys ``schema_version``,
``kind``, ``payload``, ``created_at``.  Reads are strict: any malformed line
raises :class:`SchemaMismatch` naming the line number, and writes refuse in
the same words every record whose line a read would refuse.  Writes take an
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
from typing import Any, Iterable, NoReturn

from .errors import SchemaMismatch, is_int

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
    """The record's line, without a newline; refused in :func:`read_catalog`'s words.

    A payload that :mod:`json` cannot encode at all, such as one holding an
    ``object()`` or mixing ``int`` and ``str`` keys, which ``sort_keys``
    cannot order, is refused too, as not encodable.
    """
    obj = {"schema_version": SCHEMA_VERSION, "kind": record.kind,
           "payload": record.payload, "created_at": record.created_at}
    reason = _record_error(obj)
    if reason is None:
        try:
            return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
        except TypeError as exc:
            reason = f"not encodable as JSON ({exc})"
        except ValueError:  # NaN or an infinity, named as the reader names it
            try:
                json.loads(json.dumps(obj, sort_keys=True), parse_constant=_reject_constant)
            except ValueError as exc:
                reason = f"invalid JSON ({exc})"
    raise SchemaMismatch(reason)


#: Records :func:`write_catalog` renders and writes per chunk under the lock, or
#: tuples per chunk of a search output, unless one bucket holds more.
RECORDS_PER_CHUNK = 1024


def write_catalog(records: Iterable[CatalogRecord], path: str | PathLike[str]) -> int:
    """Append records to the JSONL file at ``path``; returns the count written.

    Records are rendered by :func:`record_to_line` into chunks of
    :data:`RECORDS_PER_CHUNK` lines that :func:`write_chunks` appends, so
    they may come from a generator.
    """
    lines = (record_to_line(record) + "\n" for record in records)
    return write_chunks(iter(lambda: "".join(islice(lines, RECORDS_PER_CHUNK)), ""), path)


def write_chunks(chunks: Iterable[str], path: str | PathLike[str]) -> int:
    """Append newline-terminated chunks of catalog lines to ``path``; returns the records written.

    A record escapes every control character, so each newline ends one.
    The chunks are taken and written one at a time under one exclusive
    lock.  The first chunk is taken before the file is opened, and if
    anything fails after that, the file is truncated back to its length
    when the lock was taken before the error propagates: a schema error
    cannot leave a half-written file behind.  A file that did not exist is
    created only once the first chunk is in hand, so a later failure leaves
    it empty, which reads as a catalog of no records.  It is not removed:
    another writer may already hold it open, waiting for the lock.
    """
    chunks = iter(chunks)
    first = list(islice(chunks, 1))
    written = 0
    # Unbuffered, so that nothing written can linger in a buffer past the
    # truncation.
    with open(path, "ab", buffering=0) as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            start = os.fstat(handle.fileno()).st_size
            try:
                for chunk in chain(first, chunks):
                    data = chunk.encode()
                    view = memoryview(data)
                    while view:
                        view = view[handle.write(view) :]
                    written += data.count(b"\n")
            except BaseException:
                os.ftruncate(handle.fileno(), start)
                raise
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
    return written


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(text: str) -> float:
    """A JSON float, refused when it overflows a double to an infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} overflows a double")
    return value


def _record_error(obj: Any) -> str | None:
    """Why the parsed line ``obj`` is not a catalog record, or None if it is one."""
    if not isinstance(obj, dict):
        return "expected an object"
    if set(obj) != _RECORD_KEYS:
        return f"expected keys {sorted(_RECORD_KEYS)}, got {sorted(obj)}"
    version = obj["schema_version"]
    if not is_int(version) or version != SCHEMA_VERSION:
        return f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
    if obj["kind"] not in KINDS:
        return f"unknown record kind {obj['kind']!r}"
    if not isinstance(obj["payload"], dict):
        return "payload must be an object"
    if not isinstance(obj["created_at"], str):
        return "created_at must be a string"
    return None


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
            if (reason := _record_error(obj)) is not None:
                raise SchemaMismatch(f"line {lineno}: {reason}")
            records.append(CatalogRecord(obj["kind"], obj["payload"], obj["created_at"]))
    return records
