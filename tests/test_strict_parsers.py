"""Every refusal of the strict JSON parsers, field by field, in exact words.

The payload is a two-member certificate at two multiples.  Each case breaks
one field (or two, to pin which fault is reported first) and names the
:class:`SchemaMismatch` text, ``where`` path included.  The wording is
restated here, not taken from the parsers.
"""

from __future__ import annotations

import copy
from collections import UserString
from collections.abc import Iterator, Mapping
from types import MappingProxyType
from typing import Any

import pytest

from bidouble import CoverType, SchemaMismatch, zariski_certificate
from bidouble.search import CataneseTuple
from bidouble.serialize import (
    certificate_from_json,
    certificate_to_json,
    profile_from_json,
    tuple_from_json,
    tuple_to_json,
)
from bidouble.topology import HomeoClassKey

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)
CERT = zariski_certificate([TYPE_1, TYPE_2], [5, 6])
PAYLOAD = certificate_to_json(CERT)
MISSING = object()

#: (path to the object, its ``where``, its integer, decimal-string and string fields).
OBJECTS = [
    (("members", 0), "certificate.members[0]", ("a", "b", "m2", "n2"), (), ()),
    (("members", 1), "certificate.members[1]", ("a", "b", "m2", "n2"), (), ()),
    (("shared",), "certificate.shared", ("kk", "chi"), (), ()),
    (
        ("profiles", 1),
        "certificate.profiles[1]",
        ("mult", "ram_mult"),
        ("deg_f", "deg_b", "half_deg", "genus", "cusps", "nodes"),
        (),
    ),
    (("argument", 2), "certificate.argument[2]", ("step",), (), ("name", "statement")),
]
#: A value that is no integer field, and how a message shows it.
NOT_INTS = [(MISSING, "None"), (True, "True"), (False, "False"), (1.0, "1.0"),
            ("16", "'16'"), ([16], "[16]"), ({}, "{}")]
NOT_STRINGS = [(MISSING, "None"), (True, "True"), (1.0, "1.0"), (16, "16"), (["x"], "['x']"),
               (UserString("16"), "'16'")]
NOT_DECIMALS = ["0829440", "+829440", " 829440", "829440 ", "829_440", "-0", "", "1e3",
                "٨٢٩", "８２９"]


def changed(payload: Any, *edits: tuple[tuple[Any, ...], Any]) -> Any:
    """A deep copy of ``payload`` with each (path, value) set, or deleted for MISSING."""
    out = copy.deepcopy(payload)
    for path, value in edits:
        *head, last = path
        target = out
        for key in head:
            target = target[key]
        if value is MISSING:
            del target[last]
        else:
            target[last] = value
    return out


def one_fault_cases() -> Iterator[Any]:
    for at, where, ints, decimals, strings in OBJECTS:
        for field in ints:
            for value, shown in NOT_INTS:
                yield pytest.param(
                    ((*at, field), value),
                    f"{where}: field '{field}' must be an integer, got {shown}",
                    id=f"{where}.{field}={shown}",
                )
        for field in decimals:
            for value, shown in [*NOT_STRINGS, (829440, "829440")]:
                yield pytest.param(
                    ((*at, field), value),
                    f"{where}: field '{field}' must be a decimal string, got {shown}",
                    id=f"{where}.{field}={shown}",
                )
            for text in NOT_DECIMALS:
                yield pytest.param(
                    ((*at, field), text),
                    f"{where}: field '{field}' is not a decimal string: {text!r}",
                    id=f"{where}.{field}={text!r}",
                )
        for field in strings:
            for value, shown in NOT_STRINGS:
                yield pytest.param(
                    ((*at, field), value),
                    f"{where}: field '{field}' must be a string, got {shown}",
                    id=f"{where}.{field}={shown}",
                )
        # The object itself in the wrong container, or missing.
        for value, shown in [([1, 2], "list"), ("x", "str"), (7, "int"), (MISSING, "NoneType")]:
            if value is MISSING and at[0] != "shared":
                continue
            yield pytest.param(
                (at, value), f"{where}: expected an object, got {shown}", id=f"{where}={shown}"
            )
    for field in ("members", "profiles", "argument", "indices"):
        for value, shown in [(MISSING, "None"), ({}, "{}"), ("x", "'x'"), ((1,), "(1,)")]:
            yield pytest.param(
                ((field,), value),
                f"certificate: field '{field}' must be an array, got {shown}",
                id=f"{field}={shown}",
            )
    for value, shown in NOT_INTS[1:]:
        yield pytest.param(
            (("indices", 1), value),
            f"certificate.indices[1] must be an integer, got {shown}",
            id=f"indices[1]={shown}",
        )


@pytest.mark.parametrize(("edit", "message"), list(one_fault_cases()))
def test_certificate_parser_refuses_each_field_in_its_words(
    edit: tuple[tuple[Any, ...], Any], message: str
) -> None:
    with pytest.raises(SchemaMismatch) as excinfo:
        certificate_from_json(changed(PAYLOAD, edit))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    ("edits", "message"),
    [
        # A profile's six decimal strings are checked before mult and ram_mult.
        (
            [(("profiles", 1, "deg_f"), 1.0), (("profiles", 1, "mult"), MISSING)],
            "certificate.profiles[1]: field 'deg_f' must be a decimal string, got 1.0",
        ),
        (
            [(("profiles", 1, "ram_mult"), True), (("profiles", 1, "nodes"), "01")],
            "certificate.profiles[1]: field 'nodes' is not a decimal string: '01'",
        ),
        (
            [(("profiles", 1, "mult"), True), (("profiles", 1, "ram_mult"), None)],
            "certificate.profiles[1]: field 'mult' must be an integer, got True",
        ),
        (
            [(("profiles", 1, "nodes"), 5), (("profiles", 1, "cusps"), "05")],
            "certificate.profiles[1]: field 'cusps' is not a decimal string: '05'",
        ),
        # Fields in their order, elements in theirs.
        (
            [(("members", 0, "n2"), MISSING), (("members", 0, "a"), 1.0)],
            "certificate.members[0]: field 'a' must be an integer, got 1.0",
        ),
        (
            [(("argument", 0, "statement"), None), (("argument", 0, "step"), True)],
            "certificate.argument[0]: field 'step' must be an integer, got True",
        ),
        (
            [(("profiles", 1, "deg_f"), 5), (("profiles", 0, "cusps"), 5)],
            "certificate.profiles[0]: field 'cusps' must be a decimal string, got 5",
        ),
        # The certificate's parts in order: members, profiles, argument,
        # shared, then indices.
        (
            [(("profiles", 0, "nodes"), MISSING), (("members", 1, "a"), True)],
            "certificate.members[1]: field 'a' must be an integer, got True",
        ),
        (
            [(("argument", 4, "name"), 4), (("profiles", 1), [])],
            "certificate.profiles[1]: expected an object, got list",
        ),
        (
            [(("shared",), MISSING), (("argument", 4, "name"), MISSING)],
            "certificate.argument[4]: field 'name' must be a string, got None",
        ),
        (
            [(("indices", 0), True), (("shared", "kk"), True)],
            "certificate.shared: field 'kk' must be an integer, got True",
        ),
        # Each index is checked before their count.
        (
            [(("indices",), [18, 1.0, 2])],
            "certificate.indices[1] must be an integer, got 1.0",
        ),
        (
            [(("profiles",), {}), (("members",), {})],
            "certificate: field 'members' must be an array, got {}",
        ),
    ],
)
def test_certificate_parser_reports_the_first_of_two_faults(
    edits: list[tuple[tuple[Any, ...], Any]], message: str
) -> None:
    with pytest.raises(SchemaMismatch) as excinfo:
        certificate_from_json(changed(PAYLOAD, *edits))
    assert str(excinfo.value) == message


def proxied(value: Any) -> Any:
    """``value`` with every dict in it, nested ones included, as a read-only proxy."""
    if isinstance(value, dict):
        return MappingProxyType({key: proxied(item) for key, item in value.items()})
    if isinstance(value, list):
        return [proxied(item) for item in value]
    return value


class Fields(Mapping):
    """A mapping that is no dict, with only the methods abc.Mapping requires."""

    def __init__(self, data: dict[str, Any]) -> None:
        self._data = data

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


def test_parsers_accept_any_mapping() -> None:
    assert certificate_from_json(proxied(PAYLOAD)) == CERT
    assert certificate_from_json(PAYLOAD) == CERT
    profile = PAYLOAD["profiles"][1]
    assert profile_from_json(Fields(profile)) == CERT.profiles[1]
    pair = CataneseTuple(HomeoClassKey(10368, 1856), (TYPE_1, TYPE_2), (18, 36))
    assert tuple_from_json(proxied(tuple_to_json(pair))) == pair


def test_parsers_refuse_a_proxy_in_the_same_words() -> None:
    bad = proxied(changed(PAYLOAD, (("profiles", 1, "nodes"), "00")))
    with pytest.raises(SchemaMismatch) as excinfo:
        certificate_from_json(bad)
    assert str(excinfo.value) == (
        "certificate.profiles[1]: field 'nodes' is not a decimal string: '00'"
    )


def test_a_decimal_string_may_be_a_str_subclass() -> None:
    class Text(str):
        pass

    payload = changed(PAYLOAD, (("profiles", 1, "nodes"), Text(PAYLOAD["profiles"][1]["nodes"])))
    assert certificate_from_json(payload) == CERT


@pytest.mark.parametrize(
    ("payload", "shown"),
    [([PAYLOAD], "list"), ((PAYLOAD,), "tuple"), (None, "NoneType"), ("{}", "str")],
)
def test_certificate_parser_refuses_what_is_no_mapping(payload: Any, shown: str) -> None:
    with pytest.raises(SchemaMismatch) as excinfo:
        certificate_from_json(payload)
    assert str(excinfo.value) == f"certificate: expected an object, got {shown}"
