"""Seeded inputs and independent oracles for the benchmark workloads.

Nothing here imports ``bidouble``: the oracles restate the closed forms from
the package documentation so that the benchmark can check the program's
outputs instead of trusting them, and the generators only see plain tuples.
Every generator takes a ``random.Random`` built from the workload, the seed
and the repetition number, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from math import gcd

#: Canonical multiples certified by each certify-roundtrip request.
CERT_MULTS = tuple(range(5, 13))

#: Share of requests that are wrong on purpose and must be refused.
REFUSED_SHARE = 0.10

#: cli-mix subcommands; the first five take --type flags.
TYPED_COMMANDS = ("invariants", "check-pair", "check-tuple", "discriminant", "certify")
COMMANDS = TYPED_COMMANDS + ("search", "verify-paper-example")

Type4 = tuple[int, int, int, int]


def invariants(t: Type4) -> tuple[int, int, int]:
    """(K^2, chi, r) of an admissible type, straight from the closed forms."""
    a, b, m2, n2 = t
    u, v, w, z = n2 + a - 2, m2 + b - 2, a - n2, m2 - b
    return 8 * u * v, (3 * u * v) // 2 + u + v + 2 - (w * z) // 2, gcd(u, v)


def admissible(t: Type4) -> bool:
    a, b, m2, n2 = t
    return a > 2 * n2 and n2 >= 3 and m2 > 2 * b and b >= 3 and (a - n2) % 2 == 0 and (b - m2) % 2 == 0


def canonical(t: Type4) -> Type4:
    a, b, m2, n2 = t
    return min(t, (m2, n2, a, b))


def type_count(bound: int) -> int:
    """|P|(|P|+1)/2, with P the branch pairs of :func:`admissible` up to ``bound``."""
    pairs = sum(len(range(2 * y + (1 if y % 2 else 2), bound + 1, 2)) for y in range(3, bound // 2 + 1))
    return pairs * (pairs + 1) // 2


def profile(kk: int, chi: int, mult: int) -> dict[str, int]:
    """Discriminant data at one multiple, from the closed forms in m."""
    deg_b = mult * (3 * mult + 1) * kk
    genus = (3 * mult + 1) * (3 * mult + 2) * kk // 2 + 1
    cusps = kk * (12 * mult * mult + 9 * mult) + 3 * kk - 12 * chi
    nodes = (deg_b - 1) * (deg_b - 2) // 2 - genus - cusps
    return {"mult": mult, "deg_b": deg_b, "genus": genus, "cusps": cusps, "nodes": nodes}


def profile_error(got: dict, kk: int, chi: int, mult: int) -> str | None:
    """Compare a serialized profile (big fields as decimal strings) with the closed forms."""
    want = profile(kk, chi, mult)
    for field, value in want.items():
        if int(got.get(field, -1)) != value:
            return f"profile m={mult} field {field}: got {got.get(field)!r}, want {value}"
    return None


def catanese(types: list[Type4]) -> bool:
    inv = [invariants(t) for t in types]
    keys = {(kk, chi) for kk, chi, _ in inv}
    indices = [r for _, _, r in inv]
    return len(keys) == 1 and len(set(indices)) == len(indices)


def pool_error(pool: list[dict]) -> str | None:
    """First pool tuple that the oracle does not confirm as a Catanese tuple."""
    for entry in pool:
        members = [tuple(m) for m in entry["members"]]
        inv = [invariants(m) for m in members]
        if members != sorted(canonical(m) for m in members) or not all(map(admissible, members)):
            return f"pool tuple {members} is not sorted canonical admissible types"
        if any((kk, chi) != tuple(entry["key"]) for kk, chi, _ in inv):
            return f"pool tuple {members} does not share key {entry['key']}"
        if [r for _, _, r in inv] != entry["indices"] or not catanese(members):
            return f"pool tuple {members} has wrong or repeated indices {entry['indices']}"
    return None


def random_type(rng: random.Random) -> Type4:
    """An admissible type drawn independently of any search."""
    n2, b = rng.randint(3, 40), rng.randint(3, 40)
    a = n2 + 2 * rng.randint(n2 // 2 + 1, n2 // 2 + 20)
    m2 = b + 2 * rng.randint(b // 2 + 1, b // 2 + 20)
    return (a, b, m2, n2)


def inadmissible_type(rng: random.Random) -> Type4:
    """A type with positive fields that breaks one admissibility constraint."""
    a, b, m2, n2 = random_type(rng)
    broken = rng.choice(((2 * n2, b, m2, n2), (a, b, 2 * b, b), (a + 1, b, m2, n2), (a, b, m2 + 1, n2)))
    assert not admissible(broken)
    return broken


def _presented(rng: random.Random, members) -> list[Type4]:
    """Members in shuffled order, each in canonical or branch-swapped form."""
    out = [tuple(m) for m in members]
    rng.shuffle(out)
    return [(m[2], m[3], m[0], m[1]) if rng.random() < 0.5 else m for m in out]


def certify_requests(rng: random.Random, pool: list[dict], count: int) -> list[dict]:
    """Tuple requests for certify-roundtrip.

    Nine in ten are pool tuples, shuffled and partly branch-swapped; the rest
    repeat a member (equal index) or mix two buckets (differing key) and must
    be refused.
    """
    requests = []
    for _ in range(count):
        entry = rng.choice(pool)
        if rng.random() >= REFUSED_SHARE:
            requests.append({"members": _presented(rng, entry["members"]), "expect": entry})
            continue
        members = list(entry["members"])
        if rng.random() < 0.5:
            members[-1] = members[0]
        else:
            other = rng.choice(pool)
            while other["key"] == entry["key"]:
                other = rng.choice(pool)
            members[-1] = other["members"][0]
        requests.append({"members": _presented(rng, members), "expect": None})
    return requests


def _csv(rows: int, column: str | None = None, values=()) -> dict:
    return {"rows": rows, "column": column, "values": [str(v) for v in values]}


def _type_flags(types) -> list[str]:
    return [arg for t in types for arg in ("--type", ",".join(map(str, t)))]


def _mult_flags(mults) -> list[str]:
    return [arg for m in mults for arg in ("--m", str(m))]


def _profile_checks(kk: int, chi: int, mults) -> list:
    return [[["profiles", i, field], str(value)]
            for i, m in enumerate(mults) for field, value in profile(kk, chi, m).items() if field != "mult"]


def _cli_deck(rng: random.Random, count: int) -> list[tuple[str, bool, int]]:
    """(command, refused, search bound) per call, stratified in shuffled blocks.

    Each block of 70 calls holds every command nine times plus seven refused
    typed calls, and search bounds cycle through 20..30, so that two seeds give
    the same mix in a different order and cost differences come from the
    program, not from the draw.
    """
    deck: list[tuple[str, bool, int]] = []
    bounds: list[int] = []
    while len(deck) < count:
        block = [(c, False) for c in COMMANDS for _ in range(9)]
        block += [(rng.choice(TYPED_COMMANDS), True) for _ in range(7)]
        rng.shuffle(block)
        for command, refused in block:
            if not bounds:
                bounds = list(range(20, 31))
                rng.shuffle(bounds)
            deck.append((command, refused, bounds.pop() if command == "search" else 0))
    return deck[:count]


def cli_calls(rng: random.Random, pool: list[dict], search_counts: dict, count: int) -> list[dict]:
    """A mix of cli.main argument lists with their expected exit code and output.

    ``expect["json"]`` lists (key path, value) pairs for JSON output and
    ``expect["csv"]`` the data-row count and one column's values for CSV.
    """
    calls = []
    for command, refused, bound in _cli_deck(rng, count):
        fmt = "csv" if rng.random() < 0.5 else "json"
        entry = rng.choice(pool)
        mults = sorted(rng.sample(range(5, 13), rng.randint(1, 3)))
        if command == "invariants":
            types = [rng.choice(entry["members"]) if rng.random() < 0.5 else random_type(rng)]
            kk, chi, r = invariants(types[0])
            argv, checks = [], [[["kk"], kk], [["chi"], chi], [["r"], r]]
            table = _csv(1, "kk", [kk])
        elif command == "check-pair":
            roll = rng.random()
            types = list(entry["members"][:2]) if roll < 0.5 else [entry["members"][0], random_type(rng) if roll < 0.75 else entry["members"][0]]
            (k1, c1, r1), (k2, c2, r2) = map(invariants, types)
            homeo = (k1, c1) == (k2, c2)
            obstruction = None if not homeo else ("not_diffeomorphic" if r1 != r2 else "inconclusive")
            argv, checks = [], [[["homeomorphic"], homeo], [["obstruction"], obstruction], [["indices"], [r1, r2]]]
            table = _csv(1, "homeomorphic", [homeo])
        elif command == "check-tuple":
            types = _presented(rng, entry["members"])
            if rng.random() < 0.25:
                types[rng.randrange(len(types))] = random_type(rng)
            verdict = catanese(types)
            argv = []
            checks = [[["is_catanese"], verdict], [["indices"], [invariants(t)[2] for t in types]]]
            table = _csv(len(types), "is_catanese", [verdict] * len(types))
        elif command == "discriminant":
            types = [rng.choice(entry["members"]) if rng.random() < 0.5 else random_type(rng)]
            kk, chi, _ = invariants(types[0])
            argv, checks = _mult_flags(mults), _profile_checks(kk, chi, mults)
            table = _csv(len(mults), "deg_b", [profile(kk, chi, m)["deg_b"] for m in mults])
        elif command == "certify":
            types = _presented(rng, entry["members"])
            mults = mults if rng.random() < 0.8 else []
            kk, chi = entry["key"]
            argv = _mult_flags(mults)
            checks = [[["shared"], {"kk": kk, "chi": chi}], [["indices"], entry["indices"]],
                      [["members"], [dict(zip(("a", "b", "m2", "n2"), m)) for m in entry["members"]]]]
            checks += _profile_checks(kk, chi, mults)
            table = _csv(max(1, len(mults)), "kk", [kk] * max(1, len(mults)))
        elif command == "search":
            k = rng.choice((2, 3))
            types_n, buckets, tuples = search_counts[f"{bound}/{k}"]
            assert types_n == type_count(bound)
            types, argv = [], ["--bound", str(bound), "--k", str(k)]
            checks = [[["type_count"], types_n], [["bucket_count"], buckets], [["tuple_count"], tuples]]
            table = _csv(tuples)
        else:
            mults = mults if rng.random() < 0.7 else []
            types, argv = [], _mult_flags(mults)
            checks = [[["pattern_ok"], True]]
            table = _csv(4 + 3 * len(mults) if mults else 13)
        if refused:
            types = list(types)
            types[rng.randrange(len(types))] = inadmissible_type(rng)
            expect = {"code": 1, "json": [[["error"], "ConstraintViolation"]], "csv": None}
        else:
            expect = {"code": 0, "json": checks, "csv": table}
        argv = [command, *_type_flags(types), *argv, "--format", fmt]
        calls.append({"command": command, "argv": argv, "format": fmt, "expect": expect})
    return calls
