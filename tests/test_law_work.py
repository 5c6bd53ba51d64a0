"""The grade-value work of the law checks, and the shortcuts that cut it.

A universe law check works on codes (each kind's ids in its algebra's value
table) and moves each reached value along each direct step once; a finite
table's memo rows are filled from the table itself; two tables equal but
for their names share one load-time report; and the join table's check
reads a bitmask per pair before it walks.  Each shortcut is held against
the work it replaces.
"""

import json
import pathlib
import random
from collections import Counter
from dataclasses import replace
from itertools import product as iproduct

import pytest

from gradefj import hetero
from gradefj.grades import (
    AFFINITY,
    BOOLEAN,
    PPRIVACY,
    PRIVACY,
    FiniteAlgebra,
    Hom,
    Indexed,
    Memo,
    validate_algebra,
)
from gradefj.hetero import (
    KindedGrade,
    UniverseError,
    check_universe_laws,
    load_universe,
    universe_from_config,
)

TESTS = pathlib.Path(__file__).parent
UNIVERSES = sorted(p for p in [*(TESTS / "corpus").glob("*.json"),
                               *(TESTS / "programs").glob("*.json")]
                   if "kinds" in json.loads(p.read_text()))


def rows(report):
    return [(r.law, r.ok, r.witness) for r in report.results]


def _passing(path):
    try:
        u = load_universe(str(path))
    except UniverseError:
        return None
    return u if check_universe_laws(load_universe(str(path))).ok else None


@pytest.mark.parametrize("path", UNIVERSES, ids=lambda p: p.name)
def test_a_law_check_builds_and_applies_only_what_is_new(monkeypatch, path):
    # each of two checks of one passing universe object builds no KindedGrade
    # equal to a grade the universe already holds and applies at most one
    # hom per (reached value, direct step), and the two report the same
    u = _passing(path)
    if u is None:
        pytest.skip("the universe is refused, or fails a law")
    held = u.indexed._ids
    built, apply = KindedGrade.__init__, Hom.apply
    reports, work = [], []
    for _ in range(2):
        seen = Counter(held=0, apply=0)

        def counted_init(self, *args, seen=seen, **kwargs):
            built(self, *args, **kwargs)
            seen["held"] += self in held

        def counted_apply(self, a, seen=seen):
            seen["apply"] += 1
            return apply(self, a)

        with monkeypatch.context() as patch:
            patch.setattr(KindedGrade, "__init__", counted_init)
            patch.setattr(Hom, "apply", counted_apply)
            reports.append(check_universe_laws(u))
        work.append(seen)
    r = hetero._Reach(u, u.sample_pool())
    bound = sum(len(r.reached(k)) * len(r.supers[k]) for k in r.names)
    assert reports[0].ok and rows(reports[1]) == rows(reports[0])
    for seen in work:
        assert seen["held"] == 0 and seen["apply"] <= bound, seen


# -- finite tables ------------------------------------------------------------

def _chain(name, n):
    elems = [f"e{i}" for i in range(n)]
    rank = {e: i for i, e in enumerate(elems)}
    return {"name": name, "elements": elems,
            "leq": [[a, b] for a in elems for b in elems if rank[a] <= rank[b]],
            "sum": {a: {b: max(a, b, key=rank.get) for b in elems} for a in elems},
            "mul": {a: {b: min(a, b, key=rank.get) for b in elems} for a in elems},
            "zero": elems[0], "one": elems[-1]}


def test_tables_equal_but_for_their_names_share_one_report():
    u = load_universe(str(TESTS / "programs" / "chain32_edge.json"))
    a, b = u.law_reports["K32a"], u.law_reports["K32b"]
    assert u.kinds["K32a"].table.name != u.kinds["K32b"].table.name and a is b
    for kind in ("K32a", "K32b"):
        unshared = validate_algebra(u.kinds[kind])
        assert rows(u.law_reports[kind]) == rows(unshared) and unshared.whole


def test_tables_that_differ_otherwise_are_checked_each():
    # the same chain with its elements listed in another order, and a
    # chain one element longer: each is checked on its own
    c4, c5 = _chain("c4", 4), _chain("c5", 5)
    shuffled = dict(c4, name="c4r", elements=c4["elements"][::-1])
    u = universe_from_config({"kinds": {"A": {"table": c4}, "B": {"table": shuffled},
                                        "C": {"table": dict(c5, name="c4")},
                                        "D": {"table": dict(c4, name="c4d")}},
                              "edges": []})
    reports = u.law_reports
    assert reports["A"] is reports["D"]
    assert reports["B"] is not reports["A"] and reports["C"] is not reports["A"]
    for kind in "ABCD":
        assert rows(reports[kind]) == rows(validate_algebra(u.kinds[kind]))


def test_a_failing_table_shares_no_report():
    # a failing report's witness may print its algebra's name, so a table
    # that fails is checked under its own name
    bad = _chain("bad", 3)
    bad["sum"]["e2"]["e2"] = "e0"
    algs = [FiniteAlgebra(hetero.table_from_config(dict(bad, name=name)))
            for name in ("bad", "other")]
    tables, reports = Memo(Indexed), {}
    got = [hetero._load_report(tables, reports, alg) for alg in algs]
    assert not got[0].ok and got[0] is not got[1]
    assert [rows(report) for report in got] == [rows(validate_algebra(alg)) for alg in algs]


@pytest.mark.parametrize("alg", [AFFINITY, BOOLEAN, PRIVACY, PPRIVACY,
                                 FiniteAlgebra(hetero.table_from_config(_chain("c6", 6)))],
                         ids=lambda a: a.table.name)
def test_filled_rows_are_the_operations(alg):
    # the memo rows validate_algebra fills from the table read as the
    # algebra's own operations do, on every pair of its elements
    filled, computed = Indexed(alg), Indexed(alg)
    validate_algebra(alg, filled)
    ids = [computed.id(v) for v in alg.elements()]
    assert [filled.id(v) for v in alg.elements()] == ids
    for i, j in iproduct(ids, ids):
        assert filled._add[i][j] == computed.add(i, j)
        assert filled._mul[i][j] == computed.mul(i, j)
        assert filled._leq[i][j] == computed.leq(i, j)
    assert rows(validate_algebra(alg, filled)) == rows(validate_algebra(alg, computed))


def test_a_finite_algebra_builds_its_elements_once():
    table = replace(PRIVACY.table, name="p2")
    alg = FiniteAlgebra(table)
    first = alg.elements()
    assert all(x is y for x, y in zip(first, alg.elements()))
    assert alg.zero() is first[0] and alg.add(first[1], first[2]) is first[2]
    assert alg.parse_payload("public") is first[2]


# -- the join table -----------------------------------------------------------

def _walked_join_fault(join_table, kinds):
    """The join table's first fault, found by walking every pair and every
    third kind, in order."""
    join = lambda a, b: join_table[a, b]
    for k1 in kinds:
        if join(k1, k1) != k1:
            return f"join not idempotent at {k1}"
        if join(k1, "N") != k1:
            return f"N is not a join unit at {k1}"
        for k2 in kinds:
            if join(k1, k2) != join(k2, k1):
                return f"join not commutative at {k1},{k2}"
            for k3 in kinds:
                if join(join(k1, k2), k3) != join(k1, join(k2, k3)):
                    return f"join not associative at {k1},{k2},{k3}"
    return None


def _random_join_tables(count, seed=41):
    """Join tables on N, T and three more kinds: mostly commutative,
    idempotent and with unit N, some of them the joins of a random order
    (so associative), some with a planted fault."""
    rng = random.Random(seed)
    kinds = ["A", "B", "C", "N", "T"]
    for _ in range(count):
        table = {}
        if rng.random() < 0.3:  # the joins of a random partial order with top T
            up = {k: {k, "T"} for k in kinds}
            for a, b in iproduct("CBA", "ABC"):  # b's up-set is whole before a reads it
                if a < b and rng.random() < 0.5:
                    up[a] |= up[b]
            for k in kinds:
                up["N"].add(k)
            for a, b in iproduct(kinds, kinds):
                common = up[a] & up[b]
                least = [c for c in common if common <= up[c]]
                table[a, b] = least[0] if least else "T"
        else:
            for a, b in iproduct(kinds, kinds):
                if a == b or "N" in (a, b):
                    table[a, b] = b if a == "N" else a
                elif (b, a) in table:
                    table[a, b] = table[b, a]
                else:
                    table[a, b] = rng.choice(kinds)
        if rng.random() < 0.2:  # a planted fault at one entry
            table[rng.choice(kinds), rng.choice(kinds)] = rng.choice(kinds)
        yield table, kinds


def test_the_join_check_finds_the_walk_s_first_fault():
    verdicts = Counter()
    for table, kinds in _random_join_tables(3000):
        want = _walked_join_fault(table, kinds)
        assert hetero._join_fault(table, kinds) == want
        verdicts[want.split(" at ")[0] if want else None] += 1
    assert verdicts[None] > 300 and verdicts["join not associative"] > 300
    assert min(verdicts.values()) > 20 and len(verdicts) == 5
