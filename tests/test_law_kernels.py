"""The row kernels of the law checks against the case-by-case reference.

Each report must equal ``law_reference``'s law by law, witness text
included: on the corpus and ``tests/programs`` universes, on seeded
single-entry mutations of finite tables, on infinite kinds, on broken maps
given to ``validate_hom``, on universes whose homs or joins were altered
after validation, and where structure decides an algebra or a map.
"""

import json
import pathlib
import random
import re
from dataclasses import replace
from functools import partial
from itertools import product as iproduct

import pytest

import law_reference as ref
from gradefj import grades, hetero
from gradefj.grades import (
    AFFINITY,
    AXIOMS,
    BOOLEAN,
    EXTREAL,
    NAT,
    PPRIVACY,
    PRIVACY,
    TRIVIAL,
    ExtReal,
    ExtendAlgebra,
    FiniteAlgebra,
    FiniteElem,
    FiniteMapHom,
    FiniteTable,
    IdentityHom,
    Indexed,
    IotaHom,
    Nat,
    PairValue,
    ProductAlgebra,
    ProjLeftHom,
    ProjRightHom,
    iota,
    structural_hom,
    structural_report,
    validate_algebra,
    validate_hom,
)
from gradefj.grades import CarrierMismatch, PartialMap
from gradefj.hetero import (
    KindedAlgebra,
    KindedGrade,
    RefinementEdge,
    UniverseError,
    builtin_law_report,
    builtin_name,
    algebra_from_config,
    check_universe_laws,
    hom_from_config,
    load_universe,
    universe_from_config,
    validate_universe,
)

TESTS = pathlib.Path(__file__).parent
CORPUS_UNIVERSES = sorted(p for p in (TESTS / "corpus").glob("*.json")
                          if "kinds" in json.loads(p.read_text()))


def rows(report):
    return [(r.law, r.ok, r.witness) for r in report.results]


def assert_same_algebra_report(spec):
    want = ref.validate_algebra(spec)
    assert rows(validate_algebra(spec)) == rows(want)
    return want


def outcome(check, u):
    """The report's rows, or the error the check raised."""
    try:
        return rows(check(u))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def assert_same_universe_report(make):
    """``make()`` builds the universe afresh, so that neither check reads
    memo rows the other filled."""
    want = outcome(ref.check_universe_laws, make())
    assert outcome(check_universe_laws, make()) == want
    return want


@pytest.mark.parametrize("path", CORPUS_UNIVERSES + [TESTS / "programs" / "chain_pool80.json",
                                                     TESTS / "programs" / "real_product_chain.json"],
                         ids=lambda p: p.name)
def test_universe_reports_match_the_reference(path):
    u = load_universe(str(path))
    for kind, spec in u.kinds.items():
        want = assert_same_algebra_report(spec)
        # a user-built kind's report is made at load, a builtin's once per process
        name = builtin_name(spec)
        assert rows(u.law_reports[kind] if name is None else builtin_law_report(name)) == rows(want)
    for edge in u.edges:
        assert rows(validate_hom(edge.hom)) == rows(ref.validate_hom(edge.hom))
    assert all(ok for _, ok, _ in assert_same_universe_report(lambda: load_universe(str(path))))


def test_refused_universe_kinds_match_the_reference():
    # the diamonds are refused after their kinds' laws are checked
    cfg = json.loads((TESTS / "programs" / "diamonds_pool79.json").read_text())
    with pytest.raises(UniverseError, match="more than one refinement path"):
        universe_from_config(cfg)
    spec = universe_from_config({"kinds": {"K": cfg["kinds"]["K00"]}}).kinds["K"]
    assert assert_same_algebra_report(spec).ok


def _trivial_kinds(n):
    """n one-element kinds in a refinement chain, then n unrelated ones."""
    one = {"table": {"name": "one", "elements": ["0"], "leq": [["0", "0"]],
                     "sum": {"0": {"0": "0"}}, "mul": {"0": {"0": "0"}},
                     "zero": "0", "one": "0"}}
    kinds = {f"C{i}": one for i in range(n)} | {f"U{i}": {"builtin": "trivial"}
                                                  for i in range(n)}
    edges = [{"sub": f"C{i}", "super": f"C{i + 1}", "hom": {"map": {"0": "0"}}}
             for i in range(n - 1)]
    return {"kinds": kinds, "edges": edges}


def test_many_kind_reports_match_the_reference():
    cfg = _trivial_kinds(6)
    assert all(ok for _, ok, _ in assert_same_universe_report(lambda: universe_from_config(cfg)))


# -- seeded single-entry mutations of finite tables --------------------------

def _chain_table(n):
    elems = [str(i) for i in range(n)]
    return FiniteTable(
        name=f"chain{n}", elements=tuple(elems),
        leq=frozenset((a, b) for a in elems for b in elems if int(a) <= int(b)),
        sum={a: {b: max(a, b, key=int) for b in elems} for a in elems},
        mul={a: {b: min(a, b, key=int) for b in elems} for a in elems},
        zero="0", one=elems[-1])


BASE_TABLES = [AFFINITY.table, BOOLEAN.table, PRIVACY.table, PPRIVACY.table,
               _chain_table(4), _chain_table(5)]


def _mutated(table, op, a, b, to=None):
    """``table`` with one entry changed: ``op(a, b)`` set to ``to``, or the
    pair (a, b) toggled in the order."""
    sums = {x: dict(row) for x, row in table.sum.items()}
    muls = {x: dict(row) for x, row in table.mul.items()}
    leq = set(table.leq)
    if op == "sum":
        sums[a][b] = to
    elif op == "mul":
        muls[a][b] = to
    else:
        leq ^= {(a, b)}
    return FiniteAlgebra(FiniteTable(
        name=f"{table.name}-{op}-{a}-{b}-{to}", elements=table.elements,
        leq=frozenset(leq), sum=sums, mul=muls, zero=table.zero, one=table.one))


def _seeded_mutations(count, seed=13):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        table = rng.choice(BASE_TABLES)
        op = rng.choice(["sum", "mul", "leq"])
        a, b = rng.choice(table.elements), rng.choice(table.elements)
        if op == "leq":
            out.append(_mutated(table, op, a, b))
            continue
        now = getattr(table, op)[a][b]
        out.append(_mutated(table, op, a, b, rng.choice([e for e in table.elements
                                                         if e != now])))
    return out


MUTATIONS = _seeded_mutations(36) + [
    _mutated(_chain_table(4), "leq", "0", "2"),   # 0<=1<=2 but not 0<=2
    _mutated(_chain_table(4), "leq", "2", "1"),   # 1<=2 and 2<=1
]


@pytest.mark.parametrize("spec", MUTATIONS, ids=lambda s: s.table.name)
def test_mutated_table_reports_match_the_reference(spec):
    want = assert_same_algebra_report(spec)
    if want.results[0].ok:  # the table shape holds; check it as a kind too
        assert_same_universe_report(
            lambda: validate_universe({"X": spec}, [], validate_algebras=False))


def test_mutations_break_what_they_should():
    failing = {spec.table.name: {r.law for r in ref.validate_algebra(spec).failures()}
               for spec in MUTATIONS}
    assert sum(bool(laws) for laws in failing.values()) >= 30
    assert "order-transitive" in failing["chain4-leq-0-2-None"]
    assert "order-antisymmetric" in failing["chain4-leq-2-1-None"]


def _every_case(ix, pool):
    """``law_reference``'s report of the axioms on every case of ``pool``."""
    return ref.check_laws(ref.semiring_laws(
        ix, pool, lambda: iproduct(pool, repeat=2), lambda: iproduct(pool, repeat=3),
        lambda related: iproduct(related, repeat=2)), show=ix.show)


def _capped_sums(n, missing):
    """Elements 0..n-1 whose sum and product are both a + b capped at n - 1,
    ordered as integers but for the pair ``missing``."""
    elems = tuple(map(str, range(n)))
    op = {a: {b: str(min(int(a) + int(b), n - 1)) for b in elems} for a in elems}
    leq = {(a, b) for a in elems for b in elems if int(a) <= int(b)} - {missing}
    return FiniteAlgebra(FiniteTable(f"capped{n}", elems, frozenset(leq), op, op, "0", "1"))


# the one-sided law passes on each pool, a <= b giving a + c <= b + c and
# c + a <= c + b, but not the two-sided law, as 0 + 0 <= 1 + 3 needs 0 <= 4
# (0 <= 5): leq is not transitive on the carrier, or it is on the pool but
# not on the sums that leave it
ONE_SIDED_TRAPS = {
    "not-transitive": (_capped_sums(5, ("0", "4")), "01234"),
    "pool-left": (_capped_sums(6, ("0", "5")), "01234"),
}


@pytest.mark.parametrize("trap", ONE_SIDED_TRAPS)
def test_one_sided_monotonicity_passes_only_a_transitive_closed_pool(trap):
    spec, names = ONE_SIDED_TRAPS[trap]
    ix, ref_ix = Indexed(spec), Indexed(spec)
    pool, ref_pool = ([t.id(FiniteElem(n, spec.table.name)) for n in names] for t in (ix, ref_ix))
    want = _every_case(ref_ix, ref_pool)
    assert not {r.law: r.ok for r in want.results}["add-monotone"]
    assert rows(grades.check_laws(grades.semiring_laws(ix, pool), show=ix.show)) == rows(want)


# -- infinite kinds and maps ----------------------------------------------------

class WrappingNat(type(NAT)):
    """Naturals whose product wraps modulo 7, which the seeded cases catch."""

    def unchecked_mul(self, a, b):
        return Nat(a.n * b.n % 7) if a.n and b.n else Nat(0)


@pytest.mark.parametrize("spec", [NAT, EXTREAL, TRIVIAL, ExtendAlgebra(NAT),
                                  ProductAlgebra(AFFINITY, NAT), WrappingNat()],
                         ids=lambda s: type(s).__name__)
def test_infinite_kind_reports_match_the_reference(spec):
    assert_same_algebra_report(spec)


def test_infinite_kind_universe_matches_the_reference():
    assert_same_universe_report(lambda: validate_universe(
        {"E": ExtendAlgebra(NAT), "R": EXTREAL, "W": WrappingNat()}, [],
        validate_algebras=False))


# -- infinite kinds decided by structure, and the enumeration as the fallback ----

NAT_GRID = [Nat(n) for n in range(13)]
EXTREAL_GRID = list(dict.fromkeys(EXTREAL.parse_payload(f"{p}/{q}")
                                  for p in range(7) for q in range(1, 5))) + [ExtReal(None)]


@pytest.mark.parametrize("spec, grid", [(NAT, NAT_GRID), (EXTREAL, EXTREAL_GRID)],
                         ids=["nat", "extreal"])
def test_builtin_infinite_algebras_hold_every_axiom_on_a_grid(spec, grid):
    # structural_report trusts NAT and EXTREAL on all of their values: here
    # every case of the fourteen axioms on a grid of them, case by case, and
    # the two conditions an extension needs of its inner algebra
    ix = Indexed(spec)
    pool = [ix.id(v) for v in grid]
    assert rows(_every_case(ix, pool)) == rows(structural_report(spec)) == [
        (law, True, None) for law in AXIOMS]
    zero = ix.zero()
    for a, b in iproduct(pool, repeat=2):
        assert ix.add(a, b) != zero or a == b == zero, "a nonzero sum is 0"
        assert ix.mul(a, b) != zero or zero in (a, b), "a zero divisor"


class SaturatingRealProduct(type(EXTREAL)):
    """Extended reals whose product of two values above 1 is inf."""

    def unchecked_mul(self, a, b):
        big = ExtReal(1)
        if not (self.unchecked_leq(a, big) or self.unchecked_leq(b, big)):
            return ExtReal(None)
        return super().unchecked_mul(a, b)


@pytest.mark.parametrize("spec", [
    NAT, EXTREAL, ExtendAlgebra(NAT), ExtendAlgebra(EXTREAL), ExtendAlgebra(ExtendAlgebra(NAT)),
    ProductAlgebra(EXTREAL, BOOLEAN),
    ProductAlgebra(ExtendAlgebra(AFFINITY), ProductAlgebra(NAT, EXTREAL)),
    ProductAlgebra(ExtendAlgebra(FiniteAlgebra(_chain_table(3))), NAT)],
    ids=lambda s: s.describe())
def test_structure_proves_the_axioms_of_built_infinite_algebras(spec):
    # the seeded enumeration, which the structure replaces, passes them too
    passes = [(law, True, None) for law in AXIOMS]
    assert rows(structural_report(spec)) == rows(validate_algebra(spec)) == passes
    assert rows(ref.validate_algebra(spec)) == passes


# infinite algebras that structure does not prove: each takes the enumeration
FALLBACK = {
    # 1 * 1 = 0 in the chain 0 < 1 < 2, a lawful table whose extension
    # breaks mul-associative at (1, 1, inf)
    "extend-zero-divisors": ProductAlgebra(
        ExtendAlgebra(_mutated(_chain_table(3), "mul", "1", "1", "0")), NAT),
    # 1 + 1 = 0 in the chain 0 < 1, which breaks add-monotone in the table
    "extend-sums-to-zero": ProductAlgebra(
        ExtendAlgebra(_mutated(_chain_table(2), "sum", "1", "1", "0")), NAT),
    "extend-infinite-product": ExtendAlgebra(ProductAlgebra(BOOLEAN, NAT)),
    "faulty-finite-factor": ProductAlgebra(_mutated(_chain_table(4), "sum", "1", "2", "1"), NAT),
    "wrong-extreal-product": SaturatingRealProduct(),
}


@pytest.mark.parametrize("fault", FALLBACK)
def test_unproved_infinite_algebras_report_as_the_enumeration_and_the_reference(
        monkeypatch, fault):
    spec = FALLBACK[fault]
    assert structural_report(spec) is None and spec.elements() is None
    load = assert_same_algebra_report(spec)
    assert not load.ok
    # admitted unchecked, the kind's axioms are enumerated on its reached grades
    make = lambda: validate_universe({"K": spec}, [], validate_algebras=False)
    laws = assert_same_universe_report(make)
    with monkeypatch.context() as m:  # the enumeration alone, as if unproved
        m.setattr(grades, "structural_report", lambda spec: None)
        m.setattr(hetero, "structural_report", lambda spec: None)
        assert rows(validate_algebra(spec)) == rows(load)
        assert outcome(check_universe_laws, make()) == laws


class SkippingIota(IotaHom):
    def image(self, a):
        return iota(Nat(a.n if a.n < 5 else a.n - 1), self.target_spec)


AFF = lambda n: FiniteElem(n, "affinity")
BOOL = lambda n: FiniteElem(n, "boolean")


@pytest.mark.parametrize("hom", [
    FiniteMapHom(AFFINITY, AFFINITY, {"0": AFF("0"), "w": AFF("w")}),      # no one: hom-total
    FiniteMapHom(AFFINITY, AFFINITY, {"0": AFF("0"), "1": AFF("1")}),      # partial at w
    FiniteMapHom(AFFINITY, BOOLEAN, {"0": BOOL("0"), "1": BOOL("1"), "w": BOOL("0")}),
    FiniteMapHom(BOOLEAN, BOOLEAN, {"0": BOOL("1"), "1": BOOL("0")}),      # not monotone
    FiniteMapHom(PRIVACY, BOOLEAN, {"0": BOOL("0"), "private": BOOL("1"),
                                    "public": BOOL("1")}),
    IotaHom(ProductAlgebra(AFFINITY, PRIVACY)),
    SkippingIota(NAT),
], ids=["hom-total", "partial", "collapse-w", "swap", "privacy-to-bool", "iota", "skip-iota"])
def test_hom_reports_match_the_reference(hom):
    assert rows(validate_hom(hom)) == rows(ref.validate_hom(hom))


# -- universes altered after validation ------------------------------------------

def _pp_p_b():
    p = lambda n: FiniteElem(n, "privacy2")
    pp_to_p = FiniteMapHom(PPRIVACY, PRIVACY, {"0": p("0"), "a": p("private"),
                                               "b": p("public"), "c": p("private"),
                                               "d": p("public")})
    p_to_b = FiniteMapHom(PRIVACY, BOOLEAN, {"0": BOOL("0"), "private": BOOL("1"),
                                             "public": BOOL("1")})
    return validate_universe({"PP": PPRIVACY, "P": PRIVACY, "B": BOOLEAN},
                             [RefinementEdge("PP", "P", pp_to_p),
                              RefinementEdge("P", "B", p_to_b)])


def _off_route_hom():
    u = _pp_p_b()
    u.homs["PP", "B"] = FiniteMapHom(PPRIVACY, BOOLEAN,
                                     {n: BOOL("0" if n in "0a" else "1") for n in "0abcd"})
    return u


def _uneven_join():
    u = _pp_p_b()
    u.join_table["B", "PP"] = "T"  # join(PP, B) stays B
    return u


def _partial_hom():
    u = _pp_p_b()
    p = lambda n: FiniteElem(n, "privacy2")
    u.homs["PP", "P"] = FiniteMapHom(PPRIVACY, PRIVACY, {"0": p("0"), "a": p("private")})
    return u


def _join_into_top():
    # U's one value moved into T equals it as a value but is another kinded
    # grade: a kernel comparing ids refuses the row, and the walk passes it
    u = validate_universe({"U": TRIVIAL}, [])
    u.join_table["U", "U"] = "T"
    return u


class MovingSixteenth(IdentityHom):
    """The identity on extended reals, except that 1/16 goes to 1/8."""

    def image(self, a):
        return ExtReal(1, 8) if a == ExtReal(1, 16) else super().image(a)


def _moved_off_the_pools():
    # a -> s -> b -> c, where b -> c moves 1/16: an image of a's pool in s,
    # but neither one of s's own pool grades nor one of N's
    pair = ProductAlgebra(EXTREAL, EXTREAL)
    u = validate_universe({"a": pair, "s": EXTREAL, "b": EXTREAL, "c": EXTREAL},
                          [RefinementEdge("a", "s", ProjLeftHom(pair)),
                           RefinementEdge("s", "b", IdentityHom(EXTREAL)),
                           RefinementEdge("b", "c", IdentityHom(EXTREAL))])
    u.homs["b", "c"] = MovingSixteenth(EXTREAL)
    return u


def _self_hom_moves():
    # hom(P, P) sends private to public; the kinded operations never apply it
    u = _pp_p_b()
    p = lambda n: FiniteElem(n, "privacy2")
    u.homs["P", "P"] = FiniteMapHom(PRIVACY, PRIVACY, {"0": p("0"), "private": p("public"),
                                                       "public": p("public")})
    return u


def _partial_self_hom():
    # hom(P, P) has no image for private: inj-3 meets it at (P, N)
    u = _pp_p_b()
    p = lambda n: FiniteElem(n, "privacy2")
    u.homs["P", "P"] = FiniteMapHom(PRIVACY, PRIVACY, {"0": p("0"), "public": p("public")})
    return u


def _off_carrier_hom():
    # hom(PP, P) sends every grade to a boolean, off privacy2's carrier
    u = _pp_p_b()
    u.homs["PP", "P"] = FiniteMapHom(PPRIVACY, BOOLEAN, {n: BOOL("1") for n in "0abcd"})
    return u


def _skipping_nat_identity():
    # hom(N, N) skips 5: inj-6 meets it at N, whose join with N is N
    u = _pp_p_b()
    u.homs["N", "N"] = SkippingIota(NAT)
    return u


class _PartialAtOneSum(ProjLeftHom):
    """real_product_chain's projection RB -> R, undefined at (23/112, 0): the
    sum of the reached (1/16, 0) and (1/7, 0), itself not reached."""

    def image(self, a):
        if a == PairValue(ExtReal(23, 112), FiniteElem("0", "boolean")):
            raise PartialMap("map has no image for (23/112,0)")
        return a.left


def _partial_off_the_reached():
    # every reached grade has an image, so only the step check meets the gap
    u = load_universe(str(TESTS / "programs" / "real_product_chain.json"))
    u.homs["RB", "R"] = _PartialAtOneSum(u.kinds["RB"])
    return u


@pytest.mark.parametrize("make", [_pp_p_b, _off_route_hom, _uneven_join, _partial_hom,
                                  _join_into_top, _moved_off_the_pools, _self_hom_moves,
                                  _partial_self_hom, _skipping_nat_identity, _off_carrier_hom,
                                  _partial_off_the_reached],
                         ids=lambda f: f.__name__.strip("_"))
def test_altered_universe_reports_match_the_reference(make):
    got = assert_same_universe_report(make)
    if make is _partial_hom:  # the related pairs already need the missing image
        assert got == ("PartialMap", "map has no image for element 'b'")
    if make is _join_into_top:
        assert ("inj-4-idempotent", True, None) in got
    failing = {law: witness for law, ok, witness in got if not ok} if isinstance(got, list) else {}
    if make is _moved_off_the_pools:
        assert failing["hom-functorial"] == failing["inj-1-left-assoc"] == ("a", "b", "c")
        assert failing["inj-2-middle-route"] == ("b", "a", "c")
    if make is _self_hom_moves:
        assert {"hom-functorial", "inj-1-left-assoc", "inj-2-middle-route", "inj-4-idempotent",
                "inj-5-bottom-left"} <= set(failing)
    if make is _partial_self_hom:
        assert failing["inj-3-commute"] == ("map has no image for element 'private'",)
    if make is _skipping_nat_identity:
        assert failing["inj-6-bottom-right"] == ("N",)


def test_an_image_off_the_carrier_is_refused_every_time():
    # the kinded operations run each kind's unchecked operations on images
    # checked once, before they are kept: an image off the kind's carrier is
    # kept nowhere, so every operation that needs it is refused
    u = _off_carrier_hom()
    a, private = u.intern(KindedGrade("PP", FiniteElem("a", "privacy4"))), u.parse_grade("P:private")
    message = "1 is not a value of table:privacy2"
    kinded = u.indexed.alg
    for _ in range(2):
        for op in (u.add, u.leq, partial(kinded.add_id, intern=u.indexed.id),
                   kinded.unchecked_leq):
            with pytest.raises(CarrierMismatch, match=message):
                op(a, private)
    assert a.id not in kinded.kind_codes["P"][1]  # no code kept for it in P
    for kind, (table, _, _) in kinded.kind_codes.items():
        assert all(map(u.kinds[kind].contains, table.values))
    # a grade off its kind's carrier is refused every time, moved or not:
    # the table never interns it
    stray = KindedGrade("P", BOOL("1"))
    for _ in range(2):
        for op, args in ((u.leq, (private, stray)), (u.add, (stray, private)),
                         (u.residual, (stray, private))):
            with pytest.raises(CarrierMismatch, match=message):
                op(*args)


# -- the axioms from per-kind facts, the pooled kernels as the fallback --------

PROGRAM_UNIVERSES = sorted((TESTS / "programs").glob("*.json"))


def _counted_kernels(monkeypatch) -> set:
    """The names of the axioms whose pooled kernels run over a universe's
    kinded grades from now on: ``semiring_laws`` on ``u.indexed``, as
    ``check_universe_laws`` calls it, marks each law it hands out when its
    kernel or its case check runs."""
    ran = set()
    original = hetero.semiring_laws

    def counted(ix, *args, **kwargs):
        laws = original(ix, *args, **kwargs)
        if not isinstance(ix.alg, KindedAlgebra):
            return laws

        def marked(name, f):
            return f and (lambda *a: ran.add(name) or f(*a))

        return [(name, marked(name, holds), rows, cases, marked(name, kernel))
                for name, holds, rows, cases, kernel in laws]

    monkeypatch.setattr(hetero, "semiring_laws", counted)
    return ran


@pytest.mark.parametrize("path", CORPUS_UNIVERSES + PROGRAM_UNIVERSES, ids=lambda p: p.name)
def test_passing_universes_run_no_pooled_kernel(monkeypatch, path):
    try:
        u = load_universe(str(path))
    except UniverseError:
        return  # refused at load: diamonds_pool79
    ran = _counted_kernels(monkeypatch)
    assert check_universe_laws(u).ok
    assert ran == set()


class _CappedLeft(ProjLeftHom):
    """fin_product's projection L x B -> L, but (hi, 0) goes to lo: monotone,
    multiplicative and unit-preserving, not additive ((hi, 0) + (0, 1))."""

    def image(self, a):
        return FiniteElem("lo", "lh") if a == PairValue(
            FiniteElem("hi", "lh"), FiniteElem("0", "boolean")) else a.left


class _LiftedLeft(ProjLeftHom):
    """fin_product's projection, but (lo, 0) goes to hi: not monotone, as
    (lo, 0) <= (lo, 1), nor additive nor multiplicative."""

    def image(self, a):
        return FiniteElem("hi", "lh") if a == PairValue(
            FiniteElem("lo", "lh"), FiniteElem("0", "boolean")) else a.left


class _InfiniteAtOneSum(ProjLeftHom):
    """real_product_chain's projection RB -> R, but (23/112, 0) goes to inf.
    It is the sum of the reached (1/16, 0) and (1/7, 0), and neither reached
    nor a product of reached grades: the map stays monotone, multiplicative
    and unit-preserving on the reached grades, and is not additive."""

    def image(self, a):
        return ExtReal(None) if a == PairValue(ExtReal(23, 112), BOOL("0")) else a.left


class _PositiveToB(IotaHom):
    """Iota into privacy4, but each positive natural goes to b, not to the
    one, d: additive, multiplicative and monotone, and PP -> P still sends
    it where iota into P does (b and d both go to public)."""

    def image(self, a):
        return FiniteElem("b" if a.n else "0", "privacy4")


def _inline(name):
    from test_golden import inline_universes
    return universe_from_config(inline_universes()[name])


def _edited(make, key, hom):
    def edit():
        u = make()
        u.homs[key] = hom(u)
        return u
    return edit


def _antisymmetry_broken():
    # fin_chain with d <= c as well in K4's table, admitted unchecked: only
    # antisymmetry fails, and the edge K4 -> K2 (c, d -> hi) stays monotone
    from test_golden import inline_universes
    cfg = inline_universes()["fin_chain"]
    kinds = {name: algebra_from_config(spec, 1) for name, spec in cfg["kinds"].items()}
    table = kinds["K4"].table
    kinds["K4"] = FiniteAlgebra(FiniteTable(
        name=table.name, elements=table.elements, leq=table.leq | {("d", "c")},
        sum=table.sum, mul=table.mul, zero=table.zero, one=table.one))
    edges = [RefinementEdge(e["sub"], e["super"], hom_from_config(
        e["hom"], kinds[e["sub"]], kinds[e["super"]], 1)) for e in cfg["edges"]]
    return validate_universe(kinds, edges, validate_algebras=False)


# each planted fault, and the axioms resting on the facts it breaks
PLANTED = {
    "not-additive": (_edited(lambda: _inline("fin_product"), ("LB", "L"),
                             lambda u: _CappedLeft(u.kinds["LB"])),
                     {"add-associative", "distributes-left", "distributes-right",
                      "add-monotone"}),
    "not-monotone": (_edited(lambda: _inline("fin_product"), ("LB", "L"),
                             lambda u: _LiftedLeft(u.kinds["LB"])),
                     {"order-transitive", "add-associative", "mul-associative",
                      "distributes-left", "distributes-right", "add-monotone",
                      "mul-monotone"}),
    "not-additive-infinite": (
        _edited(lambda: load_universe(str(TESTS / "programs" / "real_product_chain.json")),
                ("RB", "R"), lambda u: _InfiniteAtOneSum(u.kinds["RB"])),
        {"add-associative", "distributes-left", "distributes-right", "add-monotone"}),
    "wrong-iota": (_edited(lambda: load_universe(str(TESTS / "corpus" / "affinity_privacy.json")),
                           ("N", "PP"), lambda u: _PositiveToB(u.kinds["PP"])),
                   {"mul-unit"}),
    "kind-table": (_antisymmetry_broken, {"order-antisymmetric"}),
}


@pytest.mark.parametrize("fault", PLANTED)
def test_planted_faults_report_as_the_pooled_kernels_and_the_reference(monkeypatch, fault):
    make, resting = PLANTED[fault]
    ran = _counted_kernels(monkeypatch)
    derived = outcome(check_universe_laws, make())
    # each fault is planted so that every axiom resting on a fact it breaks
    # fails: the kernels run for the axioms it breaks, and for no other
    failing = {law for law, ok, _ in derived if not ok}
    assert ran == resting == failing & set(hetero._RESTS_ON)
    with monkeypatch.context() as m:
        m.setattr(hetero, "_unproved_axioms", lambda u, r: set(hetero._RESTS_ON))
        assert outcome(check_universe_laws, make()) == derived
    assert outcome(ref.check_universe_laws, make()) == derived


# -- maps and products decided by structure, and the enumeration as the fallback --

HOM_LAWS = ["hom-zero", "hom-one", "hom-add", "hom-mul", "hom-monotone"]
AP = ProductAlgebra(AFFINITY, PRIVACY)
RB = ProductAlgebra(EXTREAL, BOOLEAN)


def _covered(spec):
    """Whether ``spec``'s report covers all of its values and passes."""
    report = validate_algebra(spec)
    return report.whole and report.ok


@pytest.mark.parametrize("hom", [
    IdentityHom(AP), IdentityHom(EXTREAL), ProjLeftHom(AP), ProjRightHom(AP),
    ProjLeftHom(RB), ProjRightHom(RB),
    *(IotaHom(target) for target in (NAT, TRIVIAL, AFFINITY, BOOLEAN, PRIVACY, PPRIVACY, EXTREAL,
                                     AP, ExtendAlgebra(AFFINITY), ExtendAlgebra(NAT)))],
    ids=lambda h: f"{type(h).__name__}-{h.source().describe()}-{h.target().describe()}")
def test_maps_proved_by_structure_pass_the_enumeration_and_the_reference(monkeypatch, hom):
    assert structural_hom(hom, _covered)
    # validate_hom enumerates its cases whatever the structure says
    monkeypatch.setattr(grades, "structural_hom", None)
    assert rows(validate_hom(hom)) == rows(ref.validate_hom(hom)) == [
        (law, True, None) for law in HOM_LAWS]


def _proved_steps():
    """Kinds reached by iota (T's and these), and left by the identity and
    both projections."""
    kinds = {"M": NAT, "A": AFFINITY, "B": BOOLEAN, "P": PRIVACY, "PP": PPRIVACY, "R": EXTREAL,
             "AP": AP, "RB": RB, "EA": ExtendAlgebra(AFFINITY), "E": ExtendAlgebra(NAT),
             "F": ExtendAlgebra(NAT)}
    return validate_universe(kinds, [
        RefinementEdge("AP", "A", ProjLeftHom(AP)), RefinementEdge("AP", "P", ProjRightHom(AP)),
        RefinementEdge("RB", "R", ProjLeftHom(RB)), RefinementEdge("RB", "B", ProjRightHom(RB)),
        RefinementEdge("F", "E", IdentityHom(kinds["F"]))])


def _checked_homs(monkeypatch) -> list:
    """The maps ``hetero`` checks case by case from now on."""
    checked = []
    original = hetero.validate_hom

    def counted(h, *args, **kwargs):
        checked.append(h)
        return original(h, *args, **kwargs)

    monkeypatch.setattr(hetero, "validate_hom", counted)
    return checked


def test_steps_proved_by_structure_report_as_their_enumeration(monkeypatch):
    checked = _checked_homs(monkeypatch)
    derived = outcome(check_universe_laws, _proved_steps())
    assert checked == [] and all(ok for _, ok, _ in derived)
    with monkeypatch.context() as m:  # every edge and step checked case by case
        m.setattr(hetero, "structural_hom", lambda h, lawful: False)
        assert outcome(check_universe_laws, _proved_steps()) == derived
    assert {type(h) for h in checked} == {IdentityHom, IotaHom, ProjLeftHom, ProjRightHom}


@pytest.mark.parametrize("spec", [AP, RB], ids=lambda s: s.describe())
def test_products_proved_by_structure_report_as_the_enumeration_and_the_reference(
        monkeypatch, spec):
    proved = structural_report(spec)
    assert proved.whole and rows(proved) == [(law, True, None) for law in AXIOMS]
    with monkeypatch.context() as m:  # the enumeration alone, as if unproved
        m.setattr(grades, "structural_report", lambda spec: None)
        assert rows(validate_algebra(spec)) == rows(proved)
    assert rows(ref.validate_algebra(spec)) == rows(proved)


@pytest.mark.parametrize("spec", [AFFINITY, BOOLEAN, TRIVIAL], ids=lambda s: s.describe())
def test_finite_builtins_pass_their_exhaustive_reports(spec):
    # structural_report trusts them as factors by identity, and the iota
    # rule as targets: their own reports are enumerated, never trusted
    assert structural_report(spec) is None
    report = validate_algebra(spec)
    assert report.whole and report.ok and rows(report) == rows(ref.validate_algebra(spec))


class _CollapsedW(IdentityHom):
    """The identity on affinity, but w goes to 1: not additive (1 + 1)."""

    def image(self, a):
        return AFF("1") if a == AFF("w") else a


class _WithoutOneSum(ProductAlgebra):
    """extreal x boolean without (23/112, 0): the sum of the reached (1/16, 0)
    and (1/7, 0) in real_product_chain, itself not reached."""

    def contains(self, a):
        return a != PairValue(ExtReal(23, 112), BOOL("0")) and super().contains(a)


class _MaxLeftProduct(ProductAlgebra):
    """affinity x boolean whose left sum is the larger side, not affinity's
    sum: lawful, but its left projection is not additive, as 1 + 1 = w."""

    def unchecked_add(self, a, b):
        return PairValue(max(a.left, b.left, key=lambda x: "01w".index(x.name)),
                         self.right.unchecked_add(a.right, b.right))


def test_a_projection_out_of_a_lawful_product_subclass_is_enumerated_at_load():
    spec = _MaxLeftProduct(AFFINITY, BOOLEAN)
    assert _covered(spec)
    bad = ref.validate_hom(ProjLeftHom(spec)).failures()[0]
    assert bad.law == "hom-add"
    with pytest.raises(UniverseError, match=re.escape(
            f"edge M -> A: homomorphism violates hom-add: {bad.witness}")):
        validate_universe({"M": spec, "A": AFFINITY}, [RefinementEdge("M", "A", ProjLeftHom(spec))])


# 2 + 2 = 0 in the chain 0 < 1 < 2: not associative, as (1 + 2) + 2 = 0 but 1 + (2 + 2) = 1
_NOT_ASSOCIATIVE = _mutated(_chain_table(3), "sum", "2", "2", "0")
_BAD_PAIR = ProductAlgebra(_NOT_ASSOCIATIVE, BOOLEAN)
# the chain 0 < 1 < 2 under max and min, and its values with 1 * 1 = 0:
# both lawful, with the same sums of one, but the identity of the first is
# not multiplicative into the second
_CHAIN3 = FiniteAlgebra(_chain_table(3))
_SQUARE_ZERO = FiniteAlgebra(replace(
    _chain_table(3), mul={**_chain_table(3).mul, "1": {"0": "0", "1": "0", "2": "1"}}))

# each planted fault, and the classes of the maps it makes checked case by case
FALLBACK_STEPS = {
    "identity-subclass": (_edited(lambda: validate_universe(
        {"X": AFFINITY, "Y": AFFINITY}, [RefinementEdge("X", "Y", IdentityHom(AFFINITY))]),
        ("X", "Y"), lambda u: _CollapsedW(AFFINITY)), {_CollapsedW}),
    "projection-out-of-a-product-subclass": (
        _edited(lambda: load_universe(str(TESTS / "programs" / "real_product_chain.json")),
                ("RB", "R"), lambda u: ProjLeftHom(_WithoutOneSum(EXTREAL, BOOLEAN))),
        {ProjLeftHom}),
    "iota-into-a-table-unchecked": (lambda: validate_universe(
        {"X": _NOT_ASSOCIATIVE}, [], validate_algebras=False), {IotaHom}),
    "product-of-a-failing-table-unchecked": (lambda: validate_universe(
        {"K": _BAD_PAIR, "L": _NOT_ASSOCIATIVE},
        [RefinementEdge("K", "L", ProjLeftHom(_BAD_PAIR))], validate_algebras=False),
        {ProjLeftHom, IotaHom}),
    # the identity of X's chain in place of the map X -> Y: structure proves
    # it, but into X's chain, not Y's, and the coherence facts still hold
    "identity-onto-another-kind": (_edited(lambda: validate_universe(
        {"X": _CHAIN3, "Y": _SQUARE_ZERO}, [RefinementEdge("X", "Y", FiniteMapHom(
            _CHAIN3, _SQUARE_ZERO, {"0": _CHAIN3.zero(), "1": _CHAIN3.one(), "2": _CHAIN3.one()}))]),
        ("X", "Y"), lambda u: IdentityHom(_CHAIN3)), {IdentityHom}),
}


@pytest.mark.parametrize("fault", FALLBACK_STEPS)
def test_planted_faults_take_the_enumeration_of_their_maps(monkeypatch, fault):
    make, maps = FALLBACK_STEPS[fault]
    checked = _checked_homs(monkeypatch)
    derived = outcome(check_universe_laws, make())
    assert maps <= {type(h) for h in checked}
    assert any(not ok for _, ok, _ in derived)
    with monkeypatch.context() as m:
        m.setattr(hetero, "_unproved_axioms", lambda u, r: set(hetero._RESTS_ON))
        assert outcome(check_universe_laws, make()) == derived
    assert outcome(ref.check_universe_laws, make()) == derived
