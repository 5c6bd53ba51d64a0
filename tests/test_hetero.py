"""Refinement graphs, kinded grades, and the combined-algebra laws."""

import json
import pathlib
import sys
from collections import Counter

import pytest

from gradefj import hetero
from gradefj.grades import (
    AFFINITY,
    BOOLEAN,
    CarrierMismatch,
    ComposeHom,
    EXTREAL,
    ExtendAlgebra,
    FiniteAlgebra,
    FiniteElem,
    FiniteMapHom,
    FiniteTable,
    IdentityHom,
    Indexed,
    IotaHom,
    NAT,
    Nat,
    PairValue,
    PRIVACY,
    PPRIVACY,
    ProductAlgebra,
    ProjLeftHom,
    ProjRightHom,
    Triv,
    ZetaHom,
    check_laws,
    validate_hom,
)
from gradefj.hetero import (
    CycleDetected,
    DuplicatePath,
    GradeUniverse,
    KindedAlgebra,
    KindedGrade,
    NoLeastAncestor,
    NotRefinement,
    ONE_D,
    POOL_SAMPLES,
    RefinementEdge,
    UniverseError,
    UnknownKind,
    ZERO_D,
    _coherence_laws,
    check_universe_laws,
    default_universe,
    load_universe,
    universe_from_config,
    validate_universe,
)

PROGRAMS = pathlib.Path(__file__).parent / "programs"

AFF = lambda n: KindedGrade("A", FiniteElem(n, "affinity"))
PRIV = lambda n: KindedGrade("P", FiniteElem(n, "privacy2"))
PP = lambda n: KindedGrade("PP", FiniteElem(n, "privacy4"))
N = lambda n: KindedGrade("N", Nat(n))


def ap_value(aff, priv):
    return KindedGrade("AP", PairValue(FiniteElem(aff, "affinity"),
                                       FiniteElem(priv, "privacy2")))


def pp_to_p_hom():
    p = lambda n: FiniteElem(n, "privacy2")
    return FiniteMapHom(PPRIVACY, PRIVACY, {
        "0": p("0"), "a": p("private"), "b": p("public"),
        "c": p("private"), "d": p("public")})


def make_ap_universe() -> GradeUniverse:
    ap = ProductAlgebra(AFFINITY, PRIVACY)
    return validate_universe(
        {"A": AFFINITY, "P": PRIVACY, "PP": PPRIVACY, "AP": ap},
        [RefinementEdge("AP", "A", ProjLeftHom(ap)),
         RefinementEdge("AP", "P", ProjRightHom(ap)),
         RefinementEdge("PP", "P", pp_to_p_hom())])


# ---------------------------------------------------------------------------
# universe validation

def test_ap_universe_validates_and_joins(ap_universe):
    assert ap_universe.join("AP", "PP") == "P"
    assert ap_universe.join("PP", "AP") == "P"
    assert ap_universe.join("A", "P") == "T"
    assert ap_universe.join("N", "PP") == "PP"
    assert ap_universe.join("AP", "T") == "T"
    assert ap_universe.join("AP", "AP") == "AP"


def test_duplicate_path_rejected():
    ap = ProductAlgebra(AFFINITY, PRIVACY)
    to_pp = FiniteMapHom(PRIVACY, PPRIVACY, {  # any map; path check fires first
        "0": FiniteElem("0", "privacy4"), "private": FiniteElem("a", "privacy4"),
        "public": FiniteElem("d", "privacy4")})
    with pytest.raises(DuplicatePath) as exc:
        validate_universe(
            {"A": AFFINITY, "P": PRIVACY, "PP": PPRIVACY, "AP": ap},
            [RefinementEdge("AP", "A", ProjLeftHom(ap)),
             RefinementEdge("AP", "P", ProjRightHom(ap)),
             RefinementEdge("PP", "P", pp_to_p_hom()),
             RefinementEdge("AP", "PP", _ap_to_pp(ap))],
            validate_algebras=False)
    # the pair and its two routes: the direct edge and the one through PP
    assert str(exc.value) == ("more than one refinement path from AP to P: "
                              "[('AP', 'P'), ('AP', 'PP', 'P')]")


def _ap_to_pp(ap):
    from gradefj.grades import ComposeHom
    return ComposeHom(ProjRightHom(ap), FiniteMapHom(PRIVACY, PPRIVACY, {
        "0": FiniteElem("0", "privacy4"), "private": FiniteElem("a", "privacy4"),
        "public": FiniteElem("d", "privacy4")}))


def test_unrelated_kinds_join_to_trivial():
    u = validate_universe({"A": AFFINITY, "P": PRIVACY}, [],
                          validate_algebras=False)
    assert u.join("A", "P") == "T"


def test_no_least_ancestor_reports_minimal_set():
    # X and Y both refine two unrelated ancestors U and V
    b = lambda n: FiniteElem(n, "boolean")
    ident = {"0": b("0"), "1": b("1")}
    kinds = {"X": BOOLEAN, "Y": BOOLEAN, "U": BOOLEAN, "V": BOOLEAN}
    edges = [RefinementEdge(s, t, FiniteMapHom(BOOLEAN, BOOLEAN, dict(ident)))
             for s, t in [("X", "U"), ("X", "V"), ("Y", "U"), ("Y", "V")]]
    with pytest.raises(NoLeastAncestor) as exc:
        validate_universe(kinds, edges, validate_algebras=False)
    assert exc.value.minimal == {"U", "V"}
    assert str(exc.value) == ("kinds X and Y have common ancestors but no least one; "
                              "minimal ancestors: ['U', 'V']")


def _quadratic_join_table(u):
    """The join table as the least common ancestors were once found: each
    common ancestor is tested against all the others."""
    up = {k: {a for s, a in u.order if s == k and a not in ("N", "T")} for k in u.kinds}
    table = {}
    for k1 in sorted(u.kinds):
        for k2 in sorted(u.kinds):
            if "N" in (k1, k2):
                table[k1, k2] = k2 if k1 == "N" else k1
            elif "T" in (k1, k2) or not up[k1] & up[k2]:
                table[k1, k2] = "T"
            else:
                common = up[k1] & up[k2]
                least = [c for c in common if all(a in up[c] for a in common)]
                assert least
                table[k1, k2] = least[0]
    return table


def _one_element_chain(n):
    """n one-element kinds, each refining the next by a ``map`` edge."""
    one = {"table": {"name": "one", "elements": ["0"], "leq": [["0", "0"]],
                     "sum": {"0": {"0": "0"}}, "mul": {"0": {"0": "0"}},
                     "zero": "0", "one": "0"}}
    return {"kinds": {f"C{i:02d}": one for i in range(n)},
            "edges": [{"sub": f"C{i:02d}", "super": f"C{i + 1:02d}",
                       "hom": {"map": {"0": "0"}}} for i in range(n - 1)]}


LOADABLE_UNIVERSES = sorted(
    [p for p in (PROGRAMS.parent / "corpus").glob("*.json")
     if "kinds" in json.loads(p.read_text())]
    + [p for p in PROGRAMS.glob("*.json")
       if p.name not in ("diamonds_pool79.json", "extend_zero_divisors.json",
                         "product_bad_factor.json")])


@pytest.mark.parametrize("path", LOADABLE_UNIVERSES, ids=lambda p: p.name)
def test_least_ancestors_match_the_quadratic_search(path):
    u = load_universe(str(path))
    assert u.join_table == _quadratic_join_table(u)


def test_chain_least_ancestors_match_the_quadratic_search():
    u = universe_from_config(_one_element_chain(44))
    assert u.join_table == _quadratic_join_table(u)
    assert u.join("C03", "C40") == u.join("C40", "C03") == "C40"


def _boolean_refinements(pairs):
    b = lambda n: FiniteElem(n, "boolean")
    ident = {"0": b("0"), "1": b("1")}
    edges = [RefinementEdge(s, t, FiniteMapHom(BOOLEAN, BOOLEAN, dict(ident)))
             for s, t in pairs]
    return validate_universe({k: BOOLEAN for pair in pairs for k in pair}, edges,
                             validate_algebras=False)


def test_cycle_detected():
    with pytest.raises(CycleDetected) as exc:
        _boolean_refinements([("X", "Y"), ("Y", "X")])
    assert str(exc.value) == "refinement cycle through X -> Y -> X"


def test_cycle_is_named_without_the_way_in():
    with pytest.raises(CycleDetected) as exc:
        _boolean_refinements([("A", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "X")])
    assert str(exc.value) == "refinement cycle through X -> Y -> Z -> X"


def test_reserved_kinds_not_redeclarable():
    with pytest.raises(UniverseError):
        universe_from_config({"kinds": {"N": {"builtin": "nat"}}, "edges": []})


def test_bad_edge_hom_rejected():
    bad = FiniteMapHom(BOOLEAN, BOOLEAN, {
        "0": FiniteElem("0", "boolean"), "1": FiniteElem("0", "boolean")})
    with pytest.raises(UniverseError):
        validate_universe({"X": BOOLEAN, "Y": BOOLEAN},
                          [RefinementEdge("X", "Y", bad)],
                          validate_algebras=False)


def test_determinism_of_derivation():
    u1, u2 = make_ap_universe(), make_ap_universe()
    assert u1.join_table == u2.join_table
    assert u1.order == u2.order
    assert sorted(u1.homs) == sorted(u2.homs)


def _chain3(name):
    """0 < 1 < 2 under max and min; a monotone map fixing 0 and 2 is a hom."""
    elems = ("0", "1", "2")
    return FiniteAlgebra(FiniteTable(
        name=name, elements=elems,
        leq=frozenset((a, b) for a in elems for b in elems if a <= b),
        sum={a: {b: max(a, b) for b in elems} for a in elems},
        mul={a: {b: min(a, b) for b in elems} for a in elems},
        zero="0", one="2"))


def test_long_chain_derives_each_hom_along_its_route():
    # 68 kinds in a row; a few edges send the middle element down or up, so a
    # route's hom depends on the order its edge maps are applied in
    algs = [_chain3(f"c{i}") for i in range(68)]
    names = [f"K{i:02d}" for i in range(68)]
    edges = []
    for i in range(67):
        middle = "0" if i % 23 == 5 else "2" if i % 23 == 16 else "1"
        image = {"0": "0", "1": middle, "2": "2"}
        edges.append(RefinementEdge(names[i], names[i + 1], FiniteMapHom(
            algs[i], algs[i + 1], {a: FiniteElem(b, f"c{i + 1}") for a, b in image.items()})))
    u = validate_universe(dict(zip(names, algs)), edges)
    assert u.order == frozenset(u.homs)
    for i in range(68):
        moved = {v: v for v in algs[i].elements()}
        for j in range(i, 68):
            assert u.join(names[i], names[j]) == u.join(names[j], names[i]) == names[j]
            assert {v: u.hom(names[i], names[j]).apply(v) for v in moved} == moved
            if j < 67:
                moved = {v: edges[j].hom.apply(w) for v, w in moved.items()}


# ---------------------------------------------------------------------------
# derived homomorphisms

def test_derived_hom_examples(ap_universe):
    h = ap_universe.hom("PP", "P")
    assert h.apply(FiniteElem("d", "privacy4")) == FiniteElem("public", "privacy2")
    assert h.apply(FiniteElem("a", "privacy4")) == FiniteElem("private", "privacy2")
    assert isinstance(ap_universe.hom("N", "AP"), IotaHom)
    assert isinstance(ap_universe.hom("AP", "AP"), IdentityHom)
    with pytest.raises(NotRefinement):
        ap_universe.hom("P", "PP")
    with pytest.raises(UnknownKind):
        ap_universe.kind_leq("Q", "P")


def test_edge_homs_validated(ap_universe):
    for edge in ap_universe.edges:
        assert validate_hom(edge.hom).ok


# ---------------------------------------------------------------------------
# kinded-grade operations

def test_het_leq_examples(ap_universe):
    assert ap_universe.leq(N(3), AFF("w"))          # iota(3) = w <= w
    assert not ap_universe.leq(PRIV("public"), PP("d"))  # P does not refine PP
    assert ap_universe.leq(ap_value("1", "private"), PRIV("private"))
    assert ap_universe.leq(ZERO_D, PP("a"))
    assert not ap_universe.leq(AFF("1"), N(1))


def test_het_add_examples(ap_universe):
    assert ap_universe.add(AFF("1"), ZERO_D) == AFF("1")
    assert ap_universe.add(AFF("1"), PRIV("private")) == KindedGrade("T", Triv())
    assert ap_universe.add(N(1), N(1)) == N(2)
    got = ap_universe.add(ap_value("1", "private"), PP("a"))
    assert got == PRIV("private")  # join kind P; (1,priv)->priv, a->priv


def test_het_mul_examples(ap_universe):
    assert ap_universe.mul(ap_value("w", "private"), PP("d")) == PRIV("private")
    assert ap_universe.mul(PRIV("public"), ZERO_D) == ZERO_D
    assert ap_universe.mul(ZERO_D, PRIV("public")) == ZERO_D
    assert ap_universe.mul(ONE_D, AFF("w")) == AFF("w")
    # a privacy zero of kind P is *not* the combined zero
    assert ap_universe.mul(PRIV("0"), PRIV("public")) == PRIV("0")


def test_structural_zero_identity(ap_universe):
    # <P,0> is above 0_D but distinct from it
    assert ap_universe.leq(ZERO_D, PRIV("0"))
    assert not ap_universe.leq(PRIV("0"), ZERO_D)
    assert PRIV("0") != ZERO_D


def test_residual_heterogeneous(ap_universe):
    assert ap_universe.residual(AFF("w"), N(2)) == AFF("w")
    assert ap_universe.residual(N(4), N(2)) == N(2)
    assert ap_universe.residual(PRIV("private"), PRIV("public")) is None
    # demand of an unrelated kind leaves nothing
    assert ap_universe.residual(N(4), AFF("1")) is None


# ---------------------------------------------------------------------------
# interned grades

INTERN_TEXTS = ["0", "1", "3", "A:w", "P:private", "P:0", "PP:b", "AP:(1,public)", "T:inf"]


def _answers(u, x, y):
    return (u.leq(x, y), u.add(x, y), u.mul(x, y), u.residual_candidates(x, y))


def test_interning_gives_the_same_answers_for_every_form_of_a_grade(corpus_dir):
    path = str(corpus_dir / "affinity_privacy.json")
    u, other = load_universe(path), load_universe(path)
    canonical = [u.parse_grade(t) for t in INTERN_TEXTS]
    # built directly, without an id
    direct = [KindedGrade(g.kind, g.value) for g in canonical]
    # parsed by a second universe in another order: its ids name other grades here
    foreign = {t: other.parse_grade(t) for t in reversed(INTERN_TEXTS)}
    foreign = [foreign[t] for t in INTERN_TEXTS]
    assert any(f.id != c.id for f, c in zip(foreign, canonical))
    # an id that this universe gave to another grade
    stale = [KindedGrade(g.kind, g.value, canonical[-1 - k].id)
             for k, g in enumerate(canonical)]
    for i, x in enumerate(canonical):
        for j, y in enumerate(canonical):
            want = _answers(u, x, y)
            for form in (direct, foreign, stale):
                got = _answers(u, form[i], form[j])
                assert got == want, (INTERN_TEXTS[i], INTERN_TEXTS[j])
                # and the answers are this universe's canonical grades
                assert got[1] is want[1] and got[2] is want[2]
                assert all(a is b for a, b in zip(got[3], want[3]))


def test_an_off_carrier_value_is_refused_on_every_use(ap_universe):
    u = ap_universe
    bad = KindedGrade("A", Nat(3))
    # even with the id of a canonical grade
    posing = KindedGrade("A", Nat(3), u.parse_grade("A:w").id)
    for g in (bad, bad, posing, posing):
        for op in (u.leq, u.add, u.mul, u.residual_candidates):
            with pytest.raises(CarrierMismatch):
                op(g, ONE_D)
            with pytest.raises(CarrierMismatch):
                op(ZERO_D, g)
    with pytest.raises(UnknownKind):
        u.add(KindedGrade("Q", Nat(1)), ONE_D)


def test_operations_return_canonical_grades(ap_universe):
    u = ap_universe
    x, y = u.parse_grade("AP:(1,private)"), u.parse_grade("PP:a")
    assert u.add(x, y) is u.add(x, y)
    assert u.mul(x, y) is u.mul(KindedGrade(x.kind, x.value), y)
    assert u.parse_grade("A:w") is u.parse_grade("A:w")
    assert u.mul(ZERO_D, x) is ZERO_D and u.add(ZERO_D, ONE_D) is ONE_D
    for g in u.sample_pool():
        assert u.indexed.values[g.id] is g


def test_grade_ids_are_not_compared_or_printed(ap_universe):
    g = ap_universe.parse_grade("A:w")
    twin = KindedGrade("A", g.value)
    assert g.id != twin.id
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert repr(ZERO_D) == "KindedGrade(kind='N', value=Nat(n=0))"


# ---------------------------------------------------------------------------
# combined-algebra laws

@pytest.fixture
def pooled(monkeypatch):
    """``check_universe_laws`` as when no fact holds: every axiom runs the
    pooled row kernels over the kinded pool, the fallback path."""
    monkeypatch.setattr(hetero, "_unproved_axioms", lambda u, r: set(hetero._RESTS_ON))


def test_check_universe_laws_ap_universe(ap_universe):
    report = check_universe_laws(ap_universe)
    assert report.ok, [str(r) for r in report.failures()]


def test_check_universe_laws_computes_each_operation_once(monkeypatch, pooled, corpus_dir):
    # the pooled kernels on a fresh universe: its table has computed nothing yet
    u = load_universe(str(corpus_dir / "affinity_privacy.json"))
    calls = Counter()
    # the table's misses: leq's, and add's and mul's, which answer an id
    for op, name in (("leq", "unchecked_leq"), ("add", "add_id"), ("mul", "mul_id")):
        original = getattr(KindedAlgebra, name)

        def counted(self, x, y, *intern, op=op, original=original):
            calls[op, x, y] += 1
            return original(self, x, y, *intern)

        monkeypatch.setattr(KindedAlgebra, name, counted)
    assert check_universe_laws(u).ok
    assert {op for op, _, _ in calls} == {"leq", "add", "mul"}
    assert max(calls.values()) == 1
    # a second check reads every answer from the universe's memo rows
    before = sum(calls.values())
    assert check_universe_laws(u).ok
    assert sum(calls.values()) == before


def test_warm_universe_laws_read_whole_memo_rows(monkeypatch, pooled):
    # the second run of the pooled kernels finds every operation in the memo
    # rows and reads
    # them a row at a time: Python-level operation calls stay within a few
    # per pair of pool grades, where case-by-case checks make millions
    u = load_universe(str(PROGRAMS / "chain_pool80.json"))
    assert check_universe_laws(u).ok
    n = len(u.sample_pool())
    calls = Counter()
    for op in ("leq", "add", "mul"):
        original = getattr(Indexed, op)

        def counted(self, i, j, op=op, original=original):
            calls[op] += 1
            return original(self, i, j)

        monkeypatch.setattr(Indexed, op, counted)
    assert check_universe_laws(u).ok
    assert 0 < sum(calls.values()) <= 4 * n * n


def test_coherence_moves_each_grade_once_per_kind(monkeypatch):
    # 68 one-element kinds: kind triples are cubic in the kinds, but each
    # pool grade is moved into each kind at most once per check, plus the
    # homs the combined operations apply
    u = load_universe(str(PROGRAMS / "kinds68_pool80.json"))
    applied = Counter()
    for cls in (IdentityHom, IotaHom, ZetaHom, FiniteMapHom, ComposeHom):
        original = cls.apply

        def counted(self, a, cls=cls, original=original):
            applied[cls.__name__] += 1
            return original(self, a)

        monkeypatch.setattr(cls, "apply", counted)
    assert check_universe_laws(u).ok
    kinds, pool = len(u.kinds), len(u.sample_pool())
    assert sum(applied.values()) <= kinds * kinds * pool
    # once the operations are memoised, only the transport maps apply homs
    applied.clear()
    assert check_universe_laws(u).ok
    assert sum(applied.values()) <= kinds * pool


def _chain68_prefix(n):
    """The first ``n`` kinds of ``chain68_one.json`` and the edges between them."""
    cfg = json.loads((PROGRAMS / "chain68_one.json").read_text())
    kinds = dict(list(cfg["kinds"].items())[:n])
    return {"kinds": kinds,
            "edges": [e for e in cfg["edges"] if e["sub"] in kinds and e["super"] in kinds]}


def test_warm_coherence_work_on_a_chain_grows_at_most_quadratically():
    # a chain of n kinds has n**2 / 2 related pairs, each checked once on the
    # grades it reaches, but n**3 kind triples: doubling the chain may at
    # most quadruple the Python-level calls of a warm coherence check
    def calls(n):
        u = universe_from_config(_chain68_prefix(n))
        assert check_universe_laws(u).ok
        events = Counter()
        sys.setprofile(lambda frame, event, arg: events.update((event,)))
        try:
            assert check_laws(_coherence_laws(u, u.sample_pool())).ok
        finally:
            sys.setprofile(None)
        return events["call"] + events["c_call"]

    assert calls(68) <= 4 * calls(34)


def test_warm_universe_laws_apply_no_composed_or_map_homs(monkeypatch):
    # the coherence kernels read each image the kinded operations keep, so a
    # second check moves nothing along the chain's maps (50,116 composed and
    # 52,394 map applications when the kernels applied homs themselves)
    u = load_universe(str(PROGRAMS / "chain68_one.json"))
    assert check_universe_laws(u).ok
    applied = Counter()
    for cls in (ComposeHom, FiniteMapHom):
        original = cls.apply

        def counted(self, a, cls=cls, original=original):
            applied[cls.__name__] += 1
            return original(self, a)

        monkeypatch.setattr(cls, "apply", counted)
    assert check_universe_laws(u).ok
    assert applied == Counter()


@pytest.mark.parametrize("name", ["chain_pool80.json", "chain68_one.json"])
def test_kinded_operations_move_each_grade_once_per_kind(monkeypatch, pooled, name):
    # a kinded operation transports its operands into their join kind; over
    # a fresh run of the pooled kernels each interned grade is moved into
    # each kind at most once, however deeply the refinement chain composes
    # its homs (a move is one outermost apply; 50,787 and 52,338 of them
    # before the memo)
    u = load_universe(str(PROGRAMS / name))
    seen = Counter()
    for cls in (IdentityHom, IotaHom, ZetaHom, FiniteMapHom, ComposeHom,
                ProjLeftHom, ProjRightHom):
        original = cls.apply

        def counted(self, a, original=original):
            if seen["op"] and not seen["apply"]:
                seen["moves"] += 1
            seen["apply"] += 1
            try:
                return original(self, a)
            finally:
                seen["apply"] -= 1
        monkeypatch.setattr(cls, "apply", counted)
    for op in ("unchecked_leq", "add_id", "mul_id", "unchecked_residuals"):
        original = getattr(KindedAlgebra, op)

        def in_op(self, x, y, *intern, original=original):
            seen["op"] += 1
            try:
                return original(self, x, y, *intern)
            finally:
                seen["op"] -= 1
        monkeypatch.setattr(KindedAlgebra, op, in_op)
    assert check_universe_laws(u).ok
    assert 0 < seen["moves"] <= len(u.indexed.values) * len(u.kinds)


_BOOLS = {"kinds": {"BB": {"product": [{"builtin": "boolean"}, {"builtin": "boolean"}]},
                    "B": {"builtin": "boolean"}},
          "edges": [{"sub": "BB", "super": "B", "hom": {"proj": "left"}}]}


def test_kinded_algebra_moves_grades_it_did_not_intern_afresh():
    # the universe trusts a grade's id only where its own table holds that
    # very grade: a grade without an id, or with another table's id, is
    # interned by value and moved as its own value, so the transport memo
    # never hands it the image stored under the id it carries
    b = lambda n: FiniteElem(n, "boolean")
    pair = lambda l, r: KindedGrade("BB", PairValue(b(l), b(r)))
    u, other = universe_from_config(_BOOLS), universe_from_config(_BOOLS)
    g10, stale_01 = u.intern(pair("1", "0")), other.intern(pair("0", "1"))
    assert g10.id == stale_01.id  # each is the first grade its table interns
    zero, one = (KindedGrade("B", b(n)) for n in ("0", "1"))
    assert u.add(g10, zero) == one
    table, codes, _ = u.indexed.alg.kind_codes["B"]
    assert codes[g10.id] == table.id(b("1"))  # its image is kept, as a code in B
    assert u.add(stale_01, zero) == zero
    assert u.add(pair("1", "0"), zero) == one and u.add(pair("0", "1"), zero) == zero


@pytest.mark.parametrize("op", ["leq", "add", "mul", "residual", "residual_candidates"])
def test_universe_operations_resolve_every_copy_of_a_grade_alike(op):
    # an operand is the table's own grade, an equal grade with no id, or an
    # equal grade carrying the id another universe gave it (here that of a
    # different grade in this table, or one past its end): all give one answer
    b = lambda n: FiniteElem(n, "boolean")
    pair = KindedGrade("BB", PairValue(b("1"), b("0")))
    u, other, far = (universe_from_config(_BOOLS) for _ in range(3))
    u.intern(KindedGrade("B", b("0")))
    for left, right in ("00", "11", "01"):
        far.intern(KindedGrade("BB", PairValue(b(left), b(right))))
    canonical, top = u.intern(pair), u.intern(KindedGrade("B", b("1")))
    stale = [other.intern(pair), far.intern(pair)]
    assert [g.id for g in stale] == [2, 5] and canonical.id == 3
    assert u.indexed.values[2] != pair and len(u.indexed.values) == 5
    run = getattr(u, op)
    for order in (lambda g: (g, top), lambda g: (top, g)):  # available, then demanded
        expected = run(*order(canonical))
        for g in [KindedGrade(pair.kind, pair.value)] + stale:
            got = run(*order(g))
            assert got == expected
            for r in got if isinstance(got, list) else [got]:
                assert not isinstance(r, KindedGrade) or r is u.intern(r)
    # a grade off its kind's carrier is refused every time, and never interned
    off = KindedGrade("B", FiniteElem("private", "privacy2"))
    size = len(u.indexed.values)
    messages = set()
    for args in [(off, top), (top, off)] * 2:
        with pytest.raises(CarrierMismatch) as exc:
            run(*args)
        messages.add(str(exc.value))
    assert messages == {"private is not a value of table:boolean"}
    assert len(u.indexed.values) == size


def _fin_product():
    # as perfbench's fin_product: a 3-element chain, and its product with the
    # booleans refining it
    pair = ProductAlgebra(_chain3("c3"), BOOLEAN)
    return validate_universe({"K": _chain3("c3"), "KB": pair},
                             [RefinementEdge("KB", "K", ProjLeftHom(pair))])


def test_a_load_tables_each_algebra_once(monkeypatch):
    # the law checks of one load share a table per algebra: a product kind
    # with both projections as edges is tabled once, not by its own check
    # and again by each edge's, and an edge reads what its kinds' checks filled
    chain = _chain3("c3")
    pair = ProductAlgebra(chain, BOOLEAN)
    made = Counter()
    original = Indexed.__init__

    def counted(self, alg):
        made[id(alg)] += 1
        original(self, alg)

    monkeypatch.setattr(Indexed, "__init__", counted)
    u = validate_universe({"K": chain, "B": BOOLEAN, "KB": pair},
                          [RefinementEdge("KB", "K", ProjLeftHom(pair)),
                           RefinementEdge("KB", "B", ProjRightHom(pair))])
    assert sorted(u.law_reports) == ["K", "KB"]
    assert made == Counter({id(chain): 1, id(BOOLEAN): 1, id(pair): 1,
                            id(u.indexed.alg): 1})


def _chain4_config():
    """The table of the chain 0 < a < b < 1 under max and min."""
    elems = ["0", "a", "b", "1"]
    top = lambda x, y: max(x, y, key=elems.index)
    bottom = lambda x, y: min(x, y, key=elems.index)
    return {"name": "c4", "elements": elems,
            "leq": [[x, y] for x in elems for y in elems[elems.index(x):]],
            "sum": {x: {y: top(x, y) for y in elems} for x in elems},
            "mul": {x: {y: bottom(x, y) for y in elems} for x in elems},
            "zero": "0", "one": "1"}


def test_kinds_of_equal_algebras_share_one_table_and_keep_their_own_codes():
    # two kinds declared with the same table hold equal algebras, so their
    # values live in one table; a grade's code there is still per kind, since
    # C1:a moved into C2 is C2:b
    u = universe_from_config({
        "kinds": {"C1": {"table": _chain4_config()}, "C2": {"table": _chain4_config()}},
        "edges": [{"sub": "C1", "super": "C2",
                   "hom": {"map": {"0": "0", "a": "b", "b": "b", "1": "1"}}}]})
    assert u.kinds["C1"] is not u.kinds["C2"] and u.kinds["C1"] == u.kinds["C2"]
    g = u.parse_grade
    assert u.add(g("C1:a"), g("C2:0")) == g("C2:b")
    assert u.add(g("C1:a"), g("C1:0")) == g("C1:a")
    assert not u.leq(g("C1:a"), g("C2:a"))
    assert check_universe_laws(u).ok
    codes = u.indexed.alg.kind_codes
    assert codes["C1"][0] is codes["C2"][0] is u.tables[u.kinds["C1"]]
    a = g("C1:a").id
    assert codes["C2"][0].values[codes["C2"][1][a]] == u.kinds["C2"].parse_payload("b")
    assert codes["C1"][0].values[codes["C1"][1][a]] == u.kinds["C1"].parse_payload("a")


@pytest.mark.parametrize("path, tables", [
    (PROGRAMS / "extreal8_pool76.json", 2),
    (pathlib.Path(__file__).parent / "corpus" / "affinity_privacy.json", 5)],
    ids=["extreal8_pool76", "affinity_privacy"])
def test_a_universe_builds_one_table_per_algebra(monkeypatch, path, tables):
    # loading and law-checking a universe builds one value table per distinct
    # algebra it meets, shared by its kinds and its load-time checks, and one
    # table of kinded grades; the reports made once per process (the builtin
    # algebras' and N's) are made by a first check, before counting
    assert check_universe_laws(load_universe(str(path))).ok
    made = []
    original = Indexed.__init__

    def counted(self, alg):
        made.append(alg)
        original(self, alg)

    monkeypatch.setattr(Indexed, "__init__", counted)
    u = load_universe(str(path))
    assert check_universe_laws(u).ok
    algebras = {alg for k, alg in u.kinds.items() if k != "N"}
    assert len(algebras) == tables and set(u.tables) == algebras
    assert Counter(made) == Counter([*algebras, u.indexed.alg])


def test_default_universes_share_no_table():
    us = [default_universe() for _ in range(2)]
    for u in us:
        u.add(u.parse_grade("A:1"), u.parse_grade("P:private"))
        u.add(u.parse_grade("A:1"), u.parse_grade("A:w"))
    left, right = (set(map(id, u.tables.values())) for u in us)
    assert us[0].tables is not us[1].tables and left and not left & right


@pytest.mark.parametrize("make, per_id", [
    (lambda: load_universe(str(pathlib.Path(__file__).parent / "corpus" / "bool.json")), 4),
    (_fin_product, 4),
    (lambda: load_universe(str(PROGRAMS / "chain_pool80.json")), 4),
    (lambda: validate_universe({"R": EXTREAL}, []), 3)],
    ids=["bool", "fin_product", "chain_pool80", "extreal"])
def test_a_law_check_builds_few_kinded_grades(monkeypatch, pooled, make, per_id):
    # a missed sum or product finds its result's id by its code in the join
    # kind, finite or infinite (or by the natural itself): the pooled kernels
    # build a KindedGrade for each grade they intern, not for each pair (2,661
    # for 166 ids on bool, 24,743 for 232 on chain_pool80 and 10,932 for 906
    # on extreal when every miss built and hashed its result)
    u = make()
    made = Counter()
    original = KindedGrade.__init__

    def counted(self, *args, **kwargs):
        made["grades"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(KindedGrade, "__init__", counted)
    assert check_universe_laws(u).ok
    assert 0 < made["grades"] <= per_id * len(u.indexed.values)


def test_coded_operations_match_the_kind_algebras():
    # every pool pair of a universe of naturals, finite and infinite kinds:
    # the universe's answer is the join kind's public operation on the
    # operands moved there, whether the join kind is finite or not (RB, with
    # an infinite side, joins B in B, a finite kind, and R in R, an infinite
    # one); every kind met but N keeps a table of its codes
    u = validate_universe(
        {"A": AFFINITY, "P": PRIVACY, "AP": ProductAlgebra(AFFINITY, PRIVACY), "B": BOOLEAN,
         "RB": ProductAlgebra(EXTREAL, BOOLEAN), "R": EXTREAL, "E": ExtendAlgebra(NAT),
         "EB": ExtendAlgebra(BOOLEAN), "M": NAT},
        [RefinementEdge("AP", "A", ProjLeftHom(ProductAlgebra(AFFINITY, PRIVACY))),
         RefinementEdge("RB", "B", ProjRightHom(ProductAlgebra(EXTREAL, BOOLEAN))),
         RefinementEdge("RB", "R", ProjLeftHom(ProductAlgebra(EXTREAL, BOOLEAN)))])
    pool = u.sample_pool()
    for x in pool:
        for y in pool:
            j = u.join(x.kind, y.kind)
            alg = u.algebra(j)
            vx, vy = u.transport(x.kind, j, x.value), u.transport(y.kind, j, y.value)
            product = ZERO_D if ZERO_D in (x, y) else KindedGrade(j, alg.mul(vx, vy))
            for got, want in ((u.add(x, y), KindedGrade(j, alg.add(vx, vy))),
                              (u.mul(x, y), product)):
                assert got == want and got is u.intern(got)
            assert u.leq(x, y) == (u.kind_leq(x.kind, y.kind) and u.algebra(y.kind).leq(
                u.transport(x.kind, y.kind, x.value), y.value))
    assert set(u.indexed.alg.kind_codes) == set(u.kinds) - {"N"}


def test_a_result_off_a_coded_carrier_is_refused_and_kept_nowhere():
    # a table admitted unchecked whose 1 + 1 and 1 * 1 name a non-element:
    # each operation that reaches it is refused with the message of the
    # carrier check, every time, and no memo keeps an answer
    table = BOOLEAN.table
    leaky = {a: {**row, "1": "2"} if a == "1" else dict(row) for a, row in table.sum.items()}
    u = validate_universe({"X": FiniteAlgebra(FiniteTable(
        name="leaky", elements=table.elements, leq=table.leq, sum=leaky,
        mul={a: dict(row) for a, row in leaky.items()}, zero="0", one="1"))}, [],
        validate_algebras=False)
    one, nat_one, nat_three = (u.parse_grade(t) for t in ("X:1", "1", "3"))
    size = len(u.indexed.values)
    for op in (u.add, u.mul):
        for args in [(one, one), (one, nat_one), (nat_one, one), (one, nat_three)] * 2:
            with pytest.raises(CarrierMismatch, match="^2 is not a value of table:leaky$"):
                op(*args)
    ix = u.indexed
    assert len(ix.values) == size
    assert all(one.id not in ix._add[i] and one.id not in ix._mul[i] for i in (one.id, nat_one.id))
    assert u.add(one, u.parse_grade("X:0")) is one


def test_check_universe_laws_witnesses():
    # a broken kind, admitted unchecked
    from conftest import noncommutative_affinity
    u = validate_universe({"X": noncommutative_affinity()}, [], validate_algebras=False)
    report = check_universe_laws(u)
    assert {r.law: r.witness for r in report.failures()} == {
        "add-commutative": ("1", "X:w"),
        "add-associative": ("1", "1", "X:1"),
        "distributes-left": ("X:1", "1", "2"),
        "distributes-right": ("X:1", "1", "2"),
        "add-monotone": (
            "(KindedGrade(kind='N', value=Nat(n=0)), KindedGrade(kind='N', value=Nat(n=1)))",
            "(KindedGrade(kind='N', value=Nat(n=2)), "
            "KindedGrade(kind='X', value=FiniteElem(name='w', algebra='broken')))"),
    }


def test_sample_pool_reaches_the_top_of_infinite_kinds():
    u = validate_universe({"E": ExtendAlgebra(NAT), "R": EXTREAL}, [])
    pool = u.sample_pool()
    for kind in ("E", "R"):
        shown = [str(g) for g in pool if g.kind == kind]
        assert len(shown) == POOL_SAMPLES
        assert shown[0] == f"{kind}:0" and shown[-1] == f"{kind}:inf"
    assert check_universe_laws(u).ok


def test_check_universe_laws_degenerate():
    u = validate_universe({}, [])
    report = check_universe_laws(u)
    assert report.ok


def test_parse_and_format_grades(ap_universe):
    for text in ["4", "A:w", "P:private", "AP:(w,private)", "T:inf", "PP:d"]:
        g = ap_universe.parse_grade(text)
        assert ap_universe.parse_grade(str(g)) == g
    assert ap_universe.parse_grade("3") == N(3)
    with pytest.raises(UnknownKind):
        ap_universe.parse_grade("Q:1")
    with pytest.raises(ValueError):
        ap_universe.parse_grade("A:zz")


def test_default_universe_shape(universe):
    assert set(universe.kinds) == {"N", "T", "A", "P"}
    assert universe.join("A", "P") == "T"


def test_default_universes_share_no_state():
    # the default kinds are validated once per process; each universe still
    # has its own intern table and dicts
    u, v = default_universe(), default_universe()
    for w in (u, v):
        assert w.indexed.values[0] is ZERO_D and w.indexed.values[1] is ONE_D
        assert len(w.indexed.values) == 2
    u.intern(AFF("w"))
    u.homs["A", "T"] = IdentityHom(AFFINITY)
    u.join_table["A", "P"] = "A"
    u.kinds["Q"] = AFFINITY
    for w in (v, default_universe()):
        assert len(w.indexed.values) == 2
        assert isinstance(w.homs["A", "T"], ZetaHom)
        assert w.join_table["A", "P"] == "T"
        assert set(w.kinds) == {"N", "T", "A", "P"}
        assert w.add(AFF("1"), AFF("1")) == AFF("w")


def pp_p_b_universe():
    """PP refines P refines B."""
    b = lambda n: FiniteElem(n, "boolean")
    p_to_b = FiniteMapHom(PRIVACY, BOOLEAN,
                          {"0": b("0"), "private": b("1"), "public": b("1")})
    assert validate_hom(p_to_b).ok
    u = validate_universe(
        {"PP": PPRIVACY, "P": PRIVACY, "B": BOOLEAN},
        [RefinementEdge("PP", "P", pp_to_p_hom()),
         RefinementEdge("P", "B", p_to_b)])
    return u, p_to_b


def test_two_edge_chain_composes():
    # the derived PP->B hom is the composition
    b = lambda n: FiniteElem(n, "boolean")
    u, p_to_b = pp_p_b_universe()
    assert u.kind_leq("PP", "B")
    assert u.join("PP", "B") == "B"
    h = u.hom("PP", "B")
    for name in ("a", "b", "c", "d"):
        step1 = pp_to_p_hom().apply(FiniteElem(name, "privacy4"))
        assert h.apply(FiniteElem(name, "privacy4")) == p_to_b.apply(step1)
    assert h.apply(FiniteElem("0", "privacy4")) == b("0")
    report = check_universe_laws(u)
    assert report.ok, [str(r) for r in report.failures()]
    # operations route through the chain: <PP,d> + <B,0> lands in B
    got = u.add(KindedGrade("PP", FiniteElem("d", "privacy4")),
                KindedGrade("B", b("0")))
    assert got == KindedGrade("B", b("1"))


def test_check_universe_laws_catches_a_derived_hom_off_its_route():
    # a PP->B map that disagrees with the route through P on a
    b = lambda n: FiniteElem(n, "boolean")
    u, _ = pp_p_b_universe()
    u.homs["PP", "B"] = FiniteMapHom(PPRIVACY, BOOLEAN,
                                     {n: b("0" if n in "0a" else "1") for n in "0abcd"})
    failures = {r.law: r.witness for r in check_universe_laws(u).failures()}
    assert sorted(failures) == sorted([
        "add-associative", "mul-associative", "distributes-left", "distributes-right",
        "add-monotone", "mul-monotone", "hom-functorial", "inj-1-left-assoc",
        "inj-2-middle-route"])
    assert failures["add-associative"] == ("B:0", "P:0", "PP:a")
    assert failures["hom-functorial"] == ("PP", "P", "B")
    assert failures["inj-1-left-assoc"] == ("PP", "P", "B")
    assert failures["inj-2-middle-route"] == ("B", "PP", "P")


def test_residual_candidates_are_grades_of_the_available_kind():
    # an ambiguous component residual is re-raised with whole product or
    # extended values, every combination of the component candidates
    from conftest import ambiguous_algebra
    from gradefj.grades import ExtendAlgebra, NAT
    amb = ambiguous_algebra()
    u = validate_universe({"M": amb, "Q": ProductAlgebra(amb, NAT), "E": ExtendAlgebra(amb),
                           "MM": ProductAlgebra(amb, amb)}, [], validate_algebras=False)
    pool = u.sample_pool()
    for available in pool:
        for demand in pool:
            for r in u.residual_candidates(available, demand):
                assert u.intern(r) is r  # canonical, so a valid grade
                assert r.kind == available.kind
    q = lambda text: u.parse_grade(f"Q:{text}")
    assert sorted(map(str, u.residual_candidates(q("(a,3)"), q("(1,1)")))) == [
        "Q:(x,2)", "Q:(y,2)"]
    mm = u.residual_candidates(u.parse_grade("MM:(a,a)"), u.parse_grade("MM:(1,1)"))
    assert sorted(map(str, mm)) == ["MM:(x,x)", "MM:(x,y)", "MM:(y,x)", "MM:(y,y)"]
