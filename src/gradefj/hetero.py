"""Heterogeneous grades: a family of algebras glued along refinements.

Kinds name grade algebras; a user-declared direct-refinement relation
(with unique paths and least common ancestors) induces a partial order
with finite joins on kinds, and a unique homomorphism for every related
pair.  Pairs <kind, value> then form a single grade algebra: comparisons
and operations first transport both operands into the join kind.

The kinds N (naturals) and T (trivial) are always present: N is the
bottom kind and supplies the zero and one of the combined algebra, T is
the default join of unrelated kinds.

Each ``GradeUniverse`` interns the kinded grades it meets in one
``grades.Indexed`` table, whose canonical grades carry their id, and
answers ``leq``, ``add``, ``mul`` and ``residual`` from memo rows indexed
by id: the checker and the interpreters call them on every step, and the
law check ``check_universe_laws`` runs its axioms over the same ids where a
fact about single kinds and steps fails.  The universe alone resolves a
grade to its id; the table's ``KindedAlgebra`` checks each grade once, as
it is interned, and its unchecked operations take only the table's
canonical grades.  Sums and products work one level down, in the
universe's one ``Indexed`` table of values for each algebra, shared by
every kind that holds it; each kind keeps its own codes, the ids there of
its grades' values or images.  The operands' codes in their join kind give
the result's code, and the result's kinded id is looked up by its code in
that kind, so that filling the memo rows builds and hashes a kinded grade
only for a result new to the universe.  Two naturals are added and
multiplied as ints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import chain, product as iproduct
from operator import add, itemgetter, mul
from typing import Callable, Optional

from .grades import (
    AFFINITY,
    BUILTINS,
    NAT,
    TRIVIAL,
    Algebra,
    ComposeHom,
    ExtendAlgebra,
    FiniteAlgebra,
    FiniteMapHom,
    FiniteTable,
    GradeError,
    GradeValue,
    Hom,
    IdentityHom,
    Indexed,
    IotaHom,
    LawReport,
    LawResult,
    Memo,
    Nat,
    ProductAlgebra,
    ProjLeftHom,
    ProjRightHom,
    ZetaHom,
    builtin_name,
    check_laws,
    compose,
    semiring_laws,
    structural_hom,
    structural_report,
    the_residual,
    validate_algebra,
    validate_hom,
)

KIND_NAT = "N"
KIND_TRIVIAL = "T"
NAT_PREFIX = 11   # naturals 0..10 stand for kind N in the kinded pool
POOL_SAMPLES = 8  # values of each other infinite kind in the kinded pool
# Universe files are refused past these bounds, before any law check runs:
MAX_SPEC_DEPTH = 8  # nesting of algebra and homomorphism specs
# The law checks read cubically many operation results in these, at C level
# a memo row at a time; their Python-level work is at most quadratic.
MAX_CARRIER = 32    # elements of a finite kind
MAX_POOL = 80       # grades in the kinded pool


class UniverseError(GradeError):
    """A refinement graph fails the conditions for a grade signature."""


class CycleDetected(UniverseError):
    pass


class DuplicatePath(UniverseError):
    def __init__(self, sub, sup, paths):
        super().__init__(f"more than one refinement path from {sub} to {sup}: {paths}")
        self.sub, self.sup, self.paths = sub, sup, paths


class NoLeastAncestor(UniverseError):
    def __init__(self, k1, k2, minimal):
        super().__init__(
            f"kinds {k1} and {k2} have common ancestors but no least one; "
            f"minimal ancestors: {sorted(minimal)}")
        self.kinds, self.minimal = (k1, k2), minimal


class UnknownKind(UniverseError):
    pass


class NotRefinement(UniverseError):
    pass


@dataclass(frozen=True)
class KindedGrade:
    """A grade of the combined algebra: a value of the algebra of ``kind``."""

    kind: str
    value: GradeValue
    # the grade's id in the universe table that made it canonical (-1: none);
    # a universe trusts it only when its table holds this very object there
    id: int = field(default=-1, repr=False, compare=False, hash=False)

    def __str__(self):
        if self.kind == KIND_NAT:
            return str(self.value)
        return f"{self.kind}:{self.value}"


# canonical in every universe: its table interns them first
ZERO_D = KindedGrade(KIND_NAT, Nat(0), 0)
ONE_D = KindedGrade(KIND_NAT, Nat(1), 1)


@dataclass(frozen=True)
class RefinementEdge:
    """A declared direct refinement: kind ``sub`` refines ``sup`` by ``hom``."""

    sub: str
    sup: str
    hom: Hom


def _algebra_of(kinds: dict[str, Algebra], kind: str) -> Algebra:
    if kind not in kinds:
        raise UnknownKind(f"unknown grade kind {kind!r}")
    return kinds[kind]


class KindedAlgebra:
    """The combined algebra on kinded grades: operands are transported into
    their join kind.  ``GradeUniverse`` answers from its ``Indexed`` table
    over this, which calls ``unchecked_leq``, ``add_id``, ``mul_id`` and
    ``unchecked_residuals`` once per pair of its canonical grades; they take
    no other operands.

    ``canonical`` is the one check of a kinded value, as it is for an
    ``Algebra``'s values: the table calls it when it interns a grade.  Each
    algebra has one ``Indexed`` table of values in the universe's ``tables``,
    shared by the kinds that hold it, and each kind met other than N keeps
    its own codes in ``kind_codes``: a kinded id's code in a kind is the id
    in its algebra's table of the grade's own value or of its image there,
    interned (and so checked, by that table's ``canonical``) once.  A hom
    that raises, or whose image leaves the kind, stores nothing.  Sums and
    products work on the operands' codes in their join kind, through the
    table's memo rows, and find the result's kinded id by its code in that
    kind, so only a result new to the universe builds a ``KindedGrade``; two
    naturals, whose join kind is N, are added and multiplied as ints.
    ``unchecked_leq`` and ``unchecked_residuals`` run on values.  This holds
    the universe's dicts, not the universe or its grade table, so that no
    reference cycle outlives a universe."""

    def __init__(self, u: GradeUniverse):
        self.kinds, self.order, self.join_table, self.homs, self.tables = (
            u.kinds, u.order, u.join_table, u.homs, u.tables)
        # each kind met but N: its algebra's table, the code of each kinded id
        # (code_of) and the kinded id of each code (id_of); made when first
        # asked for, by a closure over the dicts, not over self
        kinds, tables = self.kinds, self.tables
        self.kind_codes: dict[str, tuple[Indexed, dict[int, int], dict[int, int]]] = Memo(
            lambda kind: (tables[kinds[kind]], {}, {}))
        self._nat_ids: dict[int, int] = {}  # the kinded id of each natural

    def canonical(self, g: KindedGrade, i: int) -> KindedGrade:
        """The grade stored as id ``i``: its validity is checked here, once."""
        _algebra_of(self.kinds, g.kind).check_value(g.value)
        return g if g.id == i else KindedGrade(g.kind, g.value, i)

    def _code(self, g: KindedGrade, kind: str) -> int:
        """Canonical ``g``'s code in ``kind``, kept once found."""
        table, code_of, id_of = self.kind_codes[kind]
        if g.kind == kind:
            c = code_of[g.id] = table.id(g.value)
            id_of[c] = g.id  # a result equal to g needs no lookup by value
        else:
            c = code_of[g.id] = table.id(self.homs[g.kind, kind].apply(g.value))
        return c

    def _moved(self, g: KindedGrade, kind: str) -> GradeValue:
        """Canonical ``g``'s value in ``kind``: its own, or its image there."""
        if g.kind == kind:  # checked when it was interned
            return g.value
        table, code_of, _ = self.kind_codes[kind]
        c = code_of.get(g.id)
        return table.values[self._code(g, kind) if c is None else c]

    def _op_id(self, op: Callable[[Indexed, int, int], int], nat_op: Callable[[int, int], int],
               x: KindedGrade, y: KindedGrade, intern: Callable[[KindedGrade], int]) -> int:
        """The id of ``op`` (``Indexed.add`` or ``Indexed.mul``) on canonical
        ``x`` and ``y`` in their join kind, read on their codes there; a
        result new to the universe is interned by ``intern``.  Two naturals
        take ``nat_op`` on ints."""
        kind = self.join_table[x.kind, y.kind]
        if kind == KIND_NAT:
            n = nat_op(x.value.n, y.value.n)
            i = self._nat_ids.get(n)
            if i is None:
                i = self._nat_ids[n] = intern(KindedGrade(KIND_NAT, Nat(n)))
            return i
        table, code_of, id_of = self.kind_codes[kind]
        cx = code_of.get(x.id)
        if cx is None:
            cx = self._code(x, kind)
        cy = code_of.get(y.id)
        if cy is None:
            cy = self._code(y, kind)
        r = op(table, cx, cy)
        i = id_of.get(r)
        if i is None:
            i = id_of[r] = intern(KindedGrade(kind, table.values[r]))
            code_of[i] = r
        return i

    def unchecked_leq(self, x: KindedGrade, y: KindedGrade) -> bool:
        if (x.kind, y.kind) not in self.order:
            return False
        return self.kinds[y.kind].unchecked_leq(self._moved(x, y.kind), y.value)

    def add_id(self, x: KindedGrade, y: KindedGrade, intern: Callable[[KindedGrade], int]) -> int:
        """The id of x + y, a new sum interned by ``intern``."""
        return self._op_id(Indexed.add, add, x, y, intern)

    def mul_id(self, x: KindedGrade, y: KindedGrade, intern: Callable[[KindedGrade], int]) -> int:
        """The id of x * y, a new product interned by ``intern``."""
        if x.id == ZERO_D.id or y.id == ZERO_D.id:  # only <N,0> is the combined zero
            return ZERO_D.id
        return self._op_id(Indexed.mul, mul, x, y, intern)

    def unchecked_residuals(self, available: KindedGrade,
                            demand: KindedGrade) -> list[KindedGrade]:
        """Every maximal residual, looked for in the kind of the available
        grade; the demand must refine that kind for any residual to exist."""
        kind = available.kind
        if (demand.kind, kind) not in self.order:
            return []
        return [KindedGrade(kind, v) for v in self.kinds[kind].unchecked_residuals(
            available.value, self._moved(demand, kind))]

    def zero(self) -> KindedGrade:
        return ZERO_D

    def one(self) -> KindedGrade:
        return ONE_D


@dataclass(eq=False, repr=False)
class GradeUniverse:
    """A validated kind family with derived order, joins and homomorphisms.

    Every kinded grade it meets is interned in ``indexed`` (built over
    ``KindedAlgebra(self)``), whose canonical grades carry their id.
    ``_id`` is the one place a kinded grade is resolved to its id, and every
    operation goes through it: a canonical grade's id is read off it, any
    other grade is looked up by value first, and a value outside its kind is
    refused with CarrierMismatch every time, because it is never interned.
    ``tables`` holds one ``Indexed`` table of values per algebra, made when
    first asked for, so kinds that hold equal algebras share it; the
    load-time law checks fill it, and the kinded sums and products read it
    on their operands' codes, which each kind keeps for itself.  Each
    universe starts with its own dict, so no memo reaches another universe.
    """

    kinds: dict[str, Algebra]
    edges: list[RefinementEdge]
    order: frozenset[tuple[str, str]] = field(default_factory=frozenset)
    join_table: dict[tuple[str, str], str] = field(default_factory=dict)
    homs: dict[tuple[str, str], Hom] = field(default_factory=dict)
    # the load-time law report of each user-built kind (none when not
    # validated); a builtin algebra's is ``builtin_law_report``'s
    law_reports: dict[str, LawReport] = field(default_factory=dict)
    tables: dict[Algebra, Indexed] = field(default_factory=lambda: Memo(Indexed))
    indexed: Indexed = field(init=False)

    def __post_init__(self):
        self.indexed = Indexed(KindedAlgebra(self))
        self.indexed.id(ZERO_D), self.indexed.id(ONE_D)

    # -- kinds ------------------------------------------------------------

    def algebra(self, kind: str) -> Algebra:
        return _algebra_of(self.kinds, kind)

    def kind_leq(self, k1: str, k2: str) -> bool:
        self.algebra(k1), self.algebra(k2)
        return (k1, k2) in self.order

    def join(self, k1: str, k2: str) -> str:
        self.algebra(k1), self.algebra(k2)
        return self.join_table[(k1, k2)]

    def hom(self, k1: str, k2: str) -> Hom:
        if not self.kind_leq(k1, k2):
            raise NotRefinement(f"{k1} does not refine {k2}")
        return self.homs[(k1, k2)]

    def transport(self, k1: str, k2: str, value: GradeValue) -> GradeValue:
        """Apply the derived homomorphism k1 -> k2."""
        return self.hom(k1, k2).apply(value)

    def law_report(self, kind: str) -> LawReport:
        """``kind``'s law report: from load, or ``builtin_law_report``'s."""
        return self.law_reports.get(kind) or builtin_law_report(builtin_name(self.kinds[kind]))

    # -- kinded grades ------------------------------------------------------

    def _id(self, g: KindedGrade) -> int:
        """``g``'s id in this table.  The id a grade carries is trusted only
        when the table holds that very object there; any other grade (a
        stale or foreign id included) is interned by value."""
        ix = self.indexed
        try:
            if ix.values[g.id] is g:
                return g.id
        except IndexError:
            pass
        return ix.id(g)

    def intern(self, g: KindedGrade) -> KindedGrade:
        """The canonical grade equal to ``g``; a grade of an unknown kind or
        outside its kind raises UnknownKind or CarrierMismatch."""
        return self.indexed.values[self._id(g)]

    # The checker and both interpreters call these on every step: each reads
    # one memo row.

    def leq(self, x: KindedGrade, y: KindedGrade) -> bool:
        return self.indexed.leq(self._id(x), self._id(y))

    def add(self, x: KindedGrade, y: KindedGrade) -> KindedGrade:
        ix = self.indexed
        return ix.values[ix.add(self._id(x), self._id(y))]

    def mul(self, x: KindedGrade, y: KindedGrade) -> KindedGrade:
        ix = self.indexed
        return ix.values[ix.mul(self._id(x), self._id(y))]

    def residual(self, available: KindedGrade, demand: KindedGrade) -> Optional[KindedGrade]:
        """Maximal leftover after consuming ``demand`` out of ``available``.

        The leftover is looked for in the kind of the available grade; the
        demand must refine that kind for any leftover to exist at all.
        May raise AmbiguousResidual on finite tables with incomparable maxima.
        """
        return the_residual(self.residual_candidates(available, demand))

    def residual_candidates(self, available: KindedGrade, demand: KindedGrade) -> list[KindedGrade]:
        """Every maximal residual: none, one, or several incomparable ones."""
        ix = self.indexed
        return [ix.values[k] for k in ix.residual(self._id(available), self._id(demand))]

    # -- parsing / printing ------------------------------------------------

    def parse_grade(self, text: str) -> KindedGrade:
        """Parse ``KIND:payload``; a bare payload defaults to kind N."""
        text = text.strip()
        if ":" in text:
            kind, payload = text.split(":", 1)
            kind = kind.strip()
        else:
            kind, payload = KIND_NAT, text
        return self.intern(KindedGrade(kind, self.algebra(kind).parse_payload(payload.strip())))

    def sample_pool(self, nat_prefix: int = NAT_PREFIX) -> list[KindedGrade]:
        """Deterministic kinded-value pool: full finite carriers, a prefix
        of the naturals, and ``POOL_SAMPLES`` values spread over the sample
        of each other infinite kind, its first and last value included."""
        pool: list[KindedGrade] = []
        for kind in sorted(self.kinds):
            alg = self.kinds[kind]
            if kind == KIND_NAT:
                values = [Nat(n) for n in range(nat_prefix)]
            else:
                values = alg.elements()
                if values is None:
                    values = _spread(alg.sample(), POOL_SAMPLES)
            pool.extend(self.intern(KindedGrade(kind, v)) for v in values)
        return pool


def _spread(sample: list, count: int) -> list:
    """``count`` values spread evenly from the first of ``sample`` to the
    last (all of it when shorter): samples end at infinity where a kind has
    one, so it enters the pool."""
    if len(sample) <= count:
        return sample
    return [sample[k * (len(sample) - 1) // (count - 1)] for k in range(count)]


def validate_universe(kinds: dict[str, Algebra], edges: list[RefinementEdge],
                      validate_algebras: bool = True) -> GradeUniverse:
    """Validate kinds, edges and refinement conditions; derive the rest.

    Conditions: between any two user kinds there is at most one refinement
    path, and any two kinds with a common ancestor have a least one.  One
    pass derives each user kind's homomorphism to every ancestor, supers
    before subs; its keys are the ancestor sets the joins are read from.
    The derived join table is checked to be a commutative idempotent
    monoid with unit N.  The algebra laws are checked here for user-built
    kinds (tables, products, extensions) only, each algebra's once per load
    (``_load_report``), decided by ``grades.structural_report`` where its
    structure proves them: a product of proved factors, finite or not, reads
    a factor's report from this load, a builtin factor is trusted, and a
    builtin algebra's own report is ``builtin_law_report``'s, made once per
    process when asked for, by structure for ``nat`` and ``extreal``.  An
    edge whose map ``grades.structural_hom`` proves (the identity or a
    projection out of a lawful product) needs no case checked; any other is
    checked by ``validate_hom``.
    """
    kinds = dict(kinds)
    for reserved, alg in ((KIND_NAT, NAT), (KIND_TRIVIAL, TRIVIAL)):
        if reserved in kinds and kinds[reserved] != alg:
            raise UniverseError(f"kind {reserved} is reserved and may not be redeclared")
        kinds[reserved] = alg
    user = [k for k in kinds if k not in (KIND_NAT, KIND_TRIVIAL)]

    # one value table per algebra, made when first asked for: an edge's
    # check reads the memo rows its kinds' checks filled, and the universe's
    # kinded sums and products read them all, with codes per kind
    tables: dict[Algebra, Indexed] = Memo(Indexed)
    law_reports: dict[str, LawReport] = {}
    if validate_algebras:
        report_of = partial(_load_report, tables, {})
        for k in sorted(k for k in user if builtin_name(kinds[k]) is None):
            report = law_reports[k] = report_of(kinds[k])
            if not report.ok:
                raise UniverseError(
                    f"algebra of kind {k} violates {report.failures()[0].law}: "
                    f"{report.failures()[0].witness}")
    lawful = _lawful(kinds, law_reports)

    supers: dict[str, list[RefinementEdge]] = {k: [] for k in user}
    for e in edges:
        if e.sub in (KIND_NAT, KIND_TRIVIAL) or e.sup in (KIND_NAT, KIND_TRIVIAL):
            raise NotRefinement("edges to or from N and T are implicit")
        if e.sub == e.sup:
            raise NotRefinement(f"self-refinement on kind {e.sub}")
        if e.sub not in kinds or e.sup not in kinds:
            raise UnknownKind(f"edge {e.sub} -> {e.sup} mentions an undeclared kind")
        # the edge's tables are made even when its structure proves the map,
        # so that a load tables every algebra its edges meet
        src, tgt = tables[e.hom.source()], tables[e.hom.target()]
        if not (structural_hom(e.hom, lawful) or (hom_report := validate_hom(e.hom, src, tgt)).ok):
            bad = hom_report.failures()[0]
            raise UniverseError(
                f"edge {e.sub} -> {e.sup}: homomorphism violates {bad.law}: {bad.witness}")
        if e.hom.source() != kinds[e.sub] or e.hom.target() != kinds[e.sup]:
            raise UniverseError(
                f"edge {e.sub} -> {e.sup}: homomorphism endpoints do not match the kinds")
        supers[e.sub].append(e)

    # up[k] maps each ancestor of k to the derived hom (condition 1: one
    # route to each); a kind's supers are derived before the kind itself
    up: dict[str, dict[str, Hom]] = {}
    deriving: list[str] = []

    def route(k, a):
        """The route from k to a through its first direct super reaching a."""
        if k == a:
            return (k,)
        return (k,) + route(next(e.sup for e in supers[k] if a in up[e.sup]), a)

    def derive(k):
        if k in deriving:
            loop = deriving[deriving.index(k):] + [k]
            raise CycleDetected(f"refinement cycle through {' -> '.join(loop)}")
        if k not in up:
            deriving.append(k)
            homs_k = {k: IdentityHom(kinds[k])}
            for e in supers[k]:
                for a, h in derive(e.sup).items():
                    if a in homs_k:
                        raise DuplicatePath(k, a, [route(k, a), (k,) + route(e.sup, a)])
                    homs_k[a] = compose(e.hom, h)
            up[k] = homs_k
            deriving.pop()
        return up[k]

    for k in sorted(user):
        derive(k)

    # least common ancestors (condition 2) and the join table
    join_table: dict[tuple[str, str], str] = {}
    all_kinds = sorted(kinds)
    for k1 in all_kinds:
        for k2 in all_kinds:
            if k1 == KIND_NAT:
                j = k2
            elif k2 == KIND_NAT:
                j = k1
            elif k1 == KIND_TRIVIAL or k2 == KIND_TRIVIAL:
                j = KIND_TRIVIAL
            else:
                # up[k1] lists each ancestor before the ancestor's own (one
                # route to each), so its first key that up[k2] holds is a
                # minimal common ancestor: the only one that can be the least
                j = next((c for c in up[k1] if c in up[k2]), KIND_TRIVIAL)
                if j != KIND_TRIVIAL:
                    common = up[k1].keys() & up[k2].keys()
                    if not common <= up[j].keys():
                        minimal = {c for c in common
                                   if not any(d != c and c in up[d] for d in common)}
                        raise NoLeastAncestor(k1, k2, minimal)
            join_table[(k1, k2)] = j

    if fault := _join_fault(join_table, all_kinds):
        raise UniverseError(fault)

    # N refines every kind and every kind refines T, by the unique homs
    homs: dict[tuple[str, str], Hom] = {(KIND_NAT, k): IotaHom(kinds[k]) for k in all_kinds}
    homs.update(((k, KIND_TRIVIAL), ZetaHom(kinds[k])) for k in all_kinds if k != KIND_NAT)
    homs.update(((k, k), IdentityHom(kinds[k])) for k in all_kinds)
    homs.update(((k, a), h) for k in user for a, h in up[k].items())

    return GradeUniverse(kinds=kinds, edges=list(edges), order=frozenset(homs),
                         join_table=join_table, homs=homs, law_reports=law_reports,
                         tables=tables)


def _load_report(tables: dict[Algebra, Indexed], reports: dict[Algebra, LawReport],
                 alg: Algebra) -> LawReport:
    """``alg``'s law report within one load, made once per algebra, over its
    table in ``tables``: a kind's, and a product's factors' (one equal to a
    kind's algebra is that kind's report), kept in ``reports``."""
    if alg not in reports:
        reports[alg] = validate_algebra(alg, tables[alg], partial(_load_report, tables, reports))
    return reports[alg]


def _lawful(kinds: dict[str, Algebra], law_reports: dict[str, LawReport]
            ) -> Callable[[Algebra], bool]:
    """The test of whether an algebra holds every axiom on all of its
    values, as ``grades.structural_hom`` asks: true of the algebra of a kind
    whose load-time report covers its carrier, of a builtin (trusted by
    identity, as ``structural_report`` trusts it), and of one whose
    structure proves it.  A kind admitted unchecked has no report."""
    proved = {id(kinds[k]) for k, report in law_reports.items() if report.whole}
    return lambda alg: (id(alg) in proved or builtin_name(alg) is not None
                        or structural_report(alg) is not None)


def _join_fault(join_table: dict[tuple[str, str], str], kinds: list[str]) -> Optional[str]:
    """Why ``join_table`` on ``kinds`` is not a commutative idempotent monoid
    with unit N, or None.  Associativity compares whole rows over k3:
    join(join(k1, k2), k3) against k1's row read at every join(k2, k3)."""
    row = {k1: {k2: join_table[k1, k2] for k2 in kinds} for k1 in kinds}
    across = {k: itemgetter(*row[k].values()) for k in kinds}
    for k1 in kinds:
        if row[k1][k1] != k1:
            return f"join not idempotent at {k1}"
        if row[k1][KIND_NAT] != k1:
            return f"N is not a join unit at {k1}"
        for k2 in kinds:
            if row[k1][k2] != row[k2][k1]:
                return f"join not commutative at {k1},{k2}"
            left, right = tuple(row[row[k1][k2]].values()), across[k2](row[k1])
            if left != right:
                k3 = next(k for k, l, r in zip(kinds, left, right) if l != r)
                return f"join not associative at {k1},{k2},{k3}"


@cache
def _validated_default() -> GradeUniverse:
    from .grades import PRIVACY
    return validate_universe({"A": AFFINITY, "P": PRIVACY}, [],
                             validate_algebras=False)


def default_universe() -> GradeUniverse:
    """N and T plus unrelated affinity (A) and two-level privacy (P).

    The kinds are validated on the first call only.  Each call returns a
    new universe with its own intern table, its own value tables and its own
    copies of the dicts, so no grade or value interned in one, and no edit
    of one, reaches another.
    """
    v = _validated_default()
    return GradeUniverse(kinds=dict(v.kinds), edges=list(v.edges), order=v.order,
                         join_table=dict(v.join_table), homs=dict(v.homs),
                         law_reports=dict(v.law_reports))


# -- universe-level law checking -------------------------------------------

@cache
def builtin_law_report(name: str) -> LawReport:
    """The law report of the builtin algebra ``name``, computed on the first
    call in a process: every kind that holds it holds the same constant."""
    return validate_algebra(BUILTINS[name])


MONOTONE_PAIRS = 400  # at most about this many related pairs for monotonicity

# What each axiom of the combined algebra rests on besides the same axiom in
# every kind (see ``check_universe_laws``): other per-kind axioms, the step
# facts "add", "mul", "leq", "zero" and "one", and "coherence".
# Annihilation rests on nothing.
_RESTS_ON = {
    "order-reflexive": (), "order-antisymmetric": (),
    "order-transitive": ("leq", "coherence"),
    "add-commutative": ("coherence",), "add-associative": ("add", "coherence"),
    "add-unit": ("zero", "coherence"), "mul-associative": ("mul", "coherence"),
    "mul-unit": ("one", "coherence"),
    "distributes-left": ("annihilation", "add", "mul", "zero", "coherence"),
    "distributes-right": ("annihilation", "add", "mul", "zero", "coherence"),
    "annihilation": None, "zero-least": ("zero",),
    "add-monotone": ("add", "leq", "coherence"),
    "mul-monotone": ("zero-least", "annihilation", "mul", "leq", "zero", "coherence"),
}


def check_universe_laws(u: GradeUniverse) -> LawReport:
    """Grade-algebra axioms for the combined algebra plus injection coherence.

    The fourteen axioms are ``semiring_laws``' on the kinded pool (full finite
    carriers, naturals 0..10, eight values spread over the sample of each
    other infinite kind; monotonicity on an even stride of at most
    ``MONOTONE_PAIRS`` related pairs).  Each is decided from facts on the
    grades the pool reaches in each kind (``_Reach.reached``), as
    ``_RESTS_ON`` lists:

    (a) the axiom in each kind, on every case of its reached grades: it
        holds on all the values of a lawful kind (``_lawful``: a builtin, a
        kind whose load-time report covers its carrier, exhaustively or by
        ``grades.structural_report``, or a kind admitted unchecked that
        structure proves); any other kind's reached ids are checked in its
        value table;
    (b) each direct step is a homomorphism on its source's reached grades:
        zeta (constant into T's one grade) always, a step between its kinds'
        algebras that ``grades.structural_hom`` proves (the identity, a
        projection out of a product, iota into a lawful kind) on all values,
        and any other passes ``validate_hom`` on those grades; and each
        other derived hom is a step composed with the hom after it, as
        ``validate_universe`` derives it;
    (c) the coherence facts and the join check (see ``_coherence_laws``).

    By (b) and (c) each derived hom preserves +, * and <= on reached grades
    and moves a pool grade x of kind a to a reached grade x_c of each kind c
    above a, the same along every route.  A sum or product is taken in the
    join kind m of its operands, on their images there, but a product with
    <N,0> is <N,0>, which iota moves to each kind's 0.  So:
    - reflexivity, antisymmetry: x <= y needs kind(x) <= kind(y), and is
      then decided in kind(y); both ways, the kinds are equal;
    - transitivity: x <= y <= z gives x_c <= y_c <= z in c = kind(z);
    - commutativity, associativity, distributivity, monotonicity: both sides
      are made in m from the x_m, where the axiom holds;
    - units: x + 0 and x * 1 are made in kind(x) with iota's 0 and 1, and
      zero-least reads 0 <= x there;
    - with a <N,0> operand: annihilation is the shortcut itself, both sides
      of associativity are <N,0>, a distributive law reads x(0 + z) = 0 + xz
      in m (by annihilation and distributivity there), and mul-monotone
      compares <N,0> with y_m z_m, above 0 * 0 = 0 in m.

    The facts trust ``u.order``, ``u.edges`` and the algebras of N and T
    as validated, as the coherence kernels do.  They trust every builtin
    algebra (``grades.BUILTINS``) to hold every axiom on all of its values,
    as kinds, as factors of products and as targets of iota: the tests pass
    the exhaustive reports of ``affinity``, ``boolean`` and ``trivial``, and
    check the fourteen axioms of ``nat`` and ``extreal``, and the absence of
    nonzero sums to 0 and of zero divisors, on exhaustive grids of their
    values, where ``structural_report`` rests on them.  An axiom whose
    facts fail, or raise, runs the pooled row kernels of ``semiring_laws``
    over the ids of ``u.indexed``, so its PASS or FAIL line and witness are
    theirs.
    """
    grades = u.sample_pool()
    r = _Reach(u, grades)
    results = {law: LawResult(law, True) for law in _RESTS_ON}
    if pooled := _unproved_axioms(u, r):
        ix = u.indexed
        laws = semiring_laws(ix, [g.id for g in grades], monotone_pairs=MONOTONE_PAIRS)
        results.update((res.law, res) for res in check_laws(
            [law for law in laws if law[0] in pooled], show=ix.show).results)
    return LawReport([*results.values(), *check_laws(_coherence_laws(u, grades, r)).results])


def _unproved_axioms(u: GradeUniverse, r: _Reach) -> set[str]:
    """The axioms of the combined algebra whose facts fail or raise."""
    try:
        failed = _kind_failures(u, r) | _step_failures(u, r)
        if not (all(map(r.facts, r.names)) and r.join_check()):
            failed.add("coherence")
    except Exception:
        return set(_RESTS_ON)
    return {law for law, rests in _RESTS_ON.items()
            if rests is not None and failed & {law, *rests}}


def _reached_ids(u: GradeUniverse, r: _Reach, k: str) -> tuple[Indexed, list[int]]:
    """The value table of k's algebra, and the ids there of the values of
    the grades k reaches, in their order."""
    table, values = u.tables[u.kinds[k]], u.indexed.values
    return table, [table.id(values[i].value) for i in r.reached(k)]


def _kind_failures(u: GradeUniverse, r: _Reach) -> set[str]:
    """The axioms that fail in some kind on the grades it reaches (fact a):
    none in a lawful kind, the enumerated failures in any other."""
    failed: set[str] = set()
    for k in r.names:
        alg = u.kinds[k]
        if k == KIND_NAT and alg is not NAT:
            # the kinded operations add and multiply naturals as ints
            report = LawReport([])
        elif r.lawful(alg):
            continue
        else:
            report = check_laws(semiring_laws(*_reached_ids(u, r, k)))
        failed |= _RESTS_ON.keys() - {res.law for res in report.results if res.ok}
    return failed


def _step_failures(u: GradeUniverse, r: _Reach) -> set[str]:
    """The facts of (b) that fail: none for zeta or a step between its
    kinds' algebras that ``grades.structural_hom`` proves, those
    ``_step_facts`` reads off the ``validate_hom`` report of any other step
    on its source's reached grades, and "add", "mul" and "leq" when a
    derived hom is not the composition of a step and the hom after it."""
    failed: set[str] = set()
    for k in r.names:
        for s in r.supers[k]:
            h, alg = u.homs[k, s], u.kinds[s]
            if k != KIND_NAT and s != KIND_TRIVIAL and not all(
                    _composes(u.homs[k, c], h, u.homs[s, c])
                    for c in r.above[s] if c not in (s, KIND_TRIVIAL)):
                failed |= {"add", "mul", "leq"}
            # zeta is constant into T's one grade: every fact holds.  A map
            # structure proves is a homomorphism between its own ends, which
            # an edit of ``u.homs`` may have moved off the step's kinds
            if type(h) is ZetaHom or (structural_hom(h, r.lawful)
                                      and (h.source(), h.target()) == (u.kinds[k], alg)):
                continue
            # the images of the reached grades, as the coherence facts moved them
            (src, ids), tgt = _reached_ids(u, r, k), u.tables[alg]
            images = [tgt.id(u.indexed.values[i].value) for i in r.image(k, s)]
            failed |= _step_facts(validate_hom(h, src, tgt, ids, zip(ids, images)))
    return failed


# the fact of (b) each law of a step's ``validate_hom`` report states
_STEP_FACTS = {"hom-zero": "zero", "hom-one": "one", "hom-add": "add", "hom-mul": "mul",
               "hom-monotone": "leq"}


def _step_facts(report: LawReport) -> set[str]:
    """The facts of (b) a step's ``validate_hom`` report fails; all of them
    where the map is undefined on a case or maps it off its target
    (hom-total, or a pair law whose witness is the error alone)."""
    bad = report.failures()
    if any(res.law == "hom-total" or res.law not in ("hom-zero", "hom-one")
           and len(res.witness) == 1 for res in bad):
        return set(_STEP_FACTS.values())
    return {_STEP_FACTS[res.law] for res in bad}


def _composes(h: Hom, first: Hom, second: Hom) -> bool:
    """Whether ``h`` is ``compose(first, second)`` as a map, in the form
    ``validate_universe`` derives it."""
    if type(first) is IdentityHom:
        return h is second
    if type(second) is IdentityHom:
        return h is first
    return type(h) is ComposeHom and h.first is first and h.second is second


class _Reach:
    """What the coherence kernels and the axioms' facts share in one check:
    each kind's direct supers and the kinds above it, the grades the pool
    reaches in each kind, the two coherence facts per kind (see
    ``_coherence_laws``), each computed once, and which algebras are
    lawful (``_lawful``).  The memos are plain dicts: a cycle of cached
    closures would keep the universe's tables alive until the cyclic
    collector ran."""

    def __init__(self, u: GradeUniverse, grades: list[KindedGrade]):
        self.u, self.grades = u, grades
        self.lawful = _lawful(u.kinds, u.law_reports)
        names = self.names = sorted(u.kinds)
        # from the validated order and edges: per kind, the kinds above it
        # and its direct supers; N's homs are not composed along edges, so
        # every other kind is a direct super of N
        self.above = {k: [c for c in names if (k, c) in u.order] for k in names}
        supers = self.supers = {k: [KIND_TRIVIAL] for k in names}
        supers[KIND_NAT], supers[KIND_TRIVIAL] = [c for c in names if c != KIND_NAT], []
        for e in u.edges:
            supers[e.sub].append(e.sup)
        self._moves: dict[str, dict[int, int]] = {}
        self._reached: dict[str, list[int]] = {}
        self._images: dict[tuple[str, str], list[int]] = {}
        self._facts: dict[str, bool] = {}
        self._join: Optional[bool] = None

    def into(self, kind: str, ids: list[int]) -> list[int]:
        """The grades ``ids`` moved into ``kind``, each moved once."""
        ix, moves = self.u.indexed, self._moves.setdefault(kind, {})
        for i in ids:
            if i not in moves:
                moves[i] = ix.id(KindedGrade(kind, ix.alg._moved(ix.values[i], kind)))
        return [moves[i] for i in ids]

    def reached(self, k: str) -> list[int]:
        """k's pool grades, and those reached in its direct subs moved into k."""
        if k not in self._reached:
            subs = [d for d, up in self.supers.items() if k in up]
            own = [g.id for g in self.grades if g.kind == k]
            self._reached[k] = list(dict.fromkeys(
                chain(own, *[self.image(d, k) for d in subs])))
        return self._reached[k]

    def image(self, k: str, c: str) -> list[int]:
        """The grades reached in k, moved into c."""
        if (k, c) not in self._images:
            self._images[k, c] = self.into(c, self.reached(k))
        return self._images[k, c]

    def facts(self, k: str) -> bool:
        """Facts 1 and 2 of ``_coherence_laws`` at k."""
        if k not in self._facts:
            u = self.u
            steps = [(s, c) for s in self.supers[k] for c in self.above[s] if c != s]
            fix = u.homs[k, k].apply
            reached_k = [u.indexed.values[i].value for i in self.reached(k)]
            self._facts[k] = (list(map(fix, reached_k)) == reached_k
                              and [self.image(k, c) for _, c in steps]
                              == [self.into(c, self.image(k, s)) for s, c in steps])
        return self._facts[k]

    def join_check(self) -> bool:
        """Each join is an upper bound, b is the join of a <= b (so joins are
        least), and the table has no ``_join_fault``."""
        if self._join is None:
            u, names = self.u, self.names
            bounds = {(k, u.join_table[a, b]) for a in names for b in names for k in (a, b)}
            self._join = (bounds <= u.order and all(u.join_table[a, b] == b for a, b in u.order)
                          and _join_fault(u.join_table, names) is None)
        return self._join


def _coherence_laws(u: GradeUniverse, grades: list[KindedGrade],
                    r: Optional[_Reach] = None) -> list[tuple]:
    """Functoriality of the derived homomorphisms and the six injection
    equations, as ``check_laws`` input: one row per first kind.

    Each statement says two routes move the pool's values of one kind to the
    same grades.  The kernels check two facts per kind k instead, on the
    grades the pool reaches in k (its own, and those reached in each direct
    sub of k moved into k): (1) hom(k, k) fixes each; (2) for each direct
    super s of k and each c above s, hom(k, c) is hom(k, s) then hom(s, c).
    A kind's direct supers are its edges' supers and T; N's are all other
    kinds, as its homomorphisms are not composed along edges.  The one route
    from a up to c passes through each b between, and its first step is the
    direct super s of a below b: fact 2 at a turns (a, b, c) into (s, b, c)
    on a grade reached in s, so by induction along the route the facts at
    the kinds above a give functoriality on a's pool, fact 1 closing b = a
    and b = c.  Given a join check (each join an upper bound, and no
    ``_join_fault``; ``_Reach.join_check`` also asks that joins be least),
    inj-1 to inj-5 are instances of functoriality: inj-1
    and inj-2 meet at join(join(a, b), c) = join(a, join(b, c)), inj-3
    applies one hom to both sides, inj-4 and inj-5 apply hom(a, a); inj-6
    compares with iota, and reads fact 1 at N, which a move into N skips.

    The kernels trust ``u.order`` and ``u.edges`` as validated and check
    what they use of ``u.homs`` and ``u.join_table``, each fact computed in a
    kernel, where ``check_laws`` meets its errors.  Images are read through
    ``KindedAlgebra._moved``: a hom edited after the universe has moved
    grades is outside the contract, as it is for the kinded operations.
    The facts are ``r``'s, a new ``_Reach`` unless given.
    """
    values: dict[str, list[GradeValue]] = {}
    for g in grades:
        values.setdefault(g.kind, []).append(g.value)
    ix = u.indexed
    r = r or _Reach(u, grades)
    names, above, image, facts, join_check = r.names, r.above, r.image, r.facts, r.join_check

    def eq_on(kind, f, g):
        return all(f(v) == g(v) for v in values[kind])

    # the kinds are the universe's own, so joins are read off its table and
    # its derived homomorphisms applied
    def join(k1, k2):
        return u.join_table[k1, k2]

    def move(k1, k2):
        return lambda v: u.transport(k1, k2, v)

    # functoriality of the derived homomorphism family
    def functorial(k1, k2, k3):
        if not (u.kind_leq(k1, k2) and u.kind_leq(k2, k3)):
            return True
        return eq_on(k1, lambda v: u.transport(k2, k3, u.transport(k1, k2, v)), move(k1, k3))

    # injection coherence: injl/injr move a value into the join kind
    def injl(k1, k2):
        return move(k1, join(k1, k2))

    def injr(k1, k2):
        return move(k2, join(k1, k2))

    facts_above = cache(lambda a: all(map(facts, above[a])))

    def bottom_right_row(a: str) -> bool:
        iota = IotaHom(u.algebra(a)).apply
        return facts(KIND_NAT) and image(KIND_NAT, join(a, KIND_NAT)) == [
            ix.id(KindedGrade(a, iota(v))) for v in values[KIND_NAT]]

    triples = (names, lambda a: iproduct((a,), names, names))
    ones = (names, lambda a: [(a,)])
    return [
        ("hom-functorial", functorial, *triples, facts_above),
        ("inj-1-left-assoc",
         lambda a, b, c: eq_on(a, lambda v: injl(join(a, b), c)(injl(a, b)(v)),
                               injl(a, join(b, c))),
         *triples, lambda a: join_check() and facts_above(a)),
        ("inj-2-middle-route",
         lambda a, b, c: eq_on(b, lambda v: injl(join(a, b), c)(injr(a, b)(v)),
                               lambda v: injr(a, join(b, c))(injl(b, c)(v))),
         *triples, lambda a: join_check() and all(map(facts, names))),
        ("inj-3-commute", lambda a, b: eq_on(a, injl(a, b), injr(b, a)),
         names, lambda a: iproduct((a,), names), lambda a: join_check() and facts_above(a)),
        ("inj-4-idempotent", lambda a: eq_on(a, injl(a, a), lambda v: v),
         *ones, lambda a: join_check() and facts(a)),
        ("inj-5-bottom-left", lambda a: eq_on(a, injl(a, KIND_NAT), lambda v: v),
         *ones, lambda a: join_check() and facts(a)),
        ("inj-6-bottom-right",
         lambda a: eq_on(KIND_NAT, injr(a, KIND_NAT), IotaHom(u.algebra(a)).apply),
         *ones, bottom_right_row),
    ]


# -- configuration files -----------------------------------------------------

def _nested(depth: int) -> int:
    """The depth of a spec inside one at ``depth``, within MAX_SPEC_DEPTH."""
    if depth >= MAX_SPEC_DEPTH:
        raise UniverseError(f"algebra and homomorphism specs nest more than "
                            f"{MAX_SPEC_DEPTH} deep")
    return depth + 1


def _carrier_size(alg: Algebra) -> Optional[int]:
    """Size of a finite carrier without listing it; None when infinite."""
    if isinstance(alg, ProductAlgebra):
        left, right = _carrier_size(alg.left), _carrier_size(alg.right)
        return None if left is None or right is None else left * right
    if isinstance(alg, ExtendAlgebra):
        inner = _carrier_size(alg.inner)
        return None if inner is None else inner + 1
    elements = alg.elements()
    return None if elements is None else len(elements)


def algebra_from_config(cfg, depth: int) -> Algebra:
    if not isinstance(cfg, dict):
        raise UniverseError(f"bad algebra spec: {cfg!r}")
    if "builtin" in cfg:
        name = cfg["builtin"]
        if not isinstance(name, str) or name not in BUILTINS:
            raise UniverseError(f"unknown builtin algebra {name!r}")
        return BUILTINS[name]
    if "table" in cfg:
        return FiniteAlgebra(table_from_config(cfg["table"]))
    if "product" in cfg:
        left, right = _two(cfg["product"], "product")
        return ProductAlgebra(algebra_from_config(left, _nested(depth)),
                              algebra_from_config(right, _nested(depth)))
    if "extend" in cfg:
        return ExtendAlgebra(algebra_from_config(cfg["extend"], _nested(depth)))
    raise UniverseError(f"bad algebra spec: {cfg!r}")


def _two(cfg, what: str) -> list:
    if not (isinstance(cfg, list) and len(cfg) == 2):
        raise UniverseError(f"{what!r} must be a list of two specs, got {cfg!r}")
    return cfg


def _strings(xs) -> bool:
    return isinstance(xs, list) and all(isinstance(x, str) for x in xs)


def table_from_config(cfg) -> FiniteTable:
    if not isinstance(cfg, dict):
        raise UniverseError(f"a finite table must be an object, got {cfg!r}")
    try:
        name, elements, leq, sums, muls, zero, one = (
            cfg[k] for k in ("name", "elements", "leq", "sum", "mul", "zero", "one"))
    except KeyError as exc:
        raise UniverseError(f"finite table misses field {exc}") from None
    if not _strings([name, zero, one]):
        raise UniverseError("a finite table's 'name', 'zero' and 'one' must be strings")
    if not _strings(elements):
        raise UniverseError(f"table {name}: 'elements' must be a list of strings")
    if not (isinstance(leq, list) and all(_strings(p) and len(p) == 2 for p in leq)):
        raise UniverseError(f"table {name}: 'leq' must be a list of [a, b] pairs")
    for op, rows in (("sum", sums), ("mul", muls)):
        if not (isinstance(rows, dict) and all(isinstance(row, dict) and _strings(list(row.values()))
                                               for row in rows.values())):
            raise UniverseError(f"table {name}: {op!r} must map each element "
                                "to an object of elements")
    return FiniteTable(
        name=name,
        elements=tuple(elements),
        leq=frozenset((a, b) for a, b in leq),
        sum={a: dict(row) for a, row in sums.items()},
        mul={a: dict(row) for a, row in muls.items()},
        zero=zero,
        one=one,
    )


def hom_from_config(cfg, source: Algebra, target: Optional[Algebra], depth: int) -> Hom:
    if not isinstance(cfg, dict):
        raise UniverseError(f"bad hom spec: {cfg!r}")
    if "map" in cfg:
        if not isinstance(source, FiniteAlgebra):
            raise UniverseError("a 'map' homomorphism needs a finite source")
        if target is None:
            # a map inside a composition must state its own target algebra
            if "target" not in cfg:
                raise UniverseError("a composed 'map' homomorphism needs a 'target'")
            target = algebra_from_config(cfg["target"], _nested(depth))
        if not isinstance(cfg["map"], dict):
            raise UniverseError(f"a 'map' homomorphism needs an object of images, "
                                f"got {cfg['map']!r}")
        mapping = {name: target.parse_payload(str(image))
                   for name, image in cfg["map"].items()}
        missing = set(source.table.elements) - set(mapping)
        if missing:
            raise PartialMapConfig(missing)
        return FiniteMapHom(source, target, mapping)
    if "proj" in cfg:
        if not isinstance(source, ProductAlgebra):
            raise UniverseError("a projection homomorphism needs a product source")
        if cfg["proj"] == "left":
            return ProjLeftHom(source)
        if cfg["proj"] == "right":
            return ProjRightHom(source)
        raise UniverseError(f"bad projection {cfg['proj']!r}")
    if "compose" in cfg:
        first_cfg, second_cfg = _two(cfg["compose"], "compose")
        first = hom_from_config(first_cfg, source, None, _nested(depth))
        second = hom_from_config(second_cfg, first.target(), target, _nested(depth))
        return ComposeHom(first, second)
    raise UniverseError(f"bad hom spec: {cfg!r}")


class PartialMapConfig(UniverseError):
    def __init__(self, missing):
        super().__init__(f"map homomorphism misses source elements {sorted(missing)}")


def universe_from_config(cfg) -> GradeUniverse:
    if not isinstance(cfg, dict):
        raise UniverseError(f"a universe config must be an object, got {type(cfg).__name__}")
    # a misspelt key would otherwise leave its part of the universe out
    for key in cfg:
        if key not in ("kinds", "edges"):
            raise UniverseError(f"unknown universe key {key!r}: a universe config has "
                                "only 'kinds' and 'edges'")
    kinds_cfg, edges_cfg = cfg.get("kinds", {}), cfg.get("edges", [])
    if not isinstance(kinds_cfg, dict):
        raise UniverseError(f"'kinds' must be an object, got {type(kinds_cfg).__name__}")
    if not (isinstance(edges_cfg, list)
            and all(isinstance(e, dict) and _strings([e.get("sub"), e.get("super")])
                    for e in edges_cfg)):
        raise UniverseError("'edges' must be a list of objects with string 'sub' and 'super'")
    for e in edges_cfg:
        for key in e:
            if key not in ("sub", "super", "hom"):
                raise UniverseError(f"edge {e['sub']} -> {e['super']}: unknown key {key!r}: "
                                    "an edge has only 'sub', 'super' and 'hom'")
        if "hom" not in e:
            raise UniverseError(f"edge {e['sub']} -> {e['super']} has no 'hom'")
    if KIND_NAT in kinds_cfg or KIND_TRIVIAL in kinds_cfg:
        raise UniverseError("kinds N and T are implicit and may not be redeclared")
    kinds = {name: algebra_from_config(spec, 1) for name, spec in kinds_cfg.items()}
    pool = NAT_PREFIX + 1  # the naturals and T's one grade
    for name, alg in kinds.items():
        size = _carrier_size(alg)
        if size is not None and size > MAX_CARRIER:
            raise UniverseError(f"kind {name} has {size} elements, more than {MAX_CARRIER}")
        pool += POOL_SAMPLES if size is None else size
    if pool > MAX_POOL:
        raise UniverseError(f"the kinds make a pool of {pool} grades, more than {MAX_POOL}")
    edges = []
    for e in edges_cfg:
        sub, sup = e["sub"], e["super"]
        if sub not in kinds or sup not in kinds:
            raise UnknownKind(f"edge {sub} -> {sup} mentions an undeclared kind")
        edges.append(RefinementEdge(sub, sup,
                                    hom_from_config(e["hom"], kinds[sub], kinds[sup], 1)))
    return validate_universe(kinds, edges)


def load_universe(path: str) -> GradeUniverse:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except RecursionError:
            raise UniverseError("the universe file nests too deeply to read") from None
    return universe_from_config(cfg)
