"""Heterogeneous grades: a family of algebras glued along refinements.

Kinds name grade algebras; a user-declared direct-refinement relation
(with unique paths and least common ancestors) induces a partial order
with finite joins on kinds, and a unique homomorphism for every related
pair.  Pairs <kind, value> then form a single grade algebra: comparisons
and operations first transport both operands into the join kind.

The kinds N (naturals) and T (trivial) are always present: N is the
bottom kind and supplies the zero and one of the combined algebra, T is
the default join of unrelated kinds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .grades import (
    AFFINITY,
    BOOLEAN,
    EXTREAL,
    NAT,
    TRIVIAL,
    Algebra,
    AmbiguousResidual,
    ComposeHom,
    ExtendAlgebra,
    FiniteAlgebra,
    FiniteMapHom,
    FiniteTable,
    GradeError,
    GradeValue,
    Hom,
    IdentityHom,
    IotaHom,
    LawReport,
    LawResult,
    Nat,
    ProductAlgebra,
    ProjLeftHom,
    ProjRightHom,
    ZetaHom,
    compose,
    validate_algebra,
    validate_hom,
)

KIND_NAT = "N"
KIND_TRIVIAL = "T"


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
    kind: str
    value: GradeValue

    def __str__(self):
        if self.kind == KIND_NAT:
            return str(self.value)
        return f"{self.kind}:{self.value}"


ZERO_D = KindedGrade(KIND_NAT, Nat(0))
ONE_D = KindedGrade(KIND_NAT, Nat(1))


@dataclass(frozen=True)
class RefinementEdge:
    sub: str
    sup: str
    hom: Hom


@dataclass
class GradeUniverse:
    """A validated kind family with derived order, joins and homomorphisms."""

    kinds: dict[str, Algebra]
    edges: list[RefinementEdge]
    order: frozenset[tuple[str, str]] = field(default_factory=frozenset)
    join_table: dict[tuple[str, str], str] = field(default_factory=dict)
    homs: dict[tuple[str, str], Hom] = field(default_factory=dict)
    _transport_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- kinds ------------------------------------------------------------

    def algebra(self, kind: str) -> Algebra:
        if kind not in self.kinds:
            raise UnknownKind(f"unknown grade kind {kind!r}")
        return self.kinds[kind]

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
        """Apply the derived homomorphism k1 -> k2, memoized (ops are hot)."""
        key = (k1, k2, value)
        hit = self._transport_cache.get(key)
        if hit is None:
            hit = self.hom(k1, k2).apply(value)
            self._transport_cache[key] = hit
        return hit

    # -- kinded grades ------------------------------------------------------

    def check_grade(self, g: KindedGrade) -> None:
        self.algebra(g.kind).check_value(g.value)

    def leq(self, x: KindedGrade, y: KindedGrade) -> bool:
        key = ("<=", x, y)
        hit = self._transport_cache.get(key)
        if hit is None:
            self.check_grade(x), self.check_grade(y)
            if not self.kind_leq(x.kind, y.kind):
                hit = False
            else:
                moved = self.transport(x.kind, y.kind, x.value)
                hit = self.algebra(y.kind).leq(moved, y.value)
            self._transport_cache[key] = hit
        return hit

    def _combine(self, x: KindedGrade, y: KindedGrade, op) -> KindedGrade:
        j = self.join(x.kind, y.kind)
        alg = self.algebra(j)
        vx = self.transport(x.kind, j, x.value)
        vy = self.transport(y.kind, j, y.value)
        return KindedGrade(j, op(alg, vx, vy))

    def add(self, x: KindedGrade, y: KindedGrade) -> KindedGrade:
        key = ("+", x, y)
        hit = self._transport_cache.get(key)
        if hit is None:
            self.check_grade(x), self.check_grade(y)
            hit = self._combine(x, y, lambda alg, a, b: alg.add(a, b))
            self._transport_cache[key] = hit
        return hit

    def mul(self, x: KindedGrade, y: KindedGrade) -> KindedGrade:
        # the zero test is structural: only <N,0> is the combined zero
        if x == ZERO_D or y == ZERO_D:
            self.check_grade(x), self.check_grade(y)
            return ZERO_D
        key = ("*", x, y)
        hit = self._transport_cache.get(key)
        if hit is None:
            self.check_grade(x), self.check_grade(y)
            hit = self._combine(x, y, lambda alg, a, b: alg.mul(a, b))
            self._transport_cache[key] = hit
        return hit

    def zero(self) -> KindedGrade:
        return ZERO_D

    def one(self) -> KindedGrade:
        return ONE_D

    def coerce(self, x: KindedGrade, kind: str) -> KindedGrade:
        return KindedGrade(kind, self.transport(x.kind, kind, x.value))

    def residual(self, available: KindedGrade, demand: KindedGrade) -> Optional[KindedGrade]:
        """Maximal leftover after consuming ``demand`` out of ``available``.

        The leftover is looked for in the kind of the available grade; the
        demand must refine that kind for any leftover to exist at all.
        May raise AmbiguousResidual on finite tables with incomparable maxima.
        """
        self.check_grade(available), self.check_grade(demand)
        if not self.kind_leq(demand.kind, available.kind):
            return None
        alg = self.algebra(available.kind)
        moved = self.transport(demand.kind, available.kind, demand.value)
        r = alg.residual(available.value, moved)
        return None if r is None else KindedGrade(available.kind, r)

    def residual_candidates(self, available: KindedGrade, demand: KindedGrade) -> list[KindedGrade]:
        """Canonical residual, or every maximal one when it is ambiguous."""
        try:
            r = self.residual(available, demand)
        except AmbiguousResidual as exc:
            return [KindedGrade(available.kind, v) for v in exc.candidates]
        return [] if r is None else [r]

    # -- parsing / printing ------------------------------------------------

    def parse_grade(self, text: str) -> KindedGrade:
        """Parse ``KIND:payload``; a bare payload defaults to kind N."""
        text = text.strip()
        if ":" in text:
            kind, payload = text.split(":", 1)
            kind = kind.strip()
        else:
            kind, payload = KIND_NAT, text
        return KindedGrade(kind, self.algebra(kind).parse_payload(payload.strip()))

    def sample_pool(self, nat_prefix: int = 11) -> list[KindedGrade]:
        """Deterministic kinded-value pool: full finite carriers, a prefix
        of the naturals, and a sample of other infinite kinds."""
        pool: list[KindedGrade] = []
        for kind in sorted(self.kinds):
            alg = self.kinds[kind]
            if kind == KIND_NAT:
                values = [Nat(n) for n in range(nat_prefix)]
            else:
                values = alg.elements()
                if values is None:
                    values = alg.sample()[:8]
            pool.extend(KindedGrade(kind, v) for v in values)
        return pool


def _paths(succ: dict[str, list[str]], start: str, end: str) -> list[tuple[str, ...]]:
    if start == end:
        return [(start,)]
    out = []
    for nxt in succ.get(start, ()):
        out.extend((start,) + p for p in _paths(succ, nxt, end))
    return out


def validate_universe(kinds: dict[str, Algebra], edges: list[RefinementEdge],
                      validate_algebras: bool = True) -> GradeUniverse:
    """Validate kinds, edges and refinement conditions; derive the rest.

    Conditions: between any two user kinds there is at most one refinement
    path, and any two kinds with a common ancestor have a least one.  The
    derived join table is checked to be a commutative idempotent monoid
    with unit N.
    """
    kinds = dict(kinds)
    for reserved, alg in ((KIND_NAT, NAT), (KIND_TRIVIAL, TRIVIAL)):
        if reserved in kinds and kinds[reserved] != alg:
            raise UniverseError(f"kind {reserved} is reserved and may not be redeclared")
        kinds[reserved] = alg
    user = [k for k in kinds if k not in (KIND_NAT, KIND_TRIVIAL)]

    if validate_algebras:
        for k in sorted(user):
            report = validate_algebra(kinds[k])
            if not report.ok:
                raise UniverseError(
                    f"algebra of kind {k} violates {report.failures()[0].law}: "
                    f"{report.failures()[0].witness}")

    succ: dict[str, list[str]] = {k: [] for k in user}
    for e in edges:
        if e.sub in (KIND_NAT, KIND_TRIVIAL) or e.sup in (KIND_NAT, KIND_TRIVIAL):
            raise NotRefinement("edges to or from N and T are implicit")
        if e.sub == e.sup:
            raise NotRefinement(f"self-refinement on kind {e.sub}")
        if e.sub not in kinds or e.sup not in kinds:
            raise UnknownKind(f"edge {e.sub} -> {e.sup} mentions an undeclared kind")
        hom_report = validate_hom(e.hom)
        if not hom_report.ok:
            bad = hom_report.failures()[0]
            raise UniverseError(
                f"edge {e.sub} -> {e.sup}: homomorphism violates {bad.law}: {bad.witness}")
        if e.hom.source() != kinds[e.sub] or e.hom.target() != kinds[e.sup]:
            raise UniverseError(
                f"edge {e.sub} -> {e.sup}: homomorphism endpoints do not match the kinds")
        succ[e.sub].append(e.sup)

    # cycles
    state: dict[str, int] = {}

    def visit(k, stack):
        state[k] = 1
        for nxt in succ[k]:
            if state.get(nxt) == 1:
                raise CycleDetected(f"refinement cycle through {' -> '.join(stack + [nxt])}")
            if state.get(nxt, 0) == 0:
                visit(nxt, stack + [nxt])
        state[k] = 2

    for k in sorted(user):
        if state.get(k, 0) == 0:
            visit(k, [k])

    # path uniqueness (condition 1)
    for k1 in sorted(user):
        for k2 in sorted(user):
            ps = _paths(succ, k1, k2)
            if len(ps) > 1:
                raise DuplicatePath(k1, k2, ps)

    ancestors = {k: {k2 for k2 in user if _paths(succ, k, k2)} for k in user}

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
                common = ancestors[k1] & ancestors[k2]
                if not common:
                    j = KIND_TRIVIAL
                else:
                    least = [c for c in common if all(a in ancestors[c] for a in common)]
                    if not least:
                        minimal = {c for c in common
                                   if not any(d != c and c in ancestors[d] for d in common)}
                        raise NoLeastAncestor(k1, k2, minimal)
                    j = least[0]
            join_table[(k1, k2)] = j

    order = set()
    for k in all_kinds:
        order.add((k, k))
        order.add((KIND_NAT, k))
        order.add((k, KIND_TRIVIAL))
    for k1 in user:
        for k2 in ancestors[k1]:
            order.add((k1, k2))

    # derived signature laws
    for k1 in all_kinds:
        if join_table[(k1, k1)] != k1:
            raise UniverseError(f"join not idempotent at {k1}")
        if join_table[(k1, KIND_NAT)] != k1:
            raise UniverseError(f"N is not a join unit at {k1}")
        for k2 in all_kinds:
            if join_table[(k1, k2)] != join_table[(k2, k1)]:
                raise UniverseError(f"join not commutative at {k1},{k2}")
            for k3 in all_kinds:
                left = join_table[(join_table[(k1, k2)], k3)]
                right = join_table[(k1, join_table[(k2, k3)])]
                if left != right:
                    raise UniverseError(f"join not associative at {k1},{k2},{k3}")

    edge_hom = {(e.sub, e.sup): e.hom for e in edges}
    homs: dict[tuple[str, str], Hom] = {}
    for k1, k2 in sorted(order):
        if k1 == k2:
            homs[(k1, k2)] = IdentityHom(kinds[k1])
        elif k1 == KIND_NAT:
            homs[(k1, k2)] = IotaHom(kinds[k2])
        elif k2 == KIND_TRIVIAL:
            homs[(k1, k2)] = ZetaHom(kinds[k1])
        else:
            (path,) = _paths(succ, k1, k2)
            h: Hom = IdentityHom(kinds[k1])
            for a, b in zip(path, path[1:]):
                h = compose(h, edge_hom[(a, b)])
            homs[(k1, k2)] = h

    return GradeUniverse(kinds=kinds, edges=list(edges), order=frozenset(order),
                         join_table=join_table, homs=homs)


def default_universe() -> GradeUniverse:
    """N and T plus unrelated affinity (A) and two-level privacy (P)."""
    from .grades import PRIVACY
    return validate_universe({"A": AFFINITY, "P": PRIVACY}, [],
                             validate_algebras=False)


# -- universe-level law checking -------------------------------------------

def check_universe_laws(u: GradeUniverse, nat_prefix: int = 11) -> LawReport:
    """Grade-algebra axioms for the combined algebra plus injection coherence.

    Exhaustive over the kinded pool (full finite carriers, naturals up to
    ``nat_prefix``); the six injection equations are checked pointwise on
    every kind triple.
    """
    pool = u.sample_pool(nat_prefix)
    results: list[LawResult] = []

    def check(law, fn, src):
        for t in src:
            if not fn(*t):
                results.append(LawResult(law, False, tuple(str(x) for x in t)))
                return
        results.append(LawResult(law, True))

    ones = [(a,) for a in pool]
    pairs = [(a, b) for a in pool for b in pool]
    triples = [(a, b, c) for a in pool for b in pool for c in pool]

    check("order-reflexive", lambda a: u.leq(a, a), ones)
    check("order-antisymmetric",
          lambda a, b: not (u.leq(a, b) and u.leq(b, a)) or a == b, pairs)
    check("order-transitive",
          lambda a, b, c: not (u.leq(a, b) and u.leq(b, c)) or u.leq(a, c), triples)
    check("add-commutative", lambda a, b: u.add(a, b) == u.add(b, a), pairs)
    check("add-associative",
          lambda a, b, c: u.add(u.add(a, b), c) == u.add(a, u.add(b, c)), triples)
    check("add-unit", lambda a: u.add(a, ZERO_D) == a, ones)
    check("mul-associative",
          lambda a, b, c: u.mul(u.mul(a, b), c) == u.mul(a, u.mul(b, c)), triples)
    check("mul-unit", lambda a: u.mul(a, ONE_D) == a and u.mul(ONE_D, a) == a, ones)
    check("distributes-left",
          lambda a, b, c: u.mul(a, u.add(b, c)) == u.add(u.mul(a, b), u.mul(a, c)),
          triples)
    check("distributes-right",
          lambda a, b, c: u.mul(u.add(b, c), a) == u.add(u.mul(b, a), u.mul(c, a)),
          triples)
    check("annihilation",
          lambda a: u.mul(a, ZERO_D) == ZERO_D and u.mul(ZERO_D, a) == ZERO_D, ones)
    check("zero-least", lambda a: u.leq(ZERO_D, a), ones)

    related = [(a, b) for a, b in pairs if u.leq(a, b)]
    if len(related) > 400:
        stride = len(related) // 400 + 1
        related = related[::stride]
    mono = [(p, q) for p in related for q in related]
    check("add-monotone", lambda p, q: u.leq(u.add(p[0], q[0]), u.add(p[1], q[1])), mono)
    check("mul-monotone", lambda p, q: u.leq(u.mul(p[0], q[0]), u.mul(p[1], q[1])), mono)

    # functoriality of the derived homomorphism family
    def functorial(k1, k2, k3):
        if not (u.kind_leq(k1, k2) and u.kind_leq(k2, k3)):
            return True
        h12, h23, h13 = u.hom(k1, k2), u.hom(k2, k3), u.hom(k1, k3)
        return all(h23.apply(h12.apply(v)) == h13.apply(v)
                   for v in _kind_values(u, k1, nat_prefix))

    kind_names = sorted(u.kinds)
    kind_triples = [(a, b, c) for a in kind_names for b in kind_names for c in kind_names]
    kind_pairs = [(a, b) for a in kind_names for b in kind_names]
    kind_ones = [(a,) for a in kind_names]
    check("hom-functorial", functorial, kind_triples)

    # injection coherence: injl/injr are the homs into the join kind
    def injl(k1, k2):
        return u.hom(k1, u.join(k1, k2))

    def injr(k1, k2):
        return u.hom(k2, u.join(k1, k2))

    def eq_on(kind, f, g):
        return all(f(v) == g(v) for v in _kind_values(u, kind, nat_prefix))

    check("inj-1-left-assoc",
          lambda a, b, c: eq_on(a,
                                lambda v: injl(u.join(a, b), c).apply(injl(a, b).apply(v)),
                                injl(a, u.join(b, c)).apply),
          kind_triples)
    check("inj-2-middle-route",
          lambda a, b, c: eq_on(b,
                                lambda v: injl(u.join(a, b), c).apply(injr(a, b).apply(v)),
                                lambda v: injr(a, u.join(b, c)).apply(injl(b, c).apply(v))),
          kind_triples)
    check("inj-3-commute",
          lambda a, b: eq_on(a, injl(a, b).apply, injr(b, a).apply), kind_pairs)
    check("inj-4-idempotent",
          lambda a: eq_on(a, injl(a, a).apply, lambda v: v), kind_ones)
    check("inj-5-bottom-left",
          lambda a: eq_on(a, injl(a, KIND_NAT).apply, lambda v: v), kind_ones)
    check("inj-6-bottom-right",
          lambda a: eq_on(KIND_NAT, injr(a, KIND_NAT).apply,
                          IotaHom(u.algebra(a)).apply),
          kind_ones)
    return LawReport(results)


def _kind_values(u: GradeUniverse, kind: str, nat_prefix: int) -> list[GradeValue]:
    alg = u.algebra(kind)
    if kind == KIND_NAT:
        return [Nat(n) for n in range(nat_prefix)]
    vals = alg.elements()
    if vals is None:
        vals = alg.sample()[:8]
    return vals


# -- configuration files -----------------------------------------------------

_BUILTINS = {"nat": NAT, "trivial": TRIVIAL, "affinity": AFFINITY,
             "boolean": BOOLEAN, "extreal": EXTREAL}


def algebra_from_config(cfg) -> Algebra:
    if not isinstance(cfg, dict):
        raise UniverseError(f"bad algebra spec: {cfg!r}")
    if "builtin" in cfg:
        name = cfg["builtin"]
        if name not in _BUILTINS:
            raise UniverseError(f"unknown builtin algebra {name!r}")
        return _BUILTINS[name]
    if "table" in cfg:
        return FiniteAlgebra(table_from_config(cfg["table"]))
    if "product" in cfg:
        left, right = cfg["product"]
        return ProductAlgebra(algebra_from_config(left), algebra_from_config(right))
    if "extend" in cfg:
        return ExtendAlgebra(algebra_from_config(cfg["extend"]))
    raise UniverseError(f"bad algebra spec: {cfg!r}")


def table_from_config(cfg) -> FiniteTable:
    try:
        return FiniteTable(
            name=cfg["name"],
            elements=tuple(cfg["elements"]),
            leq=frozenset((a, b) for a, b in cfg["leq"]),
            sum={a: dict(row) for a, row in cfg["sum"].items()},
            mul={a: dict(row) for a, row in cfg["mul"].items()},
            zero=cfg["zero"],
            one=cfg["one"],
        )
    except KeyError as exc:
        raise UniverseError(f"finite table misses field {exc}") from None


def hom_from_config(cfg, source: Algebra, target: Optional[Algebra]) -> Hom:
    if not isinstance(cfg, dict):
        raise UniverseError(f"bad hom spec: {cfg!r}")
    if "map" in cfg:
        if not isinstance(source, FiniteAlgebra):
            raise UniverseError("a 'map' homomorphism needs a finite source")
        if target is None:
            # a map inside a composition must state its own target algebra
            if "target" not in cfg:
                raise UniverseError("a composed 'map' homomorphism needs a 'target'")
            target = algebra_from_config(cfg["target"])
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
        first_cfg, second_cfg = cfg["compose"]
        first = hom_from_config(first_cfg, source, None)
        second = hom_from_config(second_cfg, first.target(), target)
        return ComposeHom(first, second)
    raise UniverseError(f"bad hom spec: {cfg!r}")


class PartialMapConfig(UniverseError):
    def __init__(self, missing):
        super().__init__(f"map homomorphism misses source elements {sorted(missing)}")


def universe_from_config(cfg: dict) -> GradeUniverse:
    if KIND_NAT in cfg.get("kinds", {}) or KIND_TRIVIAL in cfg.get("kinds", {}):
        raise UniverseError("kinds N and T are implicit and may not be redeclared")
    kinds = {name: algebra_from_config(spec)
             for name, spec in cfg.get("kinds", {}).items()}
    edges = []
    for e in cfg.get("edges", []):
        sub, sup = e["sub"], e["super"]
        if sub not in kinds or sup not in kinds:
            raise UnknownKind(f"edge {sub} -> {sup} mentions an undeclared kind")
        edges.append(RefinementEdge(sub, sup, hom_from_config(e["hom"], kinds[sub], kinds[sup])))
    return validate_universe(kinds, edges)


def load_universe(path: str) -> GradeUniverse:
    with open(path, "r", encoding="utf-8") as fh:
        return universe_from_config(json.load(fh))
