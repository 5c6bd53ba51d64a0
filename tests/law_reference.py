"""The law checks case by case: the reference the row kernels are held to.

``grades.check_laws`` checks whole rows of cases at once and walks a row
case by case only when it fails.  This module keeps the plain form: every
axiom is a predicate over one case, and the cases are generated in full
(``iproduct`` cubes, seeded triples, ``pair_up`` of the related pairs) and
tried in order until one fails.  It reads the same ``Indexed`` memo
operations, so a report from here and one from ``gradefj`` must agree law by
law, witness text included.
"""

from itertools import product as iproduct

from gradefj.grades import (
    ALGEBRA_TRIPLES,
    HOM_PAIRS,
    CarrierMismatch,
    FiniteAlgebra,
    Indexed,
    IotaHom,
    LawReport,
    LawResult,
    PartialMap,
    _seeded_triples,
    _validate_table_shape,
)
from gradefj.hetero import KIND_NAT, MONOTONE_PAIRS


def check_laws(laws, total=None, show=str) -> LawReport:
    """Each ``(law, holds, cases)`` in turn: PASS, or FAIL with the first
    case on which ``holds`` is false or a map is undefined."""
    results = []
    for law, holds, cases in laws:
        result = LawResult(law, True)
        for case in cases:
            try:
                if not holds(*case):
                    result = LawResult(law, False, tuple(show(x) for x in case))
                    break
            except (PartialMap, CarrierMismatch) as exc:
                if total is not None:
                    return LawReport(results + [LawResult(total, False, (str(exc),))])
                result = LawResult(law, False, (str(exc),))
                break
        results.append(result)
    return LawReport(results)


def semiring_laws(alg, pool, pairs, triples, pair_up) -> list:
    leq, add, mul, zero, one = alg.leq, alg.add, alg.mul, alg.zero(), alg.one()
    ones = [(a,) for a in pool]
    related = [(a, b) for a, b in pairs() if leq(a, b)]
    return [
        ("order-reflexive", lambda a: leq(a, a), ones),
        ("order-antisymmetric", lambda a, b: not (leq(a, b) and leq(b, a)) or a == b,
         pairs()),
        ("order-transitive",
         lambda a, b, c: not (leq(a, b) and leq(b, c)) or leq(a, c), triples()),
        ("add-commutative", lambda a, b: add(a, b) == add(b, a), pairs()),
        ("add-associative", lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)),
         triples()),
        ("add-unit", lambda a: add(a, zero) == a, ones),
        ("mul-associative", lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c)),
         triples()),
        ("mul-unit", lambda a: mul(a, one) == a and mul(one, a) == a, ones),
        ("distributes-left",
         lambda a, b, c: mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), triples()),
        ("distributes-right",
         lambda a, b, c: mul(add(b, c), a) == add(mul(b, a), mul(c, a)), triples()),
        ("annihilation", lambda a: mul(a, zero) == zero and mul(zero, a) == zero, ones),
        ("zero-least", lambda a: leq(zero, a), ones),
        ("add-monotone", lambda p, q: leq(add(p[0], q[0]), add(p[1], q[1])),
         pair_up(related)),
        ("mul-monotone", lambda p, q: leq(mul(p[0], q[0]), mul(p[1], q[1])),
         pair_up(related)),
    ]


def validate_algebra(spec) -> LawReport:
    shape = []
    if isinstance(spec, FiniteAlgebra):
        shape = [_validate_table_shape(spec.table)]
        if not shape[0].ok:
            return LawReport(shape)
    ix = Indexed(spec)
    pool = [ix.id(v) for v in spec.sample()]
    if spec.elements() is not None:
        pairs, triples = lambda: iproduct(pool, repeat=2), lambda: iproduct(pool, repeat=3)
        pair_up = lambda related: iproduct(related, repeat=2)
    else:
        seeded = _seeded_triples(pool, ALGEBRA_TRIPLES)
        seeded_pairs = [(a, b) for a, b, _ in seeded]
        pairs, triples = lambda: seeded_pairs, lambda: seeded
        pair_up = lambda related: zip(related, related[1:] + related[:1])
    return LawReport(shape + check_laws(semiring_laws(ix, pool, pairs, triples, pair_up),
                                        show=ix.show).results)


def validate_hom(h) -> LawReport:
    source = h.source()
    src, tgt = Indexed(source), Indexed(h.target())
    images = {}

    def f(a):
        b = images.get(a)
        if b is None:
            b = images[a] = tgt.id(h.apply(src.values[a]))
        return b

    units = check_laws([("hom-zero", lambda a: f(a) == tgt.zero(), [(src.zero(),)]),
                        ("hom-one", lambda a: f(a) == tgt.one(), [(src.one(),)])],
                       total="hom-total", show=src.show)
    if units.results[-1].law == "hom-total":
        return units
    pool = [src.id(v) for v in source.sample()]
    pairs = (list(iproduct(pool, repeat=2)) if source.elements() is not None
             else [(a, b) for a, b, _ in _seeded_triples(pool, HOM_PAIRS)])
    return LawReport(units.results + check_laws([
        ("hom-add", lambda a, b: f(src.add(a, b)) == tgt.add(f(a), f(b)), pairs),
        ("hom-mul", lambda a, b: f(src.mul(a, b)) == tgt.mul(f(a), f(b)), pairs),
        ("hom-monotone", lambda a, b: not src.leq(a, b) or tgt.leq(f(a), f(b)), pairs),
    ], show=src.show).results)


def check_universe_laws(u) -> LawReport:
    grades = u.sample_pool()
    values = {}
    for g in grades:
        values.setdefault(g.kind, []).append(g.value)
    ix = u.indexed
    pool = [g.id for g in grades]

    def pair_up(related):
        if len(related) > MONOTONE_PAIRS:
            related = related[::len(related) // MONOTONE_PAIRS + 1]
        return iproduct(related, repeat=2)

    def eq_on(kind, f, g):
        return all(f(v) == g(v) for v in values[kind])

    def join(k1, k2):
        return u.join_table[k1, k2]

    def move(k1, k2):
        return lambda v: u.transport(k1, k2, v)

    def functorial(k1, k2, k3):
        if not (u.kind_leq(k1, k2) and u.kind_leq(k2, k3)):
            return True
        return eq_on(k1, lambda v: u.transport(k2, k3, u.transport(k1, k2, v)), move(k1, k3))

    def injl(k1, k2):
        return move(k1, join(k1, k2))

    def injr(k1, k2):
        return move(k2, join(k1, k2))

    kind_names = sorted(u.kinds)
    kind_triples = [(a, b, c) for a in kind_names for b in kind_names for c in kind_names]
    kind_pairs = [(a, b) for a in kind_names for b in kind_names]
    kind_ones = [(a,) for a in kind_names]
    axioms = check_laws(semiring_laws(ix, pool, lambda: iproduct(pool, repeat=2),
                                      lambda: iproduct(pool, repeat=3), pair_up),
                        show=ix.show)
    return LawReport(axioms.results + check_laws([
        ("hom-functorial", functorial, kind_triples),
        ("inj-1-left-assoc",
         lambda a, b, c: eq_on(a, lambda v: injl(join(a, b), c)(injl(a, b)(v)),
                               injl(a, join(b, c))),
         kind_triples),
        ("inj-2-middle-route",
         lambda a, b, c: eq_on(b, lambda v: injl(join(a, b), c)(injr(a, b)(v)),
                               lambda v: injr(a, join(b, c))(injl(b, c)(v))),
         kind_triples),
        ("inj-3-commute", lambda a, b: eq_on(a, injl(a, b), injr(b, a)), kind_pairs),
        ("inj-4-idempotent", lambda a: eq_on(a, injl(a, a), lambda v: v), kind_ones),
        ("inj-5-bottom-left", lambda a: eq_on(a, injl(a, KIND_NAT), lambda v: v), kind_ones),
        ("inj-6-bottom-right",
         lambda a: eq_on(KIND_NAT, injr(a, KIND_NAT), IotaHom(u.algebra(a)).apply),
         kind_ones),
    ]).results)
