"""Grade algebras: ordered semirings with a least zero.

A grade algebra is a carrier with a partial order, a commutative additive
monoid, a multiplicative monoid, distributivity, annihilating zero,
monotone operations, and zero as the least element.  Built-in instances:
naturals, the trivial one-point algebra, affinity {0,1,w}, booleans,
extended non-negative rationals, plus finite tables, binary products and
the infinity extension of any algebra.  All arithmetic is exact and on
ints: an extended real is a reduced pair of ints (``ExtReal``), summed,
multiplied and compared by cross-multiplication.

The law checks (``validate_algebra``, ``validate_hom`` and the universe's
``hetero.check_universe_laws``) run over ``Indexed`` grades: small ints
whose operations are each computed once per pair of values.  The semiring
axioms are one list, ``semiring_laws``, that ``check_laws`` checks a row of
cases at a time: a row kernel builds both sides of a law as rows of ids
over the whole row, read from the memo rows at C level, and only a row that
fails is walked case by case for its witness.  A homomorphism's laws are
another list, ``hom_laws``, whose cases are walked.  A grade universe keeps
one ``Indexed`` table of its kinded grades, which also answers the
checker's and the interpreters' grade operations, and one ``Indexed`` table
of values per algebra, shared by the kinds that hold it and by its
load-time law checks.  ``Indexed`` asks its algebra for the id of a sum or
product: an ``Algebra`` interns its result, and the kinded algebra works on
its operands' codes (each kind's own ids in its algebra's table) in the
table of their join kind's algebra, so both levels hash-cons by one table
type.  An algebra's public operations check their operands; an ``Indexed``
grade is checked once, by its algebra's ``canonical`` as it is interned,
and the unchecked operations run on it.  A residual query has any number
of maximal answers: the unchecked operations list them all, and only the
public single-answer ``residual`` refuses several.  A homomorphism is one
map, ``Hom.image``, on its source carrier; ``Hom.apply`` checks its
argument and maps it by ``image``.

An algebra whose structure proves the axioms (``structural_report``:
naturals, extended reals, products of proved algebras and extensions of
naturals or extended reals) has them decided without enumerating a case,
and so does a map whose structure proves it a homomorphism
(``structural_hom``: the identity, a projection out of a product, and iota
into a lawful algebra).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from itertools import chain, compress, starmap
from itertools import product as iproduct
from math import gcd, lcm
from operator import getitem, itemgetter, or_
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Sequence


class GradeError(Exception):
    """Base class for grade-level failures."""


class CarrierMismatch(GradeError):
    """A value was used with an algebra it does not belong to."""


class PartialMap(GradeError):
    """A finite homomorphism map misses an element of its source."""


class AmbiguousResidual(GradeError):
    """A residual query has several incomparable maximal answers."""

    def __init__(self, candidates):
        super().__init__(f"ambiguous residual, maximal candidates: {candidates}")
        self.candidates = candidates


def the_residual(maximal: list[GradeValue]) -> Optional[GradeValue]:
    """The one maximal residual of ``maximal``, None for none; several are
    refused with AmbiguousResidual."""
    if len(maximal) > 1:
        raise AmbiguousResidual(maximal)
    return maximal[0] if maximal else None


# ---------------------------------------------------------------------------
# Values

@dataclass(frozen=True)
class GradeValue:
    """A value of some grade algebra."""


@dataclass(frozen=True)
class Nat(GradeValue):
    """A natural number."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("naturals are non-negative")

    def __str__(self):
        return str(self.n)


class Triv(GradeValue):
    """The single inhabitant of the trivial algebra."""

    def __str__(self):
        return "inf"


@dataclass(frozen=True)
class ExtReal(GradeValue):
    """An extended non-negative real: the rational ``num/den`` in lowest
    terms with ``den`` >= 1, or infinity when ``num`` is None (and ``den``
    is 1).  A negative, unreduced or non-int pair is refused, so equal values
    are equal pairs under ``==`` and ``hash``; ``_ratio`` reduces a pair."""

    num: Optional[int]
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if num is None:
            if den != 1:
                raise ValueError("infinity has no denominator")
            return
        if type(num) is not int or type(den) is not int:
            raise TypeError("an extended real is a pair of ints")
        if num < 0 or den < 1:
            raise ValueError("extended reals are non-negative")
        if gcd(num, den) != 1:
            raise ValueError(f"{num}/{den} is not in lowest terms")

    def __str__(self):
        if self.num is None:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        # a law witness that is a pair of grades prints their reprs
        # (``Indexed.show``): keep the form such witnesses have always had,
        # the value as the rational ``q``
        if self.num is None:
            return "ExtReal(q=None)"
        return f"ExtReal(q=Fraction({self.num}, {self.den}))"


def _ratio(num: int, den: int) -> ExtReal:
    """The extended real ``num/den`` of non-negative ints, ``den`` >= 1."""
    g = gcd(num, den)
    return ExtReal(num // g, den // g)


@dataclass(frozen=True)
class FiniteElem(GradeValue):
    """Element ``name`` of the finite algebra named ``algebra``."""

    name: str
    algebra: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PairValue(GradeValue):
    """A value of a product algebra: one value of each side."""

    left: GradeValue
    right: GradeValue

    def __str__(self):
        return f"({self.left},{self.right})"


@dataclass(frozen=True)
class ExtFin(GradeValue):
    """A value of the inner algebra, inside its extension by infinity."""

    inner: GradeValue

    def __str__(self):
        return str(self.inner)


class ExtInf(GradeValue):
    """The infinity an extension adjoins on top of its inner algebra."""

    def __str__(self):
        return "inf"


# ---------------------------------------------------------------------------
# Algebras

SAMPLE_SEED = 20240809  # fixed seed for deterministic law sampling


@dataclass(frozen=True)
class Algebra:
    """One grade algebra: order, sum, product and neutral elements.

    The public ``leq``, ``add``, ``mul`` and ``residual`` check both operands
    (``check_value``) and then call ``unchecked_leq``, ``unchecked_add``,
    ``unchecked_mul`` and ``unchecked_residuals``, which a class defines on
    values already known to be in its carrier.  ``unchecked_residuals`` lists
    every maximal residual (none, one, or several incomparable ones), and
    ``residual`` refuses several with AmbiguousResidual.  Products and
    extensions call their components' unchecked operations.  ``Indexed``
    calls them on grades checked once each, by ``canonical`` as it interns
    them, and asks for a sum or product by ``add_id`` and ``mul_id``, which
    intern the unchecked result; a grade universe keeps one such table for
    each algebra, shared by its kinds.  A class defines only the unchecked
    operations, so a variant algebra overrides those, and every caller
    reaches its override.
    """

    def leq(self, a: GradeValue, b: GradeValue) -> bool:
        self.check_value(a), self.check_value(b)
        return self.unchecked_leq(a, b)

    def add(self, a: GradeValue, b: GradeValue) -> GradeValue:
        self.check_value(a), self.check_value(b)
        return self.unchecked_add(a, b)

    def mul(self, a: GradeValue, b: GradeValue) -> GradeValue:
        self.check_value(a), self.check_value(b)
        return self.unchecked_mul(a, b)

    def residual(self, available: GradeValue, demand: GradeValue) -> Optional[GradeValue]:
        """The maximal s' with demand + s' <= available, None if there is
        none; AmbiguousResidual if there are several."""
        self.check_value(available), self.check_value(demand)
        return the_residual(self.unchecked_residuals(available, demand))

    def unchecked_leq(self, a: GradeValue, b: GradeValue) -> bool:
        raise NotImplementedError

    def unchecked_add(self, a: GradeValue, b: GradeValue) -> GradeValue:
        raise NotImplementedError

    def unchecked_mul(self, a: GradeValue, b: GradeValue) -> GradeValue:
        raise NotImplementedError

    def unchecked_residuals(self, available: GradeValue,
                            demand: GradeValue) -> list[GradeValue]:
        """Every maximal s' with demand + s' <= available."""
        raise NotImplementedError

    def zero(self) -> GradeValue:
        raise NotImplementedError

    def one(self) -> GradeValue:
        raise NotImplementedError

    def contains(self, a: GradeValue) -> bool:
        raise NotImplementedError

    def elements(self) -> Optional[list[GradeValue]]:
        """Full carrier for finite algebras, None otherwise."""
        return None

    def canonical(self, a: GradeValue, i: int) -> GradeValue:
        """The grade ``Indexed`` stores as id ``i``: ``a``, checked here once."""
        self.check_value(a)
        return a

    def add_id(self, a: GradeValue, b: GradeValue, intern: Callable[[GradeValue], int]) -> int:
        """The id that ``intern`` gives the sum of two carrier values."""
        return intern(self.unchecked_add(a, b))

    def mul_id(self, a: GradeValue, b: GradeValue, intern: Callable[[GradeValue], int]) -> int:
        """The id that ``intern`` gives the product of two carrier values."""
        return intern(self.unchecked_mul(a, b))

    def sample(self) -> list[GradeValue]:
        """Deterministic value pool used to test laws on infinite carriers."""
        elems = self.elements()
        if elems is None:
            raise NotImplementedError
        return elems

    def describe(self) -> str:
        raise NotImplementedError

    def check_value(self, a: GradeValue) -> None:
        if not self.contains(a):
            raise CarrierMismatch(f"{a} is not a value of {self.describe()}")

    def parse_payload(self, text: str) -> GradeValue:
        raise NotImplementedError


class NatAlgebra(Algebra):
    """The naturals with their usual order, sum and product."""

    def unchecked_leq(self, a, b):
        return a.n <= b.n

    def unchecked_add(self, a, b):
        return Nat(a.n + b.n)

    def unchecked_mul(self, a, b):
        return Nat(a.n * b.n)

    def zero(self):
        return Nat(0)

    def one(self):
        return Nat(1)

    def contains(self, a):
        return isinstance(a, Nat)

    def sample(self):
        return [Nat(n) for n in range(51)]

    def unchecked_residuals(self, available, demand):
        return [Nat(available.n - demand.n)] if demand.n <= available.n else []

    def describe(self):
        return "nat"

    def parse_payload(self, text):
        if not text.lstrip("-").isdigit():
            raise ValueError(f"bad natural literal {text!r}")
        n = int(text)
        if n < 0:
            raise ValueError("naturals are non-negative")
        return Nat(n)


class TrivialAlgebra(Algebra):
    """The one-element algebra, whose only value ``inf`` is both zero and one."""

    def unchecked_leq(self, a, b):
        return True

    def unchecked_add(self, a, b):
        return Triv()

    def unchecked_mul(self, a, b):
        return Triv()

    def zero(self):
        return Triv()

    def one(self):
        return Triv()

    def contains(self, a):
        return isinstance(a, Triv)

    def elements(self):
        return [Triv()]

    def unchecked_residuals(self, available, demand):
        return [Triv()]

    def describe(self):
        return "trivial"

    def parse_payload(self, text):
        if text != "inf":
            raise ValueError(f"the trivial algebra only has 'inf', got {text!r}")
        return Triv()


class ExtRealAlgebra(Algebra):
    """Non-negative rationals and infinity with the usual order, sum and
    product, computed on the ints of each reduced pair."""

    def unchecked_leq(self, a, b):
        if b.num is None:
            return True
        if a.num is None:
            return False
        return a.num * b.den <= b.num * a.den

    def unchecked_add(self, a, b):
        if a.num is None or b.num is None:
            return _INF
        return _ratio(a.num * b.den + b.num * a.den, a.den * b.den)

    def unchecked_mul(self, a, b):
        # 0 annihilates even against infinity
        if a.num == 0 or b.num == 0:
            return _ZERO
        if a.num is None or b.num is None:
            return _INF
        return _ratio(a.num * b.num, a.den * b.den)

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def contains(self, a):
        return isinstance(a, ExtReal)

    def sample(self):
        dens = (1, 2, 3, 4, 7, 16)
        scale = lcm(*dens)  # each value times scale is an int: an exact sort key
        values = {num * (scale // den): _ratio(num, den) for den in dens for num in range(9)}
        return [values[k] for k in sorted(values)] + [_INF]

    def unchecked_residuals(self, available, demand):
        if available.num is None:
            return [_INF]
        if demand.num is None:
            return []
        left = available.num * demand.den - demand.num * available.den
        return [_ratio(left, available.den * demand.den)] if left >= 0 else []

    def describe(self):
        return "extreal"

    def parse_payload(self, text):
        # only the forms ExtReal prints: inf, n and n/d in ASCII digits, d >= 1
        if text == "inf":
            return _INF
        if not re.fullmatch(r"[0-9]+(/0*[1-9][0-9]*)?", text):
            raise ValueError(f"bad extended real literal {text!r}: expected inf, n or n/d")
        num, _, den = text.partition("/")
        return _ratio(int(num), int(den) if den else 1)


_INF, _ZERO, _ONE = ExtReal(None), ExtReal(0), ExtReal(1)


@dataclass(frozen=True)
class FiniteTable:
    """Explicit description of a finite algebra.

    ``leq`` must already be reflexive and transitive: the validator rejects
    incomplete relations instead of repairing them, so that configuration
    mistakes surface.
    """

    name: str
    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]
    sum: dict[str, dict[str, str]] = field(hash=False)
    mul: dict[str, dict[str, str]] = field(hash=False)
    zero: str
    one: str


@dataclass(frozen=True)
class FiniteAlgebra(Algebra):
    """A finite algebra read from the tables of a ``FiniteTable``."""

    table: FiniteTable

    def _value(self, name: str) -> FiniteElem:
        return FiniteElem(name, self.table.name)

    def unchecked_leq(self, a, b):
        return (a.name, b.name) in self.table.leq

    def unchecked_add(self, a, b):
        return self._value(self.table.sum[a.name][b.name])

    def unchecked_mul(self, a, b):
        return self._value(self.table.mul[a.name][b.name])

    def zero(self):
        return self._value(self.table.zero)

    def one(self):
        return self._value(self.table.one)

    def contains(self, a):
        return (isinstance(a, FiniteElem) and a.algebra == self.table.name
                and a.name in self.table.elements)

    def elements(self):
        return [self._value(n) for n in self.table.elements]

    def unchecked_residuals(self, available, demand):
        # each sum is checked: a table admitted without its shape check may
        # leave its carrier
        valid = [s for s in self.elements()
                 if self.leq(self.unchecked_add(demand, s), available)]
        return [s for s in valid if not any(t != s and self.unchecked_leq(s, t) for t in valid)]

    def describe(self):
        return f"table:{self.table.name}"

    def parse_payload(self, text):
        if text not in self.table.elements:
            raise ValueError(f"{text!r} is not an element of {self.table.name}")
        return self._value(text)

    @cached_property
    def sums_of_one(self) -> tuple[tuple[str, ...], int]:
        """The sums 0, 0 + 1, (0 + 1) + 1, ... read from the table up to the
        first that repeats, and the position where that one first appears:
        ``iota`` reads each natural's image off this cycle.  A sum missing
        from the table raises KeyError, and nothing is kept."""
        table, seen = self.table, {}
        out = table.zero
        while out not in seen:
            seen[out] = len(seen)
            out = table.sum[out][table.one]
        return tuple(seen), seen[out]


@dataclass(frozen=True)
class ProductAlgebra(Algebra):
    """Pairs of grades, ordered and combined side by side."""

    left: Algebra
    right: Algebra

    def unchecked_leq(self, a, b):
        return (self.left.unchecked_leq(a.left, b.left)
                and self.right.unchecked_leq(a.right, b.right))

    def unchecked_add(self, a, b):
        return PairValue(self.left.unchecked_add(a.left, b.left),
                         self.right.unchecked_add(a.right, b.right))

    def unchecked_mul(self, a, b):
        return PairValue(self.left.unchecked_mul(a.left, b.left),
                         self.right.unchecked_mul(a.right, b.right))

    def zero(self):
        return PairValue(self.left.zero(), self.right.zero())

    def one(self):
        return PairValue(self.left.one(), self.right.one())

    def contains(self, a):
        return (isinstance(a, PairValue) and self.left.contains(a.left)
                and self.right.contains(a.right))

    def elements(self):
        le, re_ = self.left.elements(), self.right.elements()
        if le is None or re_ is None:
            return None
        return [PairValue(l, r) for l, r in iproduct(le, re_)]

    def sample(self):
        le = self.left.elements() or self.left.sample()[:8]
        re_ = self.right.elements() or self.right.sample()[:8]
        return [PairValue(l, r) for l, r in iproduct(le, re_)]

    def unchecked_residuals(self, available, demand):
        # componentwise order and sum: the maximal residuals are the pairs
        # of maximal component residuals
        return [PairValue(l, r) for l, r in iproduct(
            self.left.unchecked_residuals(available.left, demand.left),
            self.right.unchecked_residuals(available.right, demand.right))]

    def describe(self):
        return f"product({self.left.describe()},{self.right.describe()})"

    def parse_payload(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"product grade literal must be (l,r), got {text!r}")
        depth, split = 0, None
        body = text[1:-1]
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split = i
                break
        if split is None:
            raise ValueError(f"product grade literal must be (l,r), got {text!r}")
        return PairValue(self.left.parse_payload(body[:split].strip()),
                         self.right.parse_payload(body[split + 1:].strip()))


@dataclass(frozen=True)
class ExtendAlgebra(Algebra):
    """Adjoin a top infinity; 0 * inf = inf * 0 = 0 is kept."""

    inner: Algebra

    def unchecked_leq(self, a, b):
        if isinstance(b, ExtInf):
            return True
        if isinstance(a, ExtInf):
            return False
        return self.inner.unchecked_leq(a.inner, b.inner)

    def unchecked_add(self, a, b):
        if isinstance(a, ExtInf) or isinstance(b, ExtInf):
            return ExtInf()
        return ExtFin(self.inner.unchecked_add(a.inner, b.inner))

    def unchecked_mul(self, a, b):
        if isinstance(a, ExtInf) or isinstance(b, ExtInf):
            if a == self.zero() or b == self.zero():
                return self.zero()
            return ExtInf()
        return ExtFin(self.inner.unchecked_mul(a.inner, b.inner))

    def zero(self):
        return ExtFin(self.inner.zero())

    def one(self):
        return ExtFin(self.inner.one())

    def contains(self, a):
        if isinstance(a, ExtInf):
            return True
        return isinstance(a, ExtFin) and self.inner.contains(a.inner)

    def elements(self):
        inner = self.inner.elements()
        if inner is None:
            return None
        return [ExtFin(v) for v in inner] + [ExtInf()]

    def sample(self):
        inner = self.inner.elements() or self.inner.sample()[:12]
        return [ExtFin(v) for v in inner] + [ExtInf()]

    def unchecked_residuals(self, available, demand):
        if isinstance(available, ExtInf):
            return [ExtInf()]
        if isinstance(demand, ExtInf):
            return []
        return [ExtFin(r) for r in self.inner.unchecked_residuals(available.inner, demand.inner)]

    def describe(self):
        return f"extend({self.inner.describe()})"

    def parse_payload(self, text):
        if text == "inf":
            return ExtInf()
        return ExtFin(self.inner.parse_payload(text))


# ---------------------------------------------------------------------------
# Built-in finite tables

def _closure_table(elems, leq_pairs):
    pairs = set(leq_pairs)
    pairs.update((e, e) for e in elems)
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return frozenset(pairs)


def _table_from_ops(name, elems, leq_pairs, add_fn, mul_fn, zero, one):
    return FiniteTable(
        name=name,
        elements=tuple(elems),
        leq=_closure_table(elems, leq_pairs),
        sum={a: {b: add_fn(a, b) for b in elems} for a in elems},
        mul={a: {b: mul_fn(a, b) for b in elems} for a in elems},
        zero=zero,
        one=one,
    )


def affinity_table() -> FiniteTable:
    """{0,1,w}: naturals with everything above 1 collapsed to w."""
    rank = {"0": 0, "1": 1, "w": 2}
    back = {0: "0", 1: "1", 2: "w"}

    def add(a, b):
        return back[min(rank[a] + rank[b], 2)]

    def mul(a, b):
        return back[min(rank[a] * rank[b], 2)]

    return _table_from_ops("affinity", ["0", "1", "w"],
                           [("0", "1"), ("1", "w")], add, mul, "0", "1")


def boolean_table() -> FiniteTable:
    def disj(a, b):
        return "1" if "1" in (a, b) else "0"

    def conj(a, b):
        return "1" if a == b == "1" else "0"

    return _table_from_ops("boolean", ["0", "1"], [("0", "1")], disj, conj, "0", "1")


def _lattice_with_unused(name, levels, order_pairs, top):
    """Privacy-style algebra: a distributive lattice plus a least 'unused' 0.

    Sum is the join (least restrictive), multiplication the meet (most
    restrictive); the adjoined 0 is neutral for sum and absorbing for
    multiplication; the designated one is the top level.
    """
    elems = ["0"] + levels
    closure = _closure_table(elems, [("0", lv) for lv in levels] + order_pairs)

    def join(a, b):
        if a == "0":
            return b
        if b == "0":
            return a
        ups = [c for c in levels if (a, c) in closure and (b, c) in closure]
        least = [c for c in ups if all((c, d) in closure for d in ups)]
        assert len(least) == 1, f"{name}: no unique join for {a},{b}"
        return least[0]

    def meet(a, b):
        if "0" in (a, b):
            return "0"
        downs = [c for c in levels if (c, a) in closure and (c, b) in closure]
        greatest = [c for c in downs if all((d, c) in closure for d in downs)]
        assert len(greatest) == 1, f"{name}: no unique meet for {a},{b}"
        return greatest[0]

    return _table_from_ops(name, elems, order_pairs + [("0", lv) for lv in levels],
                           join, meet, "0", top)


def privacy_table() -> FiniteTable:
    """Two privacy levels: 0 < private < public."""
    return _lattice_with_unused("privacy2", ["private", "public"],
                                [("private", "public")], "public")


def pprivacy_table() -> FiniteTable:
    """Four privacy levels a < b,c < d (b,c incomparable) plus 0."""
    return _lattice_with_unused(
        "privacy4", ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], "d")


NAT = NatAlgebra()
TRIVIAL = TrivialAlgebra()
EXTREAL = ExtRealAlgebra()
AFFINITY = FiniteAlgebra(affinity_table())
BOOLEAN = FiniteAlgebra(boolean_table())
PRIVACY = FiniteAlgebra(privacy_table())
PPRIVACY = FiniteAlgebra(pprivacy_table())
# the algebras a universe file names by "builtin"
BUILTINS = {"nat": NAT, "trivial": TRIVIAL, "affinity": AFFINITY, "boolean": BOOLEAN,
            "extreal": EXTREAL}


def builtin_name(alg: Algebra) -> Optional[str]:
    """The name of ``alg`` when it is one of the ``BUILTINS`` constants
    (those of N and T among them), else None."""
    return next((name for name, b in BUILTINS.items() if alg is b), None)


def iota(n: GradeValue, target: Algebra) -> GradeValue:
    """Sum of n copies of the target's one, added from the left to zero;
    the unique hom out of naturals.

    Built-in carriers give it in closed form (componentwise for products,
    under the finite injection for extensions), matched by exact class
    because a subclass may redefine the sum; a finite table sums element
    names in its own sum table, and a sum off its carrier is refused by the
    checked sums of the general path.  On any other carrier the running sum
    is a function of its last value, so once a value repeats the rest of the
    sequence cycles; a finite carrier repeats within |carrier| + 1
    additions.
    """
    if not isinstance(n, Nat):
        raise CarrierMismatch(f"iota expects a natural, got {n}")
    if type(target) is NatAlgebra:
        return Nat(n.n)
    if type(target) is ExtRealAlgebra:
        return ExtReal(n.n)
    if type(target) is ProductAlgebra:
        return PairValue(iota(n, target.left), iota(n, target.right))
    if type(target) is ExtendAlgebra:
        return ExtFin(iota(n, target.inner))
    if type(target) is FiniteAlgebra:
        try:
            sums, first = target.sums_of_one
        except KeyError:  # a table admitted unchecked: the checked sums name the culprit
            pass
        else:
            return target._value(_around(sums, first, n.n))
    return _nth_sum(target.zero(), lambda a: target.add(a, target.one()), n.n)


def _nth_sum(start, step, n: int):
    """``step`` applied n times to ``start``, where the sequence ends in a
    cycle as soon as a value repeats."""
    seen: dict = {}  # each partial sum, in order: its count of steps
    out = start
    for i in range(n):
        if out in seen:
            return _around(list(seen), seen[out], n)
        seen[out] = i
        out = step(out)
    return out


def _around(values: Sequence, first: int, n: int):
    """The n-th value of a sequence that repeats ``values[first:]`` after
    its last value."""
    if n < len(values):
        return values[n]
    return values[first + (n - first) % (len(values) - first)]


# ---------------------------------------------------------------------------
# Homomorphisms

class Hom:
    """A structure-preserving monotone map between two algebras.

    ``apply`` refuses a value outside the source carrier and maps the rest
    by ``image``, which a class defines on values already known to be in its
    source.  A composition checks its argument once, by its own ``apply``,
    and passes each map's image to the next map's ``image``, as each image
    is in its map's target.
    """

    def source(self) -> Algebra:
        raise NotImplementedError

    def target(self) -> Algebra:
        raise NotImplementedError

    def apply(self, a: GradeValue) -> GradeValue:
        self.source().check_value(a)
        return self.image(a)

    def image(self, a: GradeValue) -> GradeValue:
        raise NotImplementedError


@dataclass(frozen=True, eq=False, repr=False)
class IdentityHom(Hom):
    """The identity on ``spec``."""

    spec: Algebra

    def source(self):
        return self.spec

    def target(self):
        return self.spec

    def image(self, a):
        return a


@dataclass(frozen=True, eq=False, repr=False)
class IotaHom(Hom):
    """The one homomorphism from the naturals: n goes to the sum of n ones."""

    target_spec: Algebra

    def source(self):
        return NAT

    def target(self):
        return self.target_spec

    def image(self, a):
        return iota(a, self.target_spec)


@dataclass(frozen=True, eq=False, repr=False)
class ZetaHom(Hom):
    """The one homomorphism into the trivial algebra."""

    source_spec: Algebra

    def source(self):
        return self.source_spec

    def target(self):
        return TRIVIAL

    def image(self, a):
        return Triv()


@dataclass(frozen=True, eq=False, repr=False)
class ProjLeftHom(Hom):
    """The projection of a product onto its left side."""

    product: ProductAlgebra

    def source(self):
        return self.product

    def target(self):
        return self.product.left

    def image(self, a):
        return a.left


@dataclass(frozen=True, eq=False, repr=False)
class ProjRightHom(Hom):
    """The projection of a product onto its right side."""

    product: ProductAlgebra

    def source(self):
        return self.product

    def target(self):
        return self.product.right

    def image(self, a):
        return a.right


@dataclass(frozen=True, eq=False, repr=False)
class FiniteMapHom(Hom):
    """A homomorphism out of a finite algebra, given by the image of each element."""

    source_spec: FiniteAlgebra
    target_spec: Algebra
    mapping: dict[str, GradeValue]

    def source(self):
        return self.source_spec

    def target(self):
        return self.target_spec

    def image(self, a):
        if a.name not in self.mapping:
            raise PartialMap(f"map has no image for element {a.name!r}")
        return self.mapping[a.name]


@dataclass(frozen=True, eq=False, repr=False)
class ComposeHom(Hom):
    """Apply ``first``, then ``second``."""

    first: Hom
    second: Hom

    def __post_init__(self):
        if self.first.target() != self.second.source():
            raise GradeError("composed homomorphisms do not agree at the joint: "
                             f"{self.first.target().describe()} vs "
                             f"{self.second.source().describe()}")

    def source(self):
        return self.first.source()

    def target(self):
        return self.second.target()

    def image(self, a):
        return self.second.image(self.first.image(a))


def compose(first: Hom, second: Hom) -> Hom:
    if isinstance(first, IdentityHom):
        return second
    if isinstance(second, IdentityHom):
        return first
    return ComposeHom(first, second)


# ---------------------------------------------------------------------------
# Law validation

ALGEBRA_TRIPLES = 1000  # seeded triples checked on an infinite carrier
HOM_PAIRS = 400         # seeded pairs checked for a map out of an infinite carrier


@dataclass
class LawResult:
    """One checked law: whether it held, and a witness when it did not."""

    law: str
    ok: bool
    witness: Optional[tuple] = None

    def __str__(self):
        if self.ok:
            return f"PASS {self.law}"
        return f"FAIL {self.law} witness={self.witness}"


@dataclass(eq=False, repr=False)
class LawReport:
    """The results of a law check, one per law, in the order they were
    checked; ``whole`` when they cover every value of the carrier (an
    exhaustive check, or a proof by structure), not a sample of it."""

    results: list[LawResult]
    whole: bool = False

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.ok]


class Indexed:
    """An algebra whose grades are small ints: hash-consing (Filliâtre and
    Conchon, "Type-safe modular hash-consing", ML 2006).

    Each distinct grade gets an id the first time ``id`` sees it (one dict
    lookup by structural equality, so ``id(a) == id(b)`` iff ``a == b``);
    ``values`` maps the id back to one canonical grade, ``alg.canonical(v,
    i)``, which checks ``v`` once: it may raise, and then nothing is stored.
    ``leq``, ``add``, ``mul`` and ``residual`` on ids call the wrapped
    operation once per ordered pair of ids and answer later calls from
    int-keyed memo rows, which hash no nested grade value (a ``leq`` or
    ``residual`` row made when its operation first meets its left id);
    ``reader`` and ``read_pairs`` read many memo entries at once.  ``alg``
    takes this table's canonical grades as operands of its
    ``unchecked_leq``, ``add_id``, ``mul_id`` and ``unchecked_residuals``;
    ``add_id`` and ``mul_id`` give the result's id, interning a new result
    through ``id``.  ``zero`` and ``one`` intern the algebra's units when
    asked for: a new table is empty.  ``alg`` is one ``Algebra`` (in the
    law checks, or one algebra of a grade universe, shared by its kinds,
    each of which keeps its own codes, the ids here of its grades' values)
    or the kinded algebra of a grade universe, whose grades are interned
    here for the universe's lifetime.
    """

    def __init__(self, alg):
        self.alg = alg
        self.values: list = []   # id -> canonical grade
        self._ids: dict = {}     # grade -> id
        # per id, the memo rows of leq, add, mul and residual, keyed by the
        # right id; a leq or residual row is _UNUSED until its operation
        # first meets the id, as a kind's table reads only add and mul
        self._leq: list[dict] = []
        self._add: list[dict] = []
        self._mul: list[dict] = []
        self._residual: list[dict] = []

    def id(self, v) -> int:
        i = self._ids.get(v)
        if i is None:
            i = len(self.values)
            v = self.alg.canonical(v, i)
            self._ids[v] = i
            self.values.append(v)
            self._leq.append(_UNUSED), self._add.append({}), self._mul.append({})
            self._residual.append(_UNUSED)
        return i

    def leq(self, i: int, j: int) -> bool:
        row = self._leq[i]
        hit = row.get(j)
        if hit is None:
            if not row:  # _UNUSED, or left empty when its first operation raised
                row = self._leq[i] = {}
            hit = row[j] = self.alg.unchecked_leq(self.values[i], self.values[j])
        return hit

    def add(self, i: int, j: int) -> int:
        row = self._add[i]
        hit = row.get(j)
        if hit is None:
            hit = row[j] = self.alg.add_id(self.values[i], self.values[j], self.id)
        return hit

    def mul(self, i: int, j: int) -> int:
        row = self._mul[i]
        hit = row.get(j)
        if hit is None:
            hit = row[j] = self.alg.mul_id(self.values[i], self.values[j], self.id)
        return hit

    def residual(self, i: int, j: int) -> tuple[int, ...]:
        """The ids of every maximal residual of demand ``j`` out of ``i``."""
        row = self._residual[i]
        hit = row.get(j)
        if hit is None:
            if not row:  # _UNUSED, or left empty when its first operation raised
                row = self._residual[i] = {}
            hit = row[j] = tuple(map(self.id, self.alg.unchecked_residuals(
                self.values[i], self.values[j])))
        return hit

    def reader(self, op: str, js: Sequence[int]) -> Callable[[int], tuple]:
        """A batched read of ``op`` ("leq", "add" or "mul") at the ids
        ``js``: ``read(i)`` is the tuple of ``op(i, j)`` for each j of
        ``js``.  Entries missing from the memo row of ``i`` are computed once,
        through ``op``, in the order of ``js``; then one C-level
        ``itemgetter`` reads every answer from the row."""
        memo, compute = getattr(self, f"_{op}"), getattr(self, op)
        keys = tuple(dict.fromkeys(js))
        get = _getter(js)

        def read(i: int) -> tuple:
            try:
                return get(memo[i])
            except KeyError:
                pass
            for j in keys:
                if j not in memo[i]:
                    compute(i, j)
            return get(memo[i])
        return read

    def read_pairs(self, op: str, xs: Sequence[int], ys: Sequence[int]) -> list:
        """``op(x, y)`` for each x, y of ``zip(xs, ys)``, read at C level
        from the memo rows; missing entries are computed once, through
        ``op``, in order, when a read misses."""
        memo = getattr(self, f"_{op}")
        try:
            return list(map(getitem, map(memo.__getitem__, xs), ys))
        except KeyError:
            compute = getattr(self, op)
            for x, y in dict.fromkeys(zip(xs, ys)):
                if y not in memo[x]:
                    compute(x, y)
            return list(map(getitem, map(memo.__getitem__, xs), ys))

    def zero(self) -> int:
        return self.id(self.alg.zero())

    def one(self) -> int:
        return self.id(self.alg.one())

    def show(self, x) -> str:
        """The witness text of an id, or of a tuple of ids (a pair of grades
        prints as that tuple of grades does)."""
        if isinstance(x, tuple):
            return str(tuple(self.values[i] for i in x))
        return str(self.values[x])


_UNUSED = MappingProxyType({})  # the memo row of an id its operation has not met


def _getter(keys: Sequence) -> Callable:
    """``itemgetter(*keys)``, answering a tuple for any number of keys."""
    if len(keys) == 1:
        key = keys[0]
        return lambda row: (row[key],)
    return itemgetter(*keys) if keys else lambda row: ()


_BITS = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: tuple) -> int:
    """The bitmask of a tuple of bools: bit k is set when entry k is true."""
    return int(bytes(flags[::-1]).translate(_BITS) or b"0", 2)


def _whole(row):
    return row


def _one_row(law: str, holds, cases: list) -> tuple:
    """A ``check_laws`` law whose cases form one row, checked case by case."""
    return (law, holds, (cases,), _whole, None)


def check_laws(laws, total: Optional[str] = None, show=str) -> LawReport:
    """Check each law ``(name, holds, rows, cases, kernel)`` in turn: PASS,
    or FAIL with the first case on which ``holds`` is false, each component
    formatted by ``show``.

    The cases are ``cases(row)`` for each of ``rows``, in order.  When
    ``kernel`` is given, ``kernel(row)`` is true only if ``holds`` is true on
    every case of the row, and reads whole memo rows to say so; without one
    the row's cases run through ``holds`` at C level.  A row whose kernel is
    false or raises is walked case by case, in order, for its first failing
    case, so a report does not depend on how its kernels are written.

    A case on which a map is undefined (PartialMap, CarrierMismatch) fails
    the law with the error as witness; when ``total`` names a law, it fails
    that law instead and ends the report.
    """
    results = []
    for law, holds, rows, cases, kernel in laws:
        result = LawResult(law, True)
        for row in rows:
            try:
                if kernel(row) if kernel else all(starmap(holds, cases(row))):
                    continue
            except Exception:
                # a kernel may compute more than the cases do: the walk below
                # meets the error at its case and reports or raises it there,
                # or passes the row when no case reaches it
                pass
            for case in cases(row):
                try:
                    if holds(*case):
                        continue
                    result = LawResult(law, False, tuple(show(x) for x in case))
                except (PartialMap, CarrierMismatch) as exc:
                    if total is not None:
                        return LawReport(results + [LawResult(total, False, (str(exc),))])
                    result = LawResult(law, False, (str(exc),))
                break
            if not result.ok:
                break
        results.append(result)
    return LawReport(results)


def _axioms(leq, add, mul, zero, one) -> list[tuple]:
    """The axioms of an ordered semiring with a least zero, stated over
    ``leq``, ``add``, ``mul``, ``zero`` and ``one``: each a name, a shape
    (0: a pair of related pairs, else the arity) and a statement."""
    return [
        ("order-reflexive", 1, lambda a: leq(a, a)),
        ("order-antisymmetric", 2, lambda a, b: not (leq(a, b) and leq(b, a)) or a == b),
        ("order-transitive", 3, lambda a, b, c: not (leq(a, b) and leq(b, c)) or leq(a, c)),
        ("add-commutative", 2, lambda a, b: add(a, b) == add(b, a)),
        ("add-associative", 3, lambda a, b, c: add(add(a, b), c) == add(a, add(b, c))),
        ("add-unit", 1, lambda a: add(a, zero) == a),
        ("mul-associative", 3, lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c))),
        ("mul-unit", 1, lambda a: mul(a, one) == a and mul(one, a) == a),
        ("distributes-left", 3,
         lambda a, b, c: mul(a, add(b, c)) == add(mul(a, b), mul(a, c))),
        ("distributes-right", 3,
         lambda a, b, c: mul(add(b, c), a) == add(mul(b, a), mul(c, a))),
        ("annihilation", 1, lambda a: mul(a, zero) == zero and mul(zero, a) == zero),
        ("zero-least", 1, lambda a: leq(zero, a)),
        ("add-monotone", 0, lambda p, q: leq(add(p[0], q[0]), add(p[1], q[1]))),
        ("mul-monotone", 0, lambda p, q: leq(mul(p[0], q[0]), mul(p[1], q[1]))),
    ]


AXIOMS = tuple(law for law, _, _ in _axioms(None, None, None, None, None))


def semiring_laws(ix: Indexed, pool: list[int], seeded: Optional[list[tuple]] = None,
                  monotone_pairs: Optional[int] = None) -> list[tuple]:
    """The axioms of an ordered semiring with a least zero, as ``check_laws``
    input over the ids of ``ix``: the grades of one algebra, or the kinded
    grades of a universe.

    Unary laws range over ``pool``, case by case.  With ``seeded`` triples,
    the pairs are their first two components, monotonicity pairs each related
    pair with the next, and each law is one row of those cases.  Otherwise
    the pair and triple laws range over all of the pool, one row per first
    argument, and monotonicity over every pair of related pairs (an even
    stride of at most about ``monotone_pairs`` of them, when given), one row
    per first related pair.  Each of these rows has a kernel over whole memo
    rows (``Indexed.reader``) that does O(1) or O(pool) Python-level work:
    both sides of the law become rows of ids over the rest of the row.  A
    monotonicity kernel first tries the one-sided law, where that reads
    fewer cases: on a transitive pool closed under the operation, as a
    finite carrier is, its pass passes every row.
    """
    laws = _axioms(ix.leq, ix.add, ix.mul, ix.zero(), ix.one())
    ones = [(a,) for a in pool]
    if seeded is not None:
        pairs = [(a, b) for a, b, _ in seeded]
        related = [(a, b) for a, b in pairs if ix.leq(a, b)]
        cases = {0: list(zip(related, related[1:] + related[:1])), 1: ones, 2: pairs,
                 3: seeded}
        return [_one_row(law, holds, cases[shape]) for law, shape, holds in laws]

    P = tuple(pool)
    positions = range(len(P))
    read = {op: ix.reader(op, P) for op in ("leq", "add", "mul")}

    @cache
    def rows(op):  # op(a, b) over b in the pool, for each a in the pool
        return [read[op](a) for a in P]

    # the related pairs read every leq of the pool, in case order
    related = [(a, b) for a, row in zip(P, rows("leq")) for b in compress(P, row)]
    if monotone_pairs is not None and len(related) > monotone_pairs:
        related = related[::len(related) // monotone_pairs + 1]

    # Row tables live for this check only.  All but the leq rows are built
    # inside the first kernel that reads them, so that an error building one
    # sends that row to the walk.
    @cache
    def columns(op):  # op(b, a) over b in the pool, for each a
        return list(zip(*rows(op)))

    @cache
    def flat(op):  # op(b, c) over (b, c) in the pool², flattened row by row
        return list(chain.from_iterable(rows(op)))

    @cache
    def at_flat(op, inner):  # a's row of op at every inner(b, c)
        return ix.reader(op, flat(inner))

    @cache
    def orders():  # up-set and down-set bitmasks of each pool position, and its id's
        same: dict[int, int] = {}
        for k, a in enumerate(P):
            same[a] = same.get(a, 0) | 1 << k
        return ([_mask(r) for r in rows("leq")], [_mask(c) for c in columns("leq")],
                [same[a] for a in P])

    @cache
    def times_sums():  # mul(x, a) over the distinct x = add(b, c), for each a; and
        # a read of those at every (b, c) in the pool²
        distinct = list(dict.fromkeys(flat("add")))
        at = _getter(list(map({x: i for i, x in enumerate(distinct)}.__getitem__,
                              flat("add"))))
        return list(zip(*map(read["mul"], distinct))), at

    def sums(xs, ys):  # add(x, y) over (x, y) in xs × ys, flattened
        return list(chain.from_iterable(map(ix.reader("add", ys), xs)))

    def antisymmetric(k):
        up, down, same = orders()
        return not up[k] & down[k] & ~same[k]

    def transitive(k):  # every up-set of a's up-set lies inside a's
        up = orders()[0]
        return reduce(or_, compress(up, rows("leq")[k]), up[k]) == up[k]

    def commutative(k):
        return rows("add")[k] == columns("add")[k]

    def associative(op):
        # (a·b)·c: the pool rows of each a·b; a·(b·c): a's row at every b·c
        return lambda k: (list(chain.from_iterable(map(read[op], rows(op)[k])))
                          == list(at_flat(op, op)(P[k])))

    def distributes_left(k):
        return list(at_flat("mul", "add")(P[k])) == sums(rows("mul")[k], rows("mul")[k])

    def distributes_right(k):
        columns_at_sums, at = times_sums()
        return list(at(columns_at_sums[k])) == sums(columns("mul")[k], columns("mul")[k])

    @cache
    def one_sided(op):
        # a <= b gives op(a, c) <= op(b, c) and op(c, a) <= op(c, b) for each
        # c of the pool.  On a transitive pool closed under op, this gives
        # op(a, c) <= op(b, c) <= op(b, d) for any related (a, b) and (c, d)
        if not (set(P).issuperset(flat(op)) and all(map(transitive, positions))):
            return False
        sides = (dict(zip(P, rows(op))), dict(zip(P, columns(op))))
        lows, highs = (list(chain.from_iterable(side[q[i]] for side in sides for q in related))
                       for i in (0, 1))
        return all(ix.read_pairs("leq", lows, highs))

    # the one-sided law reads 2 * related * pool cases, and the rows related²
    by_one_side = len(related) > 2 * len(P)

    def monotone(op):
        # a pass of the one-sided law passes every row; where it fails, or
        # would read more, each row is checked against every related pair
        firsts = ix.reader(op, [q[0] for q in related])
        seconds = ix.reader(op, [q[1] for q in related])
        return lambda p: (by_one_side and one_sided(op)
                          or all(ix.read_pairs("leq", firsts(p[0]), seconds(p[1]))))

    kernels = {"order-antisymmetric": antisymmetric, "order-transitive": transitive,
               "add-commutative": commutative, "add-associative": associative("add"),
               "mul-associative": associative("mul"), "distributes-left": distributes_left,
               "distributes-right": distributes_right, "add-monotone": monotone("add"),
               "mul-monotone": monotone("mul")}
    shapes = {0: (related, lambda p: iproduct((p,), related)), 1: ((ones,), _whole),
              2: (positions, lambda k: iproduct((P[k],), P)),
              3: (positions, lambda k: iproduct((P[k],), P, P))}
    return [(law, holds, *shapes[shape], kernels.get(law)) for law, shape, holds in laws]


def _seeded_triples(pool: list, count: int) -> list[tuple]:
    rng = random.Random(SAMPLE_SEED)
    return [(rng.choice(pool), rng.choice(pool), rng.choice(pool))
            for _ in range(max(count, len(pool)))]


def validate_algebra(spec: Algebra, ix: Optional[Indexed] = None,
                     report: Optional[Callable[[Algebra], LawReport]] = None) -> LawReport:
    """Check every grade-algebra axiom over ``ix``, a new ``Indexed(spec)``
    unless given; exhaustive on finite carriers, by row kernels.

    Every finite table in ``spec`` is first checked for its shape, and the
    first one that fails is the whole report; a table that is ``spec``
    itself reports its PASS line too.  An algebra whose structure proves
    the axioms gets ``structural_report``'s PASS lines, its factors' reports
    read from ``report`` when given.  Any other infinite carrier is checked
    on ``ALGEBRA_TRIPLES`` deterministic seeded triples drawn from
    ``spec.sample()``; their pairs are the first two components, and
    monotonicity pairs each related pair with the next.
    """
    shapes = [_validate_table_shape(table) for table in _tables(spec)]
    if bad := [r for r in shapes if not r.ok]:
        return LawReport(bad[:1])
    proved = structural_report(spec) if report is None else structural_report(spec, report)
    if proved is not None:
        return proved
    shape = shapes if isinstance(spec, FiniteAlgebra) else []
    if ix is None:
        ix = Indexed(spec)
    pool = [ix.id(v) for v in spec.sample()]
    whole = spec.elements() is not None
    seeded = None if whole else _seeded_triples(pool, ALGEBRA_TRIPLES)
    return LawReport(shape + check_laws(semiring_laws(ix, pool, seeded), show=ix.show).results,
                     whole=whole)


def structural_report(spec: Algebra, report: Optional[Callable[[Algebra], LawReport]] = None
                      ) -> Optional[LawReport]:
    """The PASS line of each axiom, in ``semiring_laws``' order, when the
    structure of ``spec`` proves them on all of its values; None when it
    does not.

    - ``NAT`` and ``EXTREAL``, matched by identity (a subclass may redefine
      an operation), are ordered semirings with a least zero: the tests
      check the fourteen axioms on exhaustive grids of their values.
    - A ``ProductAlgebra``, with a finite carrier or not: each axiom holds
      componentwise, so it holds when it holds in both factors (Golan,
      *Semirings and their Applications*, 1999).  A builtin factor
      (``BUILTINS``) is trusted by identity, any other finite one is proved
      by its exhaustive report, ``report(factor)`` when given, else
      ``validate_algebra``'s, and an infinite one by its structure.
    - ``NAT`` or ``EXTREAL`` under ``ExtendAlgebra`` layers.  Each layer
      extends an X that is proved, infinite and without zero divisors
      (a * b = 0 only when a = 0 or b = 0: the tests check this of ``NAT``
      and ``EXTREAL``, and inf * a = 0 only when a = 0).  As X is infinite,
      0 != 1 (else a = a * 1 = a * 0 = 0 for every a), and X is
      zero-sum-free: 0 <= a gives b = 0 + b <= a + b, so a + b = 0 forces
      b = 0, and a = 0 likewise.  Inf tops X, a sum with inf is inf, and a
      product with inf is 0 when the other operand is 0, else inf.
      Axiom by axiom, on cases with inf (the others are X's):
      - order, zero-least: a top is added to a partial order with least 0;
      - add-commutative, -associative, -unit: both sides are inf;
      - mul-unit: 1 * inf = inf, as 1 != 0; annihilation: the rule for 0;
      - mul-associative: with a 0 operand both sides are 0; else both are
        inf, as a product of nonzero values of X is nonzero;
      - distributivity: with a = inf, a * (b + c) and a * b + a * c are 0
        when b = c = 0 (b + c = 0 only then) and inf otherwise; with a = 0
        both are 0; with a != 0 and b or c inf both are inf;
      - add-monotone: with a <= b and c <= d, b + d is inf (the top) unless
        b and d are finite, and then so are a and c;
      - mul-monotone: b * d is inf unless b and d are finite (then so are
        a and c) or one of them is 0 (then a or c is 0, and a * c = 0).

    Any other algebra gets None, and its cases must be enumerated: a
    subclass, a finite table, an extension of a finite algebra or of any
    other infinite one, or a product with a factor not proved.
    """
    if type(spec) is ProductAlgebra:
        proved = _proved(spec.left, report) and _proved(spec.right, report)
    else:
        while type(spec) is ExtendAlgebra:
            spec = spec.inner
        proved = spec is NAT or spec is EXTREAL
    return LawReport([LawResult(law, True) for law in AXIOMS], whole=True) if proved else None


def _proved(spec: Algebra, report: Optional[Callable[[Algebra], LawReport]]) -> bool:
    """Whether every axiom holds on all of ``spec``: a builtin by identity,
    a finite carrier by its exhaustive report, any other by its structure."""
    if builtin_name(spec):
        return True
    if spec.elements() is None:
        return structural_report(spec, report) is not None
    return (report or validate_algebra)(spec).ok


def _tables(spec: Algebra) -> list[FiniteTable]:
    """The finite tables of ``spec``, itself and nested in products and
    extensions, left to right."""
    if isinstance(spec, FiniteAlgebra):
        return [spec.table]
    if isinstance(spec, ProductAlgebra):
        return _tables(spec.left) + _tables(spec.right)
    if isinstance(spec, ExtendAlgebra):
        return _tables(spec.inner)
    return []


def _validate_table_shape(table: FiniteTable) -> LawResult:
    elems = set(table.elements)
    if len(elems) != len(table.elements):
        return LawResult("table-shape", False, ("duplicate elements",))
    for a, b in table.leq:
        if a not in elems or b not in elems:
            return LawResult("table-shape", False, ("leq off carrier", a, b))
    for op_name, op in (("sum", table.sum), ("mul", table.mul)):
        for a in table.elements:
            row = op.get(a)
            if row is None or set(row) != elems:
                return LawResult("table-shape", False, (f"{op_name} not total", a))
            for b, out in row.items():
                if out not in elems:
                    return LawResult("table-shape", False, (f"{op_name} leaves carrier", a, b))
    if table.zero not in elems or table.one not in elems:
        return LawResult("table-shape", False, ("constants off carrier",))
    return LawResult("table-shape", True)


class Memo(dict):
    """A dict that computes a missing entry by ``compute`` and keeps it."""

    def __init__(self, compute: Callable, known=()):
        super().__init__(known)
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def hom_laws(f: Callable[[int], int], src: Indexed, tgt: Indexed, pool: list[int],
             pairs: Optional[list[tuple]] = None) -> list[tuple]:
    """A homomorphism's laws but its units, as ``check_laws`` input: ``f``,
    from the ids of ``src`` to those of ``tgt``, preserves sums and products
    and is monotone, each law one row of ``pairs``, by default every pair
    of ``pool``.  The cases run through the memo rows one by one, with no
    row kernel: structure decides the identity, the projections and iota
    (``structural_hom``), and the maps left are mostly out of a few grades,
    whose cases cost less than a kernel's readers (a 32-element source
    walks its 1024 pairs in about a millisecond)."""
    laws = [("hom-add", lambda a, b: f(src.add(a, b)) == tgt.add(f(a), f(b))),
            ("hom-mul", lambda a, b: f(src.mul(a, b)) == tgt.mul(f(a), f(b))),
            ("hom-monotone", lambda a, b: not src.leq(a, b) or tgt.leq(f(a), f(b)))]
    if pairs is None:
        pairs = list(iproduct(pool, pool))
    return [_one_row(law, holds, pairs) for law, holds in laws]


def structural_hom(h: Hom, lawful: Callable[[Algebra], bool]) -> bool:
    """Whether ``h`` is a homomorphism by its structure, which then needs
    no case checked.  ``lawful(alg)`` says that ``alg`` holds every axiom
    on all of its values, so its operations are total on its carrier.
    Matched by exact class, since a subclass may redefine ``image`` or an
    operation:

    - an ``IdentityHom`` on a lawful algebra;
    - a ``ProjLeftHom`` or ``ProjRightHom`` out of a lawful
      ``ProductAlgebra``, whose operations, order and units act
      componentwise, onto its factor;
    - an ``IotaHom`` into a lawful algebra.  ``iota(n)`` is the sum of n
      ones (``test_iota_is_the_left_sum_in_bounded_time``), so it keeps 0,
      and 1 by add-unit and commutativity; sums by associativity; products
      by distributivity, the units and annihilation; and order, as m <= n
      gives iota(n) = iota(m) + iota(n - m) >= iota(m) + 0 by zero-least
      and add-monotone.

    Any other map is checked case by case (``validate_hom``).
    """
    kind = type(h)
    if kind in (ProjLeftHom, ProjRightHom):
        return type(h.product) is ProductAlgebra and lawful(h.product)
    return kind in (IdentityHom, IotaHom) and lawful(h.target())


def validate_hom(h: Hom, src: Optional[Indexed] = None, tgt: Optional[Indexed] = None,
                 pool: Optional[list[int]] = None, images: Iterable = ()) -> LawReport:
    """Check that a map preserves 0 and 1, then its ``hom_laws``: over every
    pair of ``pool`` (ids of ``src``), else of a finite source, by row
    kernels, or over ``HOM_PAIRS`` seeded pairs of an infinite one.

    Both algebras are ``Indexed``: ``src`` and ``tgt``, or new tables, which
    may hold memo rows and be one table.  The map is applied once per source
    grade that ``images`` does not pair with its image's id in ``tgt``.
    """
    source = h.source()
    if src is None:
        src = Indexed(source)
    if tgt is None:
        tgt = Indexed(h.target())
    f = Memo(lambda a: tgt.id(h.apply(src.values[a])), images).__getitem__

    units = check_laws([_one_row("hom-zero", lambda a: f(a) == tgt.zero(), [(src.zero(),)]),
                        _one_row("hom-one", lambda a: f(a) == tgt.one(), [(src.one(),)])],
                       total="hom-total", show=src.show)
    if units.results[-1].law == "hom-total":
        return units
    pairs = None
    if pool is None:
        pool = [src.id(v) for v in source.sample()]
        if source.elements() is None:
            pairs = [(a, b) for a, b, _ in _seeded_triples(pool, HOM_PAIRS)]
    return LawReport(units.results + check_laws(hom_laws(f, src, tgt, pool, pairs),
                                                show=src.show).results)
