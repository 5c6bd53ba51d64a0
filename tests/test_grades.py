"""Grade algebra laws, residuals, and homomorphisms."""

import os
import pathlib
import random
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

import gradefj
from gradefj.grades import (
    AFFINITY,
    AmbiguousResidual,
    BOOLEAN,
    CarrierMismatch,
    EXTREAL,
    ExtendAlgebra,
    ExtFin,
    ExtInf,
    ExtReal,
    FiniteAlgebra,
    FiniteElem,
    FiniteMapHom,
    FiniteTable,
    IotaHom,
    Nat,
    NAT,
    NatAlgebra,
    PairValue,
    PPRIVACY,
    PRIVACY,
    ProductAlgebra,
    ProjLeftHom,
    TRIVIAL,
    Triv,
    ZetaHom,
    affinity_table,
    iota,
    validate_algebra,
    validate_hom,
)
from conftest import ambiguous_algebra

AFF = lambda n: FiniteElem(n, "affinity")
AMB = ambiguous_algebra()
PRIV = lambda n: FiniteElem(n, "privacy2")
PP = lambda n: FiniteElem(n, "privacy4")


# ---------------------------------------------------------------------------
# order / sum / product / constants

def test_leq_examples():
    assert NAT.leq(Nat(0), Nat(5))
    assert AFFINITY.leq(AFF("1"), AFF("w"))
    assert not PRIVACY.leq(PRIV("public"), PRIV("private"))
    assert PRIVACY.leq(PRIV("private"), PRIV("public"))


def test_add_mul_examples():
    assert NAT.add(Nat(2), Nat(2)) == Nat(4)
    assert PRIVACY.add(PRIV("private"), PRIV("public")) == PRIV("public")
    assert PRIVACY.mul(PRIV("private"), PRIV("public")) == PRIV("private")
    ext_nat = ExtendAlgebra(NAT)
    assert ext_nat.mul(ExtFin(Nat(0)), ExtInf()) == ExtFin(Nat(0))
    assert ext_nat.mul(ExtFin(Nat(2)), ExtInf()) == ExtInf()
    assert ext_nat.add(ExtFin(Nat(2)), ExtInf()) == ExtInf()


def test_constants():
    assert NAT.zero() == Nat(0) and NAT.one() == Nat(1)
    assert TRIVIAL.zero() == Triv() and TRIVIAL.one() == Triv()
    prod = ProductAlgebra(AFFINITY, PRIVACY)
    assert prod.zero() == PairValue(AFF("0"), PRIV("0"))
    assert prod.one() == PairValue(AFF("1"), PRIV("public"))


def test_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        NAT.add(Nat(1), AFF("1"))
    with pytest.raises(CarrierMismatch):
        AFFINITY.leq(PRIV("public"), AFF("1"))


# per algebra class: the algebra, a value of it, a value off its carrier (one
# level down for products and extensions), and the refusal's message
OFF_CARRIER = {
    "nat": (NAT, Nat(1), ExtReal(1), "1 is not a value of nat"),
    "trivial": (TRIVIAL, Triv(), Nat(0), "0 is not a value of trivial"),
    "extreal": (EXTREAL, ExtReal(1, 2), Nat(1), "1 is not a value of extreal"),
    "finite": (AFFINITY, AFF("1"), FiniteElem("1", "boolean"),
               "1 is not a value of table:affinity"),
    "product": (ProductAlgebra(AFFINITY, NAT), PairValue(AFF("1"), Nat(2)),
                PairValue(AFF("w"), Triv()),
                "(w,inf) is not a value of product(table:affinity,nat)"),
    "extend": (ExtendAlgebra(NAT), ExtFin(Nat(3)), ExtFin(ExtReal(None)),
               "inf is not a value of extend(nat)"),
}


@pytest.mark.parametrize("op", ["leq", "add", "mul", "residual"])
@pytest.mark.parametrize("alg, good, bad, message", OFF_CARRIER.values(), ids=list(OFF_CARRIER))
def test_public_operations_refuse_off_carrier_values(alg, good, bad, message, op):
    # the public operations check both operands before the unchecked ones run
    for args in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(CarrierMismatch) as exc:
            getattr(alg, op)(*args)
        assert str(exc.value) == message


def test_extreal_exact():
    third = ExtReal(1, 3)
    assert EXTREAL.add(third, third) == ExtReal(2, 3)
    assert EXTREAL.mul(ExtReal(0), ExtReal(None)) == ExtReal(0)
    assert EXTREAL.leq(ExtReal(7, 2), ExtReal(None))


@pytest.mark.parametrize("num, den, error", [
    (-1, 1, ValueError), (1, 0, ValueError), (1, -2, ValueError), (2, 4, ValueError),
    (0, 2, ValueError), (None, 2, ValueError), (Fraction(1, 2), 1, TypeError),
    (1.5, 1, TypeError), (1, 2.0, TypeError), (True, 1, TypeError),
])
def test_extreal_refuses_negative_unreduced_and_non_int_pairs(num, den, error):
    # one pair per value, so equal values are equal and hash alike
    with pytest.raises(error):
        ExtReal(num, den)


def _q(v: ExtReal):
    """The Fraction reference of an extended real, None for inf."""
    return None if v.num is None else Fraction(v.num, v.den)


def _ext(q) -> ExtReal:
    return ExtReal(None) if q is None else ExtReal(q.numerator, q.denominator)


_LITERAL = r"[0-9]+(/0*[1-9][0-9]*)?"


def _reference_payload(text: str):
    # the Fraction-backed parse: inf, or the literal's own Fraction
    if text == "inf":
        return None
    if not re.fullmatch(_LITERAL, text):
        raise ValueError(f"bad extended real literal {text!r}: expected inf, n or n/d")
    return Fraction(text)


def test_extreal_agrees_with_a_fraction_reference():
    # a seeded grid, numerators 0-40 over denominators 1-16 and inf: sums,
    # products, order, residuals, printing and parsing as Fraction computes them
    grid = [(n, d) for d in range(1, 17) for n in range(41)]
    values = sorted({_ext(Fraction(n, d)) for n, d in grid}, key=str) + [ExtReal(None)]
    rng = random.Random(20240809)
    pairs = [(a, b) for a in values[::37] + [ExtReal(0), ExtReal(None)] for b in values]
    pairs += [(rng.choice(values), rng.choice(values)) for _ in range(4000)]
    for a, b in pairs:
        qa, qb = _q(a), _q(b)
        assert EXTREAL.add(a, b) == _ext(None if None in (qa, qb) else qa + qb), (a, b)
        want_mul = 0 if 0 in (qa, qb) else None if None in (qa, qb) else qa * qb
        assert EXTREAL.mul(a, b) == _ext(want_mul), (a, b)
        assert EXTREAL.leq(a, b) == (qb is None or qa is not None and qa <= qb), (a, b)
        if qa is None:
            want = [None]
        else:
            want = [] if qb is None or qb > qa else [qa - qb]
        assert EXTREAL.unchecked_residuals(a, b) == list(map(_ext, want)), (a, b)
    texts = [str(v) for v in values] + [f"{n}/{d}" for n, d in grid]
    texts += ["6/4", "1/007", "00", "0/16", "007/014", "1/0", "1/00", "0.5", "-1", " 1",
              "1/", "1e9", "Infinity", "", "\u0663"]
    for text in texts:
        try:
            want = _reference_payload(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                EXTREAL.parse_payload(text)
            assert str(got.value) == str(exc), text
            continue
        got = EXTREAL.parse_payload(text)
        assert got == _ext(want) and str(got) == ("inf" if want is None else str(want)), text
        assert hash(got) == hash(_ext(want)), text
    assert EXTREAL.parse_payload("6/4") == ExtReal(3, 2)
    assert EXTREAL.parse_payload("1/007") == ExtReal(1, 7)


def test_importing_gradefj_skips_fractions():
    # extended reals are ints: no command start-up pays for fractions and
    # decimal
    src = pathlib.Path(gradefj.__file__).parent.parent
    code = ("import sys, gradefj.cli, gradefj.props; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("text, value", [
    ("inf", None), ("0", (0, 1)), ("7", (7, 1)), ("6/4", (3, 2)),
    ("1/007", (1, 7)), ("1/0", ValueError), ("1/00", ValueError),
    ("1e99999999", ValueError), ("0.5", ValueError), ("-1", ValueError), (" 1", ValueError),
    ("\u0663", ValueError), ("1/", ValueError), ("Infinity", ValueError), ("", ValueError),
])
def test_extreal_payload_grammar(text, value):
    # inf, n and n/d in ASCII digits with d >= 1: the forms ExtReal prints
    if value is ValueError:
        with pytest.raises(ValueError):
            EXTREAL.parse_payload(text)
    else:
        assert EXTREAL.parse_payload(text) == ExtReal(*value or (None,))


# ---------------------------------------------------------------------------
# residuals, against a brute-force oracle

def brute_force_residuals_nat(available, demand, bound=50):
    return [Nat(s) for s in range(bound + 1)
            if NAT.leq(NAT.add(Nat(demand), Nat(s)), Nat(available))]


def all_residuals(spec, available, demand):
    """Every valid residual of a finite algebra, by enumeration."""
    return [s for s in spec.elements() if spec.leq(spec.add(demand, s), available)]


def test_residual_nat_oracle():
    # expected value computed by enumerating all s' <= 4 with 2 + s' <= 4
    oracle = brute_force_residuals_nat(4, 2)
    assert max(s.n for s in oracle) == 2
    assert NAT.residual(Nat(4), Nat(2)) == Nat(2)
    assert NAT.residual(Nat(1), Nat(2)) is None


def test_residual_privacy_join_table():
    # oracle: join table — private v public = public <= public
    valid = all_residuals(PRIVACY, PRIV("public"), PRIV("private"))
    assert PRIV("public") in valid
    assert PRIVACY.residual(PRIV("public"), PRIV("private")) == PRIV("public")


@pytest.mark.parametrize("spec", [AFFINITY, BOOLEAN, PRIVACY, PPRIVACY,
                                  ProductAlgebra(AFFINITY, PRIVACY),
                                  ExtendAlgebra(AFFINITY), AMB, ProductAlgebra(AMB, AMB),
                                  ExtendAlgebra(AMB)])
def test_residual_maximality_finite(spec):
    elems = spec.elements()
    for avail in elems:
        for demand in elems:
            if demand == spec.zero():
                continue
            valid = [s for s in elems
                     if spec.leq(spec.add(demand, s), avail)]
            try:
                got = spec.residual(avail, demand)
            except AmbiguousResidual as exc:
                maximal = [s for s in valid
                           if not any(t != s and spec.leq(s, t) for t in valid)]
                assert sorted(map(str, exc.candidates)) == sorted(map(str, maximal))
                continue
            if got is None:
                assert not valid
            else:
                assert got in valid
                assert all(not (got != t and spec.leq(got, t)) for t in valid)


def test_residual_nat_properties():
    for avail in range(12):
        for demand in range(1, 12):
            got = NAT.residual(Nat(avail), Nat(demand))
            oracle = brute_force_residuals_nat(avail, demand, bound=12)
            if got is None:
                assert not oracle
            else:
                assert got.n == max(s.n for s in oracle)


def test_ambiguous_residual():
    from conftest import ambiguous_algebra
    spec = ambiguous_algebra()
    assert validate_algebra(spec).ok, validate_algebra(spec).failures()
    with pytest.raises(AmbiguousResidual) as exc:
        spec.residual(FiniteElem("a", "amb"), FiniteElem("1", "amb"))
    names = sorted(v.name for v in exc.value.candidates)
    assert names == ["x", "y"]


# ---------------------------------------------------------------------------
# iota / zeta

def test_iota_examples():
    assert iota(Nat(0), PRIVACY) == PRIV("0")
    # unfold: 1 + 1 in the affinity sum table gives w
    one_plus_one = AFFINITY.add(AFF("1"), AFF("1"))
    assert one_plus_one == AFF("w")
    assert iota(Nat(2), AFFINITY) == one_plus_one
    assert iota(Nat(3), NAT) == Nat(3)
    assert iota(Nat(1), PRIVACY) == PRIV("public")


def _left_sum(n, target):
    out = target.zero()
    for _ in range(n):
        out = target.add(out, target.one())
    return out


def _rho_table() -> FiniteAlgebra:
    """Sums of one that run 0, 1, 2, 3, 4, 2, 3, 4, ...: a tail of two,
    then a cycle of three (the other entries are not a semiring's)."""
    elems = tuple("01234")
    step = lambda k: k if k < 5 else 2 + (k - 2) % 3
    return FiniteAlgebra(FiniteTable(
        name="rho", elements=elems, leq=frozenset((e, e) for e in elems),
        sum={a: {b: str(step(int(a) + int(b))) for b in elems} for a in elems},
        mul={a: {b: "0" for b in elems} for a in elems}, zero="0", one="1"))


@pytest.mark.parametrize("target", [
    NAT, TRIVIAL, AFFINITY, BOOLEAN, PRIVACY, PPRIVACY, EXTREAL,
    ProductAlgebra(AFFINITY, EXTREAL), ExtendAlgebra(PRIVACY), ExtendAlgebra(NAT),
    _rho_table(), "noncommutative_affinity"])
def test_iota_is_the_left_sum_in_bounded_time(target):
    if target == "noncommutative_affinity":
        from conftest import noncommutative_affinity
        target = noncommutative_affinity()
    for n in range(40):
        assert iota(Nat(n), target) == _left_sum(n, target), n
    started = time.perf_counter()
    iota(Nat(9_876_543_210), target)
    assert time.perf_counter() - started < 1.0


def test_zeta_examples():
    assert ZetaHom(NAT).apply(Nat(0)) == Triv()
    assert ZetaHom(AFFINITY).apply(AFF("w")) == Triv()
    assert ZetaHom(PRIVACY).apply(PRIV("public")) == Triv()


@pytest.mark.parametrize("target", [NAT, TRIVIAL, AFFINITY, BOOLEAN, PRIVACY,
                                    PPRIVACY, EXTREAL,
                                    ProductAlgebra(AFFINITY, PRIVACY),
                                    ExtendAlgebra(AFFINITY)])
def test_iota_zeta_are_homomorphisms(target):
    assert validate_hom(IotaHom(target)).ok
    assert validate_hom(ZetaHom(target)).ok


# ---------------------------------------------------------------------------
# finite maps and law validation

def pp_to_p():
    return FiniteMapHom(PPRIVACY, PRIVACY, {
        "0": PRIV("0"), "a": PRIV("private"), "b": PRIV("public"),
        "c": PRIV("private"), "d": PRIV("public")})


def test_hom_apply_examples():
    assert pp_to_p().apply(PP("d")) == PRIV("public")
    proj = ProjLeftHom(ProductAlgebra(AFFINITY, PRIVACY))
    assert proj.apply(PairValue(AFF("w"), PRIV("private"))) == AFF("w")


def test_validate_hom_detects_unit_violation():
    bad = FiniteMapHom(BOOLEAN, BOOLEAN, {
        "0": FiniteElem("0", "boolean"), "1": FiniteElem("0", "boolean")})
    report = validate_hom(bad)
    assert not report.ok
    assert any(r.law == "hom-one" for r in report.failures())


def test_validate_hom_refuses_an_image_off_the_target_when_it_meets_it():
    # a map built in code that sends 0 to a natural: the target's table
    # checks each image as it interns it, so the first law to apply the map
    # ends the report at hom-total with the carrier message
    bad = FiniteMapHom(BOOLEAN, AFFINITY, {"0": Nat(0), "1": AFF("1")})
    assert [str(r) for r in validate_hom(bad).results] == [
        "FAIL hom-total witness=('0 is not a value of table:affinity',)"]


def test_validate_hom_pp_to_p():
    assert validate_hom(pp_to_p()).ok


def test_validate_hom_reports_partial_maps():
    # undefined on a unit: hom-total ends the report
    no_one = FiniteMapHom(AFFINITY, AFFINITY, {"0": AFF("0"), "w": AFF("w")})
    assert [(r.law, r.ok) for r in validate_hom(no_one).results] == [
        ("hom-zero", True), ("hom-total", False)]
    # undefined elsewhere: each law that meets the gap fails with the error
    no_w = FiniteMapHom(AFFINITY, AFFINITY, {"0": AFF("0"), "1": AFF("1")})
    report = validate_hom(no_w)
    assert [(r.law, r.ok) for r in report.results] == [
        ("hom-zero", True), ("hom-one", True), ("hom-add", False), ("hom-mul", False),
        ("hom-monotone", False)]
    assert report.results[2].witness == ("map has no image for element 'w'",)


@pytest.mark.parametrize("spec", [AFFINITY, BOOLEAN, PRIVACY, PPRIVACY,
                                  ProductAlgebra(AFFINITY, PRIVACY),
                                  ExtendAlgebra(AFFINITY)])
def test_validate_algebra_exhaustive(spec):
    report = validate_algebra(spec)
    assert report.ok, report.failures()


@pytest.mark.parametrize("spec", [NAT, EXTREAL, TRIVIAL, ExtendAlgebra(NAT)])
def test_validate_algebra_sampled(spec):
    report = validate_algebra(spec)
    assert report.ok, report.failures()


def test_validate_algebra_catches_noncommutative_sum():
    from conftest import noncommutative_affinity
    report = validate_algebra(noncommutative_affinity())
    # the first failing case of each law, one witness per case shape: a pair,
    # a triple and a pair of related pairs (printed as tuples of grades)
    assert {r.law: r.witness for r in report.failures()} == {
        "add-commutative": ("1", "w"),
        "add-associative": ("1", "1", "1"),
        "add-monotone": (
            "(FiniteElem(name='0', algebra='broken'), FiniteElem(name='1', algebra='broken'))",
            "(FiniteElem(name='w', algebra='broken'), FiniteElem(name='w', algebra='broken'))"),
    }


@dataclass(frozen=True)
class WrappingNatAlgebra(NatAlgebra):
    """Naturals whose product wraps modulo 7: units, distributivity and
    monotonicity break on the seeded cases."""

    def unchecked_mul(self, a, b):
        return Nat(a.n * b.n % 7) if a.n and b.n else Nat(0)


def test_validate_algebra_sampled_witnesses():
    report = validate_algebra(WrappingNatAlgebra())
    assert {r.law: r.witness for r in report.failures()} == {
        "mul-unit": ("7",),
        "distributes-left": ("44", "44", "6"),
        "distributes-right": ("44", "44", "6"),
        "mul-monotone": ("(Nat(n=44), Nat(n=44))", "(Nat(n=20), Nat(n=32))"),
    }


@dataclass(frozen=True)
class SkippingIotaHom(IotaHom):
    """iota with 5 left out: sums and products past it are off by one."""

    def image(self, a):
        return iota(Nat(a.n if a.n < 5 else a.n - 1), self.target_spec)


def test_validate_hom_witnesses():
    collapse_w = FiniteMapHom(AFFINITY, BOOLEAN, {
        "0": FiniteElem("0", "boolean"), "1": FiniteElem("1", "boolean"),
        "w": FiniteElem("0", "boolean")})
    assert {r.law: r.witness for r in validate_hom(collapse_w).failures()} == {
        "hom-add": ("1", "1"), "hom-monotone": ("1", "w")}
    assert {r.law: r.witness for r in validate_hom(SkippingIotaHom(NAT)).failures()} == {
        "hom-add": ("32", "41"), "hom-mul": ("32", "41")}
    # an image off the target's carrier is refused by each law that operates
    # on it, as the target's public operations refuse it
    off_carrier = FiniteMapHom(AFFINITY, BOOLEAN, {
        "0": FiniteElem("0", "boolean"), "1": FiniteElem("1", "boolean"), "w": Nat(2)})
    refused = ("2 is not a value of table:boolean",)
    assert {r.law: r.witness for r in validate_hom(off_carrier).failures()} == {
        "hom-add": refused, "hom-mul": refused, "hom-monotone": refused}


@pytest.mark.parametrize("target", [AFFINITY, ProductAlgebra(AFFINITY, PRIVACY)])
def test_validate_hom_applies_the_map_once_per_value(monkeypatch, target):
    applied = Counter()
    apply = IotaHom.apply

    def counted(self, a):
        applied[a] += 1
        return apply(self, a)

    monkeypatch.setattr(IotaHom, "apply", counted)
    assert validate_hom(IotaHom(target)).ok
    assert applied and max(applied.values()) == 1


def test_validate_algebra_rejects_unclosed_order():
    # leq lacking reflexivity must be rejected, not repaired
    table = affinity_table()
    pruned = frozenset(p for p in table.leq if p != ("1", "1"))
    broken = FiniteAlgebra(FiniteTable(
        name="noposet", elements=table.elements, leq=pruned,
        sum=table.sum, mul=table.mul, zero=table.zero, one=table.one))
    report = validate_algebra(broken)
    assert any(r.law == "order-reflexive" for r in report.failures())


def test_validate_table_shape_total():
    table = affinity_table()
    partial_sum = {a: dict(row) for a, row in table.sum.items()}
    del partial_sum["1"]["w"]
    broken = FiniteAlgebra(FiniteTable(
        name="partial", elements=table.elements, leq=table.leq,
        sum=partial_sum, mul=table.mul, zero=table.zero, one=table.one))
    report = validate_algebra(broken)
    assert any(r.law == "table-shape" for r in report.failures())


def test_compose_joint_must_agree():
    from gradefj.grades import ComposeHom, GradeError, IotaHom, ZetaHom
    with pytest.raises(GradeError):
        ComposeHom(ZetaHom(AFFINITY), IotaHom(PRIVACY))  # Triv is not Nat
    ok = ComposeHom(IotaHom(AFFINITY), ZetaHom(AFFINITY))
    assert ok.apply(Nat(2)) == Triv()


def test_composed_maps_check_their_argument_once(monkeypatch):
    from gradefj.grades import ComposeHom
    identity = FiniteMapHom(AFFINITY, AFFINITY, {n: AFF(n) for n in ("0", "1", "w")})
    chain = identity
    for _ in range(5):
        chain = ComposeHom(identity, chain)
    checked = Counter()
    original = FiniteAlgebra.check_value

    def counted(self, a):
        checked[a] += 1
        return original(self, a)

    monkeypatch.setattr(FiniteAlgebra, "check_value", counted)
    assert chain.apply(AFF("w")) == AFF("w")
    assert checked == Counter({AFF("w"): 1})
    # an argument off the source carrier is refused as by the first map alone
    for h in (identity, chain):
        with pytest.raises(CarrierMismatch, match="^2 is not a value of table:affinity$"):
            h.apply(Nat(2))
