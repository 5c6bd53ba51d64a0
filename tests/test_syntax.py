"""Parser, printer, class table, graded subtyping, erasure."""

import dataclasses
import random
import sys

import pytest

from gradefj.grades import FiniteElem, Nat
from gradefj.hetero import GradeUniverse, KindedGrade
from gradefj.syntax import (
    Block,
    FieldAccess,
    GradedType,
    Invk,
    OBJECT,
    New,
    Program,
    SyntaxErrorGFJ,
    UnknownClass,
    UnknownMember,
    Var,
    erase,
    format_expr,
    free_vars,
    gtype_leq,
    is_value,
    parse_expr,
    parse_program,
    subst,
    with_ascription,
)
from gradefj.typecheck import elaborate_program

AFF = lambda n: KindedGrade("A", FiniteElem(n, "affinity"))
N = lambda n: KindedGrade("N", Nat(n))


def format_program(p: Program) -> str:
    """The source text of ``p``, for the round trip through the parser."""
    lines = []
    for decl in p.table.classes.values():
        ext = f" extends {decl.superName}" if decl.superName != OBJECT else ""
        lines.append(f"class {decl.name}{ext} {{")
        for fd in decl.fields:
            lines.append(f"  {fd.className}[{fd.grade}] {fd.name};")
        for m in decl.methods.values():
            params = ", ".join(f"{q.className}[{q.grade}] {q.name}" for q in m.params)
            lines.append(f"  {m.returnType.className}[{m.returnType.grade}] "
                         f"{m.name}({params}) [{m.thisGrade}] {{ {format_expr(m.body)} }}")
        lines.append("}")
    lines.append(f"run {format_expr(p.main)} at {p.mainGrade}")
    return "\n".join(lines) + "\n"

PAIR_SRC = """
class Pair { A[N:1] first; A[N:1] second; }
class A { }
run {A[N:4] a = new A(); new Pair(a, a)} at N:1
"""


def test_parse_fields_graded(universe):
    prog = parse_program(PAIR_SRC, universe)
    flds = prog.table.fields("Pair")
    assert [(f.className, f.grade, f.name) for f in flds] == [
        ("A", N(1), "first"), ("A", N(1), "second")]


def test_parse_run_grade(universe):
    prog = parse_program(PAIR_SRC, universe)
    assert prog.mainGrade == N(1)
    assert isinstance(prog.main, Block)


def test_parse_ascription(universe):
    e = parse_expr("x @ P:private .first", universe)
    assert isinstance(e, FieldAccess)
    assert e.recv.ascription == KindedGrade("P", FiniteElem("private", "privacy2"))
    # an ascription after the access binds to the access itself
    e2 = parse_expr("x.first @ 2", universe)
    assert e2.ascription == N(2)
    assert e2.recv.ascription is None


def test_parse_errors_carry_position(universe):
    with pytest.raises(SyntaxErrorGFJ) as exc:
        parse_program("class A { }\nrun new A( at 1", universe)
    assert exc.value.line == 2
    with pytest.raises(SyntaxErrorGFJ):
        parse_program("class A { }\nrun x at Q:3", universe)  # unknown kind
    with pytest.raises(SyntaxErrorGFJ):
        parse_program("class A { }\nrun x at A:9", universe)  # bad element


def test_grade_literal_errors_other_than_bad_input_propagate(monkeypatch, universe):
    # only a grade error or a bad payload is the literal's fault
    def too_deep(self, text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(GradeUniverse, "parse_grade", too_deep)
    with pytest.raises(RecursionError, match="^maximum recursion depth exceeded$"):
        parse_program("class A { }\nrun new A() at A:1", universe)


def _error_at(src, universe):
    with pytest.raises(SyntaxErrorGFJ) as exc:
        parse_program(src, universe)
    return exc.value.msg, exc.value.line, exc.value.col


# each error points at the offending token, not at the token after it
def test_this_reserved(universe):
    assert _error_at("class A { }\nrun {A[1] this = new A(); this} at 1", universe) == (
        "'this' is reserved", 2, 11)
    assert _error_at("class A { A[1] this; }\nrun new A() at 1", universe) == (
        "'this' is reserved", 1, 16)


def test_duplicate_class_rejected(universe):
    assert _error_at("class A { }\nclass A { }\nrun new A() at 1", universe) == (
        "duplicate class A", 2, 1)
    assert _error_at("class Object { }\nrun new A() at 1", universe) == (
        "duplicate class Object", 1, 1)


def test_duplicate_method_rejected(universe):
    # FJ method names are distinct within a class; the second one is refused
    src = ("class A { }\nclass B { A[1] m() [1] { new A() } A[2] m() [1] { new A() } }\n"
           "run new A() at 1")
    assert _error_at(src, universe) == ("duplicate method B.m", 2, 41)
    # a field may share a method's name, and a subclass may override
    parse_program("class A { }\nclass B { A[1] m; A[1] m() [1] { new A() } }\n"
                  "class C extends B { A[1] m() [1] { new A() } }\nrun new A() at 1",
                  universe)


def test_bad_parameter_name_position(universe):
    src = "class A { }\nclass B { A[1] m(A[1] x, A[1] x) [1] { x } }\nrun new A() at 1"
    assert _error_at(src, universe) == ("bad parameter name 'x'", 2, 31)
    src = "class A { }\nclass B { A[1] m(A[1] this) [1] { this } }\nrun new A() at 1"
    assert _error_at(src, universe) == ("bad parameter name 'this'", 2, 23)


def test_field_declarations_carry_their_position(universe):
    table = parse_program("class A { }\nclass P {\n  A[1] first; A[1] second; }\n"
                          "run new A() at 1", universe).table
    assert [f.pos for f in table.fields("P")] == [(3, 8), (3, 20)]


def test_format_parse_roundtrip_corpus(corpus):
    for entry in corpus:
        printed = format_program(entry.program)
        reparsed = parse_program(printed, entry.universe)
        assert reparsed.main == entry.program.main, entry.name
        assert reparsed.mainGrade == entry.program.mainGrade
        assert reparsed.table.classes == entry.program.table.classes


# ---------------------------------------------------------------------------
# class table lookups

GETTERS = """
class A { }
class Pair { A[A:1] first; A[A:1] second;
  A[A:w] getFirst() [A:1] { new A() }
}
run new A() at 1
"""


def test_fields_mtype_mbody(universe):
    table = parse_program(GETTERS, universe).table
    assert [f.name for f in table.fields("Pair")] == ["first", "second"]
    mt = table.mtype("Pair", "getFirst")
    assert mt.thisGrade == AFF("1")
    assert mt.params == ()
    assert mt.returnType == GradedType("A", AFF("w"))
    params, body = table.mbody("Pair", "getFirst")
    assert params == () and isinstance(body, New)
    with pytest.raises(UnknownMember):
        table.mbody("Pair", "missing")
    with pytest.raises(UnknownClass):
        table.fields("Nope")


def test_inherited_fields_prefix(universe):
    src = ("class A { }\nclass Base { A[1] x; }\n"
           "class Mid extends Base { A[1] y; }\n"
           "class Leaf extends Mid { A[1] z; }\nrun new A() at 1")
    table = parse_program(src, universe).table
    names = [f.name for f in table.fields("Leaf")]
    assert names == ["x", "y", "z"]
    # fields of a superclass are a prefix of every subclass's fields
    for sub, sup in [("Leaf", "Mid"), ("Leaf", "Base"), ("Mid", "Base")]:
        sub_f = [f.name for f in table.fields(sub)]
        sup_f = [f.name for f in table.fields(sup)]
        assert sub_f[:len(sup_f)] == sup_f


class InheritanceWalk:
    """The lookups as walks up the superclass chain on every query: the
    reference the resolved class table is held to."""

    def __init__(self, classes):
        self.classes = classes

    def decl(self, name):
        if name == OBJECT or name not in self.classes:
            raise UnknownClass(f"unknown class {name!r}")
        return self.classes[name]

    def subclass_of(self, sub, sup):
        for name in (sub, sup):
            if name != OBJECT and name not in self.classes:
                raise UnknownClass(f"unknown class {name!r}")
        cur = sub
        while cur is not None:
            if cur == sup:
                return True
            cur = None if cur == OBJECT else self.decl(cur).superName
        return False

    def fields(self, name):
        if name == OBJECT:
            return ()
        decl = self.decl(name)
        return self.fields(decl.superName) + decl.fields

    def field_index(self, name, fieldName):
        for i, fd in enumerate(self.fields(name)):
            if fd.name == fieldName:
                return i
        raise UnknownMember(f"class {name} has no field {fieldName!r}")

    def field(self, name, fieldName):
        return self.fields(name)[self.field_index(name, fieldName)]

    def mtype(self, name, method):
        cur = name
        while cur != OBJECT:
            decl = self.decl(cur)
            if method in decl.methods:
                return decl.methods[method]
            cur = decl.superName
        raise UnknownMember(f"class {name} has no method {method!r}")

    def mbody(self, name, method):
        decl = self.mtype(name, method)
        return tuple(p.name for p in decl.params), decl.body


def _outcome(lookup, *args):
    try:
        out = lookup(*args)
    except (UnknownClass, UnknownMember) as exc:
        return type(exc).__name__, str(exc)
    if hasattr(out, "returnType"):   # a method: its signature, wherever declared
        return out.thisGrade, out.params, out.returnType, out.body
    return out


def _seeded_table_source(seed: int) -> str:
    """Classes up to 4 deep, with overridden methods, a field name declared
    again below (first occurrence wins) and a class below an undeclared one."""
    rng = random.Random(seed)
    lines, by_depth = ["class A { }"], {}
    for i in range(16):
        depth, name = i % 5, f"C{i}"
        parent = rng.choice(by_depth[depth - 1]) if depth else None
        by_depth.setdefault(depth, []).append(name)
        members = [f"A[{rng.randint(1, 3)}] f{rng.randint(0, 5)};",
                   f"A[1] m{rng.randint(0, 3)}() [{rng.randint(1, 2)}] {{ new A() }}",
                   f"A[1] k{i}(A[1] x) [1] {{ x }}"]
        ext = f" extends {parent}" if parent else ""
        lines.append(f"class {name}{ext} {{ {' '.join(members)} }}")
    lines.append("class Lost extends Missing { A[1] m0() [1] { new A() } A[1] g; }")
    lines.append("class Below extends Lost { A[1] m1() [1] { new A() } }")
    return "\n".join(lines) + "\nrun new A() at 1"


def test_resolved_table_matches_the_inheritance_walk(universe, corpus):
    programs = [entry.program for entry in corpus]
    programs += [parse_program(_seeded_table_source(seed), universe) for seed in (1, 2)]
    # 4 deep: a class, its 4 superclasses and Object
    assert max(len(programs[-1].table.resolve(n).ancestors)
               for n in programs[-1].table.classes if n not in ("Lost", "Below")) == 6
    for program in programs:
        table, walk = program.table, InheritanceWalk(program.table.classes)
        names = [*table.classes, OBJECT, "Nope", "Missing"]
        field_names = {f.name for d in table.classes.values() for f in d.fields} | {"nope"}
        method_names = {m for d in table.classes.values() for m in d.methods} | {"nope"}
        for name in names:
            assert _outcome(table.fields, name) == _outcome(walk.fields, name), name
            for sup in names:
                assert (_outcome(table.subclass_of, name, sup)
                        == _outcome(walk.subclass_of, name, sup)), (name, sup)
            for f in field_names:
                for lookup in ("field", "field_index"):
                    assert (_outcome(getattr(table, lookup), name, f)
                            == _outcome(getattr(walk, lookup), name, f)), (lookup, name, f)
            for m in method_names:
                for lookup in ("mtype", "mbody"):
                    assert (_outcome(getattr(table, lookup), name, m)
                            == _outcome(getattr(walk, lookup), name, m)), (lookup, name, m)


# ---------------------------------------------------------------------------
# graded subtyping

def test_gtype_leq_contravariant(universe):
    table = parse_program(GETTERS, universe).table
    assert gtype_leq(universe, table, GradedType("A", AFF("w")), GradedType("A", AFF("1")))
    assert not gtype_leq(universe, table, GradedType("A", AFF("1")), GradedType("A", AFF("w")))
    assert gtype_leq(universe, table, GradedType("A", AFF("1")), GradedType("A", AFF("1")))


def test_gtype_leq_classes(universe):
    src = "class A { }\nclass B extends A { }\nrun new B() at 1"
    table = parse_program(src, universe).table
    assert gtype_leq(universe, table, GradedType("B", N(1)), GradedType("A", N(1)))
    assert not gtype_leq(universe, table, GradedType("A", N(1)), GradedType("B", N(1)))


# ---------------------------------------------------------------------------
# erasure / substitution

def test_erase_structural(universe):
    prog = parse_program(PAIR_SRC, universe)
    _, checked = elaborate_program(universe, prog)
    assert erase(checked.main) == prog.main


def test_erase_elaborate_identity_on_corpus(corpus):
    for entry in corpus:
        if entry.manifest["expect"] != "accept":
            continue
        diags, checked = elaborate_program(entry.universe, entry.program)
        if diags:
            continue
        assert erase(checked.main) == erase(entry.program.main), entry.name


def test_subst_stops_at_shadow(universe):
    e = parse_expr("{A[1] x = x; new Pair(x, y)}", universe)
    out = subst(e, {"x": "z", "y": "w"})
    assert out.init == Var("z")           # free occurrence renamed
    body = out.body
    assert body.args[0] == Var("x")       # bound occurrence untouched
    assert body.args[1] == Var("w")


def test_free_vars(universe):
    e = parse_expr("{A[1] x = y; new Pair(x, z)}", universe)
    assert free_vars(e) == {"y", "z"}


def test_is_source_value(universe):
    assert is_value(parse_expr("new Pair(new A(), new A())", universe))
    assert is_value(parse_expr("new Pair(new A() @ 2, new A())", universe))
    assert not is_value(parse_expr("new Pair(x, new A())", universe))


def _recursive_is_value(e):
    # the definition the New value flag replaces
    return isinstance(e, New) and all(_recursive_is_value(a) for a in e.args)


def _subterms(e):
    stack = [e]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, (FieldAccess, Invk)):
            stack.append(t.recv)
        if isinstance(t, (New, Invk)):
            stack.extend(t.args)
        if isinstance(t, Block):
            stack.extend((t.init, t.body))


def test_value_flag_matches_recursive_definition(corpus):
    from gradefj.runtime import GradedConfig, graded_run
    roots = []
    for entry in corpus:
        program = entry.program
        tables = [program.table]
        roots.append(program.main)
        diags, checked = elaborate_program(entry.universe, program)
        if not diags:
            tables.append(checked.table)
            run = graded_run(entry.universe, checked.table, GradedConfig(checked.main),
                             program.mainGrade, fuel=200, want_trace=True)
            for t in run.trace:
                roots.append(t.config.expr)
                roots.extend(v for v, _ in t.config.env.values())
        roots.extend(md.body for table in tables for decl in table.classes.values()
                     for md in decl.methods.values())
    terms = [t for root in roots for t in _subterms(root)]
    values = [t for t in terms if _recursive_is_value(t)]
    assert values and len(values) < len(terms)
    for t in terms:
        variants = [t, with_ascription(t, N(7)), with_ascription(t, None),
                    subst(t, {"x": "y", "this": "z"}), erase(t), dataclasses.replace(t)]
        if isinstance(t, New) and t.args:
            variants.append(dataclasses.replace(t, args=(Var("x"),) + t.args[1:]))
            variants.append(dataclasses.replace(t, args=tuple(New("A", ()) for _ in t.args)))
        for v in variants:
            assert is_value(v) == _recursive_is_value(v), v


def test_value_flag_is_not_compared(universe):
    v = parse_expr("new Pair(new A(), new A())", universe)
    assert v.is_value and "is_value" not in repr(v)
    assert "is_value" not in [f.name for f in dataclasses.fields(New)]
    assert with_ascription(v, N(2)).is_value


def test_format_expr_ascription_roundtrip(universe):
    e = parse_expr("(p @ 2).first @ 2", universe)
    assert parse_expr(format_expr(e), universe) == e


def test_gtype_leq_is_a_preorder(universe):
    src = "class A { }\nclass B extends A { }\nrun new B() at 1"
    table = parse_program(src, universe).table
    types = [GradedType(c, g) for c in ("A", "B")
             for g in (N(0), N(1), N(2), AFF("1"), AFF("w"))]
    for t in types:
        assert gtype_leq(universe, table, t, t)
    for t1 in types:
        for t2 in types:
            for t3 in types:
                if gtype_leq(universe, table, t1, t2) and gtype_leq(universe, table, t2, t3):
                    assert gtype_leq(universe, table, t1, t3)
    # antisymmetry within a single kind
    for t1 in types:
        for t2 in types:
            if t1.grade.kind == t2.grade.kind:
                if gtype_leq(universe, table, t1, t2) and gtype_leq(universe, table, t2, t1):
                    assert t1 == t2


def test_nesting_within_the_default_recursion_limit_parses(universe):
    # two parser frames per constructor level and one per call argument, so
    # these parse under Python's default limit of 1000 frames
    assert sys.getrecursionlimit() >= 1000
    deep_new = "class A { A[1] f; }\nrun " + "new A(" * 400 + "x" + ")" * 400 + " at 1"
    assert isinstance(parse_program(deep_new, universe).main, New)
    deep_call = "class A { }\nrun x" + ".m(x" * 700 + ")" * 700 + " at 1"
    assert isinstance(parse_program(deep_call, universe).main, Invk)
