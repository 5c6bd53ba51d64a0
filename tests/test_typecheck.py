"""Checker behavior: contexts, elaboration, checking ascribed terms, tables."""

import cProfile
import pathlib
import pstats

import pytest

from gradefj.grades import FiniteElem, Nat
from gradefj.hetero import KindedGrade, ONE_D, ZERO_D
from gradefj.syntax import (
    GradedType,
    New,
    Var,
    erase,
    parse_expr,
    parse_program,
)
from gradefj.typecheck import (
    CheckError,
    annotate_expr,
    check,
    check_configuration,
    check_method,
    check_table,
    ctx_add,
    ctx_leq,
    elaborate_program,
    infer_class,
)
from derivation_search import enumerate_contexts

AFF = lambda n: KindedGrade("A", FiniteElem(n, "affinity"))
PRIV = lambda n: KindedGrade("P", FiniteElem(n, "privacy2"))
N = lambda n: KindedGrade("N", Nat(n))


# ---------------------------------------------------------------------------
# coeffect-context operations

def test_ctx_add_pointwise(universe):
    got = ctx_add(universe, {"x": ("A", N(1))}, {"x": ("A", N(1))})
    assert got == {"x": ("A", N(2))}


def test_ctx_leq_missing_is_zero(universe):
    assert ctx_leq(universe, {}, {"x": ("A", N(3))})
    assert not ctx_leq(universe, {"x": ("A", N(3))}, {})
    assert ctx_leq(universe, {"x": ("A", N(1))}, {"x": ("A", AFF("w"))})


def test_ctx_add_requires_same_class(universe):
    with pytest.raises(CheckError) as exc:
        ctx_add(universe, {"x": ("A", N(1))}, {"x": ("B", N(1))})
    assert exc.value.diag.kind == "TypeMismatch"


# ---------------------------------------------------------------------------
# checking source expressions

GETTERS = """
class A { }
class Pair { A[A:1] first; A[A:1] second;
  A[A:0] getFirstZero() [A:1] { this.first }
  A[A:1] getFirstAffine() [A:1] { this.first }
  A[A:w] getFirst() [A:1] { new A() }
}
run new A() at 1
"""


@pytest.fixture(scope="module")
def getters_table(universe):
    table = parse_program(GETTERS, universe).table
    assert not check_table(universe, table)
    return table


def test_check_block3_context_and_elaboration(universe, getters_table):
    e = parse_expr("{A[A:w] a = p.getFirst(); new Pair(a, a)}", universe)
    result = check(universe, getters_table, {"p": "Pair"}, e,
                   GradedType("Pair", AFF("1")))
    assert result.ctx == {"p": ("Pair", AFF("1"))}
    assert result.elaborated.init.ascription == AFF("w")
    assert erase(result.elaborated) == e


def test_check_block4_rejected_usage(universe, getters_table):
    e = parse_expr("{A[A:1] a = p.getFirst(); new Pair(a, a)}", universe)
    with pytest.raises(CheckError) as exc:
        check(universe, getters_table, {"p": "Pair"}, e, GradedType("Pair", AFF("1")))
    assert exc.value.diag.rule == "t-var"
    assert exc.value.diag.kind in ("GradeTooDemanding", "DiscardedVariable")


def test_check_var_against_public_from_private(universe):
    # a variable obtainable only at private cannot be read at public
    table = parse_program("class A { }\nrun new A() at 1", universe).table
    e = parse_expr("{A[P:private] y = new A(); {A[P:public] x = y; x}}", universe)
    with pytest.raises(CheckError) as exc:
        check(universe, table, {}, e, GradedType("A", PRIV("public")))
    assert exc.value.diag.rule == "t-var"


def test_check_public_pair_from_public_var(universe):
    table = parse_program(
        "class A { }\nclass B { A[P:public] f1; A[P:private] f2; }\n"
        "run new A() at 1", universe).table
    e = parse_expr("{A[P:public] x = new A(); new B(x, x)}", universe)
    result = check(universe, table, {}, e, GradedType("B", PRIV("public")))
    assert result.ctx == {}


def test_check_unknown_variable(universe, getters_table):
    with pytest.raises(CheckError) as exc:
        check(universe, getters_table, {}, parse_expr("nope", universe),
              GradedType("A", N(1)))
    assert exc.value.diag.kind == "UnknownVariable"


def test_check_ascription_needed(universe):
    # default receiver grade cannot cover the expected grade
    table = parse_program(
        "class A { }\nclass C { A[N:1] f; }\nrun new A() at 1", universe).table
    e = parse_expr("c.f", universe)
    with pytest.raises(CheckError) as exc:
        check(universe, table, {"c": "C"}, e, GradedType("A", N(2)))
    assert exc.value.diag.kind == "AscriptionNeeded"
    ok = check(universe, table, {"c": "C"},
               parse_expr("(c @ 2).f", universe), GradedType("A", N(2)))
    assert ok.ctx == {"c": ("C", N(2))}


def test_zero_expectation_consumes_unit(universe, getters_table):
    # checking a variable against grade <N,0> still burns the canonical unit
    e = parse_expr("x", universe)
    result = check(universe, getters_table, {"x": "A"}, e, GradedType("A", ZERO_D))
    assert result.ctx == {"x": ("A", ONE_D)}


def test_infer_class(universe, getters_table):
    env = {"p": "Pair"}
    assert infer_class(getters_table, env, parse_expr("p.first", universe)) == "A"
    assert infer_class(getters_table, env, parse_expr("p.getFirst()", universe)) == "A"
    assert infer_class(getters_table, env,
                       parse_expr("{Pair[1] q = p; q}", universe)) == "Pair"


def test_block_scopes_give_back_the_callers_env(universe, getters_table):
    # a block binds its variable in the walk's env and puts back what it
    # shadowed, on return and when a diagnostic ends the walk
    shadowing = parse_expr("{Pair[1] p = new Pair(new A(), new A()); p.first}", universe)
    failing = parse_expr("{Pair[1] q = p; q.nope()}", universe)
    for walk in (lambda env, e: infer_class(getters_table, env, e),
                 lambda env, e: check(universe, getters_table, env, e, GradedType("A", ONE_D)),
                 lambda env, e: annotate_expr(universe, getters_table, env, e)):
        env = {"p": "A"}
        walk(env, shadowing)
        assert env == {"p": "A"}
        env = {"p": "Pair"}
        with pytest.raises(CheckError):
            walk(env, failing)
        assert env == {"p": "Pair"}


# ---------------------------------------------------------------------------
# checking fully ascribed terms (elaboration is idempotent)

def test_prop41_roundtrip_on_corpus(corpus):
    # re-checking an elaboration gives the same context and the same tree
    for entry in corpus:
        if entry.manifest["expect"] != "accept":
            continue
        u, program = entry.universe, entry.program
        diags, checked = elaborate_program(u, program)
        if diags:
            continue
        again = check(u, program.table, {}, checked.main, checked.type)
        assert again.ctx == checked.ctx, entry.name
        assert again.elaborated is checked.main, entry.name
        assert erase(checked.main) == erase(program.main), entry.name


def test_check_annotated_closed_value(universe, getters_table):
    value = New("A", ())
    result = check(universe, getters_table, {}, value, GradedType("A", N(2)))
    assert result.ctx == {}


def test_check_annotated_rejects_bad_ctor_annotation(universe, getters_table):
    bad = parse_expr("new Pair(new A() @ 2, new A() @ A:1)", universe)
    with pytest.raises(CheckError) as exc:
        check(universe, getters_table, {}, bad, GradedType("Pair", N(1)))
    assert exc.value.diag.kind == "AnnotationMismatch"


def test_check_annotated_rejects_bad_invk_annotation(universe, getters_table):
    e = parse_expr("{Pair[A:1] p = new Pair(new A(), new A()); p.getFirst()}",
                   universe)
    result = check(universe, getters_table, {}, e, GradedType("A", AFF("w")))
    wrong = result.elaborated.body
    assert wrong.recv.ascription == AFF("1")
    from dataclasses import replace
    hacked = replace(result.elaborated,
                     body=replace(wrong, recv=replace(wrong.recv, ascription=AFF("w"))))
    with pytest.raises(CheckError) as exc:
        check(universe, getters_table, {}, hacked, GradedType("A", AFF("w")))
    assert exc.value.diag.kind == "AnnotationMismatch"


# ---------------------------------------------------------------------------
# methods and tables

def test_check_method_examples(universe, getters_table):
    assert check_method(universe, getters_table, "Pair", "getFirstAffine")[0] == []
    assert check_method(universe, getters_table, "Pair", "getFirst")[0] == []


def test_check_method_zero_this_fails(universe):
    src = GETTERS.replace("A[A:1] getFirstAffine() [A:1]",
                          "A[A:1] getFirstAffine() [A:0]")
    table = parse_program(src, universe).table
    diags, _ = check_method(universe, table, "Pair", "getFirstAffine")
    assert diags and diags[0].kind == "GradeTooDemanding"


def test_check_table_override_grade_change(universe):
    src = ("class A { }\nclass Maker { A[N:1] id(A[N:1] x) [N:1] { x } }\n"
           "class Bad extends Maker { A[N:1] id(A[N:2] x) [N:1] { x } }\n"
           "run new A() at 1")
    table = parse_program(src, universe).table
    diags = check_table(universe, table)
    assert any(d.kind == "Coherence" for d in diags)


def test_check_table_cycle(universe):
    # one diagnostic per class whose chain loops or reaches an undeclared class
    src = ("class X extends Y { }\nclass Y extends X { }\nclass Z extends X { }\n"
           "class W extends Missing { }\nclass V extends W { }\nrun new X() at 1")
    table = parse_program(src, universe).table
    assert [(d.kind, d.msg, d.pos) for d in check_table(universe, table)] == [
        ("CycleDetected", "inheritance cycle through X", (1, 1)),
        ("CycleDetected", "inheritance cycle through Y", (2, 1)),
        ("CycleDetected", "inheritance cycle through Z", (3, 1)),
        ("UnknownClass", "class W extends unknown Missing", (4, 1)),
        ("UnknownClass", "class V extends unknown Missing", (5, 1))]


def test_check_table_shadowed_field(universe):
    src = ("class A { }\nclass Base { A[1] x; A[1] y; }\n"
           "class Sub extends Base { A[1] x; A[1] z; A[1] y; }\n"
           "class Leaf extends Sub { A[1] z; }\nrun new A() at 1")
    table = parse_program(src, universe).table
    assert [(d.kind, d.msg) for d in check_table(universe, table)] == [
        ("Coherence", "class Sub redeclares inherited fields ['x', 'y']"),
        ("Coherence", "class Leaf redeclares inherited fields ['x', 'y', 'z']")]


# ---------------------------------------------------------------------------
# configurations

def test_check_configuration_initial_and_midtrace(corpus_by_name):
    from gradefj.runtime import GradedConfig, Minimal, graded_run
    entry = corpus_by_name["two_blocks_nat"]
    u, program = entry.universe, entry.program
    _, checked = elaborate_program(u, program)
    expected = GradedType("Pair", program.mainGrade)
    check_configuration(u, program.table, checked.main, {}, expected)
    run = graded_run(u, checked.table, GradedConfig(checked.main),
                     program.mainGrade, Minimal(), want_trace=True)
    mid = run.trace[4].config  # after four steps: a at 0, p at 2
    env = mid.env
    assert str(env["a"][1]) == "0" and str(env["p"][1]) == "2"
    check_configuration(u, program.table, mid.expr, env, expected)


def test_check_configuration_rejects_unjustified_value(universe, getters_table):
    bad_value = parse_expr("new Pair(new A() @ 2, new A() @ A:1)", universe)
    with pytest.raises(CheckError):
        check_configuration(universe, getters_table, New("A", ()),
                            {"x": (bad_value, N(1))}, GradedType("A", N(1)))


def test_check_configuration_rejects_open_value(universe, getters_table):
    with pytest.raises(CheckError) as exc:
        check_configuration(universe, getters_table, New("A", ()),
                            {"x": (Var("y"), N(1))}, GradedType("A", N(1)))
    assert exc.value.diag.kind in ("OpenValue", "AnnotationMismatch")


def test_weakening_soundness(universe, getters_table):
    # check succeeded with Delta; any env typed at pointwise-larger grades works
    from gradefj.grades import Triv
    e = parse_expr("new Pair(x, x)", universe)
    result = check(universe, getters_table, {"x": "A"}, e, GradedType("Pair", N(1)))
    assert result.ctx == {"x": ("A", AFF("w"))}  # 1+1 saturates in affinity
    for bigger in (AFF("w"), KindedGrade("T", Triv())):
        check_configuration(universe, getters_table, result.elaborated,
                            {"x": (New("A", ()), bigger)},
                            GradedType("Pair", N(1)))


def test_canonical_forms_on_corpus(corpus):
    # every accepted final value is a constructor of a subclass of the
    # checked class, with value arguments
    from gradefj.runtime import GradedConfig, Minimal, graded_run
    from gradefj.syntax import is_value
    for entry in corpus:
        if entry.manifest.get("run", {}).get("outcome") != "final":
            continue
        u, program = entry.universe, entry.program
        _, checked = elaborate_program(u, program)
        run = graded_run(u, checked.table, GradedConfig(checked.main),
                         program.mainGrade, Minimal())
        value = run.config.expr
        assert is_value(value)
        assert isinstance(value, New)
        assert program.table.subclass_of(value.className, checked.type.className), entry.name


# ---------------------------------------------------------------------------
# minimality against bounded derivation search

def test_minimal_context_against_enumeration(universe, getters_table):
    pool = ([N(k) for k in range(4)]
            + [AFF(n) for n in ("0", "1", "w")]
            + [KindedGrade("T", __import__("gradefj.grades", fromlist=["Triv"]).Triv())])
    cases = [
        ("x", {"x": "A"}, GradedType("A", AFF("1"))),
        ("new Pair(x, x)", {"x": "A"}, GradedType("Pair", N(1))),
        ("{A[A:1] a = x; new Pair(a, y)}", {"x": "A", "y": "A"},
         GradedType("Pair", AFF("1"))),
        ("p.getFirstAffine()", {"p": "Pair"}, GradedType("A", AFF("1"))),
        ("p.first", {"p": "Pair"}, GradedType("A", AFF("1"))),
    ]
    for src, env, expected in cases:
        e = parse_expr(src, universe)
        ours = check(universe, getters_table, env, e, expected).ctx
        every = enumerate_contexts(universe, getters_table, env, e, expected, pool)
        assert every, src
        for other in every:
            assert ctx_leq(universe, ours, other), (src, ours, other)


def test_annotate_expr_defaults(universe, getters_table):
    e = parse_expr("{Pair[2] q = new Pair(x, x); q.first}", universe)
    ann = annotate_expr(universe, getters_table, {"x": "A"}, e)
    assert ann.init.ascription == N(2)
    assert tuple(a.ascription for a in ann.init.args) == (AFF("1"), AFF("1"))
    assert ann.body.recv.ascription == ONE_D
    assert erase(ann) == e


# ---------------------------------------------------------------------------
# cost of the typing walk

PROGRAMS = pathlib.Path(__file__).parent / "programs"


def _walker_calls(universe, name) -> dict:
    """Calls of the checker's walkers while ``name`` is checked: class
    synthesis and the typing walk, counted by a profiler, which adds no frame
    to the recursion."""
    program = parse_program((PROGRAMS / name).read_text(), universe)
    profile = cProfile.Profile()
    profile.enable()
    diags, _ = elaborate_program(universe, program)
    profile.disable()
    assert diags == []
    return {fn: calls for (path, _, fn), (_, calls, *_) in pstats.Stats(profile).stats.items()
            if path.endswith("typecheck.py") and fn in ("infer_class", "check", "_check")}


def test_receiver_chains_type_in_linear_work(universe):
    # each receiver's class is synthesised once, not once per call above it
    # (n*n/2 synthesis calls: 20,301 at 200 calls and 80,601 at 400)
    short = _walker_calls(universe, "receiver_chain200.gfj")
    long = _walker_calls(universe, "receiver_chain400.gfj")
    assert "infer_class" in short
    assert sum(long.values()) <= 2.05 * sum(short.values()), (short, long)
    assert long["infer_class"] <= 2 * 400 + 2, long
