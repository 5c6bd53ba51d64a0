"""Standard and instrumented reduction: steps, runs, policies, properties."""

import dataclasses
import pathlib
import random
from collections import Counter

import pytest

from gradefj.grades import FiniteElem, Nat
from gradefj.hetero import KindedGrade, ONE_D, default_universe
from gradefj.syntax import (
    FieldAccess,
    GradedType,
    New,
    Var,
    erase_table,
    parse_expr,
    parse_program,
)
from gradefj.runtime import (
    Env,
    Enumerate,
    FieldExtraction,
    FixedWitness,
    GradedConfig,
    Minimal,
    NoSuchMember,
    ResourceExhausted,
    RunResult,
    StdConfig,
    StdStuck,
    TraceEntry,
    graded_config_step,
    graded_run,
    std_run,
    std_step,
)
from gradefj.typecheck import annotate_program, elaborate_program
from gradefj.props import check_step
from conftest import erase_config

N = lambda n: KindedGrade("N", Nat(n))
PRIV = lambda n: KindedGrade("P", FiniteElem(n, "privacy2"))

PAIR_SRC = """
class A { }
class Pair { A[1] first; A[1] second; }
run {A[4] a = new A(); {Pair[2] p = new Pair(a, a); new Pair(p.first, p.second)}} at 1
"""


@pytest.fixture(scope="module")
def two_block(universe):
    program = parse_program(PAIR_SRC, universe)
    _, checked = elaborate_program(universe, program)
    return program, checked.main, checked.table


def unchecked(universe, src):
    program = parse_program(src, universe)
    _, annotated = annotate_program(universe, program)
    return program, annotated.main, annotated.table


# ---------------------------------------------------------------------------
# standard reduction

def test_std_block_and_field_access(universe, two_block):
    program, _, _ = two_block
    cfg = StdConfig(program.main)
    cfg = std_step(program.table, cfg)
    assert "a" in cfg.env
    outcome, final, steps = std_run(program.table, StdConfig(program.main))
    assert outcome == "final" and steps == 8
    assert final.expr == parse_expr("new Pair(new A(), new A())", universe)


def test_std_unbound_var_stuck(universe, two_block):
    program, _, _ = two_block
    with pytest.raises(StdStuck):
        std_step(program.table, StdConfig(parse_expr("x", universe)))


# ---------------------------------------------------------------------------
# instrumented reduction

def test_two_block_trace_grades(universe, two_block):
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     want_trace=True)
    assert run.outcome == "final" and run.steps == 8
    assert len(run.trace) == 9
    a_grades = [str(t.config.env["a"][1]) for t in run.trace
                if "a" in t.config.env]
    assert a_grades == ["4", "2", "0", "0", "0", "0", "0", "0"]
    p_grades = [str(t.config.env["p"][1]) for t in run.trace
                if "p" in t.config.env]
    assert p_grades == ["2", "1", "1", "0", "0"]
    assert run.final_env_grades() == {"a": "0", "p": "0"}


def test_graded_step_consumes_two(universe, two_block):
    # the inner initializer runs at grade 2, so each use of `a` burns 2
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     want_trace=True)
    step2 = run.trace[2]
    assert step2.info.rule == "var" and step2.info.var == "a"
    assert step2.info.consumed == N(2)
    assert str(step2.config.env["a"][1]) == "2"


def test_determinism_of_minimal(universe, two_block):
    program, main, ann = two_block
    r1 = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                    want_trace=True)
    r2 = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                    want_trace=True)
    assert [t.config for t in r1.trace] == [t.config for t in r2.trace]


def test_fresh_name_hygiene(universe):
    assert Env({"y": 0}.items()).fresh("x") == "x"
    assert Env({"x": 0}.items()).fresh("x") == "x$0"
    assert Env({"x": 0, "x$0": 0}.items()).fresh("x") == "x$1"
    src = "class A { }\nrun {A[1] x = new A(); {A[1] x = x; x}} at 1\n"
    program, main, ann = unchecked(universe, src)
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     want_trace=True)
    assert run.outcome == "final"
    assert list(run.final_env_grades()) == ["x", "x$0"]
    # domains only grow, never rebind
    seen = set()
    for t in run.trace:
        dom = set(t.config.env)
        assert seen <= dom
        seen = dom


def _scan_from_zero(env, base):
    name, k = base, 0
    while name in env:
        name, k = f"{base}${k}", k + 1
    return name


def test_indexed_fresh_name_agrees_with_scan_from_zero():
    # versions built by fresh + set, branching from older ones as search
    # does, so that rerooting both adds and removes keys
    rng = random.Random(11)
    for _ in range(20):
        versions = [Env()]
        for _ in range(300):
            env = rng.choice(versions[-5:] if rng.random() < 0.7 else versions)
            if env and rng.random() < 0.2:
                key = rng.choice(env.keys())  # rebinding keeps the domain
            else:
                key = env.fresh(rng.choice("abc"))
            versions.append(env.set(key, rng.randrange(3)))
        for env in rng.sample(versions, 50) + versions[-5:]:
            for base in "abcd":
                assert env.fresh(base) == _scan_from_zero(env, base)


def test_erasure_counts_fresh_indices_from_the_environment():
    a = (New("A", ()), N(1))
    cfg = GradedConfig(Var("x"), Env({"x": a, "y": a, "x$0": a, "x$1": a}.items()))
    erased = erase_config(cfg).env
    assert [erased.fresh(b) for b in "xyz"] == ["x$2", "y$0", "z"]
    # the scan starts at the number of names bound per base, so with x$0
    # and x$1 bound but not x it tries x$2 first
    assert Env({"x$0": 0, "x$1": 0}.items()).fresh("x") == "x$2"


class CountingDict(dict):
    probes = 0

    def __contains__(self, key):
        CountingDict.probes += 1
        return super().__contains__(key)


def test_fresh_name_probes_are_constant_after_many_bindings(universe, monkeypatch):
    src = "class L { L[1] loop()[1] { this.loop() } }\nrun new L().loop() at 1\n"
    program = parse_program(src, universe)
    _, checked = elaborate_program(universe, program)
    run = graded_run(universe, checked.table, GradedConfig(checked.main),
                     program.mainGrade, fuel=2000)
    env = run.config.env
    assert len(env) == 1000  # one binding of `this` per call
    store = Env._store
    with monkeypatch.context() as m:
        m.setattr(Env, "_store", lambda self: CountingDict(store(self)))
        CountingDict.probes = 0
        name = env.fresh("this")
    assert CountingDict.probes == 1
    assert name == _scan_from_zero(env, "this") == "this$999"
    assert erase_config(run.config).env.fresh("this") == "this$999"
    std = std_run(erase_table(checked.table), erase_config(GradedConfig(checked.main)),
                  fuel=2000)[1]
    assert std.env.keys() == env.keys() and std.env.fresh("this") == "this$999"


def test_fresh_index_is_not_compared_or_printed(universe, two_block):
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade)
    cfg = run.config
    assert [f.name for f in dataclasses.fields(GradedConfig)] == ["expr", "env"]
    assert [f.name for f in dataclasses.fields(StdConfig)] == ["expr", "env"]
    assert GradedConfig(cfg.expr, Env(cfg.env.items())) == cfg
    assert "fresh" not in repr(cfg)
    assert [cfg.env.fresh(b) for b in ("a", "p")] == ["a$0", "p$0"]


# ---------------------------------------------------------------------------
# the persistent environment

def test_env_old_versions_read_back_after_newer_and_branches():
    e0 = Env()
    e1 = e0.set("x", 1)
    e2 = e1.set("y", 2)
    e3 = e2.set("x", 3)
    left = e1.set("z", 4)      # two sets from one version, as search does
    right = e1.set("w", 5)
    assert e3.items() == [("x", 3), ("y", 2)]
    assert right.items() == [("x", 1), ("w", 5)]
    assert left.items() == [("x", 1), ("z", 4)]
    assert e2.items() == [("x", 1), ("y", 2)]
    assert e1.items() == [("x", 1)] and e0.items() == []
    assert [len(e) for e in (e0, e1, e2, e3, left, right)] == [0, 1, 2, 2, 2, 2]
    assert "y" in e2 and "y" not in e1 and e3["x"] == 3 and e1.get("y") is None
    assert list(e2) == ["x", "y"] and e2.keys() == ["x", "y"] and e2.values() == [1, 2]
    # iteration is a snapshot: reading another version on the way is safe
    assert [(k, e1.get("x"), e3[k]) for k in e2] == [("x", 1, 3), ("y", 1, 2)]


def test_env_equality_is_order_sensitive():
    xy = Env().set("x", 1).set("y", 2)
    yx = Env().set("y", 2).set("x", 1)
    assert xy != yx and dict(xy) == dict(yx)
    base = Env().set("a", 0)
    b1, b2 = base.set("x", 1).set("y", 2), base.set("y", 2).set("x", 1)
    assert b1 != b2   # same family, same items, other order
    assert b1 == base.set("x", 1).set("y", 2) == Env(dict(b1))
    assert base.set("x", 1) != base.set("x", 2)
    assert base.set("x", 1).set("x", 2) == base.set("x", 2)
    assert hash(b1) == hash(Env(dict(b1)))


def test_env_agrees_with_copied_dicts_on_random_histories():
    # every version against a dict copied at each set, the representation
    # the persistent map replaced
    rng = random.Random(5)
    versions = [(Env(), {})]
    for _ in range(3000):
        env, model = rng.choice(versions[-20:] if rng.random() < 0.8 else versions)
        key, value = rng.choice("abcdefgh"), rng.randrange(3)
        model = dict(model)
        model[key] = value
        child = env.set(key, value)
        assert child.changes_since(env) == [key] and env.changes_since(child) in (None, [key])
        versions.append((child, model))
    for _ in range(3000):
        (e1, m1), (e2, m2) = rng.choice(versions), rng.choice(versions)
        assert e1.items() == list(m1.items())
        assert (e1 == e2) == (list(m1.items()) == list(m2.items()))
        keys = e2.changes_since(e1)
        if keys is not None:
            replayed = dict(m1)
            for k in keys:
                replayed[k] = m2[k]
            assert list(replayed.items()) == list(m2.items())


def test_env_reroots_a_long_chain_without_recursion():
    first = env = Env()
    for i in range(100_000):
        env = env.set(f"x{i}", i)
    assert len(first) == 0 and first.items() == []
    assert env["x99999"] == 99_999 and len(env.items()) == 100_000
    assert first.set("y", 0).items() == [("y", 0)]


def test_field_extraction_stuck(universe):
    src = ("class A { }\nclass Pair { A[1] first; A[1] second; }\n"
           "run {A[4] a = new A(); {Pair[2] p = new Pair(a, a); "
           "new Pair(p.first @ 2, p.second)}} at 1\n")
    program, main, ann = unchecked(universe, src)
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade)
    assert run.outcome == "stuck" and isinstance(run.reason, FieldExtraction)
    assert str(run.reason.have) == "1" and str(run.reason.demanded) == "2"


def test_resource_exhausted_at_public(universe):
    src = ("class A { }\n"
           "run {A[P:public] y = new A(); {A[P:private] x = y; x}} at P:public\n")
    program, main, ann = unchecked(universe, src)
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade)
    assert run.outcome == "stuck" and isinstance(run.reason, ResourceExhausted)
    assert run.reason.var == "x"
    assert str(run.reason.available) == "P:private"


def test_var_at_zero_burns_unit(universe):
    # reducing an initializer at grade 0 still burns one copy per use
    src = ("class A { }\nclass Pair { A[1] first; A[1] second; }\n"
           "run {A[2] a = new A(); {Pair[0] p = new Pair(a, a); "
           "new Pair(new A(), new A())}} at 1\n")
    program, main, ann = unchecked(universe, src)
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     want_trace=True)
    assert run.outcome == "final"
    burns = [t.info for t in run.trace if t.info and t.info.rule == "var"]
    assert all(i.consumed == ONE_D for i in burns)
    assert run.final_env_grades()["a"] == "0"


def test_no_such_member_stuck(universe, two_block):
    _, _, ann = two_block
    bad = FieldAccess(New("A", (), N(1)), "nope")
    res = graded_config_step(universe, ann, GradedConfig(bad), N(1))
    assert res.kind == "stuck" and isinstance(res.reason, NoSuchMember)


def test_enumerate_offers_choices(universe, two_block):
    _, _, ann = two_block
    cfg = GradedConfig(Var("x"), Env({"x": (New("A", ()), N(3))}))
    res = graded_config_step(universe, ann, cfg, N(1), Enumerate(bound=4))
    assert res.kind == "step"
    consumed = sorted(i.consumed.value.n for _, i in res.successors)
    assert consumed == [1, 2, 3]  # burn 1, 2 or 3 of the available 3
    leftovers = {i.consumed.value.n: i.residual.value.n for _, i in res.successors}
    assert leftovers == {1: 2, 2: 1, 3: 0}


def test_search_completes_when_minimal_does(universe, two_block):
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     Enumerate())
    assert run.outcome == "final"
    assert run.final_env_grades() == {"a": "0", "p": "0"}


def test_traced_search_keeps_one_path(universe):
    src = "class L { L[1] loop()[1] { this.loop() } }\nrun new L().loop() at 1\n"
    program = parse_program(src, universe)
    _, checked = elaborate_program(universe, program)
    run = graded_run(universe, checked.table, GradedConfig(checked.main),
                     program.mainGrade, Enumerate(), fuel=5000, want_trace=True)
    assert run.outcome == "fuel" and run.steps == 5000 and len(run.trace) == 5001
    assert run.trace[-1].config is run.config
    assert [t.info.rule for t in run.trace[1:5]] == ["invk", "var", "invk", "var"]


def test_search_all_schedules_stuck(universe):
    src = ("class A { }\nclass Pair { A[1] first; A[1] second; }\n"
           "run {A[4] a = new A(); {Pair[2] p = new Pair(a, a); "
           "new Pair((p @ 2).first @ 2, p.second)}} at 1\n")
    program, main, ann = unchecked(universe, src)
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     Enumerate())
    assert run.outcome == "stuck"


def test_reannotated_overdemand_completes(universe):
    src = ("class A { }\nclass Pair { A[1] first; A[1] second; }\n"
           "run {A[6] a = new A(); {Pair[3] p = new Pair(a, a); "
           "new Pair((p @ 2).first @ 2, p.second)}} at 1\n")
    program, main, ann = unchecked(universe, src)
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade)
    assert run.outcome == "final"
    assert run.final_env_grades() == {"a": "0", "p": "0"}


def test_fuel_exhaustion(universe):
    src = ("class Loop { Loop[N:1] spin() [N:1] { this.spin() } }\n"
           "run new Loop().spin() at N:1\n")
    program = parse_program(src, universe)
    _, checked = elaborate_program(universe, program)
    run = graded_run(universe, checked.table, GradedConfig(checked.main),
                     program.mainGrade, fuel=50)
    assert run.outcome == "fuel" and run.steps == 50


# ---------------------------------------------------------------------------
# per-step properties

def _check_step(u, ann, before, after, grade, info, lows=None):
    return check_step(u, ann, erase_table(ann), before, after, erase_config(before),
                      erase_config(after), grade, info, lows)


def test_props_hold_on_two_block_run(universe, two_block):
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     want_trace=True)
    lows = [N(0), N(1)]
    for i in range(1, len(run.trace)):
        errs = _check_step(universe, ann, run.trace[i - 1].config, run.trace[i].config,
                           program.mainGrade, run.trace[i].info, lows)
        assert errs == [], (i, errs)


def test_props_replay_at_same_grade(universe, two_block):
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     want_trace=True)
    var_steps = [i for i, t in enumerate(run.trace) if t.info and t.info.rule == "var"]
    i = var_steps[0]
    errs = _check_step(universe, ann, run.trace[i - 1].config, run.trace[i].config,
                       program.mainGrade, run.trace[i].info, [program.mainGrade])
    assert errs == []


def test_props_catch_grown_grade(universe, two_block):
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     want_trace=True)
    before, after = run.trace[1].config, run.trace[2].config
    env = dict(after.env)
    env["a"] = (env["a"][0], N(9))
    fake = GradedConfig(after.expr, Env(env))
    errs = _check_step(universe, ann, before, fake, program.mainGrade, run.trace[2].info)
    assert any("grew" in e for e in errs)


def test_erasure_agrees_with_standard_run(universe, two_block):
    program, main, ann = two_block
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade)
    outcome, std_final, steps = std_run(erase_table(ann), erase_config(
        GradedConfig(main)))
    assert outcome == "final" and steps == run.steps
    assert erase_config(run.config) == std_final


def test_fixed_witness_policy(universe, two_block):
    _, _, ann = two_block
    cfg = GradedConfig(Var("x"), Env({"x": (New("A", ()), N(3))}))
    ok = graded_config_step(universe, ann, cfg, N(1), FixedWitness(N(2), N(1)))
    assert ok.kind == "step"
    bad = graded_config_step(universe, ann, cfg, N(1), FixedWitness(N(2), N(2)))
    assert bad.kind == "stuck"  # 2 + 2 is not within 3


def test_search_reports_deepest_stuck_reason(universe):
    src = ("class A { }\nclass Pair { A[1] first; A[1] second; }\n"
           "run {A[4] a = new A(); {Pair[2] p = new Pair(a, a); "
           "new Pair((p @ 2).first @ 2, p.second)}} at 1\n")
    program, main, ann = unchecked(universe, src)
    run = graded_run(universe, ann, GradedConfig(main), program.mainGrade,
                     Enumerate())
    assert run.outcome == "stuck" and run.steps == 6
    assert isinstance(run.reason, ResourceExhausted) and run.reason.var == "p"
    assert str(run.reason.available) == "0" and str(run.reason.demanded) == "1"


def test_extreal_kind_end_to_end():
    from gradefj.hetero import validate_universe
    from gradefj.grades import EXTREAL
    u = validate_universe({"R": EXTREAL}, [])
    src = ("class A { }\nclass Pair { A[R:1/2] first; A[R:1/2] second; }\n"
           "run {A[R:1] a = new A(); new Pair(a, a)} at R:1\n")
    program = parse_program(src, u)
    _, checked = elaborate_program(u, program)
    run = graded_run(u, checked.table, GradedConfig(checked.main),
                     program.mainGrade, want_trace=True)
    assert run.outcome == "final"
    # two burns of exactly 1/2 leave exactly the kind-R zero: exact arithmetic
    assert run.final_env_grades() == {"a": "R:0"}
    burns = [t.info.consumed for t in run.trace if t.info and t.info.rule == "var"]
    assert all(str(b) == "R:1/2" for b in burns)


def test_enumerate_on_finite_kind(universe, two_block):
    from gradefj.grades import FiniteElem
    _, _, ann = two_block
    aff = lambda n: KindedGrade("A", FiniteElem(n, "affinity"))
    cfg = GradedConfig(Var("x"), Env({"x": (New("A", ()), aff("w"))}))
    res = graded_config_step(universe, ann, cfg, aff("1"), Enumerate())
    assert res.kind == "step"
    burned = sorted(str(i.consumed) for _, i in res.successors)
    assert burned == ["A:1", "A:w"]  # every carrier element above the grade
    for _, info in res.successors:
        assert str(info.residual) == "A:w"  # omega absorbs any burn


def test_search_finds_schedule_minimal_misses():
    # burning 1 from 'a' leaves x or y (incomparable maxima); the linear
    # minimal run takes the x branch and sticks on the later y demand,
    # while the search backtracks into the completing schedule
    from conftest import ambiguous_algebra
    from gradefj.hetero import validate_universe
    u = validate_universe({"M": ambiguous_algebra()}, [])
    src = ("class A { }\nclass Pair { A[M:1] first; A[M:1] second; }\n"
           "run {A[M:a] v = new A(); new Pair(v @ M:1, v @ M:y)} at M:1\n")
    program = parse_program(src, u)
    _, annotated = annotate_program(u, program)
    ann, main = annotated.table, annotated.main
    linear = graded_run(u, ann, GradedConfig(main), program.mainGrade)
    assert linear.outcome == "stuck"
    found = graded_run(u, ann, GradedConfig(main), program.mainGrade,
                       Enumerate())
    assert found.outcome == "final"
    assert found.final_env_grades() == {"v": "M:0"}


# ---------------------------------------------------------------------------
# refocused runs: graded_run keeps the evaluation context between steps,
# and must agree with a plain loop of graded_config_step on whole
# configurations

PROGRAMS = pathlib.Path(__file__).parent / "programs"
LOOP = PROGRAMS / "loop.gfj"
MIRROR_WALK = PROGRAMS / "mirror_walk.gfj"  # a complete tree 4 deep, A:w fields
LOOP_FUEL = 200  # the loop never ends; the default fuel would take seconds


def _stepwise_run(u, table, cfg, grade, policy, fuel, want_trace):
    """graded_run's contract, stepping whole configurations; also returns
    the number of graded_config_step calls made."""
    calls = 0
    trace = [TraceEntry(cfg, None)]
    if isinstance(policy, Enumerate):
        best = [None, -1]

        def visit(node, depth):
            nonlocal calls
            if calls == fuel:
                return RunResult("fuel", depth, node)
            calls += 1
            result = graded_config_step(u, table, node, grade, policy)
            if result.kind == "value":
                return RunResult("final", depth, node)
            if result.kind == "stuck":
                if depth > best[1]:
                    best[:] = result.reason, depth
                return None
            for succ, info in result.successors:
                trace.append(TraceEntry(succ, info))
                found = visit(succ, depth + 1)
                if found is not None:
                    return found
                trace.pop()
            return None

        run = visit(cfg, 0) or RunResult("stuck", best[1], cfg, reason=best[0])
    else:
        run = None
        while run is None and len(trace) <= fuel:
            result = graded_config_step(u, table, cfg, grade, policy)
            calls += 1
            if result.kind == "value":
                run = RunResult("final", len(trace) - 1, cfg)
            elif result.kind == "stuck":
                run = RunResult("stuck", len(trace) - 1, cfg, reason=result.reason)
            else:
                cfg, info = result.successors[0]
                trace.append(TraceEntry(cfg, info))
        run = run or RunResult("fuel", fuel, cfg)
    if want_trace:
        run.trace = trace
    return run, calls


def _assert_same_run(got, want, label):
    assert (got.outcome, got.steps, got.reason) == (want.outcome, want.steps,
                                                    want.reason), label
    assert got.config.expr == want.config.expr, label
    assert got.config.env == want.config.env, label
    assert (got.trace is None) == (want.trace is None), label
    if want.trace is not None:
        assert len(got.trace) == len(want.trace), label
        for i, (g, w) in enumerate(zip(got.trace, want.trace)):
            assert g == w, f"{label}: trace entry {i}"


def _differential_cases(corpus):
    for entry in corpus:
        diags, checked = elaborate_program(entry.universe, entry.program)
        fuel = entry.manifest.get("fuel", 100_000)  # the corpus driver's
        if not diags:
            yield entry.name, entry.universe, checked, entry.program.mainGrade, fuel
        if "uncheckedRun" in entry.manifest:
            _, annotated = annotate_program(entry.universe, entry.program)
            yield (f"{entry.name} unchecked", entry.universe, annotated,
                   entry.program.mainGrade, fuel)
    u = default_universe()
    for path, fuel in ((LOOP, LOOP_FUEL), (MIRROR_WALK, 100_000)):
        program = parse_program(path.read_text(), u)
        diags, checked = elaborate_program(u, program)
        assert not diags, path.name
        yield path.stem, u, checked, program.mainGrade, fuel


def test_refocused_run_agrees_with_whole_configuration_steps(corpus):
    # fuels n-1, n and n+1 around the run's length n (and around the number
    # of steps a search tries) pin the fuel rule: a value reached exactly
    # at the bound still reports "fuel"
    finals = 0
    for name, u, ready, grade, default in _differential_cases(corpus):
        cfg = GradedConfig(ready.main)
        for policy, want_trace in ((Minimal(), False), (Minimal(), True),
                                   (Enumerate(), False), (Enumerate(), True)):
            run, calls = _stepwise_run(u, ready.table, cfg, grade, policy, default, False)
            fuels = {1, 2, default}
            for n in (run.steps, calls):
                fuels |= {n - 1, n, n + 1}
            if run.outcome == "final" and run.steps > 0:
                finals += 1
                at_bound = graded_run(u, ready.table, cfg, grade, policy, run.steps)
                assert at_bound.outcome == "fuel", name
            for fuel in sorted(fuels - {0}):
                label = f"{name} {type(policy).__name__} trace={want_trace} fuel={fuel}"
                want, _ = _stepwise_run(u, ready.table, cfg, grade, policy, fuel,
                                        want_trace)
                got = graded_run(u, ready.table, cfg, grade, policy, fuel, want_trace)
                _assert_same_run(got, want, label)
    assert finals > 0


@pytest.mark.parametrize("last, outcome", [("new A()", "final"), ("v @ M:1", "stuck")])
def test_refocused_search_backtracks_into_the_shared_context(last, outcome):
    # the first burn of 'v', one slot deep, has two residuals; the demand
    # two slots deep fits only the second (or, with a third use, neither)
    from conftest import ambiguous_algebra
    from gradefj.hetero import validate_universe
    u = validate_universe({"M": ambiguous_algebra()}, [])
    src = ("class A { }\nclass Pair { A[M:1] first; A[M:1] second; }\n"
           f"run {{A[M:a] v = new A(); new Pair(v @ M:1, new Pair(v @ M:y, {last}))}} at M:1\n")
    program = parse_program(src, u)
    _, annotated = annotate_program(u, program)
    cfg = GradedConfig(annotated.main)
    want, calls = _stepwise_run(u, annotated.table, cfg, program.mainGrade, Enumerate(),
                                100_000, True)
    assert want.outcome == outcome and calls > want.steps + 1  # it backtracked
    got = graded_run(u, annotated.table, cfg, program.mainGrade, Enumerate(),
                     want_trace=True)
    _assert_same_run(got, want, "backtracking search")


def _count_inits(m, counts, classes):
    """Count, in ``counts`` by class name, the instances of ``classes``
    built while the monkeypatch context ``m`` is open."""
    for cls in classes:
        init = cls.__init__

        def counted_init(self, *args, init=init, name=cls.__name__, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        m.setattr(cls, "__init__", counted_init)


def test_run_contracts_the_focused_redex_with_one_call_per_step(universe, two_block,
                                                               monkeypatch):
    # an untraced Minimal run builds no StepResult and no configuration but
    # its result's, and calls graded_step once per step; a value ends the
    # run without a further call
    from gradefj import runtime
    loop = parse_program(LOOP.read_text(), universe)
    _, checked = elaborate_program(universe, loop)
    program, main, ann = two_block
    for table, cfg, grade, fuel, outcome in (
            (checked.table, GradedConfig(checked.main), loop.mainGrade, 1500, "fuel"),
            (ann, GradedConfig(main), program.mainGrade, 100_000, "final")):
        counts = Counter()
        step = runtime.graded_step

        def counted_step(*args, **kwargs):
            counts["graded_step"] += 1
            return step(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(runtime, "graded_step", counted_step)
            _count_inits(m, counts, (runtime.StepResult, runtime.GradedConfig))
            run = graded_run(universe, table, cfg, grade, Minimal(), fuel)
        assert run.outcome == outcome and run.steps > 0
        assert counts == Counter(graded_step=run.steps, GradedConfig=1), counts


def _block_nest(n: int) -> str:
    """A main of ``n`` nested blocks, each binding a name of its own."""
    body = "new A()"
    for i in reversed(range(n)):
        body = f"{{A[1] x{i} = new A(); {body}}}"
    return f"class A {{ }}\nrun {body} at 1\n"


@pytest.mark.parametrize("mode", [[], ["--standard"]])
def test_run_builds_nodes_linear_in_block_nesting(mode, monkeypatch, tmp_path, capsys):
    # a block step renames its variable to itself when the name is free,
    # which builds nothing; the whole command stays linear in the nesting
    from gradefj import cli, syntax
    built = []
    for n in (200, 400):
        path = tmp_path / f"nest{n}.gfj"
        path.write_text(_block_nest(n))
        counts = Counter()
        with monkeypatch.context() as m:
            _count_inits(m, counts, (syntax.Var, syntax.FieldAccess, syntax.New,
                                     syntax.Invk, syntax.Block))
            assert cli.main(["run", "--json", *mode, str(path)]) == 0
        assert f'"steps": {n}' in capsys.readouterr().out
        built.append(sum(counts.values()))
    assert built[1] <= 2.2 * built[0], built


@pytest.mark.parametrize("command", [["check"], ["run", "--unchecked"]])
def test_typing_copies_env_entries_linear_in_block_nesting(command, monkeypatch, tmp_path,
                                                          capsys):
    # a block extends the walk's one type environment in place, so the
    # environments the typing walks see hold entries linear in the nesting;
    # a copy at every block would hold quadratically many
    from gradefj import cli, typecheck
    copied = []
    for n in (200, 400):
        path = tmp_path / f"nest{n}.gfj"
        path.write_text(_block_nest(n))
        seen = {}  # each environment dict, kept alive, and its size when first seen

        def recorded(fn, at):
            def wrapper(*args, **kwargs):
                env = args[at]
                seen.setdefault(id(env), (env, len(env)))
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            for name, at in (("_check", 2), ("infer_class", 1), ("annotate_expr", 2)):
                m.setattr(typecheck, name, recorded(getattr(typecheck, name), at))
            assert cli.main([*command, "--json", str(path)]) == 0
        capsys.readouterr()
        copied.append(sum(1 + size for _, size in seen.values()))  # dicts made, entries copied
    assert copied[1] <= 2.2 * copied[0], copied


def _spine_walk(depth: int, field_grade: str) -> str:
    """The mirror walk of a one-sided tree ``depth`` deep: the walk of the
    right spine runs inside one constructor slot per level."""
    tree = "new L()"
    for _ in range(depth):
        tree = f"new Nd(new L(), {tree})"
    return (f"class T {{ T[A:w] w() [A:w] {{ new L() }} }}\n"
            f"class L extends T {{ T[A:w] w() [A:w] {{ new L() }} }}\n"
            f"class Nd extends T {{ T[{field_grade}] l; T[{field_grade}] r;\n"
            f"  T[A:w] w() [A:w] {{ new Nd((this @ A:w).r.w(), (this @ A:w).l.w()) }} }}\n"
            f"run {tree}.w() at {field_grade}\n")


@pytest.mark.parametrize("field_grade", ["A:w", "N:1"])
def test_step_cost_does_not_grow_with_context_depth(universe, monkeypatch, field_grade):
    # each step contracts one redex and rebuilds at most the parents it
    # leaves; nothing walks the context from the root
    from gradefj import hetero, syntax
    counts = Counter()
    mul = hetero.GradeUniverse.mul

    def counted_mul(self, *args):
        counts["mul"] += 1
        return mul(self, *args)

    per_step = []
    for depth in (16, 64):
        program = parse_program(_spine_walk(depth, field_grade), universe)
        diags, checked = elaborate_program(universe, program)
        assert not diags
        cfg = GradedConfig(checked.main)
        counts.clear()
        with monkeypatch.context() as m:
            m.setattr(hetero.GradeUniverse, "mul", counted_mul)
            _count_inits(m, counts, (syntax.Var, syntax.FieldAccess, syntax.New,
                                     syntax.Invk, syntax.Block))
            run = graded_run(universe, checked.table, cfg, program.mainGrade)
        assert run.outcome == "final"
        nodes = sum(counts.values()) - counts["mul"]
        per_step.append((counts["mul"] / run.steps, nodes / run.steps))
    for muls, nodes in per_step:
        assert muls <= 1 and nodes <= 3, per_step


def test_deep_context_steps_without_recursion(universe, two_block):
    # a variable under 5000 constructor slots: decomposition, plugging and
    # the run's refocusing are loops, not recursion
    _, _, ann = two_block
    depth = 5000
    e = Var("x", N(1))
    for _ in range(depth):
        e = New("Box", (e,), N(1))
    cfg = GradedConfig(e, Env({"x": (New("A", (), N(1)), N(1))}))

    def spine(term):
        n = 0
        while term.args:
            assert term.className == "Box"
            term, n = term.args[0], n + 1
        assert term.className == "A"
        return n

    step = graded_config_step(universe, ann, cfg, N(1))
    assert step.kind == "step" and len(step.successors) == 1
    assert spine(step.successors[0][0].expr) == depth
    run = graded_run(universe, ann, cfg, N(1), want_trace=True)
    assert run.outcome == "final" and run.steps == 1
    assert run.config.expr.is_value and spine(run.config.expr) == depth
    assert run.final_env_grades() == {"x": "0"}
