"""Theorem harness over the corpus: progress, soundness-may, subject
reduction, all checked in one walk over a traced run."""

import dataclasses

import pytest

from gradefj.grades import Nat
from gradefj.hetero import KindedGrade
from gradefj.runtime import (
    Env,
    GradedConfig,
    Minimal,
    ResourceExhausted,
    StdConfig,
    TraceEntry,
    graded_run,
    std_run,
)
from gradefj.syntax import (
    ClassTable,
    GradedType,
    erase,
    erase_table,
    is_value,
    parse_expr,
    parse_program,
)
from gradefj.typecheck import (
    annotate_program,
    check,
    check_configuration,
    cycle_diags,
    elaborate_program,
)
from gradefj.props import (
    check_entry,
    check_run,
    load_corpus,
    lower_grade_samples,
    theorem_suite,
)


def accepted_entries(corpus):
    return [e for e in corpus if e.manifest["expect"] == "accept"]


def test_corpus_is_large_enough(corpus):
    assert len(corpus) >= 20


def test_corpus_verdicts(corpus):
    for entry in corpus:
        out = check_entry(entry)
        assert out.ok, (entry.name, out.failures)


def test_corpus_verdicts_are_stable(corpus):
    # determinism end-to-end: two evaluations agree
    for entry in corpus:
        assert check_entry(entry).ok == check_entry(entry).ok


def test_theorem_suite_full_corpus(corpus):
    for entry in corpus:
        out = theorem_suite(entry)
        assert out.ok, (entry.name, out.failures)


def _setup(entry):
    u, program = entry.universe, entry.program
    _, checked = elaborate_program(u, program)
    return u, program, checked.table, checked.main, checked.type


def _traced(u, ann, expr, grade, fuel=100_000):
    return graded_run(u, ann, GradedConfig(expr), grade, Minimal(), fuel,
                      want_trace=True)


def test_progress_on_every_two_block_configuration(corpus_by_name):
    u, program, ann, main, expected = _setup(corpus_by_name["two_blocks_nat"])
    run = _traced(u, ann, main, program.mainGrade)
    assert len(run.trace) > 2
    assert check_run(u, ann, run, expected) == []
    # the walk's environment check is the typing-context check: t-env types
    # a configuration in its environment's domain at the stored grades
    for t in run.trace:
        gamma, _ = check_configuration(u, ann, t.config.expr, t.config.env, expected)
        assert gamma == {x: (v.className, g) for x, (v, g) in t.config.env.items()}


def test_progress_value_branch(corpus_by_name):
    u, program, ann, _, expected = _setup(corpus_by_name["two_blocks_nat"])
    value = parse_expr("new Pair(new A() @ 1, new A() @ 1)", u)
    run = _traced(u, ann, value, expected.grade)
    assert run.outcome == "final" and len(run.trace) == 1
    assert check_run(u, ann, run, expected) == []


def test_checker_never_emits_overdemand_annotations(corpus_by_name):
    # the stuck mis-annotated traces are hand-written; the checker rejects them
    for name in ("overdemand_ctor_arg", "overdemand_receiver", "overdemand_reannotated"):
        entry = corpus_by_name[name]
        assert entry.manifest["expect"] == "reject"
        assert check_entry(entry).ok


def test_soundness_may_never_stuck(corpus):
    for entry in accepted_entries(corpus):
        u, program, ann, main, expected = _setup(entry)
        fuel = entry.manifest.get("fuel", 10_000)
        errs = check_run(u, ann, _traced(u, ann, main, expected.grade, fuel), expected)
        assert errs == [], (entry.name, errs)


def test_subject_reduction_two_block_lockstep(corpus_by_name):
    u, program, ann, main, expected = _setup(corpus_by_name["two_blocks_nat"])
    errs = check_run(u, ann, _traced(u, ann, main, expected.grade), expected)
    assert errs == []


def test_subject_reduction_e1_both_ways(corpus_by_name):
    # the private-level block program ends in new A() in both semantics
    from conftest import erase_config
    from gradefj.runtime import std_run
    u, program, ann, main, expected = _setup(corpus_by_name["priv_narrow_at_private"])
    errs = check_run(u, ann, _traced(u, ann, main, expected.grade), expected)
    assert errs == []
    run = graded_run(u, ann, GradedConfig(main), program.mainGrade)
    outcome, std_final, _ = std_run(erase_table(ann),
                                    erase_config(GradedConfig(main)))
    assert outcome == "final"
    assert std_final.expr == parse_expr("new A()", u)
    assert erase_config(run.config).expr == std_final.expr


def test_subject_reduction_value_only(universe):
    program = parse_program("class A { }\nrun new A() at 1", universe)
    _, checked = elaborate_program(universe, program)
    run = _traced(universe, checked.table, checked.main, program.mainGrade)
    errs = check_run(universe, checked.table, run, GradedType("A", program.mainGrade))
    assert errs == []


def test_downward_closure_across_runs(corpus):
    # every recorded step replays at sampled grades below the declared one
    for entry in accepted_entries(corpus):
        u, program, ann, main, expected = _setup(entry)
        fuel = entry.manifest.get("fuel", 10_000)
        run = _traced(u, ann, main, program.mainGrade, fuel)
        lows = lower_grade_samples(u, program.mainGrade)
        assert len(lows) <= 25
        errs = check_run(u, ann, run, expected, lows)
        assert errs == [], (entry.name, errs[:4])


# ---------------------------------------------------------------------------
# the walk reports each kind of fault

@pytest.fixture
def two_block_run(corpus_by_name):
    u, program, ann, main, expected = _setup(corpus_by_name["two_blocks_nat"])
    run = _traced(u, ann, main, expected.grade)
    assert run.outcome == "final" and check_run(u, ann, run, expected) == []
    return u, ann, run, expected


def test_walk_reports_configuration_that_does_not_type(two_block_run):
    u, ann, run, expected = two_block_run
    trace = list(run.trace)
    i = next(i for i, t in enumerate(trace) if t.config.env)
    cfg = trace[i].config
    trace[i] = TraceEntry(GradedConfig(cfg.expr, Env()), trace[i].info)
    errs = check_run(u, ann, dataclasses.replace(run, trace=trace), expected)
    assert any(e.startswith(f"type not preserved at step {i}:") for e in errs), errs


def test_walk_reports_step_that_is_not_the_standard_step(two_block_run):
    u, ann, run, expected = two_block_run
    trace = list(run.trace)
    trace[1], trace[2] = trace[2], trace[1]
    errs = check_run(u, ann, dataclasses.replace(run, trace=trace), expected)
    assert any("erasure of the step is not the standard step" in e for e in errs), errs


def test_walk_reports_binder_that_skips_a_name(universe, monkeypatch):
    # an instrumented run that skips this$0 binds this, this$1, ...; the
    # standard step of its erasure binds this$0
    src = "class L { L[1] loop()[1] { this.loop() } }\nrun new L().loop() at 1\n"
    program = parse_program(src, universe)
    _, checked = elaborate_program(universe, program)
    fresh = Env.fresh

    def skipping(env, base):
        name = fresh(env, base)
        return "this$1" if name == "this$0" else name
    with monkeypatch.context() as m:
        m.setattr(Env, "fresh", skipping)  # the instrumented run only
        run = _traced(universe, checked.table, checked.main, program.mainGrade, fuel=6)
    assert list(run.config.env) == ["this", "this$1", "this$2"]
    errs = check_run(universe, checked.table, run, checked.type)
    assert "step 3: erasure of the step is not the standard step" in errs, errs


def test_walk_reports_shrinking_env(two_block_run):
    u, ann, run, expected = two_block_run
    trace = list(run.trace)
    before, last = trace[-2].config, trace[-1].config
    assert before.env and is_value(last.expr)
    trace[-1] = TraceEntry(GradedConfig(last.expr, Env()), trace[-1].info)
    errs = check_run(u, ann, dataclasses.replace(run, trace=trace), expected)
    n = len(trace) - 1
    x = next(iter(before.env))
    assert f"step {n}: dom shrank: {x} disappeared" in errs, errs


def _lowered(items):  # a's grade 4 lowered to 2
    return [(x, (v, KindedGrade("N", Nat(2))) if x == "a" else (v, g)) for x, (v, g) in items]


def _replaced(items):  # a's value replaced by one of an unknown class
    return [(x, (dataclasses.replace(v, className="Q"), g) if x == "a" else (v, g))
            for x, (v, g) in items]


def _dropped(items):
    return [(x, vg) for x, vg in items if x != "a"]


@pytest.mark.parametrize("step, change, lower, want", [
    (1, _lowered, False,
     ["type not preserved at step 1: expression needs a at 4 beyond what the "
      "environment provides"]),
    (3, _replaced, True,
     ["type not preserved at step 3: unknown class 'Q'",
      "step 3: value of a changed",
      "step 3: step does not replay at lower grade 0",
      "step 3: step does not replay at lower grade 1",
      "step 3: erasure of the step is not the standard step",
      "step 4: value of a changed",
      "step 4: step does not replay at lower grade 0",
      "step 4: step does not replay at lower grade 1",
      "step 4: erasure of the step is not the standard step"]),
    (4, _dropped, False,
     ["step 4: dom shrank: a disappeared",
      "step 4: erasure of the step is not the standard step",
      "step 5: erasure of the step is not the standard step"]),
], ids=["grade-lowered", "value-replaced", "binding-dropped"])
def test_walk_reports_one_altered_environment(two_block_run, step, change, lower, want):
    # one configuration's environment rebuilt with a's binding altered: the
    # t-conf and t-env checks, the step checks and the replay each report it
    u, ann, run, expected = two_block_run
    trace = list(run.trace)
    cfg = trace[step].config
    trace[step] = TraceEntry(GradedConfig(cfg.expr, Env(change(cfg.env.items()))),
                             trace[step].info)
    lows = lower_grade_samples(u, expected.grade) if lower else None
    assert check_run(u, ann, dataclasses.replace(run, trace=trace), expected, lows) == want


def test_walk_reports_stuck_outcome(two_block_run):
    u, ann, run, expected = two_block_run
    stuck = dataclasses.replace(run, outcome="stuck",
                                reason=ResourceExhausted("a", None, expected.grade))
    errs = check_run(u, ann, stuck, expected)
    assert len(errs) == 1 and errs[0].startswith("soundness-may: accepted program stuck")


def test_theorem_suite_runs_the_program_once(corpus_by_name, monkeypatch):
    # one traced run: each configuration typed once, one standard step per step
    import gradefj.props as props
    calls = {"graded_run": 0, "check_conf": 0, "std_step": 0}
    runs = []

    def counted(name):
        original = getattr(props, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = original(*args, **kwargs)
            if name == "graded_run":
                runs.append(out)
            return out
        monkeypatch.setattr(props, name, wrapper)
    for name in calls:
        counted(name)
    assert theorem_suite(corpus_by_name["two_blocks_nat"]).ok
    assert calls["graded_run"] == 1
    (run,) = runs
    assert calls["check_conf"] == len(run.trace)
    assert calls["std_step"] == run.steps == len(run.trace) - 1


def test_theorem_walk_types_and_erases_each_binding_once(corpus, monkeypatch):
    # the walk reuses the previous configuration's typing and erasure of
    # every binding that did not change: over one corpus pass, one t-env
    # typing per (binding, value, grade) and one erasure per (binding,
    # value) and per configuration; retyping and re-erasing every
    # environment whole made 10,241 env-entry typings
    import gradefj.props as props
    calls = {"check_env_entry": 0, "erase": 0}
    runs = []

    def counted(name):
        original = getattr(props, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(props, name, wrapper)
    for name in calls:
        counted(name)
    graded_run = props.graded_run
    monkeypatch.setattr(props, "graded_run",
                        lambda *a, **k: runs.append(graded_run(*a, **k)) or runs[-1])
    for entry in accepted_entries(corpus):
        assert theorem_suite(entry).ok, entry.name
    typed = erased = configs = 0
    for run in runs:
        entries = [(x, v, g) for t in run.trace for x, (v, g) in t.config.env.items()]
        typed += len({(x, id(v), g) for x, v, g in entries})
        erased += len({(x, id(v)) for x, v, _ in entries})
        configs += len(run.trace)
    assert calls["check_env_entry"] == typed
    assert calls["erase"] == erased + configs
    assert typed < 1000 and erased + configs < 1000


# ---------------------------------------------------------------------------
# lemma-level spot checks

def test_strengthening_for_values(corpus_by_name):
    # typing a value ignores the context
    entry = corpus_by_name["two_blocks_nat"]
    u, program = entry.universe, entry.program
    value = parse_expr("new Pair(new A() @ 1, new A() @ 1)", u)
    t = GradedType("Pair", program.mainGrade)
    assert check(u, program.table, {}, value, t).ctx == {}
    assert check(u, program.table, {"z": "A"}, value, t).ctx == {}


def test_renaming_preserves_verdict(corpus_by_name):
    entry = corpus_by_name["two_blocks_nat"]
    u = entry.universe
    src = entry.path.read_text().replace(" a ", " zz ").replace("(a,", "(zz,")
    src = src.replace(" a,", " zz,").replace(", a)", ", zz)").replace("(a)", "(zz)")
    renamed = parse_program(src, u)
    diags, _ = elaborate_program(u, renamed)
    assert not diags


def test_theorem_suite_rejects_fabricated_program(universe):
    # a hand-annotated stuck program never enters the suite as accepted
    from gradefj.props import CorpusEntry
    src = ("class A { }\nclass Pair { A[1] first; A[1] second; }\n"
           "run {A[4] a = new A(); {Pair[2] p = new Pair(a, a); "
           "new Pair(p.first @ 2, p.second)}} at 1\n")
    program = parse_program(src, universe)
    entry = CorpusEntry("fabricated", None, {"expect": "reject"}, universe, program)
    out = theorem_suite(entry)
    assert out.ok  # nothing to run: the checker rejected it


def test_theorem_suite_with_ascribed_method_body(universe):
    # the erasure check compares against the standard step of the erased
    # table, so an '@' inside a called method body is not a violation
    from gradefj.props import CorpusEntry
    src = ("class A { }\nclass W { A[2] f; A[1] get() [1] { (this @ 1).f } }\n"
           "run new W(new A()).get() at 1\n")
    program = parse_program(src, universe)
    entry = CorpusEntry("ascribed_body", None, {"expect": "accept"}, universe, program)
    out = theorem_suite(entry)
    assert out.ok, out.failures
    assert check_entry(entry).ok


def test_check_entry_catches_wrong_manifest(corpus_by_name):
    import copy
    entry = copy.copy(corpus_by_name["two_blocks_nat"])
    entry.manifest = copy.deepcopy(entry.manifest)
    entry.manifest["run"]["steps"] = 99
    out = check_entry(entry)
    assert not out.ok and any("99" in f for f in out.failures)

    entry2 = copy.copy(corpus_by_name["two_blocks_nat"])
    entry2.manifest = copy.deepcopy(entry2.manifest)
    entry2.manifest["expect"] = "reject"
    out2 = check_entry(entry2)
    assert not out2.ok


def _dump(x):
    """``x`` field by field: every dataclass field (positions included, which
    equality skips) and a node's ``is_value`` flag."""
    if isinstance(x, ClassTable):
        return _dump(x.classes)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, getattr(x, "is_value", None),
                tuple((f.name, _dump(getattr(x, f.name))) for f in dataclasses.fields(x)))
    if isinstance(x, dict):
        return tuple((k, _dump(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(map(_dump, x))
    return x


def test_commands_leave_the_parsed_program_as_it_was(corpus_dir):
    # the syntax records are immutable by convention only: no command may
    # assign a field of a node it was given
    for entry in load_corpus(corpus_dir):
        u, program = entry.universe, entry.program
        before = _dump(program)
        _, checked = elaborate_program(u, program)                        # check
        if checked is not None:                                           # run
            graded_run(u, checked.table, GradedConfig(checked.main), program.mainGrade,
                       fuel=2000)
        if not cycle_diags(program.table):                                # run --standard
            std_run(erase_table(program.table), StdConfig(erase(program.main)), 2000)
        _, annotated = annotate_program(u, program)                       # run --unchecked
        if annotated is not None:
            graded_run(u, annotated.table, GradedConfig(annotated.main), program.mainGrade,
                       fuel=2000)
        theorem_suite(entry)
        assert _dump(program) == before, entry.name
