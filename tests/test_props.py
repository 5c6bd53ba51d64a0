"""Theorem harness over the corpus: progress, soundness-may, lockstep."""

import pytest

from gradefj.runtime import GradedConfig, Minimal, graded_run
from gradefj.syntax import GradedType, erase_table, parse_expr, parse_program
from gradefj.typecheck import check, elaborate_program
from gradefj.props import (
    assert_progress,
    assert_soundness_may,
    assert_subject_reduction,
    check_entry,
    check_trace_props,
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


def test_progress_on_every_two_block_configuration(corpus_by_name):
    u, program, ann, main, expected = _setup(corpus_by_name["two_blocks_nat"])
    run = graded_run(u, ann, GradedConfig.make(main, {}), program.mainGrade,
                     Minimal(), want_trace=True)
    for i, t in enumerate(run.trace):
        assert assert_progress(u, ann, t.config, expected) == [], i


def test_progress_value_branch(corpus_by_name):
    u, program, ann, _, expected = _setup(corpus_by_name["two_blocks_nat"])
    value = parse_expr("new Pair(new A() @ 1, new A() @ 1)", u)
    assert assert_progress(u, ann, GradedConfig.make(value, {}), expected) == []


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
        errs = assert_soundness_may(u, ann, GradedConfig.make(main, {}),
                                    expected, fuel)
        assert errs == [], (entry.name, errs)


def test_subject_reduction_two_block_lockstep(corpus_by_name):
    u, program, ann, main, expected = _setup(corpus_by_name["two_blocks_nat"])
    errs = assert_subject_reduction(u, ann, GradedConfig.make(main, {}), expected)
    assert errs == []


def test_subject_reduction_e1_both_ways(corpus_by_name):
    # the private-level block program ends in new A() in both semantics
    from gradefj.runtime import erase_config, std_run
    u, program, ann, main, expected = _setup(corpus_by_name["priv_narrow_at_private"])
    errs = assert_subject_reduction(u, ann, GradedConfig.make(main, {}), expected)
    assert errs == []
    run = graded_run(u, ann, GradedConfig.make(main, {}), program.mainGrade)
    outcome, std_final, _ = std_run(erase_table(ann),
                                    erase_config(GradedConfig.make(main, {})))
    assert outcome == "final"
    assert std_final.expr == parse_expr("new A()", u)
    assert erase_config(run.config).expr == std_final.expr


def test_subject_reduction_value_only(universe):
    program = parse_program("class A { }\nrun new A() at 1", universe)
    _, checked = elaborate_program(universe, program)
    errs = assert_subject_reduction(universe, checked.table,
                                    GradedConfig.make(checked.main, {}),
                                    GradedType("A", program.mainGrade))
    assert errs == []


def test_downward_closure_across_runs(corpus):
    # every recorded step replays at sampled grades below the declared one
    for entry in accepted_entries(corpus):
        u, program, ann, main, expected = _setup(entry)
        fuel = entry.manifest.get("fuel", 10_000)
        run = graded_run(u, ann, GradedConfig.make(main, {}), program.mainGrade,
                         Minimal(), fuel, want_trace=True)
        lows = lower_grade_samples(u, program.mainGrade)
        assert len(lows) <= 25
        errs = check_trace_props(u, ann, run.trace, program.mainGrade, lows)
        assert errs == [], (entry.name, errs[:4])


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
