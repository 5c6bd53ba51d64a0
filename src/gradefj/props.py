"""Executable statements of the soundness results, checked at desk scale.

Progress: a well-typed configuration is a value or steps to a well-typed
configuration whose environment only grew and whose grades only shrank.
Soundness-may: an accepted program either reaches a well-typed value or
runs out of fuel; it never sticks.  Subject reduction: the standard run
of the source program is, step by step, the erasure of the instrumented
run of its elaboration.  All three are checked over a corpus of programs
with pinned verdicts and outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .hetero import GradeUniverse, KindedGrade, load_universe, default_universe
from .runtime import (
    Enumerate,
    GradedConfig,
    Minimal,
    RunResult,
    StdStuck,
    TraceEntry,
    erase_config,
    graded_run,
    graded_step,
    props_step,
    reason_name,
    std_step,
)
from .syntax import (
    ClassTable,
    GradedType,
    Program,
    erase_table,
    is_value,
    parse_program,
)
from .typecheck import (
    Annotated,
    CheckError,
    annotate_program,
    check_configuration,
    elaborate_program,
)


# ---------------------------------------------------------------------------
# Theorem-level checks

def assert_progress(u: GradeUniverse, ann: ClassTable, cfg: GradedConfig,
                    expected: GradedType) -> list[str]:
    """Well-typed non-values must step to a well-typed configuration with
    a larger domain and pointwise smaller grades on shared variables.
    ``ann`` is the elaborated table."""
    try:
        gamma, _ = check_configuration(u, ann, cfg.expr, cfg.env_dict(), expected)
    except CheckError as exc:
        return [f"configuration does not type: {exc.diag.msg}"]
    if is_value(cfg.expr):
        return []
    result = graded_step(u, ann, cfg, expected.grade, Minimal())
    if result.kind != "step":
        result = graded_step(u, ann, cfg, expected.grade, Enumerate())
    if result.kind != "step":
        reason = result.reason.render() if result.reason else "no rule applies"
        return [f"no step from a well-typed configuration: {reason}"]
    failures = []
    for succ, _ in result.successors:
        errs = []
        try:
            gamma2, _ = check_configuration(u, ann, succ.expr, succ.env_dict(), expected)
        except CheckError as exc:
            errs.append(f"successor does not type: {exc.diag.msg}")
            gamma2 = None
        if gamma2 is not None:
            if not set(gamma) <= set(gamma2):
                errs.append("environment domain shrank")
            for x, (cls, g) in gamma.items():
                if x in gamma2 and not u.leq(gamma2[x][1], g):
                    errs.append(f"grade of {x} grew across the step")
        if not errs:
            return []
        failures.extend(errs)
    return failures


def assert_soundness_may(u: GradeUniverse, ann: ClassTable, cfg: GradedConfig,
                         expected: GradedType, fuel: int = 100_000) -> list[str]:
    """Accepted programs reach a well-typed value or diverge; a stuck run
    is a hard failure."""
    run = graded_run(u, ann, cfg, expected.grade, Minimal(), fuel)
    if run.outcome == "stuck":
        reason = run.reason.render() if run.reason else "?"
        return [f"accepted program stuck after {run.steps} steps: {reason}"]
    if run.outcome == "fuel":
        return []
    try:
        check_configuration(u, ann, run.config.expr, run.config.env_dict(), expected)
    except CheckError as exc:
        return [f"final configuration does not type: {exc.diag.msg}"]
    return []


def assert_subject_reduction(u: GradeUniverse, ann: ClassTable, cfg: GradedConfig,
                             expected: GradedType, fuel: int = 100_000) -> list[str]:
    """Run the erased program in the standard semantics in lockstep with
    the instrumented run; states must agree under erasure and the graded
    type must be preserved at every index."""
    failures = []
    std_table = erase_table(ann)
    std_cfg = erase_config(cfg)
    graded_cfg = cfg
    steps = 0
    while steps < fuel:
        if erase_config(graded_cfg) != std_cfg:
            failures.append(f"lockstep divergence at step {steps}")
            break
        try:
            check_configuration(u, ann, graded_cfg.expr, graded_cfg.env_dict(), expected)
        except CheckError as exc:
            failures.append(f"type not preserved at step {steps}: {exc.diag.msg}")
            break
        if is_value(graded_cfg.expr):
            break
        result = graded_step(u, ann, graded_cfg, expected.grade, Minimal())
        if result.kind != "step":
            failures.append(f"instrumented run stopped at step {steps}")
            break
        graded_cfg = result.successors[0][0]
        try:
            nxt = std_step(std_table, std_cfg)
        except StdStuck as exc:
            failures.append(f"standard run stuck at step {steps}: {exc}")
            break
        std_cfg = nxt
        steps += 1
    return failures


def check_trace_props(u: GradeUniverse, ann: ClassTable, trace: list[TraceEntry],
                      grade: KindedGrade,
                      lower_grades: Optional[list[KindedGrade]] = None) -> list[str]:
    """Run the per-step reduction properties over a recorded trace."""
    failures = []
    std_table = erase_table(ann)
    for i in range(1, len(trace)):
        before, after = trace[i - 1].config, trace[i].config
        errs = props_step(u, ann, std_table, before, after, grade, trace[i].info,
                          lower_grades)
        failures.extend(f"step {i}: {e}" for e in errs)
    return failures


def lower_grade_samples(u: GradeUniverse, grade: KindedGrade, limit: int = 25) -> list[KindedGrade]:
    """Deterministic sample of grades below the given one (inclusive)."""
    out = [g for g in u.sample_pool(nat_prefix=6) if u.leq(g, grade)]
    out.append(grade)
    seen, uniq = set(), []
    for g in out:
        if g not in seen:
            seen.add(g)
            uniq.append(g)
    return uniq[:limit]


# ---------------------------------------------------------------------------
# Corpus

@dataclass
class CorpusEntry:
    name: str
    path: Path
    manifest: dict
    universe: GradeUniverse
    program: Program = field(repr=False, default=None)


def load_corpus(directory: str | Path) -> list[CorpusEntry]:
    """Load every .gfj program with its .json manifest (same basename).

    A manifest may name a "universe" config file relative to the corpus
    directory; the default universe applies otherwise.
    """
    directory = Path(directory)
    entries = []
    universes: dict[str, GradeUniverse] = {}
    for path in sorted(directory.glob("*.gfj")):
        manifest_path = path.with_suffix(".json")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        uni_name = manifest.get("universe")
        if uni_name is None:
            universe = default_universe()
        else:
            if uni_name not in universes:
                universes[uni_name] = load_universe(str(directory / uni_name))
            universe = universes[uni_name]
        program = parse_program(path.read_text(encoding="utf-8"), universe)
        entries.append(CorpusEntry(path.stem, path, manifest, universe, program))
    return entries


@dataclass
class EntryOutcome:
    name: str
    failures: list[str]

    @property
    def ok(self):
        return not self.failures


def check_entry(entry: CorpusEntry) -> EntryOutcome:
    """Compare a corpus entry against its pinned verdict and outcomes."""
    failures: list[str] = []
    u, program = entry.universe, entry.program
    expect = entry.manifest["expect"]
    diags, checked = elaborate_program(u, program)
    verdict = "reject" if diags else "accept"
    messages = [f"[{d.rule}] {d.kind}: {d.msg}" for d in diags]
    if verdict != expect:
        failures.append(f"expected {expect}, checker said {verdict}: {messages}")
        return EntryOutcome(entry.name, failures)
    for want in entry.manifest.get("diagnostics", []):
        if not any(want in m for m in messages):
            failures.append(f"no diagnostic mentions {want!r}: {messages}")

    if verdict == "accept" and "run" in entry.manifest:
        want = entry.manifest["run"]
        failures.extend(_compare_run(_run(entry, checked), want))

    if "uncheckedRun" in entry.manifest:
        want = entry.manifest["uncheckedRun"]
        diags, annotated = annotate_program(u, program)
        if diags:
            failures.append(f"unchecked run refused: {[d.msg for d in diags]}")
        else:
            failures.extend(_compare_run(_run(entry, annotated), want))
    return EntryOutcome(entry.name, failures)


def _run(entry: CorpusEntry, ready: Annotated) -> RunResult:
    return graded_run(entry.universe, ready.table, GradedConfig.make(ready.main, {}),
                      entry.program.mainGrade, fuel=entry.manifest.get("fuel", 100_000))


def _compare_run(run: RunResult, want: dict) -> list[str]:
    failures = []
    if run.outcome != want["outcome"]:
        detail = run.reason.render() if run.reason else ""
        failures.append(f"run outcome {run.outcome} != {want['outcome']} {detail}")
        return failures
    if "steps" in want and run.steps != want["steps"]:
        failures.append(f"run took {run.steps} steps, expected {want['steps']}")
    if "reason" in want and reason_name(run.reason) != want["reason"]:
        failures.append(f"stuck reason {reason_name(run.reason)} != {want['reason']}")
    if "finalEnvGrades" in want:
        got = run.final_env_grades()
        if got != want["finalEnvGrades"]:
            failures.append(f"final env {got} != {want['finalEnvGrades']}")
    return failures


def theorem_suite(entry: CorpusEntry, fuel: int = 10_000,
                  progress_limit: int = 60) -> EntryOutcome:
    """Progress at every intermediate configuration, per-step properties,
    soundness-may and subject reduction for one accepted program."""
    failures: list[str] = []
    u, program = entry.universe, entry.program
    fuel = entry.manifest.get("fuel", fuel)
    diags, checked = elaborate_program(u, program)
    if diags:
        return EntryOutcome(entry.name, [])  # rejected entries have nothing to run
    ann, expected = checked.table, checked.type
    cfg = GradedConfig.make(checked.main, {})

    run = graded_run(u, ann, cfg, program.mainGrade, Minimal(), fuel, want_trace=True)
    if run.outcome == "stuck":
        failures.append("soundness-may: accepted program stuck "
                        f"({run.reason.render() if run.reason else '?'})")
    lows = lower_grade_samples(u, program.mainGrade)
    failures.extend(check_trace_props(u, ann, run.trace, program.mainGrade, lows))
    for i, tentry in enumerate(run.trace[:progress_limit]):
        errs = assert_progress(u, ann, tentry.config, expected)
        failures.extend(f"progress at step {i}: {e}" for e in errs)
    failures.extend(assert_soundness_may(u, ann, cfg, expected, fuel))
    failures.extend(assert_subject_reduction(u, ann, cfg, expected, fuel))
    return EntryOutcome(entry.name, failures)
