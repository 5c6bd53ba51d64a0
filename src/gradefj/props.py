"""Executable statements of the soundness results, checked at desk scale.

Progress: a well-typed configuration is a value or steps to a well-typed
configuration whose environment only grew and whose grades only shrank.
Soundness-may: an accepted program either reaches a well-typed value or
runs out of fuel; it never sticks.  Subject reduction: the standard run
of the source program is, step by step, the erasure of the instrumented
run of its elaboration.  All three are checked in one walk over the
recorded trace of each accepted program of a corpus with pinned verdicts
and outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .hetero import GradeUniverse, KindedGrade, load_universe, default_universe
from .runtime import (
    Env,
    FixedWitness,
    GradedConfig,
    Minimal,
    RunResult,
    StdConfig,
    StdStuck,
    StepInfo,
    graded_config_step,
    graded_run,
    reason_name,
    std_step,
)
from .syntax import (
    ClassTable,
    GradedType,
    Program,
    erase,
    erase_table,
    parse_program,
)
from .typecheck import (
    Annotated,
    CheckError,
    CoeffectCtx,
    Elaborated,
    annotate_program,
    check_conf,
    check_env_entry,
    elaborate_program,
)

LOWER_GRADE_SAMPLES = 25  # at most this many lower grades replay each step


# ---------------------------------------------------------------------------
# Theorem-level checks

class _EnvWalk:
    """The t-env context and the erasure of a run's environment, brought
    up to date configuration by configuration.  Only the bindings set since
    the previous configuration are looked at, so each (binding, value,
    grade) is typed once and each (binding, value) erased once per walk."""

    def __init__(self, u: GradeUniverse, table: ClassTable):
        self.u, self.table = u, table
        self.env = Env()      # the environment described below
        self.restart()

    def restart(self) -> None:
        self.erased = Env()   # the erasure of self.env
        self.seen: dict[str, tuple] = {}  # x -> its (value, grade) when last typed
        self.gamma: CoeffectCtx = {}      # t-env of the entries that type
        self.errors: dict[str, CheckError] = {}  # and why the others do not

    def advance(self, env: Env) -> None:
        keys = env.changes_since(self.env)
        if keys is None:  # not the previous environment plus bindings
            self.restart()
            keys = env.keys()
        for x in keys:
            v, g = env[x]
            old = self.seen.get(x)
            if old is None or old[0] is not v:
                self.erased = self.erased.set(x, erase(v))
            elif old[1] == g:
                continue
            self.seen[x] = (v, g)
            try:
                self.gamma[x] = (check_env_entry(self.u, self.table, x, v, g), g)
                self.errors.pop(x, None)
            except CheckError as exc:
                self.errors[x] = exc
                self.gamma.pop(x, None)
        self.env = env

    def first_error(self) -> Optional[CheckError]:
        """The t-env failure of the first failing entry, in binding order."""
        if not self.errors:
            return None
        return next(self.errors[x] for x in self.env if x in self.errors)


def check_run(u: GradeUniverse, ann: ClassTable, run: RunResult, expected: GradedType,
              lower_grades: Optional[list[KindedGrade]] = None) -> list[str]:
    """Check the three soundness statements over one traced run of the
    elaborated table ``ann`` at ``expected.grade``.

    Each trace configuration is typed (type preservation) and erased, its
    environment incrementally, and each step goes through ``check_step``.
    Its environment check is progress on the typing contexts, since t-env
    types a configuration in its environment's domain at the stored
    grades; its standard-step check is subject reduction.  A stuck outcome
    breaks soundness-may."""
    failures: list[str] = []
    std_table = erase_table(ann)
    walk = _EnvWalk(u, ann)
    prev = None
    for i, tentry in enumerate(run.trace):
        cfg = tentry.config
        walk.advance(cfg.env)
        try:
            error = walk.first_error()
            if error is not None:
                raise error
            check_conf(u, ann, cfg.expr, walk.gamma, expected)
        except CheckError as exc:
            failures.append(f"type not preserved at step {i}: {exc.diag.msg}")
        erased = StdConfig(erase(cfg.expr), walk.erased)
        if prev is not None:
            errs = check_step(u, ann, std_table, prev[0], cfg, prev[1], erased,
                              expected.grade, tentry.info, lower_grades)
            failures.extend(f"step {i}: {e}" for e in errs)
        prev = cfg, erased
    if run.outcome == "stuck":
        reason = run.reason.render() if run.reason else "?"
        failures.append(f"soundness-may: accepted program stuck after {run.steps} "
                        f"steps: {reason}")
    return failures


def check_step(u: GradeUniverse, table: ClassTable, std_table: ClassTable,
               before: GradedConfig, after: GradedConfig,
               erased_before: StdConfig, erased_after: StdConfig, grade: KindedGrade,
               info: StepInfo, lower_grades: Optional[list[KindedGrade]] = None) -> list[str]:
    """Check one recorded step: environments only grow and grades only
    shrink; the step replays at every sampled lower grade; the erasure of
    ``after`` is the standard step, under ``std_table`` (the erasure of
    the annotated ``table``), of the erasure of ``before``.

    When ``after``'s environment is ``before``'s plus bindings, only the
    bindings set on the way are compared; the others are the same."""
    violations = []
    env_before, env_after = before.env, after.env
    keys = env_after.changes_since(env_before)
    if keys is None:
        keys = env_before.keys()
    for x in keys:
        if x not in env_before:
            continue
        if x not in env_after:
            violations.append(f"dom shrank: {x} disappeared")
            continue
        if erased_after.env.get(x) != erased_before.env.get(x):
            violations.append(f"value of {x} changed")
        g, g2 = env_before[x][1], env_after[x][1]
        if not u.leq(g2, g):
            violations.append(f"grade of {x} grew: {g} -> {g2}")

    replay_policy = (FixedWitness(info.consumed, info.residual) if info.rule == "var"
                     else Minimal())
    for s in (lower_grades or []):
        if not u.leq(s, grade):
            continue
        res = graded_config_step(u, table, before, s, replay_policy)
        if res.kind != "step" or all(c != after for c, _ in res.successors):
            violations.append(f"step does not replay at lower grade {s}")

    try:
        std_next = std_step(std_table, erased_before)
    except StdStuck as exc:
        violations.append(f"erased step is stuck: {exc}")
        return violations
    if std_next != erased_after:
        violations.append("erasure of the step is not the standard step")
    return violations


def lower_grade_samples(u: GradeUniverse, grade: KindedGrade) -> list[KindedGrade]:
    """Deterministic sample of at most ``LOWER_GRADE_SAMPLES`` grades below
    the given one (inclusive)."""
    out = [g for g in u.sample_pool(nat_prefix=6) if u.leq(g, grade)]
    out.append(grade)
    return list(dict.fromkeys(out))[:LOWER_GRADE_SAMPLES]


# ---------------------------------------------------------------------------
# Corpus

@dataclass(eq=False, repr=False)
class CorpusEntry:
    """A corpus program with its manifest, its universe and its parse."""

    name: str
    path: Path
    manifest: dict
    universe: GradeUniverse
    program: Program = None


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


@dataclass(eq=False, repr=False)
class EntryOutcome:
    """The failures found checking one corpus entry; none when it passed."""

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


def _run(entry: CorpusEntry, ready: Annotated | Elaborated) -> RunResult:
    return graded_run(entry.universe, ready.table, GradedConfig(ready.main),
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


def theorem_suite(entry: CorpusEntry, fuel: int = 10_000) -> EntryOutcome:
    """Progress, type preservation, the per-step properties, soundness-may
    and subject reduction for one accepted program, over its one run."""
    u, program = entry.universe, entry.program
    diags, checked = elaborate_program(u, program)
    if diags:
        return EntryOutcome(entry.name, [])  # rejected entries have nothing to run
    run = graded_run(u, checked.table, GradedConfig(checked.main),
                     program.mainGrade, Minimal(), entry.manifest.get("fuel", fuel),
                     want_trace=True)
    lows = lower_grade_samples(u, program.mainGrade)
    return EntryOutcome(entry.name, check_run(u, checked.table, run, checked.type, lows))
