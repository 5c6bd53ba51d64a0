"""Standard and grade-instrumented small-step reduction.

Both semantics work on configurations pairing an expression with an
environment; variable occurrences are replaced one at a time, so free
variables behave as consumable resources.  The instrumented reduction is
indexed by a grade: replacing a variable burns a nonzero amount of its
stored grade (at least the reduction grade), and a field can only be
extracted when the demanded grade fits within receiver-times-field.
Method calls and blocks bind fresh names, chosen deterministically from
the environment's domain so that runs are reproducible and the erasure
of an instrumented run is literally a standard run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .hetero import GradeUniverse, KindedGrade, ONE_D, ZERO_D
from .syntax import (
    Block,
    ClassTable,
    Expr,
    FieldAccess,
    Invk,
    New,
    UnknownClass,
    UnknownMember,
    Var,
    erase,
    format_ann,
    is_value,
    subst,
    with_ascription,
)

GradedEnv = dict[str, tuple[Expr, KindedGrade]]
StdEnv = dict[str, Expr]


@dataclass(frozen=True)
class GradedConfig:
    expr: Expr
    env: tuple[tuple[str, tuple[Expr, KindedGrade]], ...]

    @staticmethod
    def make(expr: Expr, env: GradedEnv) -> "GradedConfig":
        return GradedConfig(expr, tuple(env.items()))

    def env_dict(self) -> GradedEnv:
        return dict(self.env)


@dataclass(frozen=True)
class StdConfig:
    expr: Expr
    env: tuple[tuple[str, Expr], ...]

    @staticmethod
    def make(expr: Expr, env: StdEnv) -> "StdConfig":
        return StdConfig(expr, tuple(env.items()))

    def env_dict(self) -> StdEnv:
        return dict(self.env)


def erase_config(cfg: GradedConfig) -> StdConfig:
    return StdConfig(erase(cfg.expr),
                     tuple((x, erase(v)) for x, (v, _) in cfg.env))


def fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    k = 0
    while f"{base}${k}" in taken:
        k += 1
    return f"{base}${k}"


# ---------------------------------------------------------------------------
# Stuck reasons

@dataclass(frozen=True)
class ResourceExhausted:
    var: str
    available: Optional[KindedGrade]
    demanded: KindedGrade

    def render(self) -> str:
        if self.available is None:
            return f"ResourceExhausted: variable {self.var!r} is not in the environment"
        return (f"ResourceExhausted: variable {self.var!r} has {self.available}, "
                f"cannot burn {self.demanded}")


@dataclass(frozen=True)
class FieldExtraction:
    fieldName: str
    have: KindedGrade
    demanded: KindedGrade

    def render(self) -> str:
        return (f"FieldExtraction: field {self.fieldName!r} supports grade "
                f"{self.have}, demanded {self.demanded}")


@dataclass(frozen=True)
class NoSuchMember:
    name: str

    def render(self) -> str:
        return f"NoSuchMember: {self.name}"


@dataclass(frozen=True)
class NotAValue:
    detail: str

    def render(self) -> str:
        return f"NotAValue: {self.detail}"


StuckReason = Union[ResourceExhausted, FieldExtraction, NoSuchMember, NotAValue]


def reason_name(reason: StuckReason) -> str:
    return type(reason).__name__


# ---------------------------------------------------------------------------
# Consumption policies

@dataclass(frozen=True)
class Minimal:
    """Burn exactly the reduction grade (its unit when reducing at zero)
    and keep the canonical maximal residual."""


@dataclass(frozen=True)
class Enumerate:
    """Yield every admissible (burned, residual) pair; on infinite kinds
    the burned amount ranges over grade, grade+1, ... up to the bound."""
    bound: int = 3


@dataclass(frozen=True)
class FixedWitness:
    """Replay a recorded variable consumption (used by step replaying)."""
    consumed: KindedGrade
    residual: KindedGrade


Policy = Union[Minimal, Enumerate, FixedWitness]


@dataclass(frozen=True)
class StepInfo:
    rule: str
    var: Optional[str] = None
    consumed: Optional[KindedGrade] = None
    residual: Optional[KindedGrade] = None


@dataclass
class StepResult:
    kind: str  # "value" | "step" | "stuck"
    successors: list[tuple[GradedConfig, StepInfo]] = field(default_factory=list)
    reason: Optional[StuckReason] = None


def _var_choices(u: GradeUniverse, grade: KindedGrade, stored: KindedGrade,
                 policy: Policy) -> list[tuple[KindedGrade, KindedGrade]]:
    """Admissible (burned, residual) pairs for one variable replacement."""
    if isinstance(policy, FixedWitness):
        r1 = policy.consumed
        if r1 == ZERO_D or not u.leq(grade, r1):
            return []
        summed = u.add(policy.residual, r1)
        return [(r1, policy.residual)] if u.leq(summed, stored) else []
    if isinstance(policy, Minimal):
        burn = grade if grade != ZERO_D else ONE_D
        return [(burn, s) for s in u.residual_candidates(stored, burn)]
    out = []
    alg = u.algebra(stored.kind)
    elems = alg.elements()
    if elems is not None:
        candidates = [KindedGrade(stored.kind, v) for v in elems]
        if grade not in candidates:
            candidates.append(grade)
    else:
        candidates = [grade if grade != ZERO_D else ONE_D]
        for _ in range(policy.bound - 1):
            candidates.append(u.add(candidates[-1], ONE_D))
    for r1 in candidates:
        if r1 == ZERO_D or not u.leq(grade, r1):
            continue
        for s1 in u.residual_candidates(stored, r1):
            out.append((r1, s1))
    return out


def graded_step(u: GradeUniverse, table: ClassTable, cfg: GradedConfig,
                grade: KindedGrade, policy: Policy = Minimal()) -> StepResult:
    """One instrumented step; Minimal yields at most one successor.

    ``table`` holds the annotated method bodies.  A slot child is reduced
    at the grade of its ascription, and every contractum takes over the
    ascription of its redex, so the slot keeps its grade."""
    e = cfg.expr
    env = cfg.env_dict()

    if isinstance(e, Var):
        if e.name not in env:
            return StepResult("stuck", reason=ResourceExhausted(e.name, None, grade))
        value, stored = env[e.name]
        choices = _var_choices(u, grade, stored, policy)
        if not choices:
            demanded = grade if grade != ZERO_D else ONE_D
            return StepResult("stuck",
                              reason=ResourceExhausted(e.name, stored, demanded))
        contractum = with_ascription(value, e.ascription)
        succs = []
        for burned, left in choices:
            new_env = dict(env)
            new_env[e.name] = (value, left)
            succs.append((GradedConfig.make(contractum, new_env),
                          StepInfo("var", e.name, burned, left)))
        return StepResult("step", succs)

    if isinstance(e, FieldAccess):
        recv = e.recv
        if is_value(recv):
            try:
                idx = table.field_index(recv.className, e.fieldName)
            except (UnknownClass, UnknownMember):
                return StepResult("stuck", reason=NoSuchMember(
                    f"{recv.className}.{e.fieldName}"))
            if idx >= len(recv.args):
                return StepResult("stuck", reason=NoSuchMember(
                    f"{recv.className}.{e.fieldName}"))
            have = u.mul(recv.ascription, recv.args[idx].ascription)
            if not u.leq(grade, have):
                return StepResult("stuck",
                                  reason=FieldExtraction(e.fieldName, have, grade))
            field_value = with_ascription(recv.args[idx], e.ascription)
            return StepResult("step", [(GradedConfig.make(field_value, env),
                                        StepInfo("field-access"))])
        sub = graded_step(u, table, GradedConfig.make(recv, env), recv.ascription, policy)
        return _wrap(sub, lambda r: FieldAccess(r, e.fieldName, e.ascription, e.pos))

    if isinstance(e, New):
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                sub = graded_step(u, table, GradedConfig.make(arg, env),
                                  u.mul(grade, arg.ascription), policy)
                return _wrap(sub, lambda r, i=i: New(
                    e.className, e.args[:i] + (r,) + e.args[i + 1:], e.ascription, e.pos))
        return StepResult("value")

    if isinstance(e, Invk):
        recv = e.recv
        if not is_value(recv):
            sub = graded_step(u, table, GradedConfig.make(recv, env), recv.ascription,
                              policy)
            return _wrap(sub, lambda r: Invk(r, e.method, e.args, e.ascription, e.pos))
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                sub = graded_step(u, table, GradedConfig.make(arg, env),
                                  arg.ascription, policy)
                return _wrap(sub, lambda r, i=i: Invk(
                    recv, e.method, e.args[:i] + (r,) + e.args[i + 1:], e.ascription,
                    e.pos))
        try:
            params, body = table.mbody(recv.className, e.method)
        except (UnknownClass, UnknownMember):
            return StepResult("stuck", reason=NoSuchMember(
                f"{recv.className}.{e.method}"))
        if len(params) != len(e.args):
            return StepResult("stuck", reason=NotAValue(
                f"arity mismatch calling {e.method}"))
        new_env = dict(env)
        mapping = {}
        for base, value in zip(("this",) + params, (recv,) + e.args):
            y = fresh_name(base, new_env)
            mapping[base] = y
            new_env[y] = (value, value.ascription)
        body = with_ascription(subst(body, mapping), e.ascription)
        return StepResult("step", [(GradedConfig.make(body, new_env), StepInfo("invk"))])

    if isinstance(e, Block):
        init = e.init
        if is_value(init):
            new_env = dict(env)
            y = fresh_name(e.var, new_env)
            new_env[y] = (init, init.ascription)
            body = with_ascription(subst(e.body, {e.var: y}), e.ascription)
            return StepResult("step", [(GradedConfig.make(body, new_env),
                                        StepInfo("block"))])
        sub = graded_step(u, table, GradedConfig.make(init, env), init.ascription, policy)
        return _wrap(sub, lambda r: Block(e.declClass, e.declGrade, e.var, r, e.body,
                                          e.ascription, e.pos))

    raise TypeError(e)


def _wrap(sub: StepResult, rebuild) -> StepResult:
    if sub.kind == "value":
        return StepResult("stuck", reason=NotAValue("contextual subterm is a value"))
    if sub.kind == "stuck":
        return sub
    succs = [(GradedConfig(rebuild(c.expr), c.env), info) for c, info in sub.successors]
    return StepResult("step", succs)


# ---------------------------------------------------------------------------
# Standard reduction

def std_step(table: ClassTable, cfg: StdConfig) -> Optional[StdConfig]:
    """One standard step, or None when the expression is a value.

    Raises StdStuck when no rule applies.
    """
    e = cfg.expr
    env = cfg.env_dict()

    if isinstance(e, Var):
        if e.name not in env:
            raise StdStuck(f"unbound variable {e.name!r}")
        return StdConfig.make(env[e.name], env)

    if isinstance(e, FieldAccess):
        if is_value(e.recv):
            try:
                idx = table.field_index(e.recv.className, e.fieldName)
            except (UnknownClass, UnknownMember) as exc:
                raise StdStuck(str(exc)) from None
            if idx >= len(e.recv.args):
                raise StdStuck(f"missing field {e.fieldName!r}")
            return StdConfig.make(e.recv.args[idx], env)
        sub = std_step(table, StdConfig.make(e.recv, env))
        if sub is None:
            raise StdStuck("field receiver is a value")
        return StdConfig(FieldAccess(sub.expr, e.fieldName, None, e.pos), sub.env)

    if isinstance(e, New):
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                sub = std_step(table, StdConfig.make(arg, env))
                if sub is None:
                    raise StdStuck("constructor argument is a value")
                args = e.args[:i] + (sub.expr,) + e.args[i + 1:]
                return StdConfig(New(e.className, args, None, e.pos), sub.env)
        return None

    if isinstance(e, Invk):
        if not is_value(e.recv):
            sub = std_step(table, StdConfig.make(e.recv, env))
            if sub is None:
                raise StdStuck("receiver is a value")
            return StdConfig(Invk(sub.expr, e.method, e.args, None, e.pos), sub.env)
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                sub = std_step(table, StdConfig.make(arg, env))
                if sub is None:
                    raise StdStuck("argument is a value")
                args = e.args[:i] + (sub.expr,) + e.args[i + 1:]
                return StdConfig(Invk(e.recv, e.method, args, None, e.pos), sub.env)
        try:
            params, body = table.mbody(e.recv.className, e.method)
        except (UnknownClass, UnknownMember) as exc:
            raise StdStuck(str(exc)) from None
        if len(params) != len(e.args):
            raise StdStuck(f"arity mismatch calling {e.method}")
        new_env = dict(env)
        mapping = {}
        for base, value in zip(("this",) + params, (e.recv,) + e.args):
            y = fresh_name(base, new_env)
            mapping[base] = y
            new_env[y] = value
        return StdConfig.make(subst(body, mapping), new_env)

    if isinstance(e, Block):
        if is_value(e.init):
            new_env = dict(env)
            y = fresh_name(e.var, new_env)
            new_env[y] = e.init
            return StdConfig.make(subst(e.body, {e.var: y}), new_env)
        sub = std_step(table, StdConfig.make(e.init, env))
        if sub is None:
            raise StdStuck("block initializer is a value")
        return StdConfig(Block(e.declClass, e.declGrade, e.var, sub.expr, e.body,
                               None, e.pos), sub.env)

    raise TypeError(e)


class StdStuck(Exception):
    pass


def std_run(table: ClassTable, cfg: StdConfig, fuel: int = 100_000) -> tuple[str, StdConfig, int]:
    """Run to a value ('final'), stuck ('stuck') or out of fuel ('fuel')."""
    steps = 0
    while steps < fuel:
        if is_value(cfg.expr):
            return "final", cfg, steps
        try:
            nxt = std_step(table, cfg)
        except StdStuck:
            return "stuck", cfg, steps
        assert nxt is not None
        cfg = nxt
        steps += 1
    return "fuel", cfg, steps


# ---------------------------------------------------------------------------
# Instrumented runs

@dataclass
class TraceEntry:
    config: GradedConfig
    info: Optional[StepInfo]  # None on the initial configuration

    def render(self, index: int, grade: KindedGrade) -> str:
        rule = self.info.rule if self.info else "-"
        env = ",".join(f"{x}:{g}" for x, (_, g) in self.config.env)
        return (f"#{index} [{rule}] grade={grade} env={{{env}}} "
                f"expr={format_ann(self.config.expr)}")


@dataclass
class RunResult:
    outcome: str  # "final" | "stuck" | "fuel"
    steps: int
    config: GradedConfig
    reason: Optional[StuckReason] = None
    trace: Optional[list[TraceEntry]] = None
    stuck_schedules: Optional[list[tuple[int, StuckReason]]] = None

    def final_env_grades(self) -> dict[str, str]:
        return {x: str(g) for x, (_, g) in self.config.env}


def graded_run(u: GradeUniverse, table: ClassTable, cfg: GradedConfig,
               grade: KindedGrade, policy: Policy = Minimal(),
               fuel: int = 100_000, want_trace: bool = False,
               want_stuck_schedules: bool = False) -> RunResult:
    """Iterate graded_step.  With Enumerate, depth-first search over the
    variable-consumption choice points returns the first completed run;
    when every schedule sticks, the reason from the deepest branch is
    reported (and with ``want_stuck_schedules`` each exhausted branch's
    depth and reason)."""
    if isinstance(policy, Enumerate):
        return _search_run(u, table, cfg, grade, policy, fuel, want_trace,
                           want_stuck_schedules)
    trace = [TraceEntry(cfg, None)] if want_trace else None
    steps = 0
    while steps < fuel:
        result = graded_step(u, table, cfg, grade, policy)
        if result.kind == "value":
            return RunResult("final", steps, cfg, trace=trace)
        if result.kind == "stuck":
            return RunResult("stuck", steps, cfg, reason=result.reason, trace=trace)
        (cfg, info) = result.successors[0]
        if trace is not None:
            trace.append(TraceEntry(cfg, info))
        steps += 1
    return RunResult("fuel", steps, cfg, trace=trace)


def _search_run(u, table, cfg, grade, policy, fuel, want_trace,
                want_stuck_schedules=False) -> RunResult:
    budget = [fuel]
    best_stuck: list = [None, -1]  # (reason, depth)
    schedules: list[tuple[int, StuckReason]] = []

    def dfs(cfg, depth, trace):
        if budget[0] <= 0:
            return RunResult("fuel", depth, cfg, trace=trace)
        budget[0] -= 1
        result = graded_step(u, table, cfg, grade, policy)
        if result.kind == "value":
            return RunResult("final", depth, cfg, trace=trace)
        if result.kind == "stuck":
            if depth > best_stuck[1]:
                best_stuck[0], best_stuck[1] = result.reason, depth
            if want_stuck_schedules:
                schedules.append((depth, result.reason))
            return None
        for nxt, info in result.successors:
            sub_trace = trace + [TraceEntry(nxt, info)] if trace is not None else None
            out = dfs(nxt, depth + 1, sub_trace)
            if out is not None:
                return out
        return None

    initial = [TraceEntry(cfg, None)] if want_trace else None
    out = dfs(cfg, 0, initial)
    if out is not None:
        if want_stuck_schedules:
            out.stuck_schedules = schedules
        return out
    return RunResult("stuck", best_stuck[1], cfg, reason=best_stuck[0],
                     trace=initial,
                     stuck_schedules=schedules if want_stuck_schedules else None)
