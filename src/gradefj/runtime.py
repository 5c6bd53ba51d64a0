"""Standard and grade-instrumented small-step reduction.

Both semantics work on configurations pairing an expression with an
environment; variable occurrences are replaced one at a time, so free
variables behave as consumable resources.  The instrumented reduction is
indexed by a grade: replacing a variable burns a nonzero amount of its
stored grade (at least the reduction grade), and a field can only be
extracted when the demanded grade fits within receiver-times-field.
Method calls and blocks bind fresh names: the first of base, base$0,
base$1, ... outside the environment's domain, which the environment finds
in O(1) from its count of bound names per base.  Both semantics pick them
from their own environments, so runs are reproducible and the erasure of
an instrumented run is literally a standard run.

``graded_step`` contracts one focused redex.  ``graded_config_step`` is
the step of a whole configuration: it decomposes the expression into a
redex and an evaluation context, calls ``graded_step`` and plugs each
contractum back, all in loops.  An instrumented run keeps the context
between steps as a persistent stack of frames: it calls ``graded_step``
on the redex it holds and refocuses from the contractum inside that
context, so its per-step cost is flat in both the length of the run and
the depth of the context.  ``std_step`` stays the plain recursive
definition: it is the independent reference that subject reduction is
checked against.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
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
    format_ann,
    is_value,
    subst,
    with_ascription,
)

_ABSENT = object()


class Env(Mapping):
    """A persistent, insertion-ordered map: ``set`` returns a new version
    and leaves every older version readable.

    Shallow binding (Baker, "Shallow binding makes functional arrays
    fast", 1991): the versions derived from one another share a single
    dict, owned by the version used last, and every other version holds a
    one-entry diff towards it: ``(key, value or _ABSENT, neighbour)``, read
    "I am my neighbour with ``key`` bound to ``value``".  Reading a version
    first reroots the dict to it, reversing the diffs on the way, so a run
    that only reads its newest version pays O(1) per ``set`` and per read.
    Iteration returns a snapshot, since reading another version of the
    same family moves the shared dict.  Equality compares the ordered item
    sequences.

    Keys are names.  Next to the shared dict, a family keeps the number of
    keys bound in it per base (the part of a name before ``$``), which
    ``fresh`` starts from."""

    __slots__ = ("_data", "_len", "_counts")

    def __init__(self, items=()):
        self._data = dict(items)
        self._len = len(self._data)
        self._counts = Counter(key.partition("$")[0] for key in self._data)

    def _store(self) -> dict:
        data = self._data
        if type(data) is dict:
            return data
        path = []
        node = self
        while type(node._data) is not dict:
            path.append(node)
            node = node._data[2]
        store, counts = node._data, self._counts
        for node in reversed(path):  # nearest the owner first
            key, value, owner = node._data
            old = store.get(key, _ABSENT)
            if value is _ABSENT:
                del store[key]
                counts[key.partition("$")[0]] -= 1
            else:
                store[key] = value
                if old is _ABSENT:
                    counts[key.partition("$")[0]] += 1
            owner._data = (key, old, node)
            node._data = store
        return store

    def set(self, key, value) -> "Env":
        """This map with ``key`` bound to ``value`` (appended when new)."""
        store = self._store()
        old = store.get(key, _ABSENT)
        store[key] = value
        if old is _ABSENT:
            self._counts[key.partition("$")[0]] += 1
        out = Env.__new__(Env)
        out._data, out._len, out._counts = store, len(store), self._counts
        self._data = (key, old, out)
        return out

    def fresh(self, base: str) -> str:
        """The first of base, base$0, base$1, ... not bound here.  When the
        n names bound here with this base are the first n of that sequence,
        as in every environment a run builds, it is the n-th, so the scan
        starts there."""
        store = self._store()
        k = self._counts[base]
        name = base if k == 0 else f"{base}${k - 1}"
        while name in store:
            k += 1
            name = f"{base}${k - 1}"
        return name

    def __getitem__(self, key):
        return self._store()[key]

    def get(self, key, default=None):
        return self._store().get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._store()

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(list(self._store()))

    def keys(self) -> list:
        return list(self._store())

    def items(self) -> list:
        return list(self._store().items())

    def values(self) -> list:
        return list(self._store().values())

    def _path_from(self, other: "Env") -> Optional[list]:
        """The diffs met walking from ``other`` to this version, which is
        made the owner first; None when the two share no dict."""
        self._store()
        diffs = []
        node = other
        while type(node._data) is not dict:
            diffs.append(node._data)
            node = node._data[2]
        return diffs if node is self else None

    def changes_since(self, older: "Env") -> Optional[list]:
        """The keys bound on the way from ``older`` to this version, in
        binding order, when this version is ``older`` plus ``set`` calls;
        None otherwise (another family, or a key missing on the way)."""
        diffs = older._path_from(self)
        if diffs is None or any(value is _ABSENT for _, value, _ in diffs):
            return None
        return list(dict.fromkeys(key for key, _, _ in reversed(diffs)))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Env):
            return NotImplemented
        if self._len != other._len:
            return False
        diffs = self._path_from(other)
        if diffs is None:
            return self.items() == other.items()
        # only the keys on the path between the two versions can differ;
        # the rest are the shared dict's, in the same places
        theirs = {}
        for key, value, _ in diffs:
            theirs.setdefault(key, value)
        mine = self._store()
        if any(mine.get(key, _ABSENT) != value for key, value in theirs.items()):
            return False
        if all(value is not _ABSENT for _, value, _ in diffs):
            return True  # no key came or went on the way: the order is the same
        # keys that came or went are at the ends; compare the tails' orders
        n = len(theirs)
        tail = list(islice(reversed(mine), n))
        return tail == list(islice(reversed(other._store()), n))

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"Env({dict(self.items())!r})"


@dataclass
class GradedConfig:
    """``expr`` under an environment of (value, grade) bindings."""
    expr: Expr
    env: Env = field(default_factory=Env)


@dataclass
class StdConfig:
    """``expr`` under an environment of value bindings."""
    expr: Expr
    env: Env = field(default_factory=Env)


# ---------------------------------------------------------------------------
# Stuck reasons

@dataclass
class ResourceExhausted:
    """Stuck: variable ``var`` cannot supply the grade demanded of it."""

    var: str
    available: Optional[KindedGrade]
    demanded: KindedGrade

    def render(self) -> str:
        if self.available is None:
            return f"ResourceExhausted: variable {self.var!r} is not in the environment"
        return (f"ResourceExhausted: variable {self.var!r} has {self.available}, "
                f"cannot burn {self.demanded}")


@dataclass
class FieldExtraction:
    """Stuck: a field's grade does not cover the grade demanded of it."""

    fieldName: str
    have: KindedGrade
    demanded: KindedGrade

    def render(self) -> str:
        return (f"FieldExtraction: field {self.fieldName!r} supports grade "
                f"{self.have}, demanded {self.demanded}")


@dataclass
class NoSuchMember:
    """Stuck: the receiver's class has no such field or method."""

    name: str

    def render(self) -> str:
        return f"NoSuchMember: {self.name}"


@dataclass
class NotAValue:
    """Stuck for another reason, which ``detail`` names."""

    detail: str

    def render(self) -> str:
        return f"NotAValue: {self.detail}"


StuckReason = Union[ResourceExhausted, FieldExtraction, NoSuchMember, NotAValue]


def reason_name(reason: StuckReason) -> str:
    return type(reason).__name__


# ---------------------------------------------------------------------------
# Consumption policies

class Minimal:
    """Burn exactly the reduction grade (its unit when reducing at zero)
    and keep a maximal residual: one successor for each, so several when
    the residual is ambiguous."""


@dataclass(eq=False, repr=False)
class Enumerate:
    """Yield every admissible (burned, residual) pair; on infinite kinds
    the burned amount ranges over grade, grade+1, ... up to the bound."""
    bound: int = 3


@dataclass(eq=False, repr=False)
class FixedWitness:
    """Replay a recorded variable consumption (used by step replaying)."""
    consumed: KindedGrade
    residual: KindedGrade


Policy = Union[Minimal, Enumerate, FixedWitness]


@dataclass
class StepInfo:
    """The rule a step applied and, for a variable, what it consumed and left."""

    rule: str
    var: Optional[str] = None
    consumed: Optional[KindedGrade] = None
    residual: Optional[KindedGrade] = None


@dataclass(eq=False, repr=False)
class StepResult:
    """A value, the successors of a step with how each was reached, or why it is stuck."""

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
        candidates = [u.intern(KindedGrade(stored.kind, v)) for v in elems]
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


_INVK, _BLOCK, _FIELD_ACCESS = StepInfo("invk"), StepInfo("block"), StepInfo("field-access")


def graded_step(u: GradeUniverse, table: ClassTable, e: Expr, env: Env,
                grade: KindedGrade, policy: Policy = Minimal()
                ) -> Union[list[tuple[Expr, Env, StepInfo]], StuckReason]:
    """Contract the focused redex ``e``, reduced at ``grade`` under ``env``:
    its successors as ``(contractum, env, StepInfo)`` triples, or the
    StuckReason.  Minimal yields one successor per maximal residual of a
    replaced variable, so at most one unless it is ambiguous.

    ``table`` holds the annotated method bodies.  Every contractum takes
    over the ascription of its redex, so a slot keeps its grade."""
    if isinstance(e, Var):
        entry = env.get(e.name)
        if entry is None:
            return ResourceExhausted(e.name, None, grade)
        value, stored = entry
        choices = _var_choices(u, grade, stored, policy)
        if not choices:
            return ResourceExhausted(e.name, stored, grade if grade != ZERO_D else ONE_D)
        contractum = with_ascription(value, e.ascription)
        return [(contractum, env.set(e.name, (value, left)),
                 StepInfo("var", e.name, burned, left)) for burned, left in choices]

    if isinstance(e, FieldAccess):
        recv = e.recv
        try:
            idx = table.field_index(recv.className, e.fieldName)
        except (UnknownClass, UnknownMember):
            return NoSuchMember(f"{recv.className}.{e.fieldName}")
        if idx >= len(recv.args):
            return NoSuchMember(f"{recv.className}.{e.fieldName}")
        have = u.mul(recv.ascription, recv.args[idx].ascription)
        if not u.leq(grade, have):
            return FieldExtraction(e.fieldName, have, grade)
        return [(with_ascription(recv.args[idx], e.ascription), env, _FIELD_ACCESS)]

    if isinstance(e, Invk):
        recv = e.recv
        try:
            params, body = table.mbody(recv.className, e.method)
        except (UnknownClass, UnknownMember):
            return NoSuchMember(f"{recv.className}.{e.method}")
        if len(params) != len(e.args):
            return NotAValue(f"arity mismatch calling {e.method}")
        mapping = {}
        for base, value in zip(("this",) + params, (recv,) + e.args):
            y = mapping[base] = env.fresh(base)
            env = env.set(y, (value, value.ascription))
        return [(with_ascription(subst(body, mapping), e.ascription), env, _INVK)]

    if isinstance(e, Block):
        init = e.init
        y = env.fresh(e.var)
        body = with_ascription(subst(e.body, {e.var: y}), e.ascription)
        return [(body, env.set(y, (init, init.ascription)), _BLOCK)]

    raise TypeError(e)


def graded_config_step(u: GradeUniverse, table: ClassTable, cfg: GradedConfig,
                       grade: KindedGrade, policy: Policy = Minimal()) -> StepResult:
    """One instrumented step of a whole configuration: decompose its
    expression into a redex and an evaluation context, contract the redex
    with graded_step and plug each contractum back into the context.  A
    slot child is reduced at the grade of its ascription."""
    redex, grade, ctx = _focus(u, cfg.expr, grade, None)
    if is_value(redex):
        return StepResult("value")
    result = graded_step(u, table, redex, cfg.env, grade, policy)
    if type(result) is not list:
        return StepResult("stuck", reason=result)
    return StepResult("step", [(GradedConfig(_plug(e, ctx), env), info)
                               for e, env, info in result])


# ---------------------------------------------------------------------------
# Evaluation contexts
#
# A context is a persistent linked stack of frames ``(parent, slot, grade,
# outer)``, innermost first; None is the empty context.  The hole is the
# subterm of ``parent`` in ``slot`` (see ``_subterm``) and ``grade`` is the
# parent's reduction grade.  Frames are never mutated, so the successors of
# one step share the context of their redex.

Context = Optional[tuple]


def _subterm(u: GradeUniverse, e: Expr, grade: KindedGrade):
    """``(slot, subterm, its reduction grade)`` for the first subterm of
    ``e`` that is not a value, in evaluation order; None when there is
    none, so that ``e`` is a redex or a value.  The slot is the argument
    index, -1 for an invocation's receiver and 0 for a field access's
    receiver and a block's initializer."""
    kind = type(e)
    if kind is Invk:
        if not is_value(e.recv):
            return -1, e.recv, e.recv.ascription
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                return i, arg, arg.ascription
        return None
    if kind is New:
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                return i, arg, u.mul(grade, arg.ascription)
        return None
    if kind is FieldAccess:
        child = e.recv
    elif kind is Block:
        child = e.init
    else:
        return None
    return None if is_value(child) else (0, child, child.ascription)


def _fill(parent: Expr, slot: int, child: Expr) -> Expr:
    """``parent`` with ``child`` in ``slot``."""
    if isinstance(parent, New):
        args = parent.args[:slot] + (child,) + parent.args[slot + 1:]
        return New(parent.className, args, parent.ascription, parent.pos)
    if isinstance(parent, Invk):
        if slot < 0:
            return Invk(child, parent.method, parent.args, parent.ascription, parent.pos)
        args = parent.args[:slot] + (child,) + parent.args[slot + 1:]
        return Invk(parent.recv, parent.method, args, parent.ascription, parent.pos)
    if isinstance(parent, FieldAccess):
        return FieldAccess(child, parent.fieldName, parent.ascription, parent.pos)
    return Block(parent.declClass, parent.declGrade, parent.var, child, parent.body,
                 parent.ascription, parent.pos)


def _focus(u: GradeUniverse, e: Expr, grade: KindedGrade,
           ctx: Context) -> tuple[Expr, KindedGrade, Context]:
    """Refocus: decompose ``e``, reduced at ``grade`` in the hole of
    ``ctx``, into ``(redex, its grade, its context)``.  A value fills the
    innermost hole, as often as the parent it completes is a value too,
    and decomposition goes on from the first parent that is not; a value
    is returned only with the empty context, when it is the whole term."""
    while ctx is not None and is_value(e):
        parent, slot, grade, ctx = ctx
        e = _fill(parent, slot, e)
    sub = _subterm(u, e, grade)
    while sub is not None:
        slot, child, child_grade = sub
        ctx = (e, slot, grade, ctx)
        e, grade = child, child_grade
        sub = _subterm(u, e, grade)
    return e, grade, ctx


def _plug(e: Expr, ctx: Context) -> Expr:
    """The whole term: ``e`` in the hole of ``ctx``."""
    while ctx is not None:
        parent, slot, _, ctx = ctx
        e = _fill(parent, slot, e)
    return e


# ---------------------------------------------------------------------------
# Standard reduction

def std_step(table: ClassTable, cfg: StdConfig) -> Optional[StdConfig]:
    """One standard step, or None when the expression is a value.

    Raises StdStuck when no rule applies.
    """
    e, env = cfg.expr, cfg.env

    if isinstance(e, Var):
        if e.name not in env:
            raise StdStuck(f"unbound variable {e.name!r}")
        return StdConfig(env[e.name], env)

    if isinstance(e, FieldAccess):
        if is_value(e.recv):
            try:
                idx = table.field_index(e.recv.className, e.fieldName)
            except (UnknownClass, UnknownMember) as exc:
                raise StdStuck(str(exc)) from None
            if idx >= len(e.recv.args):
                raise StdStuck(f"missing field {e.fieldName!r}")
            return StdConfig(e.recv.args[idx], env)
        sub = std_step(table, StdConfig(e.recv, env))
        if sub is None:
            raise StdStuck("field receiver is a value")
        return StdConfig(FieldAccess(sub.expr, e.fieldName, None, e.pos), sub.env)

    if isinstance(e, New):
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                sub = std_step(table, StdConfig(arg, env))
                if sub is None:
                    raise StdStuck("constructor argument is a value")
                args = e.args[:i] + (sub.expr,) + e.args[i + 1:]
                return StdConfig(New(e.className, args, None, e.pos), sub.env)
        return None

    if isinstance(e, Invk):
        if not is_value(e.recv):
            sub = std_step(table, StdConfig(e.recv, env))
            if sub is None:
                raise StdStuck("receiver is a value")
            return StdConfig(Invk(sub.expr, e.method, e.args, None, e.pos), sub.env)
        for i, arg in enumerate(e.args):
            if not is_value(arg):
                sub = std_step(table, StdConfig(arg, env))
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
        mapping = {}
        for base, value in zip(("this",) + params, (e.recv,) + e.args):
            y = mapping[base] = env.fresh(base)
            env = env.set(y, value)
        return StdConfig(subst(body, mapping), env)

    if isinstance(e, Block):
        if is_value(e.init):
            y = env.fresh(e.var)
            return StdConfig(subst(e.body, {e.var: y}), env.set(y, e.init))
        sub = std_step(table, StdConfig(e.init, env))
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
    """One configuration of a run and the step that reached it."""

    config: GradedConfig
    info: Optional[StepInfo]  # None on the initial configuration

    def render(self, index: int, grade: KindedGrade) -> str:
        rule = self.info.rule if self.info else "-"
        env = ",".join(f"{x}:{g}" for x, (_, g) in self.config.env.items())
        return (f"#{index} [{rule}] grade={grade} env={{{env}}} "
                f"expr={format_ann(self.config.expr)}")


@dataclass
class RunResult:
    """How a run ended, after how many steps, and in which configuration."""

    outcome: str  # "final" | "stuck" | "fuel"
    steps: int
    config: GradedConfig
    reason: Optional[StuckReason] = None
    trace: Optional[list[TraceEntry]] = None

    def final_env_grades(self) -> dict[str, str]:
        return {x: str(g) for x, (_, g) in self.config.env.items()}


def graded_run(u: GradeUniverse, table: ClassTable, cfg: GradedConfig,
               grade: KindedGrade, policy: Policy = Minimal(),
               fuel: int = 100_000, want_trace: bool = False) -> RunResult:
    """Iterate graded_step on the focused redex.  With Enumerate,
    depth-first search over the variable-consumption choice points returns
    the first completed run; when every schedule sticks, the reason from
    the deepest branch is reported.  Any other policy follows the first
    successor of each step.

    The run keeps the evaluation context between steps (refocusing,
    Danvy and Nielsen 2004): it contracts the redex it holds and
    decomposes the contractum inside the context already at hand, with no
    whole configuration per step.  The whole term is plugged only for the
    result and the trace."""
    if isinstance(policy, Enumerate):
        return _search_run(u, table, cfg, grade, policy, fuel, want_trace)
    trace = [TraceEntry(cfg, None)] if want_trace else None
    env = cfg.env
    e, grade, ctx = _focus(u, cfg.expr, grade, None)
    del cfg  # an older environment version keeps every newer one alive
    steps = 0
    while steps < fuel:
        if ctx is None and is_value(e):
            return RunResult("final", steps, _whole(e, ctx, env, trace), trace=trace)
        result = graded_step(u, table, e, env, grade, policy)
        if type(result) is not list:
            return RunResult("stuck", steps, _whole(e, ctx, env, trace),
                             reason=result, trace=trace)
        e, env, info = result[0]
        e, grade, ctx = _focus(u, e, grade, ctx)
        if trace is not None:
            trace.append(TraceEntry(GradedConfig(_plug(e, ctx), env), info))
        steps += 1
    return RunResult("fuel", steps, _whole(e, ctx, env, trace), trace=trace)


def _whole(e: Expr, ctx: Context, env: Env, trace) -> GradedConfig:
    """The whole configuration a run is at, focused on ``e`` in ``ctx``:
    the last trace entry's, when there is a trace."""
    if trace is not None:
        return trace[-1].config
    return GradedConfig(_plug(e, ctx), env)


def _search_run(u, table, cfg, grade, policy, fuel, want_trace) -> RunResult:
    """Depth-first search with an explicit stack of [successors, index of
    the next one to try, their depth, their redex's grade and context]
    frames, kept only while a successor is left to try; the trace is one
    list, truncated on backtracking.  Each node tried, a value too, costs
    one unit of fuel."""
    budget = fuel
    best_reason, best_depth = None, -1
    trace = [TraceEntry(cfg, None)] if want_trace else None
    frames: list[list] = []
    env = cfg.env
    e, grade, ctx = _focus(u, cfg.expr, grade, None)
    depth = 0
    while True:
        if budget <= 0:
            return RunResult("fuel", depth, _whole(e, ctx, env, trace), trace=trace)
        budget -= 1
        if ctx is None and is_value(e):
            return RunResult("final", depth, _whole(e, ctx, env, trace), trace=trace)
        result = graded_step(u, table, e, env, grade, policy)
        if type(result) is list:
            frames.append([result, 0, depth + 1, grade, ctx])
        elif depth > best_depth:
            best_reason, best_depth = result, depth
        if not frames:
            if trace is not None:
                del trace[1:]
            return RunResult("stuck", best_depth, cfg, reason=best_reason, trace=trace)
        frame = frames[-1]
        succs, i, depth, grade, ctx = frame
        e, env, info = succs[i]
        if i + 1 == len(succs):
            frames.pop()
        else:
            frame[1] = i + 1
        e, grade, ctx = _focus(u, e, grade, ctx)
        if trace is not None:
            del trace[depth:]
            trace.append(TraceEntry(GradedConfig(_plug(e, ctx), env), info))
