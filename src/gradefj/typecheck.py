"""Graded type checking with elaboration by slot ascription.

The checker runs in checking mode: the expected class and grade flow down
as two values.  Classes flow up only from receivers, whose class a member
lookup needs first; one walk synthesises each receiver's class once.
Where the typing rules leave a grade free, it picks the least admissible
one (the expected grade at variables, the canonical unit on field-access
receivers unless an ascription overrides it); every other slot grade is
forced by field, method and block declarations, so elaboration is just a
matter of writing those grades down as the slot children's ascriptions.
A fully ascribed term elaborates to itself, so the same ``check`` types
source programs and the annotated configurations of a run.  Subsumption
is folded into each construct as final subtype/context checks, keeping
checking syntax directed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

from .hetero import GradeUniverse, KindedGrade, ONE_D, ZERO_D
from .syntax import (
    Block,
    ClassTable,
    Expr,
    FieldAccess,
    GradedType,
    Invk,
    MethodDecl,
    New,
    OBJECT,
    Pos,
    Program,
    UnknownClass,
    UnknownMember,
    Var,
    free_vars,
    gtype_leq,
    is_value,
    with_ascription,
)

# context entry: variable -> (class name, grade)
CoeffectCtx = dict[str, tuple[str, KindedGrade]]
TypeEnv = dict[str, str]


@dataclass
class CheckDiag:
    """One diagnostic: the rule, the kind of error, a message and a position."""

    rule: str
    kind: str
    msg: str
    pos: Pos = field(default=(0, 0))

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.pos[0]}:{self.pos[1]}: [{self.rule}] {self.msg}"

    def to_json(self) -> dict:
        return {"rule": self.rule, "kind": self.kind, "msg": self.msg,
                "line": self.pos[0], "col": self.pos[1]}


class CheckError(Exception):
    def __init__(self, diag: CheckDiag):
        super().__init__(diag.render())
        self.diag = diag


def _fail(rule: str, kind: str, msg: str, pos: Pos = (0, 0)):
    raise CheckError(CheckDiag(rule, kind, msg, pos))


@dataclass(eq=False, repr=False)
class TypingResult:
    """The context an expression needs and its elaboration."""

    ctx: CoeffectCtx
    elaborated: Expr


# ---------------------------------------------------------------------------
# Coeffect-context operations

def ctx_leq(u: GradeUniverse, c1: CoeffectCtx, c2: CoeffectCtx) -> bool:
    """Pointwise order; variables missing on the left count as zero."""
    for x, (cls, g) in c1.items():
        if x not in c2:
            return False
        cls2, g2 = c2[x]
        if cls2 != cls or not u.leq(g, g2):
            return False
    return True


def ctx_add(u: GradeUniverse, c1: CoeffectCtx, c2: CoeffectCtx,
            rule: str = "ctx", pos: Pos = (0, 0)) -> CoeffectCtx:
    """Pointwise sum; contexts are never changed, so an empty side gives the other."""
    if not c1 or not c2:
        return c1 or c2
    out = dict(c1)
    for x, (cls, g) in c2.items():
        if x in out:
            cls1, g1 = out[x]
            if cls1 != cls:
                _fail(rule, "TypeMismatch",
                      f"variable {x!r} used at both class {cls1} and class {cls}", pos)
            out[x] = (cls, u.add(g1, g))
        else:
            out[x] = (cls, g)
    return out


_UNBOUND = object()


def _bind(env: TypeEnv, var: str, cls: str) -> object:
    """Bind ``var`` to ``cls`` in ``env``, a block scope in O(1); the class
    it shadows (or _UNBOUND) is what ``_unbind`` puts back.  A walk extends
    one dict and undoes each binding on the way out, instead of copying the
    dict at every block."""
    old = env.get(var, _UNBOUND)
    env[var] = cls
    return old


def _unbind(env: TypeEnv, var: str, old) -> None:
    if old is _UNBOUND:
        del env[var]
    else:
        env[var] = old


# ---------------------------------------------------------------------------
# Class synthesis (classes flow up, once per walk)

def infer_class(table: ClassTable, env: TypeEnv, e: Expr,
                classes: dict[int, str] | None = None) -> str:
    """The class of ``e``.  ``classes`` records, by node identity, the class
    of each field access, invocation and block synthesised without error;
    the walk that checks a term passes one record, so each receiver's class
    is synthesised once and diagnostics come in the order a fresh one gives.
    A block's body is typed under ``env`` extended in place (``_bind``)."""
    if isinstance(e, Var):
        if e.name not in env:
            _fail("t-var", "UnknownVariable", f"unknown variable {e.name!r}", e.pos)
        return env[e.name]
    if isinstance(e, New):
        if not table.has_class(e.className):
            _fail("t-new", "UnknownClass", f"unknown class {e.className!r}", e.pos)
        return e.className
    if classes is None:
        classes = {}
    cls = classes.get(id(e))
    if cls is not None:
        return cls
    if isinstance(e, FieldAccess):
        recv_cls = infer_class(table, env, e.recv, classes)
        try:
            cls = table.field(recv_cls, e.fieldName).className
        except UnknownMember as exc:
            _fail("t-field-access", "UnknownMember", str(exc), e.pos)
    elif isinstance(e, Invk):
        recv_cls = infer_class(table, env, e.recv, classes)
        try:
            cls = table.mtype(recv_cls, e.method).returnType.className
        except UnknownMember as exc:
            _fail("t-invk", "UnknownMember", str(exc), e.pos)
    elif isinstance(e, Block):
        if not table.has_class(e.declClass):
            _fail("t-block", "UnknownClass", f"unknown class {e.declClass!r}", e.pos)
        old = _bind(env, e.var, e.declClass)
        try:
            cls = infer_class(table, env, e.body, classes)
        finally:
            _unbind(env, e.var, old)
    else:
        raise TypeError(e)
    classes[id(e)] = cls
    return cls


# ---------------------------------------------------------------------------
# Checking source expressions (check + elaborate)

def _require_subclass(table: ClassTable, sub: str, sup: str, rule: str, pos: Pos):
    try:
        ok = table.subclass_of(sub, sup)
    except UnknownClass as exc:
        _fail(rule, "UnknownClass", str(exc), pos)
    if not ok:
        _fail(rule, "TypeMismatch", f"class {sub} is not a subclass of {sup}", pos)


def _no_ascription(e: Expr, rule: str):
    if e.ascription is not None:
        _fail(rule, "AnnotationMismatch",
              "a grade ascription is not allowed at this position", e.pos)


def _forced_ascription(e: Expr, forced: KindedGrade, rule: str, what: str):
    if e.ascription is not None and e.ascription is not forced and e.ascription != forced:
        _fail(rule, "AnnotationMismatch",
              f"ascription {e.ascription} contradicts the declared {what} {forced}",
              e.pos)


def check(u: GradeUniverse, table: ClassTable, env: TypeEnv, e: Expr,
          expected: GradedType) -> TypingResult:
    """Least context and elaboration such that ctx |- e : expected.

    The elaboration is ``e`` with each slot child ascribed with its grade;
    ``e``'s own ascription is left to its parent.  A fully ascribed ``e``
    is returned as is.  ``env`` is extended in place at each block and
    restored before the call returns or raises."""
    return TypingResult(*_check(u, table, env, e, expected.className, expected.grade, {}))


def _check(u: GradeUniverse, table: ClassTable, env: TypeEnv, e: Expr, cls: str,
           grade: KindedGrade, classes: dict[int, str]) -> tuple[CoeffectCtx, Expr]:
    """``check`` at class ``cls`` and grade ``grade``: the context and the
    elaboration.  ``classes`` is the walk's ``infer_class`` record."""
    if isinstance(e, Var):
        if e.name not in env:
            _fail("t-var", "UnknownVariable", f"unknown variable {e.name!r}", e.pos)
        have = env[e.name]
        _require_subclass(table, have, cls, "t-sub", e.pos)
        # the least nonzero grade admissible at a variable; a canonical grade
        # (id >= 0) is zero only as ZERO_D itself, which every table interns first
        zero = grade is ZERO_D or (grade.id < 0 and grade == ZERO_D)
        return {e.name: (have, ONE_D if zero else grade)}, e

    if isinstance(e, FieldAccess):
        recv_cls = infer_class(table, env, e.recv, classes)
        try:
            fd = table.field(recv_cls, e.fieldName)
        except UnknownMember as exc:
            _fail("t-field-access", "UnknownMember", str(exc), e.pos)
        _require_subclass(table, fd.className, cls, "t-sub", e.pos)
        recv_grade = e.recv.ascription if e.recv.ascription is not None else ONE_D
        have = u.mul(recv_grade, fd.grade)
        if not u.leq(grade, have):
            if e.recv.ascription is None:
                _fail("t-field-access", "AscriptionNeeded",
                      f"field {e.fieldName!r} gives grade {have} under the default "
                      f"receiver grade {ONE_D}, but {grade} is required; "
                      f"ascribe the receiver with '@'", e.pos)
            _fail("t-field-access", "GradeTooDemanding",
                  f"field {e.fieldName!r} gives grade {have} (receiver at "
                  f"{recv_grade}), but {grade} is required", e.pos)
        ctx, recv = _check(u, table, env, e.recv, recv_cls, recv_grade, classes)
        recv = with_ascription(recv, recv_grade)
        return ctx, (e if recv is e.recv else
                     FieldAccess(recv, e.fieldName, e.ascription, e.pos))

    if isinstance(e, New):
        if not table.has_class(e.className):
            _fail("t-new", "UnknownClass", f"unknown class {e.className!r}", e.pos)
        _require_subclass(table, e.className, cls, "t-sub", e.pos)
        flds = table.fields(e.className)
        if len(flds) != len(e.args):
            _fail("t-new", "ArityMismatch",
                  f"class {e.className} has {len(flds)} fields, "
                  f"got {len(e.args)} arguments", e.pos)
        ctx: CoeffectCtx = {}
        args, same = [], True
        for fd, arg in zip(flds, e.args):
            _forced_ascription(arg, fd.grade, "t-new", f"grade of field {fd.name!r}")
            sub_ctx, sub = _check(u, table, env, arg, fd.className, u.mul(grade, fd.grade),
                                  classes)
            ctx = ctx_add(u, ctx, sub_ctx, "t-new", e.pos)
            args.append(with_ascription(sub, fd.grade))
            same = same and args[-1] is arg
        return ctx, (e if same else New(e.className, tuple(args), e.ascription, e.pos))

    if isinstance(e, Invk):
        recv_cls = infer_class(table, env, e.recv, classes)
        try:
            mt = table.mtype(recv_cls, e.method)
        except UnknownMember as exc:
            _fail("t-invk", "UnknownMember", str(exc), e.pos)
        ret = mt.returnType
        if not table.subclass_of(ret.className, cls):
            _fail("t-sub", "TypeMismatch",
                  f"method {e.method!r} returns {ret.className}, "
                  f"which is not a subclass of {cls}", e.pos)
        if not u.leq(grade, ret.grade):
            _fail("t-sub", "GradeTooDemanding",
                  f"method {e.method!r} returns grade {ret.grade}, "
                  f"but {grade} is required", e.pos)
        if len(mt.params) != len(e.args):
            _fail("t-invk", "ArityMismatch",
                  f"method {e.method!r} takes {len(mt.params)} arguments, "
                  f"got {len(e.args)}", e.pos)
        _forced_ascription(e.recv, mt.thisGrade, "t-invk", "grade of 'this'")
        ctx, recv = _check(u, table, env, e.recv, recv_cls, mt.thisGrade, classes)
        recv = with_ascription(recv, mt.thisGrade)
        args, same = [], recv is e.recv
        for p, arg in zip(mt.params, e.args):
            _forced_ascription(arg, p.grade, "t-invk", f"grade of parameter {p.name!r}")
            sub_ctx, sub = _check(u, table, env, arg, p.className, p.grade, classes)
            ctx = ctx_add(u, ctx, sub_ctx, "t-invk", e.pos)
            args.append(with_ascription(sub, p.grade))
            same = same and args[-1] is arg
        return ctx, (e if same else Invk(recv, e.method, tuple(args), e.ascription, e.pos))

    if isinstance(e, Block):
        if not table.has_class(e.declClass):
            _fail("t-block", "UnknownClass", f"unknown class {e.declClass!r}", e.pos)
        _forced_ascription(e.init, e.declGrade, "t-block", "grade of the local")
        init_ctx, init = _check(u, table, env, e.init, e.declClass, e.declGrade, classes)
        _no_ascription(e.body, "t-block")
        old = _bind(env, e.var, e.declClass)
        try:
            body_ctx, body = _check(u, table, env, e.body, cls, grade, classes)
        finally:
            _unbind(env, e.var, old)
        if e.var in body_ctx:
            body_ctx = dict(body_ctx)
            _, used = body_ctx.pop(e.var)
            if not u.leq(used, e.declGrade):
                zero_like = (e.declGrade == ZERO_D
                             or e.declGrade.value == u.algebra(e.declGrade.kind).zero())
                kind = "DiscardedVariable" if zero_like else "GradeTooDemanding"
                _fail("t-var", kind,
                      f"variable {e.var!r} is used at grade {used}, which is not "
                      f"within its declared grade {e.declGrade}", e.pos)
        ctx = ctx_add(u, init_ctx, body_ctx, "t-block", e.pos)
        init = with_ascription(init, e.declGrade)
        return ctx, (e if init is e.init and body is e.body else
                     Block(e.declClass, e.declGrade, e.var, init, body, e.ascription, e.pos))

    raise TypeError(e)


# ---------------------------------------------------------------------------
# Methods, tables, programs, configurations

def _method_env(cls: str, decl: MethodDecl) -> TypeEnv:
    env: TypeEnv = {"this": cls}
    for p in decl.params:
        env[p.name] = p.className
    return env


def check_method(u: GradeUniverse, table: ClassTable, cls: str,
                 method: str) -> tuple[list[CheckDiag], Expr]:
    """Body conformance: params and this at their declared grades.  Returns
    the diagnostics and the elaborated body (the source body on failure)."""
    decl = table.classes[cls].methods[method]
    declared = {"this": decl.thisGrade}
    for p in decl.params:
        declared[p.name] = p.grade
    try:
        _no_ascription(decl.body, "t-meth")
        ctx, body = _check(u, table, _method_env(cls, decl), decl.body,
                           decl.returnType.className, decl.returnType.grade, {})
    except CheckError as exc:
        return [CheckDiag("t-meth", exc.diag.kind,
                          f"in {cls}.{method}: {exc.diag.msg}",
                          exc.diag.pos if exc.diag.pos != (0, 0) else decl.pos)], decl.body
    diags = []
    for x, (_, g) in ctx.items():
        have = declared.get(x)
        if have is None or not u.leq(g, have):
            diags.append(CheckDiag(
                "t-meth", "GradeTooDemanding",
                f"in {cls}.{method}: {x!r} is used at grade {g}, declared {have}",
                decl.pos))
    return diags, body


def hierarchy_diags(table: ClassTable) -> list[CheckDiag]:
    """Inheritance shape: one diagnostic per class whose superclass chain
    loops (CycleDetected) or reaches an undeclared class (UnknownClass)."""
    diags: list[CheckDiag] = []
    for name, decl in table.classes.items():
        broken = table.resolve(name).broken
        if broken in table.classes:
            diags.append(CheckDiag("table", "CycleDetected",
                                   f"inheritance cycle through {name}", decl.pos))
        elif broken is not None:
            diags.append(CheckDiag("table", "UnknownClass",
                                   f"class {name} extends unknown {broken}", decl.pos))
    return diags


def cycle_diags(table: ClassTable) -> list[CheckDiag]:
    """The inheritance cycles, on which member lookups have no answer."""
    return [d for d in hierarchy_diags(table) if d.kind == "CycleDetected"]


def check_table(u: GradeUniverse, table: ClassTable) -> list[CheckDiag]:
    """Well-formed declarations: acyclic inheritance, known classes, coherence."""
    # inheritance shape first; nothing below is safe on a broken hierarchy
    diags = hierarchy_diags(table)
    if diags:
        return diags

    for name, decl in table.classes.items():
        res = table.resolve(name)
        if len(res.index) != len(res.fields):
            dup = sorted({f.name for i, f in enumerate(res.fields) if res.index[f.name] != i})
            diags.append(CheckDiag("table", "Coherence",
                                   f"class {name} redeclares inherited fields {dup}",
                                   decl.pos))
        for fd in res.fields:
            if not table.has_class(fd.className):
                diags.append(CheckDiag("table", "UnknownClass",
                                       f"field {name}.{fd.name} has unknown class "
                                       f"{fd.className}", fd.pos))

    for name, decl in table.classes.items():
        for mname, m in decl.methods.items():
            for typed in (m.returnType, *m.params):
                if not table.has_class(typed.className):
                    diags.append(CheckDiag("table", "UnknownClass",
                                           f"{name}.{mname} mentions unknown class "
                                           f"{typed.className}", m.pos))
    if diags:
        return diags

    # each override against every superclass's declaration of the method
    for name, decl in table.classes.items():
        parent = table.resolve(decl.superName)
        for mname, m in decl.methods.items():
            if mname not in parent.methods:   # it overrides nothing
                continue
            for sup in parent.ancestors:
                sm = sup != OBJECT and table.classes[sup].methods.get(mname)
                if not sm:
                    continue
                if sm.thisGrade != m.thisGrade or sm.params != m.params:
                    diags.append(CheckDiag(
                        "table", "Coherence",
                        f"{name}.{mname} overrides {sup}.{mname} with different "
                        f"parameter or receiver grades", m.pos))
                elif not gtype_leq(u, table, m.returnType, sm.returnType):
                    diags.append(CheckDiag(
                        "table", "Coherence",
                        f"{name}.{mname} overrides {sup}.{mname} with return type "
                        f"{m.returnType}, not a subtype of {sm.returnType}", m.pos))
    return diags


def elaborate_table(u: GradeUniverse,
                    table: ClassTable) -> tuple[list[CheckDiag], dict[tuple[str, str], Expr]]:
    """Type every method body once: the diagnostics, and each body's
    elaboration by class and method name (meaningful only when there are
    no diagnostics)."""
    diags: list[CheckDiag] = []
    bodies: dict[tuple[str, str], Expr] = {}
    for c, decl in table.classes.items():
        for m in decl.methods:
            found, bodies[c, m] = check_method(u, table, c, m)
            diags += found
    return diags, bodies


def check_program(u: GradeUniverse, program: Program) -> tuple[TypingResult, GradedType]:
    """Check the closed main expression at its declared reduction grade."""
    _no_ascription(program.main, "t-conf")
    classes: dict[int, str] = {}
    cls = infer_class(program.table, {}, program.main, classes)
    result = _check(u, program.table, {}, program.main, cls, program.mainGrade, classes)
    return TypingResult(*result), GradedType(cls, program.mainGrade)


@dataclass(eq=False, repr=False)
class Annotated:
    """A program ready to run: its table and main with every slot filled."""
    table: ClassTable
    main: Expr


@dataclass(eq=False, repr=False)
class Elaborated:
    """An accepted program: its main with every slot filled, the context
    that main needs and its type.  ``table``, the source table with each
    body elaborated, is built on first read: a run needs it, a check
    does not."""
    source: ClassTable
    bodies: dict[tuple[str, str], Expr]
    main: Expr
    ctx: CoeffectCtx
    type: GradedType

    @cached_property
    def table(self) -> ClassTable:
        return self.source.with_bodies(lambda cls, md: self.bodies[cls, md.name])


def elaborate_program(u: GradeUniverse,
                      program: Program) -> tuple[list[CheckDiag], Elaborated | None]:
    """The checked pipeline: declarations, each body typed once, then the main;
    the diagnostics of the first failing stage, or none and the elaboration."""
    diags = check_table(u, program.table)
    if not diags:
        diags, bodies = elaborate_table(u, program.table)
    if diags:
        return diags, None
    try:
        result, expected = check_program(u, program)
    except CheckError as exc:
        return [exc.diag], None
    return [], Elaborated(program.table, bodies, result.elaborated, result.ctx, expected)


def check_env_entry(u: GradeUniverse, table: ClassTable, x: str, v: Expr,
                    g: KindedGrade) -> str:
    """t-env for one binding: ``v`` is a closed value of a known class that
    types at ``g`` under the empty context.  Returns its class."""
    free = free_vars(v)
    if free:
        _fail("t-env", "OpenValue",
              f"stored value for {x!r} has free variables {sorted(free)}")
    if not is_value(v):
        _fail("t-env", "AnnotationMismatch", f"environment entry {x!r} is not a value")
    cls = v.className
    if not table.has_class(cls):
        _fail("t-env", "UnknownClass", f"unknown class {cls!r}")
    if check(u, table, {}, v, GradedType(cls, g)).ctx:
        _fail("t-env", "OpenValue", f"value for {x!r} needs a nonempty context")
    return cls


def check_conf(u: GradeUniverse, table: ClassTable, e: Expr, gamma: CoeffectCtx,
               expected: GradedType) -> CoeffectCtx:
    """t-conf: ``e`` checks at ``expected`` under the classes of ``gamma``
    and needs no more than its grades.  Only ``e``'s free variables are
    looked up, so the cost does not grow with ``gamma``."""
    tenv: TypeEnv = {x: gamma[x][0] for x in free_vars(e) if x in gamma}
    delta = check(u, table, tenv, e, expected).ctx
    if not ctx_leq(u, delta, gamma):
        bad = [x for x in delta if x not in gamma
               or delta[x][0] != gamma[x][0]
               or not u.leq(delta[x][1], gamma[x][1])]
        _fail("t-conf", "GradeTooDemanding",
              f"expression needs {', '.join(f'{x} at {delta[x][1]}' for x in bad)} "
              f"beyond what the environment provides")
    return delta


def check_configuration(u: GradeUniverse, table: ClassTable, e: Expr,
                        env: Mapping[str, tuple[Expr, KindedGrade]],
                        expected: GradedType) -> tuple[CoeffectCtx, CoeffectCtx]:
    """Type a configuration <e | env>: env entries at their stored grades,
    the expression under them, and the context bound (t-env + t-conf)."""
    gamma: CoeffectCtx = {x: (check_env_entry(u, table, x, v, g), g)
                          for x, (v, g) in env.items()}
    return gamma, check_conf(u, table, e, gamma, expected)


# ---------------------------------------------------------------------------
# Default annotator (for running hand-annotated programs unchecked)

def _fill(e: Expr, declared: KindedGrade) -> Expr:
    return e if e.ascription is not None else with_ascription(e, declared)


def annotate_expr(u: GradeUniverse, table: ClassTable, env: TypeEnv, e: Expr,
                  classes: dict[int, str] | None = None) -> Expr:
    """Fill every slot without grade checking: a written ascription wins,
    else the declared grade (the unit on field-access receivers).
    ``classes`` is the walk's ``infer_class`` record; ``env`` is extended in
    place at each block, as in ``check``."""
    if isinstance(e, Var):
        return e
    if classes is None:
        classes = {}
    if isinstance(e, FieldAccess):
        recv = _fill(annotate_expr(u, table, env, e.recv, classes), ONE_D)
        return FieldAccess(recv, e.fieldName, e.ascription, e.pos)
    if isinstance(e, New):
        try:
            flds = table.fields(e.className)
        except UnknownClass as exc:
            _fail("annotate", "UnknownClass", str(exc), e.pos)
        if len(flds) != len(e.args):
            _fail("annotate", "ArityMismatch",
                  f"class {e.className} has {len(flds)} fields, got {len(e.args)}",
                  e.pos)
        args = tuple(_fill(annotate_expr(u, table, env, a, classes), fd.grade)
                     for fd, a in zip(flds, e.args))
        return New(e.className, args, e.ascription, e.pos)
    if isinstance(e, Invk):
        recv_cls = infer_class(table, env, e.recv, classes)
        try:
            mt = table.mtype(recv_cls, e.method)
        except (UnknownClass, UnknownMember) as exc:
            _fail("annotate", type(exc).__name__, str(exc), e.pos)
        if len(mt.params) != len(e.args):
            _fail("annotate", "ArityMismatch",
                  f"method {e.method!r} takes {len(mt.params)} arguments, "
                  f"got {len(e.args)}", e.pos)
        recv = _fill(annotate_expr(u, table, env, e.recv, classes), mt.thisGrade)
        args = tuple(_fill(annotate_expr(u, table, env, a, classes), p.grade)
                     for p, a in zip(mt.params, e.args))
        return Invk(recv, e.method, args, e.ascription, e.pos)
    if isinstance(e, Block):
        init = _fill(annotate_expr(u, table, env, e.init, classes), e.declGrade)
        old = _bind(env, e.var, e.declClass)
        try:
            body = annotate_expr(u, table, env, e.body, classes)
        finally:
            _unbind(env, e.var, old)
        return Block(e.declClass, e.declGrade, e.var, init, body, e.ascription, e.pos)
    raise TypeError(e)


def annotate_table(u: GradeUniverse, table: ClassTable) -> ClassTable:
    return table.with_bodies(lambda cls, md: annotate_expr(u, table, _method_env(cls, md),
                                                           md.body))


def annotate_program(u: GradeUniverse,
                     program: Program) -> tuple[list[CheckDiag], Annotated | None]:
    """The unchecked pipeline: refuse inheritance cycles, then fill every slot."""
    diags = cycle_diags(program.table)
    if diags:
        return diags, None
    try:
        return [], Annotated(annotate_table(u, program.table),
                             annotate_expr(u, program.table, {}, program.main))
    except CheckError as exc:
        return [exc.diag], None
