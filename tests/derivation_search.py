"""Bounded derivation search: the minimality oracle for the checker.

``enumerate_contexts`` follows the declarative typing rules but lets every
grade the rules leave free range over a finite pool, so the tests can
compare the checker's least context against every derivable one.
"""

from gradefj.hetero import GradeUniverse, KindedGrade, ZERO_D
from gradefj.syntax import Block, ClassTable, Expr, FieldAccess, GradedType, Invk, New, Var
from gradefj.typecheck import CheckError, CoeffectCtx, TypeEnv, ctx_add, infer_class


def enumerate_contexts(u: GradeUniverse, table: ClassTable, env: TypeEnv, e: Expr,
                       expected: GradedType, pool: list[KindedGrade],
                       limit: int = 20000) -> list[CoeffectCtx]:
    """Every context derivable when the rules' free grades range over ``pool``.

    Follows the declarative rules with subsumption folded in as the same
    side conditions the checker uses, but with variable-consumption,
    field-receiver and constructor grades enumerated instead of chosen.
    """
    out: list[CoeffectCtx] = []
    budget = [limit]

    def go(env, e, expected):
        if budget[0] <= 0:
            return []
        budget[0] -= 1
        results = []
        if isinstance(e, Var):
            cls = env.get(e.name)
            if cls is None or not table.subclass_of(cls, expected.className):
                return []
            for r in pool:
                if r != ZERO_D and u.leq(expected.grade, r):
                    results.append({e.name: (cls, r)})
            return results
        if isinstance(e, FieldAccess):
            try:
                recv_cls = infer_class(table, env, e.recv)
                fd = table.field(recv_cls, e.fieldName)
            except CheckError:
                return []
            if not table.subclass_of(fd.className, expected.className):
                return []
            for r in pool:
                if u.leq(expected.grade, u.mul(r, fd.grade)):
                    results.extend(go(env, e.recv, GradedType(recv_cls, r)))
            return results
        if isinstance(e, New):
            if not table.has_class(e.className):
                return []
            if not table.subclass_of(e.className, expected.className):
                return []
            flds = table.fields(e.className)
            if len(flds) != len(e.args):
                return []
            for r in pool:
                if not u.leq(expected.grade, r):
                    continue
                partial = [dict()]
                for fd, arg in zip(flds, e.args):
                    nxt = []
                    for ctx in partial:
                        for sub in go(env, arg, GradedType(fd.className, u.mul(r, fd.grade))):
                            try:
                                nxt.append(ctx_add(u, ctx, sub))
                            except CheckError:
                                pass
                    partial = nxt
                results.extend(partial)
            return results
        if isinstance(e, Invk):
            try:
                recv_cls = infer_class(table, env, e.recv)
                mt = table.mtype(recv_cls, e.method)
            except CheckError:
                return []
            if not table.subclass_of(mt.returnType.className, expected.className):
                return []
            if not u.leq(expected.grade, mt.returnType.grade):
                return []
            if len(mt.params) != len(e.args):
                return []
            partial = go(env, e.recv, GradedType(recv_cls, mt.thisGrade))
            for p, arg in zip(mt.params, e.args):
                nxt = []
                for ctx in partial:
                    for sub in go(env, arg, GradedType(p.className, p.grade)):
                        try:
                            nxt.append(ctx_add(u, ctx, sub))
                        except CheckError:
                            pass
                partial = nxt
            return partial
        if isinstance(e, Block):
            if not table.has_class(e.declClass):
                return []
            inits = go(env, e.init, GradedType(e.declClass, e.declGrade))
            bodies = go({**env, e.var: e.declClass}, e.body, expected)
            for ci in inits:
                for cb in bodies:
                    cb = dict(cb)
                    if e.var in cb:
                        _, used = cb.pop(e.var)
                        if not u.leq(used, e.declGrade):
                            continue
                    try:
                        results.append(ctx_add(u, ci, cb))
                    except CheckError:
                        pass
            return results
        raise TypeError(e)

    for ctx in go(dict(env), e, expected):
        if ctx not in out:
            out.append(ctx)
    return out
