"""Syntax of graded Featherweight Java: one expression tree for source and
elaborated terms.

Source programs are class declarations followed by a single graded run
expression.  Every type is a class name paired with a grade; grades are
written ``KIND:payload`` (a bare integer means kind N).  ``e @ grade``
ascribes the grade a subterm is reduced at; the checker only leaves that
choice open on field-access receivers, everywhere else the ascription
must agree with the declaration it restates.

An elaborated (annotated) term is a source term whose every *slot child*
carries its grade as ascription: field and invocation receivers, ``new``
and invocation arguments, and block initializers.  The checker and the
unchecked annotator fill the slots, the instrumented reduction reads them,
and erasure drops them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .hetero import GradeUniverse, KindedGrade

OBJECT = "Object"


class SyntaxErrorGFJ(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg, self.line, self.col = msg, line, col


class UnknownClass(Exception):
    pass


class UnknownMember(Exception):
    pass


Pos = tuple[int, int]


# ---------------------------------------------------------------------------
# Source AST

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class FieldAccess(Expr):
    recv: Expr
    fieldName: str
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class New(Expr):
    className: str
    args: tuple[Expr, ...]
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)

    def __post_init__(self):
        # whether this is a value, computed once from the arguments' flags;
        # an attribute, not a field, so it is neither compared nor printed
        for a in self.args:
            if not (isinstance(a, New) and a.is_value):
                object.__setattr__(self, "is_value", False)
                return
        object.__setattr__(self, "is_value", True)


@dataclass(frozen=True)
class Invk(Expr):
    recv: Expr
    method: str
    args: tuple[Expr, ...]
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Block(Expr):
    declClass: str
    declGrade: KindedGrade
    var: str
    init: Expr
    body: Expr
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


def with_ascription(e: Expr, grade: Optional[KindedGrade]) -> Expr:
    """``e`` carrying ``grade`` as its own ascription (``e`` itself if it does)."""
    if e.ascription is grade or e.ascription == grade:
        return e
    out = object.__new__(type(e))  # a field-for-field copy, cheaper than __init__
    out.__dict__.update(e.__dict__, ascription=grade)
    return out


def is_value(e: Expr) -> bool:
    """A constructor with value arguments; O(1), read off the node's flag."""
    return isinstance(e, New) and e.is_value


def erase(e: Expr) -> Expr:
    """Drop every @-ascription; an elaborated term erases to its source."""
    if isinstance(e, Var):
        return Var(e.name, None, e.pos)
    if isinstance(e, FieldAccess):
        return FieldAccess(erase(e.recv), e.fieldName, None, e.pos)
    if isinstance(e, New):
        return New(e.className, tuple(erase(a) for a in e.args), None, e.pos)
    if isinstance(e, Invk):
        return Invk(erase(e.recv), e.method, tuple(erase(a) for a in e.args), None, e.pos)
    if isinstance(e, Block):
        return Block(e.declClass, e.declGrade, e.var, erase(e.init), erase(e.body),
                     None, e.pos)
    raise TypeError(e)


def free_vars(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, FieldAccess):
        return free_vars(e.recv)
    if isinstance(e, New):
        return set().union(*[free_vars(a) for a in e.args]) if e.args else set()
    if isinstance(e, Invk):
        out = free_vars(e.recv)
        for a in e.args:
            out |= free_vars(a)
        return out
    if isinstance(e, Block):
        return free_vars(e.init) | (free_vars(e.body) - {e.var})
    raise TypeError(e)


def subst(e: Expr, mapping: dict[str, str]) -> Expr:
    """Simultaneous variable renaming, stopping at shadowing binders."""
    if not mapping:
        return e
    if isinstance(e, Var):
        return Var(mapping.get(e.name, e.name), e.ascription, e.pos)
    if isinstance(e, FieldAccess):
        return FieldAccess(subst(e.recv, mapping), e.fieldName, e.ascription, e.pos)
    if isinstance(e, New):
        return New(e.className, tuple(subst(a, mapping) for a in e.args),
                   e.ascription, e.pos)
    if isinstance(e, Invk):
        return Invk(subst(e.recv, mapping), e.method,
                    tuple(subst(a, mapping) for a in e.args), e.ascription, e.pos)
    if isinstance(e, Block):
        inner = {k: v for k, v in mapping.items() if k != e.var}
        return Block(e.declClass, e.declGrade, e.var, subst(e.init, mapping),
                     subst(e.body, inner), e.ascription, e.pos)
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Types and the class table

@dataclass(frozen=True)
class GradedType:
    className: str
    grade: KindedGrade

    def __str__(self):
        return f"{self.className}^{self.grade}"


@dataclass(frozen=True)
class FieldDecl:
    className: str
    grade: KindedGrade
    name: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Param:
    className: str
    grade: KindedGrade
    name: str


@dataclass(frozen=True)
class MethodDecl:
    name: str
    thisGrade: KindedGrade
    params: tuple[Param, ...]
    returnType: GradedType
    body: Expr
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ClassDecl:
    name: str
    superName: str
    fields: tuple[FieldDecl, ...]
    methods: dict[str, MethodDecl] = field(hash=False)
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class MethodType:
    thisGrade: KindedGrade
    params: tuple[Param, ...]
    returnType: GradedType


@dataclass
class ClassTable:
    classes: dict[str, ClassDecl]

    def decl(self, name: str) -> ClassDecl:
        if name == OBJECT or name not in self.classes:
            raise UnknownClass(f"unknown class {name!r}")
        return self.classes[name]

    def has_class(self, name: str) -> bool:
        return name == OBJECT or name in self.classes

    def super_of(self, name: str) -> Optional[str]:
        if name == OBJECT:
            return None
        return self.decl(name).superName

    def subclass_of(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive closure of extends, rooted at Object."""
        for name in (sub, sup):
            if not self.has_class(name):
                raise UnknownClass(f"unknown class {name!r}")
        cur: Optional[str] = sub
        while cur is not None:
            if cur == sup:
                return True
            cur = self.super_of(cur)
        return False

    def fields(self, name: str) -> list[FieldDecl]:
        """Declared fields, superclass fields first."""
        if name == OBJECT:
            return []
        decl = self.decl(name)
        return self.fields(decl.superName) + list(decl.fields)

    def field(self, name: str, fieldName: str) -> FieldDecl:
        for fd in self.fields(name):
            if fd.name == fieldName:
                return fd
        raise UnknownMember(f"class {name} has no field {fieldName!r}")

    def field_index(self, name: str, fieldName: str) -> int:
        for i, fd in enumerate(self.fields(name)):
            if fd.name == fieldName:
                return i
        raise UnknownMember(f"class {name} has no field {fieldName!r}")

    def mtype(self, name: str, method: str) -> MethodType:
        decl = self._find_method(name, method)
        return MethodType(decl.thisGrade, decl.params, decl.returnType)

    def mbody(self, name: str, method: str) -> tuple[tuple[str, ...], Expr]:
        decl = self._find_method(name, method)
        return tuple(p.name for p in decl.params), decl.body

    def with_bodies(self, body_of) -> "ClassTable":
        """The same table with each method body replaced by
        ``body_of(class name, method declaration)``."""
        return ClassTable({
            name: ClassDecl(name, decl.superName, decl.fields,
                            {m: MethodDecl(m, md.thisGrade, md.params, md.returnType,
                                           body_of(name, md), md.pos)
                             for m, md in decl.methods.items()}, decl.pos)
            for name, decl in self.classes.items()})

    def _find_method(self, name: str, method: str) -> MethodDecl:
        cur: Optional[str] = name
        while cur is not None and cur != OBJECT:
            decl = self.decl(cur)
            if method in decl.methods:
                return decl.methods[method]
            cur = decl.superName
        raise UnknownMember(f"class {name} has no method {method!r}")


def erase_table(table: ClassTable) -> ClassTable:
    """The table with erased method bodies; what the standard semantics runs."""
    return table.with_bodies(lambda _, md: erase(md.body))


def gtype_leq(u: GradeUniverse, table: ClassTable, t1: GradedType, t2: GradedType) -> bool:
    """Graded subtyping: smaller class, more generous grade (contravariant)."""
    return table.subclass_of(t1.className, t2.className) and u.leq(t2.grade, t1.grade)


@dataclass
class Program:
    table: ClassTable
    main: Expr
    mainGrade: KindedGrade


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {"class", "extends", "new", "run", "at"}
SYMBOLS = {"{", "}", "(", ")", "[", "]", ";", ",", ".", "@", ":", "=", "/"}


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | sym | keyword | eof
    text: str
    pos: Pos


def lex(text: str) -> list[Token]:
    out: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            col, i = col + 1, i + 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = (line, col)
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(Token("keyword" if word in KEYWORDS else "ident", word, start))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("int", text[i:j], start))
            col += j - i
            i = j
            continue
        if ch in SYMBOLS:
            out.append(Token("sym", ch, start))
            col, i = col + 1, i + 1
            continue
        raise SyntaxErrorGFJ(f"unexpected character {ch!r}", line, col)
    out.append(Token("eof", "", (line, col)))
    return out


# ---------------------------------------------------------------------------
# Parser

class Parser:
    def __init__(self, tokens: list[Token], universe: GradeUniverse):
        self.toks = tokens
        self.i = 0
        self.u = universe

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise SyntaxErrorGFJ(msg, tok.pos[0], tok.pos[1])

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.error(f"expected {want!r}, found {tok.text!r}")
        return self.next()

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    # -- grades -------------------------------------------------------------

    def parse_grade(self) -> KindedGrade:
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).kind == "sym" and self.peek(1).text == ":":
            kind = self.next().text
            self.next()  # ':'
            payload = self._payload_text()
        elif tok.kind == "int":
            kind = "N"
            payload = self.next().text
        else:
            self.error("expected a grade literal")
        try:
            return self.u.parse_grade(f"{kind}:{payload}")
        except Exception as exc:
            raise SyntaxErrorGFJ(str(exc), tok.pos[0], tok.pos[1]) from None

    def _payload_text(self) -> str:
        tok = self.peek()
        if self.at_sym("("):
            depth, parts = 0, []
            while True:
                t = self.next()
                if t.kind == "eof":
                    self.error("unterminated grade literal", tok)
                parts.append(t.text)
                if t.kind == "sym" and t.text == "(":
                    depth += 1
                elif t.kind == "sym" and t.text == ")":
                    depth -= 1
                    if depth == 0:
                        return "".join(parts)
        if tok.kind in ("ident", "int"):
            text = self.next().text
            if tok.kind == "int" and self.at_sym("/"):
                self.next()
                den = self.expect("int")
                return f"{text}/{den.text}"
            return text
        self.error("expected a grade payload")

    # -- programs -----------------------------------------------------------

    def parse_program(self) -> Program:
        classes: dict[str, ClassDecl] = {}
        while self.peek().kind == "keyword" and self.peek().text == "class":
            decl = self.parse_class()
            if decl.name in classes or decl.name == OBJECT:
                self.error(f"duplicate class {decl.name}", self.peek())
            classes[decl.name] = decl
        self.expect("keyword", "run")
        main = self.parse_expr()
        self.expect("keyword", "at")
        grade = self.parse_grade()
        self.expect("eof")
        return Program(ClassTable(classes), main, grade)

    def parse_class(self) -> ClassDecl:
        pos = self.expect("keyword", "class").pos
        name = self.expect("ident").text
        sup = OBJECT
        if self.peek().kind == "keyword" and self.peek().text == "extends":
            self.next()
            sup = self.expect("ident").text
        self.expect("sym", "{")
        fields_: list[FieldDecl] = []
        methods: dict[str, MethodDecl] = {}
        while not self.at_sym("}"):
            member_cls = self.expect("ident").text
            self.expect("sym", "[")
            grade = self.parse_grade()
            self.expect("sym", "]")
            member_name = self.expect("ident").text
            if member_name == "this":
                self.error("'this' is reserved")
            if self.at_sym(";"):
                self.next()
                fields_.append(FieldDecl(member_cls, grade, member_name))
            elif self.at_sym("("):
                methods[member_name] = self.parse_method(member_cls, grade, member_name)
            else:
                self.error("expected ';' or '(' after member name")
        self.expect("sym", "}")
        return ClassDecl(name, sup, tuple(fields_), methods, pos)

    def parse_method(self, ret_cls: str, ret_grade: KindedGrade, name: str) -> MethodDecl:
        pos = self.expect("sym", "(").pos
        params: list[Param] = []
        while not self.at_sym(")"):
            if params:
                self.expect("sym", ",")
            p_cls = self.expect("ident").text
            self.expect("sym", "[")
            p_grade = self.parse_grade()
            self.expect("sym", "]")
            p_name = self.expect("ident").text
            if p_name == "this" or any(p.name == p_name for p in params):
                self.error(f"bad parameter name {p_name!r}")
            params.append(Param(p_cls, p_grade, p_name))
        self.next()  # ')'
        self.expect("sym", "[")
        this_grade = self.parse_grade()
        self.expect("sym", "]")
        self.expect("sym", "{")
        body = self.parse_expr()
        self.expect("sym", "}")
        return MethodDecl(name, this_grade, tuple(params), GradedType(ret_cls, ret_grade),
                          body, pos)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        e = self.parse_primary()
        while True:
            if self.at_sym("@"):
                self.next()
                grade = self.parse_grade()
                e = with_ascription(e, grade)
                continue
            if self.at_sym("."):
                self.next()
                member = self.expect("ident").text
                if self.at_sym("("):
                    self.next()
                    args = []
                    while not self.at_sym(")"):
                        if args:
                            self.expect("sym", ",")
                        args.append(self.parse_expr())
                    self.next()
                    e = Invk(e, member, tuple(args), None, e.pos)
                else:
                    e = FieldAccess(e, member, None, e.pos)
                continue
            return e

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "new":
            self.next()
            cls = self.expect("ident").text
            self.expect("sym", "(")
            args = []
            while not self.at_sym(")"):
                if args:
                    self.expect("sym", ",")
                args.append(self.parse_expr())
            self.next()
            return New(cls, tuple(args), None, tok.pos)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text, None, tok.pos)
        if self.at_sym("{"):
            self.next()
            cls = self.expect("ident").text
            self.expect("sym", "[")
            grade = self.parse_grade()
            self.expect("sym", "]")
            var = self.expect("ident").text
            if var == "this":
                self.error("'this' is reserved")
            self.expect("sym", "=")
            init = self.parse_expr()
            self.expect("sym", ";")
            body = self.parse_expr()
            self.expect("sym", "}")
            return Block(cls, grade, var, init, body, None, tok.pos)
        if self.at_sym("("):
            self.next()
            e = self.parse_expr()
            self.expect("sym", ")")
            return e
        self.error(f"expected an expression, found {tok.text!r}")


def parse_program(text: str, universe: GradeUniverse) -> Program:
    return Parser(lex(text), universe).parse_program()


def parse_expr(text: str, universe: GradeUniverse) -> Expr:
    parser = Parser(lex(text), universe)
    e = parser.parse_expr()
    parser.expect("eof")
    return e


# ---------------------------------------------------------------------------
# Pretty printing

def format_expr(e: Expr) -> str:
    asc = f" @ {e.ascription}" if e.ascription is not None else ""
    if isinstance(e, Var):
        return e.name + asc
    if isinstance(e, FieldAccess):
        return f"{format_expr(e.recv)}.{e.fieldName}" + asc
    if isinstance(e, New):
        return f"new {e.className}({', '.join(format_expr(a) for a in e.args)})" + asc
    if isinstance(e, Invk):
        return (f"{format_expr(e.recv)}.{e.method}"
                f"({', '.join(format_expr(a) for a in e.args)})" + asc)
    if isinstance(e, Block):
        return (f"{{{e.declClass}[{e.declGrade}] {e.var} = {format_expr(e.init)}; "
                f"{format_expr(e.body)}}}" + asc)
    raise TypeError(e)


def format_ann(e: Expr) -> str:
    """The annotated trace syntax: each slot child is followed by ``^grade``."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, FieldAccess):
        return f"{format_ann(e.recv)}^{e.recv.ascription}.{e.fieldName}"
    if isinstance(e, New):
        return f"new {e.className}({_format_slots(e.args)})"
    if isinstance(e, Invk):
        return (f"{format_ann(e.recv)}^{e.recv.ascription}.{e.method}"
                f"({_format_slots(e.args)})")
    if isinstance(e, Block):
        return (f"{{{e.declClass} {e.var} = {format_ann(e.init)}^{e.init.ascription}; "
                f"{format_ann(e.body)}}}")
    raise TypeError(e)


def _format_slots(args: tuple[Expr, ...]) -> str:
    return ", ".join(f"{format_ann(a)}^{a.ascription}" for a in args)


def format_program(p: Program) -> str:
    lines = []
    for decl in p.table.classes.values():
        ext = f" extends {decl.superName}" if decl.superName != OBJECT else ""
        lines.append(f"class {decl.name}{ext} {{")
        for fd in decl.fields:
            lines.append(f"  {fd.className}[{fd.grade}] {fd.name};")
        for m in decl.methods.values():
            params = ", ".join(f"{q.className}[{q.grade}] {q.name}" for q in m.params)
            lines.append(f"  {m.returnType.className}[{m.returnType.grade}] "
                         f"{m.name}({params}) [{m.thisGrade}] {{ {format_expr(m.body)} }}")
        lines.append("}")
    lines.append(f"run {format_expr(p.main)} at {p.mainGrade}")
    return "\n".join(lines) + "\n"
