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

import re
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import NamedTuple, Optional

from .grades import GradeError
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
#
# The syntax records (the expressions here, the types and declarations
# below) are plain dataclasses, compared by value and never hashed.
# They are immutable by convention: nothing assigns a field of a built node,
# and every rewrite (elaboration, substitution, reduction, erasure) builds
# new nodes, so a node may be shared between terms, tables and traces.

class Expr:
    """An expression; a slot child carries its grade in ``ascription``."""


@dataclass
class Var(Expr):
    """A variable, ``this`` included."""

    name: str
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass
class FieldAccess(Expr):
    """``recv.fieldName``."""

    recv: Expr
    fieldName: str
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass
class New(Expr):
    """``new className(args)``: an object, and a value once its arguments are."""

    className: str
    args: tuple[Expr, ...]
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)

    def __post_init__(self):
        # whether this is a value, computed once from the arguments' flags;
        # an attribute, not a field, so it is neither compared nor printed
        for a in self.args:
            if not (isinstance(a, New) and a.is_value):
                self.is_value = False
                return
        self.is_value = True


@dataclass
class Invk(Expr):
    """``recv.method(args)``."""

    recv: Expr
    method: str
    args: tuple[Expr, ...]
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass
class Block(Expr):
    """``{declClass[declGrade] var = init; body}``."""

    declClass: str
    declGrade: KindedGrade
    var: str
    init: Expr
    body: Expr
    ascription: Optional[KindedGrade] = None
    pos: Pos = field(default=(0, 0), compare=False)


def with_ascription(e: Expr, grade: Optional[KindedGrade]) -> Expr:
    """``e`` carrying ``grade`` as its own ascription (``e`` itself if it does)."""
    have = e.ascription
    if have is grade or (have is not None and have == grade):
        return e
    if isinstance(e, Var):
        return Var(e.name, grade, e.pos)
    if isinstance(e, FieldAccess):
        return FieldAccess(e.recv, e.fieldName, grade, e.pos)
    if isinstance(e, New):
        return New(e.className, e.args, grade, e.pos)
    if isinstance(e, Invk):
        return Invk(e.recv, e.method, e.args, grade, e.pos)
    if isinstance(e, Block):
        return Block(e.declClass, e.declGrade, e.var, e.init, e.body, grade, e.pos)
    raise TypeError(e)


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
    """Simultaneous variable renaming, stopping at shadowing binders.  The
    pairs that rename a name to itself are dropped first, so a renaming
    that changes no name returns ``e`` itself, whatever its size."""
    mapping = {x: y for x, y in mapping.items() if x != y}
    return _rename(e, mapping) if mapping else e


def _rename(e: Expr, mapping: dict[str, str]) -> Expr:
    if isinstance(e, Var):
        return Var(mapping.get(e.name, e.name), e.ascription, e.pos)
    if isinstance(e, FieldAccess):
        return FieldAccess(_rename(e.recv, mapping), e.fieldName, e.ascription, e.pos)
    if isinstance(e, New):
        return New(e.className, tuple(_rename(a, mapping) for a in e.args),
                   e.ascription, e.pos)
    if isinstance(e, Invk):
        return Invk(_rename(e.recv, mapping), e.method,
                    tuple(_rename(a, mapping) for a in e.args), e.ascription, e.pos)
    if isinstance(e, Block):
        inner = mapping
        if e.var in mapping:
            inner = {x: y for x, y in mapping.items() if x != e.var}
        body = _rename(e.body, inner) if inner else e.body
        return Block(e.declClass, e.declGrade, e.var, _rename(e.init, mapping), body,
                     e.ascription, e.pos)
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Types and the class table

@dataclass
class GradedType:
    """A class name with a grade: ``className[grade]``."""

    className: str
    grade: KindedGrade

    def __str__(self):
        return f"{self.className}^{self.grade}"


@dataclass
class FieldDecl:
    """A field declaration: its class, grade and name."""

    className: str
    grade: KindedGrade
    name: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass
class Param:
    """A method parameter: its class, grade and name."""

    className: str
    grade: KindedGrade
    name: str


@dataclass
class MethodDecl:
    """A method declaration: the grade of ``this``, parameters, return type and body."""

    name: str
    thisGrade: KindedGrade
    params: tuple[Param, ...]
    returnType: GradedType
    body: Expr
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass
class ClassDecl:
    """A class declaration: its superclass, fields and methods by name."""

    name: str
    superName: str
    fields: tuple[FieldDecl, ...]
    methods: dict[str, MethodDecl]
    pos: Pos = field(default=(0, 0), compare=False)


class Resolved(NamedTuple):
    """A class with its inheritance resolved.  ``broken`` names the first
    class on its superclass chain (itself included) that is undeclared or
    on an inheritance cycle; the members and ancestors then stop below it."""

    fields: tuple[FieldDecl, ...]    # superclass fields first
    index: dict[str, int]            # field name -> its first index
    methods: dict[str, MethodDecl]   # declared or inherited
    ancestors: dict[str, None]       # itself first, up to Object
    broken: Optional[str] = None


class _Resolutions(dict):
    """Class name -> ``Resolved``, each resolved on first use, superclasses
    first, by a loop rather than one frame per level."""

    def __init__(self, classes: dict[str, ClassDecl]):
        super().__init__({OBJECT: Resolved((), {}, {}, {OBJECT: None})})
        self.classes = classes

    def __missing__(self, name: str) -> Resolved:
        chain: dict[str, ClassDecl] = {}
        cur = name
        while cur not in self:
            if cur in chain or cur not in self.classes:
                self[cur] = Resolved((), {}, {}, {}, cur)
            else:
                chain[cur] = decl = self.classes[cur]
                cur = decl.superName
        res = self[cur]
        for decl in reversed(chain.values()):
            index = dict(res.index)
            for i, fd in enumerate(decl.fields, len(res.fields)):
                index.setdefault(fd.name, i)
            res = self[decl.name] = Resolved(
                res.fields + decl.fields, index, {**res.methods, **decl.methods},
                {decl.name: None, **res.ancestors}, res.broken)
        return res


class ClassTable:
    """The classes of a program by name.  Each class is resolved once, on
    first use, so a lookup through inheritance is a read; the table is never
    changed, and ``with_bodies`` makes a new one."""

    def __init__(self, classes: dict[str, ClassDecl]):
        self.classes = classes
        self.resolve = _Resolutions(classes).__getitem__   # name -> Resolved

    def has_class(self, name: str) -> bool:
        return name == OBJECT or name in self.classes

    def _known(self, name: str) -> Resolved:
        """``name`` resolved, or UnknownClass if its chain is broken."""
        res = self.resolve(name)
        if res.broken is not None:
            raise UnknownClass(f"inheritance cycle through {res.broken}" if res.broken
                               in self.classes else f"unknown class {res.broken!r}")
        return res

    def subclass_of(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive closure of extends, rooted at Object."""
        if sup in self.resolve(sub).ancestors:
            return True
        for name in (sub, sup):
            if not self.has_class(name):
                raise UnknownClass(f"unknown class {name!r}")
        self._known(sub)
        return False

    def fields(self, name: str) -> tuple[FieldDecl, ...]:
        """Declared fields, superclass fields first."""
        return self._known(name).fields

    def field(self, name: str, fieldName: str) -> FieldDecl:
        return self._known(name).fields[self.field_index(name, fieldName)]

    def field_index(self, name: str, fieldName: str) -> int:
        """The index of the first field so named."""
        try:
            return self._known(name).index[fieldName]
        except KeyError:
            raise UnknownMember(f"class {name} has no field {fieldName!r}") from None

    def mtype(self, name: str, method: str) -> MethodDecl:
        """The declaration of ``method`` in ``name`` or the nearest superclass
        that has one; it carries the signature."""
        decl = self.resolve(name).methods.get(method)
        if decl is None:
            self._known(name)
            raise UnknownMember(f"class {name} has no method {method!r}")
        return decl

    def mbody(self, name: str, method: str) -> tuple[tuple[str, ...], Expr]:
        decl = self.mtype(name, method)
        return tuple(p.name for p in decl.params), decl.body

    def with_bodies(self, body_of) -> "ClassTable":
        """The same table with each method body replaced by
        ``body_of(class name, method declaration)``."""
        classes = {}
        for name, decl in self.classes.items():
            methods = {m: MethodDecl(md.name, md.thisGrade, md.params, md.returnType,
                                     body_of(name, md), md.pos)
                       for m, md in decl.methods.items()}
            classes[name] = ClassDecl(name, decl.superName, decl.fields, methods, decl.pos)
        return ClassTable(classes)


def erase_table(table: ClassTable) -> ClassTable:
    """The table with erased method bodies; what the standard semantics runs."""
    return table.with_bodies(lambda _, md: erase(md.body))


def gtype_leq(u: GradeUniverse, table: ClassTable, t1: GradedType, t2: GradedType) -> bool:
    """Graded subtyping: smaller class, more generous grade (contravariant)."""
    return table.subclass_of(t1.className, t2.className) and u.leq(t2.grade, t1.grade)


@dataclass(eq=False, repr=False)
class Program:
    """A class table and the main expression, run at ``mainGrade``."""

    table: ClassTable
    main: Expr
    mainGrade: KindedGrade


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {"class", "extends", "new", "run", "at"}
SYMBOLS = {"{", "}", "(", ")", "[", "]", ";", ",", ".", "@", ":", "=", "/"}


class Tokens:
    """The tokens of one text, eof last, as three parallel columns: token i
    is ``texts[i]`` at ``(lines[i], cols[i])``.  A token's kind (ident,
    int, sym, keyword or eof) follows from its text, so it is not stored
    per token: it is ``kind_of[texts[i]]``, from one dict per text that
    works a kind out the first time it is asked.  A symbol's or keyword's
    text is never another kind's, so the parser compares only the text of
    those.  The length is the token count."""

    __slots__ = ("texts", "lines", "cols", "kind_of")

    def __init__(self, texts: list[str], lines: list[int], cols: list[int],
                 kind_of: "_Kinds"):
        self.texts, self.lines, self.cols, self.kind_of = texts, lines, cols, kind_of

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def kinds(self) -> list[str]:
        """The kind of each token, as a column."""
        return [self.kind_of[text] for text in self.texts]


# A line splits into gap, piece, gap, ..., piece, gap; gaps hold only
# spaces, tabs and carriage returns.  A piece is a word (a run of ``\w``,
# which is exactly ``isalnum()`` or '_'), a comment or any other character.
_PIECES = re.compile(r"(\w+|//.*|[^ \t\r])")
# ASCII text is split with ASCII classes, which are cheaper to test, and
# a digit run is cut from the letters after it, so that in a text made of
# the characters in _TOKEN_BYTES every piece but a comment is a token.
_ASCII_PIECES = re.compile(r"([A-Za-z_]\w*|[^\w \t\r/]|\d+|//.*|/)", re.ASCII)
_TOKEN_BYTES = bytes(c for c in range(128) if chr(c).isalnum() or chr(c) in "_ \t\r\n"
                     or chr(c) in SYMBOLS)

_FIXED_KINDS = {**dict.fromkeys(KEYWORDS, "keyword"), **dict.fromkeys(SYMBOLS, "sym"),
                "": "eof"}


class _Kinds(dict):
    """Piece text -> token kind, worked out on first lookup, for one
    ``lex`` call and the parse of its tokens.  A word is an identifier if
    it starts with a letter or '_' and an integer if it is all digits;
    otherwise (None) it is no token, and ``_split_word`` splits it into
    tokens or refuses it."""

    def __missing__(self, text: str) -> Optional[str]:
        first = text[0]
        kind = ("ident" if first.isalpha() or first == "_"
                else "int" if text.isdigit() else None)
        self[text] = kind
        return kind


def _split_word(word: str, line: int, col: int) -> list[tuple[str, int]]:
    """The ``(text, col)`` of each token of a piece that ``_Kinds`` leaves
    open: digit runs and a trailing identifier by ``isdigit``/``isalpha``,
    one character at a time, or the error at the first character that
    starts no token."""
    out = []
    i, n = 0, len(word)
    while i < n:
        ch = word[i]
        if ch.isalpha() or ch == "_":
            out.append((word[i:], col + i))
            break
        if not ch.isdigit():
            raise SyntaxErrorGFJ(f"unexpected character {ch!r}", line, col + i)
        j = i + 1
        while j < n and word[j].isdigit():
            j += 1
        out.append((word[i:j], col + i))
        i = j
    return out


def lex(text: str) -> Tokens:
    """The tokens of ``text``, eof last.  Each line is split by one regular
    expression and its columns are running sums of the part lengths.  The
    kind of each piece is looked up, to refuse a character that starts no
    token and to split a word that is not one, only where that can happen:
    in a text outside ASCII, or one holding a character outside
    ``_TOKEN_BYTES``; only a word outside the ASCII classes is looked at
    one character at a time.  The columns grow by whole lines, so no
    object is made per token."""
    texts, lines, cols = [], [], []
    kind_of = _Kinds(_FIXED_KINDS)
    if text.isascii():
        split = _ASCII_PIECES.split
        check = bool(text.encode().translate(None, _TOKEN_BYTES))
    else:
        split, check = _PIECES.split, True
    for line, src in enumerate(text.split("\n"), 1):
        parts = split(src)
        ends = list(accumulate(map(len, parts), initial=1))
        pieces, starts, end = parts[1::2], ends[1:-1:2], ends[-1]
        if pieces and pieces[-1].startswith("//"):
            pieces.pop()
            end = starts.pop()   # a comment does not advance the column
        if check and None in map(kind_of.__getitem__, pieces):
            words = []
            for piece, col in zip(pieces, starts):
                words += [(piece, col)] if kind_of[piece] else _split_word(piece, line, col)
            pieces, starts = zip(*words)
        texts += pieces
        cols += starts
        lines += repeat(line, len(pieces))
    texts.append("")
    lines.append(line)
    cols.append(end)
    return Tokens(texts, lines, cols, kind_of)


# ---------------------------------------------------------------------------
# Parser

class Parser:
    """Recursive descent over the token columns, read by index; a token's
    kind is read from ``kind_of`` by its text.  The last token is eof and
    no rule consumes it before the end, so ``self.i`` stays in range.  A
    rule reads past a token only once it has seen that the token is not
    eof: a kinded grade literal does, and so do the hot paths, which read
    the common shapes ``Class[grade] name``, ``[grade]``, ``new C(`` and
    ``.m(`` at once; where such a shape does not match, the general rule
    reads the tokens again and refuses them."""

    def __init__(self, tokens: Tokens, universe: GradeUniverse):
        self.texts, self.kind_of = tokens.texts, tokens.kind_of
        self.lines, self.cols = tokens.lines, tokens.cols
        self.i = 0
        self.u = universe
        # literal -> grade, for this parse only: a literal's meaning
        # depends on the universe.  A grade of kind N written as a bare
        # integer is keyed by the integer's text, which holds no ':'.
        self.grades: dict[str, KindedGrade] = {}

    def pos(self, i: int) -> Pos:
        return self.lines[i], self.cols[i]

    def error(self, msg: str, at: Optional[int] = None):
        """Refuse the input at token ``at``, the current one by default."""
        raise SyntaxErrorGFJ(msg, *self.pos(self.i if at is None else at))

    def expect(self, text: str) -> int:
        """Consume the current token, a symbol or keyword spelled ``text``;
        its index."""
        i = self.i
        if self.texts[i] != text:
            self.error(f"expected {text!r}, found {self.texts[i]!r}")
        self.i = i + 1
        return i

    def expect_kind(self, kind: str) -> str:
        """Consume the current token, of kind ident, int or eof; its text."""
        i = self.i
        text = self.texts[i]
        if self.kind_of[text] != kind:
            self.error(f"expected {kind!r}, found {text!r}")
        self.i = i + 1
        return text

    # -- grades -------------------------------------------------------------

    def parse_grade(self) -> KindedGrade:
        i, texts = self.i, self.texts
        kind = self.kind_of[texts[i]]
        if kind == "int":
            self.i = i + 1
            literal = texts[i]
        elif kind == "ident" and texts[i + 1] == ":":
            self.i = i + 2
            literal = f"{texts[i]}:{self._payload_text()}"
        else:
            self.error("expected a grade literal")
        grade = self.grades.get(literal)
        if grade is None:
            try:
                grade = self.grades[literal] = self.u.parse_grade(literal)
            except (GradeError, ValueError) as exc:
                raise SyntaxErrorGFJ(str(exc), *self.pos(i)) from None
        return grade

    def _payload_text(self) -> str:
        kind_of, texts = self.kind_of, self.texts
        start = self.i
        if texts[start] == "(":
            depth = 0
            while True:
                i = self.i
                if texts[i] == "":
                    self.error("unterminated grade literal", start)
                self.i = i + 1
                if texts[i] == "(":
                    depth += 1
                elif texts[i] == ")":
                    depth -= 1
                    if depth == 0:
                        return "".join(texts[start:self.i])
        kind = kind_of[texts[start]]
        if kind in ("ident", "int"):
            self.i = start + 1
            if kind == "int" and texts[self.i] == "/":
                self.i += 1
                return f"{texts[start]}/{self.expect_kind('int')}"
            return texts[start]
        self.error("expected a grade payload")

    def bracketed_grade(self) -> KindedGrade:
        """``[grade]``; a one-token grade met before is read at once."""
        i, texts = self.i, self.texts
        if texts[i] == "[":
            grade = self.grades.get(texts[i + 1])
            if grade is not None and texts[i + 2] == "]":
                self.i = i + 3
                return grade
        self.expect("[")
        grade = self.parse_grade()
        self.expect("]")
        return grade

    def typed_name(self) -> tuple[str, KindedGrade, str, int]:
        """``Class[grade] name``: the class, the grade, the name and its index."""
        i, texts, kind_of = self.i, self.texts, self.kind_of
        cls = texts[i]
        if kind_of[cls] == "ident" and texts[i + 1] == "[":
            grade = self.grades.get(texts[i + 2])
            if grade is not None and texts[i + 3] == "]" and kind_of[texts[i + 4]] == "ident":
                self.i = i + 5
                return cls, grade, texts[i + 4], i + 4
        cls = self.expect_kind("ident")
        grade = self.bracketed_grade()
        at = self.i
        return cls, grade, self.expect_kind("ident"), at

    # -- programs -----------------------------------------------------------

    def parse_program(self) -> Program:
        classes: dict[str, ClassDecl] = {}
        while self.texts[self.i] == "class":
            decl = self.parse_class()
            if decl.name in classes or decl.name == OBJECT:
                raise SyntaxErrorGFJ(f"duplicate class {decl.name}", *decl.pos)
            classes[decl.name] = decl
        self.expect("run")
        main = self.parse_expr()
        self.expect("at")
        grade = self.parse_grade()
        self.expect_kind("eof")
        return Program(ClassTable(classes), main, grade)

    def parse_class(self) -> ClassDecl:
        texts, lines, cols = self.texts, self.lines, self.cols
        at = self.expect("class")
        name = self.expect_kind("ident")
        sup = OBJECT
        if texts[self.i] == "extends":
            self.i += 1
            sup = self.expect_kind("ident")
        self.expect("{")
        fields_: list[FieldDecl] = []
        methods: dict[str, MethodDecl] = {}
        while texts[self.i] != "}":
            member_cls, grade, member_name, name_at = self.typed_name()
            if member_name == "this":
                self.error("'this' is reserved", name_at)
            follow = texts[self.i]
            if follow == ";":
                self.i += 1
                fields_.append(FieldDecl(member_cls, grade, member_name,
                                         (lines[name_at], cols[name_at])))
            elif follow == "(":
                if member_name in methods:
                    self.error(f"duplicate method {name}.{member_name}", name_at)
                methods[member_name] = self.parse_method(member_cls, grade, member_name)
            else:
                self.error("expected ';' or '(' after member name")
        self.i += 1  # '}'
        return ClassDecl(name, sup, tuple(fields_), methods, (lines[at], cols[at]))

    def parse_method(self, ret_cls: str, ret_grade: KindedGrade, name: str) -> MethodDecl:
        """The rest of a method, from its '(' on, which the caller has seen."""
        texts = self.texts
        at = self.i
        self.i = at + 1
        params: list[Param] = []
        while texts[self.i] != ")":
            if params:
                self.expect(",")
            p_cls, p_grade, p_name, name_at = self.typed_name()
            if p_name == "this" or any(p.name == p_name for p in params):
                self.error(f"bad parameter name {p_name!r}", name_at)
            params.append(Param(p_cls, p_grade, p_name))
        self.i += 1  # ')'
        this_grade = self.bracketed_grade()
        self.expect("{")
        body = self.parse_expr()
        self.expect("}")
        return MethodDecl(name, this_grade, tuple(params), GradedType(ret_cls, ret_grade),
                          body, (self.lines[at], self.cols[at]))

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        e = self.parse_primary()
        texts = self.texts
        while True:
            i = self.i
            text = texts[i]
            if text == ".":
                member = texts[i + 1]
                if self.kind_of[member] != "ident":
                    self.error(f"expected 'ident', found {member!r}", i + 1)
                if texts[i + 2] == "(":
                    self.i = i + 3
                    args: list[Expr] = []
                    # a loop here and in parse_primary, not a shared rule,
                    # so that each call argument costs one parser frame
                    if texts[self.i] != ")":
                        args.append(self.parse_expr())
                        while texts[self.i] == ",":
                            self.i += 1
                            args.append(self.parse_expr())
                        if texts[self.i] != ")":
                            self.error(f"expected ',', found {texts[self.i]!r}")
                    self.i += 1
                    e = Invk(e, member, tuple(args), None, e.pos)
                else:
                    self.i = i + 2
                    e = FieldAccess(e, member, None, e.pos)
            elif text == "@":
                self.i = i + 1
                e = with_ascription(e, self.parse_grade())
            else:
                return e

    def parse_primary(self) -> Expr:
        i, texts = self.i, self.texts
        text = texts[i]
        if self.kind_of[text] == "ident":
            self.i = i + 1
            return Var(text, None, (self.lines[i], self.cols[i]))
        if text == "new":
            cls = texts[i + 1]
            if self.kind_of[cls] != "ident":
                self.error(f"expected 'ident', found {cls!r}", i + 1)
            if texts[i + 2] != "(":
                self.error(f"expected '(', found {texts[i + 2]!r}", i + 2)
            self.i = i + 3
            args: list[Expr] = []
            if texts[self.i] != ")":
                args.append(self.parse_expr())
                while texts[self.i] == ",":
                    self.i += 1
                    args.append(self.parse_expr())
                if texts[self.i] != ")":
                    self.error(f"expected ',', found {texts[self.i]!r}")
            self.i += 1
            return New(cls, tuple(args), None, (self.lines[i], self.cols[i]))
        if text == "{":
            self.i = i + 1
            cls, grade, var, var_at = self.typed_name()
            if var == "this":
                self.error("'this' is reserved", var_at)
            self.expect("=")
            init = self.parse_expr()
            self.expect(";")
            body = self.parse_expr()
            self.expect("}")
            return Block(cls, grade, var, init, body, None, (self.lines[i], self.cols[i]))
        if text == "(":
            self.i = i + 1
            e = self.parse_expr()
            self.expect(")")
            return e
        self.error(f"expected an expression, found {text!r}")


def parse_program(text: str, universe: GradeUniverse) -> Program:
    return Parser(lex(text), universe).parse_program()


def parse_expr(text: str, universe: GradeUniverse) -> Expr:
    parser = Parser(lex(text), universe)
    e = parser.parse_expr()
    parser.expect_kind("eof")
    return e


# ---------------------------------------------------------------------------
# Pretty printing

def format_expr(e: Expr) -> str:
    asc = f" @ {e.ascription}" if e.ascription is not None else ""
    if isinstance(e, Var):
        return e.name + asc
    if isinstance(e, FieldAccess):
        return f"{format_expr(e.recv)}.{e.fieldName}" + asc
    if isinstance(e, (New, Invk)):
        # a loop, not a generator, so that each level of nesting costs one
        # frame: every value the checker accepts prints
        args = []
        for a in e.args:
            args.append(format_expr(a))
        if isinstance(e, New):
            return f"new {e.className}({', '.join(args)})" + asc
        return f"{format_expr(e.recv)}.{e.method}({', '.join(args)})" + asc
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
    if isinstance(e, (New, Invk)):
        # a loop, as in ``format_expr``: one frame per level of nesting
        slots = []
        for a in e.args:
            slots.append(f"{format_ann(a)}^{a.ascription}")
        if isinstance(e, New):
            return f"new {e.className}({', '.join(slots)})"
        return f"{format_ann(e.recv)}^{e.recv.ascription}.{e.method}({', '.join(slots)})"
    if isinstance(e, Block):
        return (f"{{{e.declClass} {e.var} = {format_ann(e.init)}^{e.init.ascription}; "
                f"{format_ann(e.body)}}}")
    raise TypeError(e)
