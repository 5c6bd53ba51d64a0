"""Malformed inputs: the ``(msg, line, col)`` of each ``SyntaxErrorGFJ``.

One row per way a parser rule refuses its input, under the default
universe.  The positions name the token the rule stopped at; a grade the
universe refuses is reported at the literal's first token.
"""

import pytest

from gradefj.syntax import SyntaxErrorGFJ, parse_expr, parse_program

M = " run x at 1"   # a well-formed tail after a malformed class

PROGRAMS = [
    # program: classes, then run <expr> at <grade>, then eof
    ("", "expected 'run', found ''", 1, 1),
    ("x", "expected 'run', found 'x'", 1, 1),
    ("run x", "expected 'at', found ''", 1, 6),
    ("run x at 1 2", "expected 'eof', found '2'", 1, 12),
    ("run x at 1 )", "expected 'eof', found ')'", 1, 12),
    ("run x at 1 class", "expected 'eof', found 'class'", 1, 12),
    ("class A { } class A { } run new A() at 1", "duplicate class A", 1, 13),
    ("class Object { } run new A() at 1", "duplicate class Object", 1, 1),
    # class header and body
    ("class", "expected 'ident', found ''", 1, 6),
    ("class A", "expected '{', found ''", 1, 8),
    ("class 1 { }", "expected 'ident', found '1'", 1, 7),
    ("class A extends { }", "expected 'ident', found '{'", 1, 17),
    ("class A extends B", "expected '{', found ''", 1, 18),
    ("class A {", "expected 'ident', found ''", 1, 10),
    ("class A { } run", "expected an expression, found ''", 1, 16),
    # members: Class[grade] name, then ';' or a method
    ("class A { B }" + M, "expected '[', found '}'", 1, 13),
    ("class A { B f; }" + M, "expected '[', found 'f'", 1, 13),
    ("class A { B[1] }" + M, "expected 'ident', found '}'", 1, 16),
    ("class A { B[1 f; }" + M, "expected ']', found 'f'", 1, 15),
    ("class A { B[] f; }" + M, "expected a grade literal", 1, 13),
    ("class A { 1[1] f; }" + M, "expected 'ident', found '1'", 1, 11),
    ("class A { B[1] f }" + M, "expected ';' or '(' after member name", 1, 18),
    ("class A { B[1] f = }" + M, "expected ';' or '(' after member name", 1, 18),
    ("class A { B[1] this; }" + M, "'this' is reserved", 1, 16),
    ("class A { B[1] this() [1] { x } }" + M, "'this' is reserved", 1, 16),
    ("class A {\n  B[1] f;\n", "expected 'ident', found ''", 3, 1),
    # methods: (params) [this grade] { body }
    ("class A { B[1] m() [1] { x } B[1] m() [1] { x } }" + M, "duplicate method A.m", 1, 35),
    ("class A { B[1] m(C[1] this) [1] { x } }" + M, "bad parameter name 'this'", 1, 23),
    ("class A { B[1] m(C[1] p, C[2] p) [1] { x } }" + M, "bad parameter name 'p'", 1, 31),
    ("class A { B[1] m(C[1] p D[1] q) [1] { x } }" + M, "expected ',', found 'D'", 1, 25),
    ("class A { B[1] m(C[1]) [1] { x } }" + M, "expected 'ident', found ')'", 1, 22),
    ("class A { B[1] m(C[1] p,) [1] { x } }" + M, "expected 'ident', found ')'", 1, 25),
    ("class A { B[1] m( }" + M, "expected 'ident', found '}'", 1, 19),
    ("class A { B[1] m() { x } }" + M, "expected '[', found '{'", 1, 20),
    ("class A { B[1] m() [1] x }" + M, "expected '{', found 'x'", 1, 24),
    ("class A { B[1] m() [1] { x }" + M, "expected 'ident', found 'run'", 1, 30),
    ("class A { B[1] m() [1] { } }" + M, "expected an expression, found '}'", 1, 26),
    ("class A { B[1] m() [1] {\n x.\n", "expected 'ident', found ''", 3, 1),
    # grades: an integer, or KIND:payload
    ("run x at", "expected a grade literal", 1, 9),
    ("run x at abc", "expected a grade literal", 1, 10),
    ("run x at :1", "expected a grade literal", 1, 10),
    ("run x @", "expected a grade literal", 1, 8),
    ("run x @ at 1", "expected a grade literal", 1, 9),
    ("run x @ 1", "expected 'at', found ''", 1, 10),
    ("run x at 1/", "expected 'eof', found '/'", 1, 11),
    ("run x at N:1.5", "expected 'eof', found '.'", 1, 13),
    ("run x at Q:1", "unknown grade kind 'Q'", 1, 10),
    # payloads: ( ... ), an identifier, an integer or int/int
    ("run x at N:", "expected a grade payload", 1, 12),
    ("run x at N:;", "expected a grade payload", 1, 12),
    ("run x at N:zz", "bad natural literal 'zz'", 1, 10),
    ("run x at N:1/", "expected 'int', found ''", 1, 14),
    ("run x at N:1/x", "expected 'int', found 'x'", 1, 14),
    ("run x at N:1/2", "bad natural literal '1/2'", 1, 10),
    ("run x at N:(1))", "bad natural literal '(1)'", 1, 10),
    ("run x at N:(a b)", "bad natural literal '(ab)'", 1, 10),
    ("run x at T:()", "the trivial algebra only has 'inf', got '()'", 1, 10),
    ("run x at N:(1", "unterminated grade literal", 1, 12),
    ("run x at A:(1, 2", "unterminated grade literal", 1, 12),
    ("run x at T:(", "unterminated grade literal", 1, 12),
    ("run x @ N:(1 at 1", "unterminated grade literal", 1, 11),
    ("run x @ N:(1, 2", "unterminated grade literal", 1, 11),
    ("class A { B[N:(1] f; }" + M, "unterminated grade literal", 1, 15),
    # expressions: primaries, then .member, .method(args) and @ grade
    ("run at 1", "expected an expression, found 'at'", 1, 5),
    ("run . at 1", "expected an expression, found '.'", 1, 5),
    ("run x. at 1", "expected 'ident', found 'at'", 1, 8),
    ("run x.1 at 1", "expected 'ident', found '1'", 1, 7),
    ("run x.m( at 1", "expected an expression, found 'at'", 1, 10),
    ("run x.m(y z) at 1", "expected ',', found 'z'", 1, 11),
    ("run x.m(y, ) at 1", "expected an expression, found ')'", 1, 12),
    ("run new at 1", "expected 'ident', found 'at'", 1, 9),
    ("run new 1() at 1", "expected 'ident', found '1'", 1, 9),
    ("run new A at 1", "expected '(', found 'at'", 1, 11),
    ("run new A( at 1", "expected an expression, found 'at'", 1, 12),
    ("run new A(x y) at 1", "expected ',', found 'y'", 1, 13),
    ("run new A(\n\n", "expected an expression, found ''", 3, 1),
    ("run { at 1", "expected 'ident', found 'at'", 1, 7),
    ("run {A x = y; z} at 1", "expected '[', found 'x'", 1, 8),
    ("run {A[1] 1 = y; z} at 1", "expected 'ident', found '1'", 1, 11),
    ("run {A[1] this = y; z} at 1", "'this' is reserved", 1, 11),
    ("run {A[1] x y; z} at 1", "expected '=', found 'y'", 1, 13),
    ("run {A[1] x = ; z} at 1", "expected an expression, found ';'", 1, 15),
    ("run {A[1] x = y z} at 1", "expected ';', found 'z'", 1, 17),
    ("run {A[1] x = y; z at 1", "expected '}', found 'at'", 1, 20),
    ("run ( at 1", "expected an expression, found 'at'", 1, 7),
    ("run (x at 1", "expected ')', found 'at'", 1, 8),
    ("run (x)) at 1", "expected 'at', found ')'", 1, 8),
    # the lexer's refusals reach the caller unchanged
    ("run x at -1", "unexpected character '-'", 1, 10),
    ("run x\n  at\n  ~", "unexpected character '~'", 3, 3),
]

EXPRESSIONS = [
    ("", "expected an expression, found ''", 1, 1),
    ("x at", "expected 'eof', found 'at'", 1, 3),
    ("x y", "expected 'eof', found 'y'", 1, 3),
    ("(x", "expected ')', found ''", 1, 3),
    ("x @ 1 @", "expected a grade literal", 1, 8),
]


def _refusal(parse, src, universe):
    with pytest.raises(SyntaxErrorGFJ) as exc:
        parse(src, universe)
    return exc.value.msg, exc.value.line, exc.value.col


@pytest.mark.parametrize("src, msg, line, col", PROGRAMS, ids=[repr(r[0]) for r in PROGRAMS])
def test_program_refused_at(src, msg, line, col, universe):
    assert _refusal(parse_program, src, universe) == (msg, line, col)


@pytest.mark.parametrize("src, msg, line, col", EXPRESSIONS,
                         ids=[repr(r[0]) for r in EXPRESSIONS])
def test_expression_refused_at(src, msg, line, col, universe):
    assert _refusal(parse_expr, src, universe) == (msg, line, col)
