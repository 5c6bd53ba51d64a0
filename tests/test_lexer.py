"""Pinned tokens of the lexer.

Each case pins the ``(kind, text, (line, col))`` of every token ``lex``
returns, eof included, or the ``(msg, line, col)`` of the ``SyntaxErrorGFJ``
it raises.  The tokens of every corpus program are pinned in
``tests/corpus_tokens.json``; regenerate that file (only when a change of
tokens is intended) with ``PYTHONPATH=src python tests/test_lexer.py``.

A seeded fuzz compares ``lex`` with ``reference_lex``, a character-at-a-time
statement of the token classes, on strings mixing ASCII with characters
where Python's character predicates and regular-expression classes differ.
"""

import gc
import json
import pathlib
import random

import pytest

from gradefj.syntax import KEYWORDS, SYMBOLS, SyntaxErrorGFJ, lex

HERE = pathlib.Path(__file__).parent
CORPUS_DIR = HERE / "corpus"
CORPUS_TOKENS = HERE / "corpus_tokens.json"


def tokens(src: str):
    """The pinned view of ``lex(src)``: its tokens, or its error."""
    try:
        toks = lex(src)
    except SyntaxErrorGFJ as exc:
        return ("error", exc.msg, exc.line, exc.col)
    return [(kind, text, (line, col))
            for kind, text, line, col in zip(toks.kinds, toks.texts, toks.lines, toks.cols)]


CASES = [
    ("", [("eof", "", (1, 1))]),
    # eof sits where the comment starts: a comment does not advance the column
    ("run x at 1 // c", [("keyword", "run", (1, 1)), ("ident", "x", (1, 5)),
                         ("keyword", "at", (1, 7)), ("int", "1", (1, 10)),
                         ("eof", "", (1, 12))]),
    ("a\tb\r\nc", [("ident", "a", (1, 1)), ("ident", "b", (1, 3)),
                   ("ident", "c", (2, 1)), ("eof", "", (2, 2))]),
    ("a/b//c\n/", [("ident", "a", (1, 1)), ("sym", "/", (1, 2)), ("ident", "b", (1, 3)),
                   ("sym", "/", (2, 1)), ("eof", "", (2, 2))]),
    ("12ab", [("int", "12", (1, 1)), ("ident", "ab", (1, 3)), ("eof", "", (1, 5))]),
    # isalpha/isdigit/isalnum, not \d or [^\W\d]: a superscript is a digit
    ("x²3 ²3 é_1 ٣", [("ident", "x²3", (1, 1)), ("int", "²3", (1, 5)),
                      ("ident", "é_1", (1, 8)), ("int", "٣", (1, 12)),
                      ("eof", "", (1, 13))]),
    ("x\xa0y", ("error", "unexpected character '\\xa0'", 1, 2)),
    ("½", ("error", "unexpected character '½'", 1, 1)),
    # an ASCII integer run continues into a non-ASCII digit
    ("1² 12é 1²class", [("int", "1²", (1, 1)), ("int", "12", (1, 4)),
                        ("ident", "é", (1, 6)), ("int", "1²", (1, 8)),
                        ("keyword", "class", (1, 10)), ("eof", "", (1, 15))]),
    ("a 1½", ("error", "unexpected character '½'", 1, 4)),
    ("x \t\r\n  \n// only\n", [("ident", "x", (1, 1)), ("eof", "", (4, 1))]),
    ("x\n  y // c", [("ident", "x", (1, 1)), ("ident", "y", (2, 3)), ("eof", "", (2, 5))]),
    ("x\n  y   ", [("ident", "x", (1, 1)), ("ident", "y", (2, 3)), ("eof", "", (2, 7))]),
    ("a\n b ~", ("error", "unexpected character '~'", 2, 4)),
    ("五x", [("ident", "五x", (1, 1)), ("eof", "", (1, 3))]),
    ("a\fb", ("error", "unexpected character '\\x0c'", 1, 2)),
]


@pytest.mark.parametrize("src, expected", CASES, ids=[repr(src) for src, _ in CASES])
def test_pinned_tokens(src, expected):
    assert tokens(src) == expected


def corpus_tokens() -> dict:
    return {p.stem: [[kind, text, *pos] for kind, text, pos in
                     tokens(p.read_text(encoding="utf-8"))]
            for p in sorted(CORPUS_DIR.glob("*.gfj"))}


def test_corpus_tokens_pinned():
    pinned = json.loads(CORPUS_TOKENS.read_text(encoding="utf-8"))
    got = corpus_tokens()
    assert sorted(got) == sorted(pinned)
    for name, toks in got.items():
        assert toks == pinned[name], name


def reference_lex(text: str):
    """The token classes one character at a time: the statement ``lex``
    must agree with exactly."""
    out = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch in " \t\r":
            col, i = col + 1, i + 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(("keyword" if word in KEYWORDS else "ident", word, (line, col)))
            col, i = col + j - i, j
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], (line, col)))
            col, i = col + j - i, j
        elif ch in SYMBOLS:
            out.append(("sym", ch, (line, col)))
            col, i = col + 1, i + 1
        else:
            return ("error", f"unexpected character {ch!r}", line, col)
    out.append(("eof", "", (line, col)))
    return out


# ASCII, the gaps, and characters on which isalpha/isdigit/isalnum differ
# from \w, \d and [^\W\d]: superscripts, fractions, other scripts' digits
# and letters, CJK numerals, Roman numerals, a no-break space
ALPHABET = (list("ab_Zclasnewrut09/{}()[];,.@:=") + [" ", "\t", "\r", "\n"] * 3
            + list("²³¹½¾٣۵०éßΩ五ⅫⅦ①\xa0 ~#"))


def test_lex_agrees_with_reference_on_fuzz():
    rng = random.Random(10)
    for _ in range(3000):
        src = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(12)))
        assert tokens(src) == reference_lex(src), repr(src)


# ASCII text has its own split, and is looked at piece by piece only when
# it holds a character that starts no token; these fragments make lines
# with comments at their ends and inside them, CRLF ends, tabs and digit-
# letter runs, and one case in four gets a stray character somewhere
ASCII_FRAGMENTS = (["a", "Zq_1", "_", "x9", "12ab", "007", "9_x", "1a2b", "class", "run",
                    "at", "new", "//", "// c ~#", "/", " / ", "\r\n", "\n", "\t",
                    " ", "\r", "  "] + sorted(SYMBOLS))
STRAY = "~#`\x0c\x00\x7f"


def test_lex_agrees_with_reference_on_ascii_fuzz():
    rng = random.Random(29)
    clean = multiline = 0
    for n in range(3000):
        parts = [rng.choice(ASCII_FRAGMENTS) for _ in range(rng.randrange(40))]
        if n % 4 == 0:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(STRAY))
        src = "".join(parts)
        assert src.isascii()
        got = tokens(src)
        assert got == reference_lex(src), repr(src)
        clean += got[0] != "error"
        multiline += "\n" in src
    # both sides of the split: most texts lex, many span lines
    assert clean > 2000 and multiline > 1500


# the Unicode split on several lines: in code, and only in a comment
UNICODE_TEXTS = ["x²3 12ab // é\n\t1²class\r\n  é_1 //~\n٣a 五x(y, 1½",
                 "class A { } // é\nrun new A( ) at 1 \r\n\t12ab"]


@pytest.mark.parametrize("src", UNICODE_TEXTS)
def test_lex_agrees_with_reference_on_unicode_lines(src):
    assert not src.isascii()
    assert tokens(src) == reference_lex(src)


def test_lex_agrees_with_reference_on_corpus():
    for p in sorted(CORPUS_DIR.glob("*.gfj")):
        src = p.read_text(encoding="utf-8")
        assert tokens(src) == reference_lex(src), p.name


if __name__ == "__main__":
    text = ",\n".join(f" {json.dumps(name)}: [\n"
                      + ",\n".join(f"  {json.dumps(tok, ensure_ascii=False)}" for tok in toks)
                      + "\n ]" for name, toks in corpus_tokens().items())
    CORPUS_TOKENS.write_text("{\n" + text + "\n}\n", encoding="utf-8")


def test_lex_allocates_per_call_not_per_token():
    # the tokens are four columns of strings and ints, which the collector
    # does not track, so a big table adds a handful of tracked objects
    src = (HERE / "programs" / "big_table129.gfj").read_text(encoding="utf-8")
    gc.disable()
    try:
        before = len(gc.get_objects())
        toks = lex(src)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(toks) > 16_000
    assert added <= 8
