"""Pinned parses of every program in the repository.

For each ``tests/corpus/*.gfj`` (under its manifest's universe) and each
``tests/programs/*.gfj`` (under the default universe), ``parse_digest``
is a SHA-256 of every class, field, method and expression node that
``parse_program`` builds, each with its ``pos``, or of the ``(msg, line,
col)`` of the ``SyntaxErrorGFJ`` it raises.  The digests are pinned in
``tests/parse_digests.json``; regenerate that file (only when a change of
the parse is intended) with ``PYTHONPATH=src python tests/test_parse_digest.py``.
"""

import hashlib
import json
import pathlib

from gradefj.hetero import default_universe, load_universe
from gradefj.syntax import Block, FieldAccess, Invk, New, SyntaxErrorGFJ, Var, parse_program

HERE = pathlib.Path(__file__).parent
DIGESTS = HERE / "parse_digests.json"


def expr_lines(e) -> list[str]:
    """One line per node of ``e``, in prefix order; a loop, not a recursion,
    so that a 900-deep receiver chain is walked in one frame."""
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        head = f"{type(e).__name__} {e.pos} {e.ascription!r}"
        if isinstance(e, Var):
            out.append(f"{head} {e.name}")
        elif isinstance(e, FieldAccess):
            out.append(f"{head} .{e.fieldName}")
            todo.append(e.recv)
        elif isinstance(e, New):
            out.append(f"{head} new {e.className} {len(e.args)}")
            todo.extend(reversed(e.args))
        elif isinstance(e, Invk):
            out.append(f"{head} .{e.method} {len(e.args)}")
            todo.extend(reversed(e.args))
            todo.append(e.recv)
        elif isinstance(e, Block):
            out.append(f"{head} {e.declClass} {e.declGrade!r} {e.var}")
            todo += [e.body, e.init]
        else:
            raise TypeError(e)
    return out


def parse_lines(text: str, universe) -> list[str]:
    try:
        program = parse_program(text, universe)
    except SyntaxErrorGFJ as exc:
        return [f"error {exc.msg!r} {exc.line} {exc.col}"]
    out = []
    for decl in program.table.classes.values():
        out.append(f"class {decl.name} {decl.superName} {decl.pos}")
        for fd in decl.fields:
            out.append(f"field {fd.className} {fd.grade!r} {fd.name} {fd.pos}")
        for md in decl.methods.values():
            params = [(p.className, p.grade, p.name) for p in md.params]
            out.append(f"method {md.name} {md.thisGrade!r} {params!r} "
                       f"{md.returnType.className} {md.returnType.grade!r} {md.pos}")
            out += expr_lines(md.body)
    out.append(f"run {program.mainGrade!r}")
    return out + expr_lines(program.main)


def parse_digest(text: str, universe) -> str:
    return hashlib.sha256("\n".join(parse_lines(text, universe)).encode()).hexdigest()


def parse_digests() -> dict[str, str]:
    out = {}
    for path in sorted((HERE / "corpus").glob("*.gfj")):
        manifest = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        name = manifest.get("universe")
        u = load_universe(str(HERE / "corpus" / name)) if name else default_universe()
        out[f"corpus/{path.name}"] = parse_digest(path.read_text(encoding="utf-8"), u)
    for path in sorted((HERE / "programs").glob("*.gfj")):
        out[f"programs/{path.name}"] = parse_digest(path.read_text(encoding="utf-8"),
                                                    default_universe())
    return out


def test_parse_digests_pinned():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = parse_digests()
    assert sorted(got) == sorted(pinned)
    for name, digest in got.items():
        assert digest == pinned[name], name


def test_digest_sees_positions(universe):
    # a moved node changes the digest although the trees compare equal
    src = "class A { }\nrun new A() at 1"
    assert parse_program(src, universe).main == parse_program(" " + src, universe).main
    assert parse_digest(src, universe) != parse_digest(" " + src, universe)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(parse_digests(), indent=1) + "\n", encoding="utf-8")
