"""Pinned CLI output for every corpus program.

For each program in ``tests/corpus`` this replays up to four commands with
the universe and fuel named by its manifest, twice in one process, and
compares the exit code and stdout byte for byte with
``tests/golden/<name>.json`` (and the two calls' stderr with each other):

- ``check --json``
- ``run --json --trace`` (accepted programs whose manifest has ``run``)
- ``run --unchecked --json --trace`` (manifests with ``uncheckedRun``)
- ``run --standard --json``

It also pins the exit code, stdout and stderr of ``laws --json`` on the
corpus universes, on the ``tests/programs`` universes and on a few universes
written out below, in ``tests/golden/laws/<name>.json``; the universe file's
path is replaced by ``<universe>`` in stderr. A plain ``run --json`` of every
program is replayed twice as well, and matches the pinned traced run without
its trace.

Regenerate the pinned files (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

HERE = pathlib.Path(__file__).parent
CORPUS_DIR = HERE / "corpus"
GOLDEN_DIR = HERE / "golden"
LAWS_GOLDEN_DIR = GOLDEN_DIR / "laws"
PROGRAMS = sorted(p.stem for p in CORPUS_DIR.glob("*.gfj"))
CORPUS_UNIVERSES = ("affinity_privacy", "bool", "ext")
PROGRAM_UNIVERSES = ("chain68_one", "chain_pool80", "diamonds_pool79", "extreal8_pool76",
                     "kinds68_pool80", "real_product_chain")


def commands(name: str) -> dict[str, list[str]]:
    """The pinned commands for one corpus program, keyed by a short label."""
    manifest = json.loads((CORPUS_DIR / f"{name}.json").read_text(encoding="utf-8"))
    src = str(CORPUS_DIR / f"{name}.gfj")
    opts = []
    if "universe" in manifest:
        opts += ["--universe", str(CORPUS_DIR / manifest["universe"])]
    fuel = ["--fuel", str(manifest["fuel"])] if "fuel" in manifest else []
    out = {"check": ["check", "--json", src, *opts]}
    if manifest["expect"] == "accept" and "run" in manifest:
        out["run"] = ["run", "--json", "--trace", *fuel, src, *opts]
    if "uncheckedRun" in manifest:
        out["unchecked"] = ["run", "--unchecked", "--json", "--trace", *fuel, src, *opts]
    out["standard"] = ["run", "--standard", "--json", *fuel, src, *opts]
    return out


def replay(argv: list[str], with_stderr: bool = False) -> dict:
    from gradefj.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    got = {"exit": code, "stdout": out.getvalue()}
    if with_stderr:
        got["stderr"] = err.getvalue()
    return got


def observe(name: str) -> dict:
    return {label: replay(argv) for label, argv in commands(name).items()}


def test_golden_covers_the_corpus():
    assert len(PROGRAMS) == 39
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == PROGRAMS


def twice(argv: list[str]) -> dict:
    """Replay ``argv`` twice in this process, with stderr: ``main`` keeps its
    parser and the default universe's validation between calls, and the
    second call must answer as the first."""
    first, second = replay(argv, with_stderr=True), replay(argv, with_stderr=True)
    assert first == second, argv
    return first


@pytest.mark.parametrize("name", PROGRAMS)
def test_golden_cli_output(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert sorted(commands(name)) == sorted(want)
    for label, argv in commands(name).items():
        got = twice(argv)
        assert {"exit": got["exit"], "stdout": got["stdout"]} == want[label], label


@pytest.mark.parametrize("name", PROGRAMS)
def test_plain_run_repeats_and_matches_the_golden_run(name):
    # run --json without --trace, with the manifest's universe and fuel
    plain = [arg for arg in commands(name)["standard"] if arg != "--standard"]
    got = twice(plain)
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    if "run" in want:
        traced = json.loads(want["run"]["stdout"])
        del traced["trace"]
        assert got["exit"] == want["run"]["exit"]
        assert json.loads(got["stdout"]) == traced


# ---------------------------------------------------------------------------
# laws --json

def chain_table(name: str, levels: list[str]) -> dict:
    """Chain 0 < levels[0] < ...: sum is max, product is min, one is the top."""
    elems = ["0", *levels]
    rank = {e: i for i, e in enumerate(elems)}
    return {"name": name, "elements": elems,
            "leq": [[a, b] for a in elems for b in elems if rank[a] <= rank[b]],
            "sum": {a: {b: max(a, b, key=rank.get) for b in elems} for a in elems},
            "mul": {a: {b: min(a, b, key=rank.get) for b in elems} for a in elems},
            "zero": "0", "one": elems[-1]}


def broken_add_table() -> dict:
    # x + z is y, but z + x stays z
    table = chain_table("brokenadd", ["x", "y", "z"])
    table["sum"]["x"]["z"] = "y"
    return table


def table_config(table) -> dict:
    """A ``FiniteTable`` written out as a universe file's table."""
    return {"name": table.name, "elements": list(table.elements),
            "leq": sorted([list(p) for p in table.leq]),
            "sum": table.sum, "mul": table.mul, "zero": table.zero, "one": table.one}


def broken_mul_table() -> dict:
    # affinity with 1 * w redefined: distributivity breaks
    from gradefj.grades import affinity_table
    cfg = table_config(affinity_table())
    cfg["name"], cfg["mul"] = "brokenaff", {a: dict(row) for a, row in cfg["mul"].items()}
    cfg["mul"]["1"]["w"] = "1"
    return cfg


def inline_universes() -> dict[str, dict]:
    """Universe configs pinned besides the corpus ones, keyed by golden name."""
    from gradefj.grades import pprivacy_table
    lh = chain_table("lh", ["lo", "hi"])
    c2, c4 = chain_table("c2", ["lo", "hi"]), chain_table("c4", ["a", "b", "c", "d"])
    return {
        "fin_product": {
            "kinds": {"L": {"table": lh},
                      "LB": {"product": [{"table": lh}, {"builtin": "boolean"}]}},
            "edges": [{"sub": "LB", "super": "L", "hom": {"proj": "left"}}]},
        "fin_chain": {
            "kinds": {"K4": {"table": c4}, "K2": {"table": c2},
                      "K1": {"table": chain_table("c1", ["on"])}},
            "edges": [{"sub": "K4", "super": "K2", "hom": {"map": {
                           "0": "0", "a": "lo", "b": "lo", "c": "hi", "d": "hi"}}},
                      {"sub": "K2", "super": "K1", "hom": {"map": {
                           "0": "0", "lo": "on", "hi": "on"}}}]},
        "extreal": {"kinds": {"R": {"builtin": "extreal"}}, "edges": []},
        "extend_nat": {"kinds": {"E": {"extend": {"builtin": "nat"}}}, "edges": []},
        "broken_add": {"kinds": {"X": {"table": broken_add_table()}}, "edges": []},
        "broken_distributivity": {"kinds": {"X": {"table": broken_mul_table()}},
                                  "edges": []},
        # edge maps that break one homomorphism law each: the universe is refused
        "edge_hom_one": {
            "kinds": {"C": {"table": c2}, "B": {"builtin": "boolean"}},
            "edges": [{"sub": "C", "super": "B", "hom": {"map": {
                "0": "0", "lo": "0", "hi": "0"}}}]},
        "edge_hom_add": {
            "kinds": {"K4": {"table": c4}, "K2": {"table": c2}},
            "edges": [{"sub": "K4", "super": "K2", "hom": {"map": {
                "0": "0", "a": "lo", "b": "hi", "c": "lo", "d": "hi"}}}]},
        "edge_hom_mul": {
            "kinds": {"PP": {"table": table_config(pprivacy_table())},
                      "B": {"builtin": "boolean"}},
            "edges": [{"sub": "PP", "super": "B", "hom": {"map": {
                "0": "0", "a": "0", "b": "1", "c": "1", "d": "1"}}}]},
    }


LAW_UNIVERSES = sorted([*CORPUS_UNIVERSES, *PROGRAM_UNIVERSES, *inline_universes()])


def observe_laws(name: str, workdir: pathlib.Path) -> dict:
    if name in CORPUS_UNIVERSES:
        path = CORPUS_DIR / f"{name}.json"
    elif name in PROGRAM_UNIVERSES:
        path = HERE / "programs" / f"{name}.json"
    else:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(inline_universes()[name]), encoding="utf-8")
    got = replay(["laws", "--json", str(path)], with_stderr=True)
    got["stderr"] = got["stderr"].replace(str(path), "<universe>")
    return got


@pytest.mark.parametrize("name", LAW_UNIVERSES)
def test_golden_laws_output(name, tmp_path):
    want = json.loads((LAWS_GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    # twice in one process: each call loads and law-checks the file afresh
    assert observe_laws(name, tmp_path) == observe_laws(name, tmp_path) == want


def test_golden_laws_output_with_reserved_reports_cached(tmp_path):
    # builtin algebras, N's and T's among them, are checked on the first laws
    # command that prints them in a process; later commands print the cached
    # reports, which must read as a fresh check
    from gradefj.hetero import builtin_law_report
    builtin_law_report.cache_clear()
    for name in ("bool", "affinity_privacy", "bool"):
        want = json.loads((LAWS_GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert observe_laws(name, tmp_path) == want, name


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in PROGRAMS:
        text = json.dumps(observe(name), indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
    LAWS_GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in LAW_UNIVERSES:
            got = observe_laws(name, pathlib.Path(workdir))
            text = json.dumps(got, indent=1, sort_keys=True) + "\n"
            (LAWS_GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(PROGRAMS)} files to {GOLDEN_DIR} and {len(LAW_UNIVERSES)} "
          f"to {LAWS_GOLDEN_DIR}", file=sys.stderr)
