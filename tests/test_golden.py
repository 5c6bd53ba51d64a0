"""Pinned CLI output for every corpus program.

For each program in ``tests/corpus`` this replays up to four commands with
the universe and fuel named by its manifest and compares the exit code and
stdout byte for byte with ``tests/golden/<name>.json``:

- ``check --json``
- ``run --json --trace`` (accepted programs whose manifest has ``run``)
- ``run --unchecked --json --trace`` (manifests with ``uncheckedRun``)
- ``run --standard --json``

Regenerate the pinned files (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).parent
CORPUS_DIR = HERE / "corpus"
GOLDEN_DIR = HERE / "golden"
PROGRAMS = sorted(p.stem for p in CORPUS_DIR.glob("*.gfj"))


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


def replay(argv: list[str]) -> dict:
    from gradefj.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def observe(name: str) -> dict:
    return {label: replay(argv) for label, argv in commands(name).items()}


def test_golden_covers_the_corpus():
    assert len(PROGRAMS) == 39
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == PROGRAMS


@pytest.mark.parametrize("name", PROGRAMS)
def test_golden_cli_output(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    got = observe(name)
    assert sorted(got) == sorted(want)
    for label in want:
        assert got[label] == want[label], label


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in PROGRAMS:
        text = json.dumps(observe(name), indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(PROGRAMS)} files to {GOLDEN_DIR}", file=sys.stderr)
