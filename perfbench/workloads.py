"""Workload operations and their independent references.

Every operation goes through a public entry point of gradefj: CLI commands
through ``gradefj.cli.main(argv)`` with stdout and stderr captured (the code
path of the ``gradefj`` script), the theorem harness through
``gradefj.props``.  Each operation carries a check against a reference
that does not come from the code under test: the corpus manifests, the
answer a generated input's construction implies, or, for instrumented runs,
the standard run of the same program (``std_step`` is the independent
oracle).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import calib

# The operation classes whose latencies make the workload's op_ms_geomean.
PRIMARY = {"corpus_replay": ("check", "run"), "long_runs": ("run",),
           "universe_laws": ("laws",), "big_tables": ("check",)}

# Layers that must record work in a traced run of each workload.
LAYERS = {"corpus_replay": ("cli", "syntax", "typecheck", "runtime", "hetero",
                            "grades", "props"),
          "long_runs": ("cli", "syntax", "typecheck", "runtime", "hetero"),
          "universe_laws": ("cli", "hetero", "grades"),
          "big_tables": ("cli", "syntax", "typecheck", "runtime", "hetero")}


@dataclass
class Op:
    """One operation: ``call`` does the work, ``check`` compares its result
    with the reference and returns the differences (empty when correct).
    ``known_failure`` names the exception the operation raised when the
    benchmark was defined (``error``) and why (``why``)."""
    name: str
    cls: str        # check | run | std | search | search-text | laws | harness
    call: Callable[[], object]
    check: Callable[[object], list]
    known_failure: Optional[dict] = None
    input: Optional[str] = None   # the generated input it works on


@dataclass
class Outcome:
    op: Op
    seconds: float
    problems: list = field(default_factory=list)
    error: Optional[str] = None   # type name of the exception it raised
    steps: int = 0
    around: Optional[tuple] = None   # calibration points before and after it

    @property
    def scaled(self) -> float:
        """Seconds at the calibrated speed (the raw seconds if uncalibrated)."""
        return self.seconds * (calib.scale(*self.around) if self.around else 1.0)

    @property
    def steady(self) -> bool:
        """False when the machine changed speed while it ran."""
        return self.around is None or calib.steady(*self.around)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def known(self) -> bool:
        """It failed the way it was known to: by raising the recorded exception."""
        kf = self.op.known_failure
        return kf is not None and self.error == kf["error"]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli_call(argv: list[str]) -> CliResult:
    from gradefj.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def execute(op: Op) -> Outcome:
    t0 = time.perf_counter()
    try:
        result = op.call()
    except (Exception, SystemExit) as exc:   # a crash is a failed operation
        return Outcome(op, time.perf_counter() - t0,
                       [f"raised {type(exc).__name__}: {str(exc)[:120]}"],
                       error=type(exc).__name__)
    seconds = time.perf_counter() - t0
    try:
        problems = op.check(result)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    steps = result.get("steps", 0) if isinstance(result, dict) else 0
    if isinstance(result, CliResult) and result.out.startswith("{"):
        try:
            steps = json.loads(result.out).get("steps") or 0
        except ValueError:
            pass
    return Outcome(op, seconds, problems, steps=steps)


# ---------------------------------------------------------------------------
# reference checks

def _diag_messages(diags) -> list[str]:
    return [f"[{d['rule']}] {d['kind']}: {d['msg']}" for d in diags]


def check_verdict(verdict: str, wanted_substrings=(), rule=None, kind=None):
    """Reference for ``check --json``: exit code, verdict and diagnostics."""
    def check(r: CliResult) -> list:
        want_code = 0 if verdict == "accept" else 1
        if r.code != want_code:
            return [f"exit {r.code}, expected {want_code} ({verdict}); {r.err[:120]}"]
        diags = json.loads(r.out)
        if verdict == "accept":
            return [] if diags == [] else [f"accepted with diagnostics {diags}"]
        if not diags:
            return ["rejected without diagnostics"]
        msgs = _diag_messages(diags)
        problems = [f"no diagnostic mentions {w!r}: {msgs}"
                    for w in wanted_substrings if not any(w in m for m in msgs)]
        if rule and not any(d["rule"] == rule and d["kind"] == kind for d in diags):
            problems.append(f"expected [{rule}] {kind}, got {msgs}")
        return problems
    return check


def check_run(want: dict, pair: Optional[dict] = None, store: Optional[dict] = None,
              key=None):
    """Reference for ``run --json``: outcome, steps, value, stuck reason and
    final env grades as far as ``want`` pins them.  With ``pair`` the payload
    must also equal the standard run recorded under ``key`` (same steps, same
    erased value); with ``store`` the payload is recorded there."""
    def check(r: CliResult) -> list:
        want_code = 4 if want.get("outcome") == "stuck" else 0
        if r.code != want_code:
            return [f"exit {r.code}, expected {want_code}; {r.err[:120]}"]
        got = json.loads(r.out)
        if store is not None:
            store[key] = got
        problems = []
        if got["outcome"] != want["outcome"]:
            return [f"outcome {got['outcome']} != {want['outcome']}"]
        if "steps" in want and got["steps"] != want["steps"]:
            problems.append(f"steps {got['steps']} != {want['steps']}")
        if "value" in want and got["value"] != want["value"]:
            problems.append("final value differs from the known value")
        if "reason" in want and not str(got.get("reason", "")).startswith(want["reason"]):
            problems.append(f"stuck reason {got.get('reason')} != {want['reason']}")
        if "finalEnvGrades" in want and got["env"] != want["finalEnvGrades"]:
            problems.append(f"final env {got['env']} != {want['finalEnvGrades']}")
        if pair is not None:
            std = pair.get(key)
            if std is None:
                problems.append("no standard run to compare with")
            elif (got["steps"], got["value"]) != (std["steps"], std["value"]):
                problems.append(f"instrumented run ({got['steps']} steps) differs from "
                                f"the standard run ({std['steps']} steps)")
        return problems
    return check


def check_text(text: str, code: int):
    def check(r: CliResult) -> list:
        if r.code != code or text not in r.out:
            return [f"exit {r.code} output {r.out[:80]!r}, expected {text!r}"]
        return []
    return check


def check_laws(code: int, violates: Optional[dict] = None):
    """Every law must PASS on a valid universe; a broken one exits 2 and
    names the law it breaks and the witness planted by the generator."""
    def check(r: CliResult) -> list:
        if r.code != code:
            return [f"exit {r.code}, expected {code}; {r.err[:120]}"]
        if violates is not None:
            marker = f"violates {violates['law']}:"
            witness = r.err.split(marker, 1)[1] if marker in r.err else ""
            if not all(f"'{w}'" in witness for w in violates["witness"]):
                return [f"expected {marker} {violates['witness']}, got {r.err[:120]!r}"]
            return []
        lines = json.loads(r.out)
        bad = [f"{x['scope']}: {x['law']}" for x in lines if not x["ok"]]
        if not lines:
            return ["no laws reported"]
        return [f"law failed on a valid universe: {b}" for b in bad]
    return check


def check_harness(outcome) -> list:
    return [f"{outcome.name}: {f}" for f in outcome.failures]


# ---------------------------------------------------------------------------
# operations per workload

def _universe_args(manifest: dict, corpus_dir: Path) -> list[str]:
    if "universe" in manifest:
        return ["--universe", str(corpus_dir / manifest["universe"])]
    return []


def corpus_ops(corpus_dir: Path, seed: int) -> list[Op]:
    """check, run and run --unchecked on every corpus program in a seeded
    order, then the props harness on the whole corpus."""
    from gradefj import props
    ops = []
    programs = sorted(corpus_dir.glob("*.gfj"))
    random.Random(f"corpus_replay:{seed}").shuffle(programs)
    for path in programs:
        manifest = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        uni, name, src = _universe_args(manifest, corpus_dir), path.stem, str(path)
        ops.append(Op(f"check {name}", "check",
                      lambda a=["check", "--json", src, *uni]: cli_call(a),
                      check_verdict(manifest["expect"], manifest.get("diagnostics", ()))))
        fuel = ["--fuel", str(manifest["fuel"])] if "fuel" in manifest else []
        if manifest["expect"] == "accept" and "run" in manifest:
            ops.append(Op(f"run {name}", "run",
                          lambda a=["run", "--json", *fuel, src, *uni]: cli_call(a),
                          check_run(manifest["run"])))
        if "uncheckedRun" in manifest:
            ops.append(Op(f"run --unchecked {name}", "run",
                          lambda a=["run", "--unchecked", "--json", *fuel, src, *uni]:
                          cli_call(a),
                          check_run(manifest["uncheckedRun"])))

    state: dict = {}

    def load():
        state.clear()   # entries of an earlier pass must not stand in for these
        state.update((e.name, e) for e in props.load_corpus(corpus_dir))
        return sorted(state)

    names = sorted(p.stem for p in programs)
    ops.append(Op("props.load_corpus", "harness", load,
                  lambda got: [] if got == names
                  else ["corpus entries differ from the .gfj files"]))
    for name in names:
        ops.append(Op(f"props.check_entry {name}", "harness",
                      lambda n=name: props.check_entry(state[n]), check_harness))
        ops.append(Op(f"props.theorem_suite {name}", "harness",
                      lambda n=name: props.theorem_suite(state[n]), check_harness))
    return ops


_RUN_ARGS = {"minimal": ["run", "--json"], "standard": ["run", "--standard", "--json"],
             "search": ["run", "--policy", "search", "--json"],
             "search-text": ["run", "--policy", "search"]}
# search-text is the divergence check at a fuel the seed cannot search; it has
# a class of its own so that its time stays out of search_steps_per_s.
_RUN_CLASS = {"minimal": "run", "standard": "std", "search": "search",
              "search-text": "search-text"}


def program_ops(records: list[dict]) -> list[Op]:
    """check --json on every generated program, then its runs.  A standard
    run goes before the instrumented run it is compared with."""
    ops = []
    std_payloads: dict = {}
    for rec in records:
        exp, path, name = rec["expect"], rec["path"], rec["name"]
        ops.append(Op(f"check {name}", "check",
                      lambda a=["check", "--json", path]: cli_call(a),
                      check_verdict(exp["verdict"], rule=exp.get("rule"),
                                    kind=exp.get("kind")),
                      known_failure=exp.get("known_failure"), input=name))
        runs = sorted(exp["runs"], key=lambda r: r["mode"] != "standard")
        for want in runs:
            mode = want["mode"]
            argv = _RUN_ARGS[mode] + (["--fuel", str(want["fuel"])] if "fuel" in want
                                      else []) + [path]
            if mode == "search-text":
                check = check_text(want["text"], want["exit"])
            elif mode == "standard":
                check = check_run(want, store=std_payloads, key=name)
            elif want.get("same_as") == "standard":
                check = check_run(want, pair=std_payloads, key=name)
            else:
                check = check_run(want)
            if mode == "standard":   # forget the previous pass's payload first
                call = lambda a=argv, k=name: (std_payloads.pop(k, None), cli_call(a))[1]
            else:
                call = lambda a=argv: cli_call(a)
            ops.append(Op(f"{' '.join(argv[:-1])} {name}", _RUN_CLASS[mode], call, check,
                          known_failure=want.get("known_failure"), input=name))
    return ops


def universe_ops(records: list[dict]) -> list[Op]:
    return [Op(f"laws {rec['name']}", "laws",
               lambda a=["laws", "--json", rec["path"]]: cli_call(a),
               check_laws(rec["expect"]["exit"], rec["expect"].get("violates")))
            for rec in records]


def build_ops(workload: str, records: list[dict], corpus_dir: Path, seed: int) -> list[Op]:
    if workload == "corpus_replay":
        return corpus_ops(corpus_dir, seed)
    if workload == "universe_laws":
        return universe_ops(records)
    return program_ops(records)


def universe_files(workload: str, records: list[dict], corpus_dir: Path) -> list[str]:
    """The universe files a user of this workload loads (for setup_s)."""
    if workload == "universe_laws":
        return [r["path"] for r in records]
    if workload == "corpus_replay":
        return [str(p) for p in sorted(corpus_dir.glob("*.json"))
                if "kinds" in json.loads(p.read_text(encoding="utf-8"))]
    return []
