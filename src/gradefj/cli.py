"""Command-line front end: check, run, and validate grade universes.

Exit codes: 0 success (including a reported divergence), 1 a program was
rejected by the checker, 2 a parse/universe/law failure, 3 an I/O error
(a stdout closed before the output was written among them), 4 an
instrumented run got stuck.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .hetero import GradeUniverse, check_universe_laws, default_universe, load_universe
from .grades import GradeError, LawReport
from .runtime import Enumerate, GradedConfig, Minimal, StdConfig, graded_run, std_run
from .syntax import Program, SyntaxErrorGFJ, erase, erase_table, format_expr, parse_program
from .typecheck import annotate_program, cycle_diags, elaborate_program

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_STUCK = 4


def _read_program(args) -> tuple[GradeUniverse, Program] | int:
    """The universe and the parsed program of ``check``/``run``, or the exit
    code of the error, already reported, that stopped reading them."""
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        universe = default_universe() if args.universe is None else _load_universe(args.universe)
        if isinstance(universe, int):
            return universe
        program = parse_program(text, universe)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SyntaxErrorGFJ, GradeError, KeyError, ValueError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return universe, program


def _load_universe(path: str) -> GradeUniverse | int:
    """The universe in ``path``, or the exit code of the error, already
    reported against ``path``, that stopped loading it."""
    try:
        return load_universe(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GradeError, KeyError, ValueError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def cmd_check(args) -> int:
    read = _read_program(args)
    if isinstance(read, int):
        return read
    diags, _ = elaborate_program(*read)
    if args.json:
        print(json.dumps([d.to_json() for d in diags], sort_keys=True))
    else:
        for d in diags:
            print(d.render(args.file))
    return EXIT_REJECTED if diags else EXIT_OK


def cmd_run(args) -> int:
    read = _read_program(args)
    if isinstance(read, int):
        return read
    universe, program = read
    # the unchecked modes still refuse an inheritance cycle: lookups would not end
    if args.standard:
        diags = cycle_diags(program.table)
    elif args.unchecked:
        diags, ready = annotate_program(universe, program)
    else:
        diags, ready = elaborate_program(universe, program)
    for d in diags:
        print(d.render(args.file), file=sys.stderr)
    if diags:
        return EXIT_BAD_INPUT if args.standard or args.unchecked else EXIT_REJECTED
    if args.standard:
        return _run_standard(args, program)

    policy = Enumerate() if args.policy == "search" else Minimal()
    run = graded_run(universe, ready.table, GradedConfig(ready.main),
                     program.mainGrade, policy, args.fuel, want_trace=args.trace)

    payload = {
        "outcome": run.outcome,
        "steps": run.steps,
        "value": (format_expr(erase(run.config.expr))
                  if run.outcome == "final" else None),
        "env": run.final_env_grades(),
    }
    if run.reason is not None:
        payload["reason"] = run.reason.render()
    traced = args.trace and run.trace is not None
    if args.json and traced:
        _print_traced(payload, (t.render(i, program.mainGrade) for i, t in enumerate(run.trace)))
    elif args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        if traced:  # each line printed as it is rendered
            for i, t in enumerate(run.trace):
                print(t.render(i, program.mainGrade))
        if run.outcome == "final":
            print(payload["value"])
            print(" ".join(f"{x}:{g}" for x, g in payload["env"].items()))
        elif run.outcome == "stuck":
            print(f"stuck after {run.steps} steps: {payload['reason']}")
        else:
            print(f"divergent within fuel ({run.steps} steps)")
    return EXIT_STUCK if run.outcome == "stuck" else EXIT_OK


def _print_traced(payload: dict, lines) -> None:
    """Print ``json.dumps({**payload, "trace": list(lines)}, sort_keys=True)``
    one trace line at a time, holding no list of them: every key of
    ``payload`` but "value" sorts before "trace"."""
    head = {k: v for k, v in payload.items() if k != "value"}
    write = sys.stdout.write
    write(json.dumps(head, sort_keys=True)[:-1] + ', "trace": [')
    for i, line in enumerate(lines):
        write((", " if i else "") + json.dumps(line))
    write('], "value": ' + json.dumps(payload["value"]) + "}\n")


def _run_standard(args, program: Program) -> int:
    table = erase_table(program.table)
    main = erase(program.main)
    outcome, cfg, steps = std_run(table, StdConfig(main), args.fuel)
    payload = {"outcome": outcome,
               "steps": steps,
               "value": format_expr(cfg.expr) if outcome == "final" else None}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif outcome == "final":
        print(payload["value"])
    elif outcome == "stuck":
        print(f"stuck after {steps} steps")
    else:
        print(f"divergent within fuel ({steps} steps)")
    return EXIT_STUCK if outcome == "stuck" else EXIT_OK


def _law_lines(scope: str, report: LawReport) -> list[dict]:
    return [{"scope": scope, "law": r.law, "ok": r.ok,
             "witness": list(r.witness) if r.witness else None} for r in report.results]


def cmd_laws(args) -> int:
    universe = _load_universe(args.universe_file)
    if isinstance(universe, int):
        return universe

    lines = []
    for kind in sorted(universe.kinds):
        lines += _law_lines(f"kind {kind}", universe.law_report(kind))
    lines += _law_lines("universe", check_universe_laws(universe))
    ok = all(entry["ok"] for entry in lines)
    if args.json:
        print(json.dumps(lines, sort_keys=True))
    else:
        for entry in lines:
            status = "PASS" if entry["ok"] else "FAIL"
            suffix = f" witness={entry['witness']}" if entry["witness"] else ""
            print(f"{status} {entry['scope']}: {entry['law']}{suffix}")
    return EXIT_OK if ok else EXIT_BAD_INPUT


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: ``main`` may
    run many commands in one process."""
    parser = argparse.ArgumentParser(prog="gradefj",
                                     description="Resource-aware Featherweight Java")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a program")
    p_check.add_argument("file")
    p_check.add_argument("--universe", help="grade-universe config (JSON)")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="run a program under the instrumented semantics")
    p_run.add_argument("file")
    p_run.add_argument("--universe")
    p_run.add_argument("--policy", choices=["minimal", "search"], default="minimal")
    p_run.add_argument("--fuel", type=int, default=100_000)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--standard", action="store_true",
                       help="use the grade-free standard semantics")
    p_run.add_argument("--unchecked", action="store_true",
                       help="skip typechecking; run the written annotations")
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_laws = sub.add_parser("laws", help="validate a grade universe and its laws")
    p_laws.add_argument("universe_file")
    p_laws.add_argument("--json", action="store_true")
    p_laws.set_defaults(fn=cmd_laws)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fuel", 1) <= 0:
        parser.error("--fuel must be positive")
    if getattr(args, "standard", False):  # no grades to trace, leave unchecked or search
        for flag, given in (("--trace", args.trace), ("--unchecked", args.unchecked),
                            ("--policy search", args.policy == "search")):
            if given:
                parser.error(f"--standard does not take {flag}")
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left unwritten goes to the null
        # device, so that the flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
