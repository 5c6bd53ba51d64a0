"""CLI behavior: exit codes, output formats, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest

import gradefj
from gradefj.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus_path(corpus_dir, name):
    return str(corpus_dir / name)


def test_check_accept(capsys, corpus_dir):
    code, out, err = run_cli(capsys, "check", corpus_path(corpus_dir, "two_blocks_nat.gfj"))
    assert code == 0 and out == ""


def test_check_reject_diagnostic(capsys, corpus_dir):
    code, out, err = run_cli(capsys, "check",
                             corpus_path(corpus_dir, "getter_omega_overuse.gfj"))
    assert code == 1
    assert "[t-var]" in out or "[t-sub]" in out


def test_check_json(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "check", "--json",
                           corpus_path(corpus_dir, "getter_affine_demand.gfj"))
    assert code == 1
    diags = json.loads(out)
    assert diags and diags[0]["rule"] in ("t-sub", "t-var")


def test_check_json_field_position(capsys, tmp_path):
    src = tmp_path / "field.gfj"
    src.write_text("class A { B[1] f; } run new A(new A()) at 1")
    code, out, _ = run_cli(capsys, "check", "--json", str(src))
    assert code == 1
    assert json.loads(out) == [{"col": 16, "kind": "UnknownClass", "line": 1,
                                "msg": "field A.f has unknown class B", "rule": "table"}]


@pytest.mark.parametrize("src, diag", [
    # the field lookup above a receiver is reported before the receiver's
    # own argument, which names an unknown variable
    ("class A { A[1] id(A[1] x) [1] { x } }\n"
     "class P { A[1] a; A[1] bad() [1] { this.a.id(q).nope } }\nrun new A() at 1",
     {"col": 36, "kind": "UnknownMember", "line": 2,
      "msg": "in P.bad: class A has no field 'nope'", "rule": "t-meth"}),
    # an unknown variable deep in a receiver comes before the lookups above it
    ("class A { }\nclass P { A[1] a; }\nrun zz.a.nope at 1",
     {"col": 5, "kind": "UnknownVariable", "line": 3, "msg": "unknown variable 'zz'",
      "rule": "t-var"}),
    # an unknown method above a call whose argument is an unknown variable
    ("class A { A[1] id(A[1] x) [1] { x } }\nrun new A().id(zz).nope() at 1",
     {"col": 5, "kind": "UnknownMember", "line": 2, "msg": "class A has no method 'nope'",
      "rule": "t-invk"}),
    # one diagnostic per program, of a kind that no corpus program reaches
    ("class A { }\nclass P { A[1] f; }\nrun new P() at 1",
     {"col": 5, "kind": "ArityMismatch", "line": 3,
      "msg": "class P has 1 fields, got 0 arguments", "rule": "t-new"}),
    ("class A { A[1] m()[1] { new A() } }\nrun new A().m(new A()) at 1",
     {"col": 5, "kind": "ArityMismatch", "line": 2,
      "msg": "method 'm' takes 0 arguments, got 1", "rule": "t-invk"}),
    ("class A { }\nclass B { }\nclass C { B[1] m()[1] { new B() } }\n"
     "run {A[1] x = new C().m(); x} at 1",
     {"col": 15, "kind": "TypeMismatch", "line": 4,
      "msg": "method 'm' returns B, which is not a subclass of A", "rule": "t-sub"}),
    ("class A { Q[1] m()[1] { new A() } }\nrun new A() at 1",
     {"col": 17, "kind": "UnknownClass", "line": 1,
      "msg": "A.m mentions unknown class Q", "rule": "table"}),
    ("class A { }\nclass B { }\nclass C { A[1] m()[1] { new A() } }\n"
     "class D extends C { B[1] m()[1] { new B() } }\nrun new D() at 1",
     {"col": 27, "kind": "Coherence", "line": 4,
      "msg": "D.m overrides C.m with return type B^1, not a subtype of A^1", "rule": "table"}),
    ("class A { }\nrun new Q().f at 1",
     {"col": 5, "kind": "UnknownClass", "line": 2, "msg": "unknown class 'Q'",
      "rule": "t-new"}),
    ("class A { }\nrun {A[1] x = new A(); x @ 1} at 1",
     {"col": 24, "kind": "AnnotationMismatch", "line": 2,
      "msg": "a grade ascription is not allowed at this position", "rule": "t-block"}),
])
def test_check_json_diagnostic_order(capsys, tmp_path, src, diag):
    path = tmp_path / "order.gfj"
    path.write_text(src)
    code, out, err = run_cli(capsys, "check", "--json", str(path))
    assert (code, json.loads(out), err) == (1, [diag], "")


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "no/such/file.gfj")
    assert code == 3


PROGRAMS_DIR = pathlib.Path(__file__).parent / "programs"


@pytest.mark.parametrize("argv", [["check", str(PROGRAMS_DIR / "loop.gfj"), "--universe"],
                                  ["laws"]], ids=["check-universe", "laws"])
def test_missing_universe_file_exits_3(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, *argv, missing)
    assert (code, out) == (3, "")
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_standard_run_out_of_fuel_is_not_an_error(capsys):
    code, out, err = run_cli(capsys, "run", "--standard", "--fuel", "50",
                             str(PROGRAMS_DIR / "loop.gfj"))
    assert (code, out, err) == (0, "divergent within fuel (50 steps)\n", "")


def test_check_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.gfj"
    bad.write_text("class { }")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2


@pytest.mark.parametrize("command", ["check", "run"])
def test_non_utf8_program_is_bad_input(capsys, tmp_path, command):
    bad = tmp_path / "bad.gfj"
    bad.write_bytes(b"class A { }\nrun new A() at 1 \xff\n")
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 2
    assert out == "" and "can't decode" in err


def test_check_malformed_universe(capsys, tmp_path, corpus_dir):
    # a universe with two paths between the same kinds is refused
    ap_universe = json.loads((corpus_dir / "affinity_privacy.json").read_text())
    ap_universe["edges"].append({"sub": "AP", "super": "PP", "hom": {
        "compose": [{"proj": "right"},
                    {"map": {"0": "0", "private": "a", "public": "d"}}]}})
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(ap_universe))
    code, _, err = run_cli(capsys, "check", corpus_path(corpus_dir, "two_blocks_nat.gfj"),
                           "--universe", str(broken))
    assert code == 2
    assert "path" in err


def test_run_final_output(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "run", corpus_path(corpus_dir, "two_blocks_nat.gfj"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "new Pair(new A(), new A())"
    assert lines[1] == "a:0 p:0"


def test_run_rejected_program(capsys, corpus_dir):
    code, _, err = run_cli(capsys, "run", corpus_path(corpus_dir, "getter_omega_overuse.gfj"))
    assert code == 1


def test_run_unchecked_stuck_exit4(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "run", "--unchecked",
                           corpus_path(corpus_dir, "overdemand_ctor_arg.gfj"))
    assert code == 4
    assert "FieldExtraction" in out


def test_run_search_still_stuck(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "run", "--unchecked", "--policy", "search",
                           corpus_path(corpus_dir, "overdemand_receiver.gfj"))
    assert code == 4


def test_run_standard(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "run", "--standard",
                           corpus_path(corpus_dir, "two_blocks_nat.gfj"))
    assert code == 0
    assert out.strip() == "new Pair(new A(), new A())"


def test_run_trace_has_nine_entries(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "run", "--trace", "--json",
                           corpus_path(corpus_dir, "two_blocks_nat.gfj"))
    payload = json.loads(out)
    assert len(payload["trace"]) == 9
    assert payload["steps"] == 8


def test_run_json_deterministic(capsys, corpus_dir):
    _, out1, _ = run_cli(capsys, "run", "--json", corpus_path(corpus_dir, "two_blocks_nat.gfj"))
    _, out2, _ = run_cli(capsys, "run", "--json", corpus_path(corpus_dir, "two_blocks_nat.gfj"))
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["env"] == {"a": "0", "p": "0"}


def test_run_fuel_divergence_is_not_an_error(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "run", "--fuel", "50",
                           corpus_path(corpus_dir, "divergent.gfj"))
    assert code == 0
    assert "divergent within fuel" in out


DEEP_VALUE = "new B(" * 400 + "new A()" + ")" * 400


@pytest.mark.parametrize("mode", [[], ["--json"], ["--standard"], ["--unchecked"], ["--trace"],
                                  ["--json", "--trace"]],
                         ids=["checked", "json", "standard", "unchecked", "trace", "json-trace"])
def test_deep_values_print_in_every_run_mode(mode):
    # a value nested 400 deep, which the checker accepts, prints (in a trace
    # too) in a fresh interpreter at its default recursion limit
    src = pathlib.Path(gradefj.__file__).parent.parent
    program = pathlib.Path(__file__).parent / "programs" / "deep_new400.gfj"
    done = subprocess.run([sys.executable, "-m", "gradefj.cli", "run", *mode, str(program)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    if "--json" in mode:
        payload = json.loads(done.stdout)
        assert (payload["outcome"], payload["value"]) == ("final", DEEP_VALUE)
    elif "--trace" in mode:  # the trace, then the value
        assert DEEP_VALUE in done.stdout.splitlines()
    else:
        assert done.stdout.splitlines()[0] == DEEP_VALUE


def test_search_is_stack_safe_at_fuel_5000(capsys):
    # the depth-first search keeps its own stack, so its depth is bounded
    # by the fuel and not by the interpreter's recursion limit
    loop = pathlib.Path(__file__).parent / "programs" / "loop.gfj"
    code, out, _ = run_cli(capsys, "run", "--policy", "search", "--fuel", "5000", str(loop))
    assert code == 0 and out == "divergent within fuel (5000 steps)\n"


def test_run_grade_arithmetic_does_not_grow_with_fuel(capsys, monkeypatch):
    # every step repeats the same grade operations, so the universe answers
    # them from its memo rows and the kind algebras work only on the first;
    # the public operations and the unchecked ones they call are all counted
    import gradefj.grades as grades
    calls = Counter()
    for cls in (grades.Algebra, grades.NatAlgebra, grades.TrivialAlgebra,
                grades.ExtRealAlgebra, grades.FiniteAlgebra, grades.ProductAlgebra,
                grades.ExtendAlgebra):
        for name in ("leq", "add", "mul", "residual", "unchecked_leq", "unchecked_add",
                     "unchecked_mul", "unchecked_residuals"):
            if name not in cls.__dict__:
                continue
            original = cls.__dict__[name]

            def counted(self, *args, name=name, original=original):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)
    loop = pathlib.Path(__file__).parent / "programs" / "loop.gfj"
    made = []
    for fuel in ("150", "1500"):
        calls.clear()
        code, out, _ = run_cli(capsys, "run", "--fuel", fuel, str(loop))
        assert code == 0 and out == f"divergent within fuel ({fuel} steps)\n"
        made.append(dict(calls))
    assert made[0]["unchecked_residuals"] > 0
    assert made[0] == made[1]


ARGUMENT_ERRORS = {
    "zero-fuel": (["run", "--fuel", "0", "f.gfj"], "error: --fuel must be positive"),
    "unknown-subcommand": (["frobnicate"], "invalid choice: 'frobnicate'"),
    "missing-file": (["check"], "the following arguments are required: file"),
    "standard-trace": (["run", "--standard", "--trace", "f.gfj"],
                       "error: --standard does not take --trace"),
    "standard-unchecked": (["run", "--standard", "--unchecked", "f.gfj"],
                           "error: --standard does not take --unchecked"),
    "standard-search": (["run", "--standard", "--policy", "search", "f.gfj"],
                        "error: --standard does not take --policy search"),
}


@pytest.mark.parametrize("argv, message", ARGUMENT_ERRORS.values(), ids=list(ARGUMENT_ERRORS))
def test_argument_errors_exit_2_on_every_call(capsys, corpus_dir, argv, message):
    # main builds its parser once per process: an error, and a command run
    # in between, must leave the next call's error as the first one was
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        seen.append((exc.value.code, *capsys.readouterr()))
        assert run_cli(capsys, "check", corpus_path(corpus_dir, "two_blocks_nat.gfj"))[0] == 0
    assert seen[0] == seen[1]
    code, out, err = seen[0]
    assert code == 2 and out == ""
    assert err.startswith("usage: gradefj") and message in err


def test_run_universe_flag(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "run",
                           "--universe", corpus_path(corpus_dir, "affinity_privacy.json"),
                           corpus_path(corpus_dir, "product_kind_mul.gfj"))
    assert code == 0
    assert "c:AP:(w,private)" in out


def test_laws_ap_universe_passes(capsys, corpus_dir):
    code, out, _ = run_cli(capsys, "laws", corpus_path(corpus_dir, "affinity_privacy.json"))
    assert code == 0
    assert "FAIL" not in out
    assert "inj-1-left-assoc" in out


def test_laws_refuses_refinement_diamonds(capsys):
    path = str(pathlib.Path(__file__).parent / "programs" / "diamonds_pool79.json")
    code, out, err = run_cli(capsys, "laws", path)
    assert code == 2 and out == ""
    assert err == (f"{path}: more than one refinement path from K63 to K66: "
                   "[('K63', 'K64', 'K66'), ('K63', 'K65', 'K66')]\n")


def test_laws_broken_distributivity(capsys, tmp_path):
    # affinity with 1*w redefined breaks distributivity; expect a witness
    from gradefj.grades import affinity_table
    table = affinity_table()
    mul = {a: dict(row) for a, row in table.mul.items()}
    mul["1"]["w"] = "1"
    cfg = {"kinds": {"X": {"table": {
        "name": "brokenaff", "elements": list(table.elements),
        "leq": sorted([list(p) for p in table.leq]),
        "sum": table.sum, "mul": mul, "zero": "0", "one": "1"}}}, "edges": []}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "laws", str(path))
    assert code == 2


def test_laws_default_like_universe(capsys, tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"kinds": {}, "edges": []}))
    code, out, _ = run_cli(capsys, "laws", str(path))
    assert code == 0


def test_laws_json_deterministic(capsys, corpus_dir):
    _, out1, _ = run_cli(capsys, "laws", "--json", corpus_path(corpus_dir, "bool.json"))
    _, out2, _ = run_cli(capsys, "laws", "--json", corpus_path(corpus_dir, "bool.json"))
    assert out1 == out2 and json.loads(out1)


def test_laws_validates_each_algebra_once(capsys, corpus_dir, monkeypatch):
    # user-built kinds are validated whenever a universe loads; builtin
    # algebras (affinity for A, and N's and T's) on the first laws command of
    # the process only
    import gradefj.hetero
    from gradefj.grades import AFFINITY, NAT, TRIVIAL, validate_algebra
    calls = []

    def counted(alg, *args, **kwargs):
        calls.append(alg)
        return validate_algebra(alg, *args, **kwargs)
    monkeypatch.setattr(gradefj.hetero, "validate_algebra", counted)
    gradefj.hetero.builtin_law_report.cache_clear()
    path = corpus_path(corpus_dir, "affinity_privacy.json")
    code, out, _ = run_cli(capsys, "laws", "--json", path)
    assert code == 0
    kinds = {line["scope"] for line in json.loads(out) if line["scope"] != "universe"}
    assert kinds == {f"kind {k}" for k in ("A", "AP", "N", "P", "PP", "T")}
    assert len(calls) == len(kinds)
    builtins = {id(AFFINITY), id(NAT), id(TRIVIAL)}
    assert builtins <= {id(alg) for alg in calls}
    calls.clear()
    assert run_cli(capsys, "laws", "--json", path) == (0, out, "")
    second = list(calls)
    universe = gradefj.hetero.load_universe(path)
    assert second == [universe.kinds[k] for k in ("AP", "P", "PP")]
    assert not builtins & {id(alg) for alg in second}


def test_reserved_kinds_are_checked_on_the_first_laws_command(corpus_dir, tmp_path):
    # builtin algebras, N's and T's among them, are law-checked neither at
    # import, nor when the default universe is built or a universe file is
    # loaded (the benchmark times those as set-up), but on the first laws
    # command that prints one, once per process
    src = pathlib.Path(gradefj.__file__).parent.parent
    real = tmp_path / "real.json"
    real.write_text(json.dumps({"kinds": {"R": {"builtin": "extreal"}}}))
    code = ("import sys\n"
            "checked = []\n"
            "def profile(frame, event, arg):\n"
            "    if event == 'call' and frame.f_code.co_name == 'validate_algebra':\n"
            "        checked.append(frame.f_locals['spec'])\n"
            "sys.setprofile(profile)\n"
            "import gradefj.cli, gradefj.props\n"
            "from gradefj.hetero import builtin_law_report, builtin_name, default_universe, "
            "load_universe\n"
            "default_universe(), [load_universe(p) for p in sys.argv[1:]]\n"
            "sys.setprofile(None)\n"
            "print(len(checked), sum(builtin_name(a) is not None for a in checked),\n"
            "      builtin_law_report.cache_info().misses)\n"
            "for p in sys.argv[1:]:\n"
            "    gradefj.cli.main(['laws', '--json', p])\n"
            "    print(builtin_law_report.cache_info().misses)")
    paths = [corpus_path(corpus_dir, "bool.json"), corpus_path(corpus_dir, "affinity_privacy.json"),
             str(real)]
    out = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    lines = [line for line in out.splitlines() if not line.startswith("[")]
    # only affinity_privacy's three user-built kinds were validated at load;
    # then bool checks N, T and boolean, affinity_privacy affinity, real extreal
    assert lines == ["3 0 0", "3", "4", "5"]


@pytest.mark.parametrize("how", ["check", "run", "check_entry", "theorem_suite"])
def test_each_method_body_is_typed_once(capsys, corpus_dir, corpus_by_name, monkeypatch, how):
    # the checked pipeline keeps the elaboration of its one pass over each body
    import gradefj.typecheck
    from gradefj.props import check_entry, theorem_suite
    check, parse = gradefj.typecheck._check, gradefj.cli.parse_program
    bodies, typed = [], []

    def note(program):
        bodies.extend((md.body, f"{c}.{m}") for c, decl in program.table.classes.items()
                      for m, md in decl.methods.items())
        return program

    def counted(u, table, env, e, *expected):
        typed.extend(name for body, name in bodies if e is body)
        return check(u, table, env, e, *expected)
    monkeypatch.setattr(gradefj.typecheck, "_check", counted)
    monkeypatch.setattr(gradefj.cli, "parse_program", lambda *args: note(parse(*args)))
    if how in ("check", "run"):
        code, _, _ = run_cli(capsys, how, corpus_path(corpus_dir, "invk_method.gfj"))
        assert code == 0
    else:
        entry = corpus_by_name["invk_method"]
        note(entry.program)
        assert {"check_entry": check_entry, "theorem_suite": theorem_suite}[how](entry).ok
    assert sorted(typed) == ["Box.get", "Box.wrap"]


def _extreal_image(image):
    return {"kinds": {"B": {"builtin": "boolean"}, "R": {"builtin": "extreal"}},
            "edges": [{"sub": "B", "super": "R", "hom": {"map": {"0": "0", "1": image}}}]}


_TABLE = {"name": "t", "elements": ["0"], "leq": [["0", "0"]], "sum": {"0": {"0": "0"}},
          "mul": {"0": {"0": "0"}}, "zero": "0", "one": "0"}


@pytest.mark.parametrize("cfg, message", [
    ([], "a universe config must be an object"),
    ({"kinds": []}, "'kinds' must be an object"),
    ({"kinds": {"X": {"table": {**_TABLE, "elements": 5}}}}, "'elements' must be a list"),
    ({"kinds": {"X": {"builtin": "boolean"}}, "edges": "x"}, "'edges' must be a list"),
    ({"kinds": {"X": {"table": []}}}, "a finite table must be an object"),
    ({"kinds": {"X": {"table": {**_TABLE, "sum": {"0": 1}}}}}, "'sum' must map each element"),
    ({"kinds": {"X": {"product": 3}}}, "'product' must be a list of two specs"),
    (_extreal_image("1/0"), "bad extended real literal '1/0'"),
    # unknown keys are refused, not ignored: a misspelt "edges" or a program
    # manifest would load as a universe without them
    ({"kinds": {"X": {"builtin": "boolean"}}, "edge": []}, "unknown universe key 'edge'"),
    ({"expect": "accept", "run": {"outcome": "final"}}, "unknown universe key 'expect'"),
    ({"kinds": {"B": {"builtin": "boolean"}, "R": {"builtin": "extreal"}},
      "edges": [{"sub": "B", "super": "R", "hom": {"map": {"0": "0", "1": "1"}}, "homs": {}}]},
     "edge B -> R: unknown key 'homs'"),
    ({"kinds": {"B": {"builtin": "boolean"}, "R": {"builtin": "extreal"}},
      "edges": [{"sub": "B", "super": "R"}]}, "edge B -> R has no 'hom'"),
    # a table nested in a product or an extension is checked for its shape
    # before any law runs, as a table kind is
    ({"kinds": {"X": {"product": [{"builtin": "nat"}, {"table": {**_TABLE, "sum": {"0": {}}}}]}}},
     "algebra of kind X violates table-shape: ('sum not total', '0')\n"),
    ({"kinds": {"X": {"extend": {"table": {**_TABLE, "zero": "z"}}}}},
     "algebra of kind X violates table-shape: ('constants off carrier',)\n"),
    ({"kinds": {"X": {"product": [{"table": {**_TABLE, "sum": {"0": {"0": "1"}}}},
                                  {"builtin": "boolean"}]}}},
     "algebra of kind X violates table-shape: ('sum leaves carrier', '0', '0')\n"),
])
@pytest.mark.parametrize("command", ["check", "run", "laws"])
def test_malformed_universe_config_is_bad_input(capsys, tmp_path, corpus_dir, cfg, message,
                                                command):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(cfg))
    if command == "laws":
        argv = ["laws", str(path)]
    else:
        argv = [command, corpus_path(corpus_dir, "two_blocks_nat.gfj"), "--universe", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and message in err
    # the error is reported against the universe file, not the program
    assert err.startswith(f"{path}: ")


def _nested_extend(depth, leaf):
    return '{"kinds": {"X": ' + '{"extend": ' * depth + leaf + "}" * depth + "}}"


def _chain(n):
    elems = [str(i) for i in range(n)]
    top = lambda a, b: max(a, b, key=int)
    bottom = lambda a, b: min(a, b, key=int)
    return {"name": f"chain{n}", "elements": elems,
            "leq": [[a, b] for a in elems for b in elems if int(a) <= int(b)],
            "sum": {a: {b: top(a, b) for b in elems} for a in elems},
            "mul": {a: {b: bottom(a, b) for b in elems} for a in elems},
            "zero": "0", "one": elems[-1]}


def _nested_compose(depth):
    hom = '{"proj": "left"}'
    for _ in range(depth):
        hom = '{"compose": [' + hom + ', {"proj": "left"}]}'
    return ('{"kinds": {"X": {"builtin": "boolean"}, "Y": {"builtin": "boolean"}}, '
            '"edges": [{"sub": "X", "super": "Y", "hom": ' + hom + "}]}")


@pytest.mark.parametrize("text, message", [
    (_nested_extend(3000, '{"builtin": "nat"}'), "nests too deeply to read"),
    # the JSON reader's own nesting bound may come first, depending on the stack
    (_nested_extend(980, '{"builtin": "nat"}'), "nest"),
    (_nested_extend(300, '{"builtin": "boolean"}'), "nest more than 8 deep"),
    (_nested_extend(8, '{"builtin": "nat"}'), "nest more than 8 deep"),
    (_nested_compose(8), "nest more than 8 deep"),
    (json.dumps({"kinds": {"X": {"product": [{"builtin": "affinity"}, {"product": [
        {"builtin": "boolean"}, {"product": [{"builtin": "boolean"},
                                             {"extend": {"builtin": "boolean"}}]}]}]}}}),
     "kind X has 36 elements, more than 32"),
    (json.dumps({"kinds": {f"K{i}": {"table": _chain(16)} for i in range(12)}}),
     "pool of 204 grades, more than 80"),
    # 22 refinement diamonds in a row: 2**22 paths from the bottom to the top
    ((pathlib.Path(__file__).parent / "programs" / "diamonds_pool79.json").read_text(),
     "more than one refinement path"),
    (json.dumps(_extreal_image("1e99999999")), "bad extended real literal '1e99999999'"),
], ids=["extend-3000", "extend-980-nat", "extend-300-boolean", "extend-8", "compose-8",
        "carrier-36", "pool-12x16", "diamonds-22", "extreal-exponent"])
@pytest.mark.parametrize("command", ["check", "laws"])
def test_universe_over_the_limits_is_refused_quickly(capsys, tmp_path, corpus_dir, text,
                                                     message, command):
    path = tmp_path / "u.json"
    path.write_text(text)
    argv = (["laws", str(path)] if command == "laws" else
            ["check", corpus_path(corpus_dir, "two_blocks_nat.gfj"), "--universe", str(path)])
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == "" and message in err


def test_universe_at_the_pool_limit_loads():
    # the universe whose `laws` run CI times sits exactly at the bound
    from gradefj.hetero import MAX_POOL, load_universe
    u = load_universe(str(pathlib.Path(__file__).parent / "programs" / "chain_pool80.json"))
    assert len(u.sample_pool()) == MAX_POOL


def test_run_ambiguous_product_residual(capsys, tmp_path):
    # burning (1,1) out of (a,3) leaves (x,2) or (y,2); the minimal run keeps
    # the first, a value of the product kind
    from conftest import ambiguous_algebra
    t = ambiguous_algebra().table
    amb = {"name": t.name, "elements": list(t.elements), "leq": sorted(map(list, t.leq)),
           "sum": t.sum, "mul": t.mul, "zero": t.zero, "one": t.one}
    universe = tmp_path / "u.json"
    universe.write_text(json.dumps({"kinds": {"Q": {"product": [{"table": amb},
                                                                {"builtin": "nat"}]}}}))
    program = tmp_path / "prog.gfj"
    program.write_text("class A { } run {A[Q:(a,3)] x = new A(); x} at Q:(1,1)\n")
    code, out, _ = run_cli(capsys, "run", "--json", str(program), "--universe", str(universe))
    assert code == 0
    assert json.loads(out)["env"] == {"x": "Q:(x,2)"}


# ---------------------------------------------------------------------------
# malformed programs end in a documented exit code, never a traceback

@pytest.mark.parametrize("src", [
    # a method body that is never called and cannot be annotated
    "class A { }\nclass B { A[1] f; B[1] mk(A[1] x, A[1] y) [1] { new B(x, y) } }\n"
    "run new B(new A()).f at 1\n",
    "class A { A[1] m() [1] { this.nope() } }\nrun new A() at 1\n",
])
def test_run_standard_needs_no_annotations(capsys, tmp_path, src):
    path = tmp_path / "prog.gfj"
    path.write_text(src)
    code, out, err = run_cli(capsys, "run", "--standard", "--json", str(path))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["outcome"] == "final" and payload["value"] == "new A()"


def test_run_standard_unknown_class_is_stuck(capsys, tmp_path):
    path = tmp_path / "prog.gfj"
    path.write_text("class A { }\nrun new Zed().f at 1\n")
    code, out, _ = run_cli(capsys, "run", "--standard", str(path))
    assert code == 4
    assert out.startswith("stuck after 0 steps")


@pytest.mark.parametrize("src, message", [
    ("class A { A[1] m() [1] { new A() } }\n"
     "run {A[1] a = new A(); new A().m(a)} at 1\n", "takes 0 arguments, got 1"),
    ("class A { A[1] m(A[1] x) [1] { x } }\nrun new A().m() at 1\n",
     "takes 1 arguments, got 0"),
    ("class A { }\nrun new A().m() at 1\n", "has no method 'm'"),
    ("class A { }\nrun new Zed() at 1\n", "unknown class 'Zed'"),
    ("class A { }\nclass B extends Zed { }\nrun new B() at 1\n", "unknown class 'Zed'"),
])
def test_run_unchecked_reports_unannotatable_input(capsys, tmp_path, src, message):
    path = tmp_path / "prog.gfj"
    path.write_text(src)
    code, out, err = run_cli(capsys, "run", "--unchecked", str(path))
    assert code == 2
    assert out == "" and "[annotate]" in err and message in err


@pytest.mark.parametrize("src", [
    "class X extends Y { } class Y extends X { }\nrun new X() at 1\n",
    "class A { } class X extends Y { A[1] f; } class Y extends X { }\n"
    "run new X(new A()).f at 1\n",
])
@pytest.mark.parametrize("mode", ["--unchecked", "--standard"])
def test_run_without_checker_refuses_inheritance_cycle(capsys, tmp_path, src, mode):
    path = tmp_path / "prog.gfj"
    path.write_text(src)
    code, out, err = run_cli(capsys, "run", mode, str(path))
    assert code == 2
    assert out == "" and "[table] inheritance cycle through X" in err


def test_importing_cli_loads_every_module():
    # perfbench/tracing.py wraps functions in every gradefj module after
    # importing only gradefj.cli
    src = pathlib.Path(gradefj.__file__).parent.parent
    code = ("import sys, gradefj.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('gradefj.'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    modules = {p.stem for p in (src / "gradefj").glob("*.py")} - {"__init__"}
    assert set(out.split()) == {f"gradefj.{m}" for m in modules}


def test_traced_functions_are_module_level_functions():
    # perfbench/tracing.py wraps these functions by name; a rename must fail
    # here and not only in a traced benchmark run
    import ast
    import importlib
    import inspect
    tracing = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"
    (traced,) = [ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"]
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"gradefj.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
                f"gradefj.{layer}.{name}"


TESTS = pathlib.Path(__file__).parent
LOOP = str(TESTS / "programs" / "loop.gfj")


@pytest.mark.parametrize("argv", [["--fuel", "2000", LOOP],
                                  ["--unchecked", str(TESTS / "corpus" / "overdemand_receiver.gfj")]
                                  ], ids=["loop-2000", "stuck"])
def test_json_trace_streams_the_bytes_of_the_whole_payload(capsys, argv):
    # the trace lines are written one at a time between the keys that sort
    # before "trace" and "value": the bytes are those of json.dumps on the
    # whole payload, and the lines those text mode prints
    code, out, _ = run_cli(capsys, "run", "--json", "--trace", *argv)
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True) + "\n"
    assert len(payload["trace"]) > 1 and ("reason" in payload) == (code == 4)
    assert run_cli(capsys, "run", "--trace", *argv)[1].splitlines()[:len(payload["trace"])] \
        == payload["trace"]


def _peak_rss_kb(argv) -> int:
    """The peak RSS of the CLI run on ``argv`` with stdout discarded, read in
    a fresh parent so that no other child's peak counts."""
    src = pathlib.Path(gradefj.__file__).parent.parent
    code = ("import resource, subprocess, sys; "
            "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", code, sys.executable, "-m", "gradefj.cli",
                           *argv], capture_output=True, text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return int(done.stdout)


def test_json_trace_holds_no_rendered_trace(corpus_dir):
    # at fuel 2000 divergent.gfj prints about 11 MB of trace; holding every
    # rendered line before json.dumps peaked at 2.5 times text mode's RSS
    argv = ["--trace", "--fuel", "2000", corpus_path(corpus_dir, "divergent.gfj")]
    assert _peak_rss_kb(["run", "--json", *argv]) <= 1.5 * _peak_rss_kb(["run", *argv])


@pytest.mark.parametrize("argv", [["laws", str(TESTS / "corpus" / "affinity_privacy.json")],
                                  ["run", "--trace", "--fuel", "50", LOOP],
                                  ["run", "--json", "--trace", "--fuel", "50", LOOP]],
                         ids=["laws", "run-trace", "run-json-trace"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_with_exit_3_and_no_traceback(argv, unbuffered):
    # the read end of stdout's pipe is closed before the command starts, as
    # `| head -1` closes it after one line: the first write that reaches the
    # pipe fails, at a print or at main's flush
    src = pathlib.Path(gradefj.__file__).parent.parent
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "gradefj.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (3, "")
