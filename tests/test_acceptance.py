"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every expected value here is pinned: traces and verdicts come
from the worked examples, law checks are exhaustive on finite carriers
and seeded samples of at least 1000 triples on infinite ones.
"""

import json
import time

import pytest

from gradefj.cli import main as cli_main
from gradefj.grades import (
    AFFINITY,
    BOOLEAN,
    EXTREAL,
    ExtendAlgebra,
    FiniteElem,
    NAT,
    PairValue,
    PPRIVACY,
    PRIVACY,
    ProductAlgebra,
    validate_algebra,
)
from gradefj.hetero import KindedGrade, check_universe_laws
from gradefj.props import check_entry, theorem_suite
from gradefj.typecheck import elaborate_program


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_two_block_exact_trace(capsys, corpus_dir):
    started = time.monotonic()
    code, out = run_cli(capsys, "run", "--trace", "--json",
                        str(corpus_dir / "two_blocks_nat.gfj"))
    elapsed = time.monotonic() - started
    payload = json.loads(out)
    trace = payload["trace"]
    ok = (code == 0
          and payload["outcome"] == "final"
          and payload["steps"] == 8
          and len(trace) == 9
          and payload["env"] == {"a": "0", "p": "0"}
          and elapsed < 1.0)
    a_track = [line.split("env={")[1].split("}")[0] for line in trace[1:]]
    ok = ok and a_track[0] == "a:4" and a_track[1] == "a:2" and a_track[2] == "a:0"
    ok = ok and "a:0,p:2" in a_track[3] and "a:0,p:1" in a_track[4]
    ok = ok and "a:0,p:0" in a_track[7]
    report(1, ok, f"9-entry trace, a:4->2->0, p:2->1->0, {elapsed:.3f}s")


def test_criterion_2_overdemand_stuck_behavior(corpus_by_name):
    results = {}
    for name in ("overdemand_ctor_arg", "overdemand_receiver", "overdemand_reannotated"):
        results[name] = check_entry(corpus_by_name[name])
    ok = all(r.ok for r in results.values())
    detail = ("ctor-arg variant=FieldExtraction, receiver variant="
              "ResourceExhausted(p), p:3/a:6 completes")
    report(2, ok, detail if ok else str({k: v.failures for k, v in results.items()}))


def test_criterion_3_privacy_runs(corpus_by_name):
    names = ["priv_narrow_at_private", "priv_narrow_at_public", "priv_widen_at_private",
             "priv_field_pub_pub_at_pub", "priv_field_pub_priv_at_pub",
             "priv_field_priv_pub_at_pub", "priv_field_priv_priv_at_pub",
             "priv_field_pub_pub_at_priv", "priv_field_priv_priv_at_priv"]
    outcomes = {n: check_entry(corpus_by_name[n]) for n in names}
    ok = all(o.ok for o in outcomes.values())
    report(3, ok, "narrowing runs at private and sticks at public, widening "
           "sticks, field combos (only pub receiver + pub field gives pub)"
           if ok else str({k: v.failures for k, v in outcomes.items() if not v.ok}))


def test_criterion_4_getter_verdicts(corpus_by_name):
    accept = ["getter_zero_client", "getter_affine_client", "getter_omega_client"]
    reject = ["getter_omega_overuse", "getter_affine_demand"]
    flipped = ["getter_wthis_zero", "getter_wthis_affine", "getter_wthis_omega"]
    outcomes = {n: check_entry(corpus_by_name[n]) for n in accept + reject + flipped}
    ok = all(o.ok for o in outcomes.values())
    # the two rejections must carry two distinct causes
    diag4 = corpus_by_name["getter_omega_overuse"].manifest["diagnostics"]
    diag5 = corpus_by_name["getter_affine_demand"].manifest["diagnostics"]
    ok = ok and diag4 != diag5
    report(4, ok, "3 accepted, 2 rejected (t-var vs t-sub), omega-this flips"
           if ok else str({k: v.failures for k, v in outcomes.items() if not v.ok}))


def test_criterion_5_mixed_field_verdicts(corpus_by_name):
    names = ["priv_narrow_at_private", "priv_widen_at_private", "mixed_fields_pub_at_pub",
             "mixed_fields_pub_at_priv", "mixed_fields_priv_at_priv", "mixed_fields_priv_at_pub"]
    outcomes = {n: check_entry(corpus_by_name[n]) for n in names}
    ok = all(o.ok for o in outcomes.values())
    report(5, ok, "private block types, swap rejects, pub-var pair at both "
           "levels, priv-var pair only at private"
           if ok else str({k: v.failures for k, v in outcomes.items() if not v.ok}))


def test_criterion_6_refinement_universe(ap_universe):
    x = KindedGrade("AP", PairValue(FiniteElem("w", "affinity"),
                                    FiniteElem("private", "privacy2")))
    y = KindedGrade("PP", FiniteElem("d", "privacy4"))
    got = ap_universe.mul(x, y)
    want = KindedGrade("P", FiniteElem("private", "privacy2"))
    report(6, got == want, f"the refinement universe validates; het_mul(<AP,(w,private)>,<PP,d>) = {got}")


def test_criterion_7_algebra_law_suite(ap_universe):
    exhaustive = {
        "affinity": AFFINITY,
        "boolean": BOOLEAN,
        "privacy2": PRIVACY,
        "privacy4": PPRIVACY,
        "product(affinity,privacy2)": ProductAlgebra(AFFINITY, PRIVACY),
        "extend(affinity)": ExtendAlgebra(AFFINITY),
    }
    failures = []
    for name, spec in exhaustive.items():
        rep = validate_algebra(spec)
        if not rep.ok:
            failures.append((name, [str(r) for r in rep.failures()]))
    for name, spec in (("nat", NAT), ("extreal", EXTREAL)):
        rep = validate_algebra(spec)
        if not rep.ok:
            failures.append((name, [str(r) for r in rep.failures()]))
    uni = check_universe_laws(ap_universe)
    if not uni.ok:
        failures.append(("ap-universe", [str(r) for r in uni.failures()]))
    inj_laws = {r.law for r in uni.results if r.law.startswith("inj-")}
    if len(inj_laws) != 6:
        failures.append(("ap-universe", "missing injection equations"))
    report(7, not failures, "6 exhaustive algebras, nat+extreal sampled, "
           "universe laws incl. 6 injection equations" if not failures else str(failures))


def test_criterion_8_theorem_suite(corpus):
    started = time.monotonic()
    failures = []
    for entry in corpus:
        out = theorem_suite(entry)
        if not out.ok:
            failures.append((entry.name, out.failures[:3]))
    elapsed = time.monotonic() - started
    ok = not failures and len(corpus) >= 20 and elapsed < 30.0
    report(8, ok, f"{len(corpus)} programs, zero violations, {elapsed:.1f}s"
           if ok else str(failures))


def test_criterion_9_roundtrip(corpus):
    from gradefj.syntax import erase
    from gradefj.typecheck import check
    failures = []
    checked = 0
    for entry in corpus:
        if entry.manifest["expect"] != "accept":
            continue
        u, program = entry.universe, entry.program
        diags, result = elaborate_program(u, program)
        if diags:
            failures.append((entry.name, "rejected"))
            continue
        again = check(u, program.table, {}, result.main, result.type)
        if again.ctx != result.ctx:
            failures.append((entry.name, "contexts differ"))
        if again.elaborated != result.main:
            failures.append((entry.name, "elaboration is not idempotent"))
        if erase(result.main) != erase(program.main):
            failures.append((entry.name, "erasure is not the source"))
        checked += 1
    ok = not failures and checked > 0
    report(9, ok, f"elaborate-then-recheck and erasure identity on "
           f"{checked} accepted programs" if ok else str(failures))
