"""Self-tests of the benchmark: the generator is deterministic for a seed,
a planted wrong reference shows up in fail_ratio, and only a known failure
leaves the result correct; calibrated times use the slices around each
operation.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib      # noqa: E402
import gen        # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402

CORPUS = ROOT / "tests" / "corpus"


def _snapshot(records):
    files = {Path(r["path"]).name: Path(r["path"]).read_text(encoding="utf-8")
             for r in records}
    meta = [{k: v for k, v in r.items() if k != "path"} for r in records]
    return files, meta


@pytest.mark.parametrize("workload", ["long_runs", "big_tables", "universe_laws"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = _snapshot(gen.generate(workload, 7, tmp_path / "a", CORPUS))
    again = _snapshot(gen.generate(workload, 7, tmp_path / "b", CORPUS))
    other = _snapshot(gen.generate(workload, 8, tmp_path / "c", CORPUS))
    assert first == again
    assert first[0] != other[0]


def _fail_ratio(workload, records, corpus_dir):
    ops = workloads.build_ops(workload, records, corpus_dir, seed=1)
    _, outcomes = run.run_pass(ops)
    return run.class_metrics([outcomes])["fail_ratio"], outcomes


def test_planted_wrong_corpus_reference_raises_fail_ratio(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    clean, _ = _fail_ratio("corpus_replay", [], corpus)
    manifest = corpus / "two_blocks_nat.json"
    pinned = json.loads(manifest.read_text(encoding="utf-8"))
    pinned["run"]["steps"] += 1
    manifest.write_text(json.dumps(pinned), encoding="utf-8")
    planted, outcomes = _fail_ratio("corpus_replay", [], corpus)
    assert clean == 0.0
    assert planted > clean
    bad = {o.op.name for o in outcomes if not o.ok}
    assert "run two_blocks_nat" in bad
    assert not any(o.error for o in outcomes)
    assert run.summary({"passes": [outcomes]})["correct"] is False


def test_planted_wrong_generated_reference_raises_fail_ratio(tmp_path):
    records = [r for r in gen.generate("universe_laws", 3, tmp_path, CORPUS)
               if r["name"] in ("bool", "broken")]
    clean, _ = _fail_ratio("universe_laws", records, CORPUS)
    for r in records:
        if r["name"] == "broken":
            r["expect"]["exit"] = 0
    planted, _ = _fail_ratio("universe_laws", records, CORPUS)
    assert clean == 0.0
    assert planted == 0.5


def _raising_op(name, known_failure=None):
    def call():
        raise RecursionError("maximum recursion depth exceeded")
    return workloads.Op(name, "check", call, lambda r: [], known_failure=known_failure)


def test_only_the_known_exception_keeps_the_result_correct():
    known = {"error": "RecursionError", "why": "recursive checker"}
    wrong_error = {"error": "KeyError", "why": "not what it raises"}
    for ops, correct in (([_raising_op("known", known)], True),
                         ([_raising_op("planted")], False),
                         ([_raising_op("other", wrong_error)], False)):
        _, outcomes = run.run_pass(ops)
        out = run.summary({"passes": [outcomes]})
        assert (out["correct"], out["failed"]) == (correct, 1)


def test_broken_universe_must_name_the_planted_law(tmp_path):
    records = [r for r in gen.generate("universe_laws", 3, tmp_path, CORPUS)
               if r["name"] == "broken"]
    assert _fail_ratio("universe_laws", records, CORPUS)[0] == 0.0
    records[0]["expect"]["violates"]["law"] = "mul-associative"
    assert _fail_ratio("universe_laws", records, CORPUS)[0] == 1.0


def test_calibrated_times_scale_by_the_slices_around_each_operation():
    ops = [workloads.Op(f"sleep{i}", "check", lambda: time.sleep(0.03), lambda r: [])
           for i in range(4)]
    _, outcomes = run.run_pass(ops, calibrate=True)
    assert all(o.ok and o.scaled > 0 for o in outcomes)
    # 30 ms operations, 100 ms between points: ops 0 and 1 share their points
    factor = [o.scaled / o.seconds for o in outcomes]
    assert factor[0] == pytest.approx(factor[1])
    _, plain = run.run_pass(ops)
    assert all(o.scaled == o.seconds for o in plain)
    assert calib.steady(0.0035, 0.004) and not calib.steady(0.0035, 0.007)
