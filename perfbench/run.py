"""gradefj benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload long_runs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                   # every workload, one row each

Run from the root of a checkout; gradefj is imported from ``src/``.  The
inputs are generated from ``--seed`` into ``.bench_work/`` (removed at the
end); the corpus workload reads ``tests/corpus``.  Passes over the workload's
operations repeat, closed-loop and one operation at a time, until
``--seconds`` have passed (at least MIN_PASSES passes).  Every operation's
output is compared with its reference.  Times are calibrated against fixed
work timed between the operations (``calib.py``).

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result holds the
per-layer metrics of the traced passes (medians over passes).  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``.  ``correct``
is false when any operation failed other than by raising the exception it
was known to raise when the benchmark was defined; ``failed`` counts every
operation that raised or disagreed with its reference.  Exit code 2 means
the benchmark could not run (no gradefj sources, a layer that should work
recorded no spans).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib        # noqa: E402
import gen          # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"]: w["why"] for w in BENCH["workloads"]}
MIN_PASSES = 3
SETUP_PROCESSES = 11
CALIBRATE_EVERY_S = 0.1   # operation time between two calibration points

# Units of the per-class figures, which are printed for the reader but are
# not in the JSON result: they exist only on the workloads that run the class.
CLASS_UNITS = {"check_ms_p50": "ms", "check_ms_p90": "ms", "run_ms_p50": "ms",
               "run_ms_p90": "ms", "check_samples": "count", "run_samples": "count",
               "run_steps_per_s": "1/s", "std_steps_per_s": "1/s",
               "search_steps_per_s": "1/s", "laws_s": "s", "harness_s": "s",
               "fail_ratio": "ratio", "wall_raw_s": "s"}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import calib
before = calib.point()
t0 = time.perf_counter()
import gradefj.cli, gradefj.props
from gradefj.grades import GradeError
from gradefj.hetero import default_universe, load_universe
default_universe()
for path in sys.argv[2:]:
    try:
        load_universe(path)
    except GradeError:
        pass  # the deliberately broken universe is refused during validation
seconds = time.perf_counter() - t0
print(seconds, before, calib.point())
"""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(root: Path, universes: list[str]) -> float:
    """Median calibrated set-up time of SETUP_PROCESSES fresh interpreters,
    each scaled by calibration points timed in the same process just before
    and after its set-up.  Samples during which the machine changed speed
    are left out (unless all of them are)."""
    argv = [sys.executable, "-c", SETUP_CODE, str(HERE), *universes]
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              timeout=120)
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip()[-300:]}")
        times.append(tuple(map(float, proc.stdout.split())))
    steady = [t for t in times if calib.steady(t[1], t[2])] or times
    return statistics.median(s * calib.scale(b, a) for s, b, a in steady)


def run_pass(ops, tracer=None, calibrate=False):
    """One pass over the operations; returns (wall seconds, outcomes).  With
    ``calibrate`` a calibration point is timed whenever CALIBRATE_EVERY_S of
    operation time has passed, and each outcome records the two points
    around it (see calib.py)."""
    outcomes = []
    wall = 0.0
    points, before = [], []   # before[i]: index of the last point before op i
    since = CALIBRATE_EVERY_S
    for op in ops:
        if calibrate and since >= CALIBRATE_EVERY_S:
            points.append(calib.point())
            since = 0.0
        before.append(len(points) - 1)
        t0 = time.perf_counter()
        outcomes.append(workloads.execute(op))
        took = time.perf_counter() - t0
        wall += took
        since += took
        if tracer is not None:
            tracer.stack.clear()   # a RecursionError may leave the stack unbalanced
    if calibrate:
        points.append(calib.point())
        for o, i in zip(outcomes, before):
            o.around = (points[i], points[i + 1])
    return wall, outcomes


def class_metrics(passes) -> dict:
    """Per-class figures over every pass (failed operations excluded)."""
    by_cls: dict = {}
    for outcomes in passes:
        for o in outcomes:
            if o.ok:
                by_cls.setdefault(o.op.cls, []).append(o)
    m = {}
    for cls in ("check", "run"):
        ms = [o.scaled * 1e3 for o in by_cls.get(cls, [])]
        if ms:
            m[f"{cls}_ms_p50"] = statistics.median(ms)
            # p90 only when at least ten samples lie beyond it
            if len(ms) >= 100:
                m[f"{cls}_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
            m[f"{cls}_samples"] = len(ms)
    for cls, key in (("run", "run_steps_per_s"), ("std", "std_steps_per_s"),
                     ("search", "search_steps_per_s")):
        done = by_cls.get(cls, [])
        secs = sum(o.scaled for o in done)
        if secs and sum(o.steps for o in done):
            m[key] = sum(o.steps for o in done) / secs
    for cls, key in (("laws", "laws_s"), ("harness", "harness_s")):
        per_pass = [sum(o.scaled for o in outcomes if o.op.cls == cls)
                    for outcomes in passes]
        if any(per_pass):
            m[key] = statistics.median(per_pass)
    attempted = sum(len(p) for p in passes)
    m["fail_ratio"] = sum(not o.ok for p in passes for o in p) / attempted
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path.cwd()
    if not (root / "src" / "gradefj" / "__init__.py").is_file():
        fail("run from the root of a gradefj checkout (src/gradefj not found)")
    corpus_dir = root / "tests" / "corpus"
    if name == "corpus_replay" and not corpus_dir.is_dir():
        fail("tests/corpus not found")
    sys.path.insert(0, str(root / "src"))
    import gradefj.cli  # noqa: F401

    workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        records = ([] if name == "corpus_replay"
                   else gen.generate(name, seed, workdir, corpus_dir))
        ops = workloads.build_ops(name, records, corpus_dir, seed)
        result = {"workload": name, "seed": seed, "inputs": records}
        if trace:
            result.update(traced_passes(name, ops, seconds))
        else:
            result.update(untraced_passes(name, ops, seconds))
            result["metrics"]["setup_s"] = setup_seconds(
                root, workloads.universe_files(name, records, corpus_dir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    return result


def untraced_passes(name, ops, seconds) -> dict:
    """End-to-end metrics, in calibrated time (calib.py).  Each operation's
    time is the median of its successful, steady runs over the passes:
    wall_s is the sum of those, op_ms_geomean their geometric mean over the
    primary operations.  README.md ("Steadiness") says why.  The
    uncalibrated wall_s is printed as wall_raw_s."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, calibrate=True)[1])

    def typical(attr):
        """Per operation, the median over its successful runs at a steady
        speed (over all successful runs if none was steady)."""
        out = {}
        for i in range(len(ops)):
            done = [p[i] for p in passes if p[i].ok]
            if done:
                out[i] = statistics.median(getattr(o, attr) for o in
                                           [o for o in done if o.steady] or done)
        return out

    scaled = typical("scaled")
    primary = [t * 1e3 for i, t in scaled.items() if ops[i].cls in workloads.PRIMARY[name]]
    metrics = {
        "wall_s": sum(scaled.values()),
        "op_ms_geomean": statistics.geometric_mean(primary) if primary else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    classes = class_metrics(passes)
    classes["wall_raw_s"] = sum(typical("seconds").values())
    return {"passes": passes, "metrics": metrics, "classes": classes}


def traced_passes(name, ops, seconds) -> dict:
    tracer = tracing.Tracer()
    passes, walls, traced_walls, per_pass = [], [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        wall, outcomes = run_pass(ops)
        walls.append(wall)
        passes.append(outcomes)
        tracer.install()
        try:
            wall, outcomes = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        passes.append(outcomes)
        per_pass.append(tracing.layer_metrics(tracer.spans, tracer.grade_ops, wall))
        tracer.reset()
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(walls))
    idle = [layer for layer, n in tracing.layer_activity(metrics).items()
            if n == 0 and layer in workloads.LAYERS[name]]
    if idle:
        fail(f"layers {idle} recorded no spans on {name}")
    return {"passes": passes, "metrics": metrics}


# ---------------------------------------------------------------------------
# reporting

def summary(result: dict) -> dict:
    outcomes = [o for p in result["passes"] for o in p]
    bad = [o for o in outcomes if not o.ok]
    return {"correct": all(o.known for o in bad),
            "attempted": len(outcomes), "failed": len(bad)}


def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"== workload {name} (seed {result['seed']}): {WORKLOADS[name]}")
    for rec in result["inputs"]:
        steps = [o.steps for o in result["passes"][0]
                 if o.op.input == rec["name"] and o.op.cls != "check"]
        stats = " ".join(f"{k}={v}" for k, v in rec["stats"].items())
        stats += f" steps={max(steps)}" if steps else ""
        print(f"   input {rec['name']:<16} {stats:<38} {rec['why']}")
    print(f"   passes {len(result['passes'])}; closed loop, one operation at a time, "
          "one thread: no operation waits, so no waiting time is reported")
    failures: dict = {}
    for p in result["passes"]:
        for o in p:
            if not o.ok:
                failures.setdefault(o.op.name, [0, o.problems[0], o])
                failures[o.op.name][0] += 1
    for op_name, (count, problem, o) in sorted(failures.items()):
        note = f" (known: {o.op.known_failure['why']})" if o.known else ""
        print(f"   FAILED x{count} {op_name}: {problem}{note}")
    units = {m["name"]: (m["unit"], m["better"])
             for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for key, value in result["metrics"].items():
        unit, better = units[key]
        print(f"   {key:<44} {value:>14.6g} {unit:<6} {better} is better")
    for key, value in result.get("classes", {}).items():
        if key.endswith("_samples"):
            note = "samples behind the percentiles"
        else:
            note = ("higher" if key.endswith("per_s") else "lower") + " is better"
        print(f"   {key:<44} {value:>14.6g} {CLASS_UNITS[key]:<6} {note}")


def run_all(seconds: float, seed: int, trace: int) -> None:
    """Every workload in its own process; one row per workload."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True, text=True,
                              timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            sys.exit(proc.returncode)
        detail = next(json.loads(line[len("# detail "):])
                      for line in proc.stdout.splitlines() if line.startswith("# detail "))
        rows.append((name, detail))
    print("== one row per workload (name=value; units and directions above)")
    for name, detail in rows:
        cells = " ".join(f"{k}={v:.6g}" for k, v in detail.items())
        print(f"{name:<14} {cells}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds or BENCH["run_seconds"]
    if args.all:
        run_all(seconds, args.seed, args.trace)
        return
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print_report(result)
    detail = {k: v for k, v in {**result["metrics"], **result.get("classes", {})}.items()
              if not k.endswith("_samples")}
    print("# detail " + json.dumps(detail, sort_keys=True))
    wanted = [m["name"] for m in BENCH["end_to_end" if not args.trace else "per_layer"]]
    missing = [k for k in wanted if k not in result["metrics"]]
    if missing:
        fail(f"metrics {missing} were not measured")
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    out = summary(result)
    out["metrics"] = {k: {"value": result["metrics"][k], "unit": units[k]} for k in wanted}
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
