"""Spans around gradefj's public functions, recorded from the benchmark's
own files, and the per-layer metrics computed from them.

``Tracer.install`` replaces each traced function with a wrapper in every
gradefj module that holds it, which covers the names bound by
``from .x import y`` in cli, props, runtime and typecheck as well as the
defining module (so recursive calls are traced too).  Grade operations
(``GradeUniverse.leq/add/mul/residual``) are far too frequent for spans and
are only counted.  ``uninstall`` restores every binding.

A span is ``[name, start, end, parent, tag, info]``; ``parent`` is the index
of the enclosing span or -1.  Self time is the span's duration minus the
durations of its direct children.  Everything runs on one thread with no
queue, so no span waits: there is no waiting time to report.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

TRACED = {
    "syntax": ("lex", "parse_program"),
    "hetero": ("load_universe", "check_universe_laws"),
    "grades": ("validate_algebra", "validate_hom"),
    "typecheck": ("check_table", "check_program", "elaborate_table", "annotate_table",
                  "check_configuration"),
    "runtime": ("graded_run", "graded_step", "std_run", "std_step"),
    "props": ("load_corpus", "check_entry", "theorem_suite"),
    "cli": ("main",),
}
GRADE_OPS = ("leq", "add", "mul", "residual")
MIN_RUN_STEPS = 50   # runs shorter than this do not enter the decile metrics

NAME, START, END, PARENT, TAG, INFO = range(6)


def _universe_tag(u) -> str:
    finite = all(alg.elements() is not None for k, alg in u.kinds.items() if k != "N")
    return "finite" if finite else "infinite"


def _policy_tag(args, kwargs) -> str:
    from gradefj.runtime import Enumerate
    policy = kwargs.get("policy", args[4] if len(args) > 4 else None)
    return "search" if isinstance(policy, Enumerate) else "minimal"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.grade_ops = 0
        self._undo: list[tuple] = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.grade_ops = 0

    # -- installation -------------------------------------------------------

    def install(self):
        import gradefj.cli  # noqa: F401  (loads every module)
        from gradefj.hetero import GradeUniverse
        from gradefj.typecheck import CheckError
        self.check_error = CheckError
        modules = [m for n, m in sys.modules.items()
                   if n == "gradefj" or n.startswith("gradefj.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"gradefj.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._span_wrapper(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for op in GRADE_OPS:
            original = GradeUniverse.__dict__[op]
            self._undo.append((GradeUniverse, op, original))
            setattr(GradeUniverse, op, self._count_wrapper(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _count_wrapper(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.grade_ops += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        rejected = self.check_error

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            if name == "hetero.check_universe_laws":
                span[TAG] = _universe_tag(args[0])
            elif name == "runtime.graded_run":
                span[TAG] = _policy_tag(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except rejected:
                span[INFO] = 1   # one diagnostic: check_program reports by raising
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if name == "syntax.lex" or name == "typecheck.check_table":
                span[INFO] = len(result)
            elif name == "runtime.graded_run":
                span[INFO] = (result.steps, len(result.config.env))
            return result
        return traced


# ---------------------------------------------------------------------------
# per-layer metrics

def _decile_means(runs: list[list[float]]):
    """Mean step time of the first and last tenth of every run, pooled."""
    first, last = [], []
    for steps in runs:
        if len(steps) >= MIN_RUN_STEPS:
            k = len(steps) // 10
            first.extend(steps[:k])
            last.extend(steps[-k:])
    if not first:
        return 0.0, 0.0, 0.0
    f, l = statistics.fmean(first) * 1e6, statistics.fmean(last) * 1e6
    return f, l, l / f


def layer_metrics(spans: list[list], grade_ops: int, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    self_time: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        own = s[END] - s[START] - child_time[i]
        key = s[NAME] + (f".{s[TAG]}" if s[NAME] == "hetero.check_universe_laws" else "")
        self_time[key] += own
        calls[key] += 1

    names = [s[NAME] for s in spans]
    graded_runs: dict = defaultdict(list)
    std_runs: dict = defaultdict(list)
    search_steps: dict = defaultdict(int)
    top_graded = top_std = 0
    for s in spans:
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        pname = parent[NAME] if parent else None
        if s[NAME] == "runtime.graded_step" and pname != "runtime.graded_step":
            top_graded += 1
            if pname == "runtime.graded_run":
                if parent[TAG] == "search":
                    search_steps[s[PARENT]] += 1
                else:
                    graded_runs[s[PARENT]].append(s[END] - s[START])
        elif s[NAME] == "runtime.std_step" and pname != "runtime.std_step":
            top_std += 1
            if pname == "runtime.std_run":
                std_runs[s[PARENT]].append(s[END] - s[START])
    g_first, g_last, g_growth = _decile_means(list(graded_runs.values()))
    s_first, s_last, s_growth = _decile_means(list(std_runs.values()))

    # the useful ratio counts only search runs that returned a path
    search_path = search_explored = env_final = 0
    for i, s in enumerate(spans):
        if s[NAME] == "runtime.graded_run" and s[INFO] is not None:
            env_final = max(env_final, s[INFO][1])
            if s[TAG] == "search":
                search_path += s[INFO][0]
                search_explored += search_steps[i]

    lex_time = sum(s[END] - s[START] for s in spans if s[NAME] == "syntax.lex")
    tokens = sum(s[INFO] for s in spans if s[NAME] == "syntax.lex" and s[INFO])
    diagnostics = sum(s[INFO] or 0 for s in spans
                      if s[NAME] in ("typecheck.check_table", "typecheck.check_program"))

    m = {
        "syntax.lex.self_s": self_time["syntax.lex"],
        "syntax.lex.tokens_per_s": tokens / lex_time if lex_time else 0.0,
        "syntax.parse_program.self_s": self_time["syntax.parse_program"],
        "syntax.parse_program.calls": calls["syntax.parse_program"],
        "typecheck.check_table.self_s": self_time["typecheck.check_table"],
        "typecheck.check_program.self_s": self_time["typecheck.check_program"],
        "typecheck.elaborate_table.self_s": self_time["typecheck.elaborate_table"],
        "typecheck.annotate_table.self_s": self_time["typecheck.annotate_table"],
        "typecheck.diagnostics": diagnostics,
        "typecheck.check_configuration.calls": calls["typecheck.check_configuration"],
        "typecheck.check_configuration.self_s": self_time["typecheck.check_configuration"],
        "runtime.graded_steps": top_graded,
        "runtime.graded_step_us.first_decile": g_first,
        "runtime.graded_step_us.last_decile": g_last,
        "runtime.graded_step_growth": g_growth,
        "runtime.env_size_final": env_final,
        "runtime.std_steps": top_std,
        "runtime.std_step_us.first_decile": s_first,
        "runtime.std_step_us.last_decile": s_last,
        "runtime.std_step_growth": s_growth,
        "runtime.search_steps_explored": sum(search_steps.values()),
        "runtime.search_useful_ratio": (search_path / search_explored
                                        if search_explored else 0.0),
        "hetero.grade_ops": grade_ops,
        "hetero.grade_ops_per_s": grade_ops / wall if wall else 0.0,
        "hetero.check_universe_laws.finite.self_s":
            self_time["hetero.check_universe_laws.finite"],
        "hetero.check_universe_laws.infinite.self_s":
            self_time["hetero.check_universe_laws.infinite"],
        "grades.validate_algebra.self_s": self_time["grades.validate_algebra"],
        "grades.validate_hom.self_s": self_time["grades.validate_hom"],
        "hetero.load_universe.calls": calls["hetero.load_universe"],
        "hetero.load_universe.self_s": self_time["hetero.load_universe"],
        "props.load_corpus.self_s": self_time["props.load_corpus"],
        "props.check_entry.self_s": self_time["props.check_entry"],
        "props.theorem_suite.self_s": self_time["props.theorem_suite"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_time["cli.main"],
    }
    for layer in TRACED:
        m[f"{layer}.spans"] = sum(1 for n in names if n.startswith(layer + "."))
    return m


def layer_activity(metrics: dict) -> dict:
    """Work recorded per layer: spans, plus counted grade ops for hetero."""
    act = {layer: metrics[f"{layer}.spans"] for layer in TRACED}
    act["hetero"] += metrics["hetero.grade_ops"]
    return act
