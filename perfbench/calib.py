"""Speed calibration: a fixed piece of pure-Python work, timed next to the
operations, that tells how fast the machine runs at that moment.

On a shared machine the same operation can take 1.5 to 1.8 times as long
in one second as in the next, on both vCPUs alike and in CPU time as well
as wall time, so a run that falls into a slow phase reads slow however
long it measures.  The benchmark therefore times this work between
operations (a *point*: the faster of two slices, so that one preempted
slice does not count) and scales each operation's time by ``NOMINAL_S``
over the mean of the points before and after it: the figures are seconds
at the speed where a slice takes ``NOMINAL_S``.  The work does not touch
gradefj, so a change to gradefj moves the scaled times exactly as it moves
the raw ones.

The slow phases are not gradual: the machine has a fast and a slow state
and switches between them within seconds.  When the points around an
operation differ by more than ``STEADY_RATIO`` the switch happened during
it, the mean of the points says little about its speed, and ``steady``
says so: the benchmark leaves such samples out.

Kinds of work slow down by different amounts in the slow state.  Measured
on the machine above, gradefj's operations (laws, runs, checks of tables
and of corpus programs alike) took 1.46 to 1.54 times as long; building
and walking a tree of small objects 1.73 times, updating a dict keyed by
nested tuples 1.43 times, a regular-expression scan of program text 1.58
times.  A slice mixes the three so that it slows down about as much as
gradefj does: it builds a binary tree of small objects and walks it,
copying a small dict (an environment) at every inner node; counts nested
tuple keys in a dict (grade tables); and tokenizes program text (lexing).
The garbage collector is off during a slice, so its time does not depend on
what gradefj left on the heap.
"""

from __future__ import annotations

import gc
import re
import time

NOMINAL_S = 0.005    # one slice at the reference speed (a fast phase of a 2-vCPU VM)
STEADY_RATIO = 1.25
DEPTH = 11
HASH_ROUNDS = 120
_KEYS = [(("k", i % 7), (i % 5, ("x", i % 3))) for i in range(64)]
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}()\[\];,.@:=/]")
_TEXT = "".join(f"class C{i} extends B{i % 7} {{ U[1] f{i}; U[1] g{i}() [1] "
                f"{{ this.f{i}.u }} }}\n" for i in range(160))


class _Node:
    __slots__ = ("left", "right", "key")

    def __init__(self, left, right, key):
        self.left, self.right, self.key = left, right, key


def _build(depth: int, key: int) -> _Node:
    if depth == 0:
        return _Node(None, None, key)
    return _Node(_build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1), key)


def _walk(node: _Node, env: dict) -> int:
    if node.left is None:
        return env.get(node.key & 63, 0) + 1
    env = dict(env)
    env[node.key & 63] = node.key
    return _walk(node.left, env) + _walk(node.right, env)


def _work() -> tuple:
    tree = _walk(_build(DEPTH, 1), {})
    table: dict = {}
    for r in range(HASH_ROUNDS):
        for k in _KEYS:
            key = (k, (r & 3, k[1]))
            table[key] = table.get(key, 0) + 1
    return tree, len(table), len(_TOKEN.findall(_TEXT))


EXPECTED = _work()


def point() -> float:
    """The faster of two slices."""
    return min(slice_seconds(), slice_seconds())


def scale(before: float, after: float) -> float:
    """Scale for a time taken between two points."""
    return NOMINAL_S / ((before + after) / 2)


def steady(before: float, after: float) -> bool:
    """Whether the machine kept its speed between two points."""
    return max(before, after) <= STEADY_RATIO * min(before, after)


def slice_seconds() -> float:
    """Time one slice of the calibration work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = _work()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != EXPECTED:
        raise AssertionError("calibration work gave a different answer")
    return seconds
