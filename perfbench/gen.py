"""Seeded, standard-library-only input generator for the benchmark.

``generate(workload, seed, outdir)`` writes the generated programs and
universe files of one workload into ``outdir`` and returns one record per
input.  A record holds the file path, why the input is in the workload, size
statistics counted here (not by gradefj), and the reference answer that its
construction implies.  The same seed always gives byte-identical files and
records; seeds change names and the shape details that do not change the
amount of work (leaf classes, hom maps, which class extends which), so two
seeds cost about the same.
"""

from __future__ import annotations

import json
import random
import re
import string
from pathlib import Path

# long_runs sizes: chosen so that one pass of the workload takes a few
# seconds on a 2-core machine while per-step cost visibly grows.
LOOP_FUEL = 1500
SEARCH_FUEL = 500          # deep enough to be measurable, shallow enough to complete
SEARCH_CRASH_FUEL = 3000   # known answer "divergent within fuel"; raises at the seed
WALK_DEPTH = 7             # complete binary tree: 2**7 leaves
SPINE_DEPTH = 32           # one-sided tree: runtime grades 2**0 .. 2**32
DEEP_NEW = 1500            # constructor nesting of the deep check

# big_tables sizes
TABLES = 9
CLASSES = 120
DATA_CLASSES = 8
MAX_INHERIT = 4
REJECTS = {2: "override", 5: "overuse", 8: "unknown"}   # table index -> planted error

CORPUS_UNIVERSES = ("bool.json", "ext.json", "affinity_privacy.json")

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}()\[\];,.@:=/]")


def count_tokens(text: str) -> int:
    """Tokens as the language defines them (identifiers, integers, symbols)."""
    return len(_TOKEN.findall(text))


class Names:
    """Distinct seeded identifiers of a fixed length, so lexing cost does
    not depend on the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, prefix: str, length: int = 4) -> str:
        while True:
            name = prefix + "".join(self.rng.choice(string.ascii_lowercase)
                                    for _ in range(length))
            if name not in self.used:
                self.used.add(name)
                return name


# ---------------------------------------------------------------------------
# long_runs

def _tree(rng, depth, leaves):
    """Complete binary tree as nested tuples; leaves are class names."""
    if depth == 0:
        return rng.choice(leaves)
    return (_tree(rng, depth - 1, leaves), _tree(rng, depth - 1, leaves))


def _spine(rng, depth, leaves):
    """One-sided tree: every node has a leaf on the left."""
    t = rng.choice(leaves)
    for _ in range(depth):
        t = (rng.choice(leaves), t)
    return t


def _mirror(t):
    if isinstance(t, str):
        return t
    return (_mirror(t[1]), _mirror(t[0]))


def _format_tree(t, node):
    """The tree as the CLI prints a value (and as the parser reads it)."""
    if isinstance(t, str):
        return f"new {t}()"
    return f"new {node}({_format_tree(t[0], node)}, {_format_tree(t[1], node)})"


def _tree_nodes(t) -> int:
    return 1 if isinstance(t, str) else 1 + _tree_nodes(t[0]) + _tree_nodes(t[1])


def _walk_program(names, rng, shape, field_grade, walk_grade, main_grade,
                  ascribe_this):
    base, node = names.fresh("T"), names.fresh("Nd")
    leaves = [names.fresh("Lf"), names.fresh("Lf")]
    walk, left, right = names.fresh("w"), names.fresh("l"), names.fresh("r")
    tree = shape(rng, leaves)
    recv = f"(this @ {walk_grade})" if ascribe_this else "this"
    lines = [f"class {base} {{ {base}[{walk_grade}] {walk}() [{walk_grade}] "
             f"{{ new {leaves[0]}() }} }}"]
    for leaf in leaves:
        lines.append(f"class {leaf} extends {base} {{ {base}[{walk_grade}] {walk}() "
                     f"[{walk_grade}] {{ new {leaf}() }} }}")
    lines.append(f"class {node} extends {base} {{ {base}[{field_grade}] {left}; "
                 f"{base}[{field_grade}] {right};")
    lines.append(f"  {base}[{walk_grade}] {walk}() [{walk_grade}] "
                 f"{{ new {node}({recv}.{right}.{walk}(), {recv}.{left}.{walk}()) }} }}")
    lines.append(f"run {_format_tree(tree, node)}.{walk}() at {main_grade}")
    text = "\n".join(lines) + "\n"
    # 4 classes, 2 fields, 4 methods; bodies 1 + 1 + 1 + 7; main: tree + call
    nodes = 21 + _tree_nodes(tree)
    return text, _format_tree(_mirror(tree), node), nodes


def _loop_program(names):
    cls, meth = names.fresh("Lp"), names.fresh("s")
    text = (f"class {cls} {{ {cls}[N:1] {meth}() [N:1] {{ this.{meth}() }} }}\n"
            f"run new {cls}().{meth}() at N:1\n")
    return text


def gen_long_runs(rng, names, outdir):
    records = []
    loop = _loop_program(names)
    records.append(_program_record(
        outdir, "loop", loop,
        why="self-recursive call: env grows by one binding per call while its "
            "grades repeat; run to a fixed fuel",
        expect={"verdict": "accept",
                "runs": [{"mode": "minimal", "fuel": LOOP_FUEL, "outcome": "fuel",
                          "steps": LOOP_FUEL, "same_as": "standard"},
                         {"mode": "standard", "fuel": LOOP_FUEL, "outcome": "fuel",
                          "steps": LOOP_FUEL},
                         {"mode": "search", "fuel": SEARCH_FUEL, "outcome": "fuel"},
                         {"mode": "search-text", "fuel": SEARCH_CRASH_FUEL,
                          "text": "divergent within fuel", "exit": 0,
                          "known_failure": {"error": "RecursionError",
                                            "why": "the depth-first search recurses "
                                                   "once per step"}}]},
        nodes=6))
    text, value, nodes = _walk_program(
        names, rng, lambda r, lv: _tree(r, WALK_DEPTH, lv),
        field_grade="A:w", walk_grade="A:w", main_grade="A:1", ascribe_this=False)
    records.append(_program_record(
        outdir, "walk_affine", text,
        why="terminating doubly-recursive mirror of a complete tree; every grade "
            "is in the finite affinity kind (A:1, A:w) and repeats",
        expect={"verdict": "accept", "value": value,
                "runs": [{"mode": "minimal", "outcome": "final", "value": value,
                          "same_as": "standard"},
                         {"mode": "standard", "outcome": "final", "value": value},
                         {"mode": "search", "fuel": SEARCH_FUEL, "outcome": "fuel"}]},
        nodes=nodes))
    text, value, nodes = _walk_program(
        names, rng, lambda r, lv: _spine(r, SPINE_DEPTH, lv),
        field_grade="N:2", walk_grade="A:w", main_grade="N:1", ascribe_this=True)
    records.append(_program_record(
        outdir, "walk_nat", text,
        why="mirror of a one-sided tree whose N:2 fields double the reduction "
            "grade per nesting level, so the run meets 2**0..2**depth: many "
            "distinct natural-number grades",
        expect={"verdict": "accept", "value": value,
                "runs": [{"mode": "minimal", "outcome": "final", "value": value,
                          "same_as": "standard"},
                         {"mode": "standard", "outcome": "final", "value": value},
                         {"mode": "search", "fuel": SEARCH_FUEL, "outcome": "final",
                          "value": value}]},
        nodes=nodes))
    return records


# ---------------------------------------------------------------------------
# big_tables

def _big_table(rng, names, reject_kind):
    """A class table with CLASSES classes, a main that calls one method, and
    the answers its construction implies.  ``reject_kind`` plants one known
    error (or None for a well-typed table)."""
    unit = names.fresh("U")
    data = [names.fresh("D") for _ in range(DATA_CLASSES)]
    lines = [f"class {unit} {{ }}"]
    nodes = 1
    for d in data:
        lines.append(f"class {d} {{ {unit}[1] u; }}")
        nodes += 2
    # Depths cycle 0..MAX_INHERIT and the own-field count follows the depth,
    # so the seed picks parents and field classes but not the table's size.
    classes = []   # (name, parent or None, own fields [(name, data class)])
    by_depth: dict = {}
    for i in range(CLASSES):
        name, depth = names.fresh("C"), i % (MAX_INHERIT + 1)
        parent = rng.choice(by_depth[depth - 1]) if depth else None
        own = [(names.fresh("f"), rng.choice(data)) for _ in range(1 + depth % 2)]
        classes.append((name, parent, own))
        by_depth.setdefault(depth, []).append(classes[-1])

    def all_fields(c):
        return (all_fields(c[1]) if c[1] is not None else []) + c[2]

    def value_of(d):
        return f"new {d}(new {unit}())"

    def nested_blocks(d, var, levels):
        """{d v1 = var; {d v2 = v1; ... vn}}: 2 * levels + 1 nodes."""
        binds = [var] + [names.fresh("v") for _ in range(levels)]
        body = binds[-1]
        for init, v in reversed(list(zip(binds, binds[1:]))):
            body = f"{{{d}[1] {v} = {init}; {body}}}"
        return body

    methods_of = {}
    out_classes = []
    plant_done = False
    for idx, (name, parent, own) in enumerate(classes):
        flds = all_fields((name, parent, own))
        ext = f" extends {parent[0]}" if parent is not None else ""
        members = [f"{d}[1] {f};" for f, d in own]
        meths = {}   # method name -> (kind, returned data class)
        nodes += 1 + len(own)
        for k, (f, d) in enumerate(own):
            get, uget, blk = names.fresh("g"), names.fresh("u"), names.fresh("b")
            levels = 1 + (idx + k) % 4
            meths[get], meths[uget], meths[blk] = ("get", d), ("unit", unit), ("block", d)
            members.append(f"{d}[1] {get}() [1] {{ this.{f} }}")
            members.append(f"{unit}[1] {uget}() [1] {{ this.{f}.u }}")
            members.append(f"{d}[1] {blk}({d}[1] x) [1] "
                           f"{{ {nested_blocks(d, 'x', levels)} }}")
            nodes += 3 + 4 + 2 * levels + 3
        if parent is not None:
            # override one inherited getter with the same signature
            m, (_, d) = rng.choice([(m, spec) for m, spec in methods_of[parent[0]].items()
                                    if spec[0] == "get"])
            members.append(f"{d}[1] {m}() [1] {{ {value_of(d)} }}")
            meths[m] = ("const", d)
            nodes += 3
        if reject_kind and not plant_done and parent is not None and idx >= CLASSES // 2:
            plant_done = True
            if reject_kind == "override":   # parameter grade differs from the parent's
                m, (_, d) = rng.choice([(m, spec) for m, spec
                                        in methods_of[parent[0]].items()
                                        if spec[0] == "block"])
                members.append(f"{d}[1] {m}({d}[2] x) [1] {{ x }}")
                nodes += 3
            elif reject_kind == "overuse":  # x declared [1] but used twice
                d, m = rng.choice(data), names.fresh("o")
                members.append(f"{d}[1] {m}({d}[1] x) [1] "
                               f"{{ {{{d}[1] y = x; {{{d}[1] z = x; z}}}} }}")
                nodes += 7
            else:                           # a field of an undeclared class
                members.insert(0, f"{names.fresh('Q')}[1] {names.fresh('f')};")
                nodes += 1
        inherited_methods = dict(methods_of[parent[0]]) if parent is not None else {}
        inherited_methods.update(meths)
        methods_of[name] = inherited_methods
        out_classes.append((name, flds))
        lines.append(f"class {name}{ext} {{ " + " ".join(members) + " }")
    assert plant_done or not reject_kind

    # main: build an object of a deepest class and call one of its blocks
    name, flds = rng.choice([c for i, c in enumerate(out_classes)
                             if i % (MAX_INHERIT + 1) == MAX_INHERIT])
    ctor = f"new {name}({', '.join(value_of(d) for _, d in flds)})"
    meth, (_, d) = rng.choice(sorted((m, s) for m, s in methods_of[name].items()
                                     if s[0] == "block"))
    value = value_of(d)
    lines.append(f"run {ctor}.{meth}({value}) at 1")
    return "\n".join(lines) + "\n", value, nodes + 2 * len(flds) + 4


_REJECTS = {"override": ("table", "Coherence"),
            "overuse": ("t-meth", "GradeTooDemanding"),
            "unknown": ("table", "UnknownClass")}


def gen_big_tables(rng, names, outdir):
    records = []
    for t in range(TABLES):
        reject = REJECTS.get(t)
        text, value, nodes = _big_table(rng, names, reject)
        if reject is None:
            expect = {"verdict": "accept",
                      "runs": [{"mode": "minimal", "outcome": "final", "value": value}]}
            why = ("well-typed table: inheritance up to depth 4, overriding getters, "
                   "field chains, nested blocks; main calls one method")
        else:
            rule, kind = _REJECTS[reject]
            expect = {"verdict": "reject", "rule": rule, "kind": kind, "runs": []}
            why = f"table mutated ({reject}) so that [{rule}] {kind} fires"
        records.append(_program_record(outdir, f"table{t}", text, why=why,
                                       expect=expect, nodes=nodes))
    leaf, box = names.fresh("A"), names.fresh("B")
    deep = (f"class {leaf} {{ }}\nclass {box} extends {leaf} {{ {leaf}[1] a; }}\n"
            f"run {('new ' + box + '(') * DEEP_NEW}new {leaf}(){')' * DEEP_NEW} at 1\n")
    records.append(_program_record(
        outdir, "deep_new", deep,
        why=f"well-typed constructor nested {DEEP_NEW} deep; should be accepted",
        expect={"verdict": "accept", "runs": [],
                "known_failure": {"error": "RecursionError",
                                  "why": "the parser and checker recurse once per "
                                         "nesting level"}},
        nodes=DEEP_NEW + 4))
    return records


# ---------------------------------------------------------------------------
# universe_laws

def _chain_table(name, levels):
    """Distributive chain 0 < l1 < ... < ln: sum is max, product is min,
    0 is neutral for sum and absorbing for product, one is the top."""
    elems = ["0"] + levels
    rank = {e: i for i, e in enumerate(elems)}
    return {"name": name, "elements": elems,
            "leq": [[a, b] for a in elems for b in elems if rank[a] <= rank[b]],
            "sum": {a: {b: max(a, b, key=rank.get) for b in elems} for a in elems},
            "mul": {a: {b: min(a, b, key=rank.get) for b in elems} for a in elems},
            "zero": "0", "one": elems[-1]}


def _monotone_map(rng, src_levels, dst_levels):
    """Seeded monotone map between chains keeping 0, the top and nonzero-ness;
    any such map is a semiring homomorphism of chains."""
    cuts = sorted(rng.sample(range(1, len(src_levels)), len(dst_levels) - 1))
    out, j = {"0": "0"}, 0
    for i, lv in enumerate(src_levels):
        while j < len(cuts) and i >= cuts[j]:
            j += 1
        out[lv] = dst_levels[j]
    return out


def _carrier_size(cfg) -> int:
    """Carrier size of a finite kind."""
    if "builtin" in cfg:
        return {"affinity": 3, "boolean": 2}[cfg["builtin"]]
    if "table" in cfg:
        return len(cfg["table"]["elements"])
    if "product" in cfg:
        return _carrier_size(cfg["product"][0]) * _carrier_size(cfg["product"][1])
    return _carrier_size(cfg["extend"]) + 1


def pool_size(universe: dict) -> int:
    """Size of the kinded pool the universe law check is cubic in: each
    finite kind's carrier, 8 samples of each infinite kind, 11 naturals, T."""
    return 12 + sum(8 if _infinite(k) else _carrier_size(k)
                    for k in universe["kinds"].values())


def _infinite(cfg) -> bool:
    if "builtin" in cfg:
        return cfg["builtin"] in ("nat", "extreal")
    if "table" in cfg:
        return False
    if "product" in cfg:
        return any(_infinite(c) for c in cfg["product"])
    return _infinite(cfg["extend"])


def _levels(names, n):
    return [names.fresh("", 3) for _ in range(n)]


def gen_universe_laws(rng, names, outdir, corpus_dir):
    records = []
    for fname in CORPUS_UNIVERSES:
        path = Path(corpus_dir) / fname
        cfg = json.loads(path.read_text(encoding="utf-8"))
        records.append({"name": fname[:-5], "kind": "universe", "path": str(path),
                        "why": "corpus universe: the law check users run today",
                        "finite": not any(_infinite(k) for k in cfg["kinds"].values()),
                        "expect": {"exit": 0},
                        "stats": {"pool": pool_size(cfg), "kinds": len(cfg["kinds"])}})

    lv = _levels(names, 2)
    k_l, k_lb = names.fresh("K", 2), names.fresh("K", 2)
    table = _chain_table(names.fresh("t"), lv)
    product = {"kinds": {k_l: {"table": table},
                         k_lb: {"product": [{"table": table}, {"builtin": "boolean"}]}},
               "edges": [{"sub": k_lb, "super": k_l, "hom": {"proj": "left"}}]}
    records.append(_universe_record(
        outdir, "fin_product", product, finite=True,
        why="finite kinds: a 3-element chain times booleans, refining the chain; "
            "enlarges the kinded pool"))

    k4, k2, k1 = (names.fresh("K", 2) for _ in range(3))
    l4, l2, l1 = _levels(names, 4), _levels(names, 2), _levels(names, 1)
    chain = {"kinds": {k4: {"table": _chain_table(names.fresh("t"), l4)},
                       k2: {"table": _chain_table(names.fresh("t"), l2)},
                       k1: {"table": _chain_table(names.fresh("t"), l1)}},
             "edges": [{"sub": k4, "super": k2, "hom": {"map": _monotone_map(rng, l4, l2)}},
                       {"sub": k2, "super": k1, "hom": {"map": _monotone_map(rng, l2, l1)}}]}
    records.append(_universe_record(
        outdir, "fin_chain", chain, finite=True,
        why="finite kinds: a refinement chain of 5-, 3- and 2-element chains "
            "with seeded monotone homs; composed transports"))

    k_r = names.fresh("K", 2)
    real = {"kinds": {k_r: {"builtin": "extreal"}}, "edges": []}
    records.append(_universe_record(
        outdir, "inf_real", real, finite=False,
        why="infinite kind: extended non-negative rationals (Fraction arithmetic)"))

    k_e = names.fresh("K", 2)
    ext = {"kinds": {k_e: {"extend": {"builtin": "nat"}}}, "edges": []}
    records.append(_universe_record(
        outdir, "inf_ext", ext, finite=False,
        why="infinite kind: naturals extended with an infinite top"))

    lb = _levels(names, 3)
    broken_table = _chain_table(names.fresh("t"), lb)
    a, b = rng.sample(lb, 2)
    wrong = [e for e in broken_table["elements"] if e != broken_table["sum"][b][a]]
    broken_table["sum"][a][b] = rng.choice(wrong)
    broken = {"kinds": {names.fresh("K", 2): {"table": broken_table}}, "edges": []}
    records.append(_universe_record(
        outdir, "broken", broken, finite=True, exit_code=2,
        violates={"law": "add-commutative", "witness": sorted((a, b))},
        why=f"deliberately broken: sum[{a}][{b}] changed so addition is not "
            "commutative; must be refused with exit 2"))
    return records


# ---------------------------------------------------------------------------

def _program_record(outdir, name, text, why, expect, nodes):
    path = Path(outdir) / f"{name}.gfj"
    path.write_text(text, encoding="utf-8")
    return {"name": name, "kind": "program", "path": str(path), "why": why,
            "expect": expect, "stats": {"tokens": count_tokens(text), "nodes": nodes}}


def _universe_record(outdir, name, cfg, finite, why, exit_code=0, violates=None):
    path = Path(outdir) / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True), encoding="utf-8")
    return {"name": name, "kind": "universe", "path": str(path), "why": why,
            "finite": finite,
            "expect": {"exit": exit_code, **({"violates": violates} if violates else {})},
            "stats": {"pool": pool_size(cfg), "kinds": len(cfg["kinds"])}}


def generate(workload: str, seed: int, outdir, corpus_dir) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``outdir``."""
    rng = random.Random(f"{workload}:{seed}")
    names = Names(rng)
    Path(outdir).mkdir(parents=True, exist_ok=True)
    if workload == "long_runs":
        return gen_long_runs(rng, names, outdir)
    if workload == "big_tables":
        return gen_big_tables(rng, names, outdir)
    if workload == "universe_laws":
        return gen_universe_laws(rng, names, outdir, corpus_dir)
    raise ValueError(f"no generated inputs for workload {workload!r}")
