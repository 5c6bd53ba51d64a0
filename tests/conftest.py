import pathlib

import pytest

from gradefj.hetero import default_universe, load_universe
from gradefj.props import load_corpus
from gradefj.runtime import Env, GradedConfig, StdConfig
from gradefj.syntax import erase

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR


@pytest.fixture(scope="session")
def universe():
    return default_universe()


@pytest.fixture(scope="session")
def ap_universe():
    return load_universe(str(CORPUS_DIR / "affinity_privacy.json"))


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    return {e.name: e for e in corpus}


def erase_config(cfg: GradedConfig) -> StdConfig:
    """The standard configuration a graded one erases to."""
    return StdConfig(erase(cfg.expr), Env((x, erase(v)) for x, (v, _) in cfg.env.items()))


def ambiguous_algebra():
    """Six elements where burning 1 out of 'a' leaves either x or y:
    the valid residuals {0,1,x,y} have two incomparable maxima."""
    from gradefj.grades import FiniteAlgebra, FiniteTable, _closure_table
    elems = ["0", "1", "x", "y", "a", "w"]
    order = [("0", "1"), ("1", "x"), ("1", "y"), ("x", "a"), ("y", "a"), ("a", "w")]

    def add(p, q):
        if p == "0":
            return q
        if q == "0":
            return p
        if (p, q) in (("1", "1"), ("1", "x"), ("x", "1"), ("1", "y"), ("y", "1")):
            return "a"
        return "w"

    def mul(p, q):
        if "0" in (p, q):
            return "0"
        if p == "1":
            return q
        if q == "1":
            return p
        return "w"

    return FiniteAlgebra(FiniteTable(
        name="amb", elements=tuple(elems), leq=_closure_table(elems, order),
        sum={p: {q: add(p, q) for q in elems} for p in elems},
        mul={p: {q: mul(p, q) for q in elems} for p in elems},
        zero="0", one="1"))


def noncommutative_affinity():
    """Affinity with 1 + w redefined as 1 (but w + 1 stays w)."""
    from gradefj.grades import FiniteAlgebra, FiniteTable, affinity_table
    table = affinity_table()
    broken_sum = {a: dict(row) for a, row in table.sum.items()}
    broken_sum["1"]["w"] = "1"
    return FiniteAlgebra(FiniteTable(
        name="broken", elements=table.elements, leq=table.leq,
        sum=broken_sum, mul=table.mul, zero=table.zero, one=table.one))
