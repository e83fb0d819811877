import os
import random
from pathlib import Path

import pytest

from ratindex.grammar import parse_grammar, to_cnf
from ratindex.graphs import LabeledGraph

# Tests that run `python -m ratindex` in a subprocess need src/ on its path
# too; pytest's `pythonpath` setting only reaches this process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

ANBN_TEXT = "S -> a S b | a b\n"

EXAMPLE_PROGRAM = """\
Desc(x, y) :- Child(x, y).
Desc(x, y) :- Child(x, z), Desc(z, y).
?- Desc
"""


def two_regular_dyck_graph(seed, n):
    """The text of a graph with edges along two seeded random permutations
    of nodes v0..v(n-1), each labeled a or b at random: every node has two
    edges out and two in."""
    rng = random.Random(seed)
    lines = []
    for _ in range(2):
        image = list(range(n))
        rng.shuffle(image)
        lines += ["v%d\t%s\tv%d\n" % (u, rng.choice("ab"), image[u]) for u in range(n)]
    return "".join(lines)


def permutation_dyck_graph(seed, n):
    """The text of a graph with `a` edges along one seeded random
    permutation of nodes v0..v(n-1) and `b` edges along another, the shape
    of the bench's dense-graph workload: every node has one `a` and one `b`
    edge out and in."""
    rng = random.Random(seed)
    lines = []
    for label in "ab":
        image = list(range(n))
        rng.shuffle(image)
        lines += ["v%d\t%s\tv%d\n" % (u, label, image[u]) for u in range(n)]
    return "".join(lines)


@pytest.fixture
def anbn():
    return parse_grammar(ANBN_TEXT)


@pytest.fixture
def anbn_cnf(anbn):
    return to_cnf(anbn)


@pytest.fixture
def child_path_graph():
    return LabeledGraph.from_edges(
        [("1", "child", "2"), ("2", "child", "3")]
    )


@pytest.fixture
def rng():
    return random.Random(20240817)
