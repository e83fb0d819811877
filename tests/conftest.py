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
