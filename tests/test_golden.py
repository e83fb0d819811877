"""Outputs pinned byte for byte in ``tests/golden/``."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.cli import corpus
from ratindex.cli import build_parser

HELP = Path(__file__).parent / "golden" / "help"


def _subcommands(parser):
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_help_matches_golden(monkeypatch):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    helps = {"ratindex": parser.format_help()}
    helps.update((name, p.format_help()) for name, p in _subcommands(parser).items())
    assert sorted(helps) == sorted(path.stem for path in HELP.glob("*.txt"))
    for name, text in helps.items():
        assert text == (HELP / ("%s.txt" % name)).read_text(encoding="utf-8"), name


@pytest.fixture(scope="module")
def corpus_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    corpus.write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def expected():
    return corpus.read_expected()


def test_cli_corpus_covers_every_subcommand_and_entry(expected):
    assert set(_subcommands(build_parser())) <= {argv[0] for argv in corpus.ENTRIES.values()}
    # no entry without its expected block, and no block without its entry
    assert list(expected) == list(corpus.ENTRIES)


@pytest.mark.parametrize("name", list(corpus.ENTRIES))
def test_cli_corpus_entry(name, corpus_inputs, expected, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert corpus.run_in_process(corpus.ENTRIES[name], corpus_inputs) == expected[name]


# Library outputs that no CLI command prints, each pinned by the SHA-256 of
# what a program prints.  A closure seeds its first bucket from the sorted
# edges, so the order in which it settles, and with it the key order of its
# lengths, is the same under every hash seed.
SETTLE_ORDER = """import hashlib, sys
from ratindex.grammar import parse_grammar, to_cnf
from ratindex.graphs import parse_graph
from ratindex.intersection import ProductClosure
g = to_cnf(parse_grammar(open("dyck.cfg").read()))
edges = parse_graph(open("perm.graph").read()).edges
print(hashlib.sha256(repr(list(ProductClosure(g, edges).lengths)).encode()).hexdigest())
"""

# The witness tree across the chain NFA, then the CYK tree of (ab)^300.
TREES = """import hashlib, sys
from ratindex.grammar import cyk_parse, parse_grammar, to_cnf
from ratindex.graphs import parse_nfa
from ratindex.intersection import bar_hillel, extract_witness, shortest_start, shortest_words
anbn = to_cnf(parse_grammar(open("anbn.cfg").read()))
product = bar_hillel(anbn, parse_nfa(open("chain.nfa").read()))
table = shortest_words(product)
tree = extract_witness(product, table, shortest_start(product, table)[2]).tree
dyck = to_cnf(parse_grammar(open("dyck.cfg").read()))
for tree in tree, cyk_parse(dyck, "ab" * 300):
    print(hashlib.sha256(str(tree).encode()).hexdigest())
"""

# The witnesses of one table share their subtrees; they print as trees built
# apart do: the three nested witness trees (S, c(700-j), c(700+j)) for
# j = 700, 350 and 1 across the chain NFA, extracted outermost first from one
# table and innermost first from another.
NESTED_WITNESSES = """import hashlib, sys
from ratindex.grammar import parse_grammar, to_cnf
from ratindex.graphs import parse_nfa
from ratindex.intersection import bar_hillel, extract_witness, shortest_words
anbn = to_cnf(parse_grammar(open("anbn.cfg").read()))
product = bar_hillel(anbn, parse_nfa(open("chain.nfa").read()))
triples = [("S", "c%d" % (700 - j), "c%d" % (700 + j)) for j in (700, 350, 1)]
for order in triples, triples[::-1]:
    table = shortest_words(product)
    trees = {t: extract_witness(product, table, t).tree for t in order}
    text = "\\n".join(str(trees[t]) for t in triples)
    print(hashlib.sha256(text.encode()).hexdigest())
"""

# Ties are resolved alike under every hash seed: the (length, word,
# production, left, right) of the canonical entry of every triple of the
# Dyck grammar on the perm graph (4,224 triples, 882 with tied splits).
TABLE_ENTRIES = """import hashlib, sys
from ratindex.grammar import parse_grammar, to_cnf
from ratindex.graphs import parse_graph
from ratindex.intersection import bar_hillel, shortest_words
dyck = to_cnf(parse_grammar(open("dyck.cfg").read()))
table = shortest_words(bar_hillel(dyck, parse_graph(open("perm.graph").read())))
entries = [table[t] for t in sorted(table)]
print(hashlib.sha256(repr([(e.length, e.word, e.production, e.left, e.right)
                           for e in entries]).encode()).hexdigest())
"""

LIBRARY_DIGESTS = {
    TREES: "6edda51fe21b9986c776b8e96096472bf7d5f8b4c1cbd5a03c2bfb741725a7bc\n"
    "5de47639a639f9f75e5c017914078f1fcafa7dbde772613ab9e3303d376929a0\n",
    NESTED_WITNESSES: "ad152b83879da9aaf61a52db10e49f3acbe2b267b2f41f4888dd7b1ea8b153e9\n" * 2,
    TABLE_ENTRIES: "f3728c25c992698acaee5ae4bb36e02c18061b372fa7eca07c2e91b0fc7eab94\n",
}


def test_library_digests_under_two_hash_seeds(corpus_inputs):
    def run(program, seed):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        return subprocess.run(
            [sys.executable, "-c", program], cwd=corpus_inputs, env=env,
            capture_output=True, text=True, check=True,
        ).stdout

    for program, digests in LIBRARY_DIGESTS.items():
        assert run(program, 0) == run(program, 1) == digests
    assert run(SETTLE_ORDER, 0) == run(SETTLE_ORDER, 1)
