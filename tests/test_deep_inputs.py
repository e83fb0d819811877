"""Inputs whose derivations are thousands of levels deep.

Each size here used to raise RecursionError: witnesses, parse trees and
tree equality, hashing and printing must not recurse with the data.
"""

import time

import pytest

from ratindex.cli import main
from ratindex.grammar import cyk_membership, cyk_parse, is_valid_parse_tree
from ratindex.graphs import NFA, LabeledGraph
from ratindex.intersection import bar_hillel, extract_witness, shortest_words
from ratindex.measure import TwoCycle, measure_rho
from ratindex.reachability import all_pairs_reach, witness
from ratindex.trees import ParseTree, dimension

from conftest import ANBN_TEXT


def anbn_chain(k):
    """A path c0 -> ... -> c(2k) spelling a^k b^k."""
    edges = [("c%d" % i, "a" if i < k else "b", "c%d" % (i + 1)) for i in range(2 * k)]
    return LabeledGraph.from_edges(edges)


def unary_tree(depth):
    tree = ParseTree("a")
    for _ in range(depth):
        tree = ParseTree("A", (tree,))
    return tree


@pytest.mark.parametrize("depth", [3000, 10000])
def test_deep_tree_equality_hash_and_str(depth):
    tree = unary_tree(depth)
    twin = unary_tree(depth)
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != unary_tree(depth - 1)
    assert tree != ParseTree("A", (unary_tree(depth - 2), ParseTree("b")))
    assert str(tree) == "A(" * depth + "a" + ")" * depth
    assert len({tree, twin}) == 1


@pytest.mark.parametrize("p, q, value", [(23, 29, 1334), (31, 37, 2294)])
def test_measure_rho_long_two_cycles(anbn_cnf, p, q, value):
    estimate = measure_rho(anbn_cnf, p + q, TwoCycle(p, q))
    assert estimate.value == value
    assert estimate.witness_word == ("a",) * (value // 2) + ("b",) * (value // 2)


@pytest.mark.parametrize("pairs, value", [("23:29", 1334), ("31:37", 2294)])
def test_cli_measure_rho_long_two_cycles(capsys, tmp_path, pairs, value):
    grammar = tmp_path / "anbn.cfg"
    grammar.write_text(ANBN_TEXT)
    code = main(["measure-rho", "--grammar", str(grammar), "--strategy", "two-cycle",
                 "--pairs", pairs])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[1].split(",")[:2] == [str(sum(map(int, pairs.split(":")))), str(value)]


def test_reach_witness_across_long_chain(anbn_cnf):
    relation = all_pairs_reach(anbn_cnf, anbn_chain(600))
    nodes, word = witness(relation, "c0", "c1200")
    assert nodes == tuple("c%d" % i for i in range(1201))
    assert word == ("a",) * 600 + ("b",) * 600


def test_extract_witness_across_long_chain(anbn_cnf):
    chain = anbn_chain(600)
    nfa = NFA(chain.nodes, chain.alphabet, chain.edges, {"c0"}, {"c1200"})
    product = bar_hillel(anbn_cnf, nfa)
    table = shortest_words(product)
    found = extract_witness(product, table, ("S", "c0", "c1200"))
    assert found.word == ("a",) * 600 + ("b",) * 600
    assert found.path == tuple("c%d" % i for i in range(1201))
    assert found.tree.yield_word() == found.word
    assert is_valid_parse_tree(anbn_cnf, found.tree, require_start=True)


def test_cyk_on_long_anbn(anbn_cnf):
    word = "a" * 1000 + "b" * 1000
    start = time.perf_counter()
    tree = cyk_parse(anbn_cnf, word)
    assert time.perf_counter() - start < 10
    assert tree.height() == 2000
    assert tree.yield_word() == tuple(word)
    assert is_valid_parse_tree(anbn_cnf, tree, require_start=True)
    assert dimension(tree) == 1
    assert cyk_membership(anbn_cnf, word)
    assert not cyk_membership(anbn_cnf, "a" * 1000 + "b" * 999 + "a")
