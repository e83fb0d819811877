"""Inputs whose derivations are thousands of levels deep, and grammars
with thousands of productions.

Each depth here used to raise RecursionError: witnesses, parse trees and
tree equality, hashing and printing must not recurse with the data.  Each
grammar size here used to take seconds in to_cnf: normalisation must not
rescan the productions per nonterminal or per fresh name, nor enumerate
every subset of a body's nullable occurrences.  Long witnesses must not
cost a word of memory per symbol per triple, and their trees hold one
leaf per terminal.  Facts-only queries (Datalog
and CYK membership) on such inputs must not settle lengths nobody reads.
Well-nested words of hundreds of thousands of moves are matched and
measured in one pass with an explicit stack.
"""

import sys
import time
import tracemalloc

import pytest

from ratindex.cli import main
from ratindex.datalog import chain_to_cfg, evaluate, parse_chain_program
from ratindex.grammar import (
    cyk_membership,
    cyk_parse,
    is_valid_parse_tree,
    parse_grammar,
    to_cnf,
)
from ratindex.graphs import NFA, LabeledGraph
from ratindex.intersection import ProductClosure, bar_hillel, extract_witness, shortest_words
from ratindex.measure import TwoCycle, measure_rho, two_cycle_family
from ratindex.reachability import all_pairs_reach, witness
from ratindex.trees import ParseTree, dimension
from ratindex.wellnested import WellNestedWord, harmonic, matching_pairs, oscillation

from conftest import ANBN_TEXT
from oracles import naive_datalog_fixpoint


def anbn_chain(k):
    """A path c0 -> ... -> c(2k) spelling a^k b^k."""
    edges = [("c%d" % i, "a" if i < k else "b", "c%d" % (i + 1)) for i in range(2 * k)]
    return LabeledGraph.from_edges(edges)


def updown_chain(k):
    """An up chain u0 -> ... -> uk, a down chain dk -> ... -> d0, flat from
    uk to dk and five flat shortcuts u_i -> d_j: 2k + 2 nodes."""
    edges = [("u%d" % i, "up", "u%d" % (i + 1)) for i in range(k)]
    edges += [("d%d" % (i + 1), "down", "d%d" % i) for i in range(k)]
    edges.append(("u%d" % k, "flat", "d%d" % k))
    edges += [("u%d" % (37 * i % k), "flat", "d%d" % (53 * i % k)) for i in range(1, 6)]
    return LabeledGraph.from_edges(edges)


SAME_GENERATION = """\
SG(x, y) :- Flat(x, y).
SG(x, y) :- Up(x, z1), SG(z1, z2), Down(z2, y).
?- SG
"""


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


def test_deep_tree_repr():
    # the dataclass repr, 3,000 levels deep, under the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    text = repr(unary_tree(3000))
    assert text == "ParseTree(label='A', children=(" * 3000 + (
        "ParseTree(label='a', children=())" + ",))" * 3000)


@pytest.mark.parametrize("p, q, value", [(23, 29, 1334), (31, 37, 2294)])
def test_measure_rho_long_two_cycles(anbn_cnf, p, q, value):
    estimate = measure_rho(anbn_cnf, p + q, TwoCycle(p, q))
    assert estimate.value == value
    assert estimate.witness_word == ("a",) * (value // 2) + ("b",) * (value // 2)


def test_measure_rho_two_cycle_61_67_memory(anbn_cnf):
    tracemalloc.start()
    try:
        estimate = measure_rho(anbn_cnf, 128, TwoCycle(61, 67))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate.value == 8174
    assert estimate.witness_word == ("a",) * 4087 + ("b",) * 4087
    assert peak < 60_000_000


@pytest.mark.parametrize("p, q, value, bound", [
    # words stored per triple peaked at 36 MB here and 567 MB at 127:131
    (61, 67, 8174, 10_000_000),
    (127, 131, 33274, 100_000_000),
])
def test_measure_rho_two_cycle_witness_memory(anbn_cnf, p, q, value, bound):
    tracemalloc.start()
    try:
        estimate = measure_rho(anbn_cnf, p + q, TwoCycle(p, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate.value == value
    assert estimate.witness_word == ("a",) * (value // 2) + ("b",) * (value // 2)
    assert peak < bound


def test_two_cycle_least_start_transient_memory(anbn_cnf):
    # Resolving the 33,274-symbol witness holds no split list per triple
    # below it: what resolution allocates and frees again (3.4 MB when every
    # triple kept one, sorted by length) stays small next to the steps and
    # the code that it keeps.
    nfa = two_cycle_family(127, 131)
    stop = (nfa.initial, nfa.accepting, 258)
    closure = ProductClosure(anbn_cnf, nfa.transitions, stop=stop)
    tracemalloc.start()
    try:
        best = closure.least_start(*stop)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert best[0] == 33274
    assert peak - held < 1_500_000


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


def test_same_generation_on_long_updown_chain():
    program = parse_chain_program(SAME_GENERATION)
    graph = updown_chain(3000)
    assert len(graph.nodes) == 6002
    answers = evaluate(program, graph)
    assert {("u%d" % i, "d%d" % i) for i in range(3001)} <= answers
    assert answers == all_pairs_reach(to_cnf(chain_to_cfg(program)), graph).start_pairs()


def test_same_generation_on_a_2000_level_chain_matches_the_naive_fixpoint():
    # The up and down edges are leaf triples, seeded and never popped; the
    # bottom-up fixpoint finds one more level per round.
    program = parse_chain_program(SAME_GENERATION)
    graph = updown_chain(2000)
    answers = evaluate(program, graph)
    assert len(answers) > 2001
    assert answers == naive_datalog_fixpoint(program, graph)


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


def test_witness_tree_across_a_20000_step_chain_shares_its_leaves(anbn_cnf):
    # A tree 20,000 levels deep, built under the default recursion limit,
    # with one leaf object per terminal rather than one per position.
    assert sys.getrecursionlimit() <= 1000
    chain = anbn_chain(10000)
    nfa = NFA(chain.nodes, chain.alphabet, chain.edges, {"c0"}, {"c20000"})
    product = bar_hillel(anbn_cnf, nfa)
    found = extract_witness(product, shortest_words(product), ("S", "c0", "c20000"))
    assert found.word == ("a",) * 10000 + ("b",) * 10000
    assert found.tree.yield_word() == found.word
    leaves = {id(node) for node in found.tree.iter_nodes() if node.is_leaf}
    assert len(leaves) == 2


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


def test_cyk_membership_on_long_dyck_words():
    dyck = to_cnf(parse_grammar("S -> S S | a S b | a b\n"))
    assert cyk_membership(dyck, "ab" * 150)
    assert cyk_membership(dyck, "a" * 600 + "b" * 600)
    assert not cyk_membership(dyck, "ab" * 149 + "ba")


def test_oscillation_of_harmonic_16():
    word = harmonic(16)
    assert len(word) == 262140
    assert oscillation(word) == 16


def test_long_spine_pairs_and_oscillation():
    word = WellNestedWord("(" * 100000 + ")" * 100000)
    assert oscillation(word) == 0
    assert matching_pairs(word)[0] == (1, 200000)


def long_alternatives(k):
    """k five-symbol alternatives of S over k nonterminals N0..N(k-1)."""
    lines = ["S -> " + " | ".join(
        "N%d a N%d b N%d" % (i, (i + 1) % k, (i + 2) % k) for i in range(k)
    )]
    lines += ["N%d -> c%d | c%d N%d" % (i, i, i, 3 * i % k) for i in range(k)]
    return "\n".join(lines) + "\n"


def unit_chain(n):
    """A0 -> A1 -> ... -> A(n-1) by unit productions, each with two more
    alternatives, so unit elimination copies about n^2 bodies."""
    lines = ["A%d -> A%d | a A%d b | c" % (i, i + 1, 7 * i % n) for i in range(n - 1)]
    lines.append("A%d -> a b" % (n - 1))
    return "\n".join(lines) + "\n"


def right_linear_chain(n):
    """B0 -> b B1, ..., B(n-1) -> b Bn, Bn -> b: a round-based fixpoint
    over the productions in this order learns one generating nonterminal
    per round."""
    lines = ["B%d -> b B%d" % (i, i + 1) for i in range(n)]
    lines.append("B%d -> b" % n)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("build, size, productions", [
    (long_alternatives, 1000, 7002),
    (unit_chain, 100, 10087),
    (right_linear_chain, 2000, 2002),
], ids=["long-alternatives", "unit-chain", "right-linear-chain"])
def test_to_cnf_on_large_grammars(build, size, productions):
    g = parse_grammar(build(size))
    start = time.perf_counter()
    cnf = to_cnf(g)
    assert time.perf_counter() - start < 2
    assert len(cnf.productions) == productions


def test_to_cnf_with_many_nullable_occurrences():
    # S -> A^24 has 2^24 ways of dropping A's but only 25 distinct bodies
    g = parse_grammar("S -> %s\nA -> a |\n" % " ".join(["A"] * 24))
    start = time.perf_counter()
    cnf = to_cnf(g)
    assert time.perf_counter() - start < 1
    assert cnf.epsilon_at_start
    assert len(cnf.productions) == 279
    assert cyk_membership(cnf, "a" * 24) and not cyk_membership(cnf, "a" * 25)
