import random

import pytest

from ratindex.datalog import chain_to_cfg, parse_chain_program
from ratindex.grammar import cyk_membership, parse_grammar, to_cnf
from ratindex.graphs import LabeledGraph, parse_graph
from ratindex.intersection import (
    ProductClosure,
    bar_hillel,
    realizable_start_pairs,
    realized_rows,
    shortest_words,
)
from ratindex.reachability import (
    NotReachableError,
    all_pairs_reach,
    reach_pairs,
    witness,
    witness_path,
)
from ratindex.sampling import random_cnf_grammar, random_nfa

from conftest import EXAMPLE_PROGRAM, permutation_dyck_graph
from generators import random_graph
from oracles import reference_closure, resolve_by_tuple_words, walks_up_to


@pytest.fixture
def descendant_cnf():
    grammar = chain_to_cfg(parse_chain_program(EXAMPLE_PROGRAM))
    return to_cnf(grammar)


def test_descendants_on_child_path(descendant_cnf, child_path_graph):
    relation = all_pairs_reach(descendant_cnf, child_path_graph)
    assert relation.start_pairs() == {("1", "2"), ("1", "3"), ("2", "3")}


def test_no_edges_empty_relation(anbn_cnf):
    graph = LabeledGraph(frozenset({"1", "2"}), frozenset({"a", "b"}), frozenset())
    relation = all_pairs_reach(anbn_cnf, graph)
    assert relation.facts == frozenset()


def test_witness_path_only_path(descendant_cnf, child_path_graph):
    relation = all_pairs_reach(descendant_cnf, child_path_graph)
    assert witness_path(relation, "1", "3") == ("1", "2", "3")
    assert witness_path(relation, "1", "2") == ("1", "2")


def test_witness_path_not_reachable(descendant_cnf, child_path_graph):
    relation = all_pairs_reach(descendant_cnf, child_path_graph)
    with pytest.raises(NotReachableError):
        witness_path(relation, "3", "1")


def test_witness_words_accepted_by_cyk(rng):
    done = 0
    while done < 40:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        graph = random_graph(rng, rng.randint(2, 4), sorted(g.terminals), rng.randint(2, 6))
        relation = all_pairs_reach(g, graph)
        for i, j in sorted(relation.start_pairs()):
            nodes, word = witness(relation, i, j)
            assert nodes[0] == i and nodes[-1] == j
            assert cyk_membership(g, word)
            for (src, dst), label in zip(zip(nodes, nodes[1:]), word):
                assert (src, label, dst) in graph.edges
            done += 1


def test_epsilon_facts():
    cnf = to_cnf(parse_grammar("S -> a S |\n"))
    graph = LabeledGraph.from_edges([("1", "a", "2")])
    relation = all_pairs_reach(cnf, graph)
    assert ("1", "1") in relation.start_pairs()
    assert ("2", "2") in relation.start_pairs()
    assert ("1", "2") in relation.start_pairs()
    nodes, word = witness(relation, "2", "2")
    assert nodes == ("2",) and word == ()


def test_reachability_equals_realizable_triples(rng):
    for _ in range(30):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        graph = random_graph(rng, rng.randint(2, 4), sorted(g.terminals), rng.randint(1, 6))
        relation = all_pairs_reach(g, graph)
        product = bar_hillel(g, graph)
        table = shortest_words(product)
        assert relation.start_pairs() == realizable_start_pairs(product, table)


def test_start_pairs_equal_a_scan_of_the_start_facts(rng):
    epsilon_grammars = 0
    for _ in range(300):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2, epsilon_weight=0.2)
        n = rng.randint(1, 10)
        graph = random_graph(rng, n, sorted(g.terminals), rng.randint(0, 3 * n))
        rel = all_pairs_reach(g, graph)
        assert rel.start_pairs() == frozenset((i, j) for (a, i, j) in rel.facts if a == g.start)
        epsilon_grammars += g.epsilon_at_start
    assert epsilon_grammars >= 100


def test_reachability_agrees_with_walk_oracle(rng):
    done = 0
    while done < 25:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        graph = random_graph(rng, rng.randint(2, 4), sorted(g.terminals), rng.randint(1, 5))
        relation = all_pairs_reach(g, graph)
        table = shortest_words(bar_hillel(g, graph))
        oracle = set()
        if g.epsilon_at_start:
            oracle.update((n, n) for n in graph.nodes)
        for src, dst, word in walks_up_to(graph, 6):
            if cyk_membership(g, word):
                oracle.add((src, dst))
        short_facts = {
            (i, j)
            for i, j in relation.start_pairs()
            if (g.start, i, j) in table.entries
            and table.entries[(g.start, i, j)].length <= 6
        }
        if g.epsilon_at_start:
            short_facts.update(
                (n, n) for n in graph.nodes if (n, n) in relation.start_pairs()
            )
        assert short_facts == oracle
        done += 1


def test_monotonicity_facts_never_removed(rng):
    for _ in range(20):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        alphabet = sorted(g.terminals)
        graph = random_graph(rng, 3, alphabet, 3)
        extra = {
            (
                rng.choice(sorted(graph.nodes)),
                rng.choice(alphabet),
                rng.choice(sorted(graph.nodes)),
            )
        }
        bigger = LabeledGraph(
            graph.nodes, graph.alphabet, frozenset(set(graph.edges) | extra)
        )
        assert all_pairs_reach(g, graph).facts <= all_pairs_reach(g, bigger).facts


def test_witness_is_the_canonical_shortest_word(rng):
    done = 0
    while done < 200:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        graph = random_graph(rng, rng.randint(2, 5), sorted(g.terminals), rng.randint(1, 10))
        relation = all_pairs_reach(g, graph)
        table = shortest_words(bar_hillel(g, graph))
        for i, j in sorted(relation.start_pairs()):
            nodes, word = witness(relation, i, j)
            if g.epsilon_at_start and i == j:
                assert (nodes, word) == ((i,), ())
            else:
                assert word == table.entries[(g.start, i, j)].word
                assert len(nodes) == len(word) + 1
            done += 1


def test_dense_reach_matches_the_tuple_keyed_reference():
    # 100 nodes in the dense-graph bench's shape: 20,200 triples, and the
    # bound rows of the closure turn away nearly every join probe.
    g = to_cnf(parse_grammar("S -> S S | a S b | a b\n"))
    graph = parse_graph(permutation_dyck_graph(5, 100))
    relation = all_pairs_reach(g, graph)
    lengths, _ = reference_closure(g, sorted(graph.edges))
    assert len(lengths) == 20200
    assert relation.facts == frozenset(lengths)
    closure = ProductClosure(g, graph.edges)
    assert list(closure.lengths.items()) == list(lengths.items())
    expected, _ = resolve_by_tuple_words(g, graph.edges, closure)
    rng = random.Random(100)
    nodes = sorted(graph.nodes)
    for _ in range(20):
        i, j = rng.choice(nodes), rng.choice(nodes)
        path, word = witness(relation, i, j)
        assert word == expected[("S", i, j)][0]
        assert all((u, a, v) in graph.edges for u, a, v in zip(path, word, path[1:]))


def test_realized_rows_equal_the_closure_triples(rng):
    # Graphs and automata of 1-12 nodes, from no edges to about n^2 per
    # letter; about two grammars in five derive the empty word.
    epsilon_grammars = facts = 0
    for _ in range(500):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2, epsilon_weight=0.2)
        letters = sorted(g.terminals)
        n = rng.randint(1, 12)
        graph = random_graph(rng, n, letters, rng.randint(0, n * n))
        nfa = random_nfa(rng, n, letters, rng.choice((0.05, 0.2, 0.5, 0.9)))
        for transitions in (graph.edges, nfa.transitions):
            rows = realized_rows(g, transitions)
            triples = {(a, i, j) for a, row in rows.items() for i, js in row.items() for j in js}
            assert triples == set(ProductClosure(g, transitions).lengths)
            facts += len(triples)
        assert reach_pairs(g, graph) == all_pairs_reach(g, graph).start_pairs()
        epsilon_grammars += g.epsilon_at_start
    assert epsilon_grammars >= 100
    assert facts > 10_000
