import pytest

from ratindex.datalog import chain_to_cfg, parse_chain_program
from ratindex.grammar import cyk_membership, parse_grammar, to_cnf
from ratindex.graphs import LabeledGraph
from ratindex.intersection import bar_hillel, realizable_start_pairs, shortest_words
from ratindex.reachability import (
    NotReachableError,
    all_pairs_reach,
    witness,
    witness_path,
)
from ratindex.sampling import random_cnf_grammar, random_graph

from conftest import EXAMPLE_PROGRAM
from oracles import walks_up_to


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
