import pytest

from ratindex.grammar import cyk_membership, is_valid_parse_tree, parse_grammar, to_cnf
from ratindex.graphs import NFA, LabeledGraph
from ratindex.intersection import (
    UnrealizableTripleError,
    bar_hillel,
    extract_witness,
    height_bound_check,
    realizable_start_pairs,
    shortest_start,
    shortest_words,
)
from ratindex.measure import two_cycle_family
from ratindex.sampling import random_cnf_grammar, random_graph, random_nfa

from oracles import materialize, shortest_intersection_bfs, walks_up_to


@pytest.fixture
def single_edge_graph():
    return LabeledGraph.from_edges([("1", "a", "2")], nodes=["1", "2"])


@pytest.fixture
def single_letter_cnf():
    return to_cnf(parse_grammar("S -> a\n"))


def test_single_edge_product(single_letter_cnf, single_edge_graph):
    product = bar_hillel(single_letter_cnf, single_edge_graph)
    table = shortest_words(product)
    assert table.realizable() == {("S", "1", "2")}
    assert table.length(("S", "1", "2")) == 1


def test_product_matches_cyk_and_paths(rng):
    # soundness/completeness: materialized product membership agrees with
    # "cyk accepts the word and some path spells it"
    g = to_cnf(parse_grammar("S -> A B\nA -> a\nB -> b\n"))
    graph = LabeledGraph.from_edges([("1", "a", "2"), ("2", "b", "3")])
    product = bar_hillel(g, graph)
    table = shortest_words(product)
    assert ("S", "1", "3") in table.realizable()
    entry = table.entries[("S", "1", "3")]
    assert entry.length == 2
    assert entry.word == ("a", "b")


def test_no_matching_edges_no_triples(single_letter_cnf):
    graph = LabeledGraph.from_edges([("1", "b", "2")])
    table = shortest_words(bar_hillel(single_letter_cnf, graph))
    assert table.realizable() == frozenset()
    assert shortest_start(bar_hillel(single_letter_cnf, graph), table) is None


def test_two_cycle_shortest_length(anbn_cnf):
    product = bar_hillel(anbn_cnf, two_cycle_family(2, 3))
    best = shortest_start(product, shortest_words(product))
    assert best is not None
    length, word, triple = best
    assert length == 12
    assert word == ("a",) * 6 + ("b",) * 6


def test_two_cycle_witness_path(anbn_cnf):
    nfa = two_cycle_family(2, 3)
    product = bar_hillel(anbn_cnf, nfa)
    table = shortest_words(product)
    _, _, triple = shortest_start(product, table)
    witness = extract_witness(product, table, triple)
    assert witness.word == ("a",) * 6 + ("b",) * 6
    # path winds the a-cycle three times and the b-cycle twice
    assert len(witness.path) == 13
    assert witness.path[0] == "A0"
    assert witness.path[-1] == "B0"
    assert nfa.accepts(witness.word)
    assert cyk_membership(anbn_cnf, witness.word)
    assert is_valid_parse_tree(anbn_cnf, witness.tree, require_start=True)


def test_extract_witness_single_edge(single_letter_cnf, single_edge_graph):
    product = bar_hillel(single_letter_cnf, single_edge_graph)
    table = shortest_words(product)
    witness = extract_witness(product, table, ("S", "1", "2"))
    assert witness.word == ("a",)
    assert witness.path == ("1", "2")
    assert witness.tree.label == "S"
    assert witness.tree.children[0].label == "a"


def test_extract_witness_unrealizable(single_letter_cnf, single_edge_graph):
    product = bar_hillel(single_letter_cnf, single_edge_graph)
    table = shortest_words(product)
    with pytest.raises(UnrealizableTripleError):
        extract_witness(product, table, ("S", "2", "1"))


def test_witness_self_consistency(rng):
    # projected tree's yield equals the returned word; the path spells it
    checked = 0
    while checked < 100:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        graph = random_graph(rng, rng.randint(2, 4), sorted(g.terminals), rng.randint(2, 6))
        product = bar_hillel(g, graph)
        table = shortest_words(product)
        for triple in sorted(table.realizable()):
            witness = extract_witness(product, table, triple)
            assert witness.tree.yield_word() == witness.word
            assert len(witness.path) == len(witness.word) + 1
            assert is_valid_parse_tree(g, witness.tree)
            edge_set = graph.edges
            for (src, dst), label in zip(
                zip(witness.path, witness.path[1:]), witness.word
            ):
                assert (src, label, dst) in edge_set
            checked += 1
            if checked >= 100:
                break


def test_shortest_words_match_bfs_oracle(rng):
    instances = 0
    while instances < 60:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        nfa = random_nfa(rng, rng.randint(1, 4), sorted(g.terminals))
        product = bar_hillel(g, nfa)
        best = shortest_start(product, shortest_words(product))
        oracle = shortest_intersection_bfs(g, nfa, cap=12)
        if best is None or best[0] > 12:
            assert oracle is None
        else:
            assert oracle is not None
            assert best[0] == oracle[0]
        instances += 1


def test_shortest_word_is_lexicographically_smallest():
    # two length-1 words from node 1 to node 2; 'a' < 'b'
    g = to_cnf(parse_grammar("S -> a | b\n"))
    graph = LabeledGraph.from_edges([("1", "b", "2"), ("1", "a", "2")])
    product = bar_hillel(g, graph)
    table = shortest_words(product)
    assert table.entries[("S", "1", "2")].word == ("a",)


def test_monotonicity_adding_edges(rng):
    for _ in range(20):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        alphabet = sorted(g.terminals)
        graph = random_graph(rng, 3, alphabet, 4)
        bigger_edges = set(graph.edges) | {
            (
                rng.choice(sorted(graph.nodes)),
                rng.choice(alphabet),
                rng.choice(sorted(graph.nodes)),
            )
        }
        bigger = LabeledGraph(graph.nodes, graph.alphabet, frozenset(bigger_edges))
        table_small = shortest_words(bar_hillel(g, graph))
        table_big = shortest_words(bar_hillel(g, bigger))
        for triple, entry in table_small.entries.items():
            assert triple in table_big.entries
            assert table_big.entries[triple].length <= entry.length


def test_height_bound_on_single_edge(single_letter_cnf, single_edge_graph):
    product = bar_hillel(single_letter_cnf, single_edge_graph)
    table = shortest_words(product)
    witness = extract_witness(product, table, ("S", "1", "2"))
    report = height_bound_check(single_letter_cnf, single_edge_graph, witness.tree)
    assert report.height == 1
    assert report.bound == 1 * 2 * 2
    assert report.within_bound


def test_height_bound_two_cycle(anbn_cnf):
    nfa = two_cycle_family(2, 3)
    product = bar_hillel(anbn_cnf, nfa)
    table = shortest_words(product)
    _, _, triple = shortest_start(product, table)
    witness = extract_witness(product, table, triple)
    report = height_bound_check(anbn_cnf, nfa, witness.tree)
    assert report.within_bound
    assert report.bound == len(anbn_cnf.nonterminals) * 25


def test_epsilon_intersection_semantics():
    cnf = to_cnf(parse_grammar("S -> a S |\n"))
    assert cnf.epsilon_at_start
    graph = LabeledGraph.from_edges([("1", "a", "1"), ("1", "a", "2")])
    product = bar_hillel(cnf, graph)
    table = shortest_words(product)
    best = shortest_start(product, table)
    assert best == (0, (), None)
    pairs = realizable_start_pairs(product, table)
    assert ("1", "1") in pairs and ("2", "2") in pairs  # empty paths
    assert ("1", "2") in pairs  # via the letter a


def test_materialized_product_agrees_with_membership(rng, anbn_cnf):
    nfa = two_cycle_family(1, 1)
    product = bar_hillel(anbn_cnf, nfa)
    start = (anbn_cnf.start, "A0", "B0")
    flat = materialize(product, start)
    # the flattened product is an ordinary CNF grammar; its language is the
    # intersection, so CYK on it must agree with "anbn accepts and the NFA
    # accepts" for all short words
    for length in range(7):
        for word in _words(("a", "b"), length):
            expected = cyk_membership(anbn_cnf, word) and nfa.accepts(word)
            assert cyk_membership(flat, word) == expected


def test_materialized_product_on_random_instances(rng):
    done = 0
    while done < 8:
        g = random_cnf_grammar(rng, max_nonterminals=2, max_terminals=2, max_body=2)
        if g.epsilon_at_start:
            continue
        graph = random_graph(rng, rng.randint(2, 3), sorted(g.terminals), rng.randint(2, 5))
        product = bar_hillel(g, graph)
        table = shortest_words(product)
        if not table.entries:
            continue
        done += 1
        letters = tuple(sorted(g.terminals))
        for i in sorted(graph.nodes):
            for j in sorted(graph.nodes):
                triple = (g.start, i, j)
                restricted = nfa_between(graph, i, j)
                if triple in table.realizable():
                    flat = materialize(product, triple)
                    for length in range(5):
                        for word in _words(letters, length):
                            expected = cyk_membership(g, word) and restricted.accepts(word)
                            assert cyk_membership(flat, word) == expected
                else:
                    # nothing short spells a path i -> j in the language
                    for length in range(5):
                        for word in _words(letters, length):
                            assert not (
                                cyk_membership(g, word) and restricted.accepts(word)
                            )


def nfa_between(graph, source, target):
    return NFA(
        graph.nodes,
        graph.alphabet,
        graph.edges,
        frozenset({source}),
        frozenset({target}),
    )


def _words(letters, length):
    if length == 0:
        yield ()
        return
    for rest in _words(letters, length - 1):
        for a in letters:
            yield rest + (a,)


def test_product_soundness_small_instances(rng):
    # realizable (S,i,j) iff some walk i->j up to length 6 spells a word of
    # the language, on instances small enough for walk enumeration
    done = 0
    while done < 25:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        graph = random_graph(rng, rng.randint(2, 4), sorted(g.terminals), rng.randint(1, 5))
        product = bar_hillel(g, graph)
        table = shortest_words(product)
        oracle_pairs = set()
        for src, dst, word in walks_up_to(graph, 6):
            if cyk_membership(g, word):
                oracle_pairs.add((src, dst))
        engine_pairs = {
            (i, j)
            for (head, i, j), entry in table.entries.items()
            if head == g.start and entry.length <= 6
        }
        assert engine_pairs == oracle_pairs
        done += 1
