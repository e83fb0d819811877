import functools

import pytest

import ratindex.intersection
from ratindex.datalog import parse_chain_program
from ratindex.grammar import cyk_membership, is_valid_parse_tree, parse_grammar, to_cnf
from ratindex.graphs import NFA, LabeledGraph, parse_graph, parse_nfa
from ratindex.intersection import (
    ROW_PARTNERS,
    ProductClosure,
    ShortestTable,
    UnrealizableTripleError,
    bar_hillel,
    extract_witness,
    height_bound_check,
    realizable_start_pairs,
    realized_rows,
    shortest_start,
    shortest_words,
)
from ratindex.measure import two_cycle_family
from ratindex.sampling import random_cnf_grammar, random_nfa

from oracles import (
    UP_DOWN_FLAT,
    materialize,
    realizable_start_pairs_scan,
    realized_rows_popping_every_edge,
    reference_closure,
    rename_terminals,
    resolve_below_two_pass,
    resolve_by_tuple_words,
    shortest_intersection_bfs,
    shortest_start_scan,
    splits_by_node_scan,
    tree_by_steps,
    walks_up_to,
)

from conftest import EXAMPLE_PROGRAM, two_regular_dyck_graph
from generators import random_graph


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


AB_TEXT = "S -> a b\n"


@pytest.mark.parametrize(
    "automaton, winner, pairs",
    [
        # two disjoint `a b` paths; the one listed first has the larger names
        (
            LabeledGraph.from_edges(
                [("p", "a", "q"), ("q", "b", "r"), ("b", "a", "c"), ("c", "b", "d")]
            ),
            ("b", "d"),
            {("b", "d"), ("p", "r")},
        ),
        (
            parse_nfa("initial: q p\naccepting: f\nq a q1\nq1 b f\np a p1\np1 b f\n"),
            ("p", "f"),
            {("p", "f"), ("q", "f")},
        ),
        (
            parse_nfa("initial: s\naccepting: y x\ns a m\nm b y\nm b x\n"),
            ("s", "x"),
            {("s", "x"), ("s", "y")},
        ),
    ],
)
def test_shortest_start_tie_goes_to_the_smallest_pair(automaton, winner, pairs):
    g = to_cnf(parse_grammar(AB_TEXT))
    product = bar_hillel(g, automaton)
    table = shortest_words(product)
    assert shortest_start(product, table) == (2, ("a", "b"), (g.start,) + winner)
    assert realizable_start_pairs(product, table) == pairs


def test_epsilon_grammar_without_an_initial_accepting_state():
    cnf = to_cnf(parse_grammar("S -> a S b |\n"))
    assert cnf.epsilon_at_start
    # 0 -a-> 1 -b-> 0 realizes (S, 0, 0), but 0 is not accepting, and the
    # initial state 3 has only the empty path to itself
    nfa = parse_nfa("initial: 0 3\naccepting: 2\n0 a 1\n1 b 0\n1 b 2\n")
    product = bar_hillel(cnf, nfa)
    table = shortest_words(product)
    assert (cnf.start, "0", "0") in table
    assert shortest_start(product, table) == (2, ("a", "b"), (cnf.start, "0", "2"))
    assert realizable_start_pairs(product, table) == {("0", "2")}


def test_start_queries_match_the_start_pair_scan(rng):
    epsilon_grammars = 0
    for trial in range(300):
        g = random_cnf_grammar(
            rng, max_nonterminals=3, max_terminals=2, epsilon_weight=0.25
        )
        epsilon_grammars += g.epsilon_at_start
        letters = sorted(g.terminals)
        if trial % 2:
            automaton = random_nfa(rng, rng.randint(1, 4), letters)
        else:
            n = rng.randint(1, 11)
            automaton = random_graph(rng, n, letters, rng.randint(1, 2 * n))
        product = bar_hillel(g, automaton)
        table = shortest_words(product)
        assert shortest_start(product, table) == shortest_start_scan(product, table)
        assert realizable_start_pairs(product, table) == realizable_start_pairs_scan(
            product, table
        )
    assert epsilon_grammars >= 30


def entries_as_tuples(closure, triples):
    table = ShortestTable(closure)
    found = {t: table[t] for t in triples}
    assert all(entry.length == len(entry.word) for entry in found.values())
    return {t: (e.word, e.production, e.left, e.right) for t, e in found.items()}


def test_entries_match_the_tuple_word_resolution(rng):
    tied = renamed = 0
    for trial in range(1000):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=3)
        if trial % 3 == 0:
            g = rename_terminals(g, UP_DOWN_FLAT)
            renamed += 1
        letters = sorted(g.terminals)
        if trial % 2:
            transitions = random_nfa(rng, rng.randint(1, 4), letters).transitions
        else:
            n = rng.randint(1, 8)
            transitions = random_graph(rng, n, letters, rng.randint(1, 3 * n)).edges
        closure = ProductClosure(g, transitions)
        expected, ties = resolve_by_tuple_words(g, transitions, closure)
        tied += ties
        # triples in increasing length on some instances, on demand in a
        # random order on the others
        triples = list(closure.lengths)
        if trial % 4 < 2:
            triples.sort(key=closure.lengths.__getitem__)
        else:
            rng.shuffle(triples)
        assert entries_as_tuples(closure, triples) == expected
    assert renamed >= 300 and tied >= 200


def test_entries_over_a_wide_alphabet_match_the_tuple_word_resolution(rng):
    # 300 terminals t0..t299, sorted as t0, t1, t10, t100, ...; their codes
    # go past Latin-1
    names = ["t%d" % k for k in range(300)]
    rng.shuffle(names)
    g = to_cnf(parse_grammar("S -> S S | L S R | L R\nL -> %s\nR -> %s\n" % (
        " | ".join(names[:150]), " | ".join(names[150:]))))
    graph = random_graph(rng, 40, names, 200)
    closure = ProductClosure(g, graph.edges)
    expected, _ = resolve_by_tuple_words(g, graph.edges, closure)
    assert entries_as_tuples(closure, closure.lengths) == expected
    assert len(expected) >= 500
    assert max(max(map(ord, e.code)) for e in ShortestTable(closure).values()) > 255


def long_ties(closure, expected, at_least):
    """The number of triples whose expected word has at least ``at_least``
    symbols and comes from two or more of their splits."""
    count = 0
    for triple, (word, *_rest) in expected.items():
        if len(word) >= at_least:
            words = [expected[left][0] + expected[right][0] for _pid, left, right in
                     closure.splits(triple)]
            count += words.count(word) > 1
    return count


def test_long_tied_words_match_the_tuple_word_resolution(rng):
    # Graphs of 16-40 nodes and two-cycle automata: ties among splits whose
    # words run to tens of symbols, resolved on demand in a random order on
    # half of the instances and through ``items`` on the other half
    tied = 0
    instances = 0
    for text in ("S -> S S | a S b | a b\n", "S -> S S | a S b | c S d | a b | c d\n"):
        g = to_cnf(parse_grammar(text))
        letters = sorted(g.terminals)
        automata = [two_cycle_family(p, q) for p, q in ((3, 4), (4, 5), (5, 7), (7, 9))]
        for _ in range(10):
            n = rng.randint(16, 40)
            automata.append(random_graph(rng, n, letters, rng.randint(2 * n, 3 * n)))
        for automaton in automata:
            product = bar_hillel(g, automaton)
            table = shortest_words(product)
            closure = table.closure
            expected, _ = resolve_by_tuple_words(g, product.automaton.transitions, closure)
            tied += long_ties(closure, expected, 8)
            if instances % 2:
                found = {
                    t: (e.word, e.production, e.left, e.right) for t, e in table.entries.items()
                }
            else:
                triples = list(closure.lengths)
                rng.shuffle(triples)
                found = entries_as_tuples(closure, triples)
            assert found == expected
            instances += 1
    assert tied >= 200


def test_lazy_tables_match_the_tuple_word_resolution(rng):
    tied = renamed = epsilon_grammars = nonempty = 0
    for trial in range(1000):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=3, epsilon_weight=0.15)
        if trial % 3 == 0:
            g = rename_terminals(g, UP_DOWN_FLAT)
            renamed += 1
        epsilon_grammars += g.epsilon_at_start
        letters = sorted(g.terminals)
        if trial % 2:
            automaton = random_nfa(rng, rng.randint(1, 4), letters)
        else:
            n = rng.randint(1, 8)
            automaton = random_graph(rng, n, letters, rng.randint(1, 3 * n))
        product = bar_hillel(g, automaton)
        transitions = product.automaton.transitions
        closure = ProductClosure(g, transitions)
        nodes = product.automaton.states
        for triple in closure.lengths:
            assert sorted(closure.splits(triple)) == splits_by_node_scan(
                g, closure.lengths, nodes, triple
            )
        expected, ties = resolve_by_tuple_words(g, transitions, closure)
        tied += ties
        table = shortest_words(product)
        assert set(table.entries) == set(expected) and len(table.entries) == len(expected)
        # the start queries first on half of the tables, after every entry
        # has been read on the other half
        queries_first = trial % 4 < 2
        if queries_first:
            best = shortest_start(product, table)
            pairs = realizable_start_pairs(product, table)
        triples = list(expected)
        rng.shuffle(triples)
        found = {t: table.entries[t] for t in triples}
        assert {
            t: (e.word, e.production, e.left, e.right) for t, e in found.items()
        } == expected
        if not queries_first:
            best = shortest_start(product, table)
            pairs = realizable_start_pairs(product, table)
        assert best == shortest_start_scan(product, table)
        assert pairs == realizable_start_pairs_scan(product, table)
        nonempty += best is not None
    assert renamed >= 300 and tied >= 200 and epsilon_grammars >= 100 and nonempty >= 500


def test_witness_trees_match_the_trees_rebuilt_from_the_tuple_word_steps(rng):
    # Every realizable triple's witness tree, extracted in a random order
    # from a lazy table, equals the canonical tree rebuilt node by node
    # without shared subtrees, and prints and hashes alike.  ``shared``
    # counts the trees in which some triple's subtree occurs twice.
    tied = shared = 0
    for trial in range(400):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=3, epsilon_weight=0.1)
        if trial % 3 == 0:
            g = rename_terminals(g, UP_DOWN_FLAT)
        letters = sorted(g.terminals)
        if trial % 2:
            automaton = random_nfa(rng, rng.randint(1, 4), letters)
        else:
            n = rng.randint(1, 8)
            automaton = random_graph(rng, n, letters, rng.randint(1, 3 * n))
        product = bar_hillel(g, automaton)
        table = shortest_words(product)
        expected, ties = resolve_by_tuple_words(g, product.automaton.transitions, table.closure)
        tied += ties
        triples = list(expected)
        rng.shuffle(triples)
        for triple in triples:
            tree = extract_witness(product, table, triple).tree
            reference = tree_by_steps(expected, triple)
            assert tree == reference and str(tree) == str(reference), (g, triple)
            assert hash(tree) == hash(reference)
            assert tree.yield_word() == expected[triple][0]
            inner = [node for node in tree.iter_nodes() if node.children]
            shared += len(set(map(id, inner))) < len(inner)
    assert tied >= 200 and shared >= 300


def test_lazy_table_rejects_unrealizable_triples():
    g = to_cnf(parse_grammar("S -> a S b | a b\n"))
    table = shortest_words(bar_hillel(g, LabeledGraph.from_edges([("1", "a", "2")])))
    assert ("S", "1", "2") not in table.entries and table.length(("S", "1", "2")) is None
    assert table.entries.get(("S", "1", "2")) is None
    with pytest.raises(KeyError):
        table.entries[("S", "1", "2")]
    assert len(table.entries) == 1 and table.realizable() == {("T_a", "1", "2")}


def test_a_table_is_a_mapping():
    g = to_cnf(parse_grammar("S -> S S | a S b | a b\n"))
    empty = shortest_words(bar_hillel(g, LabeledGraph.from_edges([], ["1"])))
    assert not empty and empty == {}
    table = shortest_words(bar_hillel(g, parse_graph(two_regular_dyck_graph(1, 16))))
    assert table
    one_by_one = {}
    for t in table:
        one_by_one[t] = table[t]
    assert table == dict(table.items()) and table == one_by_one
    assert all(table[t] == entry for t, entry in one_by_one.items())
    with pytest.raises(TypeError):
        hash(table)


def test_shortest_queries_resolve_few_triples(monkeypatch):
    resolved = []
    resolve = ProductClosure._resolve

    def counting_resolve(self, triple, splits):
        resolved.append(triple)
        resolve(self, triple, splits)

    monkeypatch.setattr(ProductClosure, "_resolve", counting_resolve)
    g = to_cnf(parse_grammar("S -> S S | a S b | a b\n"))
    product = bar_hillel(g, parse_graph(two_regular_dyck_graph(1, 64)))
    table = shortest_words(product)
    length, word, triple = shortest_start(product, table)
    witness = extract_witness(product, table, triple)
    assert (length, word, witness.word) == (2, ("a", "b"), ("a", "b"))
    realizable = len(table.realizable())
    assert realizable == 3832
    assert 0 < len(resolved) < realizable // 10


@pytest.mark.parametrize("p, q, steps", [(7, 9, 142), (13, 17, 472), (31, 37, 2362)])
def test_a_shortest_query_and_its_witness_spell_one_code(anbn_cnf, p, q, steps):
    # the start triple's code is the only one memoized; the tie-free
    # derivation below it and the witness walk spell none
    product = bar_hillel(anbn_cnf, two_cycle_family(p, q))
    table = shortest_words(product)
    _length, _word, triple = shortest_start(product, table)
    extract_witness(product, table, triple)
    assert table.entries is table
    assert len(table.closure._codes) == 1
    assert len(table.closure.steps) == steps


def test_lazy_items_and_values_resolve_every_triple_once(monkeypatch, rng):
    resolved = []
    resolve = ProductClosure._resolve

    def counting_resolve(self, triple, splits):
        resolved.append(triple)
        resolve(self, triple, splits)

    monkeypatch.setattr(ProductClosure, "_resolve", counting_resolve)
    nonempty = 0
    for trial in range(200):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2, epsilon_weight=0.15)
        n = rng.randint(1, 8)
        graph = random_graph(rng, n, sorted(g.terminals), rng.randint(1, 3 * n))
        table = shortest_words(bar_hillel(g, graph))
        del resolved[:]
        keys = list(table.entries)
        assert len(table.entries) == len(keys) and all(t in table.entries for t in keys)
        assert resolved == []  # keys, len and in resolve nothing
        for t in rng.sample(keys, len(keys) // 3):
            table.entries[t]
        before = len(resolved)
        if trial % 2:
            found = dict(table.entries.items())
        else:
            found = dict(zip(keys, table.entries.values()))
        # every triple once in all
        assert sorted(resolved) == sorted(keys)
        rest = [table.length(t) for t in resolved[before:]]
        expected, _ = resolve_by_tuple_words(g, graph.edges, table.closure)
        assert {t: (e.word, e.production, e.left, e.right) for t, e in found.items()} == expected
        nonempty += len(rest) > 1 and before > 0
    assert nonempty >= 50


@pytest.mark.parametrize("row_partners", [ROW_PARTNERS, 2])
def test_closure_matches_the_tuple_keyed_reference(monkeypatch, rng, row_partners):
    # Bound rows only turn away probes that ``lengths`` would turn away, so
    # the lengths, their key order and the rows ``by_source`` are those of
    # the loop that probes ``lengths`` alone.  With the row threshold at 2,
    # every pop with two or more partners goes through a row.
    monkeypatch.setattr(ratindex.intersection, "ROW_PARTNERS", row_partners)
    wide = edge_probed = 0
    for trial in range(600):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        n = rng.randint(1, 12)
        letters = sorted(g.terminals)
        if trial % 2:
            edges = rng.choice((n, n * n, 2 * n * n))  # sparse to dense
            transitions = random_graph(rng, n, letters, edges).edges
        else:
            transitions = random_nfa(rng, n, letters, rng.choice((0.15, 0.5, 0.9))).transitions
        counts = {}
        lengths, by_source = reference_closure(g, sorted(transitions), counts, wide=row_partners)
        closure = ProductClosure(g, transitions)
        assert list(closure.lengths.items()) == list(lengths.items())
        assert closure.by_source == by_source
        wide += counts["wide_pops"] > 0
        # a parent with a terminal rule: its row learns a length-1 triple
        edge_probed += counts["wide_edge_probes"] > 0
    assert wide >= 100 and edge_probed >= 50


def settle_record(g, transitions):
    """What a closure settles and resolves, in the order it does so: its
    lengths, its rows, the code of every triple and its steps."""
    closure = ProductClosure(g, transitions)
    codes = [(t, closure.code(t)) for t in sorted(closure.lengths)]
    rows = {a: list(row.items()) for a, row in closure.by_source.items()}
    return list(closure.lengths.items()), rows, codes, list(closure.steps.items())


def test_a_closure_settles_in_one_order_whatever_the_order_of_its_edges(rng):
    # The first bucket is seeded from the sorted edges, so the pushes, the
    # key order of ``lengths`` and the rows follow neither the order of a
    # list of transitions nor, through a frozenset, the hash seed.
    tied = 0
    for _ in range(300):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=3)
        n = rng.randint(1, 8)
        letters = sorted(g.terminals)
        edges = sorted(random_graph(rng, n, letters, rng.choice((n, 2 * n, n * n))).edges)
        rng.shuffle(edges)
        record = settle_record(g, edges)
        assert settle_record(g, edges[::-1]) == record
        assert settle_record(g, frozenset(edges)) == record
        # two labels on one node pair: an edge tie decided by the sort
        tied += len({(i, j) for i, _a, j in edges}) < len(edges)
    assert tied >= 100


@pytest.mark.parametrize("first", ["a", "b"])
def test_an_edge_tie_goes_to_the_smallest_label(first):
    # S -> b is production 0 and S -> a production 1: the canonical edge
    # step of (S, 1, 2) is the rule of the smaller word, a, in either order.
    g = to_cnf(parse_grammar("S -> b | a\n"))
    assert g.productions[1] == ("S", ("a",))
    second = "b" if first == "a" else "a"
    closure = ProductClosure(g, [(1, first, 2), (1, second, 2)])
    assert list(closure.lengths.items()) == [(("S", 1, 2), 1)]
    assert closure.code(("S", 1, 2)) == chr(0)
    assert closure.steps[("S", 1, 2)] == (1, None, None)


def test_realized_rows_reach_a_nonterminal_that_is_no_rules_child():
    g = to_cnf(parse_grammar("S -> A B\nA -> a\nB -> b\n"))
    assert "S" not in g.rule_index[2]
    rows = realized_rows(g, [(0, "a", 1), (1, "b", 2), (2, "a", 3)])
    assert rows == {"S": {0: {2}}, "A": {0: {1}, 2: {3}}, "B": {1: {2}}}


# Grammars whose leaves (nonterminals with no binary rule) take each path
# through realized_rows: a rule of two leaves, also below another rule and
# with one leaf twice; a start symbol that is a leaf; leaves of several
# labels; a nonterminal with terminal and binary rules; an empty-word start.
LEAF_GRAMMARS = (
    "S -> A B\nA -> a\nB -> b\n",
    "S -> a | b\n",
    "S -> A B | B A\nA -> a | b\nB -> b | c\n",
    "S -> A S | S B | a\nA -> a | b\nB -> b\n",
    "S -> X S | a\nX -> A B\nA -> a\nB -> b\n",
    "S -> A A | A S\nA -> a | b\n",
    "S -> a S b |\n",
    "S -> S S | a S b | a b\n",
)


def assert_rows_match_the_popping_loop(g, transitions, rng) -> int:
    """Assert that ``realized_rows`` gives the rows of the loop that pops
    every edge triple, for the transitions in four orders and as a
    frozenset; return the number of triples."""
    expected = realized_rows_popping_every_edge(g, transitions)
    edges = list(transitions)
    shuffled = rng.sample(edges, len(edges))
    for variant in (edges, shuffled, edges[::-1], frozenset(edges)):
        rows = realized_rows(g, variant)
        assert rows == expected
        assert all(row for sets in rows.values() for row in sets.values())
    return sum(len(row) for sets in expected.values() for row in sets.values())


def test_realized_rows_equal_the_loop_that_pops_every_edge(rng):
    instances = triples = 0
    for _ in range(1000):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2, epsilon_weight=0.2)
        letters = sorted(g.terminals)
        n = rng.randint(1, 8)
        graph = random_graph(rng, n, letters, rng.randint(0, n * n))
        nfa = random_nfa(rng, n, letters, rng.choice((0.05, 0.2, 0.5)))
        for transitions in (graph.edges, nfa.transitions):
            triples += assert_rows_match_the_popping_loop(g, transitions, rng)
            instances += 1
    for text in LEAF_GRAMMARS:
        g = to_cnf(parse_grammar(text))
        letters = sorted(g.terminals)
        loops = [(node, a, node) for node in range(3) for a in letters]
        word = [(p, rng.choice(letters), p + 1) for p in range(12)]
        for transitions in ([], loops, word, loops + word):
            triples += assert_rows_match_the_popping_loop(g, transitions, rng)
            instances += 1
        for _ in range(40):
            n = rng.randint(1, 6)
            graph = random_graph(rng, n, letters, rng.randint(1, 2 * n * n))
            triples += assert_rows_match_the_popping_loop(g, graph.edges, rng)
            instances += 1
    assert instances >= 2000
    assert triples > 20_000


# Shapes in which realized_rows keeps no columns for some nonterminals:
# chain Datalog's same-generation program, whose CNF is SG -> Up X | flat,
# X -> SG Down; its transitive closure, Desc -> Child Desc | child; a head S
# whose columns are only read to dedupe its own joins (S -> B C with B and C
# not leaves, S only ever a right child); and S -> S S.
SAME_GENERATION = (
    "SG(x, y) :- Flat(x, y).\n"
    "SG(x, y) :- Up(x, z1), SG(z1, z2), Down(z2, y).\n"
    "?- SG\n"
)
DEDUPE_ONLY = "R -> A S | b\nS -> B C\nB -> B A | a\nC -> A C | b\nA -> a | b\n"


def up_down_chain(rng, levels, extra_flat):
    """An `up` chain u0..u(levels), a `down` chain back to d0, `flat` from
    the top of one to the top of the other and `extra_flat` random `flat`
    edges from the up chain to the down chain."""
    edges = [("u%d" % i, "up", "u%d" % (i + 1)) for i in range(levels)]
    edges += [("d%d" % (i + 1), "down", "d%d" % i) for i in range(levels)]
    edges.append(("u%d" % levels, "flat", "d%d" % levels))
    edges += [
        ("u%d" % rng.randrange(levels), "flat", "d%d" % rng.randrange(levels))
        for _ in range(extra_flat)
    ]
    return edges


def child_tree(rng, n):
    """A random recursive tree of n nodes with `child` edges."""
    return [(rng.randrange(v), "child", v) for v in range(1, n)]


def test_realized_rows_on_the_shapes_whose_columns_are_not_kept(rng):
    sg = parse_chain_program(SAME_GENERATION).cnf
    assert set(sg.rule_index[1]) == {"SG", "X"}
    for levels in (1, 2, 3, 10, 50, 300):
        for extra_flat in (0, 2, 10):
            edges = up_down_chain(rng, levels, extra_flat)
            assert assert_rows_match_the_popping_loop(sg, edges, rng) >= 3 * levels
    desc = parse_chain_program(EXAMPLE_PROGRAM).cnf
    for n in (1, 2, 5, 30, 200):
        for _ in range(3):
            triples = assert_rows_match_the_popping_loop(desc, child_tree(rng, n), rng)
            assert triples >= 2 * (n - 1)
    dedupe_only = to_cnf(parse_grammar(DEDUPE_ONLY))
    # S is a child only on the right: its partner A is the left child
    assert dedupe_only.rule_index[2]["S"] == [("R", "A", False)]
    triples = 0
    for g in (dedupe_only, to_cnf(parse_grammar("S -> S S | a | b\n"))):
        for _ in range(60):
            n = rng.randint(1, 7)
            graph = random_graph(rng, n, ["a", "b"], rng.randint(1, 2 * n * n))
            triples += assert_rows_match_the_popping_loop(g, graph.edges, rng)
        word = [(p, rng.choice("ab"), p + 1) for p in range(30)]
        triples += assert_rows_match_the_popping_loop(g, word, rng)
    assert triples > 3_000


def settled_lengths(closure):
    """The settled triples of a closure, read from its rows, with their lengths."""
    return {
        (head, i, j): d
        for head, rows in closure.by_source.items()
        for i, row in rows.items()
        for j, d in row
    }


def test_a_stopped_closure_settles_what_its_answer_reads(rng):
    below = above = empty = tied = 0
    for _ in range(400):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        nfa = random_nfa(rng, rng.randint(1, 5), sorted(g.terminals), rng.choice([0.3, 0.5]))
        floor = rng.randint(0, 5)
        full = ProductClosure(g, nfa.transitions)
        stopped = ProductClosure(g, nfa.transitions, stop=(nfa.initial, nfa.accepting, floor))
        answer = stopped.least_start(nfa.initial, nfa.accepting, floor)
        assert answer == full.least_start(nfa.initial, nfa.accepting, floor)
        # both resolved the same steps, so the witness is the same
        assert stopped.steps == full.steps
        starts = [d for d, _i, _j in full.start_rows(nfa.initial, nfa.accepting)]
        if not starts:
            empty += 1
            assert list(stopped.lengths.items()) == list(full.lengths.items())
            continue
        shortest = min(starts)
        assert (answer is None) == (shortest < floor)
        settled = settled_lengths(stopped)
        assert set(settled.items()) <= set(full.lengths.items())
        if shortest < floor:
            # stopped at the first start triple, within its bucket
            below += 1
            assert all(d <= shortest for d in settled.values())
            assert {t: d for t, d in full.lengths.items() if d < shortest}.items() <= settled.items()
        else:
            above += 1
            assert settled == {t: d for t, d in full.lengths.items() if d <= shortest}
            assert all(d > shortest for t, d in stopped.lengths.items() if t not in settled)
            tied += starts.count(shortest) > 1
    assert below >= 100 and above >= 80 and empty >= 100 and tied >= 30


def test_one_pass_resolution_matches_the_two_pass_oracle(rng):
    # Every settled triple of each closure, read in a random order, has the
    # steps, code and path of the two-pass resolver, read shortest first on
    # a twin closure.  Random grammars over random graphs and NFAs, then
    # stopped closures over two-cycle automata, half of them with a grammar
    # whose words a^m b^m have many derivations; ``tied`` counts the
    # closures with a triple of two or more splits.
    ambiguous = to_cnf(parse_grammar("S -> a S b | a a S b b | a b | A S\nA -> a A | a\n"))
    tied = stopped = 0
    for trial in range(750):
        stop = None
        if trial % 3 == 2:
            g = ambiguous if trial % 2 else random_cnf_grammar(
                rng, max_nonterminals=4, max_terminals=2, epsilon_weight=0.05)
            nfa = two_cycle_family(rng.randint(1, 7), rng.randint(1, 7))
            transitions = nfa.transitions
            stop = (nfa.initial, nfa.accepting, rng.randint(0, 16))
            stopped += 1
        else:
            g = random_cnf_grammar(rng, max_nonterminals=4, max_terminals=3, epsilon_weight=0.1)
            letters = sorted(g.terminals)
            if trial % 3:
                transitions = random_nfa(rng, rng.randint(2, 6), letters, 0.5).transitions
            else:
                n = rng.randint(2, 10)
                transitions = random_graph(rng, n, letters, rng.randint(n, 3 * n)).edges
        closure = ProductClosure(g, transitions, stop=stop)
        oracle = ProductClosure(g, transitions, stop=stop)
        oracle._resolve_below = functools.partial(resolve_below_two_pass, oracle)
        lengths = settled_lengths(closure)
        expected = {
            t: (oracle.code(t), oracle.path_and_word(t))
            for t in sorted(lengths, key=lengths.__getitem__)
        }
        triples = list(lengths)
        rng.shuffle(triples)
        for n, t in enumerate(triples):
            # the path first on every other triple, the code first on the rest
            if n % 2:
                path = closure.path_and_word(t)
                code = closure.code(t)
            else:
                code = closure.code(t)
                path = closure.path_and_word(t)
            assert (code, path) == expected[t]
        assert closure.steps == oracle.steps
        if stop is not None:
            assert closure.least_start(*stop) == oracle.least_start(*stop)
        tied += any(len(closure.splits(t)) > 1 for t in triples)
    assert tied >= 300 and stopped >= 150


def test_splits_probe_only_split_nodes_where_the_right_child_has_a_row():
    # Dyck two-cycle closures, full and stopped as the sweeps stop them:
    # ``splits`` finds the splits of the node scan on every settled triple.
    # Over the witnesses' triples, a rule whose right child has words of
    # several lengths probes ``lengths`` only at the split nodes k where
    # that child has a row, not at every left part (B, i, k) it walks.
    dyck = to_cnf(parse_grammar("S -> S S | a S b | a b\n"))
    fixed = dyck.fixed_lengths
    walked = probed = 0
    probes = []

    class CountingLengths(dict):
        def get(self, key, default=None):
            probes.append(key)
            return dict.get(self, key, default)

    for p, q in ((3, 4), (5, 7), (7, 9), (11, 13)):
        nfa = two_cycle_family(p, q)
        for stop in (None, (nfa.initial, nfa.accepting, 0)):
            closure = ProductClosure(dyck, nfa.transitions, stop=stop)
            closure.least_start(nfa.initial, nfa.accepting)
            settled = settled_lengths(closure)
            for t in settled:
                assert sorted(closure.splits(t)) == splits_by_node_scan(
                    dyck, settled, nfa.states, t
                )
            closure.lengths = CountingLengths(closure.lengths)
            for (head, i, j), d in settled.items():
                if (head, i, j) not in closure.steps or d == 1:
                    continue
                del probes[:]
                closure.splits((head, i, j))
                expected = []
                for _pid, b, c in closure._pair_rules.get(head, ()):
                    if c in fixed:  # walks the right parts into j instead
                        if fixed.get(b, d - fixed[c]) == d - fixed[c]:
                            row = closure._fixed_by_target[c][1].get(j, ())
                            expected += [(b, i, k) for k, _ell in row]
                        continue
                    parts = [k for k, dl in closure.by_source[b].get(i, ()) if dl < d]
                    right = [(c, k, j) for k in parts if k in closure.by_source[c]]
                    expected += right
                    walked += len(parts)
                    probed += len(right)
                assert probes == expected
    assert 0 < probed < walked // 2


def _anbn_chain_product(g, k):
    """The product of g with a path c0 -> ... -> c(2k) spelling a^k b^k."""
    edges = [("c%d" % i, "a" if i < k else "b", "c%d" % (i + 1)) for i in range(2 * k)]
    return bar_hillel(g, LabeledGraph.from_edges(edges))


def _subtrees_by_span(tree):
    """Each internal node of a tree by (label, start, end) of its yield."""
    sizes = {}
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if not node.children:
            sizes[id(node)] = 1
        elif expanded:
            sizes[id(node)] = sum(sizes[id(c)] for c in node.children)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    found = {}
    stack = [(tree, 0)]
    while stack:
        node, start = stack.pop()
        if node.children:
            found[(node.label, start, start + sizes[id(node)])] = node
            for child in node.children:
                stack.append((child, start))
                start += sizes[id(child)]
    return found


def test_witnesses_of_one_table_reuse_the_subtrees_it_built(anbn_cnf):
    # The outer witness (S, c0, c2k) of an a^k b^k chain holds every inner
    # (S, c(k-j), c(k+j)); extracted later from the same table, each inner
    # tree is that very subtree.  Extracted innermost first from a second
    # table, the trees are equal, and the outer one holds the inner ones.
    k = 150
    product = _anbn_chain_product(anbn_cnf, k)
    table = shortest_words(product)
    expected, _ = resolve_by_tuple_words(anbn_cnf, product.automaton.transitions, table.closure)
    triples = [("S", "c%d" % (k - j), "c%d" % (k + j)) for j in (k, 100, 37, 2, 1)]
    outer = extract_witness(product, table, triples[0]).tree
    spans = _subtrees_by_span(outer)
    for triple in triples:
        tree = extract_witness(product, table, triple).tree
        _head, i, j = triple
        assert tree is spans[("S", int(i[1:]), int(j[1:]))]
        assert tree == tree_by_steps(expected, triple)
    again = shortest_words(product)
    reversed_trees = {t: extract_witness(product, again, t).tree for t in reversed(triples)}
    spans = _subtrees_by_span(reversed_trees[triples[0]])
    for triple in triples:
        tree = reversed_trees[triple]
        _head, i, j = triple
        assert tree is spans[("S", int(i[1:]), int(j[1:]))]
        assert tree == extract_witness(product, table, triple).tree
        assert str(tree) == str(tree_by_steps(expected, triple))


def test_two_tables_over_one_product_build_independent_trees(anbn_cnf):
    product = _anbn_chain_product(anbn_cnf, 40)
    first, second = shortest_words(product), shortest_words(product)
    for triple in (("S", "c0", "c80"), ("S", "c30", "c50")):
        one = extract_witness(product, first, triple).tree
        other = extract_witness(product, second, triple).tree
        assert one == other and str(one) == str(other)
        assert {id(n) for n in one.iter_nodes()}.isdisjoint(id(n) for n in other.iter_nodes())


def test_a_table_builds_one_node_per_extracted_triple_and_one_leaf_per_terminal(rng):
    # Once every realizable triple is extracted, in a random order, the
    # table's memo holds one subtree per triple and one leaf per terminal
    # that the witnesses use, and the witness trees consist of those nodes
    # and no others.
    shared = 0
    for trial in range(200):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=3, epsilon_weight=0.1)
        letters = sorted(g.terminals)
        if trial % 2:
            automaton = random_nfa(rng, rng.randint(1, 4), letters)
        else:
            n = rng.randint(1, 8)
            automaton = random_graph(rng, n, letters, rng.randint(1, 3 * n))
        product = bar_hillel(g, automaton)
        table = shortest_words(product)
        expected, _ = resolve_by_tuple_words(g, product.automaton.transitions, table.closure)
        triples = list(expected)
        rng.shuffle(triples)
        nodes = set()
        for triple in triples:
            tree = extract_witness(product, table, triple).tree
            assert tree == tree_by_steps(expected, triple)
            before = len(nodes)
            nodes.update(id(n) for n in tree.iter_nodes())
            shared += len(nodes) - before < tree.node_count()
        memo = table._trees
        assert {key for key in memo if isinstance(key, tuple)} == set(expected)
        assert {key for key in memo if isinstance(key, str)} <= g.terminals
        assert len(memo) <= len(table.realizable()) + len(g.terminals)
        assert nodes == {id(node) for node in memo.values()}
    assert shared >= 100
