"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import math
import random

from ratindex.classify import (
    expansive_nonterminals,
    is_linear,
    is_superlinear,
)
from ratindex.datalog import chain_to_cfg, evaluate, parse_chain_program
from ratindex.grammar import cyk_membership, parse_grammar, to_cnf
from ratindex.graphs import LabeledGraph
from ratindex.intersection import (
    bar_hillel,
    extract_witness,
    height_bound_check,
    realizable_start_pairs,
    shortest_start,
    shortest_words,
)
from ratindex.measure import TwoCycle, fit_growth, measure_rho
from ratindex.reachability import all_pairs_reach
from ratindex.sampling import (
    random_cnf_grammar,
    random_grammar,
    random_nfa,
    random_parse_tree,
)
from ratindex.trees import ParseTree, dimension
from ratindex.wellnested import (
    WellNestedWord,
    all_wellnested_words,
    alpha_of_tree,
    matching_pairs,
    oscillation,
    oscillation_bruteforce,
)

from conftest import EXAMPLE_PROGRAM
from generators import random_graph, random_reduced_ultralinear_grammar, random_superlinear_grammar
from oracles import naive_datalog_fixpoint, shortest_intersection_bfs, superlinear_exhaustive, walks_up_to


def report(number: int, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %02d %s - %s" % (number, "PASS" if ok else "FAIL", detail))


def test_criterion_01_oscillation_equals_bruteforce():
    words = 0
    mismatches = 0
    for length in range(0, 17, 2):
        for word in all_wellnested_words(length):
            words += 1
            if oscillation(word) != oscillation_bruteforce(word, cap=16):
                mismatches += 1
    ok = mismatches == 0 and words == 2056
    report(1, ok, "oscillation == brute force on all %d words <= 16 moves" % words)
    assert mismatches == 0
    assert words == 2056  # sum of Catalan numbers C_0..C_8


def test_criterion_02_worked_example_values():
    word = WellNestedWord.from_text("āāāaaāaa")
    pairs = matching_pairs(word)
    osc = oscillation(word)
    leaf = ParseTree("x")
    tree = ParseTree(
        "r",
        (
            ParseTree(
                "l",
                (
                    ParseTree("ll", (leaf, leaf)),
                    ParseTree("lr", (leaf,)),
                ),
            ),
            ParseTree("r2", (leaf, leaf)),
        ),
    )
    dim = dimension(tree)
    ok = pairs == ((1, 8), (2, 5), (3, 4), (6, 7)) and osc == 1 and dim == 2
    report(2, ok, "worked example: pairs %s, osc %d, reference tree dim %d" % (
        pairs == ((1, 8), (2, 5), (3, 4), (6, 7)), osc, dim))
    assert pairs == ((1, 8), (2, 5), (3, 4), (6, 7))
    assert osc == 1
    assert dim == 2


def test_criterion_03_dimension_oscillation_sandwich():
    rng = random.Random(1003)
    grammars = 0
    trees = 0
    violations = 0
    while grammars < 24 or trees < 10_000:
        g = random_cnf_grammar(rng, max_nonterminals=4, max_terminals=2)
        grammars += 1
        for _ in range(500):
            tree = random_parse_tree(g, rng, max_depth=12)
            if tree is None:
                continue
            trees += 1
            osc = oscillation(alpha_of_tree(tree))
            dim = dimension(tree)
            if not (osc - 1 <= dim <= 2 * osc):
                violations += 1
    ok = violations == 0
    report(3, ok, "sandwich osc-1 <= dim <= 2*osc on %d trees from %d grammars, %d violations"
           % (trees, grammars, violations))
    assert trees >= 10_000 and grammars >= 20
    assert violations == 0


def _small_instances(rng, count):
    made = 0
    while made < count:
        g = random_cnf_grammar(rng, max_nonterminals=2, max_terminals=2, max_body=2)
        if len(g.nonterminals) > 4:
            continue
        nfa = random_nfa(rng, rng.randint(1, 4), sorted(g.terminals), density=0.35)
        made += 1
        yield g, nfa


def test_criterion_04_shortest_word_optimality():
    rng = random.Random(1004)
    instances = 0
    mismatches = 0
    for g, nfa in _small_instances(rng, 200):
        product = bar_hillel(g, nfa)
        best = shortest_start(product, shortest_words(product))
        oracle = shortest_intersection_bfs(g, nfa, cap=12)
        instances += 1
        if best is None or best[0] > 12:
            if oracle is not None:
                mismatches += 1
        elif oracle is None or best[0] != oracle[0]:
            mismatches += 1
    ok = mismatches == 0
    report(4, ok, "shortest lengths match BFS enumeration on %d instances, %d mismatches"
           % (instances, mismatches))
    assert instances >= 200
    assert mismatches == 0


def test_criterion_05_height_bound():
    rng = random.Random(1005)
    instances = 0
    violations = 0
    while instances < 200:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        graph = random_graph(rng, rng.randint(2, 5), sorted(g.terminals), rng.randint(2, 8))
        product = bar_hillel(g, graph)
        table = shortest_words(product)
        if not table.entries:
            continue
        instances += 1
        for triple in sorted(table.realizable()):
            witness = extract_witness(product, table, triple)
            if not height_bound_check(g, graph, witness.tree).within_bound:
                violations += 1
    ok = violations == 0
    report(5, ok, "witness tree height <= |N|*n^2 on %d instances, %d violations"
           % (instances, violations))
    assert instances >= 200
    assert violations == 0


def test_criterion_06_quadratic_family():
    anbn = to_cnf(parse_grammar("S -> a S b | a b\n"))
    pairs = [(2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7)]
    points = []
    exact = True
    for p, q in pairs:
        estimate = measure_rho(anbn, p + q, TwoCycle(p, q))
        expected = 2 * (p * q // math.gcd(p, q))
        if estimate.value != expected:
            exact = False
        points.append((p + q, estimate.value))
    slope = fit_growth(points)
    ok = exact and 1.7 <= slope <= 2.3
    report(6, ok, "two-cycle lengths exact (%s), log-log slope %.3f in [1.7, 2.3]"
           % (exact, slope))
    assert exact
    assert 1.7 <= slope <= 2.3


def test_criterion_07_reachability_equivalence():
    rng = random.Random(1007)
    instances = 0
    equivalence_failures = 0
    oracle_failures = 0
    while instances < 100:
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        n_nodes = rng.randint(2, 4)
        graph = random_graph(rng, n_nodes, sorted(g.terminals), rng.randint(1, 6))
        instances += 1
        relation = all_pairs_reach(g, graph)
        product = bar_hillel(g, graph)
        table = shortest_words(product)
        if relation.start_pairs() != realizable_start_pairs(product, table):
            equivalence_failures += 1
        # naive walk oracle on the <= 4 node instances, short-witness facts
        oracle = set()
        if g.epsilon_at_start:
            oracle.update((n, n) for n in graph.nodes)
        for src, dst, word in walks_up_to(graph, 6):
            if cyk_membership(g, word):
                oracle.add((src, dst))
        short_facts = {
            (i, j)
            for i, j in relation.start_pairs()
            if (g.epsilon_at_start and i == j)
            or (
                (g.start, i, j) in table.entries
                and table.entries[(g.start, i, j)].length <= 6
            )
        }
        if short_facts != oracle:
            oracle_failures += 1
    ok = equivalence_failures == 0 and oracle_failures == 0
    report(7, ok, "reachability == realizable triples on %d instances; walk oracle agrees"
           % instances)
    assert equivalence_failures == 0
    assert oracle_failures == 0


def test_criterion_08_datalog_descendants_on_random_dags():
    rng = random.Random(1008)
    program = parse_chain_program(EXAMPLE_PROGRAM)
    disagreements = 0
    for _ in range(20):
        n = rng.randint(2, 7)
        nodes = [str(i) for i in range(1, n + 1)]
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.add((nodes[i], "child", nodes[j]))
        graph = LabeledGraph(frozenset(nodes), frozenset({"child"}), frozenset(edges))
        facts = evaluate(program, graph)
        if facts != naive_datalog_fixpoint(program, graph):
            disagreements += 1
        # descendant facts are precisely the transitive closure
        closure = set(e for e in ((s, t) for s, _, t in edges))
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        if facts != frozenset(closure):
            disagreements += 1
    ok = disagreements == 0
    report(8, ok, "descendant facts == transitive closure on 20 random DAGs")
    assert disagreements == 0


def test_criterion_09_classifier_sanity():
    example1 = chain_to_cfg(parse_chain_program(EXAMPLE_PROGRAM))
    example1_linear = is_linear(example1)
    ss = parse_grammar("S -> S S | a\n")
    ss_expansive = expansive_nonterminals(ss) == {"S"}
    ss_not_superlinear = not is_superlinear(ss)
    rng = random.Random(1009)
    agreement_failures = 0
    checked = 0
    for _ in range(200):
        g = random_grammar(rng, max_nonterminals=6, max_terminals=2)
        checked += 1
        if is_superlinear(g) != superlinear_exhaustive(g):
            agreement_failures += 1
    ok = example1_linear and ss_expansive and ss_not_superlinear and agreement_failures == 0
    report(9, ok, "example grammar linear; S->SS|a expansive/not superlinear; "
           "fixpoint == exhaustive on %d grammars" % checked)
    assert example1_linear
    assert ss_expansive
    assert ss_not_superlinear
    assert agreement_failures == 0


def test_criterion_10_dimension_caps():
    rng = random.Random(1010)
    superlinear_trees = 0
    superlinear_violations = 0
    while superlinear_trees < 1000:
        g = random_superlinear_grammar(rng)
        assert is_superlinear(g)
        for _ in range(100):
            tree = random_parse_tree(g, rng, max_depth=14)
            if tree is None:
                continue
            superlinear_trees += 1
            if dimension(tree) > 2:
                superlinear_violations += 1
    reduced_trees = 0
    reduced_violations = 0
    while reduced_trees < 1000:
        levels = rng.randint(1, 4)
        g, partition = random_reduced_ultralinear_grammar(rng, levels)
        for _ in range(100):
            tree = random_parse_tree(g, rng, max_depth=14)
            if tree is None:
                continue
            reduced_trees += 1
            # the cap is the number of partition classes: linear chains tie
            # at their bottom step, which can lift the top-index bound by one
            if dimension(tree) > len(partition):
                reduced_violations += 1
    ok = superlinear_violations == 0 and reduced_violations == 0
    report(10, ok, "dimension caps: %d superlinear trees <= 2 (%d bad), "
           "%d reduced-form trees <= level count (%d bad)"
           % (superlinear_trees, superlinear_violations, reduced_trees, reduced_violations))
    assert superlinear_trees >= 1000 and reduced_trees >= 1000
    assert superlinear_violations == 0
    assert reduced_violations == 0


def test_criterion_11_determinism_across_workers(tmp_path, capsys):
    from ratindex.cli import main

    grammar_path = tmp_path / "anbn.cfg"
    grammar_path.write_text("S -> a S b | a b\n")
    argv = [
        "measure-rho",
        "--grammar",
        str(grammar_path),
        "--strategy",
        "random",
        "--n-min",
        "2",
        "--n-max",
        "4",
        "--count",
        "10",
        "--seed",
        "2024",
    ]
    outputs = []
    for extra in ([], [], ["--workers", "3"]):
        code = main(argv + extra)
        assert code == 0
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[1] == outputs[2]
    report(11, ok, "measure-rho CSV byte-identical across repeats and 1 vs 3 workers")
    assert ok
