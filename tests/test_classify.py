import pytest

from ratindex.classify import (
    MalformedPartitionError,
    classify_grammar,
    expansive_nonterminals,
    is_linear,
    is_superlinear,
    superlinear_core,
    verify_ultralinear,
)
from ratindex.datalog import chain_to_cfg, parse_chain_program
from ratindex.grammar import parse_grammar, trim_useless
from ratindex.sampling import random_grammar

from conftest import EXAMPLE_PROGRAM
from generators import random_reduced_ultralinear_grammar, random_superlinear_grammar
from oracles import expansive_bruteforce, superlinear_exhaustive


SS_GRAMMAR = "S -> S S | a\n"


def descendant_grammar():
    return chain_to_cfg(parse_chain_program(EXAMPLE_PROGRAM))


# --- linearity ---------------------------------------------------------------


def test_is_linear_examples(anbn):
    assert is_linear(anbn)
    assert not is_linear(parse_grammar(SS_GRAMMAR))


def test_is_linear_descendant_grammar():
    # Child only rewrites to the edge terminal, so `Child Desc` bodies count
    # a single effective nonterminal
    assert is_linear(descendant_grammar())


def test_is_linear_counts_real_nonterminal_pairs():
    g = parse_grammar("S -> A S | a\nA -> a A | a\n")
    assert not is_linear(g)


# --- superlinearity ----------------------------------------------------------


def test_superlinear_on_core_shaped_grammar():
    g = parse_grammar("L -> a L | L b | a\n")
    assert is_superlinear(g)
    assert superlinear_core(g) == {"L"}


def test_superlinear_with_core_feeding_pairs():
    g = parse_grammar("S -> A S | A B | a\nA -> a A | a\nB -> b\n")
    # A is linear-only; S uses A as the left factor of its pair rules
    assert is_superlinear(g)
    core = superlinear_core(g)
    assert "A" in core


def test_superlinear_rejects_self_pairing():
    assert not is_superlinear(parse_grammar(SS_GRAMMAR))


def test_superlinear_descendant_grammar():
    assert is_superlinear(descendant_grammar())


def test_superlinear_agrees_with_exhaustive_search(rng):
    for _ in range(150):
        g = random_grammar(rng, max_nonterminals=4, max_terminals=2)
        assert is_superlinear(g) == superlinear_exhaustive(g), g


def test_superlinear_agrees_on_wider_grammars(rng):
    for _ in range(40):
        g = random_grammar(rng, max_nonterminals=6, max_terminals=2)
        assert is_superlinear(g) == superlinear_exhaustive(g), g


# --- ultralinear decompositions ----------------------------------------------


def test_ultralinear_single_level(anbn):
    ultra, reduced = verify_ultralinear(anbn, [{"S"}])
    assert ultra
    assert not reduced  # the start recurs on a right-hand side


def test_reduced_form_example():
    g = parse_grammar("S -> A B\nA -> a | a A\nB -> b\n")
    ultra, reduced = verify_ultralinear(g, [{"A", "B"}, {"S"}])
    assert ultra and reduced


def test_partition_with_start_below_top_fails():
    g = parse_grammar("S -> A B\nA -> a | a A\nB -> b\n")
    ultra, reduced = verify_ultralinear(g, [{"S"}, {"A", "B"}])
    assert not ultra and not reduced


def test_ultralinear_rejects_same_level_pairs():
    g = parse_grammar("S -> A B\nA -> a\nB -> b\n")
    ultra, _ = verify_ultralinear(g, [{"S", "A", "B"}])
    assert not ultra


def test_malformed_partitions(anbn):
    with pytest.raises(MalformedPartitionError):
        verify_ultralinear(anbn, [{"S"}, {"S"}])
    with pytest.raises(MalformedPartitionError):
        verify_ultralinear(anbn, [{"Q"}])
    with pytest.raises(MalformedPartitionError):
        verify_ultralinear(anbn, [set()])


@pytest.mark.parametrize(
    "partition",
    [[set(), {"S"}], [{"S"}, set()], [{"S"}, set(), set()]],
    ids=["/S", "S/", "S//"],
)
def test_an_empty_partition_level_is_malformed(anbn, partition):
    # an empty level would count towards k, and the bound is n^(2k)
    level = partition.index(set())
    with pytest.raises(MalformedPartitionError, match="partition level %d is empty" % level):
        verify_ultralinear(anbn, partition)


def test_a_partition_missing_nonterminals_reports_them_before_empty_levels(anbn):
    with pytest.raises(MalformedPartitionError, match=r"misses nonterminals: \['S'\]"):
        verify_ultralinear(anbn, [set(), set()])


def test_reduced_implies_ultralinear_on_random_decompositions(rng):
    for _ in range(40):
        g, partition = random_reduced_ultralinear_grammar(rng, rng.randint(1, 4))
        ultra, reduced = verify_ultralinear(g, partition)
        assert reduced
        assert ultra


# --- expansiveness -----------------------------------------------------------


def test_expansive_direct():
    assert expansive_nonterminals(parse_grammar(SS_GRAMMAR)) == {"S"}


def test_expansive_linear_grammar_is_not(anbn):
    assert expansive_nonterminals(anbn) == frozenset()


def test_expansive_through_two_branches():
    g = parse_grammar("S -> A B\nA -> a S | a\nB -> b S | b\n")
    assert "S" in expansive_nonterminals(g)


def test_expansive_agrees_with_sentential_search(rng):
    for _ in range(60):
        g = trim_useless(random_grammar(rng, max_nonterminals=3, max_terminals=2))
        found = expansive_nonterminals(g)
        for nt in sorted(g.nonterminals):
            assert (nt in found) == expansive_bruteforce(g, nt), (g, nt)


# --- aggregate report ---------------------------------------------------------


def test_classify_report_descendant_grammar():
    report = classify_grammar(descendant_grammar(), samples=100, seed=3)
    assert report.is_linear
    assert report.is_superlinear
    assert report.ultralinear is None
    assert report.expansive == frozenset()
    assert report.max_observed_dimension <= 1
    assert report.sampled_trees > 0


def test_classify_report_with_partition():
    g = parse_grammar("S -> A B\nA -> a | a A\nB -> b\n")
    report = classify_grammar(g, partition=[{"A", "B"}, {"S"}], samples=50)
    assert report.ultralinear and report.reduced_form
    assert report.levels == 1


def test_superlinear_samples_stay_flat(rng):
    # grammars passing the superlinear shape keep sampled dimension <= 2
    for _ in range(20):
        g = random_superlinear_grammar(rng)
        assert is_superlinear(g)
        report = classify_grammar(g, samples=60, seed=7)
        assert report.max_observed_dimension <= 2


def test_nonexpansive_dimension_does_not_grow_with_depth(rng):
    from ratindex.sampling import random_parse_tree
    from ratindex.trees import dimension

    def max_dim(g, depth):
        dims = [0]
        for _ in range(200):
            tree = random_parse_tree(g, rng, max_depth=depth)
            if tree is not None:
                dims.append(dimension(tree))
        return max(dims)

    found = 0
    while found < 10:
        g = trim_useless(random_grammar(rng, max_nonterminals=4, max_terminals=2))
        if expansive_nonterminals(g):
            continue
        found += 1
        assert max_dim(g, 20) <= max_dim(g, 10) + 1
    # contrast: the expansive doubling grammar exceeds every nonexpansive
    # maximum seen above once trees get room to branch
    ss = parse_grammar(SS_GRAMMAR)
    assert max_dim(ss, 16) >= 3
