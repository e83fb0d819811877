import hashlib
import random

from ratindex.classify import is_superlinear, verify_ultralinear
from ratindex.grammar import cyk_membership, is_valid_parse_tree, parse_grammar, to_cnf
from ratindex.sampling import (
    min_heights,
    random_cnf_grammar,
    random_grammar,
    random_nfa,
    random_parse_tree,
)

from generators import random_reduced_ultralinear_grammar, random_superlinear_grammar
from oracles import derives, random_nfa_by_comprehension


def test_min_heights_simple(anbn):
    heights = min_heights(anbn)
    assert heights["a"] == 0
    assert heights["S"] == 1


def test_random_trees_are_valid_derivations(rng):
    for _ in range(10):
        g = random_grammar(rng)
        for _ in range(20):
            tree = random_parse_tree(g, rng)
            if tree is None:
                continue
            assert tree.label == g.start
            assert is_valid_parse_tree(g, tree, require_start=True)
            assert derives(g, tree.yield_word()) or len(tree.yield_word()) > 8


def test_random_cnf_trees_accepted_by_cyk(rng):
    for _ in range(10):
        g = random_cnf_grammar(rng)
        for _ in range(20):
            tree = random_parse_tree(g, rng)
            if tree is None:
                continue
            word = tree.yield_word()
            if len(word) <= 10:
                assert cyk_membership(g, word)


def test_random_trees_respect_depth_cap(rng):
    for _ in range(5):
        g = random_cnf_grammar(rng)
        for _ in range(20):
            tree = random_parse_tree(g, rng, max_depth=9)
            if tree is not None:
                assert tree.height() <= 9


def test_generators_are_seed_deterministic():
    a = random_grammar(random.Random(42))
    b = random_grammar(random.Random(42))
    assert a == b


def test_superlinear_generator_passes_check(rng):
    for _ in range(30):
        assert is_superlinear(random_superlinear_grammar(rng))


def test_reduced_generator_passes_check(rng):
    for _ in range(30):
        g, partition = random_reduced_ultralinear_grammar(rng, rng.randint(1, 4))
        ultra, reduced = verify_ultralinear(g, partition)
        assert ultra and reduced
        to_cnf(g)  # language is nonempty by construction


def test_random_nfa_draws_as_the_set_comprehension():
    alphabets = ["a", "ab", ("b", "a"), ["up", "down", "flat"], "cab"]
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        ref = random.Random(seed)
        for _ in range(60):
            size = rng.randint(1, 8)
            alphabet = rng.choice(alphabets)
            density = rng.choice([0, 0.05, 0.3, 0.5, 0.9, 1, rng.random()])
            ref.setstate(rng.getstate())
            drawn = random_nfa(rng, size, alphabet, density)
            assert drawn == random_nfa_by_comprehension(ref, size, alphabet, density)
            assert rng.getstate() == ref.getstate()
            checked += 1
    assert checked == 2400


def test_random_parse_trees_are_pinned():
    # The SHA-256 of seeded trees over fixed and random grammars, four depth
    # budgets each: the production a draw picks, and so every tree, stays put.
    texts = [
        "S -> a S b | a b\n",
        "S -> S S | a S b | a b\n",
        "S -> a S b S |\n",
        "S -> A B | c\nA -> a A | B |\nB -> b B b | S | a\n",
    ]
    rng = random.Random(31)
    grammars = [parse_grammar(text) for text in texts] + [
        random_grammar(rng, max_nonterminals=4, max_terminals=3, max_body=4, epsilon_weight=0.2)
        for _ in range(6)
    ]
    trees = []
    for k, g in enumerate(grammars):
        for depth in (1, 3, 6, 12):
            rng = random.Random(100 * k + depth)
            trees += [str(random_parse_tree(g, rng, max_depth=depth)) for _ in range(25)]
    assert hashlib.sha256("\n".join(trees).encode()).hexdigest() == (
        "862b6e8113d01f8c9b55776c61d206e763a64678f8dc42818e046bbb816a26a8"
    )
