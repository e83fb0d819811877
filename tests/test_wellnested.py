import math
import random
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratindex.sampling import random_cnf_grammar, random_parse_tree
from ratindex.trees import ParseTree, dimension
from ratindex.wellnested import (
    POP,
    PUSH,
    CapExceededError,
    UnbalancedWordError,
    WellNestedWord,
    all_wellnested_words,
    alpha_of_tree,
    harmonic,
    matching_pairs,
    oscillation,
    oscillation_bruteforce,
)

from oracles import oscillation_by_forest

W = WellNestedWord.from_text

EXAMPLE_WORD = W("āāāaaāaa")  # push push push pop pop push pop pop


def leaf(label="x"):
    return ParseTree(label)


# --- dimension -------------------------------------------------------------


def test_dimension_of_reference_tree():
    # A nine-node tree whose root has two subtrees of dimension 1 on each
    # side, so the tie pushes the root to 2.
    tree = ParseTree(
        "r",
        (
            ParseTree(
                "l",
                (
                    ParseTree("ll", (leaf(), leaf())),
                    ParseTree("lr", (leaf(),)),
                ),
            ),
            ParseTree("r2", (leaf(), leaf())),
        ),
    )
    assert dimension(tree) == 2


def test_dimension_perfect_binary_tree():
    def perfect(h):
        if h == 0:
            return leaf()
        child = perfect(h - 1)
        return ParseTree("n", (child, child))

    for h in range(6):
        assert dimension(perfect(h)) == h


def test_dimension_unary_chain():
    tree = leaf()
    for _ in range(10):
        tree = ParseTree("n", (tree,))
        assert dimension(tree) == 0


def test_dimension_log_leaf_bound(rng):
    for _ in range(10):
        g = random_cnf_grammar(rng)
        for _ in range(50):
            tree = random_parse_tree(g, rng)
            if tree is None:
                continue
            leaves = max(1, len(tree.yield_word()))
            assert dimension(tree) <= int(math.log2(leaves))


# --- alpha encoding ---------------------------------------------------------


def test_alpha_single_leaf():
    assert alpha_of_tree(leaf()).moves == "()"


def test_alpha_root_with_two_leaves():
    # hand-execution of the clauses: push, then root's pop and two pushes,
    # then each leaf's pop
    tree = ParseTree("n", (leaf(), leaf()))
    word = alpha_of_tree(tree)
    assert str(word) == "āaāāaa"
    assert word.is_balanced()
    assert len(word) == 2 * tree.node_count() == 6


def test_alpha_balanced_on_random_trees(rng):
    for _ in range(10):
        g = random_cnf_grammar(rng)
        for _ in range(30):
            tree = random_parse_tree(g, rng)
            if tree is None:
                continue
            word = alpha_of_tree(tree)
            assert word.is_balanced()
            assert len(word) == 2 * tree.node_count()


# --- matching pairs ---------------------------------------------------------


def test_matching_pairs_worked_example():
    assert matching_pairs(EXAMPLE_WORD) == ((1, 8), (2, 5), (3, 4), (6, 7))


def test_matching_pairs_trivial():
    assert matching_pairs(W("āa")) == ((1, 2),)


def test_matching_pairs_unbalanced():
    with pytest.raises(UnbalancedWordError):
        matching_pairs(W("āaa"))
    with pytest.raises(UnbalancedWordError):
        matching_pairs(W("āāa"))


def test_matching_pairs_noncrossing(rng):
    for word in all_wellnested_words(12):
        pairs = matching_pairs(word)
        positions = [p for ij in pairs for p in ij]
        assert sorted(positions) == list(range(1, len(word) + 1))
        for (i, j), (k, l) in zip(pairs, pairs[1:]):
            assert i < k
            assert l < j or j < k


# --- harmonics ---------------------------------------------------------------


def test_harmonic_small_orders():
    assert harmonic(0).moves == ""
    assert str(harmonic(1)) == "āaāa"
    h2 = harmonic(2)
    assert str(h2) == "āāaāaaāāaāaa"
    assert len(h2) == 12


def test_harmonic_lengths():
    for k in range(1, 10):
        assert len(harmonic(k)) == 2 ** (k + 2) - 4


def test_harmonic_cap():
    with pytest.raises(CapExceededError):
        harmonic(25)
    assert len(harmonic(15, cap=15)) == 2**17 - 4


def test_harmonic_contains_previous_order_as_remainder():
    # removing some matching pairs of h_k leaves exactly h_{k-1}
    for k in range(1, 4):
        word = harmonic(k)
        pairs = matching_pairs(word)
        target = harmonic(k - 1).moves
        found = False
        for mask in range(1 << len(pairs)):
            kept = []
            for bit in range(len(pairs)):
                if mask & (1 << bit):
                    kept.extend(pairs[bit])
            kept.sort()
            if "".join(word.moves[p - 1] for p in kept) == target:
                found = True
                break
        assert found


# --- oscillation -------------------------------------------------------------


def test_oscillation_worked_example():
    assert oscillation(EXAMPLE_WORD) == 1
    assert oscillation_bruteforce(EXAMPLE_WORD) == 1


def test_oscillation_of_harmonics():
    for k in range(4):
        assert oscillation(harmonic(k)) == k
    for k in range(3):
        assert oscillation_bruteforce(harmonic(k)) == k


def test_oscillation_single_spine():
    for m in range(1, 9):
        word = W("ā" * m + "a" * m)
        assert oscillation(word) == 0
        if 2 * m <= 16:
            assert oscillation_bruteforce(word) == 0


def test_oscillation_bruteforce_examples():
    assert oscillation_bruteforce(W("āa")) == 0
    assert oscillation_bruteforce(W("āaāa")) == 1


def test_oscillation_bruteforce_cap():
    with pytest.raises(CapExceededError):
        oscillation_bruteforce(harmonic(3))  # 28 moves > 20
    assert oscillation_bruteforce(harmonic(3), cap=28) == 3


def test_oscillation_unbalanced():
    with pytest.raises(UnbalancedWordError):
        oscillation(W("āaa"))


def _forest_to_moves(forest) -> str:
    return "".join("(" + _forest_to_moves(child) + ")" for child in forest)


@st.composite
def wellnested_words(draw):
    forest = draw(
        st.recursive(
            st.just(()),
            lambda inner: st.lists(inner, max_size=4).map(tuple),
            max_leaves=9,
        )
    )
    if not isinstance(forest, tuple):
        forest = (forest,)
    return WellNestedWord(_forest_to_moves(forest))


@settings(max_examples=300, deadline=None)
@given(wellnested_words())
def test_oscillation_matches_bruteforce(word):
    if len(word) <= 20:
        assert oscillation(word) == oscillation_bruteforce(word)


def test_wellnested_enumeration_counts():
    # Catalan numbers: 1, 1, 2, 5, 14, 42, 132, 429, 1430
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for pairs, expected in enumerate(catalan):
        assert sum(1 for _ in all_wellnested_words(2 * pairs)) == expected


def test_word_text_roundtrip():
    word = W("āāaa")
    assert WellNestedWord.from_text(str(word)) == word
    assert WellNestedWord.from_text("(())") == word


def test_wellnested_enumeration_order():
    for n in range(0, 17, 2):
        balanced = [
            "".join(moves)
            for moves in product("()", repeat=n)
            if WellNestedWord("".join(moves)).is_balanced()
        ]
        assert [w.moves for w in all_wellnested_words(n)] == sorted(balanced)


def test_wellnested_enumeration_at_4000_moves():
    # The enumeration used to recurse once per move.
    first = list(islice(all_wellnested_words(4000), 3))
    assert first[0].moves == "(" * 2000 + ")" * 2000
    assert first[1].moves == "(" * 1999 + ")(" + ")" * 1999
    assert first[2].moves == "(" * 1999 + "))(" + ")" * 1998


@pytest.mark.parametrize("text, message", [
    ("āaa", "pop at position 3 has no matching push"),
    ("āāa", "push at position 1 has no matching pop"),
    ("a", "pop at position 1 has no matching push"),
    ("ā", "push at position 1 has no matching pop"),
])
def test_unbalanced_error_messages(text, message):
    for function in (matching_pairs, oscillation):
        with pytest.raises(UnbalancedWordError) as error:
            function(W(text))
        assert str(error.value) == message


def _random_balanced(rng, pairs):
    """A uniform random balanced word with the given number of pairs: shuffle
    the pushes with one pop too many, then rotate the lowest point to the end
    and drop that pop (the cycle lemma)."""
    seq = [PUSH] * pairs + [POP] * (pairs + 1)
    rng.shuffle(seq)
    depth = low = cut = 0
    for i, move in enumerate(seq):
        depth += 1 if move == PUSH else -1
        if depth < low:
            low, cut = depth, i + 1
    return WellNestedWord("".join(seq[cut:] + seq[: cut - 1]))


def test_oscillation_matches_forest_oracle_on_long_words():
    # 2 to 2,000 moves, log-uniform in the number of pairs: far beyond the
    # brute force, and every oscillation from 0 to 5 occurs.
    rng = random.Random(15)
    high = 0
    for _ in range(2000):
        word = _random_balanced(rng, round(1000 ** rng.random()))
        assert word.is_balanced()
        expected = oscillation_by_forest(word)
        assert oscillation(word) == expected
        high += expected >= 3
    assert high >= 600
