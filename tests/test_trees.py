"""The ParseTree contract: one constructor, slotted immutable instances,
round trips through pickle and copy, and no observable difference
between a tree that shares leaves and its unshared copy."""

import copy
import dataclasses
import pickle

import pytest

from ratindex.grammar import cyk_parse, parse_grammar, to_cnf
from ratindex.intersection import bar_hillel, extract_witness, shortest_start, shortest_words
from ratindex.measure import two_cycle_family
from ratindex.sampling import random_grammar, random_parse_tree
from ratindex.trees import EPSILON, ParseTree, dimension
from ratindex.wellnested import alpha_of_tree, oscillation

from oracles import repr_by_dataclass


def unshared(tree):
    """A copy of ``tree`` with new nodes for every occurrence."""
    done = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if not node.children:
            done.append(ParseTree(node.label))
        elif not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
        else:
            children = done[len(done) - len(node.children):]
            del done[len(done) - len(node.children):]
            done.append(ParseTree(node.label, children))
    return done.pop()


def distinct_leaves(tree):
    return len({id(node) for node in tree.iter_nodes() if node.is_leaf})


def test_children_become_a_tuple_and_a_tuple_is_kept():
    leaf = ParseTree("a")
    assert leaf.children == () and leaf.is_leaf
    from_list = ParseTree("S", [leaf, leaf])
    assert type(from_list.children) is tuple and from_list.children == (leaf, leaf)
    assert ParseTree("S", iter([leaf])).children == (leaf,)
    children = (leaf, ParseTree(EPSILON))
    assert ParseTree("S", children).children is children
    assert ParseTree(label="S", children=children) == ParseTree("S", list(children))


def test_a_tree_is_frozen_and_slotted():
    tree = ParseTree("S", [ParseTree("a")])
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.label = "T"
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.children = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del tree.label
    assert not hasattr(tree, "__dict__")
    assert [f.name for f in dataclasses.fields(ParseTree)] == ["label", "children"]


def test_repr_is_the_dataclass_repr(rng):
    # seeded random parse trees: leaves, empty-word leaves, and nodes of one
    # to three children, some of them shared
    leaf = ParseTree("a")
    trees = [leaf, ParseTree("S", [leaf]), ParseTree("S", [ParseTree(EPSILON)]),
             ParseTree("S", [leaf, leaf]), ParseTree("S", [leaf, ParseTree("T", [leaf]), leaf])]
    while len(trees) < 200:
        tree = random_parse_tree(random_grammar(rng, max_body=3, epsilon_weight=0.2), rng, 6)
        if tree is not None:
            trees.append(tree)
    for tree in trees:
        assert repr(tree) == repr_by_dataclass(tree)
        assert eval(repr(tree), {"ParseTree": ParseTree}) == tree
    assert {len(node.children) for tree in trees for node in tree.iter_nodes()} == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy]
    + [
        lambda tree, protocol=protocol: pickle.loads(pickle.dumps(tree, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ],
)
def test_pickle_and_copy_round_trips_give_equal_trees(round_trip):
    leaf = ParseTree("a")
    tree = ParseTree("S", (ParseTree("A", (leaf,)), ParseTree("S", (leaf, ParseTree("b")))))
    twin = round_trip(tree)
    assert twin == tree and hash(twin) == hash(tree) and str(twin) == str(tree)
    assert type(twin.children) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        twin.label = "T"


def shared_leaf_trees():
    dyck = to_cnf(parse_grammar("S -> S S | a S b | a b\n"))
    yield cyk_parse(dyck, "aabbab" * 5 + "a" * 6 + "b" * 6)
    anbn = to_cnf(parse_grammar("S -> a S b | a b\n"))
    for p, q in ((2, 3), (5, 7)):
        product = bar_hillel(anbn, two_cycle_family(p, q))
        table = shortest_words(product)
        yield extract_witness(product, table, shortest_start(product, table)[2]).tree


@pytest.mark.parametrize("tree", list(shared_leaf_trees()), ids=["cyk", "witness-2-3", "witness-5-7"])
def test_a_tree_with_shared_leaves_agrees_with_its_unshared_copy(tree):
    copy_ = unshared(tree)
    assert distinct_leaves(tree) == 2
    assert distinct_leaves(copy_) == len(tree.yield_word())
    assert copy_ == tree and tree == copy_
    assert str(copy_) == str(tree) and hash(copy_) == hash(tree)
    assert copy_.height() == tree.height()
    assert copy_.node_count() == tree.node_count()
    assert copy_.yield_word() == tree.yield_word()
    assert dimension(copy_) == dimension(tree)
    assert oscillation(alpha_of_tree(copy_)) == oscillation(alpha_of_tree(tree))
