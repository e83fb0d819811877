"""Parse trees and the dimension (Strahler-style) tree measure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Label of a leaf standing for the empty word in a parse tree.
EPSILON = "ε"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class ParseTree:
    """An ordered tree of symbol labels.

    Internal nodes carry nonterminal labels and have at least one child;
    leaves carry terminal labels (or EPSILON for an empty-word leaf).
    Subtrees may be shared between parents; all operations treat the
    structure as a logical tree.  The tree builders of this package share
    one leaf per terminal.

    Instances are slotted and immutable.  A tuple of children is kept as
    given; any other iterable is copied into a tuple.
    """

    label: str
    children: tuple["ParseTree", ...] = ()

    def __init__(self, label: str, children: Iterable["ParseTree"] = ()) -> None:
        object.__setattr__(self, "label", label)
        if type(children) is not tuple:
            children = tuple(children)
        object.__setattr__(self, "children", children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_nodes(self) -> Iterator["ParseTree"]:
        """Pre-order traversal; shared subtrees are visited once per occurrence."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path (0 for a leaf)."""
        best = 0
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            if node.children:
                stack.extend((child, depth + 1) for child in node.children)
            else:
                best = max(best, depth)
        return best

    def yield_word(self) -> tuple[str, ...]:
        """Left-to-right terminal leaves; EPSILON leaves contribute nothing."""
        nodes = self.iter_nodes()
        return tuple(n.label for n in nodes if not n.children and n.label != EPSILON)

    # Equality, hashing, printing and repr walk the tree with explicit
    # stacks, so that trees as tall as their words (CYK on a^n b^n) are
    # handled.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        # Equal trees print alike; printing is not injective, which a hash
        # may tolerate.
        return hash(str(self))

    def __str__(self) -> str:
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif item.is_leaf:
                out.append(item.label)
            else:
                out.append(item.label + "(")
                stack.append(")")
                for k, child in enumerate(reversed(item.children)):
                    if k:
                        stack.append(" ")
                    stack.append(child)
        return "".join(out)

    def __repr__(self) -> str:
        """The text of the dataclass repr, such as ``ParseTree(label='S',
        children=(ParseTree(label='a', children=()),))``."""
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append("%s(label=%r, children=(" % (type(item).__qualname__, item.label))
            children = item.children
            stack.append(",))" if len(children) == 1 else "))")
            for k, child in enumerate(reversed(children)):
                if k:
                    stack.append(", ")
                stack.append(child)
        return "".join(out)


def dimension(tree: ParseTree) -> int:
    """Height of the largest perfect binary tree embeddable by edge contraction.

    Leaves have dimension 0.  An internal node takes the maximum of its
    children's dimensions, plus one when that maximum is not attained by a
    unique child.
    """
    dims: dict[int, int] = {}
    stack: list[tuple[ParseTree, bool]] = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in dims:
            continue
        if not node.children:
            dims[id(node)] = 0
        elif expanded:
            child_dims = [dims[id(c)] for c in node.children]
            top = max(child_dims)
            dims[id(node)] = top if child_dims.count(top) == 1 else top + 1
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return dims[id(tree)]
