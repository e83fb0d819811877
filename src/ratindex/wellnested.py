"""Well-nested push/pop words: matching, harmonics, and oscillation."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import RatIndexError
from .trees import ParseTree

PUSH = "("
POP = ")"

#: Display characters: a push is written with a macron over the letter.
_PUSH_CHAR = "ā"  # ā
_POP_CHAR = "a"

DEFAULT_HARMONIC_CAP = 20
DEFAULT_BRUTE_CAP = 20


class UnbalancedWordError(RatIndexError):
    pass


class CapExceededError(RatIndexError):
    pass


@dataclass(frozen=True)
class WellNestedWord:
    """A sequence of push/pop moves, stored as a string over '(' and ')'.

    Balance is not enforced at construction; operations that need a balanced
    word raise UnbalancedWordError.
    """

    moves: str = ""

    def __post_init__(self) -> None:
        bad = set(self.moves) - {PUSH, POP}
        if bad:
            raise ValueError("moves must be over '(' and ')', got %r" % sorted(bad))

    @classmethod
    def from_text(cls, text: str) -> "WellNestedWord":
        """Accept either parenthesis notation or the a-with-macron notation."""
        moves = []
        for ch in text:
            if ch in (PUSH, _PUSH_CHAR):
                moves.append(PUSH)
            elif ch in (POP, _POP_CHAR):
                moves.append(POP)
            elif ch.isspace():
                continue
            else:
                raise ValueError("unknown move character %r" % ch)
        return cls("".join(moves))

    def is_balanced(self) -> bool:
        depth = 0
        for move in self.moves:
            depth += 1 if move == PUSH else -1
            if depth < 0:
                return False
        return depth == 0

    def __len__(self) -> int:
        return len(self.moves)

    def __str__(self) -> str:
        return "".join(_PUSH_CHAR if m == PUSH else _POP_CHAR for m in self.moves)


def _matches(word: WellNestedWord) -> Iterator[tuple[int, int]]:
    """Yield every matching pair (open, close), 1-based, in the order the
    pairs close.  Raises UnbalancedWordError on unbalanced input."""
    opens: list[int] = []
    for pos, move in enumerate(word.moves, start=1):
        if move == PUSH:
            opens.append(pos)
        elif opens:
            yield opens.pop(), pos
        else:
            raise UnbalancedWordError("pop at position %d has no matching push" % pos)
    if opens:
        raise UnbalancedWordError("push at position %d has no matching pop" % opens[-1])


def matching_pairs(word: WellNestedWord) -> tuple[tuple[int, int], ...]:
    """Match every push to its pop; positions are 1-based, pairs sorted by
    opening position.  Raises UnbalancedWordError on unbalanced input."""
    return tuple(sorted(_matches(word)))


def harmonic(order: int, cap: int = DEFAULT_HARMONIC_CAP) -> WellNestedWord:
    """The order-k harmonic: h_0 is empty and h_{k+1} = ( h_k ) ( h_k ).

    The length doubles per level (|h_k| = 2^(k+2) - 4 for k >= 1), so orders
    above ``cap`` are refused.
    """
    if order < 0:
        raise ValueError("harmonic order must be nonnegative")
    if order > cap:
        raise CapExceededError("harmonic order %d exceeds cap %d" % (order, cap))
    word = ""
    for _ in range(order):
        half = PUSH + word + POP
        word = half + half
    return WellNestedWord(word)


def alpha_of_tree(tree: ParseTree) -> WellNestedWord:
    """Encode a parse tree as a well-nested word.

    The root contributes a push; each node then contributes its own pop
    followed by one push per child, and the children's encodings follow in
    order.  The result is balanced with one push and one pop per node.
    """
    out = [PUSH]
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(POP)
        out.append(PUSH * len(node.children))
        stack.extend(reversed(node.children))
    return WellNestedWord("".join(out))


def oscillation(word: WellNestedWord) -> int:
    """Largest k such that deleting matching pairs leaves exactly harmonic(k).

    Computed in one pass over the pairs in closing order.  For a forest F,
    let c(v) be the answer for the pairs strictly inside v; then the answer
    for F is one more than the best min(c(u), c(v)) over incomparable nodes
    u, v of F (zero when no two nodes are incomparable): an embedded
    harmonic of order k+1 is two incomparable pairs each hiding an order-k
    harmonic.
    """
    # One entry (open, best c in the subtree, m) per closed pair whose
    # enclosing pair is still open, where m is the best min over incomparable
    # pairs strictly inside it (-1 if none), so c = m + 1.  A closing pair
    # pops its children; the virtual pair at position 0 closes the roots.
    stack: list[tuple[int, int, int]] = []
    for open_pos, _ in chain(_matches(word), [(0, 0)]):
        m = top = second = -1
        while stack and stack[-1][0] > open_pos:
            _, best, m_child = stack.pop()
            m = max(m, m_child)
            if best > top:
                top, second = best, top
            elif best > second:
                second = best
        m = max(m, second)
        stack.append((open_pos, max(m + 1, top), m))
    return m + 1


def oscillation_bruteforce(word: WellNestedWord, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Reference oscillation: try every subset of matching pairs to remove
    and look for an exact harmonic among the remainders.  Exponential in the
    number of pairs, hence the move cap."""
    if len(word) > cap:
        raise CapExceededError(
            "word has %d moves, brute-force cap is %d" % (len(word), cap)
        )
    pairs = matching_pairs(word)
    harmonics_by_length: dict[int, str] = {}
    k = 0
    while True:
        h = harmonic(k)
        if len(h) > len(word):
            break
        harmonics_by_length[len(h)] = h.moves
        k += 1
    best = 0
    n = len(pairs)
    for mask in range(1 << n):
        kept_positions = []
        for bit in range(n):
            if mask & (1 << bit):
                kept_positions.extend(pairs[bit])
        kept_positions.sort()
        remainder = "".join(word.moves[pos - 1] for pos in kept_positions)
        target = harmonics_by_length.get(len(remainder))
        if target is not None and remainder == target:
            order = 0 if not remainder else _harmonic_order_of_length(len(remainder))
            best = max(best, order)
    return best


def _harmonic_order_of_length(length: int) -> int:
    order = 1
    while (1 << (order + 2)) - 4 != length:
        order += 1
    return order


def all_wellnested_words(num_moves: int) -> Iterator[WellNestedWord]:
    """All balanced words with exactly the given number of moves, in
    lexicographic order with a push before a pop."""
    if num_moves % 2:
        return
    # Depth-first over prefixes: the push child sits on top of the pop child.
    stack = [("", 0)]
    while stack:
        prefix, open_count = stack.pop()
        remaining = num_moves - len(prefix)
        if remaining == 0:
            yield WellNestedWord(prefix)
            continue
        if open_count > 0:
            stack.append((prefix + POP, open_count - 1))
        if open_count + 2 <= remaining:
            stack.append((prefix + PUSH, open_count + 1))
