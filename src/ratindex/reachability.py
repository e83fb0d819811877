"""All-pairs CFL-reachability over edge-labeled graphs, with witness paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import RatIndexError
from .grammar import CNFGrammar
from .graphs import LabeledGraph
from .intersection import ProductClosure, realized_rows

Fact = tuple[str, str, str]  # (nonterminal, source, target)


class NotReachableError(RatIndexError):
    pass


@dataclass
class ReachabilityRelation:
    """The set of facts (A, i, j): some path i -> j spells a word derivable
    from A.  Keeps the product closure that settled them for witnesses."""

    grammar: CNFGrammar
    graph: LabeledGraph
    facts: frozenset[Fact]
    _product: ProductClosure = field(repr=False, compare=False)

    def start_pairs(self) -> frozenset[tuple[str, str]]:
        """The pairs (i, j) of the start-symbol facts, read from the
        closure's start rows, with the empty paths (i, i) when the grammar
        derives the empty word."""
        rows = self._product.by_source[self.grammar.start]
        pairs = {(i, j) for i, row in rows.items() for j, _d in row}
        if self.grammar.epsilon_at_start:
            pairs.update((i, i) for i in self.graph.nodes)
        return frozenset(pairs)


def all_pairs_reach(g: CNFGrammar, d: LabeledGraph) -> ReachabilityRelation:
    """The realizable triples of the product of the grammar with the graph's
    edges.  Empty-path facts (S, i, i) are included iff the grammar derives
    the empty word; the start symbol then occurs in no body, so they join
    with nothing and stay outside the closure.
    """
    product = ProductClosure(g, d.edges)
    facts = frozenset(product.lengths)
    if g.epsilon_at_start:
        facts = facts.union((g.start, node, node) for node in d.nodes)
    return ReachabilityRelation(g, d, facts, product)


def reach_pairs(g: CNFGrammar, d: LabeledGraph) -> frozenset[tuple[str, str]]:
    """The pairs (i, j) of ``all_pairs_reach(g, d).start_pairs()``, found
    by ``realized_rows`` without settling lengths: for callers that read no
    witness."""
    rows = realized_rows(g, d.edges)[g.start]
    pairs = {(i, j) for i, row in rows.items() for j in row}
    if g.epsilon_at_start:
        pairs.update((i, i) for i in d.nodes)
    return frozenset(pairs)


def witness_path(rel: ReachabilityRelation, source: str, target: str) -> tuple[str, ...]:
    """A path from source to target whose label word the grammar derives."""
    nodes, _ = witness(rel, source, target)
    return nodes


def witness(
    rel: ReachabilityRelation, source: str, target: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(node sequence, label word) for a start-symbol fact.

    The word is the shortest one, and the lexicographically smallest among
    those: the word of ``shortest_words`` for the same triple, or the empty
    word on an empty path.
    """
    fact = (rel.grammar.start, source, target)
    if fact not in rel.facts:
        raise NotReachableError("%r does not reach %r" % (source, target))
    if source == target and rel.grammar.epsilon_at_start:
        return (source,), ()
    return rel._product.path_and_word(fact)
