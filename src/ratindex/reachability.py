"""All-pairs CFL-reachability over edge-labeled graphs, with witness paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from .errors import RatIndexError
from .grammar import CNFGrammar
from .graphs import LabeledGraph
from .intersection import ProductClosure, derivation_path

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
        start = self.grammar.start
        return frozenset((i, j) for (a, i, j) in self.facts if a == start)

    def holds(self, source: str, target: str, nonterminal: str | None = None) -> bool:
        nt = nonterminal if nonterminal is not None else self.grammar.start
        return (nt, source, target) in self.facts

    def pairs(self, nonterminal: str) -> frozenset[tuple[str, str]]:
        return frozenset((i, j) for (a, i, j) in self.facts if a == nonterminal)


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
    word = rel._product.entry(fact).word
    return derivation_path(rel._product.entries, fact), word
