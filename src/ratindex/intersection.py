"""Bar-Hillel products of a CNF grammar with an automaton, and shortest words.

The product grammar has nonterminals (A, i, j) meaning "A derives the label
word of some path from i to j".  One closure engine, ``ProductClosure``,
settles the exact shortest yield length of every realizable triple and
resolves canonical witnesses on demand.  Shortest words, CFL-reachability,
chain Datalog and CYK are all views on it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Union

from .errors import RatIndexError
from .graphs import NFA, LabeledGraph
from .trees import ParseTree

if TYPE_CHECKING:
    from .grammar import CNFGrammar

Triple = tuple[str, str, str]  # (nonterminal, source node, target node)


class UnrealizableTripleError(RatIndexError):
    pass


@dataclass(frozen=True)
class TripleGrammar:
    """The product of a CNF grammar with an automaton (see ProductClosure).

    ``start_pairs`` carries the query semantics: all node pairs for a plain
    graph, initial x accepting for an NFA.
    """

    grammar: CNFGrammar
    automaton: NFA
    start_pairs: tuple[tuple[str, str], ...]
    semantics: str  # "graph" or "nfa"

    def start_triples(self) -> tuple[Triple, ...]:
        return tuple((self.grammar.start, i, j) for i, j in self.start_pairs)


def bar_hillel(g: CNFGrammar, automaton: Union[LabeledGraph, NFA]) -> TripleGrammar:
    """Build the product grammar.

    A LabeledGraph is queried with every node pair as start (its graph
    language); an NFA restricts starts to initial x accepting pairs.  The
    empty word is handled outside the product: it belongs to the
    intersection iff the grammar derives it and the query admits an empty
    path (a pair with equal endpoints).
    """
    if isinstance(automaton, LabeledGraph):
        nfa = automaton.to_nfa()
        semantics = "graph"
    else:
        nfa = automaton
        semantics = "nfa"
    pairs = tuple(
        (i, j) for i in sorted(nfa.initial) for j in sorted(nfa.accepting)
    )
    return TripleGrammar(g, nfa, pairs, semantics)


@dataclass(frozen=True)
class ShortestEntry:
    length: int
    word: tuple[str, ...]
    production: int
    left: Triple | None = None  # None for edge-form entries
    right: Triple | None = None


@dataclass
class ShortestTable:
    """Exact minimum yield length (and a canonical witness) per realizable
    triple; unrealizable triples are simply absent."""

    entries: dict[Triple, ShortestEntry] = field(default_factory=dict)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.entries

    def length(self, triple: Triple) -> int | None:
        entry = self.entries.get(triple)
        return entry.length if entry else None

    def realizable(self) -> frozenset[Triple]:
        return frozenset(self.entries)


class ProductClosure:
    """The realizable triples of the product of a CNF grammar with a set of
    labeled transitions (source, label, target).

    The product has two forms of productions:

      1. (A,i,j) -> (B,i,k) (C,k,j)   for every rule A -> B C and node k
      2. (A,i,j) -> a                 for every rule A -> a and edge (i,a,j)

    ``lengths`` maps every realizable triple to the length of the shortest
    word it derives.  Every length is a positive integer and a join is
    strictly longer than either of its parts, so triples are settled bucket
    by bucket in increasing length (Knuth's generalisation of Dijkstra's
    algorithm) and a bucket is complete when it is reached.  Nodes may be
    any hashable, ordered values; CYK uses word positions.

    ``entries`` holds the canonical entries resolved so far: the
    lexicographically smallest word of minimum length, ties broken by the
    smallest production id, then the smallest split node.
    """

    def __init__(self, g: CNFGrammar, transitions: Iterable[tuple[Hashable, str, Hashable]]):
        terminal_rules: dict[str, list[tuple[int, str]]] = {}
        # Per nonterminal, the binary rules it is a child of, as (parent,
        # partner, whether the partner is the right child).
        joins: dict[str, list[tuple[str, str, bool]]] = {}
        pair_rules: dict[str, list[tuple[int, str, str]]] = {}
        for pid, prod in enumerate(g.productions):
            if len(prod.rhs) == 1:
                terminal_rules.setdefault(prod.rhs[0], []).append((pid, prod.lhs))
            elif len(prod.rhs) == 2:
                b, c = prod.rhs
                joins.setdefault(b, []).append((prod.lhs, c, True))
                joins.setdefault(c, []).append((prod.lhs, b, False))
                pair_rules.setdefault(prod.lhs, []).append((pid, b, c))

        # Lengths are tentative until their bucket is reached.
        lengths: dict[Triple, int] = {}
        # Canonical (word, production id) of every triple of length 1.
        edges: dict[Triple, tuple[tuple[str], int]] = {}
        for src, label, dst in transitions:
            for pid, head in terminal_rules.get(label, ()):
                triple = (head, src, dst)
                step = ((label,), pid)
                if triple not in edges:
                    lengths[triple] = 1
                    edges[triple] = step
                elif step < edges[triple]:
                    edges[triple] = step
        buckets: dict[int, list[Triple]] = {1: list(edges)}
        pending = [1]  # heap of the lengths that have a bucket
        by_source: dict[tuple, list[tuple[Hashable, int]]] = {}
        by_target: dict[tuple, list[tuple[Hashable, int]]] = {}

        while pending:
            d = heapq.heappop(pending)
            for triple in buckets.pop(d):
                if lengths[triple] != d:
                    continue  # settled earlier by a shorter derivation
                head, i, j = triple
                by_source.setdefault((head, i), []).append((j, d))
                by_target.setdefault((head, j), []).append((i, d))
                for parent, partner, on_right in joins.get(head, ()):
                    if on_right:
                        partners = by_source.get((partner, j), ())
                    else:
                        partners = by_target.get((partner, i), ())
                    for node, d2 in partners:
                        candidate = (parent, i, node) if on_right else (parent, node, j)
                        total = d + d2
                        if lengths.get(candidate, total + 1) > total:
                            lengths[candidate] = total
                            bucket = buckets.get(total)
                            if bucket is None:
                                buckets[total] = [candidate]
                                heapq.heappush(pending, total)
                            else:
                                bucket.append(candidate)

        self.lengths = lengths
        self.entries: dict[Triple, ShortestEntry] = {}
        self._pair_rules = pair_rules
        self._edges = edges
        self._by_source = by_source

    def splits(self, triple: Triple) -> list[tuple[int, Triple, Triple]]:
        """The binary steps (production id, left, right) that derive a
        realizable triple at its shortest length.  Only realized left parts
        shorter than the triple are walked: ``by_source`` lists them in the
        order they were settled, shortest first."""
        head, i, j = triple
        d = self.lengths[triple]
        lengths = self.lengths
        found = []
        for pid, b, c in self._pair_rules.get(head, ()):
            for k, dl in self._by_source.get((b, i), ()):
                if dl >= d:
                    break
                if lengths.get((c, k, j)) == d - dl:
                    found.append((pid, (b, i, k), (c, k, j)))
        return found

    def entry(self, triple: Triple) -> ShortestEntry:
        """The canonical entry of a realizable triple.  The triples that its
        shortest derivations may use are resolved first, shortest first."""
        entries = self.entries
        if triple not in entries:
            steps: dict[Triple, list] = {}
            stack = [triple]
            while stack:
                t = stack.pop()
                if t not in steps and t not in entries:
                    steps[t] = found = self.splits(t)
                    for _pid, left, right in found:
                        stack += (left, right)
            for t in sorted(steps, key=self.lengths.__getitem__):
                self._resolve(t, steps[t])
        return entries[triple]

    def resolve_all(self) -> dict[Triple, ShortestEntry]:
        """Resolve every realizable triple; returns ``entries``."""
        for triple in sorted(self.lengths, key=self.lengths.__getitem__):
            self._resolve(triple, self.splits(triple))
        return self.entries

    def _resolve(self, triple: Triple, splits: list[tuple[int, Triple, Triple]]) -> None:
        """Pick the canonical entry of a triple from its splits, whose parts
        are resolved.  A triple of length 1 has no splits, only edges."""
        entries = self.entries
        if not splits:
            word, pid = self._edges[triple]
            entries[triple] = ShortestEntry(1, word, pid)
            return
        if len(splits) == 1:
            pid, left, right = splits[0]
            word = entries[left].word + entries[right].word
        else:
            word, pid, _k, left, right = min(
                (entries[left].word + entries[right].word, pid, left[2], left, right)
                for pid, left, right in splits
            )
        entries[triple] = ShortestEntry(len(word), word, pid, left, right)


def derivation_path(entries: Mapping[Triple, ShortestEntry], triple: Triple) -> tuple:
    """The nodes of the path spelled by the canonical derivation of a
    resolved triple, walked left to right without recursion."""
    path = [triple[1]]
    stack = [triple]
    while stack:
        t = stack.pop()
        entry = entries[t]
        if entry.left is None:
            path.append(t[2])
        else:
            stack += (entry.right, entry.left)
    return tuple(path)


def derivation_tree(root: Triple, parts: Callable[[Triple], tuple]) -> ParseTree:
    """The parse tree of a derivation in the base grammar.  ``parts(t)`` is
    (left, right) for a binary step and (terminal,) for an edge step.  Built
    without recursion; a triple used twice shares its subtree."""
    trees: dict[Triple, ParseTree] = {}
    stack: list[tuple[Triple, tuple | None]] = [(root, None)]
    while stack:
        triple, below = stack.pop()
        if below is None:
            if triple in trees:
                continue
            below = parts(triple)
            if len(below) == 2:
                stack.append((triple, below))
                stack += ((t, None) for t in below)
                continue
            trees[triple] = ParseTree(triple[0], (ParseTree(below[0]),))
        else:
            trees[triple] = ParseTree(triple[0], tuple(trees[t] for t in below))
    return trees[root]


def shortest_words(tg: TripleGrammar) -> ShortestTable:
    """Compute minimum yield lengths for all realizable triples, then pick a
    canonical witness per triple: lexicographically smallest word of minimum
    length, ties broken by smallest production id and split node."""
    product = ProductClosure(tg.grammar, tg.automaton.transitions)
    return ShortestTable(product.resolve_all())


@dataclass(frozen=True)
class Witness:
    word: tuple[str, ...]
    tree: ParseTree
    path: tuple[str, ...]


def extract_witness(tg: TripleGrammar, table: ShortestTable, triple: Triple) -> Witness:
    """Shortest word, its parse tree in the base grammar, and a graph path
    spelling it.  Raises UnrealizableTripleError for absent triples."""
    if triple not in table.entries:
        raise UnrealizableTripleError("triple %r derives no word" % (triple,))
    entries = table.entries

    def parts(t: Triple) -> tuple:
        entry = entries[t]
        return entry.word if entry.left is None else (entry.left, entry.right)

    tree = derivation_tree(triple, parts)
    return Witness(entries[triple].word, tree, derivation_path(entries, triple))


def shortest_start(
    tg: TripleGrammar, table: ShortestTable, include_epsilon: bool = True
) -> tuple[int, tuple[str, ...], Triple | None] | None:
    """Minimum over the start triples: (length, word, triple).

    The triple is None when the minimum is the empty word (permitted when
    the grammar derives it and some start pair has equal endpoints).
    Returns None when the intersection is empty.
    """
    best: tuple[int, tuple[str, ...], Triple | None] | None = None
    if include_epsilon and tg.grammar.epsilon_at_start:
        for i, j in tg.start_pairs:
            if i == j:
                best = (0, (), None)
                break
    for triple in tg.start_triples():
        entry = table.entries.get(triple)
        if entry is None:
            continue
        candidate = (entry.length, entry.word, triple)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    return best


def realizable_start_pairs(
    tg: TripleGrammar, table: ShortestTable, include_epsilon: bool = True
) -> frozenset[tuple[str, str]]:
    """Node pairs (i, j) whose intersection language from the start symbol
    is nonempty, including empty-word pairs when applicable."""
    start_pairs = set(tg.start_pairs)
    pairs = {
        (i, j)
        for (head, i, j) in table.entries
        if head == tg.grammar.start and (i, j) in start_pairs
    }
    if include_epsilon and tg.grammar.epsilon_at_start:
        pairs.update((i, j) for i, j in tg.start_pairs if i == j)
    return frozenset(pairs)


@dataclass(frozen=True)
class HeightBoundReport:
    height: int
    bound: int

    @property
    def within_bound(self) -> bool:
        return self.height <= self.bound


def height_bound_check(
    g: CNFGrammar, automaton: Union[LabeledGraph, NFA], tree: ParseTree
) -> HeightBoundReport:
    """Compare a witness tree's height against |N| * n^2, the pigeonhole
    bound on parse-tree height for shortest words of the intersection."""
    n = len(automaton.nodes if isinstance(automaton, LabeledGraph) else automaton.states)
    bound = len(g.nonterminals) * n * n
    return HeightBoundReport(tree.height(), bound)
