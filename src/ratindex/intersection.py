"""Bar-Hillel products of a CNF grammar with an automaton, and shortest words.

The product grammar has nonterminals (A, i, j) meaning "A derives the label
word of some path from i to j".  Two engines find its realizable triples.
``ProductClosure`` settles the exact shortest yield length of every
realizable triple and resolves canonical witnesses on demand: shortest
words, rational-index sweeps and ``all_pairs_reach`` with its witnesses read
it.  ``realized_rows`` finds the same triples without lengths: chain
Datalog, ``cyk_membership``, ``cyk_parse`` and ``reach_pairs`` read it, as
they ask only which triples are realizable.  It seeds the triples of
nonterminals with no binary rule (leaves) and never pops them, and joins a
rule of two leaves once at seeding.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Mapping, Union

from .errors import RatIndexError
from .graphs import NFA, LabeledGraph
from .trees import ParseTree

if TYPE_CHECKING:
    from .grammar import CNFGrammar

Triple = tuple[str, str, str]  # (nonterminal, source node, target node)

# The fewest partners for which a join probes through its bound row (see
# ProductClosure); shorter partner lists probe ``lengths`` directly.
ROW_PARTNERS = 8


class UnrealizableTripleError(RatIndexError):
    pass


@dataclass(frozen=True)
class TripleGrammar:
    """The product of a CNF grammar with an automaton (see ProductClosure).

    A start triple is (S, i, j) with i initial and j accepting.  The
    empty-word rule is ``empty_word_states``; the empty word is handled
    outside the product.
    """

    grammar: CNFGrammar
    automaton: NFA

    def empty_word_states(self) -> frozenset[str]:
        """The states i whose empty path (i, i) spells a word of the
        intersection: those both initial and accepting, if the grammar
        derives the empty word, and none otherwise."""
        if not self.grammar.epsilon_at_start:
            return frozenset()
        return self.automaton.initial & self.automaton.accepting

    def start_triples(self) -> tuple[Triple, ...]:
        """Every start triple, ordered by (i, j)."""
        nfa = self.automaton
        return tuple(
            (self.grammar.start, i, j)
            for i in sorted(nfa.initial)
            for j in sorted(nfa.accepting)
        )


def bar_hillel(g: CNFGrammar, automaton: Union[LabeledGraph, NFA]) -> TripleGrammar:
    """Build the product grammar.  A LabeledGraph is queried through its
    graph-language automaton, in which every node is initial and accepting."""
    if isinstance(automaton, LabeledGraph):
        automaton = automaton.to_nfa()
    return TripleGrammar(g, automaton)


@functools.lru_cache(maxsize=64)
def word_codec(terminals: frozenset[str]) -> tuple[dict[str, str], tuple[str, ...]]:
    """The code of a word over the terminals is a string with one character
    per symbol: ``chr`` of the symbol's rank in sorted order.  Comparing two
    codes orders them as the words, prefix rule included.  Returns the
    character of each terminal and the terminals by rank; built once per
    terminal set and shared, so callers must not change them."""
    names = tuple(sorted(terminals))
    return {a: chr(rank) for rank, a in enumerate(names)}, names


def decode(names: tuple[str, ...], code: str) -> tuple[str, ...]:
    """The word of a code, given the terminals by rank (see ``word_codec``)."""
    return tuple([names[ord(c)] for c in code])


@dataclass(frozen=True, slots=True)
class ShortestEntry:
    """The canonical witness of a triple, as a ``ShortestTable`` builds it
    on each read from its closure's code and canonical step.  The word is
    stored as its code (see ``word_codec``), one character per symbol, and
    ``word`` decodes it to a tuple of terminal names on each access."""

    code: str
    names: tuple[str, ...] = field(repr=False)  # the terminals by rank
    production: int
    left: Triple | None = None  # None for edge-form entries
    right: Triple | None = None

    @property
    def length(self) -> int:
        return len(self.code)

    @property
    def word(self) -> tuple[str, ...]:
        return decode(self.names, self.code)


class ProductClosure:
    """The realizable triples of the product of a CNF grammar with a set of
    labeled transitions (source, label, target).

    The product has two forms of productions:

      1. (A,i,j) -> (B,i,k) (C,k,j)   for every rule A -> B C and node k
      2. (A,i,j) -> a                 for every rule A -> a and edge (i,a,j)

    ``lengths`` maps every realizable triple to the length of the shortest
    word it derives, and ``by_source[A][i]`` lists the realizable triples
    (A, i, j) as (j, length) in the order they were settled.  Every length
    is a positive integer and a join is strictly longer than either of its
    parts, so triples are settled bucket by bucket in increasing length
    (Knuth's generalisation of Dijkstra's algorithm) and a bucket is
    complete when it is reached.  The first bucket is seeded from the
    sorted edges, so the settle order, the key order of ``lengths`` and the
    rows follow neither the order of ``transitions`` nor the hash seed, and
    the nodes of one closure must be mutually comparable.  The rules come
    from ``CNFGrammar.rule_index``.

    A settled triple (B, i, k) joins, for a rule A -> B C, with every
    realized partner (C, k, j) in ``by_source[C][k]``; each partner is a
    probe of the candidate (A, i, j).  A right child joins through
    ``by_target`` the same way.  On dense graphs few probes push anything:
    on a seeded 64-node graph with two edges out of and into every node and
    ``S -> S S | a S b | a b``, the closure makes 270,464 probes for 8,320
    triples, and 10,466 push.  So a pop with at least ``ROW_PARTNERS``
    partners probes a bound row first: a dict of upper bounds on the
    lengths of the candidates (A, i, *) keyed by target node (for a right
    child, of (A, *, j) keyed by source node).  A candidate whose bound is
    at most the new length is turned away without building its triple.  A
    bound is the candidate's length in ``lengths`` at some moment, learned
    when a probe misses the row; lengths only fall, so a probe that a bound
    turns away would have been turned away by ``lengths`` too.  ``lengths``
    stays the only store of truth, the pushes are those of probing
    ``lengths`` alone, and the rows are freed when the closure settles.  On
    the graph above the rows turn away about 248,500 probes, and about
    21,900 triples are built instead of 270,464.  A row pays only when many
    pops read it, so shorter partner lists, as in chains, trees and graphs
    of a few nodes, probe ``lengths`` directly.

    The canonical witness of a triple is its lexicographically smallest
    word of minimum length, ties broken by the smallest production id, then
    the smallest split node.  ``steps`` holds the canonical step of every
    triple resolved so far, (production id, left, right) for a binary step
    and (production id, None, None) for an edge: a back-pointer table in
    which each word is a walk, a straight-line program in the sense of
    Lohrey's survey of SLP-compressed strings (2012).  ``_resolve_below``
    records steps in one walk down from the triple asked for: a triple of
    length 1 or with one split gets its step when the walk meets it, and
    only the ties, the triples with two or more splits, wait until the walk
    ends and are then resolved shortest first.  Words are compared and
    returned as codes (see ``word_codec``), and a code exists only where
    something reads it: the parts of a tied triple's splits, whose
    concatenations the tie compares, the start triples of minimum length
    that ``least_start`` compares, and the triples handed out by ``code``.
    ``code`` is the one speller: it memoizes one code per triple, and a
    walk copies the memoized codes of the triples it meets, so a derivation
    with no tie builds no code below its root; ``path_and_word`` walks the
    steps and builds no code at all.  The closure keeps no entries: a
    ``ShortestTable`` builds each one from ``code`` and ``steps`` when it
    is read.

    A settled closure keeps only what resolution reads: ``lengths``,
    ``by_source``, the start symbol, whose rows ``start_rows`` and
    ``least_start`` read, the binary rules, the production id of each
    length-1 triple and, for the nonterminals whose words all have one
    length (see ``splits``), their triples by target node.

    A rational-index sweep needs one answer per automaton, the least start
    triple at or above a floor, and the keyword-only ``stop=(initial,
    accepting, floor)`` lets a closure settle no more than that answer
    reads.  Since buckets are settled in increasing length, the first start
    triple (S, i, j) to settle, with i in ``initial`` and j in
    ``accepting``, has the shortest start length d*.  If d* is below the
    floor, the closure stops at that triple and ``least_start(initial,
    accepting, floor)`` is None.  Otherwise it settles the rest of bucket
    d* without joining (joins are longer than d*) and stops, so every start
    triple of length d* is settled and ``least_start`` compares their codes
    as on the full closure.  After such a stop every length in ``lengths``
    that is not settled exceeds d*, and ``splits`` and ``_resolve_below``
    on a triple of length at most d* compare only lengths below its own, so
    they find the same steps, and the same witnesses, as on the full
    closure.  A stopped closure answers that one ``least_start`` query
    only: its ``lengths`` still holds tentative lengths, so it is never
    wrapped in a ``ShortestTable`` or handed out (``measure`` builds it and
    drops it).  Without ``stop`` a pop pays one identity test, against a
    row that never matches.
    """

    def __init__(
        self,
        g: CNFGrammar,
        transitions: Iterable[tuple[Hashable, str, Hashable]],
        *,
        stop: tuple[frozenset, frozenset, int] | None = None,
    ):
        # Realized triples per nonterminal, by source node and by target
        # node, as (other node, length) in the order they were settled.
        # Keying by nonterminal first stores no (nonterminal, node) tuple per
        # key.  Only the joins read ``by_target``; once the closure settles,
        # it is kept for the nonterminals of one word length only.
        by_source: dict[str, dict] = {a: {} for a in g.nonterminals}
        by_target: dict[str, dict] = {a: {} for a in g.nonterminals}
        terminal_rules, pair_rules, child_rules = g.rule_index
        # Per nonterminal, the binary rules it is a child of, as (parent, the
        # partner's realized triples by shared node, whether it is the right child).
        joins: dict[str, list[tuple[str, dict, bool]]] = {child: [] for child in child_rules}
        for child, rules in child_rules.items():
            for parent, partner, right in rules:
                joins[child].append((parent, (by_source if right else by_target)[partner], right))
        # The production id of every triple of length 1: the first met over
        # the sorted edges, the one of smallest (code, production id), as
        # labels sort as their codes and each label's rules by production id.
        edges: dict[Triple, int] = {}
        for src, label, dst in sorted(transitions):
            for pid, head in terminal_rules.get(label, ()):
                edges.setdefault((head, src, dst), pid)
        # Lengths are tentative until their bucket is reached.
        lengths: dict[Triple, int] = dict.fromkeys(edges, 1)
        # Bound rows (see the class docstring): the row of (P, i, *) is
        # keyed by (P, i, None), that of (P, *, j) by (P, None, j).
        bounds: dict[tuple, dict[Hashable, int]] = {}
        buckets: dict[int, list[Triple]] = {1: list(edges)}
        pending = [1]  # heap of the lengths that have a bucket
        # The stop condition (see the class docstring).  Without one no row
        # is ``stop_rows``, so a pop pays one identity test for it.
        stop_rows = initial = accepting = None
        if stop is not None:
            initial, accepting, floor = stop
            stop_rows = by_source[g.start]

        while pending:
            d = heapq.heappop(pending)
            for triple in buckets.pop(d):
                if lengths[triple] != d:
                    continue  # settled earlier by a shorter derivation
                head, i, j = triple
                rows = by_source[head]
                rows.setdefault(i, []).append((j, d))
                by_target[head].setdefault(j, []).append((i, d))
                if rows is stop_rows and i in initial and j in accepting:
                    # The first start triple: d is the shortest start length.
                    pending = []  # pop no further bucket
                    if d < floor:
                        break
                    # Settle the rest of this bucket; its joins are longer.
                    stop_rows, joins = None, {}
                for parent, partner_parts, on_right in joins.get(head, ()):
                    partners = partner_parts.get(j if on_right else i)
                    if partners is None:
                        continue
                    if len(partners) >= ROW_PARTNERS:
                        # Turn away, before building its triple, every
                        # candidate whose bound is at most the new length.
                        row = (parent, i, None) if on_right else (parent, None, j)
                        bound = bounds.get(row)
                        if bound is None:
                            bound = bounds[row] = {}
                        improved = []
                        for node, d2 in partners:
                            total = d + d2
                            if bound.get(node, total + 1) > total:
                                old = lengths.get(
                                    (parent, i, node) if on_right else (parent, node, j)
                                )
                                if old is not None and old <= total:
                                    bound[node] = old
                                else:
                                    bound[node] = total
                                    improved.append((node, d2))
                        partners = improved
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
        self.by_source = by_source
        self.steps: dict[Triple, tuple[int, Triple | None, Triple | None]] = {}
        self._codes: dict[Triple, str] = {}
        self._start = g.start
        self._pair_rules = pair_rules
        self._edges = edges
        self._productions = g.productions
        self._chars, self._names = word_codec(g.terminals)
        self._fixed_by_target = {c: (ell, by_target[c]) for c, ell in g.fixed_lengths.items()}

    def start_rows(
        self, initial: Iterable[Hashable], accepting: frozenset
    ) -> Iterator[tuple[int, Hashable, Hashable]]:
        """The realized start triples (S, i, j) with i initial and j
        accepting, as (length, i, j), read lazily from the rows
        ``by_source[S][i]``: a caller that keeps only pairs never holds
        every row at once."""
        rows = self.by_source[self._start]
        return ((d, i, j) for i in initial for j, d in rows.get(i, ()) if j in accepting)

    def least_start(
        self, initial: Iterable[Hashable], accepting: frozenset, floor: int = 0
    ) -> tuple[int, str, Triple] | None:
        """The smallest (length, code, triple) over ``start_rows``, or None
        when there is none or its length is below ``floor``.  Only the
        triples of minimum length are resolved and spelled."""
        rows = list(self.start_rows(initial, accepting))
        if not rows:
            return None
        shortest = min(d for d, _i, _j in rows)
        if shortest < floor:
            return None
        start = self._start
        code, triple = min(
            (self.code(t), t) for t in ((start, i, j) for d, i, j in rows if d == shortest)
        )
        return shortest, code, triple

    def splits(self, triple: Triple) -> list[tuple[int, Triple, Triple]]:
        """The binary steps (production id, left, right) that derive a
        realizable triple at its shortest length.  Per rule, the realized
        left parts (``by_source``) are walked in the order they were
        settled, shortest first, up to the triple's length, and a split node
        k is probed only if the right child has a row at k.  On a stopped
        closure that row is there for every split the full closure has: the
        right part is shorter than the triple, so it is settled.  When every
        word of the right child has one length, its realized parts into the
        target are walked instead, and a left part must have the rest of the
        length; when every word of the left child has one length too, the
        rule is skipped unless that length is the rest."""
        head, i, j = triple
        d = self.lengths[triple]
        lengths = self.lengths
        by_source = self.by_source
        fixed_by_target = self._fixed_by_target
        found = []
        for pid, b, c in self._pair_rules.get(head, ()):
            fixed = fixed_by_target.get(c)
            if fixed is None:
                right_rows = by_source[c]
                for k, dl in by_source[b].get(i, ()):
                    if dl >= d:
                        break
                    if k not in right_rows:
                        continue  # no word of C starts at k
                    right = (c, k, j)
                    if lengths.get(right) == d - dl:
                        found.append((pid, (b, i, k), right))
            else:
                ell, by_target = fixed
                rest = d - ell
                left_fixed = fixed_by_target.get(b)
                if left_fixed is not None and left_fixed[0] != rest:
                    continue
                for k, _ell in by_target.get(j, ()):
                    left = (b, i, k)
                    if lengths.get(left) == rest:
                        found.append((pid, left, (c, k, j)))
        return found

    def code(self, triple: Triple) -> str:
        """The code of the canonical word of a realizable triple, memoized.
        A code not memoized yet is spelled by one walk over ``steps`` from
        the triple itself, which copies the memoized codes of the triples it
        meets.  Only the code asked for is memoized."""
        codes = self._codes
        code = codes.get(triple)
        if code is not None:
            return code
        self._resolve_below(triple)
        steps, chars, productions = self.steps, self._chars, self._productions
        parts = []
        stack = [triple]
        while stack:
            t = stack.pop()
            known = codes.get(t)
            if known is not None:
                parts.append(known)
                continue
            pid, left, right = steps[t]
            if left is None:
                parts.append(chars[productions[pid].rhs[0]])
            else:
                stack += (right, left)
        code = codes[triple] = "".join(parts)
        return code

    def path_and_word(self, triple: Triple) -> tuple[tuple, tuple[str, ...]]:
        """The nodes of the path and the word spelled by the canonical
        derivation of a realizable triple, in one walk left to right over
        ``steps`` without recursion."""
        self._resolve_below(triple)
        steps, productions = self.steps, self._productions
        path = [triple[1]]
        word = []
        stack = [triple]
        while stack:
            t = stack.pop()
            pid, left, right = steps[t]
            if left is None:
                path.append(t[2])
                word.append(productions[pid].rhs[0])
            else:
                stack += (right, left)
        return tuple(path), tuple(word)

    def _resolve_below(self, triple: Triple) -> None:
        """Resolve a realizable triple and the triples that its shortest
        derivations may use, in one walk down from it.  A triple of length 1
        or with one split is resolved as soon as the walk meets it, as its
        step reads no code.  Only a tie, a triple with two or more splits,
        is held with its splits until the walk ends.  The ties are then
        resolved shortest first: a tie's parts are shorter than it, and so
        are the ties below them, so every code a tie compares is built from
        resolved steps."""
        steps = self.steps
        if triple in steps:
            return
        lengths, splits, resolve = self.lengths, self.splits, self._resolve
        ties: dict[Triple, list] = {}
        stack = [triple]
        while stack:
            t = stack.pop()
            if t in steps or t in ties:
                continue
            if lengths[t] == 1:
                resolve(t, [])  # a triple of length 1 has no splits, only edges
                continue
            found = splits(t)
            if len(found) == 1:
                resolve(t, found)
            else:
                ties[t] = found
            for _pid, left, right in found:
                stack += (left, right)
        for t in sorted(ties, key=lengths.__getitem__):
            resolve(t, ties.pop(t))  # frees each split list once used

    def _resolve(self, triple: Triple, splits: list[tuple[int, Triple, Triple]]) -> None:
        """Record the canonical step of a triple from its splits.  A triple
        of length 1 has no splits, only edges.  Only a tie reads codes:
        those of its splits' parts, which must be resolved."""
        if not splits:
            self.steps[triple] = (self._edges[triple], None, None)
        elif len(splits) == 1:
            self.steps[triple] = splits[0]
        else:
            code = self.code
            _code, _pid, _k, n = min(
                (code(left) + code(right), pid, left[2], n)
                for n, (pid, left, right) in enumerate(splits)
            )
            self.steps[triple] = splits[n]


def realized_rows(
    g: CNFGrammar, transitions: Iterable[tuple[Hashable, str, Hashable]]
) -> dict[str, dict[Hashable, set]]:
    """The realizable triples of the product, without lengths: ``rows[A][i]``
    is the set of nodes j for which (A, i, j) is realizable, and a node
    with no such j has no row.  The triples are the keys of
    ``ProductClosure(g, transitions).lengths``, for callers that read no
    length and no witness.

    A semi-naive worklist over successor rows ``rows[A][i]`` and
    predecessor columns ``cols[A][j]``: a triple enters both when it is
    found and joins, once, when it leaves the worklist, so of two parts the
    later one to leave finds the other.  A left child (B, i, k) of
    P -> B C joins with the row ``rows[C][k]`` and keeps only the partners
    not yet in the parent's row ``rows[P][i]``, one set difference per rule
    (a right child joins through the columns the same way), and pushes each
    new triple in the loop that extends the parent's other side.  So a
    candidate that is already realized costs no Python step, where the
    closure must probe it to compare lengths.  It reads
    ``CNFGrammar.rule_index``.

    A leaf, a nonterminal with no binary rule, has only the triples of its
    terminal rules, so all of them are in its rows and columns once the
    edges are seeded.  They are seeded there and never enter the worklist:
    a partner that leaves it later finds them.  A rule whose two children
    are both leaves has no such partner, and is joined once at seeding.
    Leaves are the ``T_a`` helpers of a CNF, rules ``A -> a`` and chain
    Datalog's edge predicates: on the seed-1 deep-nesting ``updown``
    chains of the benchmark they hold 16,000 of the 44,868 triples.
    """
    rows: dict[str, dict[Hashable, set]] = {a: {} for a in g.nonterminals}
    cols: dict[str, dict[Hashable, set]] = {a: {} for a in g.nonterminals}
    terminal_rules, pair_rules, child_rules = g.rule_index
    # Per nonterminal that leaves the worklist, the binary rules it is a
    # child of, as (parent, the parent's sets that the join extends, the
    # parent's sets on the other side, the partner's sets by shared node,
    # whether the partner is the right child): for P -> B C, a left child
    # (B, i, k) reads ``rows[C][k]`` and extends ``rows[P][i]``, and a right
    # child (C, k, j) reads ``cols[B][k]`` and extends ``cols[P][j]``.
    joins: dict[str, list[tuple[str, dict, dict, dict, bool]]] = {
        child: [
            (p, rows[p], cols[p], rows[c], True) if right else (p, cols[p], rows[p], cols[c], False)
            for p, c, right in rules
        ]
        for child, rules in child_rules.items()
        if child in pair_rules
    }

    work: list[Triple] = []
    push = work.append
    for src, label, dst in transitions:
        for _pid, head in terminal_rules.get(label, ()):
            row = rows[head].setdefault(src, set())
            if dst not in row:
                row.add(dst)
                cols[head].setdefault(dst, set()).add(src)
                if head in pair_rules:  # a leaf's triple is never popped
                    push((head, src, dst))
    # A rule of two leaves is joined here, once, since both children are
    # complete; the walk follows the rule index and the leaves' rows.
    for parent, rules in pair_rules.items():
        out, into = rows[parent], cols[parent]
        for _pid, left, right in rules:
            if left in pair_rules or right in pair_rules:
                continue
            right_rows = rows[right]
            for i, shared_nodes in rows[left].items():
                for k in shared_nodes:
                    for j in right_rows.get(k, ()):
                        row = out.setdefault(i, set())
                        if j not in row:
                            row.add(j)
                            into.setdefault(j, set()).add(i)
                            push((parent, i, j))

    while work:
        head, i, j = work.pop()
        for parent, out, into, partner_sets, on_right in joins.get(head, ()):
            own, shared = (i, j) if on_right else (j, i)
            partners = partner_sets.get(shared)
            if not partners:
                continue
            known = out.get(own)
            if known is None:
                out[own] = new = set(partners)
            else:
                new = partners - known
                if not new:
                    continue
                known |= new
            for k in new:
                mirror = into.get(k)
                if mirror is None:
                    into[k] = {own}
                else:
                    mirror.add(own)
                push((parent, own, k) if on_right else (parent, k, own))
    return rows


class ShortestTable(Mapping[Triple, ShortestEntry]):
    """Exact minimum yield length and canonical witness per realizable
    triple: a read-only mapping from every realizable triple to its
    ``ShortestEntry``, in which unrealizable triples are simply absent.
    Lengths are settled when the table is built, and keys, ``len``, ``in``
    and ``length`` read them and resolve nothing.  A triple is resolved
    when its entry is first read, together with the shorter triples it may
    be built from, and ``items`` and ``values`` read every entry that way.
    The table keeps its ``ProductClosure`` for that and keeps no entry:
    each read builds a new, equal one.  As a ``Mapping`` it is false when
    empty, equal to a mapping with the same entries (which resolves both),
    and unhashable.

    The table also keeps the witness trees it has built (see
    ``extract_witness``): one subtree per triple of an extracted witness,
    and one leaf per terminal.  The canonical steps form one straight-line
    program, so witnesses of one table share every common sub-derivation,
    and each subtree is built once and then reused as the same object."""

    __slots__ = ("closure", "_trees")

    def __init__(self, closure: ProductClosure):
        self.closure = closure
        # The witness subtree of each triple built so far, and the leaf of
        # each terminal (see ``derivation_tree``).
        self._trees: dict = {}

    @property
    def entries(self) -> ShortestTable:
        """The table itself, for callers that read ``table.entries``."""
        return self

    def __getitem__(self, triple: Triple) -> ShortestEntry:
        closure = self.closure
        return ShortestEntry(closure.code(triple), closure._names, *closure.steps[triple])

    def __contains__(self, triple: object) -> bool:
        return triple in self.closure.lengths

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.closure.lengths)

    def __len__(self) -> int:
        return len(self.closure.lengths)

    def length(self, triple: Triple) -> int | None:
        return self.closure.lengths.get(triple)

    def realizable(self) -> frozenset[Triple]:
        return frozenset(self.closure.lengths)


def derivation_tree(root: Triple, parts: Callable[[Triple], tuple], trees: dict) -> ParseTree:
    """The parse tree of a derivation in the base grammar, built into
    ``trees``: a dict from triples to their subtrees and from terminals to
    their leaves, which the call extends.  ``parts(t)`` is (left, right)
    for a binary step and (terminal,) for an edge step.  Built without
    recursion; a triple already in ``trees`` keeps its subtree, ``parts``
    is called once per triple new to it, a triple used twice shares its
    subtree, and each terminal has one leaf.  Callers that share ``trees``
    must derive each triple alike."""
    stack: list[tuple[Triple, tuple | None]] = [(root, None)]
    while stack:
        triple, below = stack.pop()
        if below is not None:
            left, right = below
            trees[triple] = ParseTree(triple[0], (trees[left], trees[right]))
        elif triple not in trees:
            below = parts(triple)
            if len(below) == 2:
                stack.append((triple, below))
                stack.append((below[0], None))
                stack.append((below[1], None))
            else:
                terminal = below[0]
                leaf = trees.get(terminal)
                if leaf is None:
                    leaf = trees[terminal] = ParseTree(terminal)
                trees[triple] = ParseTree(triple[0], (leaf,))
    return trees[root]


def shortest_words(tg: TripleGrammar) -> ShortestTable:
    """Compute minimum yield lengths for all realizable triples.  The
    canonical witness of a triple (lexicographically smallest word of
    minimum length, ties broken by smallest production id and split node)
    is resolved when the table's entry is first read."""
    return ShortestTable(ProductClosure(tg.grammar, tg.automaton.transitions))


@dataclass(frozen=True)
class Witness:
    word: tuple[str, ...]
    tree: ParseTree
    path: tuple[str, ...]


def extract_witness(tg: TripleGrammar, table: ShortestTable, triple: Triple) -> Witness:
    """Shortest word, its parse tree in the base grammar, and a graph path
    spelling it.  Raises UnrealizableTripleError for absent triples.  The
    tree is built into the table's memo of witness trees (see
    ``ShortestTable``): a subtree that an earlier witness of the same table
    built is reused as the same object, and the returned tree may be one
    such subtree."""
    if triple not in table:
        raise UnrealizableTripleError("triple %r derives no word" % (triple,))
    closure = table.closure
    path, word = closure.path_and_word(triple)
    steps = closure.steps  # every triple below the root is resolved
    productions = tg.grammar.productions

    def parts(t: Triple) -> tuple:
        pid, left, right = steps[t]
        if left is None:
            return productions[pid].rhs  # the edge's terminal
        return left, right

    tree = derivation_tree(triple, parts, table._trees)
    return Witness(word, tree, path)


def shortest_start(
    tg: TripleGrammar, table: ShortestTable
) -> tuple[int, tuple[str, ...], Triple | None] | None:
    """Minimum over the start triples: (length, word, triple).

    The triple is None when the minimum is the empty word.  Ties on length
    and word go to the smallest triple.  Returns None when the intersection
    is empty.
    """
    if tg.empty_word_states():
        return 0, (), None
    nfa = tg.automaton
    best = table.closure.least_start(nfa.initial, nfa.accepting)
    if best is None:
        return None
    length, code, triple = best
    return length, decode(word_codec(tg.grammar.terminals)[1], code), triple


def realizable_start_pairs(tg: TripleGrammar, table: ShortestTable) -> frozenset[tuple[str, str]]:
    """Start pairs (i, j) whose intersection language from the start symbol
    is nonempty, including empty-word pairs."""
    nfa = tg.automaton
    rows = table.closure.start_rows(nfa.initial, nfa.accepting)
    pairs = {(i, j) for _d, i, j in rows}
    pairs.update((i, i) for i in tg.empty_word_states())
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
