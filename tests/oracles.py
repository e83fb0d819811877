"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (chart fixpoints, breadth-first word
enumeration, exhaustive subset search) and shares no code paths with the
algorithms under test.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from collections import deque

from ratindex.grammar import CNFGrammar, Grammar, Production, cyk_membership, trim_useless
from ratindex.graphs import NFA, GraphFormatError, LabeledGraph
from ratindex.intersection import (
    ProductClosure,
    UnrealizableTripleError,
    bar_hillel,
    derivation_tree,
    shortest_words,
)
from ratindex.measure import BudgetExceededError, Exhaustive, RhoEstimate, _automata_for
from ratindex.trees import EPSILON, ParseTree
from ratindex.wellnested import PUSH, UnbalancedWordError, WellNestedWord


def derives(g: Grammar, word) -> bool:
    """General CFG recognition by chart fixpoint (handles epsilon and unit
    cycles); exponential-ish but fine for words of length <= 8."""
    w = tuple(word)
    n = len(w)
    spans = [
        (i, i + length) for length in range(n + 1) for i in range(n - length + 1)
    ]
    derivable: set[tuple[str, int, int]] = set()

    def body_matches(body, i, j) -> bool:
        reach = {i}
        for sym in body:
            nxt = set()
            for p in reach:
                if sym in g.terminals:
                    if p < j and w[p] == sym:
                        nxt.add(p + 1)
                else:
                    for m in range(p, j + 1):
                        if (sym, p, m) in derivable:
                            nxt.add(m)
            reach = nxt
            if not reach:
                return False
        return j in reach

    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            for i, j in spans:
                key = (prod.lhs, i, j)
                if key in derivable:
                    continue
                if body_matches(prod.rhs, i, j):
                    derivable.add(key)
                    changed = True
    return (g.start, 0, n) in derivable


def derivable_words(g: Grammar, max_len: int) -> set[tuple[str, ...]]:
    """All words of the language up to a length, by generate-and-test."""
    letters = sorted(g.terminals)
    found = set()
    for length in range(max_len + 1):
        for word in itertools.product(letters, repeat=length):
            if derives(g, word):
                found.add(word)
    return found


def shortest_intersection_bfs(
    g: CNFGrammar, nfa: NFA, cap: int
) -> tuple[int, tuple[str, ...]] | None:
    """Shortest word accepted by both, by breadth-first word enumeration.

    Enumerates the automaton's accepted words in length order (pruning
    prefixes that cannot reach acceptance within the cap) and tests each
    with CYK.  Returns None when nothing is found up to the cap.
    """
    if g.epsilon_at_start and nfa.initial & nfa.accepting:
        return 0, ()

    step: dict[tuple[str, str], set[str]] = {}
    for src, label, dst in nfa.transitions:
        step.setdefault((src, label), set()).add(dst)
    # distance from each state to some accepting state
    dist = {q: 0 for q in nfa.accepting}
    queue = deque(nfa.accepting)
    incoming: dict[str, set[str]] = {}
    for src, _, dst in nfa.transitions:
        incoming.setdefault(dst, set()).add(src)
    while queue:
        q = queue.popleft()
        for p in incoming.get(q, ()):
            if p not in dist:
                dist[p] = dist[q] + 1
                queue.append(p)

    letters = sorted(nfa.alphabet)
    level: list[tuple[frozenset[str], tuple[str, ...]]] = [
        (frozenset(nfa.initial), ())
    ]
    for length in range(1, cap + 1):
        next_level = []
        for subset, word in level:
            for a in letters:
                nxt = frozenset(
                    q for s in subset for q in step.get((s, a), ())
                )
                if not nxt:
                    continue
                if min((dist.get(q, cap + 1) for q in nxt)) > cap - length:
                    continue
                next_level.append((nxt, word + (a,)))
        hits = [
            word
            for subset, word in next_level
            if subset & nfa.accepting and cyk_membership(g, word)
        ]
        if hits:
            return length, min(hits)
        level = next_level
    return None


def is_start(tg, triple) -> bool:
    """A start triple of the product is (S, i, j) with i initial and j
    accepting."""
    head, i, j = triple
    nfa = tg.automaton
    return head == tg.grammar.start and i in nfa.initial and j in nfa.accepting


def reference_closure(g: CNFGrammar, transitions, counts=None, wide=2):
    """Reference for ``ProductClosure``: the same bucket-by-bucket closure
    (Knuth's generalisation of Dijkstra's algorithm) in which every join
    probe builds its candidate triple and tests it against ``lengths``.
    Returns ``(lengths, by_source)``.  When ``counts`` is a dict, it gets
    the number of pops with at least ``wide`` partners for some rule
    (``"wide_pops"``) and the number of probes of such rules whose
    candidate already has length 1 (``"wide_edge_probes"``)."""
    by_source = {a: {} for a in g.nonterminals}
    by_target = {a: {} for a in g.nonterminals}
    terminal_rules: dict = {}
    joins: dict = {}
    for prod in g.productions:
        if len(prod.rhs) == 1:
            terminal_rules.setdefault(prod.rhs[0], []).append(prod.lhs)
        elif len(prod.rhs) == 2:
            b, c = prod.rhs
            joins.setdefault(b, []).append((prod.lhs, by_source[c], True))
            joins.setdefault(c, []).append((prod.lhs, by_target[b], False))
    lengths: dict = {}
    for src, label, dst in transitions:
        for head in terminal_rules.get(label, ()):
            lengths[(head, src, dst)] = 1
    buckets = {1: list(lengths)}
    pending = [1]
    wide_pops = wide_edge_probes = 0
    while pending:
        d = heapq.heappop(pending)
        for triple in buckets.pop(d):
            if lengths[triple] != d:
                continue
            head, i, j = triple
            by_source[head].setdefault(i, []).append((j, d))
            by_target[head].setdefault(j, []).append((i, d))
            wide_pop = False
            for parent, partner_parts, on_right in joins.get(head, ()):
                partners = partner_parts.get(j if on_right else i, ())
                wide_rule = len(partners) >= wide
                wide_pop = wide_pop or wide_rule
                for node, d2 in partners:
                    candidate = (parent, i, node) if on_right else (parent, node, j)
                    total = d + d2
                    wide_edge_probes += wide_rule and lengths.get(candidate) == 1
                    if lengths.get(candidate, total + 1) > total:
                        lengths[candidate] = total
                        bucket = buckets.get(total)
                        if bucket is None:
                            buckets[total] = [candidate]
                            heapq.heappush(pending, total)
                        else:
                            bucket.append(candidate)
            wide_pops += wide_pop
    if counts is not None:
        counts.update(wide_pops=wide_pops, wide_edge_probes=wide_edge_probes)
    return lengths, by_source


def realized_rows_popping_every_edge(g: CNFGrammar, transitions) -> dict:
    """Reference for ``intersection.realized_rows``: its loop as it was
    before leaf triples were seeded, in which every edge triple enters the
    worklist and leaves it, and each join's new triples are pushed by a
    list comprehension."""
    rows: dict = {a: {} for a in g.nonterminals}
    cols: dict = {a: {} for a in g.nonterminals}
    terminal_rules, _pair_rules, child_rules = g.rule_index
    # Per nonterminal, the binary rules it is a child of, as (parent, the
    # parent's sets that the join extends, the parent's sets on the other
    # side, the partner's sets by shared node, whether the partner is the
    # right child): for P -> B C, a left child (B, i, k) reads ``rows[C][k]``
    # and extends ``rows[P][i]``, and a right child (C, k, j) reads
    # ``cols[B][k]`` and extends ``cols[P][j]``.
    joins: dict[str, list[tuple[str, dict, dict, dict, bool]]] = {
        child: [
            (p, rows[p], cols[p], rows[c], True) if right else (p, cols[p], rows[p], cols[c], False)
            for p, c, right in rules
        ]
        for child, rules in child_rules.items()
    }

    work: list = []
    for src, label, dst in transitions:
        for _pid, head in terminal_rules.get(label, ()):
            row = rows[head].setdefault(src, set())
            if dst not in row:
                row.add(dst)
                cols[head].setdefault(dst, set()).add(src)
                work.append((head, src, dst))

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
            if on_right:
                work += [(parent, own, k) for k in new]
            else:
                work += [(parent, k, own) for k in new]
    return rows


def productions_for(tg, triple):
    """All product productions with the given head, as
    (base production id, payload) where payload is either
    ("edge", terminal) or ("pair", left triple, right triple)."""
    head, i, j = triple
    for pid, prod in enumerate(tg.grammar.productions):
        if prod.lhs != head:
            continue
        if len(prod.rhs) == 1:
            if (i, prod.rhs[0], j) in tg.automaton.transitions:
                yield pid, ("edge", prod.rhs[0])
        elif len(prod.rhs) == 2:
            b, c = prod.rhs
            for k in sorted(tg.automaton.states):
                yield pid, ("pair", (b, i, k), (c, k, j))


def materialize(tg, start) -> CNFGrammar:
    """Flatten the product into an ordinary CNF grammar rooted at one triple.

    Triple nonterminals are mangled to "A@i@j".  Only realizable triples are
    kept so the result satisfies the usefulness invariant.  Intended for
    small instances (tests, cross-checks).
    """
    table = shortest_words(tg)
    if start not in table.entries:
        raise UnrealizableTripleError("triple %r derives no word" % (start,))
    realizable = table.realizable()

    def mangle(t) -> str:
        return "%s@%s@%s" % t

    productions: list[Production] = []
    for triple in sorted(realizable):
        for pid, payload in productions_for(tg, triple):
            if payload[0] == "edge":
                productions.append(Production(mangle(triple), (payload[1],)))
            else:
                _, left, right = payload
                if left in realizable and right in realizable:
                    productions.append(
                        Production(mangle(triple), (mangle(left), mangle(right)))
                    )
    nonterminals = frozenset(p.lhs for p in productions)
    raw = Grammar(tg.grammar.terminals, nonterminals, tuple(productions), mangle(start))
    trimmed = trim_useless(raw)
    return CNFGrammar(
        terminals=trimmed.terminals,
        nonterminals=trimmed.nonterminals,
        productions=trimmed.productions,
        start=mangle(start),
        epsilon_at_start=False,
    )


# Multi-character terminals whose sorted order (down, flat, up) is not the
# order of the letters they replace.
UP_DOWN_FLAT = {"a": "up", "b": "down", "c": "flat"}


def rename_terminals(g: CNFGrammar, names) -> CNFGrammar:
    """The grammar with each terminal a renamed to names[a]."""
    productions = tuple(
        Production(p.lhs, (names[p.rhs[0]],) if len(p.rhs) == 1 else p.rhs)
        for p in g.productions
    )
    return CNFGrammar(
        frozenset(names[a] for a in g.terminals), g.nonterminals, productions, g.start,
        g.epsilon_at_start,
    )


def resolve_by_tuple_words(g: CNFGrammar, transitions, closure) -> dict:
    """Reference for the entries of ``ProductClosure``: the canonical
    (word, production id, left, right) of every realizable triple, with the
    word a tuple of terminal names.  Triples are resolved shortest first
    from the closure's lengths and splits; a triple of length 1 takes the
    smallest (word, production id) of its edges, found here from the
    grammar's terminal rules.  Returns the entries and the number of
    triples whose smallest word came from two or more splits."""
    edges: dict = {}
    for src, label, dst in transitions:
        for pid, prod in enumerate(g.productions):
            if prod.rhs == (label,):
                triple, step = (prod.lhs, src, dst), ((label,), pid)
                if triple not in edges or step < edges[triple]:
                    edges[triple] = step
    entries: dict = {}
    tied = 0
    for triple in sorted(closure.lengths, key=closure.lengths.__getitem__):
        splits = closure.splits(triple)
        if not splits:
            word, pid = edges[triple]
            entries[triple] = (word, pid, None, None)
            continue
        candidates = sorted(
            (entries[left][0] + entries[right][0], pid, left[2], left, right)
            for pid, left, right in splits
        )
        word, pid, _k, left, right = candidates[0]
        tied += len(candidates) > 1 and candidates[1][0] == word
        entries[triple] = (word, pid, left, right)
    return entries, tied


def resolve_below_two_pass(closure: ProductClosure, triple) -> None:
    """Reference for ``ProductClosure._resolve_below``: the two-pass
    resolver.  The first pass finds every unresolved triple below
    ``triple`` and keeps its split list (none for a triple of length 1);
    the second sorts all of them by length and hands each to
    ``closure._resolve``, shortest first.  Assign it, bound, to a closure's
    ``_resolve_below`` to make ``code`` and ``path_and_word`` use it."""
    steps = closure.steps
    if triple in steps:
        return
    lengths = closure.lengths
    found_by: dict = {}
    stack = [triple]
    while stack:
        t = stack.pop()
        if t not in found_by and t not in steps:
            found_by[t] = found = closure.splits(t) if lengths[t] > 1 else []
            for _pid, left, right in found:
                stack += (left, right)
    for t in sorted(found_by, key=lengths.__getitem__):
        closure._resolve(t, found_by.pop(t))


def tree_by_steps(entries: dict, root) -> ParseTree:
    """Reference for witness trees: the canonical tree of ``root`` rebuilt
    node by node from ``resolve_by_tuple_words`` entries.  Every occurrence
    of a triple or a terminal gets new nodes, so no subtree is shared."""
    done: list = []
    stack = [(root, False)]
    while stack:
        triple, expanded = stack.pop()
        word, _pid, left, right = entries[triple]
        if left is None:
            done.append(ParseTree(triple[0], [ParseTree(word[0])]))
        elif not expanded:
            stack += [(triple, True), (right, False), (left, False)]
        else:
            right_tree = done.pop()
            done.append(ParseTree(triple[0], [done.pop(), right_tree]))
    return done.pop()


_DataclassTree = dataclasses.make_dataclass("ParseTree", ["label", "children"], frozen=True)


def repr_by_dataclass(tree: ParseTree) -> str:
    """Reference for ``ParseTree.__repr__``: the repr that ``dataclasses``
    generates for a class named ParseTree with the fields label and
    children, taken of a copy of ``tree``.  Recurses with the height of the
    tree, so it is for small trees only."""

    def copy(node):
        return _DataclassTree(node.label, tuple(copy(child) for child in node.children))

    return repr(copy(tree))


def cyk_tree_by_chart(g: CNFGrammar, word):
    """Reference for ``cyk_parse`` that shares no code with it: a chart of
    every derivable span filled shortest first by trying every binary
    production at every split, then the tree read top down, each node
    taking its first binary production with a split and that production's
    least split point.  New nodes for every occurrence; None when the
    grammar does not derive the word."""
    w = tuple(word)
    n = len(w)
    if not n:
        return ParseTree(g.start, [ParseTree(EPSILON)]) if g.epsilon_at_start else None
    binary = [p for p in g.productions if len(p.rhs) == 2]
    chart = {(p.lhs, i, i + 1) for i, a in enumerate(w) for p in g.productions if p.rhs == (a,)}

    def first_split(head, i, j):
        for p in binary:
            if p.lhs == head:
                b, c = p.rhs
                for k in range(i + 1, j):
                    if (b, i, k) in chart and (c, k, j) in chart:
                        return (b, i, k), (c, k, j)
        return None

    heads = {p.lhs for p in binary}
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            for head in heads:
                if first_split(head, i, i + length):
                    chart.add((head, i, i + length))
    if (g.start, 0, n) not in chart:
        return None
    done: list = []
    stack = [((g.start, 0, n), False)]
    while stack:
        triple, expanded = stack.pop()
        head, i, j = triple
        if j == i + 1:
            done.append(ParseTree(head, [ParseTree(w[i])]))
        elif not expanded:
            left, right = first_split(head, i, j)
            stack += [(triple, True), (right, False), (left, False)]
        else:
            right_tree = done.pop()
            done.append(ParseTree(head, [done.pop(), right_tree]))
    return done.pop()


def cyk_parse_by_closure(g: CNFGrammar, word):
    """Reference for ``cyk_parse``: the parse tree read from a full
    ``ProductClosure`` over the word's chain automaton, each node taking
    its least split (production id, then split position), or None when
    the grammar does not derive the word."""
    w = tuple(word)
    if not w:
        return ParseTree(g.start, (ParseTree(EPSILON),)) if g.epsilon_at_start else None
    product = ProductClosure(g, [(p, a, p + 1) for p, a in enumerate(w)])
    root = (g.start, 0, len(w))
    if root not in product.lengths:
        return None

    def parts(triple):
        _, i, j = triple
        if j == i + 1:
            return (w[i],)
        _pid, left, right = min(product.splits(triple))
        return left, right

    return derivation_tree(root, parts, {})


def splits_by_node_scan(g: CNFGrammar, lengths, nodes, triple) -> list:
    """Reference for ``ProductClosure.splits``: every (production id, left,
    right) with left and right realized and their lengths summing to the
    triple's, found by trying every binary rule of its head at every node.
    Sorted."""
    head, i, j = triple
    found = []
    for pid, prod in enumerate(g.productions):
        if prod.lhs == head and len(prod.rhs) == 2:
            b, c = prod.rhs
            for k in nodes:
                left, right = (b, i, k), (c, k, j)
                if left in lengths and right in lengths and (
                    lengths[left] + lengths[right] == lengths[triple]
                ):
                    found.append((pid, left, right))
    return sorted(found)


def sweep_by_tuple_words(g: CNFGrammar, automata):
    """Reference for the reduction of ``measure_rho``: per automaton the
    smallest (length, word) over its start triples from tuple-word entries,
    or the empty word; the estimate is the largest length, ties to the
    smallest word, then the smallest id.  Returns (value, word, id, tested)."""
    best = None
    tested = 0
    for ident, nfa in automata:
        tested += 1
        if g.epsilon_at_start and nfa.initial & nfa.accepting:
            found = (0, ())
        else:
            closure = ProductClosure(g, nfa.transitions)
            entries, _ = resolve_by_tuple_words(g, nfa.transitions, closure)
            found = min(
                (
                    (len(word), word)
                    for (head, i, j), (word, *_rest) in entries.items()
                    if head == g.start and i in nfa.initial and j in nfa.accepting
                ),
                default=None,
            )
        if found is None:
            continue
        if best is None or found[0] > best[0] or (
            found[0] == best[0] and (found[1], ident) < best[1:]
        ):
            best = (found[0], found[1], ident)
    return (best or (None, None, None)) + (tested,)


def start_pairs_scan(tg) -> list[tuple[str, str]]:
    """Every initial x accepting pair, in sorted order."""
    nfa = tg.automaton
    return [(i, j) for i in sorted(nfa.initial) for j in sorted(nfa.accepting)]


def shortest_start_scan(tg, table):
    """Reference for ``shortest_start``: scan every start pair in sorted
    order, keeping the first of equal (length, word); the empty word wins
    when the grammar derives it and some start pair has equal endpoints."""
    pairs = start_pairs_scan(tg)
    best = None
    if tg.grammar.epsilon_at_start and any(i == j for i, j in pairs):
        best = (0, (), None)
    for i, j in pairs:
        triple = (tg.grammar.start, i, j)
        entry = table.entries.get(triple)
        if entry is None:
            continue
        candidate = (entry.length, entry.word, triple)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    return best


def realizable_start_pairs_scan(tg, table) -> frozenset[tuple[str, str]]:
    """Reference for ``realizable_start_pairs``: the start pairs whose start
    triple is realizable, plus the equal-endpoint pairs when the grammar
    derives the empty word."""
    pairs = start_pairs_scan(tg)
    found = {(i, j) for i, j in pairs if (tg.grammar.start, i, j) in table.entries}
    if tg.grammar.epsilon_at_start:
        found.update((i, j) for i, j in pairs if i == j)
    return frozenset(found)


def measure_rho_without_floor(g: CNFGrammar, n: int, strategy) -> RhoEstimate:
    """Reference for ``measure_rho``: every tested automaton's shortest
    start word from its whole ``shortest_words`` table, read by
    ``shortest_start_scan``; the estimate has the largest length, ties to
    the smallest word, then the smallest id.  Like ``measure_rho``, raises
    ``BudgetExceededError`` with the partial estimate when an exhaustive
    sweep has more automata than its budget.  An exhaustive sweep's automata
    come from ``automata_by_scan``, not from ``ratindex``."""
    exhaustive = isinstance(strategy, Exhaustive)
    budget = strategy.budget if exhaustive else None
    letters = sorted(g.terminals)
    automata = automata_by_scan(n, letters) if exhaustive else _automata_for(strategy, n, letters)
    best = None
    tested = 0
    truncated = False
    for ident, nfa in automata:
        if tested == budget:
            truncated = True
            break
        tested += 1
        product = bar_hillel(g, nfa)
        found = shortest_start_scan(product, shortest_words(product))
        if found is not None:
            key = (-found[0], found[1], ident)
            if best is None or key < best[0]:
                best = (key, nfa)
    estimate = RhoEstimate(
        n=n,
        value=-best[0][0] if best else None,
        witness_automaton=best[1] if best else None,
        witness_word=best[0][1] if best else None,
        witness_id=best[0][2] if best else None,
        tested_count=tested,
        exhaustive=exhaustive and not truncated,
    )
    if truncated:
        raise BudgetExceededError("budget of %d automata exceeded" % budget, estimate)
    return estimate


def canonical_sets_by_scan(m: int, alphabet):
    """Reference for ``measure._canonical_sets`` at size m: every raw
    transition set in increasing order of its bits (bit b the b-th cell
    (state, letter, state) in sorted order), kept when no state permutation
    sorts its list of cell indices lower.  Yields (bits, transitions, pairs),
    pairs the (initial, accepting) tuples of state indices, in order, that
    no permutation mapping the set to itself sorts lower."""
    letters = tuple(sorted(alphabet))
    states = tuple("q%d" % i for i in range(m))
    cells = [(s, ai, t) for s in range(m) for ai in range(len(letters)) for t in range(m)]
    rank = {cell: b for b, cell in enumerate(cells)}
    state_sets = [c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)]
    # every permutation but the identity, which comes first
    images = [
        (
            [rank[(perm[s], ai, perm[t])] for s, ai, t in cells],
            {c: tuple(sorted(perm[s] for s in c)) for c in state_sets},
        )
        for perm in list(itertools.permutations(range(m)))[1:]
    ]
    for bits in range(1 << len(cells)):
        present = [b for b in range(len(cells)) if bits & (1 << b)]
        automorphisms = []
        for cell_image, image in images:
            relabeled = sorted(cell_image[b] for b in present)
            if relabeled < present:
                break
            if relabeled == present:
                automorphisms.append(image)
        else:
            pairs = [
                (initial, accepting)
                for initial in state_sets
                for accepting in state_sets
                if all(
                    (image[initial], image[accepting]) >= (initial, accepting)
                    for image in automorphisms
                )
            ]
            transitions = frozenset(
                (states[s], letters[ai], states[t]) for s, ai, t in (cells[b] for b in present)
            )
            yield bits, transitions, pairs


def automata_by_scan(max_states: int, alphabet):
    """Reference for ``measure.enumerate_nfas``: the (id, NFA) of every
    canonical pair of every set of ``canonical_sets_by_scan``, in order."""
    letters = frozenset(alphabet)
    for m in range(1, max_states + 1):
        states = tuple("q%d" % i for i in range(m))
        for bits, transitions, pairs in canonical_sets_by_scan(m, alphabet):
            for initial, accepting in pairs:
                ident = "enum_m%d_t%x_i%s_f%s" % (
                    m, bits, "".join(map(str, initial)), "".join(map(str, accepting))
                )
                yield ident, NFA(
                    frozenset(states),
                    letters,
                    transitions,
                    frozenset(states[s] for s in initial),
                    frozenset(states[s] for s in accepting),
                )


def _encode(
    m: int, transitions: frozenset[tuple[int, int, int]], initial: frozenset[int],
    accepting: frozenset[int],
) -> tuple:
    return (m, tuple(sorted(transitions)), tuple(sorted(initial)), tuple(sorted(accepting)))


def _is_canonical(
    m: int,
    transitions: frozenset[tuple[int, int, int]],
    initial: frozenset[int],
    accepting: frozenset[int],
) -> bool:
    me = _encode(m, transitions, initial, accepting)
    for perm in itertools.permutations(range(m)):
        relabeled = _encode(
            m,
            frozenset((perm[s], a, perm[t]) for s, a, t in transitions),
            frozenset(perm[s] for s in initial),
            frozenset(perm[s] for s in accepting),
        )
        if relabeled < me:
            return False
    return True


def enumerate_nfas_bruteforce(max_states: int, alphabet):
    """Reference for ``measure.enumerate_nfas``: every (transitions, initial,
    accepting) candidate in the same order, kept when no state permutation
    gives it a smaller encoding.  Yields (id, transitions, initial,
    accepting) with state names q0, q1, ..."""
    letters = tuple(sorted(alphabet))
    for m in range(1, max_states + 1):
        states = tuple("q%d" % i for i in range(m))
        cells = [(s, ai, t) for s in range(m) for ai in range(len(letters)) for t in range(m)]
        state_sets = [
            frozenset(c)
            for size in range(1, m + 1)
            for c in itertools.combinations(range(m), size)
        ]
        for bits in range(1 << len(cells)):
            transitions = frozenset(cells[b] for b in range(len(cells)) if bits & (1 << b))
            for initial in state_sets:
                for accepting in state_sets:
                    if not _is_canonical(m, transitions, initial, accepting):
                        continue
                    ident = "enum_m%d_t%x_i%s_f%s" % (
                        m,
                        bits,
                        "".join(str(s) for s in sorted(initial)),
                        "".join(str(s) for s in sorted(accepting)),
                    )
                    yield (
                        ident,
                        frozenset((states[s], letters[ai], states[t]) for s, ai, t in transitions),
                        frozenset(states[s] for s in initial),
                        frozenset(states[s] for s in accepting),
                    )


def walks_up_to(graph: LabeledGraph, max_edges: int):
    """All walks with 1..max_edges edges as (source, target, word)."""
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for src, label, dst in sorted(graph.edges):
        adjacency.setdefault(src, []).append((label, dst))
    out = []

    def extend(start: str, node: str, word: tuple[str, ...]) -> None:
        for label, dst in adjacency.get(node, ()):
            w2 = word + (label,)
            out.append((start, dst, w2))
            if len(w2) < max_edges:
                extend(start, dst, w2)

    for node in sorted(graph.nodes):
        extend(node, node, ())
    return out


def naive_datalog_fixpoint(program, graph: LabeledGraph) -> frozenset[tuple[str, str]]:
    """Bottom-up evaluation of a chain program over a graph database."""
    relations: dict[str, set[tuple[str, str]]] = {}
    for pred in program.edge_predicates:
        label = pred.lower()
        relations[pred] = {
            (src, dst) for src, lbl, dst in graph.edges if lbl == label
        }
    for rule in program.rules:
        relations.setdefault(rule.head, set())
        for pred in rule.body:
            relations.setdefault(pred, set())
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            pairs = {(x, x) for x in graph.nodes} if not rule.body else None
            for idx, pred in enumerate(rule.body):
                if idx == 0:
                    pairs = set(relations[pred])
                else:
                    by_source: dict[str, list[str]] = {}
                    for a, b in relations[pred]:
                        by_source.setdefault(a, []).append(b)
                    pairs = {
                        (x, c)
                        for x, y in pairs
                        for c in by_source.get(y, ())
                    }
            new = pairs - relations[rule.head]
            if new:
                relations[rule.head] |= new
                changed = True
    return frozenset(relations.get(program.query, set()))


# --- superlinear conditions, restated independently -----------------------


def _sl_core_ok(g: Grammar, nt: str, core: frozenset[str]) -> bool:
    for prod in g.productions:
        if prod.lhs != nt:
            continue
        rhs = prod.rhs
        if all(s in g.terminals for s in rhs):
            continue
        if (
            len(rhs) == 2
            and rhs[0] in g.terminals
            and rhs[1] in core
        ):
            continue
        if (
            len(rhs) == 2
            and rhs[1] in g.terminals
            and rhs[0] in core
        ):
            continue
        return False
    return True


def _sl_outer_ok(g: Grammar, nt: str, core: frozenset[str]) -> bool:
    for prod in g.productions:
        if prod.lhs != nt:
            continue
        rhs = prod.rhs
        if all(s in g.terminals for s in rhs):
            continue
        if (
            len(rhs) == 2
            and rhs[0] in core
            and rhs[1] in g.nonterminals
        ):
            continue
        # one-sided linear with the nonterminal in the core
        if rhs and rhs[0] in core and all(s in g.terminals for s in rhs[1:]):
            continue
        if rhs and rhs[-1] in core and all(s in g.terminals for s in rhs[:-1]):
            continue
        return False
    return True


def superlinear_exhaustive(g: Grammar) -> bool:
    """Try every candidate core subset N_L."""
    nts = sorted(g.nonterminals)
    for mask in range(1 << len(nts)):
        core = frozenset(nts[b] for b in range(len(nts)) if mask & (1 << b))
        if all(_sl_core_ok(g, nt, core) for nt in core) and all(
            _sl_outer_ok(g, nt, core) for nt in g.nonterminals - core
        ):
            return True
    return False


def expansive_bruteforce(
    g: Grammar, target: str, max_steps: int = 10, max_forms: int = 50_000
) -> bool:
    """Search sentential forms derivable from the target for two occurrences
    of it.  Bounded (depth and breadth), so usable on small grammars only."""
    index = g.by_lhs()
    start_form = (target,)
    seen = {start_form}
    frontier = [start_form]
    for _ in range(max_steps):
        next_frontier = []
        for form in frontier:
            for pos, sym in enumerate(form):
                if sym in g.terminals:
                    continue
                for _, prod in index.get(sym, ()):
                    new_form = form[:pos] + prod.rhs + form[pos + 1 :]
                    if len(new_form) > 24 or new_form in seen:
                        continue
                    if new_form.count(target) >= 2:
                        return True
                    seen.add(new_form)
                    next_frontier.append(new_form)
                    if len(seen) > max_forms:
                        return False
        frontier = next_frontier
        if not frontier:
            break
    return False


# The nesting-forest oscillation: build the forest of matching pairs, then
# fold it bottom-up in post-order with a table keyed by node identity.


class _PairNode:
    __slots__ = ("open", "close", "children")

    def __init__(self, open_pos: int, close_pos: int):
        self.open = open_pos
        self.close = close_pos
        self.children: list[_PairNode] = []


def matching_forest(word: WellNestedWord) -> list[_PairNode]:
    """The nesting forest of the matching pairs, children in word order."""
    roots: list[_PairNode] = []
    stack: list[_PairNode] = []
    for pos, move in enumerate(word.moves, start=1):
        if move == PUSH:
            node = _PairNode(pos, -1)
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        else:
            if not stack:
                raise UnbalancedWordError("pop at position %d has no matching push" % pos)
            stack.pop().close = pos
    if stack:
        raise UnbalancedWordError("push at position %d has no matching pop" % stack[-1].open)
    return roots


def oscillation_by_forest(word: WellNestedWord) -> int:
    """Largest k such that deleting matching pairs leaves exactly harmonic(k).

    Computed by a bottom-up pass over the matching forest.  For a forest F,
    let c(v) be the answer for the pairs strictly inside v; then the answer
    for F is one more than the best min(c(u), c(v)) over incomparable nodes
    u, v of F (zero when no two nodes are incomparable): an embedded
    harmonic of order k+1 is two incomparable pairs each hiding an order-k
    harmonic.
    """
    roots = matching_forest(word)

    # Per node we keep c (answer inside), best (max c in the node's subtree)
    # and m (best min over incomparable pairs within the subtree's inside).
    info: dict[int, tuple[int, int, int]] = {}

    def combine(children: list[_PairNode]) -> int:
        m = -1
        best_vals = []
        for child in children:
            c_child, best_child, m_child = info[id(child)]
            best_vals.append(best_child)
            m = max(m, m_child)
        if len(best_vals) >= 2:
            best_vals.sort(reverse=True)
            m = max(m, best_vals[1])
        return m

    stack: list[tuple[_PairNode, bool]] = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            m_inside = combine(node.children)
            c = m_inside + 1 if m_inside >= 0 else 0
            best = max([c] + [info[id(ch)][1] for ch in node.children])
            info[id(node)] = (c, best, m_inside)
        else:
            stack.append((node, True))
            stack.extend((ch, False) for ch in reversed(node.children))

    m_top = combine(roots)
    return m_top + 1 if m_top >= 0 else 0


# --- graph and automaton files, parsed and checked line by line and edge by edge


def parse_edge_lines_by_line(text: str, allow_headers: bool):
    """The edges of a graph or NFA text and its `initial:` and `accepting:`
    names, one line at a time."""
    edges = []
    initial = None
    accepting = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("initial:") or line.startswith("accepting:"):
            if not allow_headers:
                raise GraphFormatError("line %d: header line in a plain graph file" % lineno)
            key, _, rest = line.partition(":")
            names = rest.split()
            if key == "initial":
                initial = names
            else:
                accepting = names
            continue
        parts = raw.split("\t") if "\t" in raw else line.split()
        parts = [p.strip() for p in parts if p.strip()]
        if len(parts) != 3:
            raise GraphFormatError(
                "line %d: expected `source<TAB>label<TAB>target`" % lineno
            )
        edges.append((parts[0], parts[1], parts[2]))
    return edges, initial, accepting


def graph_fields_by_edge(nodes, alphabet, edges):
    """The fields of `LabeledGraph(nodes, alphabet, edges)`, each edge copied
    and checked in turn, or the GraphFormatError that names the first bad one."""
    nodes, alphabet = frozenset(nodes), frozenset(alphabet)
    edges = frozenset(tuple(e) for e in edges)
    for src, label, dst in edges:
        if src not in nodes or dst not in nodes:
            raise GraphFormatError("edge endpoint not among nodes: %r" % ((src, label, dst),))
        if label not in alphabet:
            raise GraphFormatError("edge label %r not in alphabet" % label)
    return nodes, alphabet, edges


def nfa_fields_by_edge(states, alphabet, transitions, initial, accepting):
    """The fields of `NFA(...)`, each transition copied and checked in turn,
    or the GraphFormatError that names the first bad one."""
    states, alphabet = frozenset(states), frozenset(alphabet)
    transitions = frozenset(tuple(t) for t in transitions)
    initial, accepting = frozenset(initial), frozenset(accepting)
    if not initial <= states or not accepting <= states:
        raise GraphFormatError("initial/accepting states must be states")
    for src, label, dst in transitions:
        if src not in states or dst not in states:
            raise GraphFormatError("transition endpoint not among states")
        if label not in alphabet:
            raise GraphFormatError("transition label %r not in alphabet" % label)
    return states, alphabet, transitions, initial, accepting


def graph_fields_from_edges(edges, nodes=()):
    """The fields of `LabeledGraph.from_edges(edges, nodes)`: nodes and labels
    gathered edge by edge."""
    edge_set = frozenset(tuple(e) for e in edges)
    node_set = set(nodes)
    labels = set()
    for src, label, dst in edge_set:
        node_set.add(src)
        node_set.add(dst)
        labels.add(label)
    return graph_fields_by_edge(node_set, labels, edge_set)


def parse_graph_by_line(text: str):
    """The fields of `parse_graph(text)`."""
    edges, _, _ = parse_edge_lines_by_line(text, allow_headers=False)
    return graph_fields_from_edges(edges)


def parse_nfa_by_line(text: str):
    """The fields of `parse_nfa(text)`."""
    edges, initial, accepting = parse_edge_lines_by_line(text, allow_headers=True)
    if initial is None or accepting is None:
        raise GraphFormatError("an NFA file needs `initial:` and `accepting:` lines")
    states = set(initial) | set(accepting)
    labels = set()
    for src, label, dst in edges:
        states.add(src)
        states.add(dst)
        labels.add(label)
    return nfa_fields_by_edge(states, labels, edges, initial, accepting)


def random_nfa_by_comprehension(rng, n_states: int, alphabet, density: float = 0.3) -> NFA:
    """Reference for ``sampling.random_nfa``: one ``rng.random()`` per
    transition (src, label, dst) in the order of a set comprehension over
    states, alphabet and states, then one per state for the initial and one
    per state for the accepting states; q0 is initial and the last state
    accepting when none is drawn."""
    states = tuple("q%d" % i for i in range(n_states))
    transitions = {
        (src, label, dst)
        for src in states
        for label in alphabet
        for dst in states
        if rng.random() < density
    }
    initial = frozenset(s for s in states if rng.random() < 0.5) or frozenset({states[0]})
    accepting = frozenset(s for s in states if rng.random() < 0.5) or frozenset(
        {states[-1]}
    )
    return NFA(
        frozenset(states), frozenset(alphabet), frozenset(transitions), initial, accepting
    )


def drop_nullable_by_masks(rhs, nullable) -> list[tuple[str, ...]]:
    """Reference for ``grammar._drop_nullable``: every drop mask 0, 1, ...,
    2^k - 1 over the k nullable occurrences of the body (bit b drops the
    b-th one), each body kept at its first appearance."""
    positions = [i for i, s in enumerate(rhs) if s in nullable]
    bodies = {}
    for mask in range(1 << len(positions)):
        dropped = {p for b, p in enumerate(positions) if mask >> b & 1}
        bodies.setdefault(tuple(s for i, s in enumerate(rhs) if i not in dropped), None)
    return list(bodies)


def is_valid_parse_tree_by_stack(g: Grammar, tree: ParseTree, require_start: bool = False) -> bool:
    """Reference for ``grammar.is_valid_parse_tree`` with its own stack: a
    leaf is a terminal or ``ε``, and an internal node is a nonterminal that
    applies a production, the rule (label, ()) when its only child is an
    ``ε``.  It does not descend below such a child, so a tree whose ``ε``
    has children of its own may pass here and fail there."""
    if require_start and tree.label != g.start:
        return False
    rules = {(p.lhs, p.rhs) for p in g.productions}
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if node.label == EPSILON:
                continue
            if node.label not in g.terminals:
                return False
            continue
        if node.label not in g.nonterminals:
            return False
        if len(node.children) == 1 and node.children[0].label == EPSILON:
            if (node.label, ()) not in rules:
                return False
            continue
        body = tuple(c.label for c in node.children)
        if (node.label, body) not in rules:
            return False
        stack.extend(node.children)
    return True
