"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (chart fixpoints, breadth-first word
enumeration, exhaustive subset search) and shares no code paths with the
algorithms under test.
"""

from __future__ import annotations

import itertools
from collections import deque

from ratindex.grammar import CNFGrammar, Grammar, Production, cyk_membership, trim_useless
from ratindex.graphs import NFA, LabeledGraph
from ratindex.intersection import UnrealizableTripleError, shortest_words


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
