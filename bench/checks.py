"""Correctness checks for the benchmark's outputs, written apart from ratindex.

They use their own recognisers, NFA simulation, path and tree checks, a
semi-naive Datalog fixpoint and a local-optimality certificate for shortest
lengths, and run after the timed passes.  Every function returns a list of
problems; an empty list means the outputs passed.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

from workloads import PROGRAM_RULES


def dyck(word, brackets) -> bool:
    stack = []
    for symbol in word:
        if symbol in brackets:
            stack.append(brackets[symbol])
        elif not stack or stack.pop() != symbol:
            return False
    return bool(word) and not stack


def a_m_b_km(word, k) -> bool:
    m = 0
    while m < len(word) and word[m] == "a":
        m += 1
    return m >= 1 and tuple(word) == ("a",) * m + ("b",) * (k * m)


LANGUAGES = {
    "dyck1": lambda w: dyck(w, {"a": "b"}),
    "dyck2": lambda w: dyck(w, {"a": "b", "c": "d"}),
    "anbn": lambda w: a_m_b_km(w, 1),
    "amb2m": lambda w: a_m_b_km(w, 2),
}


def two_cycle_length(grammar, p, q) -> int:
    """Shortest a^i b^j of the language with p | i, q | j and j >= 1."""
    if grammar == "amb2m":
        return 3 * lcm(p, q // gcd(q, 2))
    return 2 * lcm(p, q)


def accepts(nfa, word) -> bool:
    step = defaultdict(set)
    for src, label, dst in nfa.transitions:
        step[src, label].add(dst)
    current = set(nfa.initial)
    for symbol in word:
        current = {t for s in current for t in step[s, symbol]}
    return bool(current & set(nfa.accepting))


def path_ok(edges, nodes, word, source, target) -> bool:
    return (
        len(nodes) == len(word) + 1
        and nodes[0] == source
        and nodes[-1] == target
        and all((nodes[i], word[i], nodes[i + 1]) in edges for i in range(len(word)))
    )


def tree_ok(tree, productions, root, word) -> bool:
    """The root is labelled `root`, every inner node applies a production
    and the leaves spell the word.  Iterative, so deep trees are fine."""
    rules = {(p.lhs, tuple(p.rhs)) for p in productions}
    if tree.label != root:
        return False
    leaves, stack = [], [tree]
    while stack:
        node = stack.pop()
        if not node.children:
            leaves.append(node.label)
            continue
        if (node.label, tuple(c.label for c in node.children)) not in rules:
            return False
        stack.extend(reversed(node.children))
    return tuple(leaves) == tuple(word)


def datalog_fixpoint(program, edges) -> set:
    """Bottom-up semi-naive evaluation of a chain program given as
    (query, [(head, body predicates)]); lowercase predicates are edge
    labels."""
    query, rules = PROGRAM_RULES[program]
    fwd = defaultdict(lambda: defaultdict(set))
    bwd = defaultdict(lambda: defaultdict(set))
    for src, label, dst in edges:
        fwd[label][src].add(dst)
        bwd[label][dst].add(src)
    idb = {head for head, _ in rules}
    full = defaultdict(set)

    def chain(pairs, body, position):
        for pred in reversed(body[:position]):
            pairs = {(w, y) for x, y in pairs for w in bwd[pred].get(x, ())}
        for pred in body[position + 1:]:
            pairs = {(x, z) for x, y in pairs for z in fwd[pred].get(y, ())}
        return pairs

    delta = defaultdict(set)
    for head, body in rules:
        if not idb & set(body):
            first = {(x, y) for x, ys in fwd[body[0]].items() for y in ys}
            delta[head] |= chain(first, body, 0)
    while any(delta.values()):
        for pred, pairs in delta.items():
            full[pred] |= pairs
            for x, y in pairs:
                fwd[pred][x].add(y)
                bwd[pred][y].add(x)
        fresh = defaultdict(set)
        for head, body in rules:
            for position, pred in enumerate(body):
                if pred in idb and delta[pred]:
                    fresh[head] |= chain(delta[pred], body, position) - full[head]
        delta = fresh
    return full[query]


def certify_shortest(cnf, edges, lengths) -> list[str]:
    """Local optimality of shortest lengths per triple: no rule applied to
    the reported triples gives a shorter length (or an unreported triple),
    and every reported length is reached by some rule.  With lengths >= 1
    this makes them the exact minima."""
    terminal = defaultdict(list)
    by_left = defaultdict(list)
    for prod in cnf.productions:
        if len(prod.rhs) == 1:
            terminal[prod.rhs[0]].append(prod.lhs)
        elif len(prod.rhs) == 2:
            by_left[prod.rhs[0]].append((prod.lhs, prod.rhs[1]))
    by_source = defaultdict(list)
    for (head, i, j), length in lengths.items():
        by_source[head, i].append((j, length))
    problems, reached = [], set()
    for src, label, dst in edges:
        for head in terminal[label]:
            triple = (head, src, dst)
            if lengths.get(triple) != 1:
                problems.append("edge %r gives %r length 1, reported %r"
                                % ((src, label, dst), triple, lengths.get(triple)))
            reached.add(triple)
    for (left, i, k), l1 in lengths.items():
        for head, right in by_left[left]:
            for j, l2 in by_source[right, k]:
                triple = (head, i, j)
                reported = lengths.get(triple)
                if reported is None or reported > l1 + l2:
                    problems.append("%r derivable with length %d, reported %r"
                                    % (triple, l1 + l2, reported))
                elif reported == l1 + l2:
                    reached.add(triple)
    unreached = [t for t, length in lengths.items() if length < 1 or t not in reached]
    if unreached:
        problems.append("%d reported lengths reached by no rule, e.g. %r"
                        % (len(unreached), unreached[0]))
    return problems[:5]


# ---------------------------------------------------------------------------
# Checks per kind of record
# ---------------------------------------------------------------------------


def check_round(inp, records) -> list[str]:
    problems: list[str] = []
    facts_by_query = {}
    for record in records:
        kind, item = record[0], record[1]
        if kind == "reach":
            problems += _check_reach(inp, item, record[2], record[3])
            facts_by_query[item["grammar"], item["graph"]] = record[2]
        elif kind == "datalog":
            graph = inp.graphs[item["graph"]]
            if set(record[2]) != datalog_fixpoint(item["program"], graph.edges):
                problems.append("datalog %s on %s differs from the fixpoint"
                                % (item["program"], item["graph"]))
        elif kind == "shortest":
            problems += _check_shortest(inp, item, *record[2:], facts_by_query)
        elif kind == "parse":
            problems += _check_parse(inp, item, *record[2:])
    problems += check_sweeps(inp, [r for r in records if r[0] == "sweep"])
    return problems


def _check_reach(inp, item, facts, paths) -> list[str]:
    graph, language = inp.graphs[item["graph"]], LANGUAGES[item["grammar"]]
    start = inp.cnf[item["grammar"]].start
    problems = []
    for (s, t), (nodes, word) in paths:
        if (start, s, t) not in facts:
            problems.append("witness for unreported pair %r" % ((s, t),))
        if not path_ok(graph.edges, nodes, word, s, t) or not language(word):
            problems.append("bad witness path %s -> %s on %s" % (s, t, item["graph"]))
        if item.get("chain") and len(word) != int(t[1:]) - int(s[1:]):
            problems.append("chain witness %s -> %s has length %d" % (s, t, len(word)))
    return problems


def _check_shortest(inp, item, table, best, witnesses, facts_by_query) -> list[str]:
    g = inp.cnf[item["grammar"]]
    name = item["automaton"]
    is_graph = name in inp.graphs
    automaton = inp.graphs[name] if is_graph else inp.nfas[name]
    edges = automaton.edges if is_graph else automaton.transitions
    language = LANGUAGES[item["grammar"]]
    lengths = {t: e.length for t, e in table.entries.items()}
    problems = ["shortest %s on %s: %s" % (item["grammar"], name, p)
                for p in certify_shortest(g, edges, lengths)]
    facts = facts_by_query.get((item["grammar"], name))
    if facts is not None and set(facts) != set(lengths):
        problems.append("reach facts differ from realised triples on %s" % name)
    if is_graph:
        starts = [(i, j) for i in automaton.nodes for j in automaton.nodes]
    else:
        starts = [(i, j) for i in automaton.initial for j in automaton.accepting]
    start_lengths = [lengths[t] for t in ((g.start, i, j) for i, j in starts) if t in lengths]
    if (best is None) != (not start_lengths) or (
            best is not None and best[0] != min(start_lengths)):
        problems.append("shortest_start on %s is %r" % (name, best and best[0]))
    for triple, w in witnesses:
        _, i, j = triple
        if len(w.word) != lengths.get(triple) or not language(w.word):
            problems.append("witness word for %r on %s" % (triple, name))
        if not path_ok(edges, w.path, w.word, i, j):
            problems.append("witness path for %r on %s" % (triple, name))
        if not tree_ok(w.tree, g.productions, g.start, w.word):
            problems.append("witness tree for %r on %s" % (triple, name))
        if item.get("chain"):
            half = (int(j[1:]) - int(i[1:])) // 2
            if tuple(w.word) != ("a",) * half + ("b",) * half:
                problems.append("chain word for %r is not a^%d b^%d" % (triple, half, half))
    if "two_cycle" in item:
        p, q = item["two_cycle"]
        if best is None or best[0] != two_cycle_length(item["grammar"], p, q):
            problems.append("two-cycle %d:%d shortest is %r" % (p, q, best and best[0]))
    return problems


def _check_parse(inp, item, member, tree, dim, osc) -> list[str]:
    g, word = inp.cnf[item["grammar"]], inp.words[item["word"]]
    expected = LANGUAGES[item["grammar"]](word)
    problems = []
    if member != expected:
        problems.append("cyk_membership(%s) is %r" % (item["word"], member))
    if item["tree"]:
        if (tree is not None) != expected:
            problems.append("cyk_parse(%s) presence is wrong" % item["word"])
        elif tree is not None:
            if not tree_ok(tree, g.productions, g.start, word):
                problems.append("cyk_parse(%s) tree is wrong" % item["word"])
            if not osc - 1 <= dim <= 2 * osc:
                problems.append("sandwich fails for %s: dim %d osc %d" % (item["word"], dim, osc))
    return problems


def check_estimate(grammar, estimate) -> list[str]:
    if estimate.value is None:
        return []
    word = estimate.witness_word
    if (len(word) != estimate.value or not LANGUAGES[grammar](word)
            or not accepts(estimate.witness_automaton, word)):
        return ["sweep witness %r for %s is wrong" % (estimate.witness_id, grammar)]
    return []


def check_sweeps(inp, records) -> list[str]:
    problems = []
    exact, sampled, pooled = {}, {}, {}

    def value(estimate):
        return -1 if estimate.value is None else estimate.value

    for _, item, estimate in records:
        grammar, n, spec = item["grammar"], item["n"], item["strategy"]
        problems += check_estimate(grammar, estimate)
        if spec[0] == "two-cycle":
            if estimate.value != two_cycle_length(grammar, spec[1], spec[2]):
                problems.append("two-cycle %d:%d on %s gives %r"
                                % (spec[1], spec[2], grammar, estimate.value))
        elif spec[0] == "exhaustive" and spec[1] is None:
            if not estimate.exhaustive:
                problems.append("exhaustive sweep n=%d on %s not exhaustive" % (n, grammar))
            exact[grammar, n] = value(estimate)
        elif spec[0] == "exhaustive":
            exact_below = exact.get((grammar, n - 1))
            if exact_below is None or value(estimate) < exact_below:
                problems.append("budgeted n=%d on %s below exact n=%d" % (n, grammar, n - 1))
        else:
            sampled.setdefault((grammar, n), []).append(value(estimate))
            pooled.setdefault((grammar, n, tuple(spec)), []).append(
                (estimate.value, estimate.witness_word, estimate.witness_id,
                 estimate.tested_count))
    for (grammar, n), values in sampled.items():
        if (grammar, n) in exact and max(values) > exact[grammar, n]:
            problems.append("random n=%d on %s beats exhaustive" % (n, grammar))
    for key, results in pooled.items():
        if len(set(results)) != 1:
            problems.append("workers change the estimate for %r" % (key,))
    return problems


def check_failing(inp, results) -> list[str]:
    """Answers of the known-failing operations, for when they succeed."""
    problems = []
    for item, result in results:
        if result is None:
            continue
        if item["kind"] == "rho":
            problems += check_estimate(item["grammar"], result)
            if result.value != two_cycle_length(item["grammar"], item["p"], item["q"]):
                problems.append("two-cycle %d:%d gives %r" % (item["p"], item["q"], result.value))
            continue
        if item["kind"] == "shortest":
            _, source, target = item["triple"]
            edges = inp.nfas[item["automaton"]].transitions
            nodes, word = result.path, result.word
        else:
            source, target = item["pair"]
            edges = inp.graphs[item["graph"]].edges
            nodes, word = result
        half = int(target[1:]) // 2
        if (tuple(word) != ("a",) * half + ("b",) * half
                or not path_ok(edges, nodes, word, source, target)):
            problems.append("%s across the chain is wrong" % item["kind"])
    return problems
