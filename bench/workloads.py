"""Seeded inputs and the timed passes of the ratindex benchmark.

A workload is a function of the seed that returns

* ``texts``: the text inputs (grammars, graphs, automata, chain Datalog
  programs and words), which set-up parses with ratindex's own parsers;
* ``plan``: the queries each pass runs, by input name.

The four passes are the same code for every workload; only the inputs and
the plan differ.  ``run_failing`` runs the operations that are known to fail
today, apart from the timed passes.
"""

from __future__ import annotations

import random
from math import gcd
from types import SimpleNamespace

GRAMMARS = {
    "dyck1": "S -> S S | a S b | a b\n",
    "dyck2": "S -> S S | a S b | c S d | a b | c d\n",
    "anbn": "S -> a S b | a b\n",
    "amb2m": "S -> a S b b | a b b\n",
}

PROGRAMS = {
    "sg": (
        "SG(x, y) :- Flat(x, y).\n"
        "SG(x, y) :- Up(x, z1), SG(z1, z2), Down(z2, y).\n"
        "?- SG\n"
    ),
    "desc": (
        "Desc(x, y) :- Child(x, y).\n"
        "Desc(x, y) :- Child(x, z), Desc(z, y).\n"
        "?- Desc\n"
    ),
}

#: The same programs as (query, [(head, body predicates)]) for the checks,
#: which evaluate them without ratindex's parser.
PROGRAM_RULES = {
    "sg": ("SG", [("SG", ["flat"]), ("SG", ["up", "SG", "down"])]),
    "desc": ("Desc", [("Desc", ["child"]), ("Desc", ["child", "Desc"])]),
}

#: Two-cycle sweeps that recurse too deeply today (witness lengths 1334
#: and 2294); the chain length of the failing shortest-word query; the
#: half-length of the chain (2k + 1 nodes) of the failing witness path.
FAILING_TWO_CYCLES = ((23, 29), (31, 37))
FAILING_SHORTEST_CHAIN = 600
FAILING_WITNESS_CHAIN = 600


# ---------------------------------------------------------------------------
# Text generators
# ---------------------------------------------------------------------------


def _edges_text(edges) -> str:
    return "".join("%s\t%s\t%s\n" % edge for edge in edges)


def _nfa_text(initial, accepting, edges) -> str:
    return "initial: %s\naccepting: %s\n%s" % (
        " ".join(initial), " ".join(accepting), _edges_text(edges))


def bracket_graph(rng, n, opens, closes, prefix):
    """Each node gets one opening and one closing out-edge, each to a
    uniformly chosen node: about two edges per node."""
    edges = []
    for u in range(n):
        for labels in (opens, closes):
            edges.append(("%s%d" % (prefix, u), rng.choice(labels),
                          "%s%d" % (prefix, rng.randrange(n))))
    return edges


def regular_graph(rng, n, opens, closes, prefix):
    """Opening edges along one random permutation of the nodes and closing
    edges along another: every node has one opening and one closing edge
    out and in.  Such graphs are strongly connected, so almost every node
    pair is related and the work varies little between seeds."""
    edges = []
    for labels in (opens, closes):
        image = list(range(n))
        rng.shuffle(image)
        edges += [("%s%d" % (prefix, u), rng.choice(labels), "%s%d" % (prefix, image[u]))
                  for u in range(n)]
    return edges


def level_tree(rng, sizes, prefix, extra_flat):
    """A tree with fixed level sizes and random parents: `up` from child to
    parent, `down` back, `flat` on the root and on a few random pairs."""
    levels, k = [], 0
    for size in sizes:
        levels.append(["%s%d" % (prefix, k + i) for i in range(size)])
        k += size
    edges = []
    for upper, lower in zip(levels, levels[1:]):
        for child in lower:
            parent = rng.choice(upper)
            edges += [(child, "up", parent), (parent, "down", child)]
    edges.append((levels[0][0], "flat", levels[0][0]))
    nodes = [v for level in levels for v in level]
    for _ in range(extra_flat):
        edges.append((rng.choice(nodes), "flat", rng.choice(nodes)))
    return edges


def child_tree(rng, n, prefix):
    """A random recursive tree with `child` edges from parent to child."""
    return [("%s%d" % (prefix, rng.randrange(v)), "child", "%s%d" % (prefix, v))
            for v in range(1, n)]


def anbn_chain(k, prefix):
    """Nodes 0..2k; k `a` steps then k `b` steps.  The pair (k-j, k+j)
    spells a^j b^j."""
    return [("%s%d" % (prefix, i), "a" if i < k else "b", "%s%d" % (prefix, i + 1))
            for i in range(2 * k)]


def updown_chain(rng, k, prefix, extra_flat):
    """An `up` chain u0..uk, a `down` chain dk..d0, `flat` from uk to dk and
    a few random `flat` edges u_i -> d_j."""
    edges = [("%su%d" % (prefix, i), "up", "%su%d" % (prefix, i + 1)) for i in range(k)]
    edges += [("%sd%d" % (prefix, i + 1), "down", "%sd%d" % (prefix, i)) for i in range(k)]
    edges.append(("%su%d" % (prefix, k), "flat", "%sd%d" % (prefix, k)))
    for _ in range(extra_flat):
        edges.append(("%su%d" % (prefix, rng.randrange(k)), "flat",
                      "%sd%d" % (prefix, rng.randrange(k))))
    return edges


def two_cycle_nfa(p, q):
    """An a-cycle of length p bridged by one `b` into a b-cycle of length q;
    it accepts a^i b^j exactly when p | i, q | j and j >= 1."""
    edges = [("A%d" % i, "a", "A%d" % ((i + 1) % p)) for i in range(p)]
    edges += [("B%d" % j, "b", "B%d" % ((j + 1) % q)) for j in range(q)]
    edges.append(("A0", "b", "B%d" % (1 % q)))
    return _nfa_text(["A0"], ["B0"], edges)


def random_nfa_text(rng, m, alphabet, density):
    states = ["q%d" % i for i in range(m)]
    edges = [(s, a, t) for s in states for a in alphabet for t in states
             if rng.random() < density]
    initial = [s for s in states if rng.random() < 0.5] or [states[0]]
    accepting = [s for s in states if rng.random() < 0.5] or [states[-1]]
    return _nfa_text(initial, accepting, edges)


def dyck_word(rng, pairs, brackets):
    """A uniformly stepped random word of the Dyck language on `brackets`
    (opening -> closing) with the given number of bracket pairs."""
    out, stack, left = [], [], pairs
    while left or stack:
        if left and (not stack or rng.random() < 0.5):
            opening = rng.choice(sorted(brackets))
            out.append(opening)
            stack.append(brackets[opening])
            left -= 1
        else:
            out.append(stack.pop())
    return "".join(out)


def spoil(rng, word, swap):
    """Replace one letter at a random position by its image under `swap`;
    with swap changing the letter count, the result is never a member of
    Dyck languages or of a^m b^(km)."""
    i = rng.randrange(len(word))
    return word[:i] + swap[word[i]] + word[i + 1:]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

AB = {"a": "b"}
ABCD = {"a": "b", "c": "d"}
FLIP = {"a": "b", "b": "a", "c": "d", "d": "c"}


def _empty():
    texts = {"grammars": {}, "graphs": {}, "nfas": {}, "programs": {}, "words": {}}
    plan = {"reach": [], "datalog": [], "shortest": [], "parse": [], "sweep": [],
            "failing": []}
    return texts, plan


def _picks(rng, count):
    return [rng.random() for _ in range(count)]


def _strata(rng, top, count):
    """One random integer from each of `count` equal slices of 1..top, so
    that their sum hardly depends on the seed."""
    width = top // count
    return [i * width + rng.randint(1, width) for i in range(count)]


def dense_graph(seed):
    rng = random.Random(seed)
    texts, plan = _empty()
    texts["grammars"] = {k: GRAMMARS[k] for k in ("dyck1", "dyck2")}
    texts["programs"] = {"sg": PROGRAMS["sg"]}
    for i in range(3):
        name = "regular%d" % i
        texts["graphs"][name] = _edges_text(regular_graph(rng, 64, "a", "b", "v"))
        plan["reach"].append({"grammar": "dyck1", "graph": name, "picks": _picks(rng, 20)})
        plan["shortest"].append({"grammar": "dyck1", "automaton": name, "picks": _picks(rng, 10)})
    texts["graphs"]["large"] = _edges_text(regular_graph(rng, 100, "a", "b", "v"))
    plan["reach"].append({"grammar": "dyck1", "graph": "large", "picks": _picks(rng, 20)})
    # Witness paths of the two-bracket grammar run to millions of symbols
    # on such graphs, so this one is queried for facts only.
    texts["graphs"]["brackets"] = _edges_text(regular_graph(rng, 64, "ac", "bd", "v"))
    plan["reach"].append({"grammar": "dyck2", "graph": "brackets", "picks": []})
    for i in range(2):
        name = "tree%d" % i
        texts["graphs"][name] = _edges_text(
            level_tree(rng, (1, 2, 4, 8, 16, 32, 64, 73), "t", 4))
        plan["datalog"].append({"program": "sg", "graph": name})
    for i in range(4):
        name = "nfa%d" % i
        texts["nfas"][name] = random_nfa_text(rng, 10, "ab", 0.15)
        plan["shortest"].append({"grammar": "dyck1", "automaton": name, "picks": []})
    for i in range(4):
        word = dyck_word(rng, 50, AB)
        texts["words"]["in%d" % i] = ["dyck1", word]
        texts["words"]["out%d" % i] = ["dyck1", spoil(rng, word, FLIP)]
        plan["parse"].append({"grammar": "dyck1", "word": "in%d" % i, "tree": True})
        plan["parse"].append({"grammar": "dyck1", "word": "out%d" % i, "tree": False})
    for grammar in ("dyck1", "dyck2"):
        plan["sweep"].append({"grammar": grammar, "n": 6, "workers": 1,
                              "strategy": ["random", 500, rng.randrange(1 << 30), 0.3]})
    return texts, plan


def deep_nesting(seed):
    rng = random.Random(seed)
    texts, plan = _empty()
    texts["grammars"] = {k: GRAMMARS[k] for k in ("anbn", "dyck1", "amb2m")}
    texts["programs"] = {"sg": PROGRAMS["sg"]}
    for k in (2000, 4000, 6000):
        name = "chain%d" % k
        texts["graphs"][name] = _edges_text(anbn_chain(k, "c"))
        pairs = [("c%d" % (k - j), "c%d" % (k + j)) for j in _strata(rng, 300, 40)]
        plan["reach"].append({"grammar": "anbn", "graph": name, "pairs": pairs, "chain": True})
    for k in (3000, 5000):
        name = "updown%d" % k
        texts["graphs"][name] = _edges_text(updown_chain(rng, k, "s", 2))
        plan["datalog"].append({"program": "sg", "graph": name})
    for k in (150, 200, 250, 300):
        name = "short%d" % k
        texts["graphs"][name] = _edges_text(anbn_chain(k, "c"))
        triples = [("S", "c%d" % (k - j), "c%d" % (k + j)) for j in [k] + _strata(rng, k, 4)]
        plan["shortest"].append({"grammar": "anbn", "automaton": name, "triples": triples,
                                 "chain": True})
    for p, q in ((7, 11), (11, 13), (13, 17)):
        name = "cycle%d_%d" % (p, q)
        texts["nfas"][name] = two_cycle_nfa(p, q)
        for grammar in ("anbn", "amb2m"):
            plan["shortest"].append({"grammar": grammar, "automaton": name, "triples": [],
                                     "two_cycle": (p, q)})
    # Fixed words: CYK's cost on a spoilt a^n b^n varies by a third with
    # the position of the spoilt letter.
    texts["words"]["in"] = ["anbn", "a" * 100 + "b" * 100]
    texts["words"]["out"] = ["anbn", "a" * 101 + "b" * 99]
    plan["parse"].append({"grammar": "anbn", "word": "in", "tree": True})
    plan["parse"].append({"grammar": "anbn", "word": "out", "tree": False})
    cycles = [(p, q) for p in range(2, 20) for q in (p + 1, p + 2)
              if q <= 23 and gcd(p, q) == 1] + [(19, 23)]
    for grammar in ("anbn", "dyck1", "amb2m"):
        for p, q in cycles:
            plan["sweep"].append({"grammar": grammar, "n": p + q, "workers": 1,
                                  "strategy": ["two-cycle", p, q]})
    # Known failures: run after the timed passes, inputs independent of the seed.
    for p, q in FAILING_TWO_CYCLES:
        plan["failing"].append({"kind": "rho", "grammar": "anbn", "p": p, "q": q})
    # As an automaton from c0 to c2k, so that bar_hillel builds one start
    # pair rather than (2k + 1)^2.
    k = FAILING_SHORTEST_CHAIN
    texts["nfas"]["fail_short"] = _nfa_text(["c0"], ["c%d" % (2 * k)], anbn_chain(k, "c"))
    plan["failing"].append({"kind": "shortest", "grammar": "anbn", "automaton": "fail_short",
                            "triple": ("S", "c0", "c%d" % (2 * k))})
    k = FAILING_WITNESS_CHAIN
    texts["graphs"]["fail_witness"] = _edges_text(anbn_chain(k, "c"))
    plan["failing"].append({"kind": "witness", "grammar": "anbn", "graph": "fail_witness",
                            "pair": ("c0", "c%d" % (2 * k))})
    return texts, plan


def many_small(seed):
    rng = random.Random(seed)
    texts, plan = _empty()
    texts["grammars"] = dict(GRAMMARS)
    texts["programs"] = dict(PROGRAMS)
    shapes = (("dyck1", "a", "b"), ("dyck2", "ac", "bd"), ("anbn", "a", "b"))
    for i in range(400):
        grammar, opens, closes = shapes[i % 3]
        name = "g%d" % i
        texts["graphs"][name] = _edges_text(
            bracket_graph(rng, rng.randint(4, 12), opens, closes, "v"))
        plan["reach"].append({"grammar": grammar, "graph": name, "picks": _picks(rng, 2)})
        plan["shortest"].append({"grammar": grammar, "automaton": name, "picks": _picks(rng, 1)})
    for i in range(100):
        name = "tree%d" % i
        if i % 2:
            texts["graphs"][name] = _edges_text(child_tree(rng, rng.randint(4, 12), "t"))
            plan["datalog"].append({"program": "desc", "graph": name})
        else:
            texts["graphs"][name] = _edges_text(level_tree(rng, (1, 2, 4, 4), "t", 1))
            plan["datalog"].append({"program": "sg", "graph": name})
    for i in range(100):
        name = "nfa%d" % i
        grammar = ("dyck1", "anbn", "amb2m")[i % 3]
        texts["nfas"][name] = random_nfa_text(rng, rng.randint(2, 5), "ab", 0.35)
        plan["shortest"].append({"grammar": grammar, "automaton": name, "picks": []})
    for i in range(300):
        grammar = ("dyck1", "dyck2", "anbn", "amb2m")[i % 4]
        if grammar.startswith("dyck"):
            word = dyck_word(rng, rng.randint(3, 10), AB if grammar == "dyck1" else ABCD)
        else:
            j = rng.randint(2, 6)
            word = "a" * j + "b" * (j * (2 if grammar == "amb2m" else 1))
        texts["words"]["in%d" % i] = [grammar, word]
        texts["words"]["out%d" % i] = [grammar, spoil(rng, word, FLIP)]
        plan["parse"].append({"grammar": grammar, "word": "in%d" % i, "tree": True})
        plan["parse"].append({"grammar": grammar, "word": "out%d" % i, "tree": False})
    for grammar in ("anbn", "dyck1", "amb2m"):
        for n in (1, 2):
            plan["sweep"].append({"grammar": grammar, "n": n, "workers": 1,
                                  "strategy": ["exhaustive", None]})
        plan["sweep"].append({"grammar": grammar, "n": 2, "workers": 1,
                              "strategy": ["random", 100, rng.randrange(1 << 30), 0.3]})
    plan["sweep"].append({"grammar": "anbn", "n": 3, "workers": 1,
                          "strategy": ["exhaustive", 3000]})
    sample = ["random", 300, rng.randrange(1 << 30), 0.3]
    for workers in (1, 2):
        plan["sweep"].append({"grammar": "dyck1", "n": 5, "workers": workers,
                              "strategy": sample})
    return texts, plan


WORKLOADS = {
    "dense-graph": dense_graph,
    "deep-nesting": deep_nesting,
    "many-small": many_small,
}


# ---------------------------------------------------------------------------
# Set-up: parse every text input
# ---------------------------------------------------------------------------


def parse_texts(texts, tracer):
    """Parse the text inputs with ratindex and bring each grammar to CNF.
    This, with the import of ratindex, is what ``setup_s`` times."""
    import ratindex as ri

    inp = SimpleNamespace(grammars={}, cnf={}, graphs={}, nfas={}, programs={}, words={})
    for name, text in texts["grammars"].items():
        with tracer.span("grammar.parse"):
            inp.grammars[name] = ri.parse_grammar(text)
        with tracer.span("grammar.to_cnf"):
            inp.cnf[name] = ri.to_cnf(inp.grammars[name])
    with tracer.span("graphs.parse"):
        for name, text in texts["graphs"].items():
            inp.graphs[name] = ri.parse_graph(text)
        for name, text in texts["nfas"].items():
            inp.nfas[name] = ri.parse_nfa(text)
    with tracer.span("datalog.parse"):
        for name, text in texts["programs"].items():
            inp.programs[name] = ri.parse_chain_program(text)
    with tracer.span("grammar.parse"):
        for name, (grammar, text) in texts["words"].items():
            inp.words[name] = ri.parse_word(inp.grammars[grammar], text)
    return inp


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _pick(items, fractions):
    return [items[int(f * len(items))] for f in fractions] if items else []


def reach_pass(ri, inp, plan, call, tracer, out):
    for item in plan["reach"]:
        g, graph = inp.cnf[item["grammar"]], inp.graphs[item["graph"]]
        rel = call("reachability.all_pairs_reach", ri.all_pairs_reach, g, graph)
        if "pairs" in item:
            pairs = item["pairs"]
        else:
            pairs = _pick(sorted(rel.start_pairs()), item["picks"])
        paths = [call("reachability.witness", ri.witness, rel, s, t) for s, t in pairs]
        tracer.count("reachability.facts", len(rel.facts))
        out.append(("reach", item, rel.facts, list(zip(pairs, paths))))
    for item in plan["datalog"]:
        answers = call("datalog.evaluate", ri.evaluate,
                       inp.programs[item["program"]], inp.graphs[item["graph"]])
        tracer.count("datalog.answers", len(answers))
        out.append(("datalog", item, answers))


def shortest_pass(ri, inp, plan, call, tracer, out):
    for item in plan["shortest"]:
        g = inp.cnf[item["grammar"]]
        automaton = inp.graphs.get(item["automaton"]) or inp.nfas[item["automaton"]]
        tg = call("intersection.bar_hillel", ri.bar_hillel, g, automaton)
        table = call("intersection.shortest_words", ri.shortest_words, tg)
        best = call("intersection.shortest_start", ri.shortest_start, tg, table)
        if "triples" in item:
            triples = list(item["triples"])
        else:
            triples = _pick([t for t in tg.start_triples() if t in table], item["picks"])
        if best is not None and best[2] is not None:
            triples = triples + [best[2]]
        witnesses = [call("intersection.extract_witness", ri.extract_witness, tg, table, t)
                     for t in triples]
        tracer.count("intersection.triples", len(table.entries))
        tracer.count("intersection.witness_symbols", sum(len(w.word) for w in witnesses))
        out.append(("shortest", item, table, best, list(zip(triples, witnesses))))


def parse_pass(ri, inp, plan, call, tracer, out):
    for item in plan["parse"]:
        g, word = inp.cnf[item["grammar"]], inp.words[item["word"]]
        member = call("grammar.cyk_membership", ri.cyk_membership, g, word)
        tree = dim = osc = None
        if item["tree"]:
            tree = call("grammar.cyk_parse", ri.cyk_parse, g, word)
            if tree is not None:
                dim = call("trees.dimension", ri.dimension, tree)
                alpha = call("wellnested.alpha_of_tree", ri.alpha_of_tree, tree)
                osc = call("wellnested.oscillation", ri.oscillation, alpha)
        out.append(("parse", item, member, tree, dim, osc))


def strategy_of(ri, spec):
    kind = spec[0]
    if kind == "random":
        return ri.RandomSample(count=spec[1], seed=spec[2], density=spec[3])
    if kind == "exhaustive":
        return ri.Exhaustive() if spec[1] is None else ri.Exhaustive(budget=spec[1])
    return ri.TwoCycle(spec[1], spec[2])


def sweep_pass(ri, inp, plan, call, tracer, out):
    from ratindex.measure import BudgetExceededError

    for item in plan["sweep"]:
        strategy = strategy_of(ri, item["strategy"])
        try:
            estimate = call("measure.measure_rho", ri.measure_rho, inp.cnf[item["grammar"]],
                            item["n"], strategy, workers=item["workers"])
        except BudgetExceededError as partial:
            estimate = partial.partial
        tracer.count("measure.automata_tested", estimate.tested_count)
        out.append(("sweep", item, estimate))


PASSES = (
    ("reach_s", reach_pass),
    ("shortest_s", shortest_pass),
    ("parse_s", parse_pass),
    ("sweep_s", sweep_pass),
)


def summary(records):
    """A compact digest of a round's outputs, equal across rounds when the
    program is deterministic."""
    digest = []
    for record in records:
        kind = record[0]
        if kind == "reach":
            digest.append((len(record[2]), tuple(len(p[1][1]) for p in record[3])))
        elif kind == "datalog":
            digest.append(len(record[2]))
        elif kind == "shortest":
            best = record[3][0] if record[3] else None
            digest.append((len(record[2].entries), best,
                           tuple(len(w.word) for _, w in record[4])))
        elif kind == "parse":
            digest.append(record[2:3] + record[4:])
        else:
            digest.append((record[2].value, record[2].tested_count))
    return digest


# ---------------------------------------------------------------------------
# Operations that fail today
# ---------------------------------------------------------------------------


def run_failing(ri, inp, plan, call):
    """Run each known-failing operation once.  A ``RecursionError`` counts
    as one failed call; a result is returned for the checks otherwise."""
    results = []
    for item in plan["failing"]:
        g = inp.cnf[item["grammar"]]
        try:
            if item["kind"] == "rho":
                p, q = item["p"], item["q"]
                result = call("measure.measure_rho", ri.measure_rho, g, p + q, ri.TwoCycle(p, q))
            elif item["kind"] == "shortest":
                tg = call("intersection.bar_hillel", ri.bar_hillel, g,
                          inp.nfas[item["automaton"]])
                table = call("intersection.shortest_words", ri.shortest_words, tg)
                result = call("intersection.extract_witness", ri.extract_witness, tg, table,
                              item["triple"])
            else:
                rel = call("reachability.all_pairs_reach", ri.all_pairs_reach, g,
                           inp.graphs[item["graph"]])
                result = call("reachability.witness", ri.witness, rel, *item["pair"])
        except RecursionError:
            call.failed += 1
            result = None
        results.append((item, result))
    return results
