"""Command-line interface for the grammar-analysis toolkit."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from . import __version__
from .datalog import parse_chain_program
from .errors import RatIndexError
from .grammar import (
    cyk_membership,
    cyk_parse,
    format_word,
    grammar_to_text,
    parse_grammar,
    parse_word,
    to_cnf,
)
from .graphs import parse_graph, parse_nfa

# The product engine (``intersection``, ``reachability``) and the sweep,
# classification, bound and oscillation modules are imported by the
# commands that run them, so that the other commands do not load them.


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_grammar(path: str):
    return parse_grammar(_read(path))


def _load_automaton(args):
    if args.nfa:
        return parse_nfa(_read(args.nfa))
    return parse_graph(_read(args.graph))


def cmd_cnf(args) -> int:
    g = to_cnf(_load_grammar(args.grammar))
    sys.stdout.write(grammar_to_text(g))
    return 0


def cmd_member(args) -> int:
    g = to_cnf(_load_grammar(args.grammar))
    word = parse_word(g, args.word)
    print("true" if cyk_membership(g, word) else "false")
    return 0


def cmd_intersect(args) -> int:
    from .intersection import ProductClosure, bar_hillel

    g = to_cnf(_load_grammar(args.grammar))
    product = bar_hillel(g, _load_automaton(args))
    lengths = ProductClosure(g, product.automaton.transitions).lengths
    for triple in sorted(lengths):
        print("%s\t%s\t%s\t%d" % (*triple, lengths[triple]))
    return 0


def cmd_shortest(args) -> int:
    from .intersection import bar_hillel, shortest_start, shortest_words

    g = to_cnf(_load_grammar(args.grammar))
    product = bar_hillel(g, _load_automaton(args))
    table = shortest_words(product)
    best = shortest_start(product, table)
    if best is None:
        print("L ∩ K = ∅", file=sys.stderr)
        return 1
    length, word, triple = best
    print("%d\t%s" % (length, format_word(word)))
    if args.witness and triple is not None:
        path, _word = table.closure.path_and_word(triple)
        print("path\t%s" % " ".join(path))
    return 0


def cmd_reach(args) -> int:
    from .reachability import reach_pairs

    g = to_cnf(_load_grammar(args.grammar))
    graph = parse_graph(_read(args.graph))
    for node in (args.source, args.target):
        if node is not None and node not in graph.nodes:
            raise RatIndexError("node %r is not in the graph" % node)
    for i, j in sorted(reach_pairs(g, graph)):
        if args.source is not None and i != args.source:
            continue
        if args.target is not None and j != args.target:
            continue
        print("%s\t%s" % (i, j))
    return 0


def cmd_tree_metrics(args) -> int:
    from .trees import dimension
    from .wellnested import alpha_of_tree, oscillation

    g = to_cnf(_load_grammar(args.grammar))
    word = parse_word(g, args.word)
    tree = cyk_parse(g, word)
    if tree is None:
        print("word is not in the language", file=sys.stderr)
        return 1
    alpha = alpha_of_tree(tree)
    print("dim=%d osc=%d" % (dimension(tree), oscillation(alpha)))
    return 0


def _parse_partition(text: str) -> list[set[str]]:
    levels = []
    for chunk in text.split("/"):
        names = {n.strip() for n in chunk.split(",") if n.strip()}
        levels.append(names)
    return levels


def cmd_classify(args) -> int:
    from .classify import classify_grammar

    if args.samples < 0:
        print("--samples must be nonnegative, got %d" % args.samples, file=sys.stderr)
        return 2
    g = _load_grammar(args.grammar)
    partition = _parse_partition(args.partition) if args.partition is not None else None
    report = classify_grammar(
        g, partition=partition, samples=args.samples, seed=args.seed
    )
    print("linear: %s" % str(report.is_linear).lower())
    print("superlinear: %s" % str(report.is_superlinear).lower())
    if partition is not None:
        print("ultralinear: %s" % str(report.ultralinear).lower())
        print("reduced_form: %s" % str(report.reduced_form).lower())
        print("k: %d" % report.levels)
    print("expansive: %s" % (",".join(sorted(report.expansive)) or "-"))
    print("max_observed_dimension: %d" % report.max_observed_dimension)
    print("sampled_trees: %d" % report.sampled_trees)
    return 0


def _two_cycle_pairs(text: str) -> list[tuple[int, int]] | None:
    """The (p, q) pairs of ``--pairs``, or None when one is not p:q with
    positive integers p and q."""
    pairs = []
    for chunk in text.split(","):
        p, _, q = chunk.partition(":")
        try:
            pair = int(p), int(q)
        except ValueError:
            return None
        if min(pair) < 1:
            return None
        pairs.append(pair)
    return pairs


def cmd_measure_rho(args) -> int:
    from .measure import (
        BudgetExceededError,
        DegenerateInputError,
        Exhaustive,
        RandomSample,
        TwoCycle,
        fit_growth,
        guard_exhaustive_alphabet,
        measure_rho,
    )

    # Every argument is checked before anything is written.
    two_cycle = args.strategy == "two-cycle"
    pairs = _two_cycle_pairs(args.pairs) if two_cycle and args.pairs else None
    problem = None
    if args.count < 0 or (args.n_max and args.n_max < args.n_min):
        problem = "--count must be nonnegative, and --n-max 0 or at least --n-min"
    elif args.n_min < 1:
        problem = "--n-min must be at least 1, got %d" % args.n_min
    elif not 0 <= args.density <= 1:
        problem = "--density must be between 0 and 1, got %s" % args.density
    elif args.budget < 0:
        problem = "--budget must be nonnegative, got %d" % args.budget
    elif args.strategy == "exhaustive" and max(args.n_min, args.n_max) > args.cap_exhaustive_n:
        problem = "--n-min and --n-max must be at most --cap-exhaustive-n (%d), got %d" % (
            args.cap_exhaustive_n, max(args.n_min, args.n_max)
        )
    elif two_cycle and not args.pairs:
        problem = "--pairs is required for the two-cycle strategy"
    elif two_cycle and pairs is None:
        problem = "--pairs must be comma-separated p:q with positive integers, got %r" % (
            args.pairs
        )
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    g = to_cnf(_load_grammar(args.grammar))
    if args.strategy == "exhaustive":
        guard_exhaustive_alphabet(g.terminals)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "value", "exhaustive", "witness_word", "automaton_id"])
    if two_cycle:
        runs = [(p + q, TwoCycle(p, q)) for p, q in pairs]
    else:
        if args.strategy == "exhaustive":
            strategy = Exhaustive(budget=args.budget, guard_n=args.cap_exhaustive_n)
        else:
            strategy = RandomSample(args.count, args.seed, args.density)
        runs = [(n, strategy) for n in range(args.n_min, (args.n_max or args.n_min) + 1)]
    points = []
    for n, strategy in runs:
        try:
            est = measure_rho(g, n, strategy, workers=args.workers)
        except BudgetExceededError as err:
            est = err.partial
            print("warning: %s" % err, file=sys.stderr)
        writer.writerow(
            [
                est.n,
                est.value if est.value is not None else "",
                str(est.exhaustive).lower(),
                format_word(est.witness_word) if est.witness_word is not None else "",
                est.witness_id or "",
            ]
        )
        if est.value:
            points.append((est.n, est.value))
    if args.fit:
        try:
            print("# loglog_slope=%.4f" % fit_growth(points), file=sys.stderr)
        except DegenerateInputError as err:
            print("# loglog_slope: %s" % err, file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    from .bounds import BoundFormula

    if args.n_min < 0:
        print("--n-min must be nonnegative, got %d" % args.n_min, file=sys.stderr)
        return 2
    if args.n_max < args.n_min:
        print("--n-max must be at least --n-min (%d), got %d" % (args.n_min, args.n_max),
              file=sys.stderr)
        return 2
    formula = BoundFormula(args.family, args.constant, args.nonterminals, args.degree)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "bound"])
    for n in range(args.n_min, args.n_max + 1):
        writer.writerow([n, formula.value(n)])
    return 0


def cmd_datalog_eval(args) -> int:
    from .datalog import evaluate

    program = parse_chain_program(_read(args.program))
    graph = parse_graph(_read(args.graph))
    for i, j in sorted(evaluate(program, graph)):
        print("%s\t%s" % (i, j))
    return 0


def cmd_selftest(args) -> int:
    import random

    from .datalog import evaluate
    from .intersection import bar_hillel, shortest_start, shortest_words
    from .trees import dimension
    from .wellnested import (
        DEFAULT_BRUTE_CAP,
        WellNestedWord,
        all_wellnested_words,
        alpha_of_tree,
        matching_pairs,
        oscillation,
        oscillation_bruteforce,
    )

    if args.osc_cap < 2:
        # below 2 the brute-force check compares at most the empty word
        print("--osc-cap must be at least 2, got %d" % args.osc_cap, file=sys.stderr)
        return 2
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print("%s - %s" % ("ok" if ok else "FAIL", name))
        if not ok:
            failures += 1

    for length in range(0, min(args.osc_cap, DEFAULT_BRUTE_CAP) + 1, 2):
        if any(oscillation(w) != oscillation_bruteforce(w) for w in all_wellnested_words(length)):
            check("oscillation agrees with brute force", False)
            break
    else:
        check("oscillation agrees with brute force", True)

    example = WellNestedWord.from_text("āāāaaāaa")
    check(
        "worked example word",
        matching_pairs(example) == ((1, 8), (2, 5), (3, 4), (6, 7))
        and oscillation(example) == 1,
    )

    anbn = parse_grammar("S -> a S b | a b\n")
    cnf = to_cnf(anbn)
    check(
        "CYK on a^m b^m",
        cyk_membership(cnf, "aabb") and not cyk_membership(cnf, "aab"),
    )

    from .measure import two_cycle_family

    product = bar_hillel(cnf, two_cycle_family(2, 3))
    best = shortest_start(product, shortest_words(product))
    check("two-cycle shortest word", best is not None and best[0] == 12)

    from .graphs import LabeledGraph

    program = parse_chain_program(
        "Desc(x, y) :- Child(x, y).\nDesc(x, y) :- Child(x, z), Desc(z, y).\n?- Desc\n"
    )
    graph = LabeledGraph.from_edges(
        [("1", "child", "2"), ("2", "child", "3")]
    )
    check(
        "descendant query",
        evaluate(program, graph)
        == frozenset({("1", "2"), ("1", "3"), ("2", "3")}),
    )

    from .sampling import random_cnf_grammar, random_parse_tree

    rng = random.Random(args.seed)
    sandwich_ok = True
    for _ in range(20):
        g = random_cnf_grammar(rng)
        for _ in range(10):
            tree = random_parse_tree(g, rng)
            if tree is None:
                continue
            osc = oscillation(alpha_of_tree(tree))
            dim = dimension(tree)
            if not (osc - 1 <= dim <= 2 * osc):
                sandwich_ok = False
    check("dimension/oscillation sandwich on random trees", sandwich_ok)

    print("%d failure(s)" % failures)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratindex",
        description=(
            "Grammar analysis toolkit: CFL-reachability, grammar/automaton "
            "intersections, parse-tree metrics, grammar classification, and "
            "empirical rational-index measurement."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *required, automaton=False):
        """Add the subcommand ``name`` that runs ``func``, with the options
        ``required`` in order and then, given ``automaton``, one of --graph
        or --nfa."""
        p = sub.add_parser(name, help=help)
        for option in required:
            p.add_argument(option, required=True)
        if automaton:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--graph")
            group.add_argument("--nfa")
        p.set_defaults(func=func)
        return p

    command("cnf", cmd_cnf, "convert a grammar to Chomsky normal form", "--grammar")
    command("member", cmd_member, "CYK membership test", "--grammar", "--word")
    command("intersect", cmd_intersect, "realizable product triples with lengths", "--grammar",
            automaton=True)
    p = command("shortest", cmd_shortest, "shortest word in the intersection", "--grammar",
                automaton=True)
    p.add_argument("--witness", action="store_true", help="also print a witness path")

    p = command("reach", cmd_reach, "all-pairs CFL-reachability facts", "--grammar", "--graph")
    p.add_argument("--source")
    p.add_argument("--target")

    command("tree-metrics", cmd_tree_metrics, "dimension and oscillation of a parse tree",
            "--grammar", "--word")

    p = command("classify", cmd_classify, "grammar classification report", "--grammar")
    p.add_argument("--partition", help="levels lowest first, e.g. 'A,B/S' for N0={A,B}, N1={S}")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = command("measure-rho", cmd_measure_rho, "empirical rational-index lower bounds",
                "--grammar")
    p.add_argument("--strategy", choices=["exhaustive", "random", "two-cycle"], required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=0)
    p.add_argument("--count", type=int, default=50, help="random strategy: sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--pairs", help="two-cycle strategy: e.g. 2:3,3:4,3:5")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; sweeps always run in one process",
    )
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--cap-exhaustive-n", type=int, default=3)
    p.add_argument("--fit", action="store_true", help="report the log-log slope")

    p = command("bounds", cmd_bounds, "evaluate a polynomial bound family")
    p.add_argument(
        "--family",
        choices=["linear", "superlinear", "dimension", "oscillation", "ultralinear"],
        required=True,
    )
    p.add_argument("--nonterminals", type=int, help="|N| for dimension/oscillation")
    p.add_argument("--degree", type=int, help="d or k parameter")
    p.add_argument("--constant", type=int, default=1)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)

    command("datalog-eval", cmd_datalog_eval, "evaluate a chain Datalog query", "--program",
            "--graph")

    p = command("selftest", cmd_selftest, "run a quick built-in check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--osc-cap", type=int, default=12, dest="osc_cap")

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RATINDEX_LOG")
    if level is not None:
        import logging

        logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RatIndexError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
