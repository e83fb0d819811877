"""Command-line interface for the grammar-analysis toolkit."""

from __future__ import annotations

import argparse
import csv
import logging
import os
import random
import sys
from pathlib import Path

from . import __version__
from .bounds import (
    dimension_bound,
    linear_bound,
    oscillation_bound,
    superlinear_bound,
    ultralinear_bound,
)
from .classify import classify_grammar
from .datalog import evaluate as datalog_evaluate
from .datalog import parse_chain_program
from .errors import RatIndexError
from .grammar import (
    cyk_parse,
    format_word,
    grammar_to_text,
    parse_grammar,
    parse_word,
    to_cnf,
)
from .graphs import parse_graph, parse_nfa
from .intersection import (
    bar_hillel,
    extract_witness,
    shortest_start,
    shortest_words,
)
from .measure import (
    BudgetExceededError,
    Exhaustive,
    RandomSample,
    TwoCycle,
    fit_growth,
    measure_rho,
)
from .reachability import all_pairs_reach
from .trees import dimension
from .wellnested import alpha_of_tree, oscillation, oscillation_bruteforce


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_grammar(path: str):
    return parse_grammar(_read(path))


def _load_automaton(args):
    if getattr(args, "nfa", None):
        return parse_nfa(_read(args.nfa))
    return parse_graph(_read(args.graph))


def cmd_cnf(args) -> int:
    g = to_cnf(_load_grammar(args.grammar))
    sys.stdout.write(grammar_to_text(g))
    return 0


def cmd_member(args) -> int:
    g = to_cnf(_load_grammar(args.grammar))
    word = parse_word(g, args.word)
    tree = cyk_parse(g, word)
    print("true" if tree is not None else "false")
    return 0


def cmd_intersect(args) -> int:
    g = to_cnf(_load_grammar(args.grammar))
    product = bar_hillel(g, _load_automaton(args))
    table = shortest_words(product)
    for (head, i, j) in sorted(table.entries):
        entry = table.entries[(head, i, j)]
        print("%s\t%s\t%s\t%d" % (head, i, j, entry.length))
    return 0


def cmd_shortest(args) -> int:
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
        witness = extract_witness(product, table, triple)
        print("path\t%s" % " ".join(witness.path))
    return 0


def cmd_reach(args) -> int:
    g = to_cnf(_load_grammar(args.grammar))
    graph = parse_graph(_read(args.graph))
    relation = all_pairs_reach(g, graph)
    for i, j in sorted(relation.start_pairs()):
        if args.source is not None and i != args.source:
            continue
        if args.target is not None and j != args.target:
            continue
        print("%s\t%s" % (i, j))
    return 0


def cmd_tree_metrics(args) -> int:
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
    g = _load_grammar(args.grammar)
    partition = _parse_partition(args.partition) if args.partition else None
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


def cmd_measure_rho(args) -> int:
    g = to_cnf(_load_grammar(args.grammar))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "value", "exhaustive", "witness_word", "automaton_id"])
    runs: list[tuple[int, object]] = []
    if args.strategy == "two-cycle":
        if not args.pairs:
            print("--pairs is required for the two-cycle strategy", file=sys.stderr)
            return 2
        for chunk in args.pairs.split(","):
            p, _, q = chunk.partition(":")
            runs.append((int(p) + int(q), TwoCycle(int(p), int(q))))
    else:
        n_values = range(args.n_min, args.n_max + 1) if args.n_max else [args.n_min]
        for n in n_values:
            if args.strategy == "exhaustive":
                runs.append((n, Exhaustive(budget=args.budget, guard_n=args.cap_exhaustive_n)))
            else:
                runs.append((n, RandomSample(args.count, args.seed, args.density)))
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
    if args.fit and len(points) >= 4:
        print("# loglog_slope=%.4f" % fit_growth(points), file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    if args.family == "linear":
        formula = linear_bound(args.constant)
    elif args.family == "superlinear":
        formula = superlinear_bound(args.constant)
    elif args.family == "dimension":
        formula = dimension_bound(args.nonterminals, args.degree, args.constant)
    elif args.family == "oscillation":
        formula = oscillation_bound(args.nonterminals, args.degree, args.constant)
    else:
        formula = ultralinear_bound(args.degree, args.constant)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "bound"])
    for n in range(args.n_min, args.n_max + 1):
        writer.writerow([n, formula.value(n)])
    return 0


def cmd_datalog_eval(args) -> int:
    program = parse_chain_program(_read(args.program))
    graph = parse_graph(_read(args.graph))
    for i, j in sorted(datalog_evaluate(program, graph)):
        print("%s\t%s" % (i, j))
    return 0


def cmd_selftest(args) -> int:
    from .grammar import cyk_membership
    from .wellnested import WellNestedWord, all_wellnested_words, matching_pairs

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print("%s - %s" % ("ok" if ok else "FAIL", name))
        if not ok:
            failures += 1

    for length in range(0, min(args.osc_cap, args.cap_osc_brute) + 1, 2):
        if any(
            oscillation(w) != oscillation_bruteforce(w, cap=args.cap_osc_brute)
            for w in all_wellnested_words(length)
        ):
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
        datalog_evaluate(program, graph)
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

    p = sub.add_parser("cnf", help="convert a grammar to Chomsky normal form")
    p.add_argument("--grammar", required=True)
    p.set_defaults(func=cmd_cnf)

    p = sub.add_parser("member", help="CYK membership test")
    p.add_argument("--grammar", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("intersect", help="realizable product triples with lengths")
    p.add_argument("--grammar", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--nfa")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("shortest", help="shortest word in the intersection")
    p.add_argument("--grammar", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--nfa")
    p.add_argument("--witness", action="store_true", help="also print a witness path")
    p.set_defaults(func=cmd_shortest)

    p = sub.add_parser("reach", help="all-pairs CFL-reachability facts")
    p.add_argument("--grammar", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--source")
    p.add_argument("--target")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("tree-metrics", help="dimension and oscillation of a parse tree")
    p.add_argument("--grammar", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_tree_metrics)

    p = sub.add_parser("classify", help="grammar classification report")
    p.add_argument("--grammar", required=True)
    p.add_argument(
        "--partition",
        help="levels lowest first, e.g. 'A,B/S' for N0={A,B}, N1={S}",
    )
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("measure-rho", help="empirical rational-index lower bounds")
    p.add_argument("--grammar", required=True)
    p.add_argument(
        "--strategy", choices=["exhaustive", "random", "two-cycle"], required=True
    )
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=0)
    p.add_argument("--count", type=int, default=50, help="random strategy: sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--pairs", help="two-cycle strategy: e.g. 2:3,3:4,3:5")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--cap-exhaustive-n", type=int, default=3)
    p.add_argument("--fit", action="store_true", help="report the log-log slope")
    p.set_defaults(func=cmd_measure_rho)

    p = sub.add_parser("bounds", help="evaluate a polynomial bound family")
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
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("datalog-eval", help="evaluate a chain Datalog query")
    p.add_argument("--program", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_datalog_eval)

    p = sub.add_parser("selftest", help="run a quick built-in check suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--osc-cap", type=int, default=12, dest="osc_cap")
    p.add_argument("--cap-osc-brute", type=int, default=20, dest="cap_osc_brute")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("RATINDEX_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RatIndexError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
