"""Random graphs and shaped grammars that only the tests draw.

Like ``ratindex.sampling``, everything is driven by an explicit
random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence

from ratindex.grammar import Grammar, Production
from ratindex.graphs import LabeledGraph


def random_graph(
    rng: random.Random,
    n_nodes: int,
    alphabet: Sequence[str],
    n_edges: int,
) -> LabeledGraph:
    nodes = tuple(str(i + 1) for i in range(n_nodes))
    edges = set()
    for _ in range(n_edges):
        edges.add(
            (rng.choice(nodes), rng.choice(tuple(alphabet)), rng.choice(nodes))
        )
    return LabeledGraph(frozenset(nodes), frozenset(alphabet), frozenset(edges))


def random_superlinear_grammar(rng: random.Random) -> Grammar:
    """A grammar with a linear core feeding the remaining nonterminals, so
    it passes the superlinear shape check by construction."""
    n_core = rng.randint(1, 3)
    n_outer = rng.randint(1, 3)
    core = tuple("L%d" % i for i in range(n_core))
    outer = tuple("P%d" % i for i in range(n_outer))
    terminals = ("a", "b")
    productions: list[Production] = []
    start = outer[0]
    for nt in outer:
        # the non-linear shape: core nonterminal times anything
        productions.append(
            Production(nt, (rng.choice(core), rng.choice(core + outer)))
        )
        if rng.random() < 0.5:
            alpha = tuple(rng.choice(terminals) for _ in range(rng.randint(0, 2)))
            body = alpha + (rng.choice(core),) if rng.random() < 0.5 else (
                rng.choice(core),
            ) + alpha
            productions.append(Production(nt, body))
        productions.append(
            Production(nt, tuple(rng.choice(terminals) for _ in range(rng.randint(1, 2))))
        )
    for nt in core:
        partner = rng.choice(core)
        if rng.random() < 0.5:
            productions.append(Production(nt, (rng.choice(terminals), partner)))
        else:
            productions.append(Production(nt, (partner, rng.choice(terminals))))
        productions.append(Production(nt, (rng.choice(terminals),)))
    return Grammar(
        frozenset(terminals), frozenset(core + outer), tuple(dict.fromkeys(productions)), start
    )


def random_reduced_ultralinear_grammar(
    rng: random.Random, levels: int
) -> tuple[Grammar, list[set[str]]]:
    """A reduced-form grammar together with its decomposition [N_0..N_k].

    ``levels`` counts the partition classes (k = levels - 1); the top class
    is {start} and the start symbol never recurs.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    partition: list[set[str]] = []
    terminals = ("a", "b")
    productions: list[Production] = []
    for i in range(levels - 1):
        width = rng.randint(1, 2)
        cls = {"U%d_%d" % (i, j) for j in range(width)}
        partition.append(cls)
        for nt in sorted(cls):
            productions.append(Production(nt, (rng.choice(terminals),)))
            if rng.random() < 0.7:
                partner = rng.choice(sorted(cls))
                if rng.random() < 0.5:
                    productions.append(Production(nt, (rng.choice(terminals), partner)))
                else:
                    productions.append(Production(nt, (partner, rng.choice(terminals))))
            if i >= 1 and rng.random() < 0.8:
                below = sorted(set().union(*partition[:i]))
                productions.append(
                    Production(nt, (rng.choice(below), rng.choice(below)))
                )
    start = "Top"
    partition.append({start})
    productions.append(Production(start, (rng.choice(terminals),)))
    if levels >= 2:
        below = sorted(set().union(*partition[:-1]))
        productions.append(Production(start, (rng.choice(below), rng.choice(below))))
    nonterminals = frozenset(set().union(*partition))
    return (
        Grammar(frozenset(terminals), nonterminals, tuple(dict.fromkeys(productions)), start),
        partition,
    )
