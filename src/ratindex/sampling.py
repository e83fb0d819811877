"""Random grammars, automata, and parse-tree sampling.

Everything is driven by an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import random
import string
from typing import Sequence

from .grammar import (
    CNFGrammar,
    EmptyLanguageError,
    Grammar,
    Production,
    generating_nonterminals,
    to_cnf,
)
from .graphs import NFA, Edge
from .trees import EPSILON, ParseTree


def min_heights(g: Grammar) -> dict[str, float]:
    """Minimal parse-tree height (in edges) per symbol; inf if none exists."""
    best: dict[str, float] = {t: 0 for t in g.terminals}
    for nt in g.nonterminals:
        best[nt] = float("inf")
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            children = [best[s] for s in prod.rhs]
            height = 1 + (max(children) if children else 0)
            if height < best[prod.lhs]:
                best[prod.lhs] = height
                changed = True
    return best


def random_parse_tree(g: Grammar, rng: random.Random, max_depth: int = 12) -> ParseTree | None:
    """Sample a random derivation tree from the start symbol.

    Productions are drawn uniformly among those that can still terminate
    within the depth budget; with probability 1/4 a minimal-height
    production is forced, which keeps trees small.  Returns None when the
    language is empty.
    """
    heights = min_heights(g)
    if heights[g.start] > max_depth:
        return None
    index = g.by_lhs()
    need = {p: 1 + max([heights[s] for s in p.rhs], default=0) for p in g.productions}

    def expand(symbol: str, budget: int) -> ParseTree:
        if symbol in g.terminals:
            return ParseTree(symbol)
        feasible = [p for _, p in index[symbol] if need[p] <= budget]
        assert feasible, "no production fits the depth budget"
        if rng.random() < 0.25:
            low = min(need[p] for p in feasible)
            feasible = [p for p in feasible if need[p] == low]
        prod = rng.choice(feasible)
        if not prod.rhs:
            return ParseTree(symbol, (ParseTree(EPSILON),))
        return ParseTree(symbol, tuple(expand(s, budget - 1) for s in prod.rhs))

    return expand(g.start, max_depth)


_NT_NAMES = tuple("S A B C D E F G H".split())
_T_NAMES = tuple(string.ascii_lowercase)


def random_grammar(
    rng: random.Random,
    max_nonterminals: int = 4,
    max_terminals: int = 3,
    max_body: int = 3,
    epsilon_weight: float = 0.1,
) -> Grammar:
    """A random grammar with a nonempty language (resampled until so)."""
    while True:
        n_nt = rng.randint(1, max_nonterminals)
        n_t = rng.randint(1, max_terminals)
        nonterminals = _NT_NAMES[:n_nt]
        terminals = _T_NAMES[:n_t]
        productions: list[Production] = []
        for nt in nonterminals:
            for _ in range(rng.randint(1, 3)):
                if rng.random() < epsilon_weight:
                    productions.append(Production(nt, ()))
                    continue
                body = tuple(
                    rng.choice(terminals)
                    if rng.random() < 0.6
                    else rng.choice(nonterminals)
                    for _ in range(rng.randint(1, max_body))
                )
                productions.append(Production(nt, body))
        g = Grammar(
            frozenset(terminals),
            frozenset(nonterminals),
            tuple(dict.fromkeys(productions)),
            nonterminals[0],
        )
        if g.start in generating_nonterminals(g):
            return g


def random_cnf_grammar(rng: random.Random, **kwargs) -> CNFGrammar:
    while True:
        try:
            return to_cnf(random_grammar(rng, **kwargs))
        except EmptyLanguageError:  # pragma: no cover - generator retries
            continue


def random_nfa(
    rng: random.Random,
    n_states: int,
    alphabet: Sequence[str],
    density: float = 0.3,
) -> NFA:
    """A random NFA on states q0..q(n_states - 1): each transition (src,
    label, dst), in the order of states, then ``alphabet``, then states, is
    kept with probability ``density``; then each state is initial, and then
    each is accepting, with probability 1/2.  No initial state makes q0 the
    initial one, and no accepting state the last state the accepting one.
    One ``rng.random()`` is drawn per transition and per state, in that
    order."""
    return NFA(*_random_nfa_fields(rng, n_states, alphabet, density))


@functools.lru_cache(maxsize=64)
def _nfa_cells(n_states: int, alphabet: tuple[str, ...]) -> tuple:
    """The states, the possible transitions in drawing order, and the
    frozensets shared by every automaton of this size and alphabet."""
    states = tuple("q%d" % i for i in range(n_states))
    cells = tuple((src, label, dst) for src in states for label in alphabet for dst in states)
    return (states, cells, frozenset(states), frozenset(alphabet),
            frozenset({states[0]}), frozenset({states[-1]}))


def _random_nfa_fields(
    rng: random.Random, n_states: int, alphabet: Sequence[str], density: float
) -> tuple[frozenset, frozenset, frozenset[Edge], frozenset[str], frozenset[str]]:
    """The ``NFA`` fields of ``random_nfa``, drawn in its order but not
    validated: a sweep builds an ``NFA`` only for its winner."""
    states, cells, state_set, letter_set, first, last = _nfa_cells(n_states, tuple(alphabet))
    draw = rng.random
    transitions = frozenset(itertools.compress(cells, [draw() < density for _ in cells]))
    initial = frozenset(itertools.compress(states, [draw() < 0.5 for _ in states])) or first
    accepting = frozenset(itertools.compress(states, [draw() < 0.5 for _ in states])) or last
    return state_set, letter_set, transitions, initial, accepting
