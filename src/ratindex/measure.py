"""Empirical rational-index measurement.

For a fixed context-free language L, the rational index at n is the largest
"shortest word of L intersected with K" over regular K recognized by NFAs
with at most n states (empty intersections do not count).  We measure it by
sweeping automata: exhaustively for tiny n, by seeded random sampling, or
over named worst-case families.  Sweeps run in the calling process, one
automaton after another.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import random
import statistics
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import RatIndexError
from .grammar import CNFGrammar
from .graphs import Edge, NFA, reached_states
from .intersection import ProductClosure, decode, word_codec
from .sampling import _random_nfa_fields

log = logging.getLogger(__name__)

# The largest alphabet an exhaustive sweep enumerates automata over.
GUARD_ALPHABET = 2


def guard_exhaustive_alphabet(alphabet: Sequence[str]) -> None:
    """Raise ValueError when an exhaustive sweep may not enumerate automata
    over ``alphabet``: it has more than ``GUARD_ALPHABET`` letters."""
    if len(alphabet) > GUARD_ALPHABET:
        raise ValueError(
            "exhaustive enumeration is guarded to alphabets of size <= %d" % GUARD_ALPHABET
        )


class BudgetExceededError(RatIndexError):
    """Raised when an exhaustive sweep would enumerate too many automata.

    Carries the partial estimate (flagged non-exhaustive) gathered so far.
    """

    def __init__(self, message: str, partial: "RhoEstimate"):
        super().__init__(message)
        self.partial = partial


class DegenerateInputError(RatIndexError):
    pass


@dataclass(frozen=True)
class RhoEstimate:
    """One measured point: the max over tested automata of the shortest
    intersection word, with the maximizing automaton and word as witnesses.
    A lower bound on the rational index; exact when the sweep is
    exhaustive."""

    n: int
    value: int | None
    witness_automaton: NFA | None
    witness_word: tuple[str, ...] | None
    witness_id: str | None
    tested_count: int
    exhaustive: bool


@dataclass(frozen=True)
class Exhaustive:
    """Enumerate every automaton with at most n states up to isomorphism."""

    budget: int = 200_000
    guard_n: int = 3


@dataclass(frozen=True)
class RandomSample:
    count: int
    seed: int = 0
    density: float = 0.3


@dataclass(frozen=True)
class TwoCycle:
    p: int
    q: int


Strategy = Exhaustive | RandomSample | TwoCycle


def two_cycle_family(p: int, q: int) -> NFA:
    """An a-cycle of length p bridged into a b-cycle of length q.

    Initial at the a-cycle entry, accepting at the b-cycle entry, so words
    a^i b^j are accepted exactly when p divides i and q divides j (j >= 1).
    With p, q coprime this forces quadratically long witnesses out of
    languages such as {a^m b^m}.
    """
    if p < 1 or q < 1:
        raise ValueError("cycle lengths must be positive")
    a_states = tuple("A%d" % i for i in range(p))
    b_states = tuple("B%d" % j for j in range(q))
    transitions = {(a_states[i], "a", a_states[(i + 1) % p]) for i in range(p)}
    transitions |= {(b_states[j], "b", b_states[(j + 1) % q]) for j in range(q)}
    transitions.add((a_states[0], "b", b_states[1 % q]))
    return NFA(
        states=frozenset(a_states + b_states),
        alphabet=frozenset({"a", "b"}),
        transitions=frozenset(transitions),
        initial=frozenset({a_states[0]}),
        accepting=frozenset({b_states[0]}),
    )


class _Candidate(NamedTuple):
    """An automaton's ``NFA`` fields, not validated: what a sweep tests."""
    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[Edge]
    initial: frozenset[str]
    accepting: frozenset[str]


@functools.lru_cache(maxsize=16)
def _size_tables(m: int, letters: tuple[str, ...]) -> tuple:
    """``_canonical_cells``'s states, cell edges, tables of each non-identity
    permutation's image of 9-bit chunks of a set, and pairs, at size m."""
    names = tuple("q%d" % i for i in range(m))
    cells = [(s, ai, t) for s in range(m) for ai in range(len(letters)) for t in range(m)]
    state_sets = [c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)]
    named = [frozenset(names[s] for s in c) for c in state_sets]
    ids = ["".join(map(str, c)) for c in state_sets]
    perms = list(itertools.permutations(range(m)))[1:]  # the identity comes first
    set_images = [[tuple(sorted(p[s] for s in c)) for c in state_sets] for p in perms]
    bit_images = [
        [[sum(image[low + b] for b in range(9) if v >> b & 1)
          for v in range(1 << min(9, len(cells) - low))] for low in range(0, len(cells), 9)]
        for image in ([1 << cells.index((p[s], ai, p[t])) for s, ai, t in cells] for p in perms)
    ]

    @functools.lru_cache(maxsize=None)
    def pairs(automorphisms: tuple[int, ...]) -> tuple:
        images = [set_images[k] for k in automorphisms]
        return tuple(
            (named[x], named[y], "%s_f%s" % (ids[x], ids[y]))
            for x, y in itertools.product(range(len(state_sets)), repeat=2)
            if not any((i[x], i[y]) < (state_sets[x], state_sets[y]) for i in images)
        )

    edges = [(names[s], letters[ai], names[t]) for s, ai, t in cells]
    return frozenset(names), edges, bit_images, pairs


def _canonical_cells(max_states: int, alphabet: Sequence[str]) -> Iterator[tuple]:
    """Per size m = 1..max_states, the transition sets that no state
    permutation sorts lower, as (states, bits, cells, pairs) in order of
    ``bits`` (bit b: the b-th cell (state, letter, state) in sorted order);
    ``cells`` is the set as a tuple in cell order, which is sorted order, as
    the states are q0..q9, and ``pairs`` holds the (initial, accepting, id
    suffix) that no automorphism sorts lower.  Orderly generation (Read
    1978; McKay 1998): a canonical set less its highest cell is canonical,
    so the sets whose highest cell is c are the canonical P | 2^c for the
    canonical P found before c, in order."""
    letters = tuple(sorted(alphabet))
    for m in range(1, max_states + 1):
        states, edges, bit_images, pairs = _size_tables(m, letters)
        canonical: list[int] = []
        for bits in itertools.chain([0], (
            low | 1 << c for c in range(len(edges))
            for low in itertools.islice(canonical, len(canonical))
        )):
            automorphisms = []
            for k, tables in enumerate(bit_images):
                image = 0
                for chunk, table in enumerate(tables):
                    image |= table[bits >> 9 * chunk & 511]
                # The image sorts lower when it has the lowest differing bit.
                diff = image ^ bits
                if diff & -diff & image:
                    break
                if not diff:
                    automorphisms.append(k)
            else:
                if bits >> len(edges) - 1 == 0:  # no cell to add after the last
                    canonical.append(bits)
                cells = tuple([edges[b] for b in range(len(edges)) if bits >> b & 1])
                yield states, bits, cells, pairs(tuple(automorphisms))


def enumerate_nfas(
    max_states: int, alphabet: Sequence[str], budget: int | None = None
) -> Iterator[tuple[str, NFA]]:
    """All NFAs with 1..max_states states over the alphabet, one per
    isomorphism class (state permutations), with stable string ids.

    An automaton is kept when no state permutation gives it a smaller
    encoding (sorted transitions, then sorted initial and accepting
    states).  The transitions decide first: the canonical transition sets
    are generated in order, each from a smaller one (``_canonical_cells``),
    and a set's initial/accepting pairs are compared under its automorphisms.

    Only automata with nonempty initial and accepting sets are produced;
    the rest have empty languages.  With a budget, it stops silently after
    that many automata (at least one); ``measure_rho`` keeps its own count.
    """
    automata = _automata_for(Exhaustive(), max_states, alphabet)
    return automata if budget is None else itertools.islice(automata, max(budget, 1))


def _sets_for(strategy: Strategy, n: int, alphabet: Sequence[str]) -> Iterator[tuple]:
    """The automata that ``measure_rho`` tests, in order, grouped by
    transition set as (states, alphabet, transitions, pairs, id prefix):
    ``pairs`` holds the (initial, accepting, id suffix) of the set's
    automata.  An exhaustive group is a set of ``_canonical_cells``, its
    transitions the sorted tuple of its cells; a random or two-cycle group
    holds one automaton, with an empty suffix."""
    if isinstance(strategy, Exhaustive):
        letter_set = frozenset(alphabet)  # shared, like the set's and the size's
        for states, bits, cells, pairs in _canonical_cells(n, alphabet):
            yield states, letter_set, cells, pairs, "enum_m%d_t%x_i" % (len(states), bits)
    elif isinstance(strategy, RandomSample):
        rng = random.Random(strategy.seed)
        letters = tuple(sorted(alphabet))
        for index in range(strategy.count):
            states, letter_set, transitions, initial, accepting = _random_nfa_fields(
                rng, rng.randint(1, n), letters, strategy.density)
            pairs = ((initial, accepting, ""),)
            yield states, letter_set, transitions, pairs, "random_s%d_%d" % (strategy.seed, index)
    else:
        if strategy.p + strategy.q > n:
            raise ValueError("two-cycle automaton has %d states, n is %d" % (
                strategy.p + strategy.q, n))
        nfa = two_cycle_family(strategy.p, strategy.q)
        pairs = ((nfa.initial, nfa.accepting, ""),)
        yield nfa.states, nfa.alphabet, nfa.transitions, pairs, "two_cycle_%d_%d" % (
            strategy.p, strategy.q)


def _automata_for(
    strategy: Strategy, n: int, alphabet: Sequence[str]
) -> Iterator[tuple[str, NFA]]:
    """The automata of ``_sets_for`` as validated ``NFA``s, with their ids."""
    for states, letter_set, cells, pairs, prefix in _sets_for(strategy, n, alphabet):
        transitions = frozenset(cells)
        for initial, accepting, suffix in pairs:
            yield prefix + suffix, NFA(states, letter_set, transitions, initial, accepting)


def _evaluate_automaton(
    grammar: CNFGrammar, nfa: _Candidate, floor: int = 0,
    closure: ProductClosure | None = None
) -> tuple[int, str] | None:
    """Length and word code of ``shortest_start`` for one automaton, or
    None when the intersection is empty or its shortest word is shorter
    than ``floor``.  The start triples are read from the closure's rows of
    the initial states, and only those of minimum length are resolved, so
    an automaton below the floor resolves none.  ``closure`` is the
    ``ProductClosure`` of ``nfa.transitions``, possibly shared with other
    automata over the same transitions, and neither built nor read when the
    empty word answers.  When it is not given, the grammar's shortest words
    (``CNFGrammar.least_words``) are tried first: if they are shorter than
    the floor and the automaton accepts one, its shortest word is too, and
    the answer is None without a closure.  Otherwise a closure that stops
    at this automaton's answer is built here and dropped (see
    ``ProductClosure``): it stops at the first start triple when that is
    below the floor, and otherwise after the bucket of the shortest start
    length, whose start triples and the shorter triples they are built from
    are settled as in the full closure, so the length and code are the
    same."""
    if grammar.epsilon_at_start and nfa.initial & nfa.accepting:
        return (0, "") if floor <= 0 else None
    if closure is None:
        words = grammar.least_words
        if len(words[0]) < floor and any(
            reached_states(nfa.transitions, nfa.initial, word) & nfa.accepting for word in words
        ):
            return None
        closure = ProductClosure(
            grammar, nfa.transitions, stop=(nfa.initial, nfa.accepting, floor)
        )
    best = closure.least_start(nfa.initial, nfa.accepting, floor)
    return None if best is None else best[:2]


def measure_rho(
    g: CNFGrammar,
    n: int,
    strategy: Strategy,
    workers: int = 1,
) -> RhoEstimate:
    """Max-of-mins over the strategy's automata, with witnesses.

    Automata with empty intersections are skipped.  The reduction is
    order-insensitive (max on value, ties to the smallest witness word then
    id); it compares word codes and decodes only the winner's word.  Each
    automaton is evaluated with the best length so far as its floor, so one
    whose shortest word is shorter resolves no witness, and none is
    evaluated while every start triple of its closure is shorter.

    One loop reads the automata of ``_sets_for``, grouped by transition
    set, as unvalidated fields; only the winner's ``NFA`` is built, and an
    id only for a result that is compared.  A negative budget is a
    ValueError, and a budget that ends inside a set cuts it there.  In an
    exhaustive sweep a set's automata share one full ``ProductClosure``, as
    a closure depends on the transitions only, built at the first one that
    the empty word does not answer; once the best length exceeds the set's
    longest start triple, its other automata are counted and skipped whole,
    with no ``_Candidate``.  Random and two-cycle automata share no
    closure: one that accepts one of the grammar's shortest words while
    they are below the floor builds none, and each other builds one that
    stops at its answer (see ``_evaluate_automaton``).  The sweep always
    runs in the calling process, one automaton after another; ``workers``
    is accepted for compatibility and has no effect.
    """
    if n < 1:
        raise ValueError("automaton size bound must be positive")
    alphabet = tuple(sorted(g.terminals))
    exhaustive = isinstance(strategy, Exhaustive)
    if exhaustive:
        if n > strategy.guard_n:
            raise ValueError("exhaustive enumeration is guarded to n <= %d" % strategy.guard_n)
        guard_exhaustive_alphabet(alphabet)

    budget = strategy.budget if exhaustive else None
    if budget is not None and budget < 0:
        raise ValueError("enumeration budget must be nonnegative, got %d" % budget)

    best: tuple[int, str, str, _Candidate] | None = None
    tested, truncated = 0, False
    for states, letter_set, cells, pairs, prefix in _sets_for(strategy, n, alphabet):
        transitions = frozenset(cells)
        if budget is not None and tested + len(pairs) > budget:
            pairs, truncated = pairs[:budget - tested], True
        tested += len(pairs)
        closure = None
        for initial, accepting, suffix in pairs:
            if exhaustive and closure is None and not (g.epsilon_at_start and initial & accepting):
                closure = ProductClosure(g, cells)  # sorted, so its sort is linear
                rows = closure.by_source[g.start].values()
                longest = max((d for r in rows for _, d in r), default=0)
            if closure is not None and best and longest < best[0]:
                break
            nfa = _Candidate(states, letter_set, transitions, initial, accepting)
            result = _evaluate_automaton(g, nfa, best[0] if best else 0, closure)
            if result is not None:
                length, code = result
                ident = prefix + suffix
                if best is None or (-length, code, ident) < (-best[0], *best[1:3]):
                    best = (length, code, ident, nfa)
        if truncated:
            break

    estimate = RhoEstimate(
        n=n,
        value=best[0] if best else None,
        witness_automaton=best and NFA(*best[3]),
        witness_word=decode(word_codec(g.terminals)[1], best[1]) if best else None,
        witness_id=best[2] if best else None,
        tested_count=tested,
        exhaustive=exhaustive and not truncated,
    )
    if truncated:
        raise BudgetExceededError(
            "enumeration budget of %d automata exceeded at n=%d" % (budget, n),
            estimate,
        )
    log.debug("measure_rho n=%d tested=%d value=%s", n, tested, estimate.value)
    return estimate


def fit_growth(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(value) against log(n)."""
    if len(points) < 4:
        raise DegenerateInputError("need at least four points, got %d" % len(points))
    if any(n <= 0 or value <= 0 for n, value in points):
        raise DegenerateInputError("sizes and values must be positive")
    if len({n for n, _ in points}) < 2:
        raise DegenerateInputError("all sizes are equal; slope is undefined")
    return statistics.linear_regression(
        [math.log(n) for n, _ in points], [math.log(value) for _, value in points]
    ).slope
