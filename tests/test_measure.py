import dataclasses
import itertools
import math
import multiprocessing.process
import random
import subprocess
import sys

import pytest

import ratindex.measure
from ratindex.bounds import (
    BoundFormula,
    dimension_bound,
    linear_bound,
    oscillation_bound,
    superlinear_bound,
    ultralinear_bound,
)
from ratindex.grammar import parse_grammar, to_cnf
from ratindex.graphs import NFA, parse_nfa
from ratindex.intersection import (
    ProductClosure,
    bar_hillel,
    decode,
    shortest_start,
    shortest_words,
    word_codec,
)
from ratindex.measure import (
    BudgetExceededError,
    DegenerateInputError,
    Exhaustive,
    RandomSample,
    TwoCycle,
    _automata_for,
    _canonical_cells,
    _evaluate_automaton,
    enumerate_nfas,
    fit_growth,
    measure_rho,
    two_cycle_family,
)
from ratindex.sampling import random_cnf_grammar, random_nfa

from oracles import (
    UP_DOWN_FLAT,
    automata_by_scan,
    canonical_sets_by_scan,
    enumerate_nfas_bruteforce,
    is_start,
    measure_rho_without_floor,
    rename_terminals,
    shortest_intersection_bfs,
    sweep_by_tuple_words,
)


# --- bound formulas -----------------------------------------------------------


def test_bound_values():
    assert linear_bound().value(10) == 100
    assert dimension_bound(3, 2).value(2) == 144
    assert oscillation_bound(2, 1).value(3) == 4 * 81
    assert superlinear_bound().value(3) == 81
    assert ultralinear_bound(2).value(3) == 81
    assert linear_bound(constant=5).value(2) == 20


def test_bound_value_bigint():
    huge = oscillation_bound(10, 6).value(10**6)
    assert huge == 10**12 * 10 ** (4 * 6 * 6)


def test_bound_parameter_validation():
    with pytest.raises(ValueError):
        BoundFormula("dimension", degree=2)  # missing |N|
    with pytest.raises(ValueError):
        BoundFormula("nope")
    with pytest.raises(ValueError):
        linear_bound().value(-1)


def test_bound_rejects_negative_parameters():
    # a negative degree used to evaluate to floats, or divide by zero at 0
    for make in (
        lambda: BoundFormula("dimension", 1, 4, -1),
        lambda: dimension_bound(0, -1),
        lambda: oscillation_bound(-1, 2),
        lambda: ultralinear_bound(-1),
    ):
        with pytest.raises(ValueError, match="must be nonnegative"):
            make()
    assert dimension_bound(0, 0).value(0) == 1


# --- growth fitting -----------------------------------------------------------


def test_fit_growth_synthetic():
    quad = [(n, n**2) for n in range(2, 9)]
    assert abs(fit_growth(quad) - 2.0) < 1e-9
    quart = [(n, 7 * n**4) for n in range(2, 9)]
    assert abs(fit_growth(quart) - 4.0) < 1e-9


def test_fit_growth_degenerate():
    with pytest.raises(DegenerateInputError):
        fit_growth([(1, 1), (2, 4)])
    with pytest.raises(DegenerateInputError):
        fit_growth([(1, 1), (2, 0), (3, 9), (4, 16)])
    with pytest.raises(DegenerateInputError):
        fit_growth([(2, 1), (2, 2), (2, 3), (2, 4)])


# --- two-cycle family ----------------------------------------------------------


def test_two_cycle_structure():
    nfa = two_cycle_family(2, 3)
    assert nfa.state_count == 5
    assert nfa.initial == {"A0"}
    assert nfa.accepting == {"B0"}
    assert nfa.accepts(("a",) * 6 + ("b",) * 6)
    assert not nfa.accepts(("a",) * 5 + ("b",) * 6)
    assert not nfa.accepts(("a",) * 6 + ("b",) * 5)


def test_two_cycle_minimal_case(anbn_cnf):
    nfa = two_cycle_family(1, 1)
    assert nfa.accepts(("a", "b"))
    estimate = measure_rho(anbn_cnf, 2, TwoCycle(1, 1))
    assert estimate.value == 2
    assert estimate.witness_word == ("a", "b")


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5)])
def test_two_cycle_shortest_matches_bfs_oracle(anbn_cnf, p, q):
    nfa = two_cycle_family(p, q)
    estimate = measure_rho(anbn_cnf, p + q, TwoCycle(p, q))
    expected = 2 * (p * q // math.gcd(p, q))
    assert estimate.value == expected
    if expected <= 30:
        oracle = shortest_intersection_bfs(anbn_cnf, nfa, cap=expected)
        assert oracle is not None and oracle[0] == expected


# --- measure_rho ----------------------------------------------------------------


def test_exhaustive_one_state(anbn_cnf):
    estimate = measure_rho(anbn_cnf, 1, Exhaustive())
    assert estimate.exhaustive
    assert estimate.value == 2
    assert estimate.witness_word == ("a", "b")


def test_exhaustive_sigma_star():
    cnf = to_cnf(parse_grammar("S -> a S |\n"))
    one = measure_rho(cnf, 1, Exhaustive())
    assert one.value == 0
    two = measure_rho(cnf, 2, Exhaustive())
    assert two.value == 1


def test_exhaustive_guard(anbn_cnf):
    with pytest.raises(ValueError):
        measure_rho(anbn_cnf, 4, Exhaustive())


def test_two_cycle_larger_than_n_is_rejected(anbn_cnf):
    with pytest.raises(ValueError, match="^two-cycle automaton has 5 states, n is 4$"):
        measure_rho(anbn_cnf, 4, TwoCycle(2, 3))
    assert measure_rho(anbn_cnf, 5, TwoCycle(2, 3)).value == 12


def test_exhaustive_budget_error():
    cnf = to_cnf(parse_grammar("S -> a S | a\n"))
    with pytest.raises(BudgetExceededError) as err:
        measure_rho(cnf, 2, Exhaustive(budget=10))
    partial = err.value.partial
    assert not partial.exhaustive
    assert partial.tested_count <= 10


def test_negative_budget_is_rejected(anbn_cnf):
    # islice's own message leaked here before the budget was checked
    for budget in (-1, -5):
        with pytest.raises(ValueError, match="^enumeration budget must be nonnegative"):
            measure_rho(anbn_cnf, 2, Exhaustive(budget=budget))


def test_exhaustive_dominates_random():
    cnf = to_cnf(parse_grammar("S -> a S | a\n"))
    exhaustive = measure_rho(cnf, 2, Exhaustive())
    sampled = measure_rho(cnf, 2, RandomSample(count=40, seed=11))
    assert exhaustive.exhaustive
    if sampled.value is not None:
        assert sampled.value <= exhaustive.value


def test_random_strategy_deterministic(anbn_cnf):
    a = measure_rho(anbn_cnf, 3, RandomSample(count=30, seed=5))
    b = measure_rho(anbn_cnf, 3, RandomSample(count=30, seed=5))
    assert (a.value, a.witness_word, a.witness_id) == (
        b.value,
        b.witness_word,
        b.witness_id,
    )
    assert a.tested_count == 30


def test_workers_do_not_change_results(anbn_cnf):
    serial = measure_rho(anbn_cnf, 2, RandomSample(count=16, seed=9), workers=1)
    parallel = measure_rho(anbn_cnf, 2, RandomSample(count=16, seed=9), workers=2)
    assert (serial.value, serial.witness_word, serial.witness_id) == (
        parallel.value,
        parallel.witness_word,
        parallel.witness_id,
    )


def test_enumeration_is_canonical_and_complete():
    # 1-state automata over {a}: transitions 2 choices, nonempty I/F fixed
    autos = list(enumerate_nfas(1, ("a",)))
    assert len(autos) == 2
    # ids are unique
    ids = [ident for ident, _ in enumerate_nfas(2, ("a",))]
    assert len(ids) == len(set(ids))


def test_enumeration_budget_cuts_the_stream():
    stream = list(enumerate_nfas(2, ("a", "b")))
    assert len(stream) > 40
    for budget in (0, 1):  # at least one automaton
        assert list(enumerate_nfas(2, ("a", "b"), budget)) == stream[:1]
    for budget in (2, 17, 40, len(stream), len(stream) + 5):
        cut = list(enumerate_nfas(2, ("a", "b"), budget))
        assert cut == stream[:budget]
        assert all(type(nfa) is NFA for _, nfa in cut)


def test_quadratic_family_values_and_slope(anbn_cnf):
    pairs = [(2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7)]
    points = []
    for p, q in pairs:
        estimate = measure_rho(anbn_cnf, p + q, TwoCycle(p, q))
        assert estimate.value == 2 * (p * q // math.gcd(p, q))
        points.append((p + q, estimate.value))
    slope = fit_growth(points)
    assert 1.7 <= slope <= 2.3


def test_measured_values_dominated_by_calibrated_linear_bound(anbn_cnf):
    # the language is linear, so value/n^2 must stay inside a constant band:
    # calibrating the bound constant once per suite dominates every point
    pairs = [(2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (5, 7)]
    ratios = []
    for p, q in pairs:
        estimate = measure_rho(anbn_cnf, p + q, TwoCycle(p, q))
        n = p + q
        ratios.append(estimate.value / linear_bound().value(n))
    assert max(ratios) <= 2 * min(ratios)
    calibrated = max(ratios)
    for (p, q), ratio in zip(pairs, ratios):
        n = p + q
        assert ratio * linear_bound().value(n) <= calibrated * linear_bound().value(n)


# --- sweep internals ------------------------------------------------------------


@pytest.mark.parametrize(
    "max_states,alphabet,limit",
    [(2, "a", None), (2, "ab", None), (3, "a", None), (3, "ab", 20_000)],
)
def test_enumeration_matches_the_bruteforce_oracle(max_states, alphabet, limit):
    found = [
        (ident, nfa.transitions, nfa.initial, nfa.accepting)
        for ident, nfa in itertools.islice(enumerate_nfas(max_states, alphabet), limit)
    ]
    expected = list(itertools.islice(enumerate_nfas_bruteforce(max_states, alphabet), limit))
    assert found == expected


def state_indices(states):
    return tuple(sorted(int(name[1:]) for name in states))


@pytest.mark.parametrize("alphabet", ["a", "ab"])
def test_orderly_generation_lists_the_scans_sets_in_its_order(alphabet):
    scan = ((m, *found) for m in (1, 2, 3) for found in canonical_sets_by_scan(m, alphabet))
    as_indices = {}  # a set's pairs as the scan lists them, per distinct pairs
    automata = 0
    for (states, bits, cells, pairs), expected in zip(
        _canonical_cells(3, alphabet), scan, strict=True
    ):
        transitions = frozenset(cells)
        if pairs not in as_indices:
            as_indices[pairs] = [(state_indices(i), state_indices(f)) for i, f, _ in pairs]
            assert [suffix for *_, suffix in pairs] == [
                "%s_f%s" % ("".join(map(str, i)), "".join(map(str, f)))
                for i, f in as_indices[pairs]
            ]
        assert (len(states), bits, transitions, as_indices[pairs]) == expected
        automata += len(pairs)
    assert automata == (4404 if alphabet == "a" else 2146636)


def test_the_scan_expands_into_the_bruteforce_enumeration():
    found = [
        (ident, nfa.transitions, nfa.initial, nfa.accepting)
        for ident, nfa in automata_by_scan(2, "ab")
    ]
    assert found == list(enumerate_nfas_bruteforce(2, "ab"))


def evaluate_words(g, nfa):
    """``_evaluate_automaton`` with its word code decoded."""
    result = _evaluate_automaton(g, nfa)
    return result and (result[0], decode(word_codec(g.terminals)[1], result[1]))


def test_sweep_evaluation_matches_the_full_table(rng):
    epsilon_grammars = overlapping = nonempty = tied = 0
    for _ in range(300):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2)
        nfa = random_nfa(rng, rng.randint(1, 5), sorted(g.terminals))
        product = bar_hillel(g, nfa)
        table = shortest_words(product)
        best = shortest_start(product, table)
        assert evaluate_words(g, nfa) == (best and best[:2])
        epsilon_grammars += g.epsilon_at_start
        overlapping += bool(nfa.initial & nfa.accepting)
        if best is not None and best[0] > 0:
            nonempty += 1
            starts = [t for t, e in table.entries.items() if is_start(product, t)]
            tied += sum(table.length(t) == best[0] for t in starts) > 1
    assert epsilon_grammars >= 30 and overlapping >= 30
    assert nonempty >= 100 and tied >= 30


def test_sweep_evaluation_takes_the_smallest_tied_word():
    # six start triples of length 1, one per letter; the state that reads
    # "a" moves, so no order of the triples puts the winner first every time
    letters = "abcdef"
    g = to_cnf(parse_grammar("S -> %s\n" % " | ".join(letters)))
    states = ["q%d" % k for k in range(len(letters))]
    for shift in range(len(letters)):
        text = "initial: %s\naccepting: f\n" % " ".join(states)
        text += "".join(
            "%s %s f\n" % (state, letters[(k + shift) % len(letters)])
            for k, state in enumerate(states)
        )
        assert evaluate_words(g, parse_nfa(text)) == (1, ("a",))


def test_pairs_evaluated_through_one_shared_closure_match_fresh_closures(rng):
    epsilon_grammars = nonempty = floored = 0
    for _ in range(300):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2, epsilon_weight=0.2)
        epsilon_grammars += g.epsilon_at_start
        m = rng.randint(1, 3)
        transitions = random_nfa(rng, m, "ab", rng.choice([0.2, 0.4, 0.6])).transitions
        states = ["q%d" % k for k in range(m)]
        subsets = [
            frozenset(c) for size in range(1, m + 1) for c in itertools.combinations(states, size)
        ]
        pairs = list(itertools.product(subsets, repeat=2))
        # later pairs read the entries that earlier ones resolved
        rng.shuffle(pairs)
        shared = ProductClosure(g, transitions)
        for initial, accepting in pairs:
            nfa = NFA(frozenset(states), frozenset("ab"), transitions, initial, accepting)
            floor = rng.randint(0, 8)
            result = _evaluate_automaton(g, nfa, floor, shared)
            assert result == _evaluate_automaton(g, nfa, floor)
            assert result == _evaluate_automaton(g, nfa, floor, ProductClosure(g, transitions))
            nonempty += result is not None and result[0] > 0
            floored += result is None and _evaluate_automaton(g, nfa) is not None
    assert epsilon_grammars >= 30 and nonempty >= 500 and floored >= 500


@pytest.mark.parametrize(
    "text, n, closures",
    [
        # 140 transition sets over {a, b} with at most two states, 1,164
        # automata
        ("S -> a S b | a b\n", 2, 140),
        # the four one-state sets only have I = F = {q0}, which the empty
        # word answers, so they build no closure
        ("S -> S up S | down |\n", 2, 136),
    ],
)
def test_sweeps_build_one_closure_per_transition_set(monkeypatch, text, n, closures):
    built = []

    class CountingClosure(ProductClosure):
        def __init__(self, g, transitions):
            built.append(transitions)
            super().__init__(g, transitions)

    g = to_cnf(parse_grammar(text))
    expected = measure_rho(g, n, Exhaustive())
    monkeypatch.setattr(ratindex.measure, "ProductClosure", CountingClosure)
    assert measure_rho(g, n, Exhaustive()) == expected
    assert expected.tested_count == 1164
    assert len(built) == closures


def test_exhaustive_sweep_builds_only_the_winners_automaton(monkeypatch):
    built = []

    class CountingNFA(NFA):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    g = to_cnf(parse_grammar("S -> a S b | a b\n"))
    expected = measure_rho(g, 2, Exhaustive())
    monkeypatch.setattr(ratindex.measure, "NFA", CountingNFA)
    estimate = measure_rho(g, 2, Exhaustive())
    # the winner's NFA only, not one per automaton (1,164)
    assert len(built) == 1 and built[0] is estimate.witness_automaton
    assert estimate.tested_count == 1164
    assert dataclasses.astuple(estimate) == dataclasses.astuple(expected)


@pytest.mark.parametrize(
    "text, evaluated",
    [
        # once aabb is found, a transition set whose start triples are all
        # shorter than 4 letters evaluates none of its automata
        ("S -> a S b | a b\n", 230),
        # every start triple spells one letter, the value: nothing is skipped
        ("S -> S up S | down |\n", 1164),
    ],
)
def test_sweeps_skip_transition_sets_below_the_floor(monkeypatch, text, evaluated):
    calls = []

    def counting_evaluate(*args):
        calls.append(args)
        return _evaluate_automaton(*args)

    g = to_cnf(parse_grammar(text))
    expected = measure_rho(g, 2, Exhaustive())
    monkeypatch.setattr(ratindex.measure, "_evaluate_automaton", counting_evaluate)
    assert measure_rho(g, 2, Exhaustive()) == expected
    assert expected.tested_count == 1164
    assert len(calls) == evaluated


def test_exhaustive_sweep_builds_fields_only_for_evaluated_automata(monkeypatch):
    built = []

    class CountingCandidate(ratindex.measure._Candidate):
        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    g = to_cnf(parse_grammar("S -> a S b | a b\n"))
    expected = measure_rho(g, 2, Exhaustive())
    monkeypatch.setattr(ratindex.measure, "_Candidate", CountingCandidate)
    estimate = measure_rho(g, 2, Exhaustive())
    # the 230 evaluated automata, not all 1,164: skipped sets build none
    assert len(built) == 230 and estimate.tested_count == 1164
    assert dataclasses.astuple(estimate) == dataclasses.astuple(expected)


@pytest.mark.parametrize(
    "text, n, strategy",
    [
        ("S -> S S | up S down | up down\n", 4, RandomSample(count=300, seed=2)),
        ("S -> S S | a S b | a b\n", 4, RandomSample(count=300, seed=2)),
        ("S -> S S | up S down | up down\n", 2, Exhaustive()),
        ("S -> up S down | down\n", 2, Exhaustive()),
        ("S -> S up S | down |\n", 2, Exhaustive()),
    ],
)
def test_sweep_matches_the_tuple_word_reduction(text, n, strategy):
    g = to_cnf(parse_grammar(text))
    estimate = measure_rho(g, n, strategy)
    found = (estimate.value, estimate.witness_word, estimate.witness_id, estimate.tested_count)
    assert found == sweep_by_tuple_words(g, _automata_for(strategy, n, sorted(g.terminals)))


def test_random_sweeps_match_the_tuple_word_reduction(rng):
    for seed in range(20):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=3)
        g = rename_terminals(g, UP_DOWN_FLAT)
        strategy = RandomSample(count=60, seed=seed)
        estimate = measure_rho(g, 4, strategy)
        found = (estimate.value, estimate.witness_word, estimate.witness_id, 60)
        assert found == sweep_by_tuple_words(g, _automata_for(strategy, 4, sorted(g.terminals)))


@pytest.mark.parametrize("letters", [("a",), ("a", "b"), ("down", "flat", "up")])
def test_random_sweeps_draw_the_automata_of_random_nfa(letters):
    # a random sweep's k-th automaton is the k-th random_nfa drawn from
    # Random(seed), its size drawn first; the tuple-word tests read
    # _automata_for on both sides and cannot see a change in the draws
    for seed, n, density in [(0, 1, 0.3), (1, 3, 0.15), (7, 6, 0.5), (42, 4, 1.0), (5, 2, 0.0)]:
        rng = random.Random(seed)
        replay = [
            ("random_s%d_%d" % (seed, k), random_nfa(rng, rng.randint(1, n), letters, density))
            for k in range(40)
        ]
        assert list(_automata_for(RandomSample(40, seed, density), n, letters)) == replay


def sweep_outcome(sweep, g, n, strategy):
    """The estimate of a sweep, or the partial one when it runs out of budget."""
    try:
        return sweep(g, n, strategy)
    except BudgetExceededError as err:
        return "partial", err.partial


@pytest.mark.parametrize(
    "text, n, strategy",
    [
        ("S -> S S | a S b | a b\n", 2, Exhaustive()),
        ("S -> a S b | a b\n", 3, Exhaustive(budget=3000)),
        ("S -> S S | a S b | a b\n", 3, Exhaustive(budget=3000)),
        ("S -> S up S | down |\n", 3, Exhaustive(budget=3000)),
        ("S -> S S | up S down | up down\n", 5, RandomSample(count=300, seed=5)),
        ("S -> up S down | flat S | up down\n", 6, RandomSample(count=200, seed=6)),
    ],
)
def test_sweeps_match_the_floor_free_reduction(text, n, strategy):
    g = to_cnf(parse_grammar(text))
    found = sweep_outcome(measure_rho, g, n, strategy)
    assert found == sweep_outcome(measure_rho_without_floor, g, n, strategy)


@pytest.mark.parametrize("text", ["S -> a S b | a b\n", "S -> S up S | down |\n"])
@pytest.mark.parametrize(
    "n, strategy",
    [
        (3, Exhaustive(budget=0)),
        (3, Exhaustive(budget=1)),
        # m=3's empty transition set ends at 1,177 automata, a set boundary
        (3, Exhaustive(budget=1177)),
        # inside the next set, q0 to q0 on the first letter, which q1 <-> q2
        # maps to itself: 13 of its 29 canonical pairs
        (3, Exhaustive(budget=1190)),
        (3, Exhaustive(budget=3000)),
        (2, Exhaustive()),
    ],
)
def test_budgeted_sweeps_match_the_scan_reduction(text, n, strategy):
    g = to_cnf(parse_grammar(text))
    found = sweep_outcome(measure_rho, g, n, strategy)
    assert found == sweep_outcome(measure_rho_without_floor, g, n, strategy)
    if strategy.budget <= 3000:
        assert found[1].tested_count == strategy.budget and not found[1].exhaustive
    else:
        assert found.tested_count == 1164 and found.exhaustive


def test_random_grammar_sweeps_match_the_floor_free_reduction(rng):
    epsilon_grammars = budgeted = 0
    for seed in range(30):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=2, epsilon_weight=0.2)
        epsilon_grammars += g.epsilon_at_start
        if seed % 3 == 0:
            strategy, n = Exhaustive(), rng.randint(1, 2)
        elif seed % 3 == 1:
            strategy, n = Exhaustive(budget=1000), 3
        else:
            g = rename_terminals(g, UP_DOWN_FLAT)
            strategy, n = RandomSample(count=80, seed=seed), 4
        found = sweep_outcome(measure_rho, g, n, strategy)
        budgeted += isinstance(found, tuple)
        assert found == sweep_outcome(measure_rho_without_floor, g, n, strategy)
    assert epsilon_grammars >= 3 and budgeted == 10


ORACLE_GRAMMARS = [
    "S -> S S | a S b | a b\n",
    "S -> S S | a S b | c S d | a b | c d\n",
    "S -> a S b | a b\n",
    # a^m b^2m: the parts of b b have one word length, so ``splits`` walks
    # them by target node
    "S -> a S b b | a b b\n",
    "S -> a S b S |\n",
    # odd-length palindromes
    "S -> a S a | b S b | a | b\n",
]


@pytest.mark.parametrize("text", ORACLE_GRAMMARS)
def test_sweeps_of_stopped_closures_match_the_floor_free_reduction(text):
    # random and two-cycle automata each build a closure that stops at
    # their answer; the reference reads every automaton's whole table
    g = to_cnf(parse_grammar(text))
    runs = [
        (2 + seed % 7, RandomSample(count=40, seed=seed, density=density))
        for seed in range(12)
        for density in (0.15, 0.3, 0.5)
    ]
    runs += [(p + q, TwoCycle(p, q)) for p in range(1, 5) for q in range(1, 5)]
    nonempty = 0
    for n, strategy in runs:
        estimate = measure_rho(g, n, strategy)
        assert estimate == measure_rho_without_floor(g, n, strategy)
        nonempty += estimate.value is not None
    assert len(runs) == 52 and nonempty >= 30


@pytest.fixture
def closures_built(monkeypatch):
    """The transitions of each ``ProductClosure`` that ``measure`` builds
    from here on."""
    built = []

    class CountingClosure(ProductClosure):
        def __init__(self, g, transitions, **kwargs):
            built.append(transitions)
            super().__init__(g, transitions, **kwargs)

    monkeypatch.setattr(ratindex.measure, "ProductClosure", CountingClosure)
    return built


def test_random_grammar_sweeps_over_shortest_words_match_the_floor_free_reduction(
    rng, closures_built
):
    # an automaton that accepts one of the grammar's shortest words while
    # they are below the floor builds no closure
    tested = valued = epsilon_grammars = 0
    for seed in range(40):
        g = random_cnf_grammar(rng, max_nonterminals=3, max_terminals=3, epsilon_weight=0.1)
        if seed % 2:
            g = rename_terminals(g, UP_DOWN_FLAT)
        n = 2 + seed % 7
        strategy = RandomSample(count=50, seed=seed, density=rng.choice([0.15, 0.3, 0.5]))
        estimate = measure_rho(g, n, strategy)
        assert estimate == measure_rho_without_floor(g, n, strategy)
        tested += estimate.tested_count
        valued += estimate.value is not None
        epsilon_grammars += g.epsilon_at_start
    assert tested == 2000 and valued >= 35 and epsilon_grammars >= 5
    assert len(closures_built) <= 1500


def test_random_sweep_builds_closures_only_above_the_shortest_words(closures_built):
    # of the seed-7 Dyck sweep's 500 automata, 230 accept "ab" after a
    # longer word is found, and build no closure
    g = to_cnf(parse_grammar("S -> S S | a S b | a b\n"))
    estimate = measure_rho(g, 6, RandomSample(count=500, seed=7))
    assert (estimate.value, estimate.witness_word, estimate.witness_id) == (
        6, tuple("aaabbb"), "random_s7_334"
    )
    assert estimate.tested_count == 500 and len(closures_built) == 270


def test_pool_matches_serial_beyond_one_batch(anbn_cnf):
    strategy = RandomSample(count=300, seed=4)
    serial = measure_rho(anbn_cnf, 4, strategy, workers=1)
    assert serial.tested_count == 300 and serial.value is not None
    assert measure_rho(anbn_cnf, 4, strategy, workers=2) == serial


def test_pool_matches_serial_through_the_budget(anbn_cnf):
    partials = []
    for workers in (1, 2):
        with pytest.raises(BudgetExceededError) as err:
            measure_rho(anbn_cnf, 3, Exhaustive(budget=500), workers=workers)
        partials.append(err.value.partial)
    serial, parallel = partials
    assert serial.tested_count == 500 and not serial.exhaustive
    assert serial.value is not None
    assert parallel == serial


def test_sweeps_start_no_process(anbn_cnf, monkeypatch):
    def no_process(self):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    sampled = measure_rho(anbn_cnf, 4, RandomSample(count=300, seed=4), workers=2)
    assert (sampled.value, sampled.witness_id, sampled.tested_count) == (
        8, "random_s4_141", 300
    )
    assert measure_rho(anbn_cnf, 8, TwoCycle(3, 5), workers=4).value == 30


def test_import_loads_no_numpy_or_process_modules():
    code = (
        "import sys, ratindex\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'numpy', 'multiprocessing', 'concurrent'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
