import random
from collections import Counter, namedtuple

import pytest

from ratindex.graphs import (
    GraphFormatError,
    LabeledGraph,
    NFA,
    graph_to_text,
    nfa_to_text,
    parse_graph,
    parse_nfa,
)

import oracles


def test_graph_roundtrip():
    graph = LabeledGraph.from_edges(
        [("1", "a", "2"), ("2", "b", "1")], nodes=["1", "2", "3"]
    )
    parsed = parse_graph(graph_to_text(graph))
    assert parsed.edges == graph.edges
    # isolated nodes are not representable in the TSV format
    assert parsed.nodes == {"1", "2"}


def test_graph_rejects_bad_lines():
    with pytest.raises(GraphFormatError):
        parse_graph("1\ta\n")
    with pytest.raises(GraphFormatError):
        parse_graph("initial: q\n")


def test_nfa_roundtrip():
    nfa = NFA(
        states=frozenset({"q0", "q1"}),
        alphabet=frozenset({"a"}),
        transitions=frozenset({("q0", "a", "q1"), ("q1", "a", "q1")}),
        initial=frozenset({"q0"}),
        accepting=frozenset({"q1"}),
    )
    parsed = parse_nfa(nfa_to_text(nfa))
    assert parsed == nfa


def test_nfa_requires_headers():
    with pytest.raises(GraphFormatError):
        parse_nfa("q0\ta\tq1\n")


def test_nfa_accepts():
    nfa = parse_nfa("initial: q0\naccepting: q1\nq0\ta\tq1\nq1\tb\tq0\n")
    assert nfa.accepts(("a",))
    assert nfa.accepts(("a", "b", "a"))
    assert not nfa.accepts(())
    assert not nfa.accepts(("b",))
    assert not nfa.accepts(("a", "c")) is True  # unknown symbol: no move
    assert not nfa.accepts(("a", "a"))


def test_graph_language_automaton():
    graph = LabeledGraph.from_edges([("1", "a", "2")])
    nfa = graph.to_nfa()
    assert nfa.initial == graph.nodes
    assert nfa.accepting == graph.nodes
    assert nfa.accepts(())  # every node is initial and accepting
    assert nfa.accepts(("a",))


def test_validation_errors():
    with pytest.raises(GraphFormatError):
        LabeledGraph(frozenset({"1"}), frozenset({"a"}), frozenset({("1", "a", "2")}))
    with pytest.raises(GraphFormatError):
        NFA(
            frozenset({"q"}),
            frozenset({"a"}),
            frozenset(),
            frozenset({"missing"}),
            frozenset(),
        )


# --- the parsers and checks against line-by-line and edge-by-edge oracles

NAMES = ["v0", "v1", "v2", "q", "ä", "名", "x#y", "#c", "a b", "initial:", "accepting:q"]
LABELS = ["a", "b", "ñ", "initial:x"]
# Whitespace that str.split and str.strip drop; several also end lines.
SPACES = [" ", "\t", "  ", "\t\t", " \t ", "\xa0", "\u3000", "\u2009", "\x0b", "\x1f"]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", " "]


def _mutated_line(rng):
    fields = [rng.choice(NAMES), rng.choice(LABELS), rng.choice(NAMES)]
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice(["", " ", "\t", "\xa0 \t"])  # blank
    if kind == 1:
        return rng.choice(["", "  ", "\t"]) + "#" + rng.choice(["", " c", "\tv0\ta\tv1"])
    if kind == 2:
        key = rng.choice(["initial:", "accepting:"])
        names = rng.sample(NAMES[:6], rng.randrange(4))
        return rng.choice(["", " "]) + key + rng.choice(["", " ", "\t"]) + " ".join(names)
    if kind == 3:
        fields.insert(rng.randrange(4), "")  # an empty field
    elif kind == 4:
        fields.append(rng.choice(NAMES))  # an extra field
    elif kind == 5:
        del fields[rng.randrange(3)]  # a missing field
    if kind in (6, 7):
        seps = ["\t", "\t"]  # a clean edge line
    else:
        seps = [rng.choice(SPACES) for _ in fields[1:]]
    line = fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:]))
    if kind == 8:
        line = rng.choice(SPACES) + line + rng.choice(SPACES)
    return line


def _mutated_text(rng, clean):
    if clean:  # edge lines: three fields, two tabs, a newline
        lines = [
            "\t".join([rng.choice(NAMES[:6]), rng.choice(LABELS[:3]), rng.choice(NAMES[:6])])
            for _ in range(rng.randint(1, 8))
        ]
        if rng.random() < 0.4:  # but for one that only looks like an edge
            lines[rng.randrange(len(lines))] = rng.choice(
                [
                    "#c\ta\tv0",
                    "initial:\ta\tv0",
                    "accepting:q\ta\tv0",
                    "v0\tinitial:x\tv1",
                    "a b\ta\tv0",
                    "v0\ta\tv1\tb",
                    "v0\ta\tv1\tb\tv2",
                ]
            )
        ends = ["\n"] * len(lines)
    else:
        lines = [_mutated_line(rng) for _ in range(rng.randint(0, 8))]
        ends = [rng.choice(ENDINGS) for _ in lines]
    if lines and rng.random() < 0.3:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(build, *args):
    """The fields that `build(*args)` gives, or its error's type and text."""
    try:
        value = build(*args)
    except (GraphFormatError, ValueError) as err:
        return type(err).__name__, str(err)
    if isinstance(value, LabeledGraph):
        assert all(type(e) is tuple for e in value.edges)
        return value.nodes, value.alphabet, value.edges
    if isinstance(value, NFA):
        assert all(type(t) is tuple for t in value.transitions)
        return value.states, value.alphabet, value.transitions, value.initial, value.accepting
    return value


def test_parsers_match_the_line_by_line_oracle_on_mutated_texts():
    rng = random.Random(18)
    kinds = Counter()
    for case in range(2400):
        text = _mutated_text(rng, clean=case % 3 == 0)
        if case % 2:  # an NFA text: headers first, sometimes one missing
            heads = ["initial: " + rng.choice(NAMES[:4]), "accepting: " + rng.choice(NAMES[:4])]
            text = "\n".join(heads[: 2 - (case % 7 == 1)]) + "\n" + text
        graph = _outcome(parse_graph, text)
        assert graph == _outcome(oracles.parse_graph_by_line, text), repr(text)
        nfa = _outcome(parse_nfa, text)
        assert nfa == _outcome(oracles.parse_nfa_by_line, text), repr(text)
        kinds[len(graph) == 3, len(nfa) == 5] += 1
    # graphs and NFAs parse often, and no text is both: an NFA has headers
    assert min(kinds.values()) > 400 and len(kinds) == 3, kinds


Row = namedtuple("Row", "source label target")


def _edge_container(rng, edges):
    """A maker of the edges in one of the forms that the constructors take."""
    form = rng.randrange(6)
    if form == 0:
        return lambda: list(map(list, edges))
    if form == 1:
        return lambda: (e for e in edges)
    if form == 2:
        return lambda: set(edges)
    if form == 3:
        return lambda: frozenset(Row(*e) if len(e) == 3 else e for e in edges)
    return lambda: frozenset(edges)


def test_constructors_match_the_edge_by_edge_oracle():
    rng = random.Random(43)
    errors = Counter()
    for case in range(900):
        pool = NAMES[: rng.randint(2, len(NAMES))]
        edges = [
            (rng.choice(NAMES), rng.choice(LABELS), rng.choice(NAMES))
            for _ in range(rng.randint(0, 12))
        ]
        if rng.random() < 0.1:  # an edge that is no triple
            edges.append(rng.choice([("v0", "a"), ("v0", "a", "v1", "b"), ()]))
        nodes = rng.sample(pool, rng.randrange(len(pool) + 1))
        alphabet = rng.sample(LABELS, rng.randrange(len(LABELS) + 1))
        if case % 2:  # mostly declared, so that the checks pass often
            nodes += [x for e in edges for x in e[::2]] * (rng.random() < 0.6)
            alphabet += [e[1] for e in edges if len(e) > 1] * (rng.random() < 0.6)
        make = _edge_container(rng, edges)
        got = _outcome(LabeledGraph, frozenset(nodes), frozenset(alphabet), make())
        assert got == _outcome(oracles.graph_fields_by_edge, nodes, alphabet, make())
        got_from = _outcome(LabeledGraph.from_edges, make(), nodes)
        assert got_from == _outcome(oracles.graph_fields_from_edges, make(), nodes)
        initial = rng.sample(pool, rng.randrange(3))
        accepting = rng.sample(pool, rng.randrange(3))
        args = (frozenset(nodes), frozenset(alphabet))
        got_nfa = _outcome(NFA, *args, make(), frozenset(initial), frozenset(accepting))
        want_nfa = _outcome(oracles.nfa_fields_by_edge, *args, make(), initial, accepting)
        assert got_nfa == want_nfa
        for outcome in (got, got_from, got_nfa):
            errors[outcome[1][:12] if isinstance(outcome[0], str) else "built"] += 1
    assert len(errors) >= 6 and min(errors.values()) >= 20, errors
