"""Edge-labeled directed graphs and nondeterministic finite automata."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import RatIndexError

Edge = tuple[str, str, str]  # (source, label, target)


class GraphFormatError(RatIndexError):
    pass


@dataclass(frozen=True)
class LabeledGraph:
    """A directed graph with labeled edges; the regular side of queries.

    Its graph language is the one accepted by the automaton obtained by
    making every node both initial and accepting.
    """

    nodes: frozenset[str]
    alphabet: frozenset[str]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        edges = _checked_edges(
            self.edges, self.nodes, self.alphabet,
            "edge endpoint not among nodes: {!r}", "edge label {!r} not in alphabet",
        )
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], nodes: Iterable[str] = ()) -> "LabeledGraph":
        rows = tuple(map(tuple, edges))
        edge_set = frozenset(rows)
        if not set(map(len, rows)) <= {3}:
            for _src, _label, _dst in edge_set:  # unpacking an edge that is no triple raises
                pass
        sources, labels, targets = tuple(zip(*rows)) or ((), (), ())
        return cls(frozenset(nodes).union(sources, targets), frozenset(labels), edge_set)

    def to_nfa(self) -> "NFA":
        """Every node initial and accepting: the graph-language automaton."""
        return NFA(self.nodes, self.alphabet, self.edges, self.nodes, self.nodes)


@dataclass(frozen=True)
class NFA:
    """A nondeterministic finite automaton without epsilon transitions."""

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[Edge]
    initial: frozenset[str]
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if not self.initial <= self.states or not self.accepting <= self.states:
            raise GraphFormatError("initial/accepting states must be states")
        transitions = _checked_edges(
            self.transitions, self.states, self.alphabet,
            "transition endpoint not among states", "transition label {!r} not in alphabet",
        )
        object.__setattr__(self, "transitions", transitions)

    @property
    def state_count(self) -> int:
        return len(self.states)

    def accepts(self, word: Sequence[str]) -> bool:
        return bool(reached_states(self.transitions, self.initial, word) & self.accepting)


def reached_states(
    transitions: frozenset[Edge], states: Iterable[str], word: Sequence[str]
) -> set[str]:
    """The states reached from ``states`` by reading ``word`` over
    ``transitions``, one scan of the transitions per symbol; it stops at the
    first symbol that leaves no state."""
    current = set(states)
    for symbol in word:
        current = {dst for src, label, dst in transitions if label == symbol and src in current}
        if not current:
            break
    return current


def _checked_edges(edges, nodes, alphabet, endpoint_error: str, label_error: str) -> frozenset:
    """``edges`` as a frozenset of tuples, not copied when it is one, once
    each is a triple from ``nodes`` over ``alphabet`` to ``nodes``.  The
    first bad edge raises GraphFormatError, ``endpoint_error`` formatted with
    the edge or ``label_error`` with its label, or ValueError when it is no
    triple.  The check is a plain loop: with the type check it took 40-80%
    of the time of ``issuperset`` on the columns of ``zip(*edges)``, on sets
    of 2 to 6,000 edges (CPython 3.11, 2 vCPUs).  Only when it fails are the
    edges walked one by one, over the copy of the given ones that has always
    been walked, so that the same first bad edge is named."""
    frozen = edges
    if type(edges) is not frozenset or not set(map(type, edges)) <= {tuple}:
        frozen = frozenset(tuple(e) for e in edges)
    try:
        for src, label, dst in frozen:
            if src not in nodes or dst not in nodes or label not in alphabet:
                break
        else:
            return frozen
    except ValueError:  # an edge that is no triple
        pass
    for src, label, dst in frozenset(tuple(e) for e in edges) if frozen is edges else frozen:
        if src not in nodes or dst not in nodes:
            raise GraphFormatError(endpoint_error.format((src, label, dst)))
        if label not in alphabet:
            raise GraphFormatError(label_error.format(label))
    return frozen


# ---------------------------------------------------------------------------
# File formats: a graph is TSV lines `source<TAB>label<TAB>target`; an NFA
# additionally carries `initial: ...` and `accepting: ...` header lines.
# ---------------------------------------------------------------------------


# A text each of whose lines is an edge: three tab-separated fields and no
# other whitespace (so no line break but "\n"), the first field not a
# comment.  If no header keyword occurs in it either, ``str.split`` yields
# the fields of all its edges in one call.
_EDGE_LINES = re.compile(r"(?:[^\s#]\S*\t\S+\t\S+(?:\n|\Z))*")


def _parse_edge_lines(text: str, allow_headers: bool):
    """The source, label and target of each edge in turn, in one list, and
    the names on the ``initial:`` and ``accepting:`` lines (None without)."""
    if _EDGE_LINES.fullmatch(text) and "initial:" not in text and "accepting:" not in text:
        return text.split(), None, None
    fields: list[str] = []
    initial: list[str] | None = None
    accepting: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("initial:") or line.startswith("accepting:"):
            if not allow_headers:
                raise GraphFormatError("line %d: header line in a plain graph file" % lineno)
            key, _, rest = line.partition(":")
            names = rest.split()
            if key == "initial":
                initial = names
            else:
                accepting = names
            continue
        parts = raw.split("\t") if "\t" in raw else line.split()
        parts = [p.strip() for p in parts if p.strip()]
        if len(parts) != 3:
            raise GraphFormatError(
                "line %d: expected `source<TAB>label<TAB>target`" % lineno
            )
        fields += parts
    return fields, initial, accepting


def parse_graph(text: str) -> LabeledGraph:
    fields, _, _ = _parse_edge_lines(text, allow_headers=False)
    sources, labels, targets = fields[0::3], fields[1::3], fields[2::3]
    return LabeledGraph(
        frozenset(sources).union(targets),
        frozenset(labels),
        frozenset(zip(sources, labels, targets)),
    )


def graph_to_text(graph: LabeledGraph) -> str:
    lines = ["%s\t%s\t%s" % edge for edge in sorted(graph.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_nfa(text: str) -> NFA:
    fields, initial, accepting = _parse_edge_lines(text, allow_headers=True)
    if initial is None or accepting is None:
        raise GraphFormatError("an NFA file needs `initial:` and `accepting:` lines")
    sources, labels, targets = fields[0::3], fields[1::3], fields[2::3]
    return NFA(
        frozenset(initial).union(accepting, sources, targets),
        frozenset(labels),
        frozenset(zip(sources, labels, targets)),
        frozenset(initial),
        frozenset(accepting),
    )


def nfa_to_text(nfa: NFA) -> str:
    lines = [
        "initial: %s" % " ".join(sorted(nfa.initial)),
        "accepting: %s" % " ".join(sorted(nfa.accepting)),
    ]
    lines.extend("%s\t%s\t%s" % t for t in sorted(nfa.transitions))
    return "\n".join(lines) + "\n"
