"""Chain Datalog programs over binary predicates, and their evaluation as
context-free reachability queries on graph databases."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import RatIndexError
from .grammar import CNFGrammar, EmptyLanguageError, Grammar, Production, to_cnf
from .graphs import LabeledGraph


class DatalogError(RatIndexError):
    pass


class DatalogSyntaxError(DatalogError):
    pass


class NonBinaryPredicateError(DatalogError):
    pass


class NonChainRuleError(DatalogError):
    pass


class NameCollisionError(DatalogError):
    pass


class UnknownEdbLabelError(DatalogError):
    pass


@dataclass(frozen=True)
class ChainRule:
    """head(x, y) :- p1(x, z1), p2(z1, z2), ..., pm(z_{m-1}, y)."""

    head: str
    body: tuple[str, ...]
    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ChainProgram:
    """A chain query: rules, the designated query predicate, and the split
    into derived predicates (idb) and database edge labels (edb).

    Body-only predicates denote database relations; their lowercased names
    are the edge labels expected in the graph.
    """

    rules: tuple[ChainRule, ...]
    query: str
    idb: frozenset[str]
    edb: frozenset[str]
    edge_predicates: frozenset[str]

    @functools.cached_property
    def cnf(self) -> CNFGrammar | None:
        """The CNF of ``chain_to_cfg(self)``, or None when it derives
        nothing.  Computed once per program; a ``NameCollisionError`` is
        not cached, so every read raises it again."""
        try:
            return to_cnf(chain_to_cfg(self))
        except EmptyLanguageError:
            return None


_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)\s*")


def _parse_atom(text: str, rule_text: str) -> tuple[str, tuple[str, ...]]:
    match = _ATOM_RE.fullmatch(text)
    if match is None:
        raise DatalogSyntaxError("cannot read atom %r in rule %r" % (text.strip(), rule_text))
    args = tuple(a.strip() for a in match.group(2).split(","))
    if len(args) != 2 or not all(args):
        raise NonBinaryPredicateError(
            "predicate %r in rule %r is not binary" % (match.group(1), rule_text)
        )
    return match.group(1), args


def _split_atoms(text: str, rule_text: str) -> list[str]:
    atoms = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            atoms.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        atoms.append("".join(current))
    if not atoms or not all(a.strip() for a in atoms):
        raise DatalogSyntaxError("empty atom in rule %r" % rule_text)
    return atoms


def parse_chain_program(text: str) -> ChainProgram:
    """Parse one rule per line; `?- Pred` picks the query predicate
    (defaulting to the first rule's head).  Every rule must be a chain:
    body atoms link the head's first variable to its second through fresh
    intermediate variables."""
    rules: list[ChainRule] = []
    query: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        if line.startswith("?-"):
            query = line[2:].strip().rstrip(".").strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", query or ""):
                raise DatalogSyntaxError("line %d: bad query %r" % (lineno, line))
            continue
        rule_text = line.rstrip(".")
        if ":-" not in rule_text:
            raise DatalogSyntaxError("line %d: rule needs ':-' (%r)" % (lineno, line))
        head_text, body_text = rule_text.split(":-", 1)
        head, (x, y) = _parse_atom(head_text, rule_text)
        if x == y:
            raise NonChainRuleError(
                "rule %r: head variables must be distinct" % rule_text
            )
        atoms = [_parse_atom(a, rule_text) for a in _split_atoms(body_text, rule_text)]
        current = x
        seen_vars = {x, y}
        body_preds = []
        for idx, (pred, (first, second)) in enumerate(atoms):
            if first != current:
                raise NonChainRuleError(
                    "rule %r: atom %d starts with %r, expected %r"
                    % (rule_text, idx + 1, first, current)
                )
            last = idx == len(atoms) - 1
            if last:
                if second != y:
                    raise NonChainRuleError(
                        "rule %r: chain ends with %r, expected %r"
                        % (rule_text, second, y)
                    )
            else:
                if second in seen_vars:
                    raise NonChainRuleError(
                        "rule %r: intermediate variable %r is not fresh"
                        % (rule_text, second)
                    )
                seen_vars.add(second)
            current = second
            body_preds.append(pred)
        rules.append(ChainRule(head, tuple(body_preds), rule_text))
    if not rules:
        raise DatalogSyntaxError("no rules found")
    heads = {r.head for r in rules}
    if query is None:
        query = rules[0].head
    if query not in heads and all(query not in r.body for r in rules):
        raise DatalogSyntaxError("query predicate %r does not occur" % query)
    edge_predicates = frozenset(
        {p for r in rules for p in r.body if p not in heads}
    )
    # Predicates that turn into grammar nonterminals: rule heads, plus edge
    # predicates that need a wrapper because their name is not already the
    # lowercase edge label.
    idb = heads | {p for p in edge_predicates if p != p.lower()}
    return ChainProgram(
        rules=tuple(rules),
        query=query,
        idb=frozenset(idb),
        edb=frozenset(p.lower() for p in edge_predicates),
        edge_predicates=edge_predicates,
    )


def chain_to_cfg(program: ChainProgram) -> Grammar:
    """One nonterminal per derived predicate, one production per rule, and a
    wrapper production P -> p for every capitalized database predicate (p
    its lowercased edge label); already-lowercase database predicates are
    used as terminals directly.  The start symbol is the query predicate,
    or, when the query is such a terminal, a fresh start with one
    production to it."""
    wrapped = program.idb & program.edge_predicates
    label_sources: dict[str, str] = {}
    for pred in sorted(program.edge_predicates):
        label = pred.lower()
        if label in program.idb:
            raise NameCollisionError(
                "edge label %r collides with a predicate name" % label
            )
        if label in label_sources:
            raise NameCollisionError(
                "edge label %r is produced by both %r and %r"
                % (label, label_sources[label], pred)
            )
        label_sources[label] = pred
    terminals = set(label_sources)
    productions = []
    for rule in program.rules:
        body = tuple(s if s in program.idb else s.lower() for s in rule.body)
        productions.append(Production(rule.head, body))
    for pred in sorted(wrapped):
        productions.append(Production(pred, (pred.lower(),)))
    start = program.query
    if start in terminals:
        # "?-" cannot begin a predicate name, so the start is fresh
        start = "?-" + start
        productions.append(Production(start, (program.query,)))
    return Grammar(
        terminals=frozenset(terminals),
        nonterminals=program.idb | {start},
        productions=tuple(productions),
        start=start,
    )


def evaluate(program: ChainProgram, graph: LabeledGraph) -> frozenset[tuple[str, str]]:
    """Query-predicate facts over the graph database.

    Equivalent to the bottom-up fixpoint of the program; computed as the
    start pairs of all-pairs reachability for the program's grammar
    (``reach_pairs``) in the CNF that ``ChainProgram.cnf`` keeps.  A
    program whose grammar derives nothing yields no facts.
    """
    from .reachability import reach_pairs

    missing = program.edb - graph.alphabet
    if missing:
        raise UnknownEdbLabelError(
            "edge labels missing from the graph: %s" % sorted(missing)
        )
    cnf = program.cnf
    if cnf is None:
        return frozenset()
    return reach_pairs(cnf, graph)
