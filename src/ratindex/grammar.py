"""Context-free grammars: file format, Chomsky normal form, CYK membership."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import RatIndexError
from .intersection import ProductClosure, derivation_tree
from .trees import EPSILON, ParseTree


class GrammarError(RatIndexError):
    pass


class GrammarSyntaxError(GrammarError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


class DuplicateSymbolError(GrammarError):
    pass


class UndeclaredSymbolError(GrammarError):
    pass


class EmptyLanguageError(GrammarError):
    pass


class SymbolNotInAlphabetError(GrammarError):
    pass


class Production(NamedTuple):
    lhs: str
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        return "%s -> %s" % (self.lhs, " ".join(self.rhs) if self.rhs else EPSILON)


@dataclass(frozen=True)
class Grammar:
    """A context-free grammar (terminals, nonterminals, productions, start).

    Terminal and nonterminal names live in disjoint namespaces; production
    order is significant (it is the production id used for tie-breaking).
    Instances are immutable and hashable.
    """

    terminals: frozenset[str]
    nonterminals: frozenset[str]
    productions: tuple[Production, ...]
    start: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(
            self,
            "productions",
            tuple(Production(lhs, tuple(rhs)) for lhs, rhs in self.productions),
        )
        clash = self.terminals & self.nonterminals
        if clash:
            raise DuplicateSymbolError(
                "symbols used as both terminal and nonterminal: %s" % sorted(clash)
            )
        if self.start not in self.nonterminals:
            raise GrammarError("start symbol %r is not a nonterminal" % self.start)
        symbols = self.terminals | self.nonterminals
        for prod in self.productions:
            if prod.lhs not in self.nonterminals:
                raise GrammarError("production head %r is not a nonterminal" % prod.lhs)
            for sym in prod.rhs:
                if sym not in symbols:
                    raise UndeclaredSymbolError(
                        "unknown symbol %r in production %s" % (sym, prod)
                    )

    def by_lhs(self) -> dict[str, list[tuple[int, Production]]]:
        index: dict[str, list[tuple[int, Production]]] = {}
        for i, prod in enumerate(self.productions):
            index.setdefault(prod.lhs, []).append((i, prod))
        return index

    def __str__(self) -> str:
        return grammar_to_text(self)


@dataclass(frozen=True)
class CNFGrammar(Grammar):
    """A grammar in Chomsky normal form.

    Productions are A -> B C, A -> a, or S -> epsilon; the last one exists
    exactly when ``epsilon_at_start`` is set, in which case the start symbol
    never appears on a right-hand side.  Every nonterminal is useful
    (generating and reachable from the start symbol).
    """

    epsilon_at_start: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        saw_epsilon = False
        for prod in self.productions:
            if len(prod.rhs) == 0:
                if prod.lhs != self.start:
                    raise GrammarError("epsilon production on non-start %r" % prod.lhs)
                if not self.epsilon_at_start:
                    raise GrammarError("epsilon production without epsilon_at_start")
                saw_epsilon = True
            elif len(prod.rhs) == 1:
                if prod.rhs[0] not in self.terminals:
                    raise GrammarError("unit production %s is not allowed in CNF" % (prod,))
            elif len(prod.rhs) == 2:
                if not all(s in self.nonterminals for s in prod.rhs):
                    raise GrammarError("binary production %s must pair nonterminals" % (prod,))
            else:
                raise GrammarError("production %s is longer than two symbols" % (prod,))
        if self.epsilon_at_start:
            if not saw_epsilon:
                raise GrammarError("epsilon_at_start set but no epsilon production")
            for prod in self.productions:
                if self.start in prod.rhs:
                    raise GrammarError(
                        "start symbol may not occur on a right-hand side "
                        "when the grammar derives the empty word"
                    )
        generating = generating_nonterminals(self)
        reachable = reachable_symbols(self)
        for nt in self.nonterminals:
            if nt not in generating or nt not in reachable:
                raise GrammarError("useless nonterminal %r in CNF grammar" % nt)


# ---------------------------------------------------------------------------
# Grammar file format
#
#   Desc -> Child | Child Desc     # first head is the start symbol
#   Child -> child
#
# Nonterminals are identifiers starting with an uppercase letter; terminals
# are lowercase identifiers or quoted tokens.  An empty alternative denotes
# the empty word.  '#' starts a comment.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#.*)"
    r"|(?P<arrow>->)"
    r"|(?P<pipe>\|)"
    r"|(?P<quoted>'[^'\s]+'|\"[^\"\s]+\")"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)

_NONTERMINAL_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_BARE_TERMINAL_RE = re.compile(r"[a-z_][A-Za-z0-9_]*\Z")


def _tokenize_line(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(line):
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise GrammarSyntaxError("unexpected character %r" % line[pos], lineno, pos + 1)
        kind = match.lastgroup
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append((kind, match.group(), pos + 1))
        pos = match.end()
    return tokens


def parse_grammar(text: str) -> Grammar:
    """Parse the one-production-per-line grammar format.

    The first production's head is the start symbol.  Every nonterminal
    occurring in a body must have at least one production of its own, and a
    name may not denote both a terminal and a nonterminal.
    """
    raw_rules: list[tuple[str, list[tuple[str, str, int]], int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, lineno)
        if not tokens:
            continue
        if tokens[0][0] != "ident" or not _NONTERMINAL_RE.match(tokens[0][1]):
            raise GrammarSyntaxError(
                "expected a nonterminal on the left-hand side", lineno, tokens[0][2]
            )
        if len(tokens) < 2 or tokens[1][0] != "arrow":
            col = tokens[1][2] if len(tokens) > 1 else tokens[0][2] + len(tokens[0][1])
            raise GrammarSyntaxError("expected '->'", lineno, col)
        raw_rules.append((tokens[0][1], tokens[2:], lineno))
    if not raw_rules:
        raise GrammarSyntaxError("no productions found", 1, 1)

    heads = {lhs for lhs, _, _ in raw_rules}
    productions: list[Production] = []
    terminals: set[str] = set()
    seen: set[Production] = set()
    for lhs, tokens, lineno in raw_rules:
        alternatives: list[list[str]] = [[]]
        for kind, value, col in tokens:
            if kind == "pipe":
                alternatives.append([])
            elif kind == "quoted":
                name = value[1:-1]
                if name in heads:
                    raise DuplicateSymbolError(
                        "line %d: %r is declared as a nonterminal and quoted "
                        "as a terminal" % (lineno, name)
                    )
                terminals.add(name)
                alternatives[-1].append(name)
            elif kind == "ident":
                if _NONTERMINAL_RE.match(value):
                    if value not in heads:
                        raise UndeclaredSymbolError(
                            "line %d: nonterminal %r has no production" % (lineno, value)
                        )
                    alternatives[-1].append(value)
                else:
                    terminals.add(value)
                    alternatives[-1].append(value)
            else:
                raise GrammarSyntaxError("unexpected %r" % value, lineno, col)
        for body in alternatives:
            prod = Production(lhs, tuple(body))
            if prod not in seen:
                seen.add(prod)
                productions.append(prod)

    clash = terminals & heads
    if clash:
        raise DuplicateSymbolError(
            "symbols used as both terminal and nonterminal: %s" % sorted(clash)
        )
    return Grammar(
        terminals=frozenset(terminals),
        nonterminals=frozenset(heads),
        productions=tuple(productions),
        start=raw_rules[0][0],
    )


def _format_symbol(sym: str, nonterminals: frozenset[str]) -> str:
    if sym in nonterminals:
        if not _NONTERMINAL_RE.match(sym):
            raise ValueError("nonterminal %r cannot be written in the grammar format" % sym)
        return sym
    if _BARE_TERMINAL_RE.match(sym):
        return sym
    if "'" in sym or any(c.isspace() for c in sym) or not sym:
        raise ValueError("terminal %r cannot be written in the grammar format" % sym)
    return "'%s'" % sym


def grammar_to_text(g: Grammar) -> str:
    """Render a grammar in the file format (start symbol's rules first)."""
    order: list[str] = [g.start]
    for prod in g.productions:
        if prod.lhs not in order:
            order.append(prod.lhs)
    lines = []
    for lhs in order:
        bodies = [p.rhs for p in g.productions if p.lhs == lhs]
        if not bodies:
            continue
        rendered = [
            " ".join(_format_symbol(s, g.nonterminals) for s in body) for body in bodies
        ]
        lines.append("%s -> %s" % (lhs, " | ".join(rendered)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural analyses
# ---------------------------------------------------------------------------


def generating_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals that derive at least one terminal word."""
    generating: set[str] = set()
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            if prod.lhs in generating:
                continue
            if all(s in g.terminals or s in generating for s in prod.rhs):
                generating.add(prod.lhs)
                changed = True
    return frozenset(generating)


def nullable_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals that derive the empty word."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            if prod.lhs in nullable:
                continue
            if all(s in nullable for s in prod.rhs):
                nullable.add(prod.lhs)
                changed = True
    return frozenset(nullable)


def reachable_symbols(g: Grammar) -> frozenset[str]:
    """Symbols reachable from the start symbol (the start itself included)."""
    reached = {g.start}
    frontier = [g.start]
    index = g.by_lhs()
    while frontier:
        nt = frontier.pop()
        for _, prod in index.get(nt, ()):
            for sym in prod.rhs:
                if sym not in reached:
                    reached.add(sym)
                    if sym in g.nonterminals:
                        frontier.append(sym)
    return frozenset(reached)


def trim_useless(g: Grammar) -> Grammar:
    """Drop non-generating and unreachable symbols; error if L(g) is empty."""
    generating = generating_nonterminals(g)
    if g.start not in generating:
        raise EmptyLanguageError("start symbol %r derives no terminal word" % g.start)
    kept = [
        p
        for p in g.productions
        if p.lhs in generating
        and all(s in g.terminals or s in generating for s in p.rhs)
    ]
    pruned = Grammar(g.terminals, generating, tuple(kept), g.start)
    reachable = reachable_symbols(pruned)
    kept = [p for p in pruned.productions if p.lhs in reachable]
    return Grammar(
        terminals=g.terminals,
        nonterminals=frozenset(nt for nt in generating if nt in reachable),
        productions=tuple(kept),
        start=g.start,
    )


def _fresh_name(base: str, used: set[str]) -> str:
    if base not in used:
        used.add(base)
        return base
    for i in itertools.count(1):
        candidate = "%s%d" % (base, i)
        if candidate not in used:
            used.add(candidate)
            return candidate
    raise AssertionError("unreachable")


def _dedup(prods: Iterable[Production]) -> list[Production]:
    seen: set[Production] = set()
    out = []
    for p in prods:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def to_cnf(g: Grammar) -> CNFGrammar:
    """Convert to Chomsky normal form preserving the language exactly.

    Steps: fresh start symbol when the empty word is in the language, then
    epsilon elimination, unit elimination, terminal lifting inside long
    bodies, binarization, and removal of useless symbols.
    """
    if g.start not in generating_nonterminals(g):
        raise EmptyLanguageError("start symbol %r derives no terminal word" % g.start)
    nullable = nullable_nonterminals(g)
    derives_epsilon = g.start in nullable
    used = set(g.terminals) | set(g.nonterminals)

    start = g.start
    prods = list(g.productions)
    if derives_epsilon:
        start = _fresh_name(g.start + "0", used)
        prods.insert(0, Production(start, (g.start,)))

    # Epsilon elimination: every way of dropping nullable occurrences.
    expanded: list[Production] = []
    for prod in prods:
        nullable_positions = [i for i, s in enumerate(prod.rhs) if s in nullable]
        for mask in range(1 << len(nullable_positions)):
            dropped = {
                pos
                for bit, pos in enumerate(nullable_positions)
                if mask & (1 << bit)
            }
            body = tuple(s for i, s in enumerate(prod.rhs) if i not in dropped)
            if body:
                expanded.append(Production(prod.lhs, body))
    expanded = _dedup(expanded)

    # Unit elimination.
    heads: list[str] = []
    for prod in expanded:
        if prod.lhs not in heads:
            heads.append(prod.lhs)
    unit_targets: dict[str, list[str]] = {}
    for head in heads:
        closure = [head]
        frontier = [head]
        while frontier:
            current = frontier.pop(0)
            for prod in expanded:
                if prod.lhs != current:
                    continue
                if len(prod.rhs) == 1 and prod.rhs[0] in g.nonterminals:
                    target = prod.rhs[0]
                    if target not in closure:
                        closure.append(target)
                        frontier.append(target)
        unit_targets[head] = closure
    without_units: list[Production] = []
    for head in heads:
        for target in unit_targets[head]:
            for prod in expanded:
                if prod.lhs != target:
                    continue
                if len(prod.rhs) == 1 and prod.rhs[0] in g.nonterminals:
                    continue
                without_units.append(Production(head, prod.rhs))
    without_units = _dedup(without_units)

    # Lift terminals out of bodies of length two or more.
    wrappers: dict[str, str] = {}
    lifted: list[Production] = []
    wrapper_rules: list[Production] = []
    for prod in without_units:
        if len(prod.rhs) >= 2:
            body = []
            for sym in prod.rhs:
                if sym in g.terminals:
                    if sym not in wrappers:
                        wrappers[sym] = _fresh_name("T_%s" % sym, used)
                        wrapper_rules.append(Production(wrappers[sym], (sym,)))
                    body.append(wrappers[sym])
                else:
                    body.append(sym)
            lifted.append(Production(prod.lhs, tuple(body)))
        else:
            lifted.append(prod)

    # Binarize long bodies.
    binary: list[Production] = []
    for prod in lifted:
        body = prod.rhs
        if len(body) <= 2:
            binary.append(prod)
            continue
        head = prod.lhs
        rest = list(body)
        while len(rest) > 2:
            helper = _fresh_name("X", used)
            binary.append(Production(head, (rest[0], helper)))
            head = helper
            rest = rest[1:]
        binary.append(Production(head, tuple(rest)))
    binary.extend(wrapper_rules)
    if derives_epsilon:
        binary.append(Production(start, ()))
    binary = _dedup(binary)

    nonterminals = frozenset(
        {p.lhs for p in binary}
        | {s for p in binary for s in p.rhs if s not in g.terminals}
        | {start}
    )
    candidate = Grammar(g.terminals, nonterminals, tuple(binary), start)
    trimmed = trim_useless(candidate)
    return CNFGrammar(
        terminals=g.terminals,
        nonterminals=trimmed.nonterminals,
        productions=trimmed.productions,
        start=start,
        epsilon_at_start=derives_epsilon,
    )


# ---------------------------------------------------------------------------
# CYK
# ---------------------------------------------------------------------------


def _check_word(g: Grammar, word: Sequence[str]) -> tuple[str, ...]:
    w = tuple(word)
    for sym in w:
        if sym not in g.terminals:
            raise SymbolNotInAlphabetError("symbol %r is not a terminal" % sym)
    return w


def cyk_membership(g: CNFGrammar, word: Sequence[str]) -> bool:
    """Decide whether the CNF grammar derives the word.

    Runs the product closure over the word's chain automaton, whose states
    are the positions 0..|w|, so the cost follows the realized
    (nonterminal, i, j) facts rather than |w|^3.
    """
    w = _check_word(g, word)
    if not w:
        return g.epsilon_at_start
    product = ProductClosure(g, [(p, a, p + 1) for p, a in enumerate(w)])
    return (g.start, 0, len(w)) in product.lengths


def cyk_parse(g: CNFGrammar, word: Sequence[str]) -> ParseTree | None:
    """Return one parse tree of the word, or None when it is not derivable.

    Tie-breaking is deterministic: lower production ids and smaller split
    points win.  This is the canonical rule of the product closure: on the
    word's chain every derivation of (A, i, j) spells w[i:j], so words never
    decide.
    """
    w = _check_word(g, word)
    if not w:
        if g.epsilon_at_start:
            return ParseTree(g.start, (ParseTree(EPSILON),))
        return None
    product = ProductClosure(g, [(p, a, p + 1) for p, a in enumerate(w)])
    root = (g.start, 0, len(w))
    if root not in product.lengths:
        return None

    def parts(triple: tuple[str, int, int]) -> tuple:
        _, i, j = triple
        if j == i + 1:
            return (w[i],)
        _pid, left, right = min(product.splits(triple))
        return left, right

    return derivation_tree(root, parts)


def is_valid_parse_tree(g: Grammar, tree: ParseTree, require_start: bool = False) -> bool:
    """Check that every internal node applies a production of the grammar."""
    if require_start and tree.label != g.start:
        return False
    rules = {(p.lhs, p.rhs) for p in g.productions}
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if node.label == EPSILON:
                continue
            if node.label not in g.terminals:
                return False
            continue
        if node.label not in g.nonterminals:
            return False
        if len(node.children) == 1 and node.children[0].label == EPSILON:
            if (node.label, ()) not in rules:
                return False
            continue
        body = tuple(c.label for c in node.children)
        if (node.label, body) not in rules:
            return False
        stack.extend(node.children)
    return True


# ---------------------------------------------------------------------------
# Word helpers (CLI and tests)
# ---------------------------------------------------------------------------


def parse_word(g: Grammar, text: str) -> tuple[str, ...]:
    """Read a word: whitespace-separated symbols, or a string of one-letter
    terminals when that is unambiguous."""
    text = text.strip()
    if not text:
        return ()
    parts = text.split()
    if len(parts) > 1:
        return _check_word(g, parts)
    if text in g.terminals:
        return (text,)
    return _check_word(g, tuple(text))


def format_word(word: Sequence[str]) -> str:
    """Inverse of parse_word for display purposes."""
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return " ".join(word)
