"""Context-free grammars: file format, Chomsky normal form, CYK membership."""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import RatIndexError
from .trees import EPSILON, ParseTree


# The most words per nonterminal that ``CNFGrammar.least_words`` keeps.
LEAST_WORDS_KEPT = 8


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

    @functools.cached_property
    def fixed_lengths(self) -> dict[str, int]:
        """The nonterminals whose words all have one length, with that
        length: those whose rules all give one length, a terminal rule 1 and
        a binary rule the sum of its children's, where both children are
        such nonterminals.  The children are shorter than their head, so one
        pass over the heads in increasing least length finds them: a head is
        fixed when each binary rule sums to its least length, as a terminal
        rule beside a binary one gives two lengths.  Computed once per
        grammar and shared, so callers must not change it."""
        nonempty = [prod for prod in self.productions if prod.rhs]
        least = _least_values(nonempty, dict.fromkeys(self.terminals, 1), 0, operator.add)
        pair_rules = self.rule_index[1]
        fixed: dict[str, int] = {}
        for head in sorted(least, key=least.get):
            if all(b in fixed and c in fixed and fixed[b] + fixed[c] == least[head]
                   for _, b, c in pair_rules.get(head, ())):
                fixed[head] = least[head]
        return fixed

    @functools.cached_property
    def rule_index(self) -> tuple[dict, dict, dict]:
        """The rules indexed for the joins of the product engines and CYK:
        the terminal rules by label, as (production id, head); the binary
        rules by head, as (production id, left, right); and the binary rules
        by child, as (parent, partner, whether the partner is the right
        child).  Each list is in production order.  Computed once per
        grammar and shared, so callers must not change them."""
        by_label: dict[str, list[tuple[int, str]]] = {}
        by_head: dict[str, list[tuple[int, str, str]]] = {}
        by_child: dict[str, list[tuple[str, str, bool]]] = {}
        for pid, (head, body) in enumerate(self.productions):
            if len(body) == 1:
                by_label.setdefault(body[0], []).append((pid, head))
            elif body:
                b, c = body
                by_head.setdefault(head, []).append((pid, b, c))
                by_child.setdefault(b, []).append((head, c, True))
                by_child.setdefault(c, []).append((head, b, False))
        return by_label, by_head, by_child

    @functools.cached_property
    def least_words(self) -> tuple[tuple[str, ...], ...]:
        """The start symbol's words of minimum length, sorted, or the first
        ``LEAST_WORDS_KEPT`` of them when it has more: ``((),)`` when the
        grammar derives the empty word.  In increasing least length, each
        nonterminal up to the start's takes the first words of its rules
        whose parts sum to that length.  Concatenation of words of fixed
        lengths keeps their order, so the first words of a rule are made of
        the first words of its parts.  A rational-index sweep reads them as
        a certificate: an automaton that accepts one already has a word
        below any longer floor.  Computed once per grammar and shared, so
        callers must not change it."""
        if self.epsilon_at_start:
            return ((),)
        least = _least_values(self.productions, dict.fromkeys(self.terminals, 1), 0, operator.add)
        rules = self.by_lhs()
        words: dict[str, list[tuple[str, ...]]] = {}
        for head in sorted(least, key=least.get):
            if least[head] > least[self.start]:
                break
            found = set()
            for _, (_, body) in rules[head]:
                if len(body) == 1:
                    found.add(body)
                elif least[body[0]] + least[body[1]] == least[head]:
                    found.update(u + v for u in words[body[0]] for v in words[body[1]])
            words[head] = sorted(found)[:LEAST_WORDS_KEPT]
        return tuple(words[self.start])


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
        productions.extend(Production(lhs, tuple(body)) for body in alternatives)

    return Grammar(
        terminals=frozenset(terminals),
        nonterminals=frozenset(heads),
        productions=tuple(dict.fromkeys(productions)),
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
    index = g.by_lhs()
    lines = []
    for lhs in dict.fromkeys([g.start, *index]):
        if lhs not in index:
            continue
        rendered = [
            " ".join(_format_symbol(s, g.nonterminals) for s in p.rhs)
            for _, p in index[lhs]
        ]
        lines.append("%s -> %s" % (lhs, " | ".join(rendered)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural analyses
# ---------------------------------------------------------------------------


def _least_values(
    productions: Sequence[Production], base: dict[str, int], step: int = 1, fold=max
) -> dict[str, int]:
    """The least value of each nonterminal that derives a word over the
    symbols of ``base``, valued there: a production is worth ``step`` plus
    the ``fold`` of 0 and its body's values.  Each production counts its
    body symbols outside ``base`` and fires when the last has settled, and
    nonterminals settle in increasing value, bucketed by value (Knuth 1977)."""
    missing: list[int] = []
    folded: list[int] = []
    waiting: dict[str, list[int]] = {}
    buckets: dict[int, list[str]] = {}
    for i, (lhs, rhs) in enumerate(productions):
        value = need = 0
        for sym in rhs:
            if sym in base:
                value = fold(value, base[sym])
            else:
                need += 1
                waiting.setdefault(sym, []).append(i)
        folded.append(value)
        missing.append(need)
        if not need:
            buckets.setdefault(step + value, []).append(lhs)
    pending = list(buckets)
    heapq.heapify(pending)
    least: dict[str, int] = {}
    while pending:
        value = heapq.heappop(pending)
        for nt in buckets.pop(value):
            if nt in least:
                continue
            least[nt] = value
            for i in waiting.get(nt, ()):
                folded[i] = fold(folded[i], value)
                missing[i] -= 1
                if not missing[i]:
                    total = step + folded[i]
                    if total not in buckets:
                        buckets[total] = []
                        heapq.heappush(pending, total)
                    buckets[total].append(productions[i].lhs)
    return least


def generating_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals that derive at least one terminal word."""
    return frozenset(_least_values(g.productions, dict.fromkeys(g.terminals, 0)))


def nullable_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals that derive the empty word."""
    return frozenset(_least_values(g.productions, {}))


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


def _fresh_names(base: str, used: set[str]) -> Iterator[str]:
    """Names ``base``, ``base1``, ``base2``, ... not in ``used``, each added
    to ``used`` as it is handed out.  Since ``used`` only grows, one
    generator gives the same names as restarting the probe for every name."""
    numbered = ("%s%d" % (base, i) for i in itertools.count(1))
    for candidate in itertools.chain((base,), numbered):
        if candidate not in used:
            used.add(candidate)
            yield candidate


def _drop_nullable(rhs: tuple[str, ...], nullable: frozenset[str]) -> list[tuple[str, ...]]:
    """The distinct bodies left by dropping some nullable occurrences of a
    body, in the order of their first appearance over the drop masks 0, 1,
    2, ... (bit b drops the b-th nullable occurrence).

    Each symbol in turn extends every body built so far; a nullable one
    gives first the bodies that keep it, then those that drop it, as its
    bit is the highest yet.  Repeats are removed after each step, which
    keeps first appearances and, for k copies of one symbol, k + 1 bodies.
    """
    bodies: list[tuple[str, ...]] = [()]
    for sym in rhs:
        kept = [body + (sym,) for body in bodies]
        bodies = list(dict.fromkeys(kept + bodies)) if sym in nullable else kept
    return bodies


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
        start = next(_fresh_names(g.start + "0", used))
        prods.insert(0, Production(start, (g.start,)))

    # Epsilon elimination: every way of dropping nullable occurrences,
    # collected per head in first-appearance order.
    bodies: dict[str, dict[tuple[str, ...], None]] = {}
    for lhs, rhs in prods:
        for body in _drop_nullable(rhs, nullable):
            if body:
                bodies.setdefault(lhs, {})[body] = None

    # Unit elimination: one breadth-first walk per head over its unit
    # targets, taking each reached nonterminal's non-unit bodies.
    without_units: list[Production] = []
    for head in bodies:
        reached = [head]
        seen = {head}
        for target in reached:
            for body in bodies.get(target, ()):
                if len(body) == 1 and body[0] in g.nonterminals:
                    if body[0] not in seen:
                        seen.add(body[0])
                        reached.append(body[0])
                else:
                    without_units.append(Production(head, body))

    # Lift terminals out of bodies of length two or more, then binarize.
    wrappers: dict[str, str] = {}
    helpers = _fresh_names("X", used)
    binary: list[Production] = []
    for head, body in dict.fromkeys(without_units):
        if len(body) >= 2:
            for sym in body:
                if sym in g.terminals and sym not in wrappers:
                    wrappers[sym] = next(_fresh_names("T_%s" % sym, used))
            body = tuple(wrappers.get(s, s) for s in body)
        for sym in body[:-2]:
            helper = next(helpers)
            binary.append(Production(head, (sym, helper)))
            head = helper
        binary.append(Production(head, body[-2:]))
    binary.extend(Production(w, (sym,)) for sym, w in wrappers.items())
    if derives_epsilon:
        binary.append(Production(start, ()))
    binary = list(dict.fromkeys(binary))

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

    Finds the realized (nonterminal, i, j) facts over the word's chain
    automaton, whose states are the positions 0..|w|, with ``realized_rows``,
    so the cost follows the facts rather than |w|^3.
    """
    from . import intersection

    w = _check_word(g, word)
    if not w:
        return g.epsilon_at_start
    rows = intersection.realized_rows(g, [(p, a, p + 1) for p, a in enumerate(w)])
    return len(w) in rows[g.start].get(0, ())


def cyk_parse(g: CNFGrammar, word: Sequence[str]) -> ParseTree | None:
    """Return one parse tree of the word, or None when it is not derivable.

    The facts are ``realized_rows`` over the word's chain, as in
    ``cyk_membership``; no length is settled, since on a chain a fact
    (A, i, j) derives words of length j - i only.  A node (A, i, j) takes
    its first rule A -> B C (read from ``CNFGrammar.rule_index``) that has
    a split point k with (B, i, k) and (C, k, j) realized, and the least
    such k: lower production ids win, then smaller split points, as in the
    product closure's canonical rule.
    """
    from . import intersection

    w = _check_word(g, word)
    if not w:
        if g.epsilon_at_start:
            return ParseTree(g.start, (ParseTree(EPSILON),))
        return None
    rows = intersection.realized_rows(g, [(p, a, p + 1) for p, a in enumerate(w)])
    if len(w) not in rows[g.start].get(0, ()):
        return None
    pair_rules = g.rule_index[1]

    def parts(triple: tuple[str, int, int]) -> tuple:
        head, i, j = triple
        if j == i + 1:
            return (w[i],)
        for _pid, b, c in pair_rules[head]:
            left, right = rows[b].get(i, ()), rows[c]
            k = min((m for m in left if m < j and j in right.get(m, ())), default=None)
            if k is not None:
                return (b, i, k), (c, k, j)

    return intersection.derivation_tree((g.start, 0, len(w)), parts, {})


def is_valid_parse_tree(g: Grammar, tree: ParseTree, require_start: bool = False) -> bool:
    """Check that the tree is a derivation in the grammar: every internal
    node applies a production to its children's labels (the rule (label,
    ()) when its only child is labelled ``ε``), every leaf is a terminal or
    ``ε``, and with ``require_start`` the root is the start symbol.  Every
    node is checked, those below an ``ε`` child too."""
    if require_start and tree.label != g.start:
        return False
    rules = {(p.lhs, p.rhs) for p in g.productions}
    for node in tree.iter_nodes():
        body = tuple(c.label for c in node.children)
        if body:
            if (node.label, () if body == (EPSILON,) else body) not in rules:
                return False
        elif node.label != EPSILON and node.label not in g.terminals:
            return False
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
