"""Structural grammar classification: linear, superlinear, ultralinear,
expansive variables, and an aggregate report."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import RatIndexError
from .grammar import Grammar, Production, generating_nonterminals, trim_useless
from .sampling import random_parse_tree
from .trees import dimension


class MalformedPartitionError(RatIndexError):
    pass


def terminal_aliases(g: Grammar) -> frozenset[str]:
    """Nonterminals whose every production rewrites to a single terminal.

    Such symbols act as named terminals (a common shape when edge relations
    are wrapped, e.g. Child -> child) and are not counted as nonterminal
    occurrences by the linearity check.
    """
    aliases = set()
    index = g.by_lhs()
    for nt in g.nonterminals:
        rules = index.get(nt, ())
        if rules and all(
            len(p.rhs) == 1 and p.rhs[0] in g.terminals for _, p in rules
        ):
            aliases.add(nt)
    return frozenset(aliases)


def is_linear(g: Grammar) -> bool:
    """At most one non-alias nonterminal per production body."""
    aliases = terminal_aliases(g)
    for prod in g.productions:
        count = sum(
            1 for s in prod.rhs if s in g.nonterminals and s not in aliases
        )
        if count > 1:
            return False
    return True


def _core_production_ok(prod: Production, core: set[str], g: Grammar) -> bool:
    # A core nonterminal has one-sided linear rules inside the core, or a
    # purely terminal body to terminate.
    rhs = prod.rhs
    if all(s in g.terminals for s in rhs):
        return True
    if len(rhs) == 2:
        a, b = rhs
        if a in g.terminals and b in core:
            return True
        if a in core and b in g.terminals:
            return True
    return False


def _outer_production_ok(prod: Production, core: set[str], g: Grammar) -> bool:
    # Outside the core: A -> B C with B in the core, or a one-sided linear
    # body whose single nonterminal is in the core, or a terminal body.
    rhs = prod.rhs
    if all(s in g.terminals for s in rhs):
        return True
    nts = [s for s in rhs if s in g.nonterminals]
    if len(rhs) == 2 and len(nts) == 2:
        return rhs[0] in core
    if len(nts) == 1 and nts[0] in core:
        return rhs[0] == nts[0] or rhs[-1] == nts[0]
    return False


def superlinear_core(g: Grammar) -> frozenset[str] | None:
    """The largest linear core N_L witnessing superlinearity, or None.

    Computed by greatest-fixpoint pruning: start from all nonterminals and
    drop violators of the core condition, re-checking a nonterminal when a
    symbol of its bodies is dropped; then every remaining outside
    nonterminal must fit the outer condition.  The largest core is enough:
    both conditions only get easier as the core grows.
    """
    core = set(g.nonterminals)
    index = g.by_lhs()
    users: dict[str, list[str]] = {}
    for head, body in g.productions:
        for sym in body:
            users.setdefault(sym, []).append(head)
    pending = list(core)
    while pending:
        nt = pending.pop()
        if nt in core and not all(_core_production_ok(p, core, g) for _, p in index.get(nt, ())):
            core.discard(nt)
            pending += users.get(nt, ())
    for nt in sorted(g.nonterminals - core):
        if not all(_outer_production_ok(p, core, g) for _, p in index.get(nt, ())):
            return None
    return frozenset(core)


def is_superlinear(g: Grammar) -> bool:
    return superlinear_core(g) is not None


def verify_ultralinear(
    g: Grammar, partition: Sequence[set[str]]
) -> tuple[bool, bool]:
    """Check a user-supplied decomposition [N_0, ..., N_k] (lowest first).

    Returns (ultralinear, reduced_form).  Ultralinear: the start symbol sits
    in the top class, and each body either keeps exactly one nonterminal of
    the same level among terminals, or uses only strictly lower levels.
    Reduced form additionally demands the top class be {start}, the start
    never on a right-hand side, and bodies shaped a | aB | Ba | B C with the
    pair strictly below the head's level.
    """
    classes = [frozenset(cls) for cls in partition]
    level: dict[str, int] = {}
    for i, cls in enumerate(classes):
        for nt in cls:
            if nt not in g.nonterminals:
                raise MalformedPartitionError("unknown nonterminal %r in partition" % nt)
            if nt in level:
                raise MalformedPartitionError("nonterminal %r appears twice" % nt)
            level[nt] = i
    missing = g.nonterminals - set(level)
    if missing:
        raise MalformedPartitionError("partition misses nonterminals: %s" % sorted(missing))
    if not classes:
        raise MalformedPartitionError("partition must have at least one class")
    if frozenset() in classes:
        raise MalformedPartitionError("partition level %d is empty" % classes.index(frozenset()))

    top = len(classes) - 1

    def ultra_ok(prod: Production) -> bool:
        i = level[prod.lhs]
        nts = [s for s in prod.rhs if s in g.nonterminals]
        if len(nts) == 1 and level[nts[0]] == i:
            return True
        return all(level[s] < i for s in nts)

    ultralinear = level[g.start] == top and all(ultra_ok(p) for p in g.productions)

    def reduced_ok(prod: Production) -> bool:
        i = level[prod.lhs]
        rhs = prod.rhs
        if len(rhs) == 1 and rhs[0] in g.terminals:
            return True
        if len(rhs) == 2:
            a, b = rhs
            if a in g.terminals and b in g.nonterminals and level[b] == i:
                return True
            if a in g.nonterminals and level[a] == i and b in g.terminals:
                return True
            if (
                a in g.nonterminals
                and b in g.nonterminals
                and level[a] < i
                and level[b] < i
            ):
                return True
        return False

    reduced = (
        ultralinear
        and classes[top] == frozenset({g.start})
        and all(g.start not in p.rhs for p in g.productions)
        and all(
            reduced_ok(p)
            for p in g.productions
            if not (p.lhs == g.start and p.rhs == ())
        )
    )
    return ultralinear, reduced


def expansive_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals A admitting a derivation A =>* u A v A w.

    Expects a grammar reduced to useful symbols; non-generating material is
    ignored so that surrounding contexts always terminate.  A is expansive
    iff some production reachable from A has two body positions that each
    rederive A (the derives-a-form-containing relation, reflexively).
    """
    generating = generating_nonterminals(g)
    prods = [
        p
        for p in g.productions
        if p.lhs in generating
        and all(s in g.terminals or s in generating for s in p.rhs)
    ]
    direct: dict[str, set[str]] = {nt: set() for nt in generating}
    for prod in prods:
        for s in prod.rhs:
            if s in generating:
                direct[prod.lhs].add(s)
    reach: dict[str, set[str]] = {}
    for nt in generating:
        seen = {nt}
        frontier = [nt]
        while frontier:
            current = frontier.pop()
            for nxt in direct[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reach[nt] = seen

    expansive = set()
    for a in generating:
        for prod in prods:
            if prod.lhs not in reach[a]:
                continue
            regenerating = sum(
                1 for s in prod.rhs if s in generating and a in reach[s]
            )
            if regenerating >= 2:
                expansive.add(a)
                break
    return frozenset(expansive)


@dataclass(frozen=True)
class ClassificationReport:
    is_linear: bool
    is_superlinear: bool
    ultralinear: bool | None
    reduced_form: bool | None
    levels: int | None
    expansive: frozenset[str]
    max_observed_dimension: int
    sampled_trees: int


def classify_grammar(
    g: Grammar,
    partition: Sequence[set[str]] | None = None,
    samples: int = 200,
    seed: int = 0,
) -> ClassificationReport:
    """Run every classifier and sample parse trees for an observed-dimension
    figure.  The decomposition verdicts are present only when a partition is
    supplied; decompositions are verified, never synthesized."""
    reduced = trim_useless(g)
    ultra = red = None
    levels = None
    if partition is not None:
        ultra, red = verify_ultralinear(g, partition)
        levels = len(partition) - 1
    rng = random.Random(seed)
    max_dim = 0
    drawn = 0
    for _ in range(samples):
        tree = random_parse_tree(reduced, rng)
        if tree is None:
            continue
        drawn += 1
        max_dim = max(max_dim, dimension(tree))
    return ClassificationReport(
        is_linear=is_linear(g),
        is_superlinear=is_superlinear(g),
        ultralinear=ultra,
        reduced_form=red,
        levels=levels,
        expansive=expansive_nonterminals(reduced),
        max_observed_dimension=max_dim,
        sampled_trees=drawn,
    )
