"""Structural grammar classification: linear, superlinear, ultralinear,
expansive variables, and an aggregate report."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import RatIndexError
from .grammar import Grammar, Production, generating_nonterminals, trim_useless
from .sampling import _sampler
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
    iff its strongly connected component in the "body contains" graph over
    generating nonterminals holds a production whose head and two body
    occurrences lie in it.  The components come from one iterative pass of
    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972), with no recursion.
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
        direct[prod.lhs].update(s for s in prod.rhs if s in generating)
    low: dict[str, int] = {}  # visit order, lowered to the least one reached
    component: dict[str, str] = {}  # each closed nonterminal's component root
    open_nodes: list[str] = []
    path: list[tuple] = []  # (node, visit order, stack height, successors)

    def visit(node: str) -> None:
        low[node] = len(low)
        path.append((node, low[node], len(open_nodes), iter(direct[node])))
        open_nodes.append(node)

    for root in generating:
        if root not in low:
            visit(root)
        while path:
            node, order, height, successors = path[-1]
            for nxt in successors:
                if nxt not in low:
                    visit(nxt)
                    break
                if nxt not in component:
                    low[node] = min(low[node], low[nxt])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order:
                    component.update(dict.fromkeys(open_nodes[height:], node))
                    del open_nodes[height:]
    expansive_roots = {
        component[p.lhs]
        for p in prods
        if sum(1 for s in p.rhs if component.get(s) == component[p.lhs]) >= 2
    }
    return frozenset(nt for nt in generating if component[nt] in expansive_roots)


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
    sample = _sampler(reduced)
    max_dim = 0
    drawn = 0
    for _ in range(samples):
        tree = sample(rng)
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
