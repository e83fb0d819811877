"""Polynomial upper-bound formulas for the rational index of grammar classes.

The bounds are asymptotic; the constant is exposed as a calibration
parameter (default 1) and evaluation uses exact integer arithmetic.  The
constant, the nonterminal count, the degree and the automaton size n are
nonnegative: a negative one is a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("linear", "superlinear", "dimension", "oscillation", "ultralinear")


@dataclass(frozen=True)
class BoundFormula:
    """One bound family with its parameters; ``value(n)`` evaluates it.

    linear:        c * n^2
    superlinear:   c * n^4
    dimension:     c * (|N| * n^2)^d        (parse-tree dimension <= d)
    oscillation:   c * |N|^(2k) * n^(4k)    (k-bounded oscillation)
    ultralinear:   c * n^(2k)               (k the top level index)
    """

    kind: str
    constant: int = 1
    nonterminal_count: int | None = None
    degree: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError("unknown bound kind %r" % self.kind)
        if self.kind in ("dimension", "oscillation") and self.nonterminal_count is None:
            raise ValueError("%s bound needs a nonterminal count" % self.kind)
        if self.kind in ("dimension", "oscillation", "ultralinear") and self.degree is None:
            raise ValueError("%s bound needs a degree parameter" % self.kind)
        if min(self.nonterminal_count or 0, self.degree or 0) < 0:
            raise ValueError("the nonterminal count and the degree must be nonnegative")
        if self.constant < 0:
            raise ValueError("the constant must be nonnegative, got %d" % self.constant)

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("automaton size must be nonnegative")
        c = self.constant
        if self.kind == "linear":
            return c * n**2
        if self.kind == "superlinear":
            return c * n**4
        if self.kind == "dimension":
            return c * (self.nonterminal_count * n**2) ** self.degree
        if self.kind == "oscillation":
            k = self.degree
            return c * self.nonterminal_count ** (2 * k) * n ** (4 * k)
        return c * n ** (2 * self.degree)  # ultralinear


def linear_bound(constant: int = 1) -> BoundFormula:
    return BoundFormula("linear", constant)


def superlinear_bound(constant: int = 1) -> BoundFormula:
    return BoundFormula("superlinear", constant)


def dimension_bound(nonterminal_count: int, d: int, constant: int = 1) -> BoundFormula:
    return BoundFormula("dimension", constant, nonterminal_count, d)


def oscillation_bound(nonterminal_count: int, k: int, constant: int = 1) -> BoundFormula:
    return BoundFormula("oscillation", constant, nonterminal_count, k)


def ultralinear_bound(k: int, constant: int = 1) -> BoundFormula:
    return BoundFormula("ultralinear", constant, degree=k)
