"""Upgrade operators between base hierarchies.

The upgrade of n rewrites the hereditary structure of n over its source
hierarchy into a target hierarchy: digits below the working base are
upgraded recursively, exponents are rewritten deeply, and the target
base is the least one whose rewrite lands strictly between the previous
upgrade and the next target element.  When no target base fits, the
upgrade is infinite.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .hierarchy import Hierarchy, _coerce
from .numerals import (
    DEFAULT_BUDGET,
    BitBudget,
    ExtNat,
    INFINITY,
    _phi_value,
)

__all__ = [
    "UpgradeContext",
    "GoodSuccessorReport",
    "upgrade",
    "deep_base_change",
    "check_good_successor",
]


class UpgradeContext:
    """Memoized upgrade operator from a hierarchy into a successor hierarchy.

    Values are filled from 0 upward, since each upgrade thresholds against
    the previous one.  Once an upgrade comes out infinite, all later ones
    do, so the table holds the finite upgrades only: _infinite marks that
    the next one is infinite, and upgrade(n) is INFINITY from len(_up) on.

    fast_paths selects the block decomposition, which upgrades b*a + r with
    0 < r < b as the upgrade of b*a plus that of r.  Without it every value
    goes through the candidate search of the definition, the oracle.
    """

    def __init__(
        self,
        source: Hierarchy | Iterable[int],
        target: Hierarchy | Iterable[int],
        budget: BitBudget = DEFAULT_BUDGET,
        fast_paths: bool = True,
    ) -> None:
        self.source = _coerce(source)
        self.target = _coerce(target)
        self.budget = budget
        self._fast = fast_paths
        self._up: list[int] = []
        self._infinite = False
        self._chosen: dict[int, int] = {}

    def upgrade(self, n: int) -> ExtNat:
        if n < 0:
            raise ValueError("upgrades are defined on nonnegative integers")
        if n < self.source.min_base:
            return n
        while len(self._up) <= n:
            if self._infinite:
                return INFINITY
            self._fill_next()
        return self._up[n]

    def chosen_base(self, n: int) -> int | None:
        """Target base of the upgrade of n (None below the source minimum or when infinite)."""
        self.upgrade(n)
        return self._chosen.get(n)

    def deep_base_change(self, b: int, c: int, m: int) -> ExtNat:
        if b not in self.source:
            raise ValueError(f"{b} is not a base of {self.source!r}")
        if c < 2:
            raise ValueError("target base must be at least 2")
        if m < 0:
            raise ValueError("deep base change is defined on nonnegative integers")
        return self._phi(b, c, m)

    def _phi(self, b: int, c: int, m: int) -> ExtNat:
        return _phi_value(self.upgrade, b, c, m, self.budget, self.source.min_base)

    def _fill_next(self) -> None:
        """Append the upgrade of m = len(_up), or set _infinite when it has none.

        The digits, exponents, remainder, base and block of m all lie below
        m, so their upgrades are in the table and finite.
        """
        m = len(self._up)
        if m < self.source.min_base:
            self._up.append(m)
            return
        prev = self._up[m - 1]
        if m in self.source:
            # the deep change of a base element is the candidate base itself,
            # so the least target element past the previous upgrade wins
            c = next(self.target.elements_from(prev + 1), None)
            if c is None:
                self._infinite = True
                return
            self._chosen[m] = c
            self._up.append(c)
            return
        b = self.source.upper_base(m)
        if self._fast:
            # block decomposition: upgrades distribute over the final digit
            a, r = divmod(m, b)
            if r:
                self._up.append(self.budget.check(self._up[b * a] + self._up[r]))
                self._chosen[m] = self._chosen[b * a]
                return
        for c in self.target.elements_from(self._up[b]):
            val = self._phi(b, c, m)
            if prev < val < self.target.s_next(c):
                self._chosen[m] = c
                self._up.append(val)
                return
        self._infinite = True


def upgrade(
    source: Hierarchy | Iterable[int],
    target: Hierarchy | Iterable[int],
    n: int,
    budget: BitBudget = DEFAULT_BUDGET,
) -> ExtNat:
    """Upgrade n from source into target (fresh context; see UpgradeContext)."""
    return UpgradeContext(source, target, budget).upgrade(n)


def deep_base_change(
    source: Hierarchy | Iterable[int],
    target: Hierarchy | Iterable[int],
    b: int,
    c: int,
    m: int,
    budget: BitBudget = DEFAULT_BUDGET,
) -> ExtNat:
    """Deep base change of m from source base b to target base c."""
    return UpgradeContext(source, target, budget).deep_base_change(b, c, m)


class GoodSuccessorReport(NamedTuple):
    ok: bool
    bound: int
    counterexample: int | None
    reason: str


def check_good_successor(
    source: Hierarchy | Iterable[int],
    target: Hierarchy | Iterable[int],
    bound: int,
    budget: BitBudget = DEFAULT_BUDGET,
) -> GoodSuccessorReport:
    """Check the good-successor conditions for all n up to bound.

    A good successor keeps every upgrade finite, starts no lower than the
    source, and leaves no multiple of the working target base strictly
    between the upgrade of n and the next target element whenever n + 1 is
    a non-minimal source base.
    """
    src = _coerce(source)
    try:
        tgt = _coerce(target)
    except ValueError as exc:
        return GoodSuccessorReport(False, bound, None, f"target is not a hierarchy: {exc}")
    if tgt.min_base < src.min_base:
        return GoodSuccessorReport(
            False, bound, None,
            f"target minimum {tgt.min_base} sits below source minimum {src.min_base}",
        )
    ctx = UpgradeContext(src, tgt, budget)
    for n in range(bound + 1):
        val = ctx.upgrade(n)
        if val is INFINITY:
            return GoodSuccessorReport(False, bound, n, "upgrade escapes to infinity")
        if n + 1 in src and n + 1 > src.min_base:
            d = tgt.upper_base(val)
            first_multiple = d * (val // d + 1)
            if first_multiple < tgt.s_next(val):
                return GoodSuccessorReport(
                    False, bound, n,
                    f"multiple {first_multiple} of base {d} falls in the gap above {val}",
                )
    return GoodSuccessorReport(True, bound, None, "")
