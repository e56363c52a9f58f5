"""Base hierarchies: divisibility-ordered sets of bases.

A base hierarchy is a nonempty set of integers, each at least 2, such
that whenever b < b' both belong to the set, b divides b'.  Hierarchies
may be finite or produced lazily by a generator; lazy ones materialize
element by element up to a configurable horizon.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator

from .numerals import INFINITY, BudgetExceededError, ExtNat, Infinity, _short

__all__ = [
    "DEFAULT_HORIZON",
    "HorizonError",
    "Hierarchy",
    "FiniteHierarchy",
    "LazyHierarchy",
]

DEFAULT_HORIZON = 512


class HorizonError(BudgetExceededError):
    """A lazy hierarchy query was not settled within the horizon.

    A budget on materialized bases: unlike INFINITY, which settles a query
    as unbounded, HorizonError means we refused to look further.
    """


def _check_horizon(horizon: object) -> int:
    if type(horizon) is not int or horizon < 1:
        raise ValueError(f"the horizon must be a positive integer, got {horizon!r:.40}")
    return horizon


def _check_count(n: object, negative: str) -> int:
    """n, when it is a nonnegative int (a bool is not); ``negative`` is the text for n < 0."""
    if type(n) is not int:
        raise ValueError(f"a count is a nonnegative int, not {type(n).__name__} {n!r:.40}")
    if n < 0:
        raise ValueError(negative)
    return n


def _check_increasing(prev: int, cur: int) -> None:
    if cur <= prev:
        raise ValueError(
            f"bases must be strictly increasing, got {_short(prev)} followed by {_short(cur)}"
        )


def _check_pair(prev: int, cur: int) -> None:
    _check_increasing(prev, cur)
    if cur % prev != 0:
        raise ValueError(
            f"{_short(cur)} is not a multiple of its predecessor {_short(prev)}"
        )


class Hierarchy:
    """Shared base-selection logic; storage strategy lives in subclasses."""

    _elems: list[int]  # validated, materialized prefix, append-only

    def _extend_one(self) -> bool:
        """Try to materialize one more element; False when there is none."""
        raise NotImplementedError

    @property
    def min_base(self) -> int:
        return self._elems[0]

    def __contains__(self, n: object) -> bool:
        if not isinstance(n, int) or n < self._elems[0]:
            return False
        return self._max_leq(n) == n

    def _max_leq(self, x: int) -> int:
        # largest element <= x, materialized past x; callers guarantee x >= min_base
        while (i := bisect.bisect_right(self._elems, x)) == len(self._elems) and self._extend_one():
            pass
        return self._elems[i - 1]

    def lower_base(self, n: int) -> int:
        """Largest base <= max(n - 1, min_base)."""
        return int(self._max_leq(max(n - 1, self._elems[0])))

    def upper_base(self, n: int) -> int:
        """Largest base <= max(n, min_base)."""
        return int(self._max_leq(max(n, self._elems[0])))

    def s_next(self, n: ExtNat) -> ExtNat:
        """Least base strictly above n; INFINITY when there is none."""
        b = self._s_next(n)
        return b if b is INFINITY else int(b)

    def _s_next(self, n: ExtNat) -> ExtNat:
        # s_next with a held base as it is, for a successor's events
        if isinstance(n, Infinity):
            return INFINITY
        while (i := bisect.bisect_right(self._elems, n)) == len(self._elems):
            if not self._extend_one():
                return INFINITY
        return self._elems[i]

    def is_critical(self, n: int) -> bool:
        """n > min base, divisible by its upper base, yet not itself a base."""
        if n <= self._elems[0]:
            return False
        return n % self.upper_base(n) == 0 and n not in self

    def restrict(self, n: int) -> "FiniteHierarchy":
        """The finite hierarchy of all bases <= n."""
        if n >= self._elems[0]:
            self._max_leq(n)
        kept = [b for b in self._elems if b <= n]
        if not kept:
            raise ValueError(f"no bases at or below {n}: restriction would be empty")
        return FiniteHierarchy._checked(kept)

    def elements_from(self, start: int) -> Iterator[int]:
        """Bases >= start in increasing order; lazy pulls stay horizon-guarded."""
        i = bisect.bisect_left(self._elems, start)
        while True:
            while i >= len(self._elems):
                if not self._extend_one():
                    return
            yield int(self._elems[i])
            i += 1

    def known_elements(self) -> tuple[int, ...]:
        """Snapshot of what has been materialized so far."""
        return tuple(map(int, self._elems))


class FiniteHierarchy(Hierarchy):
    """Fully materialized hierarchy; input is sorted, then validated."""

    def __init__(self, bases: Iterable[int]) -> None:
        elems = sorted(bases)
        if not elems:
            raise ValueError("a base hierarchy cannot be empty")
        if elems[0] < 2:
            raise ValueError(f"bases must be at least 2, got {elems[0]}")
        for prev, cur in zip(elems, elems[1:]):
            _check_pair(prev, cur)
        self._elems = elems

    @classmethod
    def _checked(cls, elems: list[int]) -> "FiniteHierarchy":
        """The hierarchy of ``elems``, a list of bases already checked in increasing order."""
        h = cls.__new__(cls)
        h._elems = elems
        return h

    def _extend_one(self) -> bool:
        return False

    @property
    def max_base(self) -> int:
        return int(self._elems[-1])

    def __len__(self) -> int:
        return len(self._elems)

    def __iter__(self) -> Iterator[int]:
        return map(int, self._elems)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteHierarchy):
            return self._elems == other._elems
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._elems))

    def __repr__(self) -> str:
        inner = ", ".join(map(_short, self._elems))
        return f"{{{inner}}}"


class LazyHierarchy(Hierarchy):
    """Hierarchy backed by a generator, validated as it materializes.

    The memo is append-only with a single writer; once the source stops,
    the hierarchy behaves exactly like a finite one.
    """

    def __init__(
        self,
        source: Iterable[int],
        horizon: int = DEFAULT_HORIZON,
        description: str = "",
    ) -> None:
        self._horizon = _check_horizon(horizon)
        self._it = iter(source)
        self._exhausted = False
        self._desc = description
        self._elems = []
        if not self._extend_one():
            raise ValueError("a base hierarchy cannot be empty")

    def _extend_one(self) -> bool:
        if self._exhausted:
            return False
        if len(self._elems) >= self._horizon:
            name = self._desc or "lazy hierarchy"
            raise HorizonError(
                f"{name} needs more than {self._horizon} materialized bases"
            )
        try:
            nxt = next(self._it)
        except StopIteration:
            self._exhausted = True
            return False
        if self._elems:
            _check_pair(self._elems[-1], nxt)
        elif nxt < 2:
            raise ValueError(f"bases must be at least 2, got {nxt}")
        self._elems.append(nxt)
        return True

    def __repr__(self) -> str:
        inner = ", ".join(map(_short, self._elems))
        tail = "" if self._exhausted else ", ..."
        name = f" {self._desc}" if self._desc else ""
        return f"LazyHierarchy{name}{{{inner}{tail}}}"


def _coerce(B: Hierarchy | Iterable[int]) -> Hierarchy:
    return B if isinstance(B, Hierarchy) else FiniteHierarchy(B)
