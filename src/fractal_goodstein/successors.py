"""Successor hierarchies built stage by stage, and the dynamical systems over them.

The i-th successor of a hierarchy B starts as {min B + 1} and grows at
events: at each source base above the minimum it adds one multiple of the
current maximum, and at each critical value (a multiple of the working
base that is not itself a base) it adds i iterated deep base changes.
Both growth rules end-extend the hierarchy, so every stage is an initial
segment of the final successor, and both append multiples of the last
base, so the bases a successor builds are never divided again.

Upgrades into a successor built this way never escape to infinity, and
they collapse to a single deep base change into the stage maximum; no
candidate search is needed.  A dynamical hierarchy builds each successor
once, even when the build dies.

A source event holds a base whose lead is past 256 bits as a numerals.Form,
the digits of its deep change.  Lookups and the budget and order checks read
its width; the next source event walks the form of pos - 1; the public
accessors, an event built over it and arithmetic take its integer.  A
critical event takes its iterates in full: each is read by the next.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from .hierarchy import (
    DEFAULT_HORIZON,
    FiniteHierarchy,
    Hierarchy,
    _check_count,
    _check_horizon,
    _check_increasing,
    _coerce,
    HorizonError,
)
from .numerals import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _short,
    BitBudget,
    ExtNat,
    Form,
    INFINITY,
    Powers,
    _bracket,
    _change_width,
    _phi_value,
    _width,
    base_change,
    superexp,
)

__all__ = [
    "PlusHierarchy",
    "ouroboros_stage",
    "d_sequence",
    "DynamicalHierarchy",
    "ClassicHierarchy",
    "PlusChainHierarchy",
    "OuroborosHierarchy",
    "FiniteForHierarchy",
    "DiagonalHierarchy",
    "dynamical",
    "hierarchy_from_spec",
    "static_hierarchy_from_spec",
]


class PlusHierarchy(Hierarchy):
    """The i-th successor of a base hierarchy, materialized event by event."""

    def __init__(
        self,
        base: Hierarchy | Iterable[int],
        index: int,
        budget: BitBudget = DEFAULT_BUDGET,
        horizon: int = DEFAULT_HORIZON,
        powers: Powers | None = None,
    ) -> None:
        self.index = _check_count(index, "successor index cannot be negative")
        self.base = _coerce(base)
        self.budget = budget
        self._hor = _check_horizon(horizon)
        self._powers = powers
        self._elems = [self.base.min_base + 1]
        self._added_at = [0]
        self._frontier = self.base.min_base
        self._checked_to = 0  # critical events before this survive, as a width pass showed
        self._no_more_events = False

    def __repr__(self) -> str:
        inner = ", ".join(map(_short, self._elems))
        tail = "" if self._no_more_events else ", ..."
        return f"PlusHierarchy({self.base!r} + {self.index}){{{inner}{tail}}}"

    # --- event walking ---

    def _next_event(self, pos: int) -> tuple[int, bool] | None:
        """Position and kind (True = source-base event) of the first event after pos."""
        next_b = self.base._s_next(pos)
        if self.index == 0:
            # critical events add nothing, so only source bases matter
            if next_b is INFINITY:
                return None
            return next_b, True
        pos = int(pos)  # the multiple after a held source base reads its integer
        u = self.base.upper_base(pos)
        multiple = u * (pos // u + 1)
        if next_b is not INFINITY and next_b <= multiple:
            return next_b, True
        return multiple, False

    def _apply_event(self, pos: int, is_base: bool, until: int) -> None:
        """Apply the event at pos on the way to until; a critical one first runs the width pass."""
        if is_base:
            # the base below pos is the one at the frontier, and a held pos is a form over it
            c, b, m = int(self._elems[-1]), self.base._max_leq(self._frontier), pos - 1
            ph = _phi_value(
                self.upgrade_value, b if type(m) is Form else int(b), c, m, self.budget,
                self.base.min_base, self._powers, [],
            )
            assert ph is not INFINITY
            self._append(ph.next_multiple() if type(ph) is Form else c * (ph // c + 1), pos)
        else:
            if pos >= self._checked_to and (death := self._proved_death(pos, until)):
                raise death
            b = self.base.upper_base(pos)
            d = self._elems[-1]
            start = len(self._elems)
            try:
                for _ in range(self.index):
                    nd = self._phi(b, d, pos)
                    assert nd is not INFINITY
                    self._append(nd, pos)
                    d = nd
            except BudgetExceededError:
                # the event applies whole or not at all, so a retry starts
                # again from d_0; the message, formatted before this, still
                # names the partial successor, as traces always recorded it
                del self._elems[start:], self._added_at[start:]
                raise

    def _proved_death(self, pos: int, until: int) -> BudgetExceededError | None:
        """The pre-guard's refusal that ends the events from pos to until, if widths prove it.

        A critical event at a pos below 65 bits whose digits lie below the minimum
        base has a polynomial iterate that reads no table of powers.  If every
        iterate on the way has a settled width W <= bits and fits the horizon, and
        then one has (W - 1) * e1 > bits, its first power dies on the pre-guard,
        whose text shows a base past 256 bits by W alone.  Else the events run
        exactly; ``_checked_to`` skips the passes of those before where it stopped.
        """
        bits, x, n = self.budget.bits, int(self._elems[-1]), len(self._elems)
        d, w, is_base = _bracket(0, x, x + 1), x.bit_length(), False
        while not is_base and pos <= until and pos.bit_length() <= 64:
            b = self.base.upper_base(pos)
            for _ in range(self.index):
                change = _change_width(pos, b, self.base.min_base, d)
                if change and (w - 1) * change[1] > bits:
                    return self.budget.refusal(d[1] << d[0], change[1])
                if not change or not (w := _width(change[0])) or w > bits or n >= self._hor:
                    self._checked_to = pos
                    return None
                d, n = change[0], n + 1
            pos, is_base = pos < until and self._next_event(pos) or (until + 1, True)
        self._checked_to = pos
        return None

    def _append(self, x: int, pos: int) -> None:
        """Append a base built by _apply_event, checking horizon, budget and order.

        These are the only checks a base of a successor gets: its stages and
        its materialization wrap the checked bases as they are.

        x is a multiple of the last base by construction, so no modulus is
        taken.  A source event appends ``c * (ph // c + 1)``.  A critical
        event sits at ``u * (pos // u + 1)`` (_next_event), a multiple of its
        upper base b = u: every monomial of its base-b expansion has exponent
        >= 1 and there is no tail, so its deep change into d is a sum of
        ``d**pe * ua`` with pe >= 1, a multiple of d; so is each iterate.
        """
        if len(self._elems) >= self._hor:
            raise HorizonError(
                f"{self!r} needs more than {self._hor} materialized bases"
            )
        # a held base fits the budget by the width of its lead (_phi_value)
        _check_increasing(self._elems[-1], x if type(x) is Form else self.budget.check(x))
        self._elems.append(x)
        self._added_at.append(pos)

    def _advance_to(self, n: int) -> None:
        while self._frontier < n:
            ev = self._next_event(self._frontier)
            if ev is None or ev[0] > n:
                self._no_more_events = ev is None
                self._frontier = n
                return
            self._apply_event(*ev, n)
            self._frontier = ev[0]

    def _extend_one(self) -> bool:
        # one event always appends: a source event one base, a critical event
        # index >= 1 of them (a successor of index 0 gets no critical events)
        if (ev := self._next_event(self._frontier)) is None:
            self._no_more_events = True
            return False
        self._apply_event(*ev, ev[0])
        self._frontier = ev[0]
        return True

    def materialize(self) -> FiniteHierarchy:
        """Force every element; only terminates when the successor is finite."""
        while self._extend_one():
            pass
        return FiniteHierarchy._checked(self._elems[:])

    # --- stages and upgrades ---

    def stage_at(self, n: int) -> FiniteHierarchy:
        """The stage of the construction after processing all events up to n."""
        if n < 0:
            raise ValueError("stages are indexed by nonnegative integers")
        self._advance_to(n)
        return FiniteHierarchy._checked(self._elems[: bisect_right(self._added_at, n)])

    def d_sequence(self, n: int) -> tuple[int, ...]:
        """Iterated deep changes at a critical value: d_0 through d_index."""
        if not self.base.is_critical(n):
            raise ValueError(f"{n} is not critical in {self.base!r}")
        # the event at n appended d_1 .. d_index right after d_0
        self._advance_to(n)
        k = bisect_right(self._added_at, n - 1)
        return tuple(map(int, self._elems[k - 1 : k + self.index]))

    def upgrade_value(self, n: int) -> int:
        """Upgrade n from the base into this successor.

        The value is the deep base change of n into the maximum of its own
        stage; totality of the stage construction makes this exact, with no
        candidate search.
        """
        if n < 0:
            raise ValueError("upgrades are defined on nonnegative integers")
        c = self.chosen_base(n)
        if c is None:
            return n
        val = self._phi(self.base.upper_base(n), c, n)
        assert val is not INFINITY
        return val

    def chosen_base(self, n: int) -> int | None:
        """Target base of the upgrade of n: the maximum of its stage."""
        if n < self.base.min_base:
            return None
        self._advance_to(n)
        return int(self._elems[bisect_right(self._added_at, n) - 1])

    def _phi(self, b: int, c: int, m: int) -> ExtNat:
        return _phi_value(
            self.upgrade_value, b, int(c), m, self.budget, self.base.min_base, self._powers
        )


def ouroboros_stage(
    i: int,
    budget: BitBudget = DEFAULT_BUDGET,
    horizon: int = DEFAULT_HORIZON,
) -> Hierarchy:
    """The i-th ouroboros hierarchy: start at {2}, take the i-th successor at step i."""
    return OuroborosHierarchy(budget, horizon).stage(i)


def d_sequence(
    base: Hierarchy | Iterable[int],
    index: int,
    n: int,
    budget: BitBudget = DEFAULT_BUDGET,
    horizon: int = DEFAULT_HORIZON,
) -> tuple[int, ...]:
    """The d-sequence at critical n for the index-th successor of base."""
    return PlusHierarchy(base, index, budget, horizon).d_sequence(n)


class DynamicalHierarchy:
    """A family of hierarchies indexed by time, with one-step upgrades between them.

    stage(i) is the hierarchy at time i; upgrade_step(i, n) carries n from
    stage i into stage i + 1.  plus_object(i) is the successor that step
    upgrades into, and its ``index`` is the successor index of the step.

    One engine builds every kind: stage j + 1 is the part
    ``_next_stage(j, plus)`` of the successor ``plus`` of stage j with index
    ``_successor_index(j)``.  By default that is the whole j-th successor,
    started from {2}: the ouroboros construction.

    Each object owns its run's table of wide powers, ``_powers``, which its
    successors and upgrades pass to _phi_value.  Entries are exact, so any call
    order gives the same values; verify_trace builds its own object and table.
    """

    kind: str

    def __init__(
        self,
        budget: BitBudget = DEFAULT_BUDGET,
        horizon: int = DEFAULT_HORIZON,
        first: Hierarchy | None = None,
    ) -> None:
        self.budget = budget
        self.horizon = _check_horizon(horizon)
        self._stages: list[Hierarchy] = [FiniteHierarchy([2]) if first is None else first]
        self._plus: list[PlusHierarchy] = []
        self._powers: Powers = {}
        # the death of the build of successor len(_plus), as type and args:
        # its traceback's frames would keep the wide half-built bases alive
        self._death: tuple[type[Exception], tuple] | None = None

    def spec_string(self) -> str:
        return self.kind

    def _successor_index(self, j: int) -> int:
        return j

    def _next_stage(self, j: int, plus: PlusHierarchy) -> Hierarchy:
        return plus

    def _ensure(self, i: int) -> None:
        """Build the successors up to index i, each at most once.

        The build of successor j depends only on stage j, its index, the
        budget and the horizon, all fixed per object.  An event that dies
        leaves none of its bases behind, a call whose death is proved from
        widths takes none, and a retry would redo the same work and die the
        same way: it raises an equal error (same type, same args) instead.
        """
        while len(self._plus) <= i:
            if self._death is not None:
                kind, args = self._death
                raise kind(*args)
            j = len(self._plus)
            p = PlusHierarchy(
                self._stages[j], self._successor_index(j), self.budget, self.horizon, self._powers
            )
            try:
                nxt = self._next_stage(j, p)
            except BudgetExceededError as e:
                self._death = (type(e), e.args)
                raise
            self._plus.append(p)
            self._stages.append(nxt)

    def stage(self, i: int) -> Hierarchy:
        if i > 0:
            self._ensure(i - 1)
        return self._stages[i]

    def upgrade_step(self, i: int, n: int) -> int:
        self._ensure(i)
        return self._plus[i].upgrade_value(n)

    def plus_object(self, i: int) -> PlusHierarchy:
        self._ensure(i)
        return self._plus[i]

    def step_bound(self, i: int) -> int | None:
        """Largest value upgrade_step(i, .) accepts, when the stage is frozen."""
        return None


class OuroborosHierarchy(DynamicalHierarchy):
    """Start at {2} and take the i-th successor at step i."""

    kind = "ouroboros"


class ClassicHierarchy(DynamicalHierarchy):
    """Single bases 2, 3, 4, ...; each upgrade is a hereditary base change.

    Stages and upgrades are in closed form; the engine only builds the
    0-th successors that plus_object exposes.
    """

    kind = "classic"

    def _successor_index(self, j: int) -> int:
        return 0

    def _next_stage(self, j: int, plus: PlusHierarchy) -> Hierarchy:
        return FiniteHierarchy([j + 3])

    def stage(self, i: int) -> Hierarchy:
        return FiniteHierarchy([i + 2])

    def upgrade_step(self, i: int, n: int) -> int:
        return base_change(n, i + 2, i + 3, self.budget, self._powers)


class PlusChainHierarchy(DynamicalHierarchy):
    """Iterated 0-th successors of a finite start; every stage stays finite."""

    kind = "plus-chain"

    def __init__(
        self,
        start: Hierarchy | Iterable[int],
        budget: BitBudget = DEFAULT_BUDGET,
        horizon: int = DEFAULT_HORIZON,
    ) -> None:
        first = _coerce(start)
        if not isinstance(first, FiniteHierarchy):
            first = FiniteHierarchy(first.elements_from(0))
        super().__init__(budget, horizon, first)

    def spec_string(self) -> str:
        return "plus-chain: " + ",".join(map(str, self._stages[0]))

    def _successor_index(self, j: int) -> int:
        return 0

    def _next_stage(self, j: int, plus: PlusHierarchy) -> Hierarchy:
        return plus.materialize()


class FiniteForHierarchy(DynamicalHierarchy):
    """Successor stages frozen at a moving bound, keeping every stage finite.

    Stage i + 1 is the stage of the i-th successor of stage i at the bound
    k_i; the bound then advances to the upgrade of k_i.  Upgrades are only
    valid at or below the bound, where the frozen stage and the full
    successor agree.
    """

    kind = "finite-for"

    def __init__(
        self,
        m: int,
        budget: BitBudget = DEFAULT_BUDGET,
        horizon: int = DEFAULT_HORIZON,
    ) -> None:
        self.m = _check_count(m, "the bound seed cannot be negative")
        super().__init__(budget, horizon)
        self._ks: list[int] = [m]

    def spec_string(self) -> str:
        return f"finite-for: {self.m}"

    def _next_stage(self, j: int, plus: PlusHierarchy) -> Hierarchy:
        frozen = plus.stage_at(self._ks[j])
        self._ks.append(self._next_k(j, plus, frozen))
        return frozen

    def _next_k(self, j: int, plus: PlusHierarchy, frozen: FiniteHierarchy) -> int:
        return plus.upgrade_value(self._ks[j])

    def step_bound(self, i: int) -> int:
        if i >= len(self._ks):
            self._ensure(i - 1)
        return self._ks[i]

    def upgrade_step(self, i: int, n: int) -> int:
        if i > 0:
            self._ensure(i - 1)
        if n > self._ks[i]:
            raise ValueError(
                f"value {_short(n)} exceeds the stage-{i} bound {_short(self._ks[i])}"
            )
        if n < self._stages[i].min_base:
            return n  # identity below the minimum; the next stage is not needed
        self._ensure(i)
        return self._plus[i].upgrade_value(n)


class DiagonalHierarchy(FiniteForHierarchy):
    """Frozen successor stages whose bound grows by a power tower each step."""

    kind = "diagonal"

    def __init__(
        self,
        budget: BitBudget = DEFAULT_BUDGET,
        horizon: int = DEFAULT_HORIZON,
    ) -> None:
        super().__init__(2, budget, horizon)

    def spec_string(self) -> str:
        return "diagonal"

    def _next_k(self, j: int, plus: PlusHierarchy, frozen: FiniteHierarchy) -> int:
        return superexp(frozen.max_base, j + 1, self.budget)


def dynamical(
    kind: str,
    *,
    start: Hierarchy | Iterable[int] | None = None,
    m: int | None = None,
    budget: BitBudget = DEFAULT_BUDGET,
    horizon: int = DEFAULT_HORIZON,
) -> DynamicalHierarchy:
    """Build a dynamical hierarchy by kind.

    plus-chain needs start; finite-for needs m; the others take no parameters.
    """
    if kind == "classic":
        return ClassicHierarchy(budget, horizon)
    if kind == "plus-chain":
        if start is None:
            raise ValueError("plus-chain needs a start hierarchy")
        return PlusChainHierarchy(start, budget, horizon)
    if kind == "ouroboros":
        return OuroborosHierarchy(budget, horizon)
    if kind == "finite-for":
        if m is None:
            raise ValueError("finite-for needs a bound seed m")
        return FiniteForHierarchy(m, budget, horizon)
    if kind == "diagonal":
        return DiagonalHierarchy(budget, horizon)
    raise ValueError(f"unknown dynamical hierarchy kind: {kind!r}")


# --- descriptions: the text spec_string prints, read back ------------------


def _read_bases(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def hierarchy_from_spec(
    spec: str,
    budget: BitBudget | None = None,
    horizon: int = DEFAULT_HORIZON,
) -> DynamicalHierarchy:
    """Parse a hierarchy description into a dynamical hierarchy.

    Understood forms: ``classic``, ``ouroboros``, ``diagonal``,
    ``finite-for: m``, ``plus-chain: b1,b2,...`` and ``finite: b1,b2,...``.
    A finite list runs as the start of its own successor chain.
    """
    budget = budget or BitBudget()
    head, sep, rest = spec.partition(":")
    head = head.strip()
    if not sep and head in ("classic", "ouroboros", "diagonal"):
        return dynamical(head, budget=budget, horizon=horizon)
    if sep and head == "finite-for":
        return dynamical("finite-for", m=int(rest), budget=budget, horizon=horizon)
    if sep and head in ("plus-chain", "finite"):
        return dynamical("plus-chain", start=_read_bases(rest), budget=budget, horizon=horizon)
    raise ValueError(f"unknown hierarchy description: {spec!r}")


def static_hierarchy_from_spec(spec: str) -> FiniteHierarchy:
    """Parse ``finite: b1,b2,...`` or a bare base list for interpretation and stage queries."""
    head, sep, rest = spec.partition(":")
    bases = _read_bases(rest if sep and head.strip() == "finite" else spec)
    if not bases:
        raise ValueError(f"no bases in hierarchy description: {spec!r}")
    return FiniteHierarchy(bases)
