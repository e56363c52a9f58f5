"""Shared test oracles and helpers for the term calculus and the deep base change.

ord_add is the pairwise ordinal sum that the library's one-pass ord_sum
replaced: it builds every partial sum, and so checks each against the term
budgets.  oracle_compare_cnt is the order of countable terms by the rule that
the library's coefficient walk replaced: two v-collapses follow their
arguments exactly when the maximal coefficient of the smaller argument,
folded by max_coefficient, compares below the larger collapse built as a
term.  plus_big_omega builds x + Omega, the sum that star compared before
it compared spines: compare_spines must order two readings as their sums
order, and check_plus_big_omega must raise as the build does.  The
term-budget helpers run code under patched term budgets from cold tables: a
stored term is returned without a size check, so a patched budget only
bites on terms built after the tables are reset to the constants.

textbook_budget_pow is the rule BitBudget.pow followed before it took an
even base's power as its odd part's power shifted: the pre-guard, then
base**exp as it stands, then the budget check.  textbook_deep_change is the
deep base change that numerals._phi_value computes, written out: every
base-b digit by repeated division, and a fresh textbook power for every
monomial.

EveryIteratePlusHierarchy is PlusHierarchy with the critical-event loop it
had before a dying event read its last iterate's width: it takes every
iterate d_{k+1} = Phi(d_k), the one that only names the death included.

EagerPlusHierarchy is PlusHierarchy with the source event it had before a
stage base was held by its form: every base it builds is an int.

oracle_atom, oracle_cnt and oracle_ord are the term constructors' bodies as
they stood before each checked, sized and took the depth of its pieces in one
pass: zero tests through is_zero(), then any, sum and max over the pieces.
Each returns the (size, depth, hash) its constructor stores, or raises what
it raises, in the same order: zero pieces, then size, then depth.
"""

import contextlib

import pytest

from fractal_goodstein import ordinal_terms
from fractal_goodstein.numerals import INFINITY, BudgetExceededError, _short
from fractal_goodstein.ordinal_terms import (
    BIG_OMEGA,
    CNT_ONE,
    CNT_ZERO,
    ONE,
    CntTerm,
    OrdinalError,
    OrdTerm,
    cnt_add,
    compare,
)
from fractal_goodstein.successors import PlusHierarchy

TERM_CLASSES = (ordinal_terms.Atom, ordinal_terms.CntTerm, ordinal_terms.OrdTerm)


def ord_add(x: OrdTerm, y: OrdTerm) -> OrdTerm:
    """x + y, absorbing as usual: x's monomials below y's lead vanish, an equal one adds."""
    if y.is_zero():
        return x
    if not y.monos:
        return OrdTerm(x.monos, cnt_add(x.tail, y.tail))
    lead, coeff = y.monos[0]
    for i, (exp, c) in enumerate(x.monos):
        order = compare(exp, lead)
        if order < 0:
            return OrdTerm(x.monos[:i] + y.monos, y.tail)
        if order == 0:
            return OrdTerm((*x.monos[:i], (lead, cnt_add(c, coeff)), *y.monos[1:]), y.tail)
    return OrdTerm(x.monos + y.monos, y.tail)


def _sign(d: int) -> int:
    return (d > 0) - (d < 0)


def oracle_compare_cnt(x: CntTerm, y: CntTerm) -> int:
    """compare_cnt by the maximum-coefficient rule, independent of the library's order."""
    for (a1, m1), (a2, m2) in zip(x.parts, y.parts):
        c = _oracle_compare_atoms(a1, a2) or _sign(m1 - m2)
        if c:
            return c
    return _sign(len(x.parts) - len(y.parts)) or _sign(x.fin - y.fin)


def oracle_compare(x: OrdTerm, y: OrdTerm) -> int:
    """compare on OrdTerms, with countable terms ordered by oracle_compare_cnt."""
    for (e1, c1), (e2, c2) in zip(x.monos, y.monos):
        c = oracle_compare(e1, e2) or oracle_compare_cnt(c1, c2)
        if c:
            return c
    return _sign(len(x.monos) - len(y.monos)) or oracle_compare_cnt(x.tail, y.tail)


def _oracle_compare_atoms(a, b) -> int:
    if a == b:
        return 0
    if a.kind == "omega":
        return -1
    if b.kind == "omega":
        return 1
    if a.kind != b.kind:
        raise OrdinalError("cannot compare a v-collapse with a p-collapse")
    c = oracle_compare(a.arg, b.arg)
    if a.kind == "psi":
        return c
    if c < 0:
        return -1 if oracle_compare_cnt(max_coefficient(a.arg), CntTerm(((b, 1),), 0)) < 0 else 1
    return 1 if oracle_compare_cnt(max_coefficient(b.arg), CntTerm(((a, 1),), 0)) < 0 else -1


def max_coefficient(x: OrdTerm) -> CntTerm:
    """Largest countable coefficient occurring hereditarily in x."""
    best = x.tail
    for exp, coeff in x.monos:
        for c in (coeff, max_coefficient(exp)):
            if oracle_compare_cnt(best, c) < 0:
                best = c
    return best


def plus_big_omega(x: OrdTerm) -> OrdTerm:
    """x + Omega, built: the sum that check_plus_big_omega and compare_spines stand for."""
    monos = x.monos
    if monos and monos[-1][0] == ONE:
        return OrdTerm((*monos[:-1], (ONE, cnt_add(monos[-1][1], CNT_ONE))), CNT_ZERO)
    return OrdTerm(monos + BIG_OMEGA.monos, CNT_ZERO)


def cold_tables() -> None:
    """Tables holding only the constants: no stored term skips a patched check."""
    for cls in TERM_CLASSES:
        cls._table.clear()
        cls._table.update(cls._seed)


@contextlib.contextmanager
def term_budgets(nodes: int, depth: int = ordinal_terms.TERM_DEPTH_BUDGET):
    """Patched term budgets over cold tables, restored on exit."""
    cold_tables()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ordinal_terms, "TERM_NODE_BUDGET", nodes)
        m.setattr(ordinal_terms, "TERM_DEPTH_BUDGET", depth)
        yield


def outcome(fn, *args):
    """fn(*args), or the text of the budget error it raises."""
    try:
        return fn(*args)
    except BudgetExceededError as e:
        return f"raises {e}"


def cold_outcome(fn, *args):
    """outcome(fn, *args) from cold tables."""
    cold_tables()
    return outcome(fn, *args)


def textbook_budget_pow(budget, base, exp):
    """base**exp under ``budget``: refused first on the predicted width, then checked."""
    if base >= 2 and (exp > budget.bits or (base.bit_length() - 1) * exp > budget.bits):
        raise BudgetExceededError(f"{_short(base)}**{_short(exp)} exceeds budget of {budget.bits} bits")
    return budget.check(base**exp)


def textbook_deep_change(up, b, c, m, budget, low):
    """Each base-b monomial b**e * a of m rebuilt as c**pe * ua, top down.

    pe is the deep change of e, ua is a, or up(a) from ``low`` on, and the
    units digit is kept or upgraded the same way.  Upgrades are asked for,
    and the budget consulted, in the order numerals._phi_value does, so a
    death raises the same text; an infinite upgrade makes the change infinite.
    """
    if m < b:
        return m if m < low else up(m)
    ds = []
    while m:
        m, d = divmod(m, b)
        ds.append(d)
    acc = 0
    for e in range(len(ds) - 1, 0, -1):
        if not ds[e]:
            continue
        pe = textbook_deep_change(up, b, c, e, budget, low)
        ua = ds[e] if ds[e] < low else up(ds[e])
        if pe is INFINITY or ua is INFINITY:
            return INFINITY
        acc = budget.check(acc + textbook_budget_pow(budget, c, pe) * ua)
    if not ds[0]:
        return acc
    tail = ds[0] if ds[0] < low else up(ds[0])
    return INFINITY if tail is INFINITY else budget.check(acc + tail)


def _oracle_check_size(size: int) -> int:
    if size > ordinal_terms.TERM_NODE_BUDGET:
        raise BudgetExceededError(
            f"term of {size} nodes exceeds budget of {ordinal_terms.TERM_NODE_BUDGET} nodes"
        )
    return size


def _oracle_check_depth(depth: int) -> int:
    if depth > ordinal_terms.TERM_DEPTH_BUDGET:
        raise BudgetExceededError(
            f"term of depth {depth} exceeds budget of {ordinal_terms.TERM_DEPTH_BUDGET} levels"
        )
    return depth


def oracle_atom(kind, arg):
    size = _oracle_check_size(1 + (arg.size if arg is not None else 0))
    depth = _oracle_check_depth(1 + (arg.depth if arg is not None else 0))
    return size, depth, hash(("atom", kind, arg))


def oracle_cnt(parts, fin):
    if fin < 0:
        raise OrdinalError("finite part cannot be negative")
    if any(m < 1 for _, m in parts):
        raise OrdinalError("atom multiplicities must be positive")
    size = _oracle_check_size(1 + sum(a.size for a, _ in parts))
    depth = _oracle_check_depth(1 + max((a.depth for a, _ in parts), default=0))
    return size, depth, hash(("cnt", parts, fin))


def oracle_ord(monos, tail):
    for exp, coeff in monos:
        if exp.is_zero() or coeff.is_zero():
            raise OrdinalError("monomials need nonzero exponent and coefficient")
    size = _oracle_check_size(1 + sum(e.size + c.size for e, c in monos) + tail.size)
    deepest = max((max(e.depth, c.depth) for e, c in monos), default=0)
    depth = _oracle_check_depth(1 + max(deepest, tail.depth))
    return size, depth, hash(("ord", monos, tail))


class EveryIteratePlusHierarchy(PlusHierarchy):
    """A successor whose critical events take every iterate, applied whole or not at all."""

    def _apply_event(self, pos: int, is_base: bool, until: int) -> None:
        if is_base:
            return super()._apply_event(pos, is_base, until)
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
            del self._elems[start:], self._added_at[start:]
            raise


class EagerPlusHierarchy(PlusHierarchy):
    """A successor that takes each base's integer as it builds it, as before bases were held.

    A source event takes the deep change of pos - 1 in full, through the walk
    of its integer, and rounds it up to the next multiple of c, so
    no base of it, nor of a stage built from it, is ever a Form.
    """

    def _apply_event(self, pos: int, is_base: bool, until: int) -> None:
        if not is_base:
            return super()._apply_event(pos, is_base, until)
        c = self._elems[-1]
        ph = self._phi(self.base.lower_base(pos), c, pos - 1)
        assert ph is not INFINITY
        self._append(c * (ph // c + 1), pos)
