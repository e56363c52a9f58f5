"""Shared test oracles and helpers for the term calculus.

ord_add is the pairwise ordinal sum that the library's one-pass ord_sum
replaced: it builds every partial sum, and so checks each against the term
budgets.  The other helpers run code under patched term budgets from cold
tables: a stored term is returned without a size check, so a patched budget
only bites on terms built after the tables are reset to the constants.
"""

import contextlib

import pytest

from fractal_goodstein import ordinal_terms
from fractal_goodstein.numerals import BudgetExceededError
from fractal_goodstein.ordinal_terms import OrdTerm, cnt_add, compare

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
