"""Consecutive terms of a run: a shared spine is printed once and compared by identity.

Consecutive theta certificates mostly keep the spine of their lead
collapse, the monomials of its argument, as the very same tuple.  A
CntPrinter reuses the text of the last spine it printed, and compare_spines
returns at once on one tuple.  The oracles are cnt_to_str for the printer,
and oracle_compare / oracle_compare_cnt for the order.
"""

import functools

import pytest

from fractal_goodstein import ordinal_terms
from fractal_goodstein.ordinal_terms import (
    CntPrinter,
    as_cnt,
    cnt_to_str,
    compare,
    compare_cnt,
    compare_spines,
    parse_term,
)
from fractal_goodstein.runner import run, verify_trace
from oracles import (
    cold_tables,
    oracle_compare,
    oracle_compare_cnt,
    plus_big_omega,
    term_budgets,
)

SPECS = [
    "classic",
    "plus-chain: 2,6",
    "finite: 3,12",
    "finite-for: 3",
    "finite-for: 4",
    "finite-for: 5",
    "diagonal",
    "ouroboros",
]


def _seeds(spec):
    # a frozen stage bounds the seed: finite-for: m by m, diagonal by 2
    if spec.startswith("finite-for"):
        return range(int(spec.split(":")[1]) + 1)
    return range(3 if spec == "diagonal" else 9)


@functools.cache
def _columns(spec, seed):
    """The theta and the psi u terms of a certified run, in step order."""
    records = run(spec, seed, max_steps=300, certify="both").records
    return (
        [r.theta for r in records if r.theta is not None],
        [r.psi_u for r in records if r.psi_u is not None],
    )


# --- printing ---------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS)
def test_the_printer_prints_each_column_in_order_as_cnt_to_str_does(spec):
    for seed in _seeds(spec):
        for column in _columns(spec, seed):
            text = CntPrinter().text
            assert [text(c) for c in column] == [cnt_to_str(c) for c in column], (spec, seed)


@pytest.mark.parametrize("spec", SPECS)
def test_the_printer_prints_two_interleaved_runs_as_cnt_to_str_does(spec):
    # each term's spine differs from the last one printed, so the memo misses
    # and refills at every term
    other = "plus-chain: 2,6" if spec == "classic" else "classic"
    for seed in _seeds(spec):
        text = CntPrinter().text
        for mine, theirs in zip(_columns(spec, seed), _columns(other, 8 - seed)):
            for pair in zip(mine, theirs):
                for c in pair:
                    assert text(c) == cnt_to_str(c), (spec, seed, c)


def test_the_printer_prints_a_certificate_at_the_node_budget():
    # like cnt_to_str, the printer never lifts a term one node past the budget
    with term_budgets(16, 200):
        records = run("classic", 5, max_steps=40, certify="both").records
        certs = [r.theta for r in records if r.theta is not None]
        assert max(c.size for c in certs) == 16
        text = CntPrinter().text
        assert [text(c) for c in certs] == [cnt_to_str(c) for c in certs]


def test_writing_and_verifying_certified_classic_traces_prints_under_1000_monomials(monkeypatch):
    # every printed monomial prints its exponent once: 260 monomials here,
    # against 9,876 when the writer and the verifier printed each
    # certificate whole
    calls = 0
    exp_to_str = ordinal_terms._exp_to_str

    def counted(e):
        nonlocal calls
        calls += 1
        return exp_to_str(e)

    monkeypatch.setattr(ordinal_terms, "_exp_to_str", counted)
    cold_tables()
    for seed in (4, 5, 6, 7):
        assert verify_trace(run("classic", seed, max_steps=300, certify="both").trace_lines()).ok
    assert calls < 1_000


# --- ordering ---------------------------------------------------------------


def _pairs():
    """Consecutive certificates, with the arguments of their lead collapses."""
    for spec, seeds in (("classic", range(4, 8)), ("plus-chain: 2,6", range(4, 9))):
        for seed in seeds:
            certs, _ = _columns(spec, seed)
            for x, y in zip(certs, certs[1:]):
                if x.parts[0][0].arg is not None and y.parts[0][0].arg is not None:
                    yield x, y


def _assert_ordered_as_the_oracle(x, y):
    a, b = x.parts[0][0].arg, y.parts[0][0].arg
    assert compare_cnt(x, y) == oracle_compare_cnt(x, y), (x, y)
    assert compare_cnt(y, x) == oracle_compare_cnt(y, x), (x, y)
    assert compare(a, b) == oracle_compare(a, b), (a, b)
    assert compare(b, a) == oracle_compare(b, a), (a, b)
    spines = oracle_compare(plus_big_omega(a), plus_big_omega(b))
    assert compare_spines(a, b) == spines == -compare_spines(b, a), (a, b)


def test_spines_of_one_tuple_are_ordered_as_the_oracle_orders_them():
    same = [(x, y) for x, y in _pairs() if x.parts[0][0].arg.monos is y.parts[0][0].arg.monos]
    assert len(same) > 1_000
    for x, y in same:
        assert compare_spines(x.parts[0][0].arg, y.parts[0][0].arg) == 0
        _assert_ordered_as_the_oracle(x, y)


def test_equal_spines_of_distinct_tuples_are_ordered_as_the_oracle_orders_them():
    pairs = list(_pairs())
    texts = [cnt_to_str(y) for _, y in pairs]
    cold_tables()
    distinct = 0
    for (x, y), y_text in zip(pairs, texts):
        rebuilt = as_cnt(parse_term(y_text))
        assert rebuilt == y
        a, b = y.parts[0][0].arg, rebuilt.parts[0][0].arg
        if a.monos and a.monos is not b.monos:
            distinct += 1
            assert compare_spines(a, b) == 0 == compare(a, b)
        _assert_ordered_as_the_oracle(x, rebuilt)
        _assert_ordered_as_the_oracle(rebuilt, y)
    assert distinct > 1_000


def test_terms_that_differ_in_the_tail_alone_are_ordered_as_the_oracle_orders_them():
    tails = [
        (x, y)
        for x, y in _pairs()
        if x.parts[0][0].arg.monos == y.parts[0][0].arg.monos
        and x.parts[0][0].arg.tail != y.parts[0][0].arg.tail
    ]
    assert len(tails) > 1_000
    for x, y in tails:
        assert compare(x.parts[0][0].arg, y.parts[0][0].arg) == 1
        _assert_ordered_as_the_oracle(x, y)
