"""Ordinal term calculus: comparison laws, fundamental sequences, grammar."""

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fractal_goodstein import ordinal_terms
from fractal_goodstein.numerals import BudgetExceededError
from fractal_goodstein.ordinal_terms import (
    BIG_OMEGA,
    CNT_ONE,
    CNT_ZERO,
    OMEGA,
    OMEGA_ORD,
    ONE,
    TERM_DEPTH_BUDGET,
    ZERO,
    Atom,
    Cofinality,
    CntTerm,
    OrdinalError,
    OrdTerm,
    as_cnt,
    big_f,
    cnt_add,
    cofinality,
    compare,
    compare_cnt,
    fin_cnt,
    fin_ord,
    fund_seq,
    fund_seq_cnt,
    is_psi_normal_form,
    lift,
    natural_sum,
    natural_sum_cnt,
    omega_monomial,
    omega_tower,
    ord_sum,
    parse_term,
    psi,
    step_down,
    term_to_str,
    theta,
)
from fractal_goodstein.runner import run, verify_trace
from oracles import (
    TERM_CLASSES,
    cold_outcome,
    max_coefficient,
    oracle_atom,
    oracle_cnt,
    oracle_compare_cnt,
    oracle_ord,
    ord_add,
    plus_big_omega,
    term_budgets,
)

W_W = omega_monomial(BIG_OMEGA, CNT_ONE)  # Omega^Omega


def s(t):
    return term_to_str(t if isinstance(t, OrdTerm) else lift(t))


# --- factories and canonicalization ---------------------------------------


def test_factory_canonicalization():
    assert theta(ZERO) == CNT_ONE
    assert theta(ONE) == OMEGA
    assert psi(BIG_OMEGA) == OMEGA
    assert psi(fin_ord(7)) == fin_cnt(7)  # collapse is the identity below Omega
    assert as_cnt(lift(OMEGA)) == OMEGA
    assert lift(CNT_ZERO) == ZERO


def test_as_cnt_rejects_uncountable():
    with pytest.raises(OrdinalError):
        as_cnt(BIG_OMEGA)


def test_omega_monomial_folding():
    assert omega_monomial(ZERO, fin_cnt(3)) == fin_ord(3)
    assert s(omega_monomial(ONE, CNT_ONE)) == "W^1*1"
    with pytest.raises(OrdinalError):
        OrdTerm(((ONE, CNT_ZERO),), CNT_ZERO)  # zero coefficient


def test_omega_tower():
    assert omega_tower(0) == ONE
    assert omega_tower(1) == BIG_OMEGA
    assert omega_tower(2) == W_W
    assert s(omega_tower(3)) == "W^(W^(W^1*1)*1)*1"


# --- comparison -------------------------------------------------------------


def test_compare_fixtures():
    chain = [
        ZERO,
        ONE,
        fin_ord(5),
        OMEGA_ORD,
        lift(theta(BIG_OMEGA)),
        lift(theta(natural_sum(BIG_OMEGA, ONE))),
        BIG_OMEGA,
        natural_sum(BIG_OMEGA, OMEGA_ORD),
        W_W,
    ]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert compare(a, b) == (i > j) - (i < j)


def test_omega_is_least_infinite_atom():
    assert compare_cnt(OMEGA, theta(BIG_OMEGA)) < 0
    assert compare_cnt(OMEGA, psi(W_W)) < 0
    assert compare_cnt(OMEGA, psi(BIG_OMEGA)) == 0  # p(W) collapses to w


def test_mixed_collapse_comparison_is_an_error():
    with pytest.raises(OrdinalError):
        compare_cnt(theta(BIG_OMEGA), psi(W_W))


def _atoms_theta(depth):
    # pieces are countable terms built from w and v-collapses
    if depth == 0:
        return st.just(OMEGA)
    sub = _cnt_terms(depth - 1, _atoms_theta)
    return st.one_of(
        st.just(OMEGA),
        st.builds(
            lambda c, use: theta(natural_sum(BIG_OMEGA, lift(c)) if use else lift(c)),
            sub,
            st.booleans(),
        ),
    )


def _atoms_psi(depth):
    if depth == 0:
        return st.just(OMEGA)
    sub = _cnt_terms(depth - 1, _atoms_psi)
    return st.one_of(
        st.just(OMEGA),
        st.builds(
            lambda c, k: psi(natural_sum(omega_tower(k), lift(c))),
            sub,
            st.integers(min_value=1, max_value=2),
        ),
    )


def _cnt_terms(depth, family):
    pieces = st.lists(family(depth), max_size=4)
    fins = st.integers(min_value=0, max_value=4)

    def build(parts, fin):
        out = CntTerm((), fin)
        for p in parts:
            out = natural_sum_cnt(out, p)
        return out

    return st.builds(build, pieces, fins)


@settings(max_examples=300)
@given(_cnt_terms(3, _atoms_theta), _cnt_terms(3, _atoms_theta), _cnt_terms(3, _atoms_theta))
def test_compare_is_a_total_order_theta(a, b, c):
    # trichotomy
    assert compare_cnt(a, b) == -compare_cnt(b, a)
    assert (compare_cnt(a, b) == 0) == (a == b)
    # transitivity
    if compare_cnt(a, b) <= 0 and compare_cnt(b, c) <= 0:
        assert compare_cnt(a, c) <= 0


@settings(max_examples=300)
@given(_cnt_terms(3, _atoms_psi), _cnt_terms(3, _atoms_psi), _cnt_terms(3, _atoms_psi))
def test_compare_is_a_total_order_psi(a, b, c):
    assert compare_cnt(a, b) == -compare_cnt(b, a)
    assert (compare_cnt(a, b) == 0) == (a == b)
    if compare_cnt(a, b) <= 0 and compare_cnt(b, c) <= 0:
        assert compare_cnt(a, c) <= 0


# --- arithmetic -------------------------------------------------------------


def _add(x, y):
    """x + y through the library's sum."""
    return ord_sum((x, y))


def test_ord_add_absorbs_on_the_left():
    assert _add(ONE, OMEGA_ORD) == OMEGA_ORD
    assert _add(fin_ord(3), BIG_OMEGA) == BIG_OMEGA
    assert s(_add(BIG_OMEGA, ONE)) == "W^1*1+1"
    # equal exponents add their coefficients as ordinals: W + W*w = W*(1+w)
    assert s(_add(BIG_OMEGA, omega_monomial(ONE, OMEGA))) == "W^1*w"
    assert cnt_add(CNT_ONE, OMEGA) == OMEGA
    assert s(cnt_add(OMEGA, CNT_ONE)) == "w+1"


@settings(max_examples=300)
@given(_cnt_terms(2, _atoms_theta), _cnt_terms(2, _atoms_theta))
def test_natural_sum_commutes(a, b):
    assert natural_sum_cnt(a, b) == natural_sum_cnt(b, a)


@settings(max_examples=200)
@given(_cnt_terms(2, _atoms_psi), _cnt_terms(2, _atoms_psi))
def test_natural_sum_dominates_both_arguments(a, b):
    total = natural_sum_cnt(a, b)
    assert compare_cnt(total, a) >= 0
    assert compare_cnt(total, b) >= 0


# exponents in decreasing order: W, w, 2, 1
_EXPONENTS = (BIG_OMEGA, OMEGA_ORD, fin_ord(2), ONE)


def _ord_terms(family):
    """Small OrdTerms: a monomial per exponent in _EXPONENTS (or none), then a tail."""

    def build(coeffs, tail):
        monos = tuple((e, c) for e, c in zip(_EXPONENTS, coeffs) if not c.is_zero())
        return OrdTerm(monos, tail)

    coeffs = st.lists(_cnt_terms(1, family), min_size=len(_EXPONENTS), max_size=len(_EXPONENTS))
    return st.builds(build, coeffs, _cnt_terms(2, family))


# built once: a strategy built inside each example is validated each time
ORD_TRIPLES = {
    family.__name__: st.tuples(_ord_terms(family), _ord_terms(family), _ord_terms(family))
    for family in (_atoms_theta, _atoms_psi)
}


@pytest.mark.parametrize("family", ORD_TRIPLES)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_sum_laws_on_ord_terms(family, data):
    x, y, z = data.draw(ORD_TRIPLES[family])
    assert _add(_add(x, y), z) == _add(x, _add(y, z))
    # strictly monotone on the right: x + y against x + z orders as y against z
    assert compare(_add(x, y), _add(x, z)) == compare(y, z)
    assert compare(_add(x, y), y) >= 0
    assert natural_sum(x, y) == natural_sum(y, x)
    assert natural_sum(natural_sum(x, y), z) == natural_sum(x, natural_sum(y, z))
    assert compare(natural_sum(x, y), natural_sum(x, z)) == compare(y, z)


# zero terms and the shared exponents of _ord_terms make ord_sum skip terms,
# pop monomials and merge equal exponents
ORD_LISTS = {
    family.__name__: st.lists(st.just(ZERO) | _ord_terms(family), max_size=6)
    for family in (_atoms_theta, _atoms_psi)
}


@pytest.mark.parametrize("family", ORD_LISTS)
@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    nodes=st.sampled_from([16, 32, 48, 64, 10_000]),
    depth=st.sampled_from([5, 6, 7, 200]),
)
def test_ord_sum_is_the_ord_add_fold(family, data, nodes, depth):
    # under the budgets too: ord_sum raises the text the fold raises, at the
    # same partial sum; stored terms would skip the checks, so tables are cold
    xs = data.draw(ORD_LISTS[family])
    with term_budgets(nodes, depth):
        one_pass = cold_outcome(ord_sum, xs)
        fold = cold_outcome(reduce, ord_add, xs, ZERO)
    _restore_tables()
    assert one_pass == fold


# --- the order against the maximum-coefficient rule ---------------------------

CNT_TERMS = {family.__name__: _cnt_terms(3, family) for family in (_atoms_theta, _atoms_psi)}


@pytest.mark.parametrize("clear", [False, True])
@pytest.mark.parametrize("family", CNT_TERMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compare_cnt_is_the_max_coefficient_rule(family, clear, data):
    # with a clear between the two builds, equal atoms are distinct objects
    # and are told equal by their arguments
    a = data.draw(CNT_TERMS[family])
    if clear:
        _clear_tables()
    b = data.draw(CNT_TERMS[family])
    assert compare_cnt(a, b) == oracle_compare_cnt(a, b)
    _restore_tables()


def _collapse_args(family):
    """_ord_terms sums plus W^e*1, where the exponent e is itself a collapse of one."""
    collapse = theta if family is _atoms_theta else psi
    return st.builds(
        lambda x, y: natural_sum(omega_monomial(lift(collapse(x)), CNT_ONE), y),
        _ord_terms(family),
        _ord_terms(family),
    )


@settings(max_examples=100, deadline=None)
@given(_collapse_args(_atoms_theta), _collapse_args(_atoms_theta))
def test_v_collapses_look_inside_exponents(x, y):
    a, b = theta(x), theta(y)
    assert compare_cnt(a, b) == oracle_compare_cnt(a, b)


def test_v_collapse_order_fixtures():
    # W^v(W^W) < W^W, yet its exponent holds v(W^W) itself: the collapse of the
    # smaller argument is the larger one; with a smaller exponent it is not
    above = theta(omega_monomial(lift(theta(W_W)), CNT_ONE))
    below = theta(omega_monomial(lift(theta(BIG_OMEGA)), CNT_ONE))
    assert compare_cnt(above, theta(W_W)) == 1 == oracle_compare_cnt(above, theta(W_W))
    assert compare_cnt(below, theta(W_W)) == -1 == oracle_compare_cnt(below, theta(W_W))
    # the same with v(W^W) as a coefficient and as the tail
    for arg in (omega_monomial(ONE, theta(W_W)), natural_sum(BIG_OMEGA, lift(theta(W_W)))):
        assert compare_cnt(theta(arg), theta(W_W)) == 1


def test_plus_big_omega_and_max_coefficient():
    assert plus_big_omega(W_W) == natural_sum(W_W, BIG_OMEGA)
    assert plus_big_omega(ZERO) == BIG_OMEGA
    assert max_coefficient(natural_sum(BIG_OMEGA, fin_ord(3))) == fin_cnt(3)
    assert max_coefficient(omega_monomial(lift(theta(BIG_OMEGA)), fin_cnt(2))) == theta(BIG_OMEGA)


# --- cofinality and fundamental sequences -----------------------------------


def test_cofinality():
    assert cofinality(ZERO) is Cofinality.ZERO
    assert cofinality(ONE) is Cofinality.SUCCESSOR
    assert cofinality(natural_sum(BIG_OMEGA, ONE)) is Cofinality.SUCCESSOR
    assert cofinality(OMEGA_ORD) is Cofinality.OMEGA
    assert cofinality(natural_sum(BIG_OMEGA, OMEGA_ORD)) is Cofinality.OMEGA
    assert cofinality(BIG_OMEGA) is Cofinality.BIG_OMEGA
    assert cofinality(W_W) is Cofinality.BIG_OMEGA


def test_fund_seq_fixtures():
    assert fund_seq(BIG_OMEGA, 0) == ZERO
    assert fund_seq(BIG_OMEGA, 7) == fin_ord(7)
    # indexing Omega by a countable term keeps the term
    assert fund_seq(BIG_OMEGA, theta(BIG_OMEGA)) == lift(theta(BIG_OMEGA))
    assert fund_seq(W_W, 0) == ONE
    assert fund_seq(W_W, theta(BIG_OMEGA)) == omega_monomial(lift(theta(BIG_OMEGA)), CNT_ONE)
    assert fund_seq(omega_tower(3), 0) == BIG_OMEGA
    assert fund_seq(omega_tower(4), 0) == W_W
    assert fund_seq(W_W, 1) == BIG_OMEGA


def test_fund_seq_successor_steps_to_predecessor():
    assert fund_seq(natural_sum(BIG_OMEGA, ONE), 5) == BIG_OMEGA
    assert fund_seq_cnt(cnt_add(OMEGA, CNT_ONE), 3) == OMEGA
    assert fund_seq(ZERO, 1) == ZERO


def test_fund_seq_psi_diagonal():
    u = psi(W_W)
    assert fund_seq_cnt(u, 1) == CNT_ONE
    assert fund_seq_cnt(u, 2) == OMEGA
    assert fund_seq_cnt(u, 3) == psi(omega_monomial(OMEGA_ORD, CNT_ONE))


def test_fund_seq_psi_diagonal_stops_at_a_fixed_point():
    # every entry of p(W^2*1) is p(W*0) = 0: the descent repeats at once
    u = as_cnt(parse_term("p(W^2*1)"))
    assert fund_seq_cnt(u, 10**12) == CNT_ZERO
    for term in ("p(W^2*1)", "p(W^(W^1*1)*1)", "p(W^2*1+W^1*1)"):
        x = as_cnt(parse_term(term))
        zeta = x.parts[0][0].arg
        xi = CNT_ZERO
        for k in range(5):
            assert fund_seq_cnt(x, k) == xi, (term, k)
            xi = psi(fund_seq(zeta, xi))


def test_fund_seq_rejects_theta_atoms():
    with pytest.raises(OrdinalError):
        fund_seq_cnt(theta(natural_sum(BIG_OMEGA, ONE)), 2)


@settings(max_examples=300)
@given(_cnt_terms(3, _atoms_psi), st.integers(min_value=0, max_value=5))
def test_fund_seq_strictly_descends(c, k):
    if c.is_zero():
        return
    stepped = fund_seq_cnt(c, k)
    assert compare_cnt(stepped, c) < 0


def test_step_down_fixtures():
    assert [s(t) for t in step_down(lift(OMEGA))] == ["w", "1", "0"]
    assert [s(t) for t in step_down(psi(W_W))] == ["p(W^(W^1*1)*1)", "1", "0"]
    capped = step_down(lift(psi(omega_tower(3))), upto=2)
    assert len(capped) == 3 and not capped[-1].is_zero()


def test_big_f_small_values():
    # hand oracle for the first two descents:
    #   F(0): p(1) = 1, then 1[1] = 0, so one step.
    assert lift(psi(omega_tower(0))) == ONE
    assert fund_seq(ONE, 1) == ZERO
    assert big_f(0) == 1
    #   F(1): p(W) = w, w[1] = 1, 1[2] = 0, so two steps.
    assert lift(psi(omega_tower(1))) == lift(OMEGA)
    assert fund_seq(lift(OMEGA), 1) == ONE
    assert fund_seq(ONE, 2) == ZERO
    assert big_f(1) == 2
    assert [big_f(n) for n in range(5)] == [1, 2, 2, 4, 6]


def test_big_f_exhausts_budget():
    with pytest.raises(BudgetExceededError):
        big_f(5)


# --- normal forms -----------------------------------------------------------


def test_is_psi_normal_form():
    assert is_psi_normal_form(W_W)
    assert is_psi_normal_form(omega_tower(3))
    assert is_psi_normal_form(BIG_OMEGA)
    assert is_psi_normal_form(lift(OMEGA))  # countable: nothing to check
    # W + p(W^W) has a coefficient the collapse cannot dominate
    assert not is_psi_normal_form(natural_sum(BIG_OMEGA, lift(psi(W_W))))
    # the coefficient can sit in an exponent: W^p(W^W) is below W^W
    assert not is_psi_normal_form(omega_monomial(lift(psi(W_W)), CNT_ONE))


@settings(max_examples=100, deadline=None)
@given(_collapse_args(_atoms_psi))
def test_is_psi_normal_form_is_the_max_coefficient_rule(arg):
    oracle = arg.is_countable() or oracle_compare_cnt(max_coefficient(arg), psi(arg)) < 0
    assert is_psi_normal_form(arg) == oracle


# --- grammar ----------------------------------------------------------------

ROUND_TRIP = [
    "0",
    "1",
    "7",
    "w",
    "w+1",
    "w+w",
    "W^1*1",
    "W^1*1+1",
    "W^(W^1*1)*1",
    "W^(W^1*1)*2+W^1*v(W^1*1)+w",
    "v(W^1*1)",
    "v(W^1*1+v(W^1*1)+w)",
    "p(W^(W^1*1)*1)",
    "p(W^(W^1*1)*1)*3+2",
    "W^w*1",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_parse_print_round_trip(text):
    assert term_to_str(parse_term(text)) == text


def test_parse_canonicalizes():
    assert term_to_str(parse_term("v(0)*3")) == "3"  # v(0) = 1
    assert term_to_str(parse_term("3+w")) == "w"  # left absorption
    assert parse_term("w+w+w") == lift(cnt_add(cnt_add(OMEGA, OMEGA), OMEGA))


@pytest.mark.parametrize("bad", ["W^", "v 1", "", "w+", "(w)", "W^1", "p()", "w*"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(OrdinalError):
        parse_term(bad)


@pytest.mark.parametrize(
    "piece",
    ["v(0)", "v(1)", "v(W^1*1)", "v(W^1*1+v(W^1*1)+w)", "p(5)", "p(w+1)",
     "p(W^1*1)", "p(W^2*1)", "p(W^(W^1*1)*1)", "p(p(W^2*1)*2+w+3)"],
)
def test_parse_multiplicity_is_repeated_addition(piece):
    x = as_cnt(parse_term(piece))
    total = CNT_ZERO
    for m in range(6):
        assert as_cnt(parse_term(f"{piece}*{m}")) == total, (piece, m)
        total = cnt_add(total, x)


def test_parse_large_multiplicity_in_one_step():
    x = as_cnt(parse_term("p(W^2*1)*1000000"))
    assert x.parts == ((as_cnt(parse_term("p(W^2*1)")).parts[0][0], 1000000),)
    assert x.fin == 0
    assert as_cnt(parse_term("v(0)*1000000")) == fin_cnt(1000000)


def test_parse_multiplicity_cap():
    with pytest.raises(OrdinalError):
        parse_term("v(1)*2000000")


@settings(max_examples=300)
@given(_cnt_terms(3, _atoms_psi))
def test_round_trip_is_exact(c):
    t = lift(c)
    assert parse_term(term_to_str(t)) == t


def test_deep_terms_hit_the_depth_budget():
    with pytest.raises(BudgetExceededError):
        cur = OMEGA
        for _ in range(100):
            cur = theta(natural_sum(BIG_OMEGA, lift(cur)))


# --- construction table -------------------------------------------------------

# the tables as collection left them: one epoch, module constants included
_COLLECTED = {cls: dict(cls._table) for cls in TERM_CLASSES}


def _clear_tables():
    for cls in TERM_CLASSES:
        cls._table.clear()


def _restore_tables():
    """Back to the collected tables, so that parsing meets the constants it returns."""
    for cls in TERM_CLASSES:
        cls._table.clear()
        cls._table.update(_COLLECTED[cls])


def _structure(t):
    """The term as nested tuples: the structural reference, free of any table."""
    if isinstance(t, Atom):
        return (t.kind, None if t.arg is None else _structure(t.arg))
    if isinstance(t, CntTerm):
        return (tuple((_structure(a), m) for a, m in t.parts), t.fin)
    return (tuple((_structure(e), _structure(c)) for e, c in t.monos), _structure(t.tail))


def _rebuild(t):
    """The same term, built bottom-up through the constructors."""
    if isinstance(t, Atom):
        return Atom(t.kind, None if t.arg is None else _rebuild(t.arg))
    if isinstance(t, CntTerm):
        return CntTerm(tuple((_rebuild(a), m) for a, m in t.parts), t.fin)
    return OrdTerm(tuple((_rebuild(e), _rebuild(c)) for e, c in t.monos), _rebuild(t.tail))


@settings(max_examples=200)
@given(_cnt_terms(3, _atoms_psi), _cnt_terms(3, _atoms_psi))
def test_each_distinct_term_is_one_object(a, b):
    _restore_tables()  # no clear can fall inside this example
    x, y = _rebuild(lift(a)), _rebuild(lift(b))
    assert parse_term(term_to_str(x)) is x
    assert (x is y) == (_structure(a) == _structure(b))


@settings(max_examples=200)
@given(_cnt_terms(3, _atoms_theta))
def test_a_term_rebuilt_after_a_clear_is_equal_but_new(c):
    _clear_tables()
    again = _rebuild(c)
    assert again == c and hash(again) == hash(c)
    assert again is not c
    assert compare_cnt(again, c) == 0 and compare(lift(again), lift(c)) == 0


@settings(max_examples=300)
@given(_cnt_terms(3, _atoms_theta), _cnt_terms(3, _atoms_theta), st.booleans())
def test_compare_is_zero_exactly_on_equal_structure(a, b, clear):
    if clear:
        _clear_tables()  # equal terms are then distinct objects
        b = _rebuild(b)
    same = _structure(a) == _structure(b)
    assert (compare_cnt(a, b) == 0) == same
    assert (compare(lift(a), lift(b)) == 0) == same


def test_an_over_budget_build_raises_each_time_and_stores_nothing():
    deepest = omega_tower(TERM_DEPTH_BUDGET - 2)
    assert deepest.depth == TERM_DEPTH_BUDGET
    _clear_tables()
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            OrdTerm(((deepest, CNT_ONE),), CNT_ZERO)
        assert all(not cls._table for cls in TERM_CLASSES)


def test_a_cleared_table_keeps_the_constants(monkeypatch):
    monkeypatch.setattr(ordinal_terms, "_TABLE_LIMIT", 16)
    try:
        for n in range(100):  # clears the CntTerm and OrdTerm tables again and again
            fin_ord(n)
            omega_monomial(fin_ord(n + 1), OMEGA)
        assert all(len(cls._table) < 16 for cls in TERM_CLASSES)
        x = OrdTerm((), CntTerm((), 0))
        assert x is ZERO
        assert parse_term(term_to_str(x)) is x
        assert lift(CntTerm(((Atom("omega", None), 1),), 0)) is OMEGA_ORD
        y = omega_monomial(omega_monomial(ONE, CNT_ONE), OMEGA)
        assert parse_term(term_to_str(y)) is y
    finally:
        _restore_tables()


TABLE_RUNS = [("classic", 4, 60), ("finite-for: 3", 2, None)]


@pytest.mark.parametrize("spec,seed,max_steps", TABLE_RUNS)
def test_the_table_cannot_be_observed_in_traces(monkeypatch, spec, seed, max_steps):
    def trace():
        return run(spec, seed, max_steps=max_steps, certify="both").trace_lines()

    lines = trace()
    report = verify_trace(lines)
    assert report.ok
    _clear_tables()
    assert trace() == lines
    _clear_tables()
    assert verify_trace(lines) == report
    monkeypatch.setattr(ordinal_terms, "_TABLE_LIMIT", 8)  # clears again and again
    assert trace() == lines
    assert verify_trace(lines) == report


def test_folds_read_structure_when_the_tables_are_empty():
    # terms equal to the constants but built after the tables were emptied
    # are new objects, and each fold must still see what they are
    _clear_tables()
    try:
        zero_c, one_c = CntTerm((), 0), CntTerm((), 1)
        zero, one = OrdTerm((), zero_c), OrdTerm((), one_c)
        big_omega = OrdTerm(((one, one_c),), zero_c)
        for fresh, constant in ((zero_c, CNT_ZERO), (zero, ZERO), (one, ONE), (big_omega, BIG_OMEGA)):
            assert fresh == constant and fresh is not constant
        assert theta(zero) == CNT_ONE
        assert theta(one) == OMEGA
        assert psi(big_omega) == OMEGA
        coeff = theta(big_omega)
        assert omega_monomial(big_omega, zero_c) == ZERO
        assert omega_monomial(zero, coeff) == lift(coeff)
        # one step off each constant does not fold
        assert theta(OrdTerm((), CntTerm((), 2))).parts
        assert psi(OrdTerm(((one, CntTerm((), 2)),), zero_c)).parts
        assert psi(OrdTerm(((one, one_c),), one_c)).parts
    finally:
        _restore_tables()


# constructor pieces: zero terms, negative finite parts and multiplicities
# below 1 among them; a constructor checks neither order nor flavor
_PIECE_ORDS = st.one_of(st.sampled_from([ZERO, ONE, BIG_OMEGA]), _ord_terms(_atoms_theta))
_PIECE_CNTS = st.one_of(st.just(CNT_ZERO), _cnt_terms(2, _atoms_theta))
_PIECE_ATOMS = st.one_of(
    st.just(Atom("omega", None)), st.builds(Atom, st.sampled_from(["theta", "psi"]), _PIECE_ORDS)
)
_CONSTRUCTOR_ARGS = st.one_of(
    st.tuples(st.just(Atom), st.sampled_from(["theta", "psi"]), _PIECE_ORDS),
    st.tuples(
        st.just(CntTerm),
        st.lists(st.tuples(_PIECE_ATOMS, st.integers(-1, 3)), max_size=4).map(tuple),
        st.integers(-2, 4),
    ),
    st.tuples(
        st.just(OrdTerm),
        st.lists(st.tuples(_PIECE_ORDS, _PIECE_CNTS), max_size=3).map(tuple),
        _PIECE_CNTS,
    ),
)
_ORACLE_BODIES = {Atom: oracle_atom, CntTerm: oracle_cnt, OrdTerm: oracle_ord}


def _built(cls, *args):
    """(size, depth, hash) of what cls.__init__ makes of args, on an object no table holds."""
    term = object.__new__(cls)
    cls.__init__(term, *args)
    return term.size, term.depth, hash(term)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OrdinalError, BudgetExceededError) as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(_CONSTRUCTOR_ARGS, st.integers(-2, 2), st.integers(-2, 2))
def test_constructors_match_their_multi_pass_bodies(args, nodes_off, depth_off):
    cls, *pieces = args
    oracle = _ORACLE_BODIES[cls]
    reference = _outcome(oracle, *pieces)
    assert _outcome(_built, cls, *pieces) == reference
    if type(reference[0]) is int:
        # budgets just under, at and just over the term's size and depth
        size, depth, _ = reference
        with term_budgets(size + nodes_off, depth + depth_off):
            assert _outcome(_built, cls, *pieces) == _outcome(oracle, *pieces)
        _restore_tables()
