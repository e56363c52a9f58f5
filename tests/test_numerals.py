"""Decomposition, hereditary digits, base change, towers, and bit budgets."""

import operator
import random
import re
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from fractal_goodstein.numerals import (
    INFINITY,
    _LADDER_BITS,
    _LOG_BITS,
    BitBudget,
    BudgetExceededError,
    Decomposition,
    _floor_log,
    _log2_ceil,
    _short,
    base_change,
    decompose,
    digits,
    superexp,
)

from oracles import outcome, textbook_budget_pow


def test_decompose_fixtures():
    assert decompose(6, 2) == (2, 2, 1, 2)
    assert decompose(1, 7) == (7, 0, 1, 0)
    assert decompose(30, 3) == (3, 3, 1, 3)
    d = decompose(6, 2)
    assert d.base == 2 and d.exp == 2 and d.coeff == 1 and d.rest == 2


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose(0, 2)
    with pytest.raises(ValueError):
        decompose(6, 1)
    with pytest.raises(ValueError):
        decompose(-3, 2)


@given(st.integers(min_value=1, max_value=10**30), st.integers(min_value=2, max_value=10**6))
def test_decompose_roundtrip(n, b):
    base, e, a, r = decompose(n, b)
    assert base == b
    assert n == b**e * a + r
    # leading coefficient is a nonzero digit and the rest sits strictly below
    assert 0 < a < b
    assert 0 <= r < b**e
    # exponent is maximal
    assert b**e <= n


def naive_floor_log(n, b):
    """Multiply until the power passes n: shares nothing with the estimate."""
    e, power = 0, 1
    while power * b <= n:
        power *= b
        e += 1
    return e, power


# small, power-of-two, just off a power of two, and wider than the mantissa
ORACLE_BASES = (2, 3, 4, 5, 7, 10, 255, 256, 257, 1000, 2**64 - 1, 2**64 + 1, 3**80, 2**300 + 7)


def check_decomposition(n, b, e):
    d = decompose(n, b)
    assert d == (b, e, n // b**e, n % b**e)
    assert 0 < d.coeff < b


def test_floor_log_matches_the_naive_oracle_up_to_20k_bits():
    rng = random.Random(20250)
    for b in ORACLE_BASES:
        for bits in (1, 2, 60, 70, 300, 5000, 20000):
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            want = naive_floor_log(n, b)
            assert _floor_log(n, b) == want, (bits, b)
            if n >= b:
                check_decomposition(n, b, want[0])
    for _ in range(60):
        b = rng.randrange(2, 1 << rng.randrange(2, 80))
        n = rng.getrandbits(rng.randrange(1, 20000)) + 1
        assert _floor_log(n, b) == naive_floor_log(n, b), (n.bit_length(), b)


@st.composite
def floor_log_cases(draw):
    """(n, b): n up to 4,096 bits, at random or next to a power of b, b from 2 to 2**70."""
    b = draw(st.integers(2, 16) | st.integers(2, 2**70))
    if draw(st.booleans()):
        return draw(st.integers(1, 2**4096 - 1) | st.integers(1, 2**256)), b
    e = draw(st.integers(0, 4095 // (b.bit_length() - 1) - 1))
    return max(1, b**e + draw(st.integers(-1, 1))), b


@settings(max_examples=400, deadline=None)
@given(floor_log_cases(), st.data())
def test_floor_log_matches_the_naive_oracle_with_and_without_the_power_above(case, data):
    # the count-up region (L <= 64, or L <= 256 with a bound below 16 on the
    # answer) and past it, with no power above n, or with b's power one step
    # above the answer, or a gap just inside or just past the ladder above it
    n, b = case
    e, power = naive_floor_log(n, b)
    limit = _LADDER_BITS // b.bit_length()
    gap = data.draw(st.sampled_from([0, 1, 2, limit, limit + 1]))
    above = (e + gap, b ** (e + gap)) if gap else None
    assert _floor_log(n, b, above) == (e, power)


def test_floor_log_at_exact_powers():
    rng = random.Random(7)
    bases = ORACLE_BASES + tuple(rng.randrange(2, 1 << 70) for _ in range(20))
    for b in bases:
        top = 20000 // b.bit_length()
        for e in {1, 2, 3, top // 2, top} | {rng.randrange(1, top + 1) for _ in range(4)}:
            p = b**e
            assert _floor_log(p - 1, b) == (e - 1, p // b), (b, e)
            assert _floor_log(p, b) == (e, p), (b, e)
            assert _floor_log(p + 1, b) == (e, p), (b, e)
            check_decomposition(p, b, e)
            check_decomposition(p + 1, b, e)
            if e > 1:
                check_decomposition(p - 1, b, e - 1)


def test_floor_log_of_bases_wider_than_n():
    for n, b in ((1, 2), (1, 3), (5, 6), (2**64, 2**64 + 1), (2**5000 - 1, 2**5000), (3**900, 3**901)):
        assert _floor_log(n, b) == (0, 1)
        assert decompose(n, b) == (b, 0, n, 0)


def test_log2_ceil_brackets_the_logarithm():
    # decimal logarithms to 60 digits as the independent oracle
    scale = 1 << _LOG_BITS
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        for b in ORACLE_BASES + (6, 2**67 - 1, 2**68, 2**69 + 1, 10**40 + 3):
            exact = Decimal(b).ln() / ln2 * scale
            h = _log2_ceil(b)
            assert h - 2 <= exact < h, b


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=2, max_value=1000))
def test_digits_are_digits(n, b):
    ds = digits(n, b)
    assert isinstance(ds, frozenset)
    assert all(0 <= d < b for d in ds)
    if n < b:
        assert ds == frozenset({n})


def test_digits_fixtures():
    # hereditary writing of 6 in base 2 only ever uses digits 0 and 1
    assert digits(6, 2) == frozenset({0, 1})
    assert digits(6, 6) == frozenset({0, 1})
    assert digits(5, 6) == frozenset({5})
    assert digits(0, 2) == frozenset({0})
    assert digits(30, 3) == frozenset({0, 1})


def test_base_change_fixtures():
    assert base_change(6, 2, 3) == 30
    assert base_change(4, 2, 3) == 27
    assert base_change(2, 2, 3) == 3
    assert base_change(1, 2, 3) == 1
    assert base_change(0, 2, 3) == 0


@given(st.integers(min_value=0, max_value=5000))
def test_base_change_identity_below_base(n):
    b = n + 2
    assert base_change(n, b, b + 1) == n


@st.composite
def change_args(draw):
    # wide base spreads blow up doubly exponentially, so keep n small there
    b = draw(st.integers(min_value=2, max_value=6))
    dc = draw(st.integers(min_value=0, max_value=4))
    cap = 2000 if b > 2 or dc <= 1 else 8
    n = draw(st.integers(min_value=0, max_value=cap))
    m = draw(st.integers(min_value=0, max_value=cap))
    return n, m, b, b + dc


@given(change_args())
def test_base_change_strictly_monotone(args):
    n, m, b, c = args
    if n != m:
        lo, hi = sorted((n, m))
        assert base_change(lo, b, c) < base_change(hi, b, c)
    else:
        assert base_change(n, b, c) == base_change(m, b, c)


@given(change_args())
def test_base_change_inflates(args):
    n, _, b, c = args
    # with c >= b the rewrite never shrinks the number
    assert base_change(n, b, c) >= n


def test_superexp_tower():
    assert [superexp(2, k) for k in range(5)] == [1, 2, 4, 16, 65536]
    assert superexp(3, 2) == 27
    assert superexp(3, 3) == 3**27
    with pytest.raises(BudgetExceededError):
        superexp(2, 6, BitBudget(1 << 20))


def test_bit_budget_check():
    bb = BitBudget(64)
    assert bb.check(2**63) == 2**63
    with pytest.raises(BudgetExceededError) as exc:
        bb.check(1 << 100)
    assert "exceeds budget of 64 bits" in str(exc.value)


def test_bit_budget_pow_guards_before_computing():
    bb = BitBudget(64)
    # the guard must fire on the predicted width, not on a computed value
    with pytest.raises(BudgetExceededError) as exc:
        bb.pow(2, 10**9)
    assert "2**1000000000 exceeds budget" in str(exc.value)
    assert bb.pow(2, 10) == 1024


@st.composite
def even_and_odd_bases(draw):
    """0, 1, or an odd part of 1-99 or of 64-4,096 bits, shifted left by 0-80 bits."""
    odd = st.integers(0, 49).map(lambda j: 2 * j + 1) | st.integers(6, 12).flatmap(
        lambda k: st.integers(1 << (2**k - 1), (1 << 2**k) - 1).map(lambda o: o | 1)
    )
    return draw(st.sampled_from([0, 1]) | st.builds(int.__lshift__, odd, st.integers(0, 80)))


@given(
    even_and_odd_bases(),
    st.integers(0, 64) | st.integers(65, 20_000) | st.integers(1 << 20, 1 << 40),
    st.sampled_from([8, 64, 4096, 1 << 20]),
)
def test_bit_budget_pow_is_the_textbook_power(base, exp, bits):
    # the same value, or the same death with the same text, as base**exp
    # taken whole under the pre-guard and the check
    budget = BitBudget(bits)
    assert outcome(budget.pow, base, exp) == outcome(textbook_budget_pow, budget, base, exp)


@given(even_and_odd_bases().filter(lambda b: b >= 2), st.integers(1, 64))
def test_bit_budget_pow_dies_on_the_same_edges(base, exp):
    # a power exactly as wide as the budget passes, one bit wider dies in
    # the check, and the pre-guard fires on the predicted width as before
    width = (base**exp).bit_length()
    assert BitBudget(width).pow(base, exp) == base**exp
    post = f"^value of {width} bits exceeds budget of {width - 1} bits$"
    with pytest.raises(BudgetExceededError, match=post):
        BitBudget(width - 1).pow(base, exp)
    guard = max((base.bit_length() - 1) * exp, exp)
    for bits in (guard - 1, guard, guard + 1):
        if bits >= 1:
            budget = BitBudget(bits)
            assert outcome(budget.pow, base, exp) == outcome(textbook_budget_pow, budget, base, exp)
    if guard > 1:
        pre = f"{_short(base)}**{exp} exceeds budget of {guard - 1} bits"
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(pre)}$"):
            BitBudget(guard - 1).pow(base, exp)


def test_short_rendering():
    assert _short(12345) == "12345"
    assert _short(1 << 300) == "<301-bit integer>"


def test_infinity_ordering():
    assert repr(INFINITY) == "INFINITY"
    # every operator, in both directions, against INFINITY and finite ints
    # (a bool is an int)
    for x in (0, 5, 10**100, True):
        assert INFINITY > x and INFINITY >= x and INFINITY != x
        assert not (INFINITY < x or INFINITY <= x or INFINITY == x)
        assert x < INFINITY and x <= INFINITY and x != INFINITY
        assert not (x > INFINITY or x >= INFINITY or x == INFINITY)
    assert INFINITY == INFINITY and INFINITY <= INFINITY and INFINITY >= INFINITY
    assert not (INFINITY != INFINITY or INFINITY < INFINITY or INFINITY > INFINITY)
    # other types are unordered against it, either way round
    for x in (1.5, "a", None):
        assert INFINITY != x and not INFINITY == x
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(INFINITY, x)
            with pytest.raises(TypeError):
                op(x, INFINITY)
