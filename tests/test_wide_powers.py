"""Deep base changes against the textbook change, and the wide powers they take.

A walk derives each power from the one above it when the divisor is narrow,
reads its first from its run's table, and, over a value of at least
_WIDE_BITS bits, hands its first power on there.  Every change here is checked against
tests/oracles.textbook_deep_change, which takes a fresh power for every
monomial, with equal values or equal budget error texts.
"""

import builtins
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fractal_goodstein import numerals
from fractal_goodstein.numerals import (
    _LADDER_BITS,
    _POWERS_CAP,
    _WIDE_BITS,
    DEFAULT_BUDGET,
    BitBudget,
    _floor_log,
    base_change,
)
from fractal_goodstein.runner import run, verify_trace
from fractal_goodstein.successors import PlusHierarchy, dynamical
from fractal_goodstein.upgrade import UpgradeContext

from oracles import outcome, textbook_deep_change

# (b, c) pairs for the plain base change: narrow and wide bases, the
# identity, targets far enough above b that some changes die on the default
# budget, and even targets, whose powers are taken as their odd part's, shifted
CHANGE_PAIRS = [
    (2, 2), (3, 3), (3, 4), (10, 11), (10, 12), (255, 256), (256, 257),
    (1000, 1001), (1000, 1500), (2**20 + 7, 2**20 + 8), (2**40 + 1, 2**41),
    (5, 6), (11, 12), (1000, 1024),
]
SOURCE, TARGET = [2, 6], [3, 30, 180]
UPGRADE_PAIRS = [(2, 2), (2, 3), (6, 6), (6, 7), (6, 30)]


def _ladder_gaps(*bases):
    """Exponent gaps just inside and just past the ladder limit of each base."""
    limits = [_LADDER_BITS // x.bit_length() for x in bases]
    return sorted({1, 2, *limits, *(g + 1 for g in limits)})


@st.composite
def walks(draw, pairs):
    """(b, c, m, budget): m mostly of _WIDE_BITS or more, in runs and gaps of exponents."""
    b, c = draw(st.sampled_from(pairs))
    bits = draw(st.integers(_WIDE_BITS, 4 * _WIDE_BITS) | st.integers(8, _WIDE_BITS))
    top = -(-bits // (b.bit_length() - 1 or 1))
    if b * b.bit_length() <= 12_000 and draw(st.booleans()):
        top = max(top, b + draw(st.integers(0, 20)))  # exponents >= b recurse
    gaps = _ladder_gaps(b, c)
    gap = st.sampled_from([1, 1, 1, *gaps]) | st.integers(1, 3 * gaps[-1])
    exps = [top]
    for _ in range(draw(st.integers(0, 12))):
        if exps[-1] - 1 < 1:
            break
        exps.append(max(1, exps[-1] - draw(gap)))
        if exps[-1] == exps[-2]:
            exps.pop()
    digit = st.integers(1, b - 1)
    m = sum(draw(digit) * b**e for e in exps) + draw(st.integers(0, b - 1))
    # budgets below m, and up to the width of powers far above it
    width = m.bit_length()
    budget = draw(st.none() | st.integers(min(64, width), 3 * width) | st.integers(3 * width, 40 * width))
    return b, c, m, DEFAULT_BUDGET if budget is None else BitBudget(budget)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 10, 1000, 2**20 + 7]),
    st.integers(_WIDE_BITS, 4 * _WIDE_BITS),
    st.data(),
)
def test_floor_log_from_the_table_and_the_power_above(b, bits, data):
    n = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    e = 0
    while b ** (e + 1) <= n:
        e += 1
    # an exact power of b around the answer, above it too, and powers of other bases
    k = data.draw(st.integers(max(0, e - 3), e + 3))
    others = {x: (j, x**j) for x, j in ((b + 1, e), (2 * b, e - 1))}
    table = {b: (k, b**k), **others}
    gap = data.draw(st.sampled_from(_ladder_gaps(b)) | st.integers(1, 4 * _LADDER_BITS))
    above = data.draw(st.sampled_from([None, (e + gap, b ** (e + gap))]))
    with mock.patch.object(numerals, "_log2_ceil", wraps=numerals._log2_ceil) as log:
        assert _floor_log(n, b, above, table) == (e, b**e)
    # the entry of b is taken out whether it starts or not; the others stay
    assert table == others
    if k == e:
        assert not log.called, "the answer's own power starts with no logarithm"
    if k > e:
        assert log.called, "a power above n cannot start"


@settings(max_examples=150, deadline=None)
@given(walks(CHANGE_PAIRS))
def test_base_change_matches_the_textbook_change(walk):
    b, c, m, budget = walk
    want = outcome(lambda: textbook_deep_change(None, b, c, budget.check(m), budget, b))
    assert outcome(base_change, m, b, c, budget) == want


@settings(max_examples=60, deadline=None)
@given(walks(UPGRADE_PAIRS))
def test_upgrade_context_deep_changes_match_the_textbook_change(walk):
    b, c, m, budget = walk
    oracle = UpgradeContext(SOURCE, TARGET, budget, fast_paths=False)
    want = outcome(textbook_deep_change, oracle.upgrade, b, c, m, budget, oracle.source.min_base)
    for fast in (True, False):
        ctx = UpgradeContext(SOURCE, TARGET, budget, fast_paths=fast)
        assert outcome(ctx.deep_base_change, b, c, m) == want, fast


@pytest.mark.parametrize(
    "b, c, m",
    [
        (10, 12, sum(d * 10**e for d, e in ((7, 400), (3, 399), (9, 398), (1, 300), (4, 299), (2, 7)))),
        (6, 7, 6**400 + 5 * 6**399 + 4 * 6**360 + 3),
        (1000, 1001, 999 * 1000**1010 + 1000**1009 + 5 * 1000**900 + 1000**40),
        (1000, 1024, 999 * 1000**1010 + 1000**1009 + 5 * 1000**900 + 1000**40),
        # narrow walks, whose powers are taken directly when their width
        # bound pe * (bit length of c) is at most the budget and 256 bits:
        # classic steps (11**4 at a bound of 16 bits, whose sum dies at a
        # budget of 16), every base-3 digit 2 into 4 (bounds up to 126
        # bits), and 255**32, of 256 bits at a bound of 256, whose sum dies
        # at 256
        (1000, 1001, 7056196392490392190065),
        (10, 11, 50089),
        (3, 4, 3**27 - 1),
        (200, 255, 199 * 200**32 + 7 * 200**31 + 5),
    ],
)
def test_every_budget_dies_with_the_textbook_text(b, c, m):
    # budgets from below m to past the change, on a grid or, for a narrow
    # change, every one: each death, on the pre-guard or the check of the
    # first power, a derived or a direct one, or the sum, raises what the
    # textbook change raises
    up = UpgradeContext(SOURCE, TARGET).upgrade if b == 6 else None
    low = 2 if b == 6 else b
    full = textbook_deep_change(up, b, c, m, DEFAULT_BUDGET, low).bit_length()
    grid = {int(64 * (full / 32) ** (k / 40)) for k in range(41)} | {full - 1, full}
    for bits in range(1, full + 2) if full <= 2 * _LADDER_BITS else sorted(grid):
        budget = BitBudget(bits)
        want = outcome(textbook_deep_change, up, b, c, m, budget, low)
        if b == 6:
            got = outcome(UpgradeContext(SOURCE, TARGET, budget).deep_base_change, b, c, m)
        else:
            got = outcome(base_change, m, b, c, budget)
            want = want if bits >= m.bit_length() else outcome(budget.check, m)
        assert got == want, bits


@pytest.fixture(scope="module")
def wide_chain_stages():
    """Stages of plus-chain 2,6 (seed 5) whose wide base is 1k to 2.5k bits."""
    h = dynamical("plus-chain", start=[2, 6])
    v = 5
    for i in range(200):
        v = h.upgrade_step(i, v) - 1
    stages = [h.stage(i) for i in range(201)]
    return [s for s in stages if _WIDE_BITS <= s.max_base.bit_length() <= 2600]


def _textbook_successor(stage, budget):
    """The 0-th successor of a finite stage, its bases and upgrades by the textbook change."""
    fresh = PlusHierarchy(stage, 0, budget)

    def up(x):
        c = fresh.chosen_base(x)
        if c is None:
            return x
        return textbook_deep_change(up, stage.upper_base(x), c, x, budget, stage.min_base)

    elems = [stage.min_base + 1]
    for pos in stage.known_elements()[1:]:
        c = elems[-1]
        ph = textbook_deep_change(up, stage.lower_base(pos), c, pos - 1, budget, stage.min_base)
        elems.append(budget.check(c * (ph // c + 1)))
    return tuple(elems), up


def _stranger_powers():
    """A full table of exact powers, none of them of the stage's own bases."""
    return {b: (2 * b + 1, b ** (2 * b + 1)) for b in range(300, 300 + _POWERS_CAP)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_plus_stages_match_the_textbook_successor(wide_chain_stages, data):
    stage = data.draw(st.sampled_from(wide_chain_stages))
    bits = stage.max_base.bit_length()
    budget = data.draw(st.sampled_from([DEFAULT_BUDGET, BitBudget(bits), BitBudget(bits + 16)]))
    want = outcome(lambda: _textbook_successor(stage, budget)[0])
    table = data.draw(st.sampled_from([{}, _stranger_powers()]))
    p = PlusHierarchy(stage, 0, budget, powers=table)
    assert outcome(lambda: p.materialize().known_elements()) == want
    assert len(table) <= _POWERS_CAP
    if isinstance(want, str):
        return
    # values above the wide base have wide digits, which are upgraded too
    _, up = _textbook_successor(stage, budget)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    big = stage.max_base
    for n in (big - 1, big, big * rng.randrange(1, big) + rng.randrange(big)):
        assert outcome(p.upgrade_value, n) == outcome(up, n), n.bit_length()


def test_the_stages_of_a_wide_run_are_the_textbook_successors(wide_chain_stages):
    # these stages were built in one run, through its table of powers
    for stage, nxt in zip(wide_chain_stages, wide_chain_stages[1:]):
        assert nxt.known_elements() == _textbook_successor(stage, DEFAULT_BUDGET)[0]


def test_a_wide_classic_run_follows_the_textbook_change():
    result = run("classic", 17, max_steps=8, certify="none")
    values = [r.value for r in result.records]
    assert values[-1].bit_length() > 5 * _WIDE_BITS
    for i, (v, w) in enumerate(zip(values, values[1:])):
        assert w == textbook_deep_change(None, i + 2, i + 3, v, DEFAULT_BUDGET, i + 2) - 1, i


def test_out_of_order_steps_give_the_values_of_a_fresh_hierarchy():
    rng = random.Random(14)
    classic = dynamical("classic")
    for i in (40, 37, 45, 40, 3, 44):
        b = i + 2
        n = sum(rng.randrange(b) * b**e for e in range(700, 900, rng.choice((1, 3, 40))))
        got = classic.upgrade_step(i, n)
        assert got == dynamical("classic").upgrade_step(i, n) == base_change(n, b, b + 1), i
    chain = dynamical("plus-chain", start=[2, 6])
    v = 5
    for i in range(150):
        v = chain.upgrade_step(i, v) - 1
    # its stage bases are held by their forms and take no power; the wide
    # upgrades below put theirs in the table, and later ones may read them
    for i in (149, 146, 154, 120, 153):
        big = chain.stage(i).max_base
        n = big * rng.randrange(1, big) + rng.randrange(big)
        fresh = dynamical("plus-chain", start=[2, 6])
        assert chain.upgrade_step(i, n) == fresh.upgrade_step(i, n), i
        assert 0 < len(chain._powers) <= _POWERS_CAP, "a wide upgrade leaves powers in the table"


def test_only_the_first_power_of_a_wide_walk_is_handed_on():
    # the next step's first decomposition reads only the top power, and a
    # narrow value lifted into a wide base, as diagonal successors do, is
    # not decomposed there again
    table = {}
    c = 3**700
    assert base_change(2 * 3**2 + 1, 3, c, powers=table) == 2 * c**2 + 1
    assert table == {}
    # the gap from 1000**400 to 1000**200 is past the ladder, so 1001**200
    # is taken fresh too, and it is wide
    m = 1000**400 + 1000**200 + 7
    assert base_change(m, 1000, 1001, powers=table) == 1001**400 + 1001**200 + 7
    assert table == {1001: (400, 1001**400)}
    # the next step's first decomposition starts from that entry and takes it
    # out: its one logarithm is for the power of 1001**200, past the ladder
    with mock.patch.object(numerals, "_log2_ceil", wraps=numerals._log2_ceil) as log:
        got = base_change(1001**400 + 1001**200 + 6, 1001, 1002, powers=table)
    assert got == 1002**400 + 1002**200 + 6
    assert log.call_count == 1
    assert table == {1002: (400, 1002**400)}


def test_a_wide_classic_run_takes_few_wide_powers(monkeypatch):
    # classic seed 17 climbs through values of many wide monomials; taking a
    # fresh power per monomial and per decomposition took 9,564 powers of
    # 1,024 bits or more in 25 steps
    taken = {"decompose": 0, "budget": 0}
    budget_pow = BitBudget.pow

    def counting_pow(base, exp):
        p = builtins.pow(base, exp)
        taken["decompose"] += p.bit_length() >= _WIDE_BITS
        return p

    def counting_budget_pow(self, base, exp):
        p = budget_pow(self, base, exp)
        taken["budget"] += p.bit_length() >= _WIDE_BITS
        return p

    # _floor_log takes its fresh power with the builtin pow, as this module sees it
    monkeypatch.setattr(numerals, "pow", counting_pow, raising=False)
    monkeypatch.setattr(BitBudget, "pow", counting_budget_pow)
    result = run("classic", 17, max_steps=25, certify="none")
    assert result.outcome == "step_cap"
    assert max(r.value for r in result.records).bit_length() > 100_000
    assert taken["decompose"] > 0 and taken["budget"] > 0, "both power sites are counted"
    assert sum(taken.values()) < 1_000, taken


def test_narrow_classic_runs_take_no_logarithm():
    # classic seeds 4 to 7 climb to at most 73 bits in 1,000 steps, over bases
    # below 1,003, so every decomposition counts its exponent up from 0: at
    # most 64 bits, or at most 256 with an exponent provably below 16.  The
    # fixed-point logarithm is never asked, and its cache, empty in a fresh
    # process, takes no miss (seed 7 made 501 when only values of at most 64
    # bits counted up)
    numerals._log2_frac.cache_clear()
    for seed in (4, 5, 6, 7):
        result = run("classic", seed, max_steps=1000, certify="both")
        assert verify_trace(result.trace_lines()).ok
    assert numerals._log2_frac.cache_info().misses == 0
