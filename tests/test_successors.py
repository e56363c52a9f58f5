"""Plus-construction stages and the dynamical base hierarchies built on them."""

from bisect import bisect_right
from itertools import count, product
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from fractal_goodstein import hierarchy
from fractal_goodstein.hierarchy import FiniteHierarchy, HorizonError, LazyHierarchy
from fractal_goodstein.numerals import (
    DEFAULT_BUDGET,
    BitBudget,
    BudgetExceededError,
    _bracket,
    _change_width,
    _phi_value,
    _width,
    base_change,
)
from fractal_goodstein.runner import run, verify_trace
from fractal_goodstein.successors import (
    PlusHierarchy,
    d_sequence,
    dynamical,
    hierarchy_from_spec,
    ouroboros_stage,
)
from fractal_goodstein.upgrade import UpgradeContext
from oracles import EveryIteratePlusHierarchy


def test_plus_zero_stage_of_2_6():
    ph = PlusHierarchy([2, 6], 0)
    assert ph.stage_at(6).known_elements() == (3, 30)


def test_plus_one_stage_of_2():
    ph = PlusHierarchy([2], 1)
    assert ph.stage_at(4).known_elements() == (3, 27)
    assert ph.d_sequence(6) == (27, 27**27 + 27)
    assert ph.stage_at(6).known_elements() == (3, 27, 27**27 + 27)


def test_plus_one_stage_of_2_dies_at_event_8():
    ph = PlusHierarchy([2], 1)
    with pytest.raises(BudgetExceededError):
        ph.stage_at(8)


def test_plus_two_stage_of_2():
    ph = PlusHierarchy([2], 2)
    assert ph.stage_at(4).known_elements() == (3, 27, 27**27)


def test_plus_one_stage_of_3():
    ph = PlusHierarchy([3], 1)
    assert ph.stage_at(12).known_elements() == (4, 8, 64, 4160)


def test_d_sequence_requires_critical_point():
    ph = PlusHierarchy([2], 1)
    with pytest.raises(ValueError):
        ph.d_sequence(5)  # 5 is not critical over {2}
    assert d_sequence([2], 1, 6) == (27, 27**27 + 27)


@pytest.mark.parametrize("base, index", [([3], 2), ([2, 6], 1)])
def test_d_sequence_is_the_iterated_deep_change(base, index):
    # d_sequence reads the bases the event at n appended; materializing past
    # n first must not change it, and each entry must be the deep change of
    # n into the one before
    ph = PlusHierarchy(base, index)
    oracle = UpgradeContext(base, ph.stage_at(24), fast_paths=False)
    for n in range(2, 25):
        if not ph.base.is_critical(n):
            continue
        ds = ph.d_sequence(n)
        assert len(ds) == index + 1
        assert ds == PlusHierarchy(base, index).d_sequence(n)
        b = ph.base.upper_base(n)
        for d, nd in zip(ds, ds[1:]):
            assert nd == oracle.deep_base_change(b, d, n), (n, d)


def test_plus_restriction():
    ph = PlusHierarchy([2], 1)
    assert ph.stage_at(6).restrict(27).known_elements() == (3, 27)


def test_upgrade_value_agrees_with_candidate_search():
    # the stage fast path must match the from-scratch search on the same pair
    ph = PlusHierarchy([3], 1)
    stage = ph.stage_at(12)
    oracle = UpgradeContext([3], stage, fast_paths=False)
    for n in range(13):
        assert ph.upgrade_value(n) == oracle.upgrade(n), n


def test_chosen_base_tracks_the_upgrade():
    ph = PlusHierarchy([2], 1)
    assert ph.chosen_base(4) == 27
    assert ph.chosen_base(2) == 3
    assert ph.chosen_base(1) is None


def test_classic_hierarchy():
    d = dynamical("classic")
    assert d.spec_string() == "classic"
    assert d.stage(0).known_elements() == (2,)
    assert d.stage(3).known_elements() == (5,)
    assert d.plus_object(7).index == 0
    assert d.step_bound(0) is None
    for n in (0, 1, 5, 100):
        assert d.upgrade_step(0, n) == base_change(n, 2, 3)
        assert d.upgrade_step(3, n) == base_change(n, 5, 6)


def test_plus_chain_from_2_matches_classic():
    pc = dynamical("plus-chain", start=[2])
    cl = dynamical("classic")
    for i in range(3):
        assert pc.stage(i).known_elements() == cl.stage(i).known_elements()
        for n in range(41):
            assert pc.upgrade_step(i, n) == cl.upgrade_step(i, n)


def test_plus_chain_spec_string():
    pc = dynamical("plus-chain", start=[2, 6])
    assert pc.spec_string() == "plus-chain: 2,6"
    assert pc.stage(0).known_elements() == (2, 6)


def test_plus_chain_starts_from_every_base_of_a_start_that_is_not_finite():
    # not only the bases the start has materialized so far
    lazy = dynamical("plus-chain", start=LazyHierarchy(iter([2, 6])))
    assert lazy.spec_string() == "plus-chain: 2,6"
    plus = dynamical("plus-chain", start=PlusHierarchy([2, 6], 0))
    assert plus.spec_string() == "plus-chain: 3,30"
    with pytest.raises(HorizonError):
        dynamical("plus-chain", start=LazyHierarchy((2**k for k in count(1)), horizon=8))


@pytest.mark.parametrize("horizon", [0, -1, 2.5, True])
def test_every_constructor_checks_its_horizon_alike(horizon):
    builds = [
        lambda: PlusHierarchy([2], 1, horizon=horizon),
        lambda: LazyHierarchy(iter([2, 6]), horizon=horizon),
        lambda: dynamical("ouroboros", horizon=horizon),
        lambda: run("ouroboros", 3, horizon=horizon),
    ]
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == f"the horizon must be a positive integer, got {horizon!r}"


def test_a_horizon_death_is_a_budget_death():
    # seed 2 reaches step 3, whose stage needs a seventh base
    with pytest.raises(BudgetExceededError) as exc:
        dynamical("diagonal", horizon=6).stage(3)
    assert type(exc.value) is HorizonError
    result = run("diagonal", 2, horizon=6, certify="none")
    assert len(result.records) == 3
    assert result.outcome == "budget_exceeded"
    assert result.detail == str(exc.value)
    assert result.detail.endswith("needs more than 6 materialized bases")


def test_ouroboros_stages():
    oo = dynamical("ouroboros")
    assert oo.spec_string() == "ouroboros"
    assert oo.stage(0).known_elements() == (2,)
    assert oo.stage(1).known_elements() == (3,)
    assert oo.plus_object(2).index == 2
    assert oo.upgrade_step(0, 4) == 27
    assert ouroboros_stage(1).known_elements() == (3,)


def test_ouroboros_second_stage_prefix():
    # stage 2 is ({3}) plus-one: lazily materialized as needed
    ph = PlusHierarchy([3], 1)
    assert ph.stage_at(12).known_elements() == (4, 8, 64, 4160)
    oo = dynamical("ouroboros")
    assert oo.upgrade_step(1, 26) == PlusHierarchy([3], 1).upgrade_value(26)


def test_finite_for_bounds_and_run():
    ff = dynamical("finite-for", m=3)
    assert [ff.step_bound(i) for i in range(5)] == [3, 4, 5, 6, 7]
    n, vals = 3, [3]
    for i in range(8):
        if n == 0:
            break
        n = ff.upgrade_step(i, n) - 1
        vals.append(n)
    assert vals == [3, 3, 3, 2, 1, 0]


def test_finite_for_identity_below_min_stage():
    ff = dynamical("finite-for", m=3)
    assert ff.upgrade_step(0, 2) == 3
    assert ff.upgrade_step(5, 1) == 1
    assert ff.upgrade_step(5, 0) == 0


def test_finite_for_rejects_values_over_the_bound():
    ff = dynamical("finite-for", m=3)
    with pytest.raises(ValueError) as exc:
        ff.upgrade_step(0, 4)
    assert "bound" in str(exc.value)


def test_finite_for_4_dies_freezing_stage_2():
    ff = dynamical("finite-for", m=4)
    assert ff.step_bound(1) == 27
    with pytest.raises(BudgetExceededError):
        ff.upgrade_step(1, 26)


def test_ouroboros_survives_where_finite_for_dies():
    oo = dynamical("ouroboros")
    assert oo.upgrade_step(1, 26) > 26


def test_ouroboros_agrees_with_finite_for_while_alive():
    for m in (2, 3):
        ff = dynamical("finite-for", m=m)
        oo = dynamical("ouroboros")
        n = m
        for i in range(8):
            if n == 0:
                break
            a = ff.upgrade_step(i, n)
            b = oo.upgrade_step(i, n)
            assert a == b, (m, i, n)
            n = a - 1


def test_diagonal_bounds_and_run():
    dg = dynamical("diagonal")
    assert dg.spec_string() == "diagonal"
    assert [dg.step_bound(i) for i in range(3)] == [2, 3, 256]
    n, vals = 2, [2]
    for i in range(8):
        if n == 0:
            break
        n = dg.upgrade_step(i, n) - 1
        vals.append(n)
    assert vals == [2, 2, 1, 0]


def test_diagonal_rejects_seed_3():
    dg = dynamical("diagonal")
    with pytest.raises(ValueError) as exc:
        dg.upgrade_step(0, 3)
    assert "exceeds the stage-0 bound 2" in str(exc.value)


def test_diagonal_stage_3_exhausts_budget():
    dg = dynamical("diagonal")
    with pytest.raises(BudgetExceededError):
        dg.step_bound(3)


def test_dynamical_factory_rejects_unknown_kind():
    with pytest.raises(ValueError):
        dynamical("spiral")
    with pytest.raises(ValueError):
        dynamical("finite-for")  # needs m
    with pytest.raises(ValueError):
        dynamical("plus-chain")  # needs start


def test_plus_budget_is_respected():
    # the stage at 4 only needs small elements, the upgrade value does not
    ph = PlusHierarchy([2], 1, budget=BitBudget(16))
    assert ph.stage_at(4).known_elements() == (3, 27)
    with pytest.raises(BudgetExceededError):
        ph.upgrade_value(4)


# --- bases built as multiples, and successors built once ---------------------

# the inputs of the lazy-deaths benchmark workload: every self-feeding kind,
# and the terminated, budget-death and psi-stop outcomes
LAZY_INPUTS = (
    [("diagonal", 2)]
    + [("ouroboros", s) for s in range(6)]
    + [(f"finite-for: {m}", s) for m in (3, 4, 5) for s in range(m + 1)]
)

DIAGONAL_DEATH = "<982484-bit integer>**2 exceeds budget of 1048576 bits"


@pytest.fixture
def appends(monkeypatch):
    """Every PlusHierarchy._append call, as (successor, base) pairs."""
    calls = []
    real = PlusHierarchy._append

    def counted(self, x, pos):
        calls.append((self, x))
        return real(self, x, pos)

    monkeypatch.setattr(PlusHierarchy, "_append", counted)
    return calls


def test_built_bases_revalidate_as_hierarchies(appends):
    for spec, seed in LAZY_INPUTS:
        run(spec, seed, certify="both")
    run("plus-chain: 2,6", 5, max_steps=200, certify="none")
    assert len(appends) > 100
    # FiniteHierarchy runs the full _check_pair, modulus included
    for p in {id(p): p for p, _ in appends}.values():
        FiniteHierarchy(p.known_elements())


@pytest.mark.parametrize(
    "spec", ["plus-chain: 2,6", "plus-chain: 3,12", "finite-for: 3", "finite-for: 4", "finite-for: 5", "diagonal"]
)
def test_every_stage_a_sweep_builds_revalidates(spec):
    # a materialized successor and a frozen stage wrap the bases _append
    # checked as they are; the full check, modulus included, accepts each
    stages = 0
    for seed, bits, horizon in product(range(9), (8, 64, 512, 4096, 1 << 16), (2, 4, 16, 512)):
        h = hierarchy_from_spec(spec, BitBudget(bits), horizon)
        try:
            run(h, seed, max_steps=40, certify="both")
        except ValueError:  # a seed above the first stage's bound
            continue
        for stage in h._stages:
            assert isinstance(stage, FiniteHierarchy)
            assert FiniteHierarchy(list(stage)) == stage
        stages += len(h._stages)
    assert stages > 100


def test_stages_and_materializations_check_no_pair_again(monkeypatch):
    # the bases were checked once, by _append, as they were built
    pairs = []
    real = hierarchy._check_pair

    def counted(prev, cur):
        pairs.append((prev, cur))
        real(prev, cur)

    monkeypatch.setattr(hierarchy, "_check_pair", counted)
    chain, plus, p = dynamical("plus-chain", start=[2, 6]), PlusHierarchy([2, 6, 12], 0), PlusHierarchy([4], 2)
    pairs.clear()  # the given starts are checked as they come in
    top = chain.stage(60)
    assert len(top) == 2 and top.max_base.bit_length() > 300
    finite = plus.materialize()
    stages = [p.stage_at(n) for n in (40, 20, 40, 40)]
    assert stages[0] == stages[2] == stages[3] and len(stages[0]) > len(stages[1])
    assert p.stage_at(40).restrict(p.stage_at(20).max_base) == stages[1]
    assert pairs == []
    # the public constructor still checks every pair of what it is given
    for stage in (top, finite, stages[0]):
        assert FiniteHierarchy(list(stage)) == stage
    assert len(pairs) == len(top) + len(finite) + len(stages[0]) - 3


def test_the_dying_diagonal_successor_revalidates():
    p = PlusHierarchy(dynamical("diagonal").stage(2), 2)
    with pytest.raises(BudgetExceededError) as exc:
        while p._extend_one():
            pass
    assert str(exc.value) == DIAGONAL_DEATH
    bases = p.known_elements()
    assert len(bases) == 21
    assert max(b.bit_length() for b in bases) == 491242
    FiniteHierarchy(bases)


def test_a_dying_critical_event_applies_whole_or_not_at_all():
    # the event at 48 appends two iterated deep changes; the second dies, and
    # the first goes with it, so a retry starts the event again from d_0
    p = PlusHierarchy(dynamical("diagonal").stage(2), 2)
    with pytest.raises(BudgetExceededError) as first:
        while p._extend_one():
            pass
    bases = p.known_elements()
    assert all(pos <= p._frontier for pos in p._added_at)
    with pytest.raises(BudgetExceededError) as again:
        p._extend_one()
    assert again.value.args == first.value.args
    assert p.known_elements() == bases
    assert len(bases) == 21


@given(st.integers(min_value=0, max_value=6**4 - 1), st.integers(min_value=2, max_value=64))
def test_a_deep_change_keeps_multiples_of_the_base(n, c):
    # every monomial of a multiple of b has an exponent >= 1 and there is no
    # tail, so the change into c is a multiple of c: with up() as the digit
    # upgrade of a real successor (digits 2..5 of base 6 are upgraded, and
    # exponents stay at most 3 here), and as a plain base change
    ph = PlusHierarchy([2, 6], 1)
    for b, m in ((6, n - n % 6), (2, n % 16 - n % 2)):
        v = _phi_value(ph.upgrade_value, b, c, m, DEFAULT_BUDGET, ph.base.min_base)
        assert v % c == 0, (b, c, m)
        if c >= b:
            assert _phi_value(None, b, c, m, DEFAULT_BUDGET, b) % c == 0, (b, c, m)


def test_a_dying_successor_is_built_once(appends, monkeypatch):
    proved = []
    real = PlusHierarchy._proved_death

    def counted(self, pos, until):
        if death := real(self, pos, until):
            proved.append((self.index, self.base.known_elements(), pos))
        return death

    monkeypatch.setattr(PlusHierarchy, "_proved_death", counted)
    result = run("diagonal", 2, certify="both")
    # psi evidence meets the death first; the upgrade that follows meets the
    # remembered one instead of building the index-2 successor of {4} again.
    # No base is appended: the width pass that starts at the first critical
    # event, 8, carries every iterate up to the death at 48 as a width, so
    # the build proves its death once and takes none of them (this counts
    # internal calls, not outputs)
    assert appends == []
    assert proved == [(2, (4,), 8)]
    assert result.outcome == "budget_exceeded"
    assert result.detail == DIAGONAL_DEATH
    assert result.psi_stop == {"step": 2, "reason": DIAGONAL_DEATH}


@pytest.mark.parametrize(
    "kind, params, i, v",
    [("diagonal", {}, 2, 4), ("finite-for", {"m": 4}, 1, 26), ("diagonal", {"horizon": 6}, 2, 4)],
)
def test_a_remembered_death_raises_the_same_error(appends, kind, params, i, v):
    h = dynamical(kind, **params)
    with pytest.raises(BudgetExceededError) as first:
        h.plus_object(i)
    built = len(appends)
    retries = [lambda: h.plus_object(i), lambda: h.upgrade_step(i, v), lambda: h.stage(i + 1)]
    for retry in retries * 2:
        with pytest.raises(type(first.value)) as again:
            retry()
        assert type(again.value) is type(first.value)
        assert again.value.args == first.value.args
    assert len(appends) == built


# --- a build whose death its widths prove takes no base ---------------------------


BASES = [[2], [3], [4], [2, 4], [2, 6], [3, 9], [3, 12], [4, 8]]


def _exact(d):
    return _bracket(0, d, d + 1)


def _drive(p, events=60):
    """Apply up to ``events`` events; the error that ends them as (type, args), or None."""
    try:
        for _ in range(events):
            if not p._extend_one():
                break
    except BudgetExceededError as e:
        return type(e), e.args
    return None


def _iterates_taken(monkeypatch):
    """Count PlusHierarchy._phi calls per successor object."""
    calls = {}
    real = PlusHierarchy._phi

    def counted(self, b, c, m):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return real(self, b, c, m)

    monkeypatch.setattr(PlusHierarchy, "_phi", counted)
    return calls


def test_a_dying_event_ends_as_when_every_iterate_is_taken(monkeypatch):
    calls = _iterates_taken(monkeypatch)
    skipped = []

    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from(BASES),
        st.integers(2, 3),
        st.one_of(st.integers(256, 1024), st.integers(1025, 1 << 16)),
        st.one_of(st.integers(3, 20), st.just(512)),
    )
    def same_events(base, index, bits, horizon):
        fast = PlusHierarchy(base, index, BitBudget(bits), horizon)
        slow = EveryIteratePlusHierarchy(base, index, BitBudget(bits), horizon)
        assert _drive(fast) == _drive(slow)
        assert fast.known_elements() == slow.known_elements()
        assert fast._added_at == slow._added_at
        skipped.append(calls.pop(id(slow), 0) - calls.pop(id(fast), 0))

    same_events()
    # one event at a time, a proved death skips every iterate of the dying
    # event: those that only named the death and the deep change that died on
    # its width, 1 to index of them; it proved one on 104 to 146 of 500
    # examples over eight runs (46 to 68 when only the last iterate was read)
    assert set(skipped) <= {0, 1, 2, 3} and len(skipped) - skipped.count(0) > 50


def _stage(p, n):
    """p.stage_at(n)'s bases, or the error that ends it as (type, args)."""
    try:
        return p.stage_at(n).known_elements()
    except BudgetExceededError as e:
        return type(e), e.args


def test_a_build_whose_death_widths_prove_takes_no_base(monkeypatch):
    proved = []
    real = PlusHierarchy._proved_death

    def counted(self, pos, until):
        if death := real(self, pos, until):
            proved.append((len(self._elems), pos, until))
        return death

    monkeypatch.setattr(PlusHierarchy, "_proved_death", counted)
    examples = []

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(BASES),
        st.integers(2, 3),
        st.one_of(st.integers(256, 1 << 16), st.just(1 << 20)),
        st.one_of(st.integers(3, 20), st.just(512)),
        st.integers(0, 200),
    )
    def same_stages(base, index, bits, horizon, n):
        fast = PlusHierarchy(base, index, BitBudget(bits), horizon)
        slow = EveryIteratePlusHierarchy(base, index, BitBudget(bits), horizon)
        before = len(proved)
        ending = _stage(fast, n)
        assert ending == _stage(slow, n)
        if len(proved) > before:
            examples.append((base, index, bits, horizon, n))
            # a proved death leaves the frontier where it was, never past the
            # oracle's, and the bases it skipped are taken when a stage below
            # the dying event asks
            assert fast._frontier <= slow._frontier
            assert fast.known_elements() == slow.known_elements()[: len(fast._elems)]
            dying = slow._next_event(slow._frontier)[0]
            for m in range(dying):
                assert _stage(fast, m) == slow.known_elements()[: bisect_right(slow._added_at, m)]
            assert _stage(fast, n) == ending
            assert fast.known_elements() == slow.known_elements()

    same_stages()
    # the pass proved deaths in some examples (8 to 28 of 300 over 25
    # runs), some of them from an event before the dying one's
    assert len(examples) >= 4
    assert any(pos < until for _, pos, until in proved)


@pytest.mark.parametrize("half", [200, 1000, 20000])
def test_a_width_the_bracket_straddles_takes_the_iterate(monkeypatch, half):
    # 3 * d**2 crosses 2**(2 * half) between these d, far closer than the top
    # 128 bits of a wide d can tell: the bracket is unsettled, the iterate is
    # taken in full, and it dies, at either width, on the pre-guard of the next
    # one.  A d of at most 256 bits is exact, so its change settles and no
    # iterate is taken
    calls = _iterates_taken(monkeypatch)
    root = isqrt((1 << 2 * half) // 3)
    narrow = root.bit_length() <= 256
    for d in range(root - 1, root + 3):
        width = (3 * d * d).bit_length()
        assert width in (2 * half, 2 * half + 1)
        change, e1 = _change_width(48, 4, 4, _exact(d))
        assert (_width(change), e1) == (width if narrow else None, 2)
        deaths = []
        for cls in (PlusHierarchy, EveryIteratePlusHierarchy):
            p = cls([4], 2, BitBudget(2 * half + 1))
            p._elems[-1] = d
            with pytest.raises(BudgetExceededError) as death:
                p._apply_event(48, False, 48)  # 48 = 3 * 4**2: the iterate is 3 * d**2
            deaths.append((death.value.args, p.known_elements(), calls.pop(id(p), 0)))
        text = (f"<{width}-bit integer>**2 exceeds budget of {2 * half + 1} bits",)
        assert deaths[1] == (text, (d,), 2)
        assert deaths[0] == (text, (d,), 0 if narrow else 2)


def _holds(bracket, x):
    s, lo, hi = bracket
    return lo << s <= x < hi << s


@given(
    st.integers(11, 1 << 3000),
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.integers(0, 9),
    st.integers(1, 4),
)
def test_a_settled_width_is_exact(d, coeffs, tail, top):
    # m's digits, exponents and tail are all below 10, so its deep change
    # into d is the polynomial that its decimal digits spell
    e1 = top + len(coeffs) - 1
    m = sum(10 ** (e1 - i) * a for i, a in enumerate(coeffs)) + tail
    exact = sum(d ** (e1 - i) * a for i, a in enumerate(coeffs)) + tail
    change, lead = _change_width(m, 10, 10, _exact(d))
    assert lead == e1 and _holds(change, exact)
    assert _width(change) in (None, exact.bit_length())
    if d.bit_length() <= 256:
        assert _width(change) == exact.bit_length()
    if exact.bit_length() <= 256:
        assert change == _exact(exact)


@given(
    st.integers(11, 1 << 600),
    st.lists(st.integers(1, 9), min_size=1, max_size=3),
    st.integers(0, 9),
    st.integers(1, 3),
)
def test_a_bracket_holds_every_iterate(d, coeffs, tail, top):
    # fed its own result, the bracket holds each iterate of the polynomial,
    # and each width it settles is the iterate's own
    e1 = top + len(coeffs) - 1
    m = sum(10 ** (e1 - i) * a for i, a in enumerate(coeffs)) + tail
    bracket = _exact(d)
    for _ in range(3):
        d = sum(d ** (e1 - i) * a for i, a in enumerate(coeffs)) + tail
        bracket = _change_width(m, 10, 10, bracket)[0]
        assert _holds(bracket, d)
        assert _width(bracket) in (None, d.bit_length())
        assert bracket[1].bit_length() <= 256


def test_a_change_with_an_upgraded_digit_has_no_width():
    d = 2**300 + 5
    change, e1 = _change_width(3 * 4**2 + 2 * 4 + 1, 4, 4, _exact(d))
    assert (_width(change), e1) == ((3 * d * d).bit_length(), 2)
    # an exponent, a coefficient or a tail at or above low is upgraded
    for m in (4**4, 4**2 * 3, 2 * 4**2 + 3):
        assert _change_width(m, 4, 3, _exact(d)) is None


def test_lower_monomials_that_carry_the_width_leave_it_unsettled():
    # 199 spells d**2 + 9 * d + 9, which passes 2**(2k) where d**2 does not:
    # an exact d carries it; a bracket cut by fewer bits than the lower
    # coefficients need has no width, and at 2**300 - 1 the carry from T + 1
    # is what the bracket's top must allow for
    for d in (2**40 - 2, 2**300 - 1):
        exact = (d * d + 9 * d + 9).bit_length()
        assert exact == (d * d).bit_length() + 1
    d = 2**40 - 2
    assert _width(_change_width(199, 10, 10, _exact(d))[0]) == (d * d).bit_length() + 1
    assert _change_width(199, 10, 10, (4, d >> 4, (d >> 4) + 1)) is None
    assert _width(_change_width(199, 10, 10, _exact(2**300 - 1))[0]) is None


def test_a_width_far_from_a_power_of_two_is_settled():
    for d in (3**500, 5**1000 + 7, 7**9000):
        for m, e1 in ((300, 2), (2012, 3), (130, 2)):
            exact = sum(d**e * int(a) for e, a in enumerate(reversed(str(m))))
            change, lead = _change_width(m, 10, 10, _exact(d))
            assert (_width(change), lead) == (exact.bit_length(), e1)


def test_run_and_verify_of_diagonal_seed_2_take_no_wide_square(monkeypatch):
    # the index-2 successor of {4} dies at 48, and the width pass proves it
    # from its first critical event at 8, so none of the squares that double
    # its bases from 15 to 491,242 bits is taken: the widest power that run
    # and verify take is 9 bits (491,241 when the pass read only the dying
    # event, and 982,483 when that event took every iterate)
    widths = []
    real = BitBudget.pow

    def measured(self, base, exp):
        power = real(self, base, exp)
        widths.append(power.bit_length())
        return power

    monkeypatch.setattr(BitBudget, "pow", measured)
    result = run("diagonal", 2, certify="both")
    assert verify_trace(result.trace_lines()).ok
    assert result.detail == DIAGONAL_DEATH
    assert max(widths) <= 9
