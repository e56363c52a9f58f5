"""Ordinal readings of numbers: v-collapse and p-collapse sides, witnesses.

Expected terms are written in the surface grammar and compared exactly;
nothing here accepts "equivalent" shapes.
"""

import pytest

from fractal_goodstein import interpretations, ordinal_terms, runner
from fractal_goodstein.hierarchy import FiniteHierarchy
from fractal_goodstein.interpretations import (
    IotaProvenance,
    PsiInterpretation,
    ThetaInterpretation,
    fs_witness,
    majorize_witness,
)
from fractal_goodstein.numerals import BitBudget, BudgetExceededError, decompose
from fractal_goodstein.ordinal_terms import (
    BIG_OMEGA,
    CNT_ZERO,
    ZERO,
    OrdinalError,
    OrdTerm,
    as_cnt,
    check_plus_big_omega,
    compare,
    compare_cnt,
    compare_spines,
    fund_seq,
    fund_seq_cnt,
    lift,
    natural_sum,
    omega_monomial,
    omega_tower,
    parse_term,
    term_to_str,
    theta,
)
from fractal_goodstein.runner import run, verify_trace
from fractal_goodstein.successors import PlusHierarchy
from fractal_goodstein.upgrade import UpgradeContext
from oracles import cold_outcome, cold_tables, ord_add, outcome, plus_big_omega, term_budgets


def cnt(text):
    return as_cnt(parse_term(text))


def ord_(text):
    return parse_term(text)


# --- v-collapse fixtures -----------------------------------------------------


def test_theta_values_over_2_6():
    th = ThetaInterpretation([2, 6])
    expected = {
        0: "1",
        1: "w",
        2: "v(W^1*1)",
        3: "v(W^1*1+v(W^1*1)+w)",
        4: "v(W^(W^1*1)*1)",
        5: "v(W^(W^1*1)*1+w)",
        6: "v(W^(W^1*1)*1+v(W^(W^1*1)*1))",
        7: "v(W^1*1+v(W^(W^1*1)*1+v(W^(W^1*1)*1))+w)",
        8: "v(W^1*1+v(W^(W^1*1)*1+v(W^(W^1*1)*1))+v(W^1*1))",
    }
    for n, text in expected.items():
        assert th.value(n) == cnt(text), n


def test_theta_uppers_over_2_6():
    th = ThetaInterpretation([2, 6])
    assert th.upper(6) == ord_("W^(W^1*1)*1+v(W^(W^1*1)*1)")
    assert th.upper(6**6 + 6) == ord_("W^(W^1*1)*1+W^1*1")
    assert th.upper(8) == ord_("W^1*1+v(W^1*1)")


def test_theta_values_over_2_4_8():
    th = ThetaInterpretation([2, 4, 8])
    assert th.value(3) == cnt("v(W^1*1+v(W^1*1)+w)")
    assert th.value(4) == cnt("v(W^1*1+v(W^1*1)*2)")
    assert th.value(8) == cnt("v(W^1*1+v(W^1*1+v(W^1*1)*2)*2)")
    assert th.upper_base_term(2, 4) == ord_("W^(W^1*1)*1")
    assert th.upper_base_term(4, 4) == ord_("W^1*1")


def test_theta_values_over_3_12():
    th = ThetaInterpretation([3, 12])
    assert th.value(3) == cnt("v(W^1*1)")
    assert th.value(9) == cnt("v(W^2*1)")
    assert th.upper(12) == ord_("W^2*1+v(W^2*1)")
    assert th.upper_base_term(3, 12) == ord_("W^2*1+W^1*1")


def test_theta_is_strictly_monotone():
    for bases in ([2, 6], [2, 4, 8], [3, 12]):
        th = ThetaInterpretation(bases)
        prev = th.value(0)
        for n in range(1, 501):
            cur = th.value(n)
            assert compare_cnt(prev, cur) < 0, (bases, n)
            prev = cur


def test_theta_gap_above_base_elements():
    # reading a base's successor from below leaves at least an Omega gap
    for bases in ([2, 6], [2, 4, 8], [3, 12]):
        th = ThetaInterpretation(bases)
        h = FiniteHierarchy(bases)
        for b in bases[:-1]:
            s = h.s_next(b)
            assert compare(th.upper_base_term(b, s), plus_big_omega(th.upper(s))) >= 0


# --- upgrade invariance ------------------------------------------------------


def test_interpretations_survive_the_upgrade():
    up = UpgradeContext([2, 6], [3, 30])
    thB, thC = ThetaInterpretation([2, 6]), ThetaInterpretation([3, 30])
    psB, psC = PsiInterpretation([2, 6]), PsiInterpretation([3, 30])
    for n in range(61):
        v = up.upgrade(n)
        assert thC.value(v) == thB.value(n), n
        assert psC.value(v) == psB.value(n), n


def test_interpretations_survive_the_singleton_upgrade():
    up = UpgradeContext([2], [3, 27])
    thB, thC = ThetaInterpretation([2]), ThetaInterpretation([3, 27])
    psB, psC = PsiInterpretation([2]), PsiInterpretation([3, 27])
    for n in range(16):
        v = up.upgrade(n)
        assert thC.value(v) == thB.value(n), n
        assert psC.value(v) == psB.value(n), n


def test_preservation_spot_checks():
    assert ThetaInterpretation([3, 30]).value(30) == ThetaInterpretation([2, 6]).value(6)
    assert ThetaInterpretation([3, 12]).value(12**12) == cnt("v(W^(W^1*1)*1)")
    assert ThetaInterpretation([3, 27]).value(27**27) == ThetaInterpretation([2]).value(4)


# --- p-collapse fixtures -----------------------------------------------------


def test_psi_values_over_2_6():
    ps = PsiInterpretation([2, 6])
    assert ps.upper(2) == ord_("W^1*1")
    assert ps.value(2) == cnt("w")
    assert ps.upper(4) == ord_("W^(W^1*1)*1")
    assert ps.value(4) == cnt("p(W^(W^1*1)*1)")
    assert ps.upper(6) == ord_("W^1*1")
    assert ps.value(6) == cnt("w")
    assert ps.upper(8) == ord_("W^1*1+w")
    assert ps.upper(10) == ord_("W^1*1+p(W^(W^1*1)*1)")
    # the p-side reading is not monotone: 4 reads above 6
    assert compare_cnt(ps.value(4), ps.value(6)) > 0


def test_psi_reads_towers():
    ps = PsiInterpretation([2])
    n = 2
    for j in range(1, 5):
        assert ps.upper(n) == omega_tower(j), j
        n = 2**n


# --- normal forms ------------------------------------------------------------


def test_normal_form_fixtures():
    ps = PsiInterpretation([2, 6])
    assert ps.is_normal(6)
    assert ps.is_normal(4)
    assert not ps.is_normal(10)
    bad = [n for n in range(32) if not ps.is_normal(n)]
    assert bad == [10, 11, 16, 17, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31]


def test_normal_form_matches_psi_normal_form():
    ps = PsiInterpretation([2, 6])
    from fractal_goodstein.ordinal_terms import is_psi_normal_form

    for n in range(2, 201):
        assert ps.is_normal(n) == is_psi_normal_form(ps.upper(n)), n


def test_upper_base_normal_variants():
    ps = PsiInterpretation([2, 6])
    assert ps.is_upper_base_normal(2, 1)
    assert ps.is_upper_normal(6)
    assert not ps.is_normal(16)


def test_values_fail_upper_normality_through_each_layer():
    # every value below 2,000 is upper normal over [2, 6]; over [2, 6, 36],
    # 360 = 10*36 fails through its digit 10, and 1,656 = 36^2 + 360 through
    # its remainder 360
    assert all(PsiInterpretation([2, 6]).is_upper_normal(n) for n in range(2000))
    ps = PsiInterpretation([2, 6, 36])
    by_digit, by_layers = [], []
    for n in range(2000):
        if not ps.is_upper_normal(n):
            a = decompose(n, ps.base.upper_base(n))[2]
            (by_layers if ps.is_normal(a) else by_digit).append(n)
    assert (len(by_digit), len(by_layers)) == (648, 144)
    assert by_digit[0] == 360 and not ps.is_normal(10)
    assert by_layers[0] == 1656 and not ps.is_upper_normal(360)


# --- witnesses ---------------------------------------------------------------


def test_fs_witness_base_element():
    side = PsiInterpretation(FiniteHierarchy([3, 27]))
    assert fs_witness(side, 3, 27, IotaProvenance(0, 0)) == 1


def test_fs_witness_steps_a_successor_exponent():
    # s = b^e whose exponent reads as a successor: Omega^(a+1)[i] = Omega^a * i,
    # realized by b^(new exponent) * i; the provenance i must realize the
    # index, so an index at or above the minimum base raises
    successor = 0
    for bases in ([2], [3], [2, 6], [3, 12]):
        interp = PsiInterpretation(bases)
        for b in bases:
            for e in range(b, b + 6):
                s = b**e
                for i in range(4):
                    try:
                        w = fs_witness(interp, b, s, IotaProvenance(i, i))
                    except OrdinalError:
                        continue
                    entry = fund_seq(interp.upper_base_term(b, s), i)
                    assert interp.upper_base_term(b, w) == entry, (bases, b, e, i)
                    successor += interp.upper_base_term(b, e).tail.fin > 0
    assert successor == 44


def test_majorize_witness_small_values():
    assert majorize_witness([2], 0, 0, 1) == 0
    assert majorize_witness([2], 0, 1, 1) == 0  # below the minimum: n - 1
    assert majorize_witness([3], 1, 1, 2) == 0
    assert majorize_witness([3], 1, 2, 2) == 1


def test_majorize_witness_critical_descent():
    # the heart of the lower-bound chain: 4 over {2} drops to 1 at index 1
    w = majorize_witness([2], 0, 4, 1)
    assert w == 1
    ps = PsiInterpretation([2])
    # the u-linkage that makes the witness count: u(4)[1] = u(1)
    assert fund_seq_cnt(ps.value(4), 1) == cnt("1")


def test_majorize_witness_successor_path():
    assert majorize_witness([2], 0, 3, 1) == 3
    # u(3) = p(W+1) has successor cofinality, hence the short-circuit
    assert PsiInterpretation([2]).value(3) == cnt("p(W^1*1+1)")


def test_majorize_witness_base_element_returns_index():
    assert majorize_witness([2], 0, 2, 1) == 1


def test_majorize_witness_guards():
    with pytest.raises(ValueError) as exc:
        majorize_witness([2], 0, 4, 5)
    assert "out of range for this hierarchy pair" in str(exc.value)
    with pytest.raises(OrdinalError):
        majorize_witness([2, 6], 0, 10, 1)  # 10 is not in normal form


def test_majorize_witness_over_several_bases():
    # every witness found over the k-th successor reads as the entry it claims;
    # among them are the digit-witness recursion (8 over {2, 6}) and both
    # coefficient branches of _fs_witness: a limit (12 over {2, 6}) and a
    # finite one (6 over {3, 12}, index 1)
    found = set()
    for base in ([2, 6], [3, 12], [3, 6, 12]):
        side_b = PsiInterpretation(base)
        for k in (1, 2):
            plus = PlusHierarchy(base, k, budget=BitBudget(1 << 12))
            side_c = PsiInterpretation(plus)
            for n in range(100):
                for i in range(min(base[0], k + 2)):
                    try:
                        w = majorize_witness(base, k, n, i, plus=plus)
                    except (OrdinalError, BudgetExceededError):
                        continue  # n not in normal form, no digit witness, or too wide
                    assert side_c.value(w) == fund_seq_cnt(side_b.value(n), i), (base, k, n, i)
                    found.add((tuple(base), k, n, i))
    assert {((2, 6), 1, 8, 0), ((2, 6), 1, 12, 0), ((3, 12), 1, 6, 1)} <= found
    assert len(found) == 1114


# --- digit reading boundaries ------------------------------------------------


def test_theta_digit_reading_boundary():
    # digits below the minimum base stay finite; at or above it they collapse
    th312 = ThetaInterpretation([3, 12])
    assert th312.upper(24) == ord_("W^1*2")  # coefficient 2 < 3 stays literal
    assert th312.upper(14) == ord_("W^1*1+v(2)")
    th26 = ThetaInterpretation([2, 6])
    # over {2,6} the coefficient 2 is not below the minimum: it collapses
    assert th26.upper(12) == ord_("W^1*v(W^1*1)")


# --- one-pass sums and spine comparison -----------------------------------------

HIERARCHIES = ([2], [3], [2, 6], [3, 12], [2, 4, 8], [2, 6, 36])
def fold_o_from_digits(b, f, x, rest=None, seen=None):
    """The left fold acc = ord_add(acc, Omega^exp * f(a)) that ord_sum replaces.

    seen, when given, collects "pop" for a monomial whose exponent is not
    below the last one so far, and "partial" for a partial sum over budget.
    """
    if rest is None:
        rest = f
    if x < b:
        return lift(f(x))

    def add(acc, y):
        if seen is not None and y.monos and acc.monos and compare(acc.monos[-1][0], y.monos[0][0]) <= 0:
            seen.add("pop")
        try:
            return ord_add(acc, y)
        except BudgetExceededError:
            if seen is not None:
                seen.add("partial")
            raise

    acc = ZERO
    t = x
    while t >= b:
        _, e, a, r = decompose(t, b)
        exp = lift(f(e)) if e < b else fold_o_from_digits(b, f, e, rest, seen)
        acc = add(acc, omega_monomial(exp, f(a)))
        t = r
    if t:
        acc = add(acc, lift(rest(t)))
    return acc


def _adjacent_powers(b):
    """b^(e+1) + b^e: where the psi values of e and e + 1 are out of order, the
    second monomial pops or merges with the first."""
    return [b ** (e + 1) + b**e for e in range(1, b + 1)]


def _readings(interp_cls, bases, seen=None):
    """(one-pass, fold) reading pairs along every base of the hierarchy."""
    interp = interp_cls(bases)
    if interp_cls is ThetaInterpretation:
        digit, rest = interp._digit, interp.value
    else:
        digit, rest = interp.value, interp.value
    for b in bases:
        for n in (*range(1, 120), *_adjacent_powers(b), b**b + b, 2 * b**3 + b + 1):
            yield n, interp.upper_base_term(b, n), fold_o_from_digits(b, digit, n, rest, seen)


def test_one_pass_readings_equal_the_fold():
    seen = set()
    for bases in HIERARCHIES:
        for interp_cls in (ThetaInterpretation, PsiInterpretation):
            psi_seen = seen if interp_cls is PsiInterpretation else None
            for n, one_pass, fold in _readings(interp_cls, bases, psi_seen):
                assert one_pass == fold, (interp_cls.__name__, bases, n)
    # psi readings are not monotone: the stack really pops and merges
    assert "pop" in seen


@pytest.mark.parametrize("nodes, depth", [(8, 200), (12, 200), (20, 200), (10_000, 4), (10_000, 6)])
def test_one_pass_readings_raise_what_the_fold_raises(nodes, depth):
    seen = set()
    with term_budgets(nodes, depth):
        for bases in HIERARCHIES:
            for interp_cls in (ThetaInterpretation, PsiInterpretation):
                for b in bases:
                    for n in (*range(b, 60), *_adjacent_powers(b), b**b + b, 2 * b**3 + b + 1):
                        one_pass = cold_outcome(interp_cls(bases).upper_base_term, b, n)
                        interp = interp_cls(bases)
                        digit = interp._digit if interp_cls is ThetaInterpretation else interp.value
                        fold = cold_outcome(fold_o_from_digits, b, digit, n, interp.value, seen)
                        assert one_pass == fold, (interp_cls.__name__, bases, b, n)
    cold_tables()
    if nodes < 10_000:
        # some partial sum, not only a monomial, was over budget; a partial
        # sum is never deeper than the term just added to it
        assert "partial" in seen


def test_an_element_reading_lifts_the_value_below_it_first():
    # upper of a non-minimal element adds the value of what is left below it
    # as a term: that value is lifted first, so one at the node budget stops
    # with the size of the lifted term, not of the larger sum
    stop = "term of 8 nodes exceeds budget of 7 nodes"
    with term_budgets(7):
        assert cold_outcome(ThetaInterpretation([2, 4, 8]).upper, 4) == f"raises {stop}"
        result = run("plus-chain: 2,4,8", 4, max_steps=30, certify="theta")
    cold_tables()
    assert result.theta_stop == {"step": 0, "reason": stop}
    assert ThetaInterpretation([2, 4, 8]).upper(4) == ord_("W^1*1+v(W^1*1)")


def test_certified_plus_chain_runs_stay_under_8000_compare_calls(monkeypatch):
    # where the one-pass sums still pay: a plus-chain run reads each
    # certificate afresh; 4,320 compare calls here from cold tables, against
    # 10,461 with ord_sum folding ord_add pairwise
    calls = 0
    compare = ordinal_terms.compare

    def counted(x, y):
        nonlocal calls
        calls += 1
        return compare(x, y)

    monkeypatch.setattr(ordinal_terms, "compare", counted)
    monkeypatch.setattr(interpretations, "compare", counted)
    cold_tables()
    for seed in (5, 6, 7):
        run("plus-chain: 2,6", seed, max_steps=300, certify="theta")
    assert calls < 8_000


def test_verifying_certified_classic_traces_stays_under_5000_compare_cnt_calls(monkeypatch):
    # the verifier's descent check orders v-collapses coefficient by
    # coefficient, and skips a spine that both certificates hold as one
    # tuple: 3,685 compare_cnt calls here from cold tables, against 8,481
    # when it walked the shared spine and 21,775 when the maximal
    # coefficient was folded and compared with the larger collapse
    traces = [run("classic", seed, max_steps=300, certify="theta").trace_lines() for seed in (4, 5, 6, 7)]
    calls = 0
    compare_cnt = ordinal_terms.compare_cnt

    def counted(x, y):
        nonlocal calls
        calls += 1
        return compare_cnt(x, y)

    for module in (ordinal_terms, runner, interpretations):
        monkeypatch.setattr(module, "compare_cnt", counted)
    cold_tables()
    for lines in traces:
        assert verify_trace(lines).ok
    assert calls < 5_000


def _spine_readings():
    for interp_cls in (ThetaInterpretation, PsiInterpretation):
        out = []
        for bases in HIERARCHIES:
            interp = interp_cls(bases)
            out.extend(interp.upper(n) for n in range(0, 80, 3))
        yield out


def test_spine_compare_equals_compare_after_adding_omega():
    for readings in _spine_readings():
        for x in readings:
            for y in readings:
                assert compare_spines(x, y) == compare(plus_big_omega(x), plus_big_omega(y)), (x, y)


def test_check_plus_big_omega_raises_exactly_when_the_build_would():
    def agree(x, nodes, depth):
        with term_budgets(nodes, depth):
            expected = outcome(plus_big_omega, x)
            checked = outcome(check_plus_big_omega, x)
        assert checked == (None if isinstance(expected, OrdTerm) else expected), (x, nodes, depth)

    for readings in list(_spine_readings()):
        for x in readings:
            built = plus_big_omega(x)
            # the constants are stored unchecked, and a budget below x would
            # have stopped x itself, so no budget goes below either
            for nodes in (max(built.size - 1, BIG_OMEGA.size), built.size):
                agree(x, nodes, 200)
            for depth in (max(built.depth - 1, x.depth, BIG_OMEGA.depth), built.depth):
                agree(x, 10_000, depth)
    cold_tables()


class _BuildingTheta(ThetaInterpretation):
    """The formulas as they were: star builds both sides as x + Omega and
    compares them, and value always takes the natural sum with star."""

    def value(self, n):
        if n not in self._value:
            self._value[n] = theta(natural_sum(self.upper(n), lift(self.star(n))))
        return self._value[n]

    def star(self, n):
        target = plus_big_omega(self.upper(n))
        below = []
        for x in self.base.elements_from(0):
            if x >= n:
                break
            below.append(x)
        for b_star in reversed(below):
            if compare(plus_big_omega(self.upper(b_star)), target) >= 0:
                return self.value(b_star)
        return CNT_ZERO


@pytest.mark.parametrize("nodes", [10, 14, 20, 30, 10_000])
def test_star_and_value_match_building_x_plus_omega(nodes):
    raised = 0
    with term_budgets(nodes):
        for bases in HIERARCHIES:
            for n in range(0, 90):
                for method in ("star", "value"):
                    spine = cold_outcome(getattr(ThetaInterpretation(bases), method), n)
                    built = cold_outcome(getattr(_BuildingTheta(bases), method), n)
                    assert spine == built, (bases, n, method)
                    raised += isinstance(spine, str)
    cold_tables()
    assert raised or nodes == 10_000
