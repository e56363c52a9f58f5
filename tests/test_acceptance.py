"""Seven acceptance gates. Each prints one verdict line, even under -q.

Every gate re-checks its claims from scratch; where a pinned value is
unattainable or wrong, the gate asserts the corrected behavior and says so
in its verdict line.
"""

import contextlib
import json
import random
import time

import pytest

from fractal_goodstein.hierarchy import FiniteHierarchy
from fractal_goodstein.interpretations import PsiInterpretation, ThetaInterpretation
from fractal_goodstein.numerals import (
    BitBudget,
    BudgetExceededError,
    base_change,
    decompose,
    digits,
)
from fractal_goodstein.ordinal_terms import (
    BIG_OMEGA,
    CNT_ZERO,
    CntTerm,
    OMEGA,
    ONE,
    ZERO,
    as_cnt,
    big_f,
    compare,
    compare_cnt,
    fund_seq,
    fund_seq_cnt,
    is_psi_normal_form,
    lift,
    natural_sum,
    natural_sum_cnt,
    omega_monomial,
    omega_tower,
    parse_term,
    psi,
    step_down,
    term_to_str,
    theta,
)
from fractal_goodstein.runner import lower_bound_chain, run, verify_trace
from fractal_goodstein.successors import PlusHierarchy
from fractal_goodstein.upgrade import UpgradeContext, check_good_successor
from oracles import plus_big_omega

W_W = omega_monomial(BIG_OMEGA, as_cnt(ONE))


def cnt(text):
    return as_cnt(parse_term(text))


@contextlib.contextmanager
def _gate(capsys, k, deviations="none"):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {k}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {k}: PASS (deviations documented: {deviations})")


@contextlib.contextmanager
def _under_a_second():
    t0 = time.monotonic()
    yield
    assert time.monotonic() - t0 < 1.0


def test_acceptance_1_fixtures(capsys):
    dev = (
        "the {2,6}+0 stage at 6 is the computed {3,30}; the alternate value "
        "{3,12} is arithmetically inconsistent and fails the good-successor "
        "check, which is asserted"
    )
    with _gate(capsys, 1, dev):
        with _under_a_second():
            assert decompose(6, 2) == (2, 2, 1, 2)
            assert base_change(6, 2, 3) == 30
        with _under_a_second():
            up = UpgradeContext([2, 6], [3, 30, 180])
            assert up.upgrade(2**2 + 1) == 28
            assert up.upgrade(6**6 + 6 ** (2**2 + 1)) == 180**180 + 180**28
        with _under_a_second():
            assert PlusHierarchy([2, 6], 0).stage_at(6) == FiniteHierarchy([3, 30])
            assert not check_good_successor([2, 6], [3, 12], 20).ok
            assert check_good_successor([2, 6], [3, 30], 20).ok
        with _under_a_second():
            assert PlusHierarchy([2], 2).stage_at(4) == FiniteHierarchy([3, 27, 27**27])
            assert PlusHierarchy([2], 1).d_sequence(6) == (27, 27**27 + 27)
        with _under_a_second():
            th = ThetaInterpretation([2, 6])
            assert th.value(2) == cnt("v(W^1*1)")
            assert th.upper(6) == parse_term("W^(W^1*1)*1+v(W^(W^1*1)*1)")
            o6 = th.value(6)
            # o(7) = v(W + o(6) + w), checked by building the argument
            arg = natural_sum(natural_sum(BIG_OMEGA, lift(o6)), lift(OMEGA))
            assert th.value(7) == theta(arg)
            assert th.upper(6**6 + 6) == parse_term("W^(W^1*1)*1+W^1*1")
            assert th.star(6**6 + 6) == CNT_ZERO
        with _under_a_second():
            th8 = ThetaInterpretation([2, 4, 8])
            assert th8.value(3) == cnt("v(W^1*1+v(W^1*1)+w)")
            assert th8.value(4) == cnt("v(W^1*1+v(W^1*1)*2)")
            o4 = th8.value(4)
            assert th8.value(8) == theta(
                natural_sum(BIG_OMEGA, lift(natural_sum_cnt(o4, o4)))
            )
            assert th8.upper_base_term(2, 4) == parse_term("W^(W^1*1)*1")
        with _under_a_second():
            ps = PsiInterpretation([2, 6])
            assert ps.value(4) == cnt("p(W^(W^1*1)*1)")
            assert ps.value(6) == cnt("w") == ps.value(2)
            assert compare_cnt(ps.value(4), ps.value(6)) > 0


def _naive_rebase(n, b, c):
    # textbook hereditary base change, little-endian digit loop
    if n < b:
        return n
    total, e = 0, 0
    while n:
        n, d = divmod(n, b)
        if d:
            total += d * c ** _naive_rebase(e, b, c)
        e += 1
    return total


def _naive_goodstein(seed, steps):
    vals, v = [seed], seed
    for i in range(steps):
        if v == 0:
            break
        v = _naive_rebase(v, i + 2, i + 3) - 1
        vals.append(v)
    return vals


def _theta_chain_descends(result):
    certs = [rec.theta for rec in result.records]
    assert all(c is not None for c in certs)
    for earlier, later in zip(certs, certs[1:]):
        assert compare_cnt(later, earlier) < 0


def test_acceptance_2_oracle_equivalence(capsys):
    dev = (
        "seeds 4 and 5 cannot terminate at desk scale (the classic sequence "
        "from 4 needs 3*2^402653211 - 2 steps); certified strictly decreasing "
        "25-step prefixes are asserted for them, termination for seeds <= 3"
    )
    with _gate(capsys, 2, dev):
        t0 = time.monotonic()
        for seed in range(17):
            got = run("classic", seed, max_steps=25, certify="none")
            assert [r.value for r in got.records] == _naive_goodstein(seed, 25), seed
        for seed in range(4):
            r = run("classic", seed, certify="theta")
            assert r.outcome == "terminated"
            assert r.records[-1].value == 0
            _theta_chain_descends(r)
            assert verify_trace(r.trace_lines()).ok
        for seed in (4, 5):
            r = run("classic", seed, max_steps=25, certify="theta")
            assert r.outcome == "step_cap"
            _theta_chain_descends(r)
            assert verify_trace(r.trace_lines()).ok
        assert time.monotonic() - t0 < 10.0


def test_acceptance_3_property_suites(capsys):
    dev = (
        "pair ({2,6},{3,12}) is not a good successor (upgrade is partial on "
        "it), so the suites run ({2,6},{3,30}); the singleton pair "
        "({2},{3,27}) is feasible only to n=15 and n=16 is asserted to "
        "exhaust the bit budget"
    )
    with _gate(capsys, 3, dev):
        rng = random.Random(20260816)
        for _ in range(1200):
            b = rng.randint(2, 60)
            n = rng.randint(1, 1 << rng.randint(1, 200))
            d = decompose(n, b)
            assert d.base == b
            assert 0 < d.coeff < b
            assert d.rest < b**d.exp <= n
            assert b**d.exp * d.coeff + d.rest == n
        cases = 0
        while cases < 1000:
            b = rng.randint(2, 10)
            c = rng.randint(b, b + 6)
            cap = 8 if b == 2 and c - b >= 2 else 2000
            m, n = sorted((rng.randint(0, cap), rng.randint(0, cap)))
            if m == n:
                continue
            assert base_change(m, b, c) < base_change(n, b, c), (m, n, b, c)
            cases += 1
        up1 = UpgradeContext([2, 6], [3, 30])
        vals = [up1.upgrade(n) for n in range(201)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        target = FiniteHierarchy([3, 30])
        assert up1.upgrade(2) in target and up1.upgrade(6) in target
        up2 = UpgradeContext([2], [3, 27])
        vals2 = [up2.upgrade(n) for n in range(16)]
        assert all(a < b for a, b in zip(vals2, vals2[1:]))
        assert up2.upgrade(2) == 3
        with pytest.raises(BudgetExceededError):
            up2.upgrade(16)
        source = FiniteHierarchy([2, 6])
        for n in range(2, 61):
            v = up1.upgrade(n)
            b = source.upper_base(n)
            c = up1.chosen_base(n)
            assert {up1.upgrade(d) for d in digits(n, b)} == set(digits(v, c)), n
            assert (n % b == 0) == (v % c == 0), n
        slow = UpgradeContext([2, 6], [3, 30], fast_paths=False)
        for n in range(2, 101):
            b = source.upper_base(n)
            r = n % b
            if 0 < r < b and n - r >= b:
                assert slow.upgrade(n) == slow.upgrade(n - r) + slow.upgrade(r), n


def test_acceptance_4_interpretation_properties(capsys):
    dev = (
        "preservation on the singleton pair ({2},{3,27}) stops at n=15, the "
        "last value whose upgrade fits the bit budget"
    )
    with _gate(capsys, 4, dev):
        for bases in ([2, 6], [2, 4, 8], [3, 12]):
            th = ThetaInterpretation(bases)
            prev = th.value(0)
            for n in range(1, 501):
                cur = th.value(n)
                assert compare_cnt(prev, cur) < 0, (bases, n)
                prev = cur
        up = UpgradeContext([2, 6], [3, 30])
        thB, thC = ThetaInterpretation([2, 6]), ThetaInterpretation([3, 30])
        psB, psC = PsiInterpretation([2, 6]), PsiInterpretation([3, 30])
        for n in range(61):
            v = up.upgrade(n)
            assert thC.value(v) == thB.value(n), n
            assert psC.value(v) == psB.value(n), n
        up2 = UpgradeContext([2], [3, 27])
        thb, thc = ThetaInterpretation([2]), ThetaInterpretation([3, 27])
        psb, psc = PsiInterpretation([2]), PsiInterpretation([3, 27])
        for n in range(16):
            v = up2.upgrade(n)
            assert thc.value(v) == thb.value(n), n
            assert psc.value(v) == psb.value(n), n
        for bases in ([2, 6], [2, 4, 8], [3, 12]):
            th = ThetaInterpretation(bases)
            h = FiniteHierarchy(bases)
            for b in bases[:-1]:
                s = h.s_next(b)
                assert compare(th.upper_base_term(b, s), plus_big_omega(th.upper(s))) >= 0
        ps = PsiInterpretation([2, 6])
        for n in range(2, 201):
            assert ps.is_normal(n) == is_psi_normal_form(ps.upper(n)), n


def _rand_cnt(rng, depth, family):
    out = CntTerm((), rng.randrange(5))
    for _ in range(rng.randrange(4)):
        out = natural_sum_cnt(out, _rand_atom(rng, depth, family))
    return out


def _rand_atom(rng, depth, family):
    if depth == 0 or rng.random() < 0.3:
        return OMEGA
    c = _rand_cnt(rng, depth - 1, family)
    if family == "theta":
        arg = natural_sum(BIG_OMEGA, lift(c)) if rng.random() < 0.5 else lift(c)
        return theta(arg)
    return psi(natural_sum(omega_tower(rng.randint(1, 2)), lift(c)))


def test_acceptance_5_fundamental_sequences(capsys):
    with _gate(capsys, 5):
        rng = random.Random(7)
        for family in ("theta", "psi"):
            pool = [_rand_cnt(rng, 4, family) for _ in range(80)]
            for _ in range(1100):
                a, b, c = (rng.choice(pool) for _ in range(3))
                assert compare_cnt(a, b) == -compare_cnt(b, a)
                assert (compare_cnt(a, b) == 0) == (a == b)
                if compare_cnt(a, b) <= 0 and compare_cnt(b, c) <= 0:
                    assert compare_cnt(a, c) <= 0
            if family == "psi":
                for t in pool:
                    if not t.is_zero():
                        for k in (0, 1, 3):
                            assert compare_cnt(fund_seq_cnt(t, k), t) < 0
        for start in (lift(psi(BIG_OMEGA)), lift(psi(W_W))):
            descent = step_down(start)
            assert descent[0] == start
            assert descent[-1] == ZERO
            for earlier, later in zip(descent, descent[1:]):
                assert compare(later, earlier) < 0
        assert [term_to_str(t) for t in step_down(psi(W_W))] == [
            "p(W^(W^1*1)*1)",
            "1",
            "0",
        ]
        # F(0) by hand: p(1) = 1, then 1[1] = 0, one step
        assert lift(psi(omega_tower(0))) == ONE
        assert fund_seq(ONE, 1) == ZERO
        assert big_f(0) == 1
        # F(1) by hand: p(W) = w, w[1] = 1, 1[2] = 0, two steps
        assert lift(psi(omega_tower(1))) == lift(OMEGA)
        assert fund_seq(lift(OMEGA), 1) == ONE
        assert fund_seq(ONE, 2) == ZERO
        assert big_f(1) == 2


def test_acceptance_6_witness_chain(capsys):
    with _gate(capsys, 6):
        c = lower_bound_chain(1)
        assert c.seed == 4
        assert c.complete and c.chain_failure is None
        assert c.verified_steps >= 2
        # linkage re-derived here, not read off the report
        for prev, nxt in zip(c.steps, c.steps[1:]):
            assert nxt.linked
            assert fund_seq_cnt(prev.u, nxt.index) == nxt.u
        # the witness stays at or below the live value while both exist
        for i, s in enumerate(c.steps):
            if i < len(c.run_values):
                assert s.n <= c.run_values[i], i
        # the live run hits a resource wall; the failure is reported verbatim
        assert c.run_failure is not None
        assert c.run_failure.startswith("step 2:")
        tight = lower_bound_chain(1, budget=BitBudget(16))
        assert tight.run_failure is not None and "budget" in tight.run_failure


def _mutate(lines, row, key, value, subkey=None):
    docs = [json.loads(ln) for ln in lines]
    if subkey is None:
        docs[row][key] = value
    else:
        docs[row][key][subkey] = value
    return [json.dumps(d) for d in docs]


def _drop_key(lines, row, key):
    docs = [json.loads(ln) for ln in lines]
    del docs[row][key]
    return [json.dumps(d) for d in docs]


def test_acceptance_7_mutation_sanity(capsys):
    with _gate(capsys, 7):
        lines = run("classic", 3, certify="both").trace_lines()
        assert verify_trace(lines).ok
        tampers = [
            ("format", lambda ls: _mutate(ls, 0, "format", "other")),
            ("version", lambda ls: _mutate(ls, 0, "version", 99)),
            ("seed", lambda ls: _mutate(ls, 0, "seed", "4")),
            ("hierarchy", lambda ls: _mutate(ls, 0, "hierarchy", "ouroboros")),
            ("certify cap", lambda ls: _mutate(ls, 0, "caps", "none", subkey="certify")),
            ("step index", lambda ls: _mutate(ls, 2, "i", 7)),
            ("value", lambda ls: _mutate(ls, 2, "value", "5")),
            ("base", lambda ls: _mutate(ls, 2, "base", 9)),
            ("theta cert", lambda ls: _mutate(ls, 2, "theta", "v(4)")),
            ("psi n", lambda ls: _mutate(ls, 1, "psi", "4", subkey="n")),
            ("psi u", lambda ls: _mutate(ls, 1, "psi", "p(W^1*1)", subkey="u")),
            ("outcome", lambda ls: _mutate(ls, -1, "outcome", "step_cap")),
            ("step count", lambda ls: _mutate(ls, -1, "steps", 5)),
            ("death detail", lambda ls: _mutate(ls, -1, "detail", "x")),
            ("theta deletion", lambda ls: _drop_key(ls, 2, "theta")),
            ("psi deletion", lambda ls: _drop_key(ls, 1, "psi")),
            ("row deletion", lambda ls: ls[:3] + ls[4:]),
            (
                "psi stop reason",
                lambda ls: _mutate(ls, -1, "psi_stop", "made up", subkey="reason"),
            ),
            ("psi stop step", lambda ls: _mutate(ls, -1, "psi_stop", 0, subkey="step")),
            (
                "theta stop forgery",
                lambda ls: _mutate(
                    _drop_key(ls, 2, "theta"),
                    -1,
                    "theta_stop",
                    {"step": 1, "reason": "made up"},
                ),
            ),
        ]
        for label, mutate in tampers:
            report = verify_trace(mutate(list(lines)))
            assert not report.ok and report.problems, label
        # caps that only bind on other outcomes, tampered where they bind
        capped = run("classic", 4, max_steps=10, certify="none").trace_lines()
        assert verify_trace(capped).ok
        assert not verify_trace(_mutate(capped, 0, "caps", 12, subkey="max_steps")).ok
        budgeted = run("ouroboros", 5, certify="none").trace_lines()
        assert verify_trace(budgeted).ok
        for forged_bits in (1 << 30, 64):
            bad = _mutate(budgeted, 0, "caps", forged_bits, subkey="bit_budget")
            assert not verify_trace(bad).ok, forged_bits
