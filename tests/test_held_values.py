"""Classic values handed from step to step as the form that built them, against integers.

A classic step whose base change has a lead past 256 bits that fits the budget
by its width holds the new value as a numerals.Form; its integer is taken once,
for the row, its decrement carries that integer, and the next step walks its
digits.  The oracle is the same run with the carry cut: each step's form forced
to an int, so every walk decomposes an integer, as before values were held.
"""

import random
from itertools import product

import pytest

from fractal_goodstein import numerals
from fractal_goodstein.numerals import BitBudget, Form, _phi_value, base_change
from fractal_goodstein.runner import run, verify_trace
from fractal_goodstein.successors import ClassicHierarchy, dynamical
from oracles import outcome

WIDE_LOWS = tuple(8 + 257 * j for j in range(16))  # the members of perfbench's wide-values
NARROW = tuple(range(9))  # at most 73 bits in 40 steps: never held
WIDE = tuple(sorted({2**15 + k for k in range(9)} | {2**15 + low for low in WIDE_LOWS}))
# values of 2**15 + k pass 178, 2,571, 43,551 and 844,247 bits: budgets at and
# just past each, so a lead that fits by its width alone and one that does not
BUDGETS = (8, 64, 257, 1024, 2571, 2600, 4096, 43551, 46000, 1 << 16, 1 << 18, 844247, 1 << 20)


def _ending(seed, bits, certify, steps):
    result = run("classic", seed, max_steps=steps, budget=BitBudget(bits), certify=certify)
    lines = result.trace_lines()
    report = verify_trace(lines)
    return lines, result.outcome, result.detail, report.ok, report.problems, report.outcome, report.steps


def _configs():
    """(seed, bits, certify, steps): every budget met by the narrow and the wide seeds."""
    out = []
    for k, (seed, certify, j) in enumerate(product(NARROW + WIDE, ("none", "both"), (0, 4, 8))):
        bits = BUDGETS[(k + j) % len(BUDGETS)]
        # theta's reading of 2**15 + 2's step-4 value, c**326,598 - 1, takes
        # about 16 s before the node budget stops it; it is read below that width
        if not (certify == "both" and seed == 2**15 + 2 and bits > 1 << 18):
            out.append((seed, bits, certify, 40))
    # seed 17 climbs through values of many wide monomials, some steps held
    # and, near the budget, some not
    return out + [(17, bits, certify, 40) for bits, certify in ((1 << 16, "both"), (1 << 18, "none"))]


def test_held_values_write_the_traces_of_values_walked_as_integers(monkeypatch):
    real = ClassicHierarchy.upgrade_step
    counts = {"held": 0, "cut": 0}

    def held(self, i, n):
        up = real(self, i, n)
        counts["held"] += type(self._held) is Form
        return up

    def cut(self, i, n):
        up = real(self, i, n)
        counts["cut"] += type(self._held) is Form
        self._held = None  # the run decrements the integer, and the next step walks that
        return up

    configs = _configs()
    for seed, bits, certify, steps in configs:
        # patched by name: a hand-off that moves or is renamed fails here
        with monkeypatch.context() as m:
            m.setattr(ClassicHierarchy, "upgrade_step", held)
            as_is = _ending(seed, bits, certify, steps)
        with monkeypatch.context() as m:
            m.setattr(ClassicHierarchy, "upgrade_step", cut)
            walked = _ending(seed, bits, certify, steps)
        assert as_is == walked, (seed, bits, certify)
    assert len(configs) > 190 and counts["held"] > 100 and counts["cut"] == counts["held"], counts


def test_wide_values_decompose_no_wide_value(monkeypatch):
    # each step of the wide-values members walks the form the step before
    # built: no decomposition of a value of 1,024 bits or more (276 over run
    # and verify when every walk decomposed the integer)
    wide = []
    floor_log = numerals._floor_log

    def counted(n, b, above=None):
        wide.append(n.bit_length() >= 1024)
        return floor_log(n, b, above)

    monkeypatch.setattr(numerals, "_floor_log", counted)
    for low in WIDE_LOWS:
        result = run("classic", 2**15 + low, certify="none")
        assert result.outcome == "budget_exceeded" and len(result.records) == 5
        assert verify_trace(result.trace_lines()).ok
    assert wide and not any(wide), sum(wide)


def _forms(rng, c):
    """Forms over c, a run below some, each with its integer summed monomial by monomial."""
    for _ in range(40):
        exps = sorted(rng.sample(range(1, 400), rng.randrange(1, 6)), reverse=True)
        terms = [(e, rng.randrange(1, c)) for e in exps]
        run_ = rng.choice([0, exps[-1] - 1]) if exps[-1] > 1 else 0
        if run_:
            terms[-1] = (exps[-1], c - 1)
        tail = rng.randrange(c)
        value = sum(c**e * a for e, a in terms) + sum((c - 1) * c**k for k in range(1, run_ + 1)) + tail
        yield Form(c, terms, tail, run_), value


@pytest.mark.parametrize("c", [3, 6, 1001, 2**64 + 13])
def test_a_form_with_a_run_sums_orders_and_walks_as_its_integer(c):
    rng = random.Random(c)
    for form, value in _forms(rng, c):
        again = Form(c, form.terms, form.tail, form.run)
        assert (form.bit_length(), form < value + 1, form > value - 1) == (value.bit_length(), True, True)
        assert int(again) == value
        # a walk over the form is the walk over its integer, held or not, and
        # dies as it does
        for bits, held in product((value.bit_length(), 2 * value.bit_length(), 1 << 20), (False, True)):
            budget = BitBudget(bits)
            got = outcome(lambda: int(_phi_value(None, c, c + 1, form, budget, c, [] if held else None)))
            assert got == outcome(base_change, value, c, c + 1, budget), (bits, held)


def test_a_decrement_carries_the_integer_and_leaves_the_borrow_as_a_run():
    c = 7
    form = Form(c, [(900, 3), (400, 1)], 0)
    value = 3 * c**900 + c**400
    assert int(form) == value
    less = form - 1
    # the lowest monomial lends c**400: c - 1 in each digit below it, the first
    # listed and the other 398 left as a run, and the integer is not summed again
    assert (less.terms, less.run, less.tail, less._n) == ([(900, 3), (399, c - 1)], 398, c - 1, value - 1)
    assert int(Form(c, less.terms, less.tail, less.run)) == value - 1
    assert (less - 1)._n == value - 2 and (less - 1).run == 398
    # once the tail is spent, the run's own lowest digit lends
    for _ in range(c - 1):
        less = less - 1
    assert less.tail == 0 and less.run == 398
    spent = less - 1
    again = spent if type(spent) is int else Form(c, spent.terms, spent.tail, spent.run)
    assert spent == int(again) == value - c - 1
    # a form whose integer is not taken leaves it untaken
    assert (Form(c, [(900, 3), (400, 1)], 0) - 1)._n is None


def test_a_wide_classic_step_hands_its_value_on_as_its_form(monkeypatch):
    h = dynamical("classic")
    n = 3 * 5**900 + 5**400
    # the public step returns a plain int and holds the wide change as its form
    value = h.upgrade_step(3, n)
    upgraded = h._held
    assert type(value) is int and value == base_change(n, 5, 6)
    assert type(upgraded) is Form and upgraded._n is value
    # a narrow value is not held
    assert h.upgrade_step(0, 5) == h._held == base_change(5, 2, 3) and type(h._held) is int
    # the next step walks the decremented form's digits, the run below 6**684
    # included: it decomposes only exponents, never the value
    want, wide = base_change(value - 1, 6, 7), []
    floor_log = numerals._floor_log

    def counted(m, b, above=None):
        wide.append(m.bit_length() > 64)
        return floor_log(m, b, above)

    monkeypatch.setattr(numerals, "_floor_log", counted)
    less = upgraded - 1
    assert upgraded.terms[-1] == (684, 1) and less.run == 682
    assert h.upgrade_step(4, less) == want and type(h._held) is Form
    assert wide and not any(wide)
