"""Stage bases held by the form that built them, against bases taken in full.

A successor holds each base past 256 bits that a source event builds as a
numerals.Form: the monomials of its deep change over the base before it.
Its width, its order against a narrower int and its printed width come from
the form; anything else takes the integer.  The oracle is EagerPlusHierarchy,
whose source events take every base in full, as they did before.
"""

from itertools import product

import pytest

from fractal_goodstein import cli, successors
from fractal_goodstein.cli import main as cli_main
from fractal_goodstein.hierarchy import FiniteHierarchy
from fractal_goodstein.numerals import BitBudget, Form, _short
from fractal_goodstein.runner import run, verify_trace
from fractal_goodstein.successors import PlusHierarchy, dynamical, hierarchy_from_spec
from oracles import EagerPlusHierarchy

# each passes 256 bits by stage 60; 2,6,30 builds a base over a held base,
# which takes that base's integer
SPECS = ("plus-chain: 2,6", "plus-chain: 2,10", "plus-chain: 2,6,12", "plus-chain: 2,6,30")
SEEDS = (*range(9), 12, 13, 20)
BUDGETS = (8, 64, 257, 512, 1024, 4096, 1 << 16)
DEATH = "value of 4100 bits exceeds budget of 4096 bits"


def _ending(spec, seed, bits, certify):
    """What run writes and verify_trace reports, and the stages the run built."""
    h = hierarchy_from_spec(spec, BitBudget(bits))
    result = run(h, seed, max_steps=300, certify=certify)
    lines = result.trace_lines()
    report = verify_trace(lines)
    ending = (lines, result.outcome, result.detail, report.ok, report.problems, report.outcome, report.steps)
    return ending, h._stages


def test_held_bases_write_the_traces_of_bases_taken_in_full(monkeypatch):
    counts = {"held": 0, "forced": 0}
    real_multiple, real_index = Form.next_multiple, Form.__index__

    def held(self):
        counts["held"] += 1
        return real_multiple(self)

    def forced(self):
        counts["forced"] += self._n is None
        return real_index(self)

    # patched by name: a held path that moves or is renamed fails here
    monkeypatch.setattr(Form, "next_multiple", held)
    monkeypatch.setattr(Form, "__index__", forced)
    # each spec meets every budget over its seeds, two budgets a seed and mode
    configs = list(product(SPECS, SEEDS, ("none", "both"), (0, 3)))
    compared = 0
    for k, (spec, seed, certify, j) in enumerate(configs):
        bits = BUDGETS[(k + j) % len(BUDGETS)]
        lazy, lazy_stages = _ending(spec, seed, bits, certify)
        with monkeypatch.context() as m:
            m.setattr(successors, "PlusHierarchy", EagerPlusHierarchy)
            eager, eager_stages = _ending(spec, seed, bits, certify)
        assert lazy == eager, (spec, seed, bits, certify)
        # every base the run forced is the one the oracle took
        for stage, oracle in zip(lazy_stages, eager_stages):
            for x, y in zip(stage._elems, oracle._elems):
                assert type(y) is int
                if type(x) is int or x._n is not None:
                    assert int(x) == y, (spec, seed, bits, certify)
                    compared += type(x) is Form
    assert counts["held"] > 1000 and counts["forced"] > 100 and compared > 100, (counts, compared)


def test_seed_5_dies_on_a_4100_bit_base_after_461_rows():
    # the base that dies is not held: its c**(pe + 1) does not fit the budget
    result = run("plus-chain: 2,6", 5, budget=BitBudget(4096), certify="none")
    assert (result.outcome, len(result.records), result.detail) == ("budget_exceeded", 461, DEATH)


def test_a_budget_sweep_dies_as_bases_taken_in_full_do(monkeypatch):
    endings = []
    for eager in (False, True):
        with monkeypatch.context() as m:
            if eager:
                m.setattr(successors, "PlusHierarchy", EagerPlusHierarchy)
            for seed, bits in product((5, 6, 7), (8, 300, 1000, 2000, 4096, 4100, 6000)):
                r = run("plus-chain: 2,6", seed, max_steps=1000, budget=BitBudget(bits), certify="none")
                endings.append((seed, bits, r.outcome, len(r.records), r.detail, r.records[-1].value))
    assert endings[: len(endings) // 2] == endings[len(endings) // 2 :]
    assert sum(e[2] == "budget_exceeded" for e in endings) >= 20


def test_a_width_the_bracket_leaves_open_takes_the_integer():
    c = 3**300 + 2
    # below the lead, c**4 is as wide as the lead itself: the bracket straddles
    # a power of two, so its width is read from the integer; a tail of c**2
    # leaves it settled
    open_, settled = Form(c, [(5, 1), (4, 1)], 0), Form(c, [(5, 1), (1, 2)], 7)
    for form, value in ((open_, c**5 + c**4), (settled, c**5 + 2 * c + 7)):
        assert form._n is None
        assert _short(form) == _short(value) == f"<{value.bit_length()}-bit integer>"
        assert form.bit_length() == value.bit_length()
    assert open_._n == c**5 + c**4 and settled._n is None
    assert int(settled) == c**5 + 2 * c + 7


def test_a_form_orders_against_ints_and_forms_as_its_integer():
    c = 2**64 + 13
    forms = [Form(c, [(5, a), (2, 3)], t) for a in (1, 2) for t in (0, 9)]
    values = [int(Form(c, f.terms, f.tail)) for f in forms]
    probes = [0, 1 << 256, c**5, values[0] - 1, values[0], values[0] + 1, values[3], c**6]
    for f, v in zip(forms, values):
        for p in probes + forms:
            q = int(p)
            assert (f < p, f <= p, f == p, f >= p, f > p) == (v < q, v <= q, v == q, v >= q, v > q)
            assert (p < f, p > f) == (q < v, q > v)
    assert forms[0] - 1 == values[0] - 1 and type(forms[0] - 1) is Form
    assert forms[0] - 5 == values[0] - 5 and type(forms[0] - 5) is int


def test_a_stage_with_10k_bit_bases_prints_as_before(monkeypatch, capsys):
    stage = dynamical("plus-chain", start=[2, 6]).stage(1000)
    top = stage.max_base
    assert top.bit_length() > 9000
    argv = ["hierarchy", "stage", "--base", ",".join(map(str, stage)), "--i", "0", "--n", str(top)]
    texts, forced = [], []
    real_index = Form.__index__

    def counted(self):
        forced.append(self._n is None)
        return real_index(self)

    for cls in (PlusHierarchy, EagerPlusHierarchy):
        with monkeypatch.context() as m:
            m.setattr(cli, "PlusHierarchy", cls)
            p = cls(list(stage), 0)
            texts.append([repr(p.stage_at(top)), repr(p)])
            m.setattr(Form, "__index__", counted)
            texts[-1] += [cli_main(argv), capsys.readouterr().out]
        if cls is PlusHierarchy:
            # the lazy repr read the new base's width from its form
            assert type(p._elems[-1]) is Form and p._elems[-1]._n is None
            # and so did the command, which built and printed its own
            assert forced == [], "goodstein hierarchy stage took a held base's integer"
    assert texts[0] == texts[1]
    assert "<10001-bit integer>" in texts[0][0] and "<10001-bit integer>" in texts[0][3]


def test_public_values_stay_plain_ints():
    h = dynamical("plus-chain", start=[2, 6])
    result = run(h, 5, max_steps=200, certify="none")
    stage, p = h.stage(150), h.plus_object(150)
    assert any(type(x) is Form for x in stage._elems)
    top = stage.max_base
    got = [*stage, top, *stage.known_elements(), *stage.elements_from(0), *p.known_elements()]
    got += [stage.upper_base(top + 5), stage.lower_base(top), stage.s_next(2)]
    got += [p.chosen_base(top), p.upgrade_value(top), *(r.base for r in result.records)]
    assert all(type(x) is int for x in got)
    # membership answers for ints as it did; a held base is not an int
    held = next(x for x in stage._elems if type(x) is Form)
    assert (top in stage, top - 1 in stage, top + 1 in stage, held in stage) == (True, False, False, False)
    assert FiniteHierarchy(list(stage)) == stage and hash(FiniteHierarchy(list(stage))) == hash(stage)
    ouro = dynamical("ouroboros")
    ouro.stage(3)
    plus = ouro.plus_object(2)
    n = next(n for n in range(2, 200) if plus.base.is_critical(n))
    assert all(type(x) is int for x in plus.d_sequence(n))


def test_a_long_chain_takes_next_to_no_power(monkeypatch):
    # every stage base of plus-chain 2,6 past 256 bits is held: 18 powers over
    # run and verify at seed 5 (2,520 when each was taken in full, 2,512 of them
    # past 256 bits), none of them for a base whose lead is past 256 bits
    calls = []
    real = BitBudget.pow

    def counted(self, base, exp):
        calls.append(exp)
        return real(self, base, exp)

    monkeypatch.setattr(BitBudget, "pow", counted)
    result = run("plus-chain: 2,6", 5, max_steps=1300, certify="none")
    assert verify_trace(result.trace_lines()).ok
    assert result.outcome == "step_cap" and len(calls) < 100, len(calls)


@pytest.mark.parametrize("bits", [1024, 1 << 16])
def test_a_held_base_over_a_held_base_takes_that_base(bits):
    # the third base of each stage is built over the second, which it reads
    h = hierarchy_from_spec("plus-chain: 2,6,30", BitBudget(bits))
    run(h, 12, max_steps=80, certify="none")
    stage = h.stage(60)
    low, high = stage._elems[1:3]
    assert type(high) is Form and high.c == int(low)
    assert int(high) % int(low) == 0
