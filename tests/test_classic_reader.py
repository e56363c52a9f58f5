"""Theta certificates read from the step before, against fresh readings.

Every run reads each theta certificate through one ThetaReader.  Between
the single bases b - 1 and b, the stages of a classic run, it rebuilds only
the trailing digit that the decrement changed; at every other stage it reads
afresh.  The oracle is the fresh ThetaInterpretation(stage).value of every
step: it must give the same term at every step, and raise, with the same
text, exactly at the step the run records as its theta stop.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from fractal_goodstein import interpretations, runner
from fractal_goodstein.hierarchy import FiniteHierarchy
from fractal_goodstein.interpretations import ThetaInterpretation, ThetaReader
from fractal_goodstein.numerals import BitBudget
from fractal_goodstein.ordinal_terms import BIG_OMEGA, CNT_ONE, theta
from fractal_goodstein.runner import _CERT_ERRORS, run, verify_trace
from fractal_goodstein.successors import hierarchy_from_spec
from oracles import cold_tables, term_budgets


def _stage(i):
    return FiniteHierarchy([i + 2])


def _assert_matches_fresh(result):
    """Every certificate equals the fresh reading; the stop is its first failure."""
    stop = None
    for rec in result.records:
        try:
            fresh = ThetaInterpretation(_stage(rec.index)).value(rec.value)
        except _CERT_ERRORS as e:
            stop = {"step": rec.index, "reason": str(e)}
            break
        assert rec.theta == fresh, f"step {rec.index}"
    assert result.theta_stop == stop


# from seed 17 on, a classic run climbs to a million bits within 40 steps and
# spends minutes in base changes, so the wide budget takes the smaller seeds
@pytest.mark.parametrize("bits, seeds", [(8, 41), (16, 41), (64, 41), (4096, 41), (1 << 20, 17)])
def test_reader_matches_fresh_readings_on_small_seeds(bits, seeds):
    for seed in range(seeds):
        result = run("classic", seed, max_steps=60, budget=BitBudget(bits), certify="theta")
        _assert_matches_fresh(result)


@pytest.mark.parametrize(
    "nodes, depth", [(8, 200), (12, 200), (16, 200), (22, 200), (10_000, 6), (10_000, 9)]
)
def test_reader_matches_fresh_readings_under_small_term_budgets(nodes, depth):
    stops = 0
    with term_budgets(nodes, depth):
        for seed in range(41):
            result = run("classic", seed, max_steps=40, budget=BitBudget(4096), certify="theta")
            _assert_matches_fresh(result)
            stops += result.theta_stop is not None
    # all but the 9-level budget, which classic terms never reach in 40
    # steps, stop some readings
    assert stops or depth == 9


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=41, max_value=1 << 16),
    bits=st.sampled_from([8, 16, 64, 4096]),
    steps=st.integers(min_value=0, max_value=30),
)
def test_reader_matches_fresh_readings_on_larger_seeds(seed, bits, steps):
    result = run("classic", seed, max_steps=steps, budget=BitBudget(bits), certify="theta")
    _assert_matches_fresh(result)


def test_value_equal_to_the_base_reads_afresh():
    # seed 3 reaches 3 at base 3 at step 1; nothing lies below it, so star
    # is 0 and the certificate is v(W^1*1), not v(W^1*1+v(W^1*1))
    result = run("classic", 3, certify="theta")
    assert (result.records[1].value, result.records[1].base) == (3, 3)
    assert result.records[1].theta == theta(BIG_OMEGA)
    _assert_matches_fresh(result)


def test_trailing_digit_steps_down_to_nothing():
    # 14 = 4*3 + 2 at base 4, then 16 = 5*3 + 1 at base 5, then 18 = 6*3 at
    # base 6: the tail reads v(2), then v(1), which folds to w, then nothing
    reader = ThetaReader()
    texts = []
    for i, n in [(2, 14), (3, 16), (4, 18)]:
        got = reader.value(_stage(i), n)
        assert got == ThetaInterpretation(_stage(i)).value(n)
        texts.append(repr(got))
    assert texts == ["v(W^1*3+v(2))", "v(W^1*3+w)", "v(W^1*3)"]


def test_borrow_and_below_base_steps_and_the_final_zero():
    # seed 4 borrows at its first steps; seed 3 ends below the base at 0
    for seed in (3, 4):
        result = run("classic", seed, max_steps=200, certify="theta")
        _assert_matches_fresh(result)
    final = run("classic", 3, certify="theta").records[-1]
    assert (final.value, final.theta) == (0, CNT_ONE)


def test_fresh_readings_only_where_the_tail_cannot_be_reused(monkeypatch):
    made = []

    class Counted(ThetaInterpretation):
        def __init__(self, base):
            made.append(base.min_base)
            super().__init__(base)

    monkeypatch.setattr(interpretations, "ThetaInterpretation", Counted)
    records = run("classic", 4, max_steps=1000, certify="theta").records
    # the first step, every borrow step, and every value at or below its base
    fresh = [
        rec.index + 2
        for prev, rec in zip([None, *records], records)
        if prev is None or prev.value % (prev.index + 2) == 0 or rec.value <= rec.index + 2
    ]
    assert made == fresh
    assert len(fresh) < 20


def test_plus_chain_from_2_reads_as_classic_does(monkeypatch):
    # plus-chain: 2 has the stages of a classic run, and the reader reuses
    # readings by the stages, not by the kind
    made = []

    class Counted(ThetaInterpretation):
        def __init__(self, base):
            made.append(base.min_base)
            super().__init__(base)

    monkeypatch.setattr(interpretations, "ThetaInterpretation", Counted)
    seen = []
    for spec in ("classic", "plus-chain: 2"):
        made.clear()
        records = run(spec, 4, max_steps=300, certify="theta").records
        seen.append(([r.theta for r in records], list(made)))
    assert seen[0] == seen[1]
    assert len(made) < 20


def test_a_reading_is_reused_only_at_the_next_single_base():
    # 14 at {3} has the trailing digit 2, but {5} is not the next single
    # base, and {3, 12} not a single base: both read afresh
    for stage in (FiniteHierarchy([5]), FiniteHierarchy([3, 12])):
        reader = ThetaReader()
        reader.value(FiniteHierarchy([3]), 14)
        assert reader.value(stage, 16) == ThetaInterpretation(stage).value(16), stage


class _FreshReader:
    """Every step read afresh: the oracle ThetaReader must match."""

    def value(self, stage, n):
        return ThetaInterpretation(stage).value(n)


KINDS = [
    "classic",
    "plus-chain: 2",
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


def _run_both_ways(monkeypatch, spec, seed, bits, max_steps):
    """The trace and the stages' materialized bases, with the reader and afresh."""
    out = []
    for fresh in (False, True):
        with monkeypatch.context() as m:
            if fresh:
                m.setattr(runner, "ThetaReader", _FreshReader)
            h = hierarchy_from_spec(spec, BitBudget(bits))
            cold_tables()
            result = run(h, seed, max_steps=max_steps, certify="theta")
            stages = [h.stage(r.index).known_elements() for r in result.records]
            out.append((result.trace_lines(), stages))
    return out


@pytest.mark.parametrize("spec", KINDS)
@pytest.mark.parametrize("bits", [8, 64, 4096, 1 << 20])
def test_reader_matches_fresh_readings_on_every_kind(monkeypatch, spec, bits):
    for seed in _seeds(spec):
        reader, fresh = _run_both_ways(monkeypatch, spec, seed, bits, 60)
        assert reader == fresh, (spec, seed)


@pytest.mark.parametrize(
    "nodes, depth", [(8, 200), (12, 200), (16, 200), (22, 200), (10_000, 6), (10_000, 9)]
)
def test_reader_matches_fresh_readings_on_every_kind_under_small_term_budgets(
    monkeypatch, nodes, depth
):
    stops = 0
    with term_budgets(nodes, depth):
        for spec in KINDS:
            for seed in _seeds(spec):
                reader, fresh = _run_both_ways(monkeypatch, spec, seed, 4096, 40)
                assert reader == fresh, (spec, seed)
                stops += json.loads(reader[0][-1])["theta_stop"] is not None
    assert stops


def test_a_certificate_at_the_node_budget_is_written_and_verifies():
    # printing a certificate must not lift it into a term one node larger
    with term_budgets(16, 200):
        result = run("classic", 5, max_steps=40, certify="both")
        assert result.outcome == "step_cap"
        assert max(r.theta.size for r in result.records if r.theta is not None) == 16
        lines = result.trace_lines()
        report = verify_trace(lines)
        # repr prints the certificate as the trace writes it
        written = [json.loads(ln).get("theta") for ln in lines[1:-1]]
        assert [None if r.theta is None else repr(r.theta) for r in result.records] == written
    assert report.ok, report.problems
    assert report.steps == len(result.records)
