"""End-to-end runs, trace verification, tampering, and the witness chain."""

import functools
import itertools
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fractal_goodstein import ordinal_terms
from fractal_goodstein.cli import DEFAULT_MAX_STEPS, DEFAULT_STEPDOWN_LIMIT
from fractal_goodstein.interpretations import ThetaReader
from fractal_goodstein.numerals import BitBudget
from fractal_goodstein.ordinal_terms import as_cnt, lift, parse_term, term_to_str
from fractal_goodstein.runner import (
    RunResult,
    StepRecord,
    lower_bound_chain,
    run,
    verify_trace,
    write_trace,
)
from fractal_goodstein.successors import (
    ClassicHierarchy,
    DiagonalHierarchy,
    FiniteForHierarchy,
    OuroborosHierarchy,
    PlusChainHierarchy,
    PlusHierarchy,
    hierarchy_from_spec,
    static_hierarchy_from_spec,
)
from oracles import term_budgets


def naive_rebase(n, b, c):
    """Textbook hereditary base change, written digit by digit.

    Deliberately shares no code with the library: little-endian digit loop
    with recursion on the exponent.
    """
    if n < b:
        return n
    total, e = 0, 0
    while n:
        n, d = divmod(n, b)
        if d:
            total += d * c ** naive_rebase(e, b, c)
        e += 1
    return total


def naive_goodstein(seed, steps):
    vals, v = [seed], seed
    for i in range(steps):
        if v == 0:
            break
        v = naive_rebase(v, i + 2, i + 3) - 1
        vals.append(v)
    return vals


def test_classic_runs_match_the_textbook_simulator():
    for seed in range(17):
        want = naive_goodstein(seed, 25)
        got = run("classic", seed, max_steps=25, certify="none")
        assert [r.value for r in got.records] == want, seed


def test_classic_seed_3_terminates_with_certificates():
    r = run("classic", 3, certify="both")
    assert r.outcome == "terminated"
    assert [rec.value for rec in r.records] == [3, 3, 3, 2, 1, 0]
    assert [term_to_str(lift(rec.theta)) for rec in r.records] == [
        "v(W^1*1+v(W^1*1)+w)",
        "v(W^1*1)",
        "v(3)",
        "v(2)",
        "w",
        "1",
    ]
    # the p-side needs indices below the minimum base, so it stops early
    assert r.psi_stop == {
        "step": 1,
        "reason": "index 2 is out of range for this hierarchy pair",
    }
    assert r.records[0].psi_n == 3 and r.records[1].psi_n == 3
    assert verify_trace(r.trace_lines()).ok


def test_classic_small_seeds_terminate():
    for seed in (0, 1, 2):
        r = run("classic", seed, certify="both")
        assert r.outcome == "terminated"
        assert r.records[-1].value == 0
        assert verify_trace(r.trace_lines()).ok


def test_classic_seed_4_certified_prefix():
    r = run("classic", 4, max_steps=25, certify="both")
    assert r.outcome == "step_cap"
    assert len(r.records) == 26
    assert r.theta_stop is None  # every step carries a v-certificate
    assert all(rec.theta is not None for rec in r.records)
    assert verify_trace(r.trace_lines()).ok


def test_budget_death_is_an_outcome_not_a_crash():
    r = run("ouroboros", 5, certify="both")
    assert r.outcome == "budget_exceeded"
    assert "exceeds budget" in r.detail
    assert [rec.value for rec in r.records] == [5, 27]
    assert verify_trace(r.trace_lines()).ok


def test_base_column_death_is_an_outcome_too():
    # seed 4 dies while finding the base of step 2, not in the upgrade
    r = run("ouroboros", 4, certify="both", max_steps=8)
    assert r.outcome == "budget_exceeded"
    assert "exceeds budget" in r.detail
    assert [rec.value for rec in r.records] == [4, 26]
    # lines can come from a one-shot generator: the verifier reads each once
    report = verify_trace(line for line in r.trace_lines())
    assert report.ok
    assert (report.outcome, report.steps) == ("budget_exceeded", 2)


@pytest.mark.parametrize(
    "witness, reason",
    [(10**6, "witness overtook the value"), (0, "witness chain lost its linkage")],
)
def test_a_bad_witness_stops_psi_evidence_and_nothing_else(monkeypatch, witness, reason):
    # the real majorize_witness triggers neither stop on the runs tested; the
    # verifier replays under the same patch, so the recorded stop reproduces
    values = [rec.value for rec in run("ouroboros", 3, certify="both").records]
    monkeypatch.setattr("fractal_goodstein.runner.majorize_witness", lambda *args: witness)
    r = run("ouroboros", 3, certify="both")
    assert r.psi_stop == {"step": 1, "reason": reason}
    assert [rec.value for rec in r.records] == values
    assert verify_trace(r.trace_lines()).ok


def test_a_certificate_that_fails_to_decrease_is_reported(monkeypatch):
    # the verifier replays the run's own reader, so a wrong reading would
    # recompute; the descent check on the replayed terms is what catches it
    first = run("classic", 3, certify="theta").records[0].theta
    monkeypatch.setattr(ThetaReader, "value", lambda self, stage, n: first)
    assert verify_trace(run("classic", 3, certify="theta").trace_lines()).problems == [
        f"step {i}: theta certificate fails to decrease" for i in range(1, 6)
    ]


def test_trace_file_round_trip(tmp_path):
    r = run("classic", 3, certify="both")
    p = tmp_path / "trace.jsonl"
    with open(p, "w", encoding="utf-8") as fh:
        write_trace(r, fh)
    assert verify_trace(str(p)).ok


# --- tampering ----------------------------------------------------------------


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


def _row_past_the_end(lines):
    """The trace of a terminated run with its last row copied under the next index."""
    extra = _mutate(lines[-2:-1], 0, "i", len(lines) - 2)
    return _mutate(lines[:-1] + extra + lines[-1:], -1, "steps", len(lines) - 1)


@pytest.fixture(scope="module")
def certified_lines():
    return run("classic", 3, certify="both").trace_lines()


@functools.cache
def _trace(spec, seed, max_steps, bits, certify):
    return run(spec, seed, max_steps=max_steps, budget=BitBudget(bits), certify=certify).trace_lines()


def _header(spec, seed, max_steps, bits, certify, key, value, subkey=None):
    """A tampering of the header of another run's trace."""
    return lambda ls: _mutate(_trace(spec, seed, max_steps, bits, certify), 0, key, value, subkey)


_PLUS_CHAIN = ("plus-chain: 2,6", 3, 5, 1 << 20, "both")
_ONE_STEP = ("classic", 3, 1, 1 << 20, "both")
_ONE_BIT = ("classic", 1, 3, 1, "none")


TAMPERINGS = [
    ("seed", lambda ls: _mutate(ls, 0, "seed", "4")),
    ("hierarchy", lambda ls: _mutate(ls, 0, "hierarchy", "ouroboros")),
    ("step index", lambda ls: _mutate(ls, 2, "i", 7)),
    ("value", lambda ls: _mutate(ls, 2, "value", "5")),
    ("base", lambda ls: _mutate(ls, 2, "base", 9)),
    ("theta cert", lambda ls: _mutate(ls, 2, "theta", "v(4)")),
    ("psi n", lambda ls: _mutate(ls, 1, "psi", "4", subkey="n")),
    ("psi u", lambda ls: _mutate(ls, 1, "psi", "p(W^1*1)", subkey="u")),
    ("outcome", lambda ls: _mutate(ls, -1, "outcome", "step_cap")),
    ("steps", lambda ls: _mutate(ls, -1, "steps", 5)),
    ("detail", lambda ls: _mutate(ls, -1, "detail", "x")),
    ("cert deletion", lambda ls: _drop_key(ls, 2, "theta")),
    ("psi deletion", lambda ls: _drop_key(ls, 1, "psi")),
    ("row deletion", lambda ls: ls[:3] + ls[4:]),
    # stops are re-derived, not trusted
    ("psi stop reason", lambda ls: _mutate(ls, -1, "psi_stop", "made up", subkey="reason")),
    ("psi stop step", lambda ls: _mutate(ls, -1, "psi_stop", 0, subkey="step")),
    (
        "theta stop forgery",
        lambda ls: _mutate(
            _drop_key(ls, 2, "theta"), -1, "theta_stop", {"step": 1, "reason": "made up"}
        ),
    ),
    # other spellings of the true integer (value 3, seed 3, psi n 3): int(s, 16)
    # reads each string as 3 and int() takes the number, yet only the
    # canonical string is accepted
    ("value 0x", lambda ls: _mutate(ls, 2, "value", "0x3")),
    ("value leading zero", lambda ls: _mutate(ls, 2, "value", "03")),
    ("value space", lambda ls: _mutate(ls, 2, "value", " 3")),
    ("value plus", lambda ls: _mutate(ls, 2, "value", "+3")),
    ("seed underscore", lambda ls: _mutate(ls, 0, "seed", "0_3")),
    ("psi n number", lambda ls: _mutate(ls, 1, "psi", 3, subkey="n")),
    # other spellings of the true term: parse_term reads each as the term
    # written, yet only the canonical string is accepted
    ("theta plus zero", lambda ls: _mutate(ls, 1, "theta", "v(W^1*1+v(W^1*1)+w)+0")),
    ("theta zero plus", lambda ls: _mutate(ls, 1, "theta", "0+v(W^1*1+v(W^1*1)+w)")),
    ("psi u zero plus", lambda ls: _mutate(ls, 1, "psi", "0+p(W^1*1+1)", subkey="u")),
    ("version 1", lambda ls: _mutate(ls, 0, "version", 1)),
    ("row past the end", _row_past_the_end),
    # other spellings of the true header: the hierarchy description parses to
    # the same hierarchy and the caps compare equal to the true ones, yet only
    # what run writes is accepted
    ("hierarchy finite", _header(*_PLUS_CHAIN, "hierarchy", "finite: 2,6")),
    ("hierarchy zero and comma", _header(*_PLUS_CHAIN, "hierarchy", "plus-chain:02,,6")),
    ("hierarchy digits", _header(*_PLUS_CHAIN, "hierarchy", "plus-chain: \u0662,\u0666")),
    ("hierarchy spaces", _header(*_PLUS_CHAIN, "hierarchy", " plus-chain: 2, 6 ")),
    ("max steps true", _header(*_ONE_STEP, "caps", True, subkey="max_steps")),
    ("bit budget true", _header(*_ONE_BIT, "caps", True, subkey="bit_budget")),
    ("bit budget float", _header(*_ONE_BIT, "caps", 1.0, subkey="bit_budget")),
    # what compares equal to what run writes, or reads as it when missing, is
    # still not what run writes: a float version or stop step, an outcome line
    # without a key (read as None), and an extra key anywhere
    ("version float", lambda ls: _mutate(ls, 0, "version", 2.0)),
    ("psi stop step float", lambda ls: _mutate(ls, -1, "psi_stop", 1.0, subkey="step")),
    ("detail deletion", lambda ls: _drop_key(ls, -1, "detail")),
    ("theta stop deletion", lambda ls: _drop_key(ls, -1, "theta_stop")),
    ("psi stop deletion", lambda ls: _drop_key(ls, -1, "psi_stop")),
    ("caps extra key", lambda ls: _mutate(ls, 0, "caps", 0, subkey="extra")),
    ("psi extra key", lambda ls: _mutate(ls, 1, "psi", 0, subkey="extra")),
    ("header extra key", lambda ls: _mutate(ls, 0, "extra", 0)),
    ("row extra key", lambda ls: _mutate(ls, 2, "extra", 0)),
    ("outcome extra key", lambda ls: _mutate(ls, -1, "extra", 0)),
]


@pytest.mark.parametrize("label,mutate", TAMPERINGS, ids=[t[0] for t in TAMPERINGS])
def test_single_field_tampering_is_rejected(certified_lines, label, mutate):
    report = verify_trace(mutate(list(certified_lines)))
    assert not report.ok, label
    assert report.problems


def test_untampered_control(certified_lines):
    assert verify_trace(list(certified_lines)).ok


def test_a_theta_stop_step_is_a_json_int():
    # a term budget of 8 nodes stops theta evidence at step 0; the stop
    # replays, but not with its step written as 0.0
    with term_budgets(8):
        lines = run("classic", 4, max_steps=5, certify="theta").trace_lines()
        assert json.loads(lines[-1])["theta_stop"]["step"] == 0
        assert verify_trace(lines).ok
        report = verify_trace(_mutate(lines, -1, "theta_stop", 0.0, subkey="step"))
    assert report.problems == ["outcome line: theta_stop does not reproduce"]


def test_other_caps_that_replay_the_same_rows_are_true_claims(certified_lines):
    # the run terminates in 6 steps, well inside either cap: the trace is
    # also the run under these caps, so the verifier accepts it
    for key, value in (("bit_budget", 1 << 16), ("max_steps", 6), ("max_steps", 1000)):
        assert verify_trace(_mutate(certified_lines, 0, "caps", value, subkey=key)).ok, key


# short traces of every kind, each with a stop, a death or a capped ending
_MUTATED_RUNS = [
    ("classic", 3, None, "both", None),
    ("classic", 4, 4, "theta", None),
    ("ouroboros", 3, None, "both", None),
    ("plus-chain: 2,6", 12, 3, "both", None),
    ("diagonal", 2, None, "both", None),
    ("finite-for: 3", 2, None, "both", None),
    ("finite-for: 4", 4, None, "psi", 3),
]


def _leaf_mutations(v):
    """±1, a sign flip, type swaps and string edits of one JSON value."""
    if isinstance(v, int):
        return [v + 1, v - 1, -v - (v == 0), str(v), float(v), None, True]
    if isinstance(v, str):
        edits = [v + "0", v[:-1], v.upper(), " " + v, v + " ", v[1:] + v[:1], "-" + v]
        swaps = [None, 0, 1.5]
        if all(c in "0123456789abcdef" for c in v):  # a hex integer
            n = int(v, 16)
            edits += [format(n + 1, "x"), format(abs(n - 1), "x")]
            swaps.append(n)
        return edits + swaps
    return [0, "", False, {}, []]  # None


def _mutations(doc, path=()):
    """(path, doc) for each single-field mutation of a JSON object: every
    leaf's value mutations, an extra key in every object, and each key deleted."""
    yield path + ("extra",), {**doc, "extra": 0}
    for k, v in doc.items():
        yield path + (k, "deleted"), {kk: vv for kk, vv in doc.items() if kk != k}
        subs = _mutations(v, path + (k,)) if isinstance(v, dict) else (
            (path + (k,), m) for m in _leaf_mutations(v)
        )
        for sub_path, sub in subs:
            yield sub_path, {**doc, k: sub}


def _run_for_header(head, rows):
    """The trace run writes for what a header claims, if it has at most rows rows.

    A run the header leaves uncapped, or capped past rows, runs only to
    step rows: if it reaches it, it is longer than the trace."""
    try:
        caps = head["caps"]
        cap = caps["max_steps"]
        r = run(
            head["hierarchy"],
            int(head["seed"], 16),
            max_steps=rows if cap is None or type(cap) is int and cap > rows else cap,
            budget=BitBudget(caps["bit_budget"]),
            certify=caps["certify"],
            horizon=caps.get("horizon"),
        )
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    if len(r.records) > rows:
        return None
    r.max_steps = cap
    return r.trace_lines()


def test_every_single_field_mutation_is_rejected_unless_run_writes_it():
    # a mutated row or outcome line is never the line run writes; a mutated
    # header is accepted exactly when run writes the same rows under its
    # claims: a bit budget or step cap that never binds here, or (at horizon
    # 3) a finite-for bound that the horizon death comes before
    accepted, count = set(), 0
    for spec, seed, max_steps, certify, horizon in _MUTATED_RUNS:
        lines = run(spec, seed, max_steps=max_steps, certify=certify, horizon=horizon).trace_lines()
        assert verify_trace(lines).ok
        for at, line in enumerate(lines):
            for path, doc in _mutations(json.loads(line)):
                forged = lines[:at] + [json.dumps(doc)] + lines[at + 1 :]
                if forged == lines:
                    continue
                count += 1
                written = at == 0 and _run_for_header(doc, len(lines) - 2) == forged
                assert verify_trace(forged).ok == written, (spec, at, path, forged[at])
                if written:
                    accepted.add(path)
    assert count >= 2_000
    assert ("caps", "bit_budget") in accepted
    assert accepted <= {("caps", "bit_budget"), ("caps", "max_steps"), ("hierarchy",)}


@pytest.mark.parametrize(
    "at, respell",
    [
        (0, lambda ln: json.dumps(json.loads(ln), separators=(",", ":"))),
        (0, lambda ln: json.dumps(json.loads(ln), sort_keys=True)),
        (0, lambda ln: ln.replace('"classic"', '"cl\\u0061ssic"')),
        (2, lambda ln: ln + " "),
        (2, lambda ln: json.dumps(json.loads(ln), indent=1).replace("\n", "")),
        (2, lambda ln: json.dumps(dict(reversed(json.loads(ln).items())))),
        (2, lambda ln: ln.replace('"v(', '"\\u0076(')),
        (-1, lambda ln: ln.replace(", ", ",")),
        (-1, lambda ln: json.dumps(json.loads(ln), sort_keys=True)),
        (-1, lambda ln: ln.replace("index", "\\u0069ndex")),
    ],
    ids=[
        "header separators",
        "header key order",
        "header escape",
        "row trailing space",
        "row indent",
        "row key order",
        "row escape",
        "outcome separators",
        "outcome key order",
        "outcome escape",
    ],
)
def test_a_line_equal_as_json_but_spelled_otherwise_is_rejected(certified_lines, at, respell):
    lines = list(certified_lines)
    lines[at] = respell(lines[at])
    assert json.loads(lines[at]) == json.loads(certified_lines[at])
    assert lines[at] != certified_lines[at]
    report = verify_trace(lines)
    assert not report.ok
    assert report.problems[0].endswith("equal as JSON to what run writes, but spelled otherwise")


def test_a_seed_is_an_int():
    for seed in (2.5, True, "3", None):
        with pytest.raises(ValueError, match="seeds are nonnegative integers"):
            run("classic", seed)


_COUNTS = {
    "finite-for bound seed": (FiniteForHierarchy, "the bound seed cannot be negative"),
    "successor index": (lambda i: PlusHierarchy([2, 6], i), "successor index cannot be negative"),
    "chain depth": (lower_bound_chain, "chain depth must be nonnegative"),
    "run cap": (lambda n: lower_bound_chain(0, run_cap=n), "the run cap cannot be negative"),
}


@pytest.mark.parametrize("count", [True, False, 2.5, "1", None, -1])
@pytest.mark.parametrize("argument", list(_COUNTS))
def test_a_count_is_a_nonnegative_int(argument, count):
    # a bool is not a count: True built successor index 1 and wrote the
    # header "finite-for: True", which its own verifier rejected; a run cap
    # of -1 reported "run cap of -1 steps reached"
    build, negative = _COUNTS[argument]
    text = negative if count == -1 else f"a count is a nonnegative int, not {type(count).__name__}"
    with pytest.raises(ValueError) as exc:
        build(count)
    assert str(exc.value).startswith(text)


def test_trace_integers_are_canonical_hex():
    lines = run("classic", 4, max_steps=3, certify="none").trace_lines()
    assert json.loads(lines[2])["value"] == "1a"  # 26
    assert verify_trace(lines).ok
    for spelling in ("1A", "0x1a", "01a", "1_a", "+1a", " 1a", 26):
        report = verify_trace(_mutate(lines, 2, "value", spelling))
        assert not report.ok, spelling
        assert report.problems == ["step 1: value does not recompute"], spelling


@pytest.mark.parametrize(
    "row, key, value, problem",
    [
        (1, "base", 2.0, "step 0: base does not recompute"),
        (2, "i", True, "step 1: i does not recompute"),
        (3, "i", 2.0, "step 2: i does not recompute"),
        (-1, "steps", 6.0, "outcome line: steps does not reproduce"),
    ],
    ids=["base float", "index true", "index float", "steps float"],
)
def test_row_and_step_counts_are_json_ints(row, key, value, problem):
    # each compares equal to the true count, but run writes only ints
    lines = run("classic", 4, max_steps=5).trace_lines()
    assert verify_trace(lines).ok
    assert verify_trace(_mutate(lines, row, key, value)).problems == [problem]


def test_trace_terms_are_canonical():
    lines = run("classic", 4, max_steps=30, certify="both").trace_lines()
    theta = json.loads(lines[3])["theta"]
    assert theta == "v(W^2*2+W^1*2+w)"
    for spelling in (theta + "+0", "0+" + theta, "w+" + theta, "v(W^2*2+W^1*2+0+w)"):
        assert as_cnt(parse_term(spelling)) == as_cnt(parse_term(theta)), spelling
        report = verify_trace(_mutate(lines, 3, "theta", spelling))
        assert not report.ok, spelling
        assert report.problems == ["step 2: theta does not recompute"], spelling


@pytest.fixture
def no_parse(monkeypatch):
    """Make any parse of a term fail the test, whichever name it is reached by."""

    def refuse(self, text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(ordinal_terms._Parser, "__init__", refuse)


@pytest.mark.parametrize(
    "spec,seed,psi_rows",
    [("classic", 3, 2), ("ouroboros", 3, 6), ("finite-for: 3", 2, 4)],
)
def test_replayed_terms_are_matched_without_parsing(no_parse, spec, seed, psi_rows):
    # a row is checked by printing the replayed terms, never by reading the claimed ones
    r = run(spec, seed, certify="both")
    assert r.outcome == "terminated"
    assert all(rec.theta is not None for rec in r.records)
    assert sum(rec.psi_u is not None for rec in r.records) == psi_rows
    assert verify_trace(r.trace_lines()).ok


def test_verify_parses_no_term_of_a_tampered_or_untampered_trace(no_parse, certified_lines):
    assert verify_trace(list(certified_lines)).ok
    for label, mutate in TAMPERINGS:
        assert not verify_trace(mutate(list(certified_lines))).ok, label


def test_a_canonical_but_wrong_term_is_still_checked():
    # a term that prints canonically but is not the replayed one is no
    # longer read at all: its row is not the row run writes, and the rows
    # after it still replay
    lines = run("classic", 3, certify="both").trace_lines()
    forged = _mutate(lines, 3, "theta", json.loads(lines[2])["theta"])
    assert verify_trace(forged).problems == ["step 2: theta does not recompute"]
    lines = run("ouroboros", 3, certify="both").trace_lines()
    forged = _mutate(lines, 4, "psi", json.loads(lines[5])["psi"]["u"], subkey="u")
    assert verify_trace(forged).problems == ["step 3: psi does not recompute"]


def test_a_claimed_theta_of_the_wrong_flavor_is_a_row_that_does_not_recompute():
    # the p-collapse is not the replayed v-collapse; the descent check runs
    # on the replayed terms, so the rows after it still verify
    lines = run("classic", 4, max_steps=6, certify="theta").trace_lines()
    assert verify_trace(_mutate(lines, 3, "theta", "p(W^2*1)")).problems == [
        "step 2: theta does not recompute",
    ]


def test_a_claimed_witness_of_the_wrong_flavor_is_a_row_that_does_not_recompute():
    # the replay's own chain links: only the tampered row is rejected
    lines = run("ouroboros", 3, max_steps=6, certify="both").trace_lines()
    assert verify_trace(_mutate(lines, 2, "psi", "v(W^1*1)", subkey="u")).problems == [
        "step 1: psi does not recompute",
    ]


def test_version_1_traces_are_rejected_by_name(certified_lines):
    report = verify_trace(_mutate(certified_lines, 0, "version", 1))
    assert not report.ok
    assert report.problems[0].startswith("trace version 1 is not supported")
    assert "decimal" in report.problems[0] and "re-run" in report.problems[0]


def test_trace_io_leaves_the_int_digit_limit_alone():
    limit = getattr(sys, "get_int_max_str_digits", None)
    before = limit() if limit else None
    # climbs to 844k bits: a decimal trace would need 254k digits
    r = run("classic", 2**15 + 8, certify="none")
    assert r.outcome == "budget_exceeded"
    assert r.records[-1].value.bit_length() == 844247
    report = verify_trace(r.trace_lines())
    assert report.ok
    assert report.steps == 5
    if limit:
        assert limit() == before


def _peak(f):
    """f's result and the peak of the memory tracemalloc sees it take."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_row_holds_its_hex_text_once_besides_the_line():
    # json.dumps of a row holds the hex text, its quoted copy and the line
    # at once: a peak of 3.0 hex widths for one wide row, and 5.2 widths of
    # the widest row for the verify of classic seed 2^15 + 8; a row that
    # copies its hex text only into the line takes one width off each
    row = StepRecord(0, (1 << 4_000_000) - 1, 2)
    result = RunResult("classic", 1, "none", 1 << 23, None, [row], "step_cap")
    lines, peak = _peak(result.trace_lines)
    assert len(lines[1]) > 1_000_000
    assert peak < 2.5 * 1_000_000
    r = run("classic", 2**15 + 8, certify="none")
    widest = max(len(format(rec.value, "x")) for rec in r.records)
    lines = r.trace_lines()
    report, peak = _peak(lambda: verify_trace(lines))
    assert report.ok
    assert peak < 4.7 * widest


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize(
    "row, key, subkey", [(0, "caps", "max_steps"), (2, "base", None), (-1, "steps", None)]
)
def test_an_integer_past_the_digit_limit_is_an_unreadable_trace(
    certified_lines, tmp_path, capsys, row, key, subkey
):
    # json.loads cannot read the number, and the limit stays as it is
    wide = "1" + "0" * _DIGIT_LIMIT
    lines = [ln.replace('"wide"', wide) for ln in _mutate(certified_lines, row, key, "wide", subkey)]
    report = verify_trace(lines)
    assert not report.ok
    assert len(report.problems) == 1
    assert report.problems[0].startswith("unreadable trace: ")
    assert str(_DIGIT_LIMIT) in report.problems[0]
    p = tmp_path / "wide.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli("verify", str(p)) == 1
    assert capsys.readouterr().err.startswith("unreadable trace: ")
    assert sys.get_int_max_str_digits() == _DIGIT_LIMIT


def test_budget_outcome_tampering_is_rejected():
    lines = run("ouroboros", 5, certify="none").trace_lines()
    assert verify_trace(lines).ok
    forged = _mutate(lines, -1, "outcome", "terminated")
    assert not verify_trace(forged).ok
    # the death reason is pinned too: a different budget gives a different death
    forged = _mutate(lines, 0, "caps", 1 << 30, subkey="bit_budget")
    assert not verify_trace(forged).ok
    forged = _mutate(lines, -1, "detail", "exceeds budget of 7 bits")
    assert not verify_trace(forged).ok


def test_step_cap_tampering_is_rejected():
    lines = run("classic", 4, max_steps=10, certify="none").trace_lines()
    assert verify_trace(lines).ok
    docs = [json.loads(ln) for ln in lines]
    docs[0]["caps"]["max_steps"] = 12
    assert not verify_trace([json.dumps(d) for d in docs]).ok
    # a negative or fractional cap is no cap any run can have
    for forged_cap in (-1, 10.5):
        report = verify_trace(_mutate(lines, 0, "caps", forged_cap, subkey="max_steps"))
        assert not report.ok
        assert report.problems[0].startswith("malformed header")


@pytest.mark.parametrize("spec, seed, horizon", [("diagonal", 2, 6), ("finite-for: 4", 4, 3)])
def test_a_run_under_a_short_horizon_verifies(spec, seed, horizon):
    result = run(spec, seed, horizon=horizon)
    assert result.outcome == "budget_exceeded"
    assert f"needs more than {horizon} materialized bases" in result.detail
    lines = result.trace_lines()
    assert json.loads(lines[0])["caps"]["horizon"] == horizon
    assert verify_trace(lines).ok


def test_a_spec_string_runs_under_the_default_horizon_unless_given_one():
    assert run("diagonal", 2, certify="none").horizon == 512
    assert run("diagonal", 2, certify="none", horizon=None).horizon == 512
    assert run("diagonal", 2, certify="none", horizon=6).horizon == 6


def test_a_hierarchy_object_keeps_its_own_horizon():
    with pytest.raises(ValueError) as exc:
        run(DiagonalHierarchy(), 2, horizon=6)
    assert "carries its own horizon (512)" in str(exc.value)
    # the same horizon, or none, runs under the object's
    by_object = run(DiagonalHierarchy(horizon=6), 2, horizon=6)
    assert by_object.horizon == 6
    assert by_object.detail == run("diagonal", 2, horizon=6).detail
    assert run(DiagonalHierarchy(horizon=6), 2, horizon=None).horizon == 6


def test_the_default_horizon_stays_out_of_the_header(certified_lines):
    assert "horizon" not in json.loads(certified_lines[0])["caps"]


def test_an_explicit_default_horizon_is_a_malformed_header():
    # run records the horizon only when it is not the default, so the
    # default written out is a header no run produces
    lines = run("plus-chain: 2,6", 3, max_steps=5, certify="both").trace_lines()
    assert verify_trace(lines).ok
    report = verify_trace(_mutate(lines, 0, "caps", 512, subkey="horizon"))
    assert not report.ok
    assert report.problems[0].startswith("malformed header")


def test_horizon_tampering_is_rejected():
    lines = run("diagonal", 2, horizon=6).trace_lines()
    for forged_horizon in (5, 7, 512):
        forged = _mutate(lines, 0, "caps", forged_horizon, subkey="horizon")
        assert not verify_trace(forged).ok
    for forged_horizon in (0, -6, 6.5, "6", True, None):
        report = verify_trace(_mutate(lines, 0, "caps", forged_horizon, subkey="horizon"))
        assert not report.ok
        assert report.problems[0].startswith("malformed header")
    with pytest.raises(ValueError):
        run("diagonal", 2, horizon=0)


def test_replay_stops_one_step_past_the_trace(monkeypatch):
    # five rows of a run that never terminates, claimed as a finished run
    lines = run("classic", 4, max_steps=4, certify="both").trace_lines()
    forged = _mutate(lines, 0, "caps", None, subkey="max_steps")
    forged = _mutate(forged, -1, "outcome", "terminated")
    upgrades = []
    real = ClassicHierarchy.upgrade_step

    def counted(self, i, n):
        upgrades.append(i)
        assert len(upgrades) <= 50, "the replay ran on past the trace"
        return real(self, i, n)

    monkeypatch.setattr(ClassicHierarchy, "upgrade_step", counted)
    report = verify_trace(forged)
    assert not report.ok
    assert "the run goes on past the end of the trace" in report.problems[0]
    # four upgrades between the five rows, and one to find the sixth
    assert upgrades == [0, 1, 2, 3, 4]


def test_a_replay_that_fails_one_step_past_the_trace_is_reported():
    # no rows, and a seed over the stage-0 bound: the replay fails on the
    # step it takes to find the end of the run
    lines = run("finite-for: 3", 2).trace_lines()
    forged = _mutate([lines[0], lines[-1]], 0, "seed", "5")
    report = verify_trace(forged)
    assert not report.ok
    assert report.problems == [
        "step 0: recomputation failed: value exceeds the stage-0 bound 3",
    ]


def test_a_deleted_row_ends_the_comparison():
    # the rows after a row of another index or value tell of another run,
    # so the 37 rows after the gap add no problem of their own
    lines = run("classic", 4, max_steps=40, certify="both").trace_lines()
    assert verify_trace(lines[:3] + lines[4:]).problems == [
        "step 2: i, value, base, theta do not recompute"
    ]


def test_a_row_past_the_end_of_the_run_is_reported(certified_lines):
    # classic seed 3 terminates after six rows; a seventh is compared with
    # the outcome line run writes, and the claimed outcome line with nothing
    extra = _mutate(certified_lines[-2:-1], 0, "i", 6)
    report = verify_trace(certified_lines[:-1] + extra + certified_lines[-1:])
    assert report.problems == ["step 6: trace continues past the end of the run"]
    assert (report.steps, report.outcome) == (7, "terminated")


def test_a_deleted_outcome_line_is_reported(certified_lines):
    # the last row is read as the outcome line, where run writes that row
    report = verify_trace(certified_lines[:-1])
    assert report.problems == ["step 5: the run goes on past the end of the trace"]
    assert (report.steps, report.outcome) == (5, None)


def test_unwanted_certificates_are_rejected():
    lines = run("classic", 3, certify="both").trace_lines()
    docs = [json.loads(ln) for ln in lines]
    docs[0]["caps"]["certify"] = "none"
    assert not verify_trace([json.dumps(d) for d in docs]).ok


# --- lower bound chain ----------------------------------------------------------


def test_lower_bound_chain_k0():
    c = lower_bound_chain(0)
    assert c.seed == 2
    assert [s.n for s in c.steps] == [2, 1, 0]
    assert c.complete
    assert c.verified_steps == 2
    assert c.chain_failure is None
    # the side run actually terminates here, nothing to report
    assert c.run_values == [2, 2, 1, 0]
    assert c.run_failure is None


def test_lower_bound_chain_k1():
    c = lower_bound_chain(1)
    assert c.seed == 4
    assert [s.n for s in c.steps] == [4, 1, 0]
    assert c.complete
    assert c.verified_steps >= 2
    assert all(s.linked for s in c.steps)
    assert c.chain_failure is None
    # the side run exhausts a resource; the failure is reported, never dropped
    assert c.run_values[:2] == [4, 26]
    assert c.run_failure is not None
    assert c.run_failure.startswith("step 2:")
    assert "needs more than" in c.run_failure
    # it dies inside the lazy index-2 successor, on the horizon, after the
    # value reached 400 bits; under 16 bits it dies a step earlier
    assert [v.bit_length() for v in c.run_values] == [3, 5, 400]
    assert c.run_failure.endswith("needs more than 512 materialized bases")
    tight = lower_bound_chain(1, budget=BitBudget(16))
    assert [s.n for s in tight.steps] == [4, 1, 0] and tight.complete
    assert tight.run_values == [4, 26]
    assert tight.run_failure == "step 1: 4160**2 exceeds budget of 16 bits"


def test_lower_bound_chain_over_budget_seed_is_reported():
    # the tower seed 2^^6 is far wider than the default budget: both sides
    # report that, and the call itself does not raise
    c = lower_bound_chain(5)
    assert c.seed is None
    assert c.steps == [] and c.run_values == []
    assert not c.complete
    assert c.verified_steps == 0
    message = "seed: 2**<65537-bit integer> exceeds budget of 1048576 bits"
    assert c.chain_failure == c.run_failure == message


def test_lower_bound_chain_reports_its_limits():
    # both halves die on the budget at their first step, and say so
    c = lower_bound_chain(2, budget=BitBudget(8))
    assert c.seed == 16 and len(c.steps) == 1 and not c.complete
    assert c.chain_failure == "step 0: 3**27 exceeds budget of 8 bits"
    assert c.run_failure == "step 0: 3**27 exceeds budget of 8 bits"
    assert c.run_values == [16]
    capped = lower_bound_chain(0, run_cap=1)
    assert capped.complete and capped.chain_failure is None
    assert capped.run_values == [2, 2]
    assert capped.run_failure == "run cap of 1 steps reached"


# --- spec strings ----------------------------------------------------------------


def test_hierarchy_from_spec():
    assert isinstance(hierarchy_from_spec("classic"), ClassicHierarchy)
    assert isinstance(hierarchy_from_spec("ouroboros"), OuroborosHierarchy)
    assert isinstance(hierarchy_from_spec("diagonal"), DiagonalHierarchy)
    ff = hierarchy_from_spec("finite-for: 3")
    assert isinstance(ff, FiniteForHierarchy)
    assert ff.spec_string() == "finite-for: 3"
    pc = hierarchy_from_spec("plus-chain: 2,6")
    assert isinstance(pc, PlusChainHierarchy)
    assert pc.stage(0).known_elements() == (2, 6)
    # a bare finite hierarchy runs as the chain it generates
    assert isinstance(hierarchy_from_spec("finite: 2,6"), PlusChainHierarchy)


def test_hierarchy_from_spec_rejects_junk():
    for bad in ("spiral", "finite-for:", "finite-for: x", "plus-chain: 2,5", ""):
        with pytest.raises(ValueError):
            hierarchy_from_spec(bad)


def test_static_hierarchy_from_spec():
    assert static_hierarchy_from_spec("2,6").known_elements() == (2, 6)
    assert static_hierarchy_from_spec("finite: 2,6").known_elements() == (2, 6)
    with pytest.raises(ValueError):
        static_hierarchy_from_spec("2,5")


def test_run_accepts_objects_and_budgets():
    r = run("classic", 3, budget=BitBudget(1 << 10), certify="theta")
    assert r.outcome == "terminated"
    assert r.bit_budget == 1 << 10
    h = hierarchy_from_spec("classic")
    assert run(h, 3, certify="theta").outcome == "terminated"
    # an object already carries a budget; a second one is a contradiction
    with pytest.raises(ValueError):
        run(h, 3, budget=BitBudget(1 << 10))
    with pytest.raises(ValueError):
        run("classic", 4, max_steps=-1)


# --- command line ----------------------------------------------------------------


def cli(*argv):
    from fractal_goodstein.cli import main

    return main(list(argv))


def test_cli_run_and_verify(tmp_path, capsys):
    p = tmp_path / "t.jsonl"
    assert cli("run", "--hierarchy", "classic", "--seed", "3", "--out", str(p)) == 0
    out = capsys.readouterr().out
    assert "terminated" in out
    assert cli("verify", str(p)) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_run_writes_jsonl_to_stdout(capsys):
    assert cli("run", "--hierarchy", "classic", "--seed", "2") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["format"] == "goodstein-trace"
    assert json.loads(lines[-1])["outcome"] == "terminated"


def test_cli_verify_rejects_tampering(tmp_path, capsys):
    r = run("classic", 3, certify="both")
    forged = _mutate(r.trace_lines(), 2, "value", "9")
    p = tmp_path / "bad.jsonl"
    p.write_text("\n".join(forged) + "\n", encoding="utf-8")
    assert cli("verify", str(p)) == 1
    assert "value does not recompute" in capsys.readouterr().err


def test_cli_budget_exit_code(capsys):
    assert cli("run", "--hierarchy", "ouroboros", "--seed", "5") == 2
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert cli("run", "--hierarchy", "spiral", "--seed", "3") == 3
    assert cli("nonsense") == 3
    assert cli("run", "--hierarchy", "diagonal", "--seed", "3") == 3
    assert cli("run", "--hierarchy", "classic", "--seed", "4", "--max-steps", "-1") == 3
    assert cli("run", "--hierarchy", "classic", "--seed", "4", "--bit-budget", "0") == 3
    capsys.readouterr()


def test_cli_run_is_capped_by_default(tmp_path, capsys):
    # classic seed 4 would otherwise run for about 3 * 2**402653211 steps
    p = tmp_path / "t.jsonl"
    argv = ("run", "--hierarchy", "classic", "--seed", "4", "--certify", "none")
    assert cli(*argv, "--out", str(p)) == 0
    lines = p.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0])["caps"]["max_steps"] == DEFAULT_MAX_STEPS
    assert json.loads(lines[-1])["outcome"] == "step_cap"
    assert len(lines) == DEFAULT_MAX_STEPS + 3
    assert cli("verify", str(p)) == 0
    capsys.readouterr()


def test_cli_stepdown_is_capped_by_default(capsys):
    # w*40 steps down through 2**41 - 1 entries without a cap
    assert cli("ordinal", "stepdown", "+".join(["w"] * 40)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == DEFAULT_STEPDOWN_LIMIT + 1
    assert lines[-1] != "0"  # cut short: a finished descent ends at 0
    assert cli("ordinal", "stepdown", "w+w", "--limit", "2") == 0
    assert capsys.readouterr().out.splitlines() == ["w+w", "w+1", "w"]


def test_cli_ordinal_commands(capsys):
    assert cli("ordinal", "eval", "W^(W^1*1)*1+w") == 0
    assert capsys.readouterr().out.strip() == "W^(W^1*1)*1+w"
    assert cli("ordinal", "fs", "p(W^(W^1*1)*1)", "1") == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli("ordinal", "stepdown", "w") == 0
    assert capsys.readouterr().out.strip().splitlines() == ["w", "1", "0"]
    assert cli("ordinal", "eval", "W^") == 3
    capsys.readouterr()


def test_cli_fs_takes_a_term_index(capsys):
    # a finite term index steps a countably cofinal position; an infinite
    # one is refused there
    assert cli("ordinal", "fs", "W^1*w", "v(0)") == 0
    assert capsys.readouterr().out.strip() == "W^1*1"
    assert cli("ordinal", "fs", "W^1*w", "w") == 3
    assert "this position has countable cofinality" in capsys.readouterr().err


def test_cli_hierarchy_stage(capsys):
    assert cli("hierarchy", "stage", "--base", "2,6", "--i", "0", "--n", "6") == 0
    assert capsys.readouterr().out.strip() == "3,30"
    # the first successor of {2} outgrows the default budget before stage 8
    assert cli("hierarchy", "stage", "--base", "2", "--i", "1", "--n", "8") == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("budget exhausted: ")


def test_cli_hierarchy_stage_prints_wide_bases_by_width(capsys):
    # the event at 36 appends a base of 15,351 bits, past the int-to-str limit
    assert cli("hierarchy", "stage", "--base", "4", "--i", "2", "--n", "36") == 0
    assert "<15351-bit integer>" in capsys.readouterr().out.strip().split(",")


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python has no int-to-str digit limit")
def test_cli_run_leaves_the_out_file_alone_when_the_trace_cannot_be_written(tmp_path, capsys):
    # the run ends at its step cap, but a stage base of its last rows is wider
    # than the decimal base column can print: no trace line is written, and
    # the file the trace would replace keeps its text
    p = tmp_path / "t.jsonl"
    p.write_text("kept\n", encoding="utf-8")
    argv = ("--hierarchy", "plus-chain: 2,6", "--seed", "32", "--max-steps", "1500")
    assert cli("run", *argv, "--certify", "none", "--out", str(p)) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert p.read_text(encoding="utf-8") == "kept\n"


def test_cli_interp(capsys):
    assert cli("interp", "o", "--hierarchy", "finite: 2,6", "--n", "4") == 0
    assert capsys.readouterr().out.strip() == "v(W^(W^1*1)*1)"
    assert cli("interp", "u", "--hierarchy", "finite: 2,6", "--n", "10") == 0
    assert capsys.readouterr().out.strip() == "p(W^1*1+p(W^(W^1*1)*1))"


def test_cli_interp_prints_a_value_at_the_node_budget(capsys):
    # the value has exactly 40 nodes: printing must not lift it into a term
    # one node larger; stored terms would skip the check, so tables are cold
    with term_budgets(40):
        assert cli("interp", "o", "--hierarchy", "finite: 2,6", "--n", "16") == 0
    out = capsys.readouterr().out.strip()
    assert out == "v(W^1*v(W^1*1)+v(W^(W^1*1)*1+v(W^(W^1*1)*1))+v(W^(W^1*1)*1))"
    assert as_cnt(parse_term(out)).size == 40


CERTIFY_SPECS = [
    "classic",
    "ouroboros",
    "diagonal",
    "finite-for: 3",
    "finite-for: 4",
    "finite-for: 5",
    "plus-chain: 2,6",
    "plus-chain: 3,12",
]


def _built(h, count):
    """The first count stages and successors of h: their bases, and each successor's frontier."""
    stages = [s.known_elements() for s in h._stages[: count[0]]]
    return stages, [(p.known_elements(), p._frontier) for p in h._plus[: count[1]]]


@pytest.mark.parametrize("spec", CERTIFY_SPECS)
def test_values_do_not_depend_on_the_certify_mode(spec):
    # evidence can die inside a successor that the value column goes on to
    # use, on the budget or on the horizon (both end as budget_exceeded); it
    # may build further than the value column (on classic, psi builds the
    # step-0 successor the closed-form values never use), but not otherwise
    # than it
    for seed, bits, horizon in itertools.product(
        range(9), (8, 64, 512, 4096, 1 << 16), (2, 3, 4, 8, 16, 512)
    ):
        seen = {}
        for certify in ("none", "both"):
            h = hierarchy_from_spec(spec, BitBudget(bits), horizon)
            try:
                r = run(h, seed, max_steps=40, certify=certify)
            except ValueError as e:  # a seed above the first stage's bound
                seen[certify] = str(e), h
            else:
                seen[certify] = ([rec.value for rec in r.records], r.outcome, r.detail), h
        (values, h_none), (both_values, h_both) = seen["none"], seen["both"]
        where = (seed, bits, horizon)
        assert values == both_values, where
        count = len(h_none._stages), len(h_none._plus)
        assert _built(h_none, count) == _built(h_both, count), where
