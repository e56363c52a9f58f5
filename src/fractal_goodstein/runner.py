"""Goodstein process driver, trace files, and independent trace checking.

A run steps a seed through upgrade-then-decrement over a dynamical
hierarchy, optionally attaching two kinds of termination evidence to each
step: a strictly decreasing theta certificate, and a psi witness chain whose
integers realize fundamental-sequence entries.  The step loop exists once,
in ``_Steps``: ``run`` collects it, and ``verify_trace`` replays it.

Traces are JSONL, with integers as bare lowercase hex strings (trace
version 2).  One generator, ``_trace``, writes them: ``RunResult.trace_lines``
collects it for a run, and ``verify_trace`` walks it for the replay of the
run a trace claims, comparing the trace with it line by line, as text.
The verifier parses the header to rebuild the hierarchy, seed and caps, a
rejected line only to name the keys that differ, and never a term.
On the replayed terms of the rows it accepts, it also checks that the theta
chain strictly descends; ``_Steps`` itself checks that the psi chain links
and stays at or below the value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, pairwise
from typing import IO, Iterable, Iterator

from .hierarchy import DEFAULT_HORIZON, _check_count
from .interpretations import PsiInterpretation, ThetaReader, majorize_witness
from .numerals import BitBudget, BudgetExceededError, superexp
from .ordinal_terms import CntPrinter, CntTerm, OrdinalError, compare_cnt, fund_seq_cnt
from .successors import DynamicalHierarchy, dynamical, hierarchy_from_spec

__all__ = [
    "StepRecord",
    "RunResult",
    "ChainStep",
    "ChainReport",
    "VerifyReport",
    "run",
    "write_trace",
    "verify_trace",
    "lower_bound_chain",
]

TRACE_FORMAT = "goodstein-trace"
TRACE_VERSION = 2

_CERT_ERRORS = (BudgetExceededError, OrdinalError, ValueError)


def _int_str(v: int) -> str:
    # bare lowercase hex: linear in the width, never longer than decimal, and
    # outside the int-to-decimal digit limit
    return format(v, "x")


def _str_int(s: str) -> int:
    # any reading will do: the header rebuilt from it must print as the line read
    return int(s, 16)


@dataclass
class StepRecord:
    index: int
    value: int
    base: int
    theta: CntTerm | None = None
    psi_n: int | None = None
    psi_u: CntTerm | None = None


@dataclass
class RunResult:
    spec: str
    seed: int
    certify: str
    bit_budget: int
    max_steps: int | None
    records: list[StepRecord]
    outcome: str
    detail: str | None = None
    theta_stop: dict | None = None
    psi_stop: dict | None = None
    horizon: int = DEFAULT_HORIZON

    def trace_lines(self) -> list[str]:
        return [line for line, _ in _trace(self, self.records)]


def _trace(
    run: RunResult | _Steps, records: Iterable[StepRecord]
) -> Iterator[tuple[str, StepRecord | None]]:
    """Each line ``run`` writes, with its record: the header, a row per record, the outcome line.

    The header and outcome line pair with None; each term column prints
    through its own CntPrinter.  The ending is read from ``run`` only once
    ``records`` run out, so a replay can stand for both.
    """
    caps = {"max_steps": run.max_steps, "bit_budget": run.bit_budget, "certify": run.certify}
    if run.horizon != DEFAULT_HORIZON:
        caps["horizon"] = run.horizon
    head = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "hierarchy": run.spec,
        "seed": _int_str(run.seed),
        "caps": caps,
    }
    yield json.dumps(head), None
    theta_text, u_text = CntPrinter().text, CntPrinter().text
    steps = 0
    for r in records:
        # json.dumps's row, with each hex text copied into the line alone, not also quoted
        theta = psi = ""
        if r.theta is not None:
            theta = f', "theta": {json.dumps(theta_text(r.theta))}'
        if r.psi_n is not None:
            u = json.dumps(u_text(r.psi_u))
            psi = f', "psi": {{"n": "{_int_str(r.psi_n)}", "u": {u}}}'
        yield f'{{"i": {r.index}, "value": "{_int_str(r.value)}", "base": {r.base}{theta}{psi}}}', r
        steps += 1
    tail = {
        "outcome": run.outcome,
        "steps": steps,
        "detail": run.detail,
        "theta_stop": run.theta_stop,
        "psi_stop": run.psi_stop,
    }
    yield json.dumps(tail), None


def write_trace(result: RunResult, out: IO[str]) -> None:
    for line in result.trace_lines():
        out.write(line + "\n")


class _Steps:
    """The step loop: read the value in its stage, then upgrade it and subtract one.

    Iterating yields one StepRecord per step, with the evidence ``certify``
    asks for.  Evidence that fails is recorded as a stop and never ends the
    value sequence.  Once the iteration is exhausted, ``outcome``,
    ``detail``, ``theta_stop`` and ``psi_stop`` say how the run ended; they,
    the spec, seed and caps bear a RunResult's names, for ``_trace``.

    Every run reads its theta certificates through one ThetaReader, fed
    the consecutive steps of this run only, from step 0 until the reading
    stops.  It derives a reading from the step before only between the
    single bases b - 1 and b, and its oracle is the fresh
    ThetaInterpretation(stage).value of every step.

    A death of the value column (bit budget or horizon) ends the run in
    one handler; evidence catches its own errors, deaths included.

    Values do not depend on ``certify``.  Evidence materializes no base and
    moves no frontier of a stage or successor the value column builds, so
    values, the outcome and ``detail`` are the same in every mode.  It may
    build more: on ``classic``, whose value column is closed-form, psi
    evidence builds the step-0 successor, and its deep changes add entries
    to the run's table of powers, each of them exact.
    """

    def __init__(
        self, h: DynamicalHierarchy, seed: int, certify: str, max_steps: int | None
    ) -> None:
        if certify not in ("theta", "psi", "both", "none"):
            raise ValueError(f"unknown certificate mode: {certify!r}")
        if type(seed) is not int or seed < 0:
            raise ValueError("seeds are nonnegative integers")
        if max_steps is not None and (type(max_steps) is not int or max_steps < 0):
            raise ValueError("step caps are nonnegative integers")
        self.h = h
        self.spec = h.spec_string()
        self.seed = seed
        self.certify = certify
        self.bit_budget = h.budget.bits
        self.max_steps = max_steps
        self.horizon = h.horizon
        self.outcome: str | None = None
        self.detail: str | None = None
        self.theta_stop: dict | None = None
        self.psi_stop: dict | None = None

    def __iter__(self) -> Iterator[StepRecord]:
        h = self.h
        want_theta = self.certify in ("theta", "both")
        want_psi = self.certify in ("psi", "both")
        read_theta = ThetaReader().value
        value = psi_n = self.seed
        prev_u: CntTerm | None = None
        i = 0
        try:
            while True:
                stage = h.stage(i)
                bound = h.step_bound(i)
                if bound is not None and value > bound:
                    raise ValueError(f"value exceeds the stage-{i} bound {bound}")
                # finding the base column can force materialization past the caps
                rec = StepRecord(i, value, stage.upper_base(value))
                if want_theta and self.theta_stop is None:
                    try:
                        rec.theta = read_theta(stage, value)
                    except _CERT_ERRORS as e:
                        self.theta_stop = {"step": i, "reason": str(e)}
                if want_psi and self.psi_stop is None:
                    try:
                        if psi_n > value:
                            raise OrdinalError("witness overtook the value")
                        u = PsiInterpretation(stage).value(psi_n)
                        if prev_u is not None and fund_seq_cnt(prev_u, i) != u:
                            raise OrdinalError("witness chain lost its linkage")
                        rec.psi_n, rec.psi_u = psi_n, u
                        prev_u = u
                    except _CERT_ERRORS as e:
                        self.psi_stop = {"step": i, "reason": str(e)}
                yield rec
                if value == 0:
                    self.outcome = "terminated"
                    return
                if self.max_steps is not None and i >= self.max_steps:
                    self.outcome = "step_cap"
                    return
                if want_psi and self.psi_stop is None:
                    try:
                        plus = h.plus_object(i)
                        psi_n = majorize_witness(stage, plus.index, psi_n, i + 1, h.budget, plus)
                    except _CERT_ERRORS as e:
                        self.psi_stop = {"step": i, "reason": str(e)}
                value = h.upgrade_step(i, value) - 1
                i += 1
        except BudgetExceededError as e:
            self.outcome, self.detail = "budget_exceeded", str(e)


def run(
    hierarchy: DynamicalHierarchy | str,
    seed: int,
    *,
    max_steps: int | None = None,
    budget: BitBudget | None = None,
    certify: str = "both",
    horizon: int | None = None,
) -> RunResult:
    """Drive the upgrade-then-decrement process from a seed.

    certify picks the evidence attached to steps: "theta", "psi", "both" or
    "none".  Evidence generation that fails mid-run is recorded as a stop
    with its reason and never aborts the value sequence itself.  A spec
    string runs under ``horizon``, DEFAULT_HORIZON when it is None; a
    hierarchy object carries its own budget and horizon, and a different
    one passed here is an error.  The trace header records the horizon when
    it is not the default.
    """
    if isinstance(hierarchy, str):
        h = hierarchy_from_spec(
            hierarchy, budget, DEFAULT_HORIZON if horizon is None else horizon
        )
    else:
        h = hierarchy
        if budget is not None and budget is not h.budget:
            raise ValueError(
                "a hierarchy object carries its own budget; "
                "pass a spec string to choose a different one"
            )
        if horizon is not None and horizon != h.horizon:
            raise ValueError(
                f"a hierarchy object carries its own horizon ({h.horizon}); "
                "pass a spec string to choose a different one"
            )
    steps = _Steps(h, seed, certify, max_steps)
    records = list(steps)
    return RunResult(
        spec=steps.spec,
        seed=seed,
        certify=certify,
        bit_budget=steps.bit_budget,
        max_steps=max_steps,
        records=records,
        outcome=steps.outcome,
        detail=steps.detail,
        theta_stop=steps.theta_stop,
        psi_stop=steps.psi_stop,
        horizon=steps.horizon,
    )


@dataclass
class VerifyReport:
    """A verdict; ``outcome`` is the replayed run's, None if the replay did not end."""

    ok: bool
    problems: list[str]
    outcome: str | None = None
    steps: int = 0


def verify_trace(source: str | Iterable[str]) -> VerifyReport:
    """Replay the run a trace claims and report every line that is not the line run writes.

    source is a file path or an iterable of lines, read one line at a time;
    a line's ending is removed, and empty lines are skipped.  The header is
    parsed only to rebuild the hierarchy, seed and caps; then each line is
    compared, as text, with the next line ``_trace`` writes for the replayed
    run, so no term is parsed and a line equal as JSON but spelled otherwise
    is rejected.  A rejected line's problem names each key whose JSON text
    differs.  On the replayed terms of the rows it accepts, the verifier
    checks that the theta chain strictly descends.  The replay runs at most
    one step past the last row, and stops at a row whose index or value
    differs: the rows after it tell of another run.
    """
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return _verify_lines(fh)
        return _verify_lines(source)
    except (OSError, ValueError) as e:
        # json.loads raises ValueError on a malformed line and on an integer
        # past the int-to-str digit limit; _verify_lines reports the rest itself
        return VerifyReport(False, [f"unreadable trace: {e}"])


def _unlike(text: str, written: str, verb: str) -> tuple[str, set[str]]:
    """How a line differs from the line run writes in its place, and the differing keys."""
    claimed, ours = json.loads(text), json.loads(written)
    if not isinstance(claimed, dict):
        return "not a JSON object", set(ours)
    # a key differs when it is missing on one side or its value's JSON text
    # differs, key order inside that value aside
    keys = [
        k
        for k in {**ours, **claimed}
        if k not in claimed
        or k not in ours
        or json.dumps(claimed[k], sort_keys=True) != json.dumps(ours[k], sort_keys=True)
    ]
    if not keys:
        return "equal as JSON to what run writes, but spelled otherwise", set()
    return f"{', '.join(keys)} {'does' if len(keys) == 1 else 'do'} not {verb}", set(keys)


def _verify_lines(lines: Iterable[str]) -> VerifyReport:
    """verify_trace on lines."""
    texts = (t for t in (ln.removesuffix("\n") for ln in lines) if t)
    head_text, text = next(texts, None), next(texts, None)
    if text is None:
        return VerifyReport(False, ["trace needs a header and an outcome line"])
    head = json.loads(head_text)
    try:
        if head.get("format") != TRACE_FORMAT:
            return VerifyReport(False, ["not a recognized trace header"])
        if head.get("version") == 1:
            problem = (
                "trace version 1 is not supported: v1 wrote integers in decimal, "
                "version 2 in hex; re-run to get a version 2 trace"
            )
            return VerifyReport(False, [problem])
        caps = head["caps"]
        horizon = caps.get("horizon", DEFAULT_HORIZON)
        h = hierarchy_from_spec(head["hierarchy"], BitBudget(caps["bit_budget"]), horizon)
        steps = _Steps(h, _str_int(head["seed"]), caps["certify"], caps["max_steps"])
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        return VerifyReport(False, [f"malformed header: {e}"])
    writer = _trace(steps, steps)
    written = next(writer)[0]
    if head_text != written:
        return VerifyReport(False, [f"malformed header: {_unlike(head_text, written, 'reproduce')[0]}"])
    problems: list[str] = []
    prev_theta: CntTerm | None = None
    # each line read meets the next line written; the writer has none left
    # once the replay fails or ends, or a row tells of another run
    for pos, (text, after) in enumerate(pairwise(chain([text], texts, [None]))):
        try:
            written, rec = next(writer, (None, None))
        except _CERT_ERRORS as e:
            problems.append(f"step {pos}: recomputation failed: {e}")
            continue
        if written is None:
            continue
        if after is None:  # the outcome line read
            if rec is not None:
                problems.append(f"step {pos}: the run goes on past the end of the trace")
            elif text != written:
                problems.append(f"outcome line: {_unlike(text, written, 'reproduce')[0]}")
        elif rec is None:
            problems.append(f"step {pos}: trace continues past the end of the run")
        elif text != written:
            problem, keys = _unlike(text, written, "recompute")
            problems.append(f"step {pos}: {problem}")
            if keys & {"i", "value"}:
                writer.close()  # the rows after it tell of another run
        elif rec.theta is not None:
            if prev_theta is not None and compare_cnt(rec.theta, prev_theta) >= 0:
                problems.append(f"step {pos}: theta certificate fails to decrease")
            prev_theta = rec.theta
    return VerifyReport(not problems, problems, steps.outcome, pos)


@dataclass
class ChainStep:
    index: int
    n: int
    u: CntTerm
    linked: bool


@dataclass
class ChainReport:
    """A lower-bound witness chain next to the live value sequence.

    The chain realizes iterated fundamental-sequence entries by integers;
    linked steps carry checked linkage to their predecessor.  Failures on
    either side are reported verbatim, never swallowed; a tower seed over
    the budget leaves seed None and fails both sides.
    """

    k: int
    seed: int | None
    steps: list[ChainStep] = field(default_factory=list)
    complete: bool = False
    chain_failure: str | None = None
    run_values: list[int] = field(default_factory=list)
    run_failure: str | None = None

    @property
    def verified_steps(self) -> int:
        return sum(1 for s in self.steps if s.index > 0 and s.linked)


def lower_bound_chain(
    k: int,
    *,
    budget: BitBudget | None = None,
    horizon: int = DEFAULT_HORIZON,
    run_cap: int = 64,
) -> ChainReport:
    """Witness chain for the tower seed over the self-feeding hierarchy."""
    _check_count(k, "chain depth must be nonnegative")
    _check_count(run_cap, "the run cap cannot be negative")
    budget = budget or BitBudget()
    oh = dynamical("ouroboros", budget=budget, horizon=horizon)
    try:
        seed = superexp(2, k + 1, budget)
    except BudgetExceededError as e:
        # no seed, so neither side can start
        failure = f"seed: {e}"
        return ChainReport(k=k, seed=None, chain_failure=failure, run_failure=failure)
    report = ChainReport(k=k, seed=seed)
    n = seed
    prev_u: CntTerm | None = None
    i = 0
    while True:
        try:
            stage = oh.stage(i)
            u = PsiInterpretation(stage).value(n)
        except _CERT_ERRORS as e:
            report.chain_failure = f"step {i}: {e}"
            break
        linked = prev_u is None or fund_seq_cnt(prev_u, i) == u
        report.steps.append(ChainStep(i, n, u, linked))
        if not linked:
            report.chain_failure = f"step {i}: linkage does not check"
            break
        if n == 0:
            report.complete = True
            break
        try:
            plus = oh.plus_object(i)
            n = majorize_witness(stage, plus.index, n, i + 1, budget, plus)
        except _CERT_ERRORS as e:
            report.chain_failure = f"step {i}: {e}"
            break
        prev_u = u
        i += 1
    v = seed
    report.run_values.append(v)
    for j in range(run_cap):
        if v == 0:
            break
        try:
            v = oh.upgrade_step(j, v) - 1
        except BudgetExceededError as e:
            report.run_failure = f"step {j}: {e}"
            break
        report.run_values.append(v)
    else:
        report.run_failure = f"run cap of {run_cap} steps reached"
    return report
