"""Goodstein process driver, trace files, and independent trace checking.

A run steps a seed through upgrade-then-decrement over a dynamical
hierarchy, optionally attaching two kinds of termination evidence to each
step: a strictly decreasing theta certificate, and a psi witness chain whose
integers realize fundamental-sequence entries.  The step loop exists once,
in ``_Steps``: ``run`` collects it, and ``verify_trace`` replays it.

Traces serialize to JSONL, with integers as bare lowercase hex strings
(trace version 2).  The texts inside have one owner each: the header's
hierarchy description is printed by ``spec_string`` and parsed by
``successors.hierarchy_from_spec``, and each term column (theta, psi ``u``)
by a ``CntPrinter`` of the ``trace_lines`` or ``verify_trace`` call, whose
oracle is ``cnt_to_str``.  The verifier rebuilds the hierarchy from the
header, replays the loop under the recorded caps alongside the trace, and
rejects any row or ending that differs from the replay.  From the claimed
terms alone it also checks that the theta chain strictly descends and that
the psi chain links and stays at or below the value.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .hierarchy import DEFAULT_HORIZON
from .interpretations import PsiInterpretation, ThetaReader, majorize_witness
from .numerals import BitBudget, BudgetExceededError, superexp
from .ordinal_terms import (
    CntPrinter,
    CntTerm,
    OrdinalError,
    as_cnt,
    cnt_to_str,
    compare_cnt,
    fund_seq_cnt,
    parse_term,
)
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

# the keys run writes; its values are compared as JSON text, where 1.0 is not 1
_HEAD_KEYS = {"format", "version", "hierarchy", "seed", "caps"}
_CAPS_KEYS = {"max_steps", "bit_budget", "certify"}
_ROW_KEYS = {"i", "value", "base", "theta", "psi"}
_TAIL_KEYS = {"outcome", "steps", "detail", "theta_stop", "psi_stop"}

_CERT_ERRORS = (BudgetExceededError, OrdinalError, ValueError)
# what checking a row can raise: a malformed row, or a replay that fails
_ROW_ERRORS = _CERT_ERRORS + (AttributeError, KeyError, TypeError)


def _int_str(v: int) -> str:
    # bare lowercase hex: linear in the width, never longer than decimal, and
    # outside the int-to-decimal digit limit
    return format(v, "x")


_HEX_INT = re.compile(r"0|[1-9a-f][0-9a-f]*")


def _str_int(s: str) -> int:
    # only the one string _int_str writes for a value is accepted
    if not isinstance(s, str) or not _HEX_INT.fullmatch(s):
        raise ValueError(f"not a canonical hex integer: {s!r:.40}")
    return int(s, 16)


def _parse_cnt(s: str) -> CntTerm:
    # only the one string cnt_to_str writes for a term is accepted
    c = as_cnt(parse_term(s))
    if cnt_to_str(c) != s:
        raise ValueError(f"not a canonical term: {s!r:.40}")
    return c


def _claimed_cnt(s: str, replayed: CntTerm | None, printer: CntPrinter) -> CntTerm:
    # printing is injective (parse_term(term_to_str(t)) == t), so text equal to
    # the replayed term's printing is canonical and names exactly that term;
    # any other text is parsed
    if replayed is not None and s == printer.text(replayed):
        return replayed
    return _parse_cnt(s)


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
        caps = {
            "max_steps": self.max_steps,
            "bit_budget": self.bit_budget,
            "certify": self.certify,
        }
        if self.horizon != DEFAULT_HORIZON:
            caps["horizon"] = self.horizon
        head = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "hierarchy": self.spec,
            "seed": _int_str(self.seed),
            "caps": caps,
        }
        lines = [json.dumps(head)]
        theta_text, u_text = CntPrinter().text, CntPrinter().text
        for r in self.records:
            row: dict = {"i": r.index, "value": _int_str(r.value), "base": r.base}
            if r.theta is not None:
                row["theta"] = theta_text(r.theta)
            if r.psi_n is not None:
                row["psi"] = {"n": _int_str(r.psi_n), "u": u_text(r.psi_u)}
            lines.append(json.dumps(row))
        tail = {
            "outcome": self.outcome,
            "steps": len(self.records),
            "detail": self.detail,
            "theta_stop": self.theta_stop,
            "psi_stop": self.psi_stop,
        }
        lines.append(json.dumps(tail))
        return lines


def write_trace(result: RunResult, out: IO[str]) -> None:
    for line in result.trace_lines():
        out.write(line + "\n")


class _Steps:
    """The step loop: read the value in its stage, then upgrade it and subtract one.

    Iterating yields one StepRecord per step, with the evidence ``certify``
    asks for.  Evidence that fails is recorded as a stop and never ends the
    value sequence.  Once the iteration is exhausted, ``outcome``,
    ``detail``, ``theta_stop`` and ``psi_stop`` say how the run ended.

    Every run reads its theta certificates through one ThetaReader, fed
    the consecutive steps of this run only, from step 0 until the reading
    stops.  It derives a reading from the step before only between the
    single bases b - 1 and b, and its oracle is the fresh
    ThetaInterpretation(stage).value of every step.

    A death of the value column (bit budget or horizon) ends the run in
    one handler; evidence catches its own errors, deaths included.
    """

    def __init__(
        self, h: DynamicalHierarchy, seed: int, certify: str, max_steps: int | None
    ) -> None:
        if certify not in ("theta", "psi", "both", "none"):
            raise ValueError(f"unknown certificate mode: {certify!r}")
        if seed < 0:
            raise ValueError("seeds are nonnegative")
        if max_steps is not None and (type(max_steps) is not int or max_steps < 0):
            raise ValueError("step caps are nonnegative integers")
        self.h = h
        self.seed = seed
        self.certify = certify
        self.max_steps = max_steps
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
        spec=h.spec_string(),
        seed=seed,
        certify=certify,
        bit_budget=h.budget.bits,
        max_steps=max_steps,
        records=records,
        outcome=steps.outcome,
        detail=steps.detail,
        theta_stop=steps.theta_stop,
        psi_stop=steps.psi_stop,
        horizon=h.horizon,
    )


@dataclass
class VerifyReport:
    ok: bool
    problems: list[str]
    outcome: str | None = None
    steps: int = 0


def verify_trace(source: str | Iterable[str]) -> VerifyReport:
    """Replay the run a trace claims and report every deviation.

    source is a file path or an iterable of lines, read one line at a time.
    The hierarchy is rebuilt from the header and the step loop of ``run`` is
    replayed under the recorded caps, one step per row: every row must equal
    its replayed step, and the outcome line the replayed ending (outcome,
    death detail and both evidence stops, compared whole as JSON).  Header,
    rows and outcome line carry the keys run writes and no others.  From
    the claimed terms, the verifier also checks that the theta chain strictly
    descends and that the psi chain links and stays at or below the value.
    A claimed term is matched by its text against the canonical printing of
    the replayed term, and parsed only on a mismatch.  That is sound because
    printing is injective (``parse_term(term_to_str(t)) == t``): equal text
    names the replayed term itself, and is canonical by definition.
    The replay runs at most one step past the last row.
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


def _verify_lines(lines: Iterable[str]) -> VerifyReport:
    """verify_trace on lines; each column's own CntPrinter prints its replayed terms."""
    docs = (json.loads(ln) for ln in lines if ln.strip())
    head, row = next(docs, None), next(docs, None)
    if row is None:
        return VerifyReport(False, ["trace needs a header and an outcome line"])
    try:
        if head.get("format") != TRACE_FORMAT:
            return VerifyReport(False, ["not a recognized trace header"])
        if head.get("version") == 1:
            problem = (
                "trace version 1 is not supported: v1 wrote integers in decimal, "
                "version 2 in hex; re-run to get a version 2 trace"
            )
            return VerifyReport(False, [problem])
        if json.dumps(head.get("version")) != json.dumps(TRACE_VERSION):
            return VerifyReport(False, ["not a recognized trace header"])
        caps = head["caps"]
        if set(head) != _HEAD_KEYS or not _CAPS_KEYS <= set(caps) <= _CAPS_KEYS | {"horizon"}:
            raise ValueError("its keys are not those a run writes")
        if caps.get("horizon") == DEFAULT_HORIZON:
            raise ValueError(f"a run leaves the default horizon {DEFAULT_HORIZON} out of its caps")
        horizon = caps.get("horizon", DEFAULT_HORIZON)
        h = hierarchy_from_spec(head["hierarchy"], BitBudget(caps["bit_budget"]), horizon)
        if h.spec_string() != head["hierarchy"]:
            raise ValueError(f"not a canonical hierarchy description: {head['hierarchy']!r:.40}")
        steps = _Steps(h, _str_int(head["seed"]), caps["certify"], caps["max_steps"])
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        return VerifyReport(False, [f"malformed header: {e}"])
    replay = iter(steps)
    theta_printer, u_printer = CntPrinter(), CntPrinter()
    problems: list[str] = []
    prev_theta: CntTerm | None = None
    prev_psi: tuple[int, CntTerm] | None = None

    def follow(row, pos: int) -> bool:
        """Check one row against its replayed step; False once the replay cannot follow."""
        nonlocal prev_theta, prev_psi
        where = f"step {pos}"
        rec = next(replay, None)
        if rec is None:
            problems.append(f"{where}: trace continues past the end of the run")
            return False
        if type(row.get("i")) is not int or row["i"] != pos:
            problems.append(f"{where}: index {row.get('i')} out of order")
            return False
        if not set(row) <= _ROW_KEYS or "psi" in row and set(row["psi"]) != {"n", "u"}:
            problems.append(f"{where}: keys are not those a run writes")
        value = _str_int(row["value"])
        if value != rec.value:
            problems.append(f"{where}: value does not recompute")
            return False
        if type(row.get("base")) is not int or row["base"] != rec.base:
            problems.append(f"{where}: base does not recompute")
        theta = _claimed_cnt(row["theta"], rec.theta, theta_printer) if "theta" in row else None
        if theta != rec.theta:
            problems.append(f"{where}: theta certificate does not recompute")
        if theta is not None:
            if prev_theta is not None:
                try:
                    descends = compare_cnt(theta, prev_theta) < 0
                except OrdinalError:  # a claimed term of the other flavor
                    descends = False
                if not descends:
                    problems.append(f"{where}: theta certificate fails to decrease")
            prev_theta = theta
        n = u = None
        if "psi" in row:
            n, u = _str_int(row["psi"]["n"]), _claimed_cnt(row["psi"]["u"], rec.psi_u, u_printer)
        if (n, u) != (rec.psi_n, rec.psi_u):
            problems.append(f"{where}: psi witness does not recompute")
        if n is not None:
            if n > value:
                problems.append(f"{where}: psi witness exceeds the value")
            if prev_psi is not None:
                try:
                    linked = prev_psi[0] == pos - 1 and fund_seq_cnt(prev_psi[1], pos) == u
                except OrdinalError:  # a claimed term of the other flavor
                    linked = False
                if not linked:
                    problems.append(f"{where}: psi witness chain broken")
            prev_psi = (pos, u)
        return True

    pos, live = 0, True
    for nxt in docs:
        if live:
            try:
                live = follow(row, pos)
            except _ROW_ERRORS as e:
                problems.append(f"step {pos}: recomputation failed: {e}")
                live = False
        pos += 1
        row = nxt
    tail = row if isinstance(row, dict) else {}
    if set(tail) != _TAIL_KEYS:
        problems.append("outcome line keys are not those a run writes")
    if type(tail.get("steps")) is not int or tail["steps"] != pos:
        problems.append(f"outcome line claims {tail.get('steps')} steps, trace has {pos}")
    if live:
        try:
            extra = next(replay, None)
        except _CERT_ERRORS as e:
            problems.append(f"step {pos}: recomputation failed: {e}")
        else:
            if extra is not None:
                problems.append(f"step {pos}: the run goes on past the end of the trace")
            else:
                problems.extend(
                    f"{key} does not reproduce"
                    for key in ("outcome", "detail", "theta_stop", "psi_stop")
                    if json.dumps(tail.get(key)) != json.dumps(getattr(steps, key))
                )
    return VerifyReport(not problems, problems, tail.get("outcome"), pos)


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
    if k < 0:
        raise ValueError("chain depth must be nonnegative")
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
