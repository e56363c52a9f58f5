"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 budget or horizon
exhaustion, 3 usage errors including malformed terms and descriptions.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .interpretations import PsiInterpretation, ThetaInterpretation
from .numerals import BitBudget, BudgetExceededError, _short
from .ordinal_terms import (
    OrdinalError,
    as_cnt,
    cnt_to_str,
    fund_seq,
    parse_term,
    step_down,
    term_to_str,
)
from .runner import run, verify_trace
from .successors import PlusHierarchy, static_hierarchy_from_spec

__all__ = ["main"]

# a run without --max-steps stops here, and a stepdown without --limit here:
# no command line call runs unbounded
DEFAULT_MAX_STEPS = 10_000
DEFAULT_STEPDOWN_LIMIT = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse reserves status 2 for usage errors; remap to our convention
    def exit(self, status: int = 0, message: str | None = None):
        if status == 2:
            status = 3
        super().exit(status, message)


def _build() -> _Parser:
    p = _Parser(prog="goodstein", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="drive a Goodstein process and emit a trace")
    r.add_argument("--hierarchy", required=True, help="classic | ouroboros | diagonal | finite-for: m | plus-chain: b1,b2 | finite: b1,b2")
    r.add_argument("--seed", required=True, type=int)
    r.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS, help="step cap (default %(default)s)")
    r.add_argument("--bit-budget", type=int, default=None, help="bit width cap for any single value")
    r.add_argument("--certify", choices=["theta", "psi", "both", "none"], default="both")
    r.add_argument("--out", default=None, help="trace file; stdout when omitted")

    v = sub.add_parser("verify", help="recheck a trace from scratch")
    v.add_argument("trace", help="path to a JSONL trace")

    o = sub.add_parser("ordinal", help="term calculus")
    osub = o.add_subparsers(dest="ordinal_command", required=True)
    oe = osub.add_parser("eval", help="parse a term and print its canonical form")
    oe.add_argument("term")
    of = osub.add_parser("fs", help="fundamental-sequence entry of a term")
    of.add_argument("term")
    of.add_argument("index", help="natural number or a countable term")
    od = osub.add_parser("stepdown", help="iterate entries with indices 1, 2, 3, ...")
    od.add_argument("term")
    od.add_argument("--limit", type=int, default=DEFAULT_STEPDOWN_LIMIT, help="stop after this many entries (default %(default)s)")

    hs = sub.add_parser("hierarchy", help="hierarchy constructions")
    hsub = hs.add_subparsers(dest="hierarchy_command", required=True)
    st = hsub.add_parser("stage", help="stage of a successor construction")
    st.add_argument("--base", required=True, help="finite base hierarchy, e.g. 2,6")
    st.add_argument("--i", required=True, type=int, help="successor index")
    st.add_argument("--n", required=True, type=int, help="events processed up to n")

    it = sub.add_parser("interp", help="ordinal interpretations of integers")
    it.add_argument("flavor", choices=["o", "u"])
    it.add_argument("--hierarchy", required=True, help="finite hierarchy, e.g. finite: 2,6")
    it.add_argument("--n", required=True, type=int)

    return p


def _parse_index(text: str):
    try:
        return int(text)
    except ValueError:
        return as_cnt(parse_term(text))


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        budget = None if args.bit_budget is None else BitBudget(args.bit_budget)
        result = run(
            args.hierarchy,
            args.seed,
            max_steps=args.max_steps,
            budget=budget,
            certify=args.certify,
        )
        text = "".join(line + "\n" for line in result.trace_lines())  # before --out empties its file
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"outcome: {result.outcome} after {len(result.records)} steps -> {args.out}")
        else:
            sys.stdout.write(text)
        if result.outcome == "budget_exceeded":
            return 2
        return 0
    if args.command == "verify":
        report = verify_trace(args.trace)
        if report.ok:
            print(f"OK: {report.steps} steps, outcome {report.outcome}")
            return 0
        for problem in report.problems:
            print(problem, file=sys.stderr)
        return 1
    if args.command == "ordinal":
        term = parse_term(args.term)
        if args.ordinal_command == "eval":
            print(term_to_str(term))
        elif args.ordinal_command == "fs":
            print(term_to_str(fund_seq(term, _parse_index(args.index))))
        else:
            for entry in step_down(term, upto=args.limit):
                print(term_to_str(entry))
        return 0
    if args.command == "hierarchy":
        base = static_hierarchy_from_spec(args.base)
        plus = PlusHierarchy(base, args.i)
        stage = plus.stage_at(args.n)
        print(",".join(map(_short, stage._elems)))  # held bases print their width, as repr does
        return 0
    if args.command == "interp":
        h = static_hierarchy_from_spec(args.hierarchy)
        if args.flavor == "o":
            value = ThetaInterpretation(h).value(args.n)
        else:
            value = PsiInterpretation(h).value(args.n)
        print(cnt_to_str(value))
        return 0
    raise AssertionError("unreachable")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse insists on exiting; keep main() a plain function
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except BudgetExceededError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 2
    except (OrdinalError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
