"""One timed repetition, in a fresh interpreter, the way a CLI user meets the package.

Reads a JSON request from argv[1]: the inputs to run, whether to trace, and
where to dump spans.  Times the package import, then for each input
``run()`` + ``trace_lines()`` and ``verify_trace()``, checks every output,
and prints one JSON object as its last line.  The workload's mix of
reference routines (``speed.py``) runs before the first input and again
between timings, so each timing carries the scale that turns it into
seconds at a fixed machine speed.  ``run.py`` starts it.
"""

import sys
import time

t0 = time.perf_counter()
import fractal_goodstein as fg  # noqa: E402
import fractal_goodstein.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def _int_digits() -> int:
    """The process-wide int/str digit limit (0 where Python has none)."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _widest(h, result) -> list[int]:
    """Widest value, largest certificate size and depth, most bases, read after the run."""
    recs = result.records
    bits = max((v.bit_length() for r in recs for v in (r.value, r.psi_n) if v is not None), default=0)
    terms = [t for r in recs for t in (r.theta, r.psi_u) if t is not None]
    bases = 0
    for i in range(len(recs)):
        # the last step's successor may be the one whose growth died
        for get in (h.stage, h.plus_object) if i + 1 < len(recs) else (h.stage,):
            try:
                bases = max(bases, len(get(i).known_elements()))
            except (fg.BudgetExceededError, fg.HorizonError):
                pass
    return [
        bits,
        max((t.size for t in terms), default=0),
        max((t.depth for t in terms), default=0),
        bases,
    ]


def _headroom(widest: list[list[int]]) -> dict:
    """The widest figures of a repetition against the budgets they count toward."""
    from fractal_goodstein.ordinal_terms import TERM_DEPTH_BUDGET, TERM_NODE_BUDGET

    bits, nodes, depth, bases = (max(col) for col in zip(*widest))
    return {
        "numerals.max_value_bits": bits,
        "numerals.bit_headroom": fg.DEFAULT_BUDGET.bits - bits,
        "ordinal_terms.max_nodes": nodes,
        "ordinal_terms.node_headroom": TERM_NODE_BUDGET - nodes,
        "ordinal_terms.max_depth": depth,
        "ordinal_terms.depth_headroom": TERM_DEPTH_BUDGET - depth,
        "successors.bases_materialized": bases,
        "successors.horizon_headroom": fg.DEFAULT_HORIZON - bases,
    }


def _one(inp, pinned: dict, textbook: bool, tracer, clock) -> dict:
    """Run, trace and verify one input, then check what came out.

    The run fails if it raises or its output check fails; the verify fails
    if it raises, is not attempted, or its verdict is not ok.
    """
    spec, seed, max_steps, certify = inp
    out = {"key": workloads.key(inp), "run_ok": False, "verify_ok": False, "errors": []}
    if tracer:
        tracer.on = True
    try:
        t = time.perf_counter()
        h = fg.hierarchy_from_spec(spec)
        result = fg.run(h, seed, max_steps=max_steps, certify=certify)
        lines = result.trace_lines()
        out["run_s"] = time.perf_counter() - t
    except Exception as e:  # a failed operation is counted, not fatal
        out["errors"].append(f"run raised {e!r}")
        return out
    finally:
        if tracer:
            tracer.on = False
    clock.lap(out, "run_s")
    out["trace_bytes"] = sum(len(ln.encode()) + 1 for ln in lines)
    if tracer:
        tracer.on = True
    try:
        t = time.perf_counter()
        report = fg.verify_trace(lines)
        out["verify_s"] = time.perf_counter() - t
        out["verify_ok"] = report.ok
        if not report.ok:
            out["errors"].append(f"verify rejected the trace: {report.problems[:3]}")
    except Exception as e:
        out["errors"].append(f"verify raised {e!r}")
    finally:
        if tracer:
            tracer.on = False
    clock.lap(out, "verify_s")
    want = pinned.get(out["key"])
    got = check.digest(result)
    out["run_ok"] = got == want
    if got != want:
        out["errors"].append(f"output digest {got[:16]} does not match pinned {str(want)[:16]}")
    if textbook and [r.value for r in result.records] != check.goodstein(seed, len(result.records)):
        out["run_ok"] = False
        out["errors"].append("values differ from the textbook Goodstein sequence")
    if tracer:
        out["widest"] = _widest(h, result)
    return out


def main() -> int:
    setup_ref_s = speed.timed(speed.SETUP_MIX)
    req = json.loads(sys.argv[1])
    digits_before = _int_digits()
    tracer = None
    if req.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    pinned = json.loads((HERE / "pinned.json").read_text())
    clock = speed.Clock(req["reference"])
    results = [_one(tuple(inp), pinned, req["textbook"], tracer, clock) for inp in req["inputs"]]
    clock.close()
    rep = {
        "setup_s": SETUP_S,
        "setup_ref_s": setup_ref_s,
        "ref_s": clock.refs,
        "inputs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "int_digits_raised": _int_digits() - digits_before,
    }
    if tracer:
        widest = [r["widest"] for r in results if "widest" in r]
        rep["headroom"] = _headroom(widest) if widest else {}
        rep["layers"] = tracer.layer_totals()
        rep["absent"] = sorted(tracer.absent)
        rep["spans"] = len(tracer.name_id)
        if req.get("spans_out"):
            tracer.write(req["spans_out"])
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
