"""Benchmark for fractal-goodstein: time to a trace and time to a verdict.

    python3 perfbench/run.py --workload certified-classic --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(``rep.py``) that imports the package from ``src/``, runs the workload's
input set through ``run``, ``RunResult.trace_lines`` and ``verify_trace``,
and checks every output.  Repetitions run one at a time until ``--seconds``
is used up.  Timings are scaled to a fixed machine speed (``speed.py``)
and reported as medians over the repetitions.  With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it alternates untraced and traced repetitions and holds the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it give the environment and each metric's median, quartiles,
extremes and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 3
SETUP_SAMPLES = 10
LIMIT_S = 160  # the whole run, set-up included, ends within this even on a hung program


def _child(request: dict, timeout: float) -> dict | None:
    """One repetition in a fresh interpreter; None when it crashed or hung."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"repetition exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(rep: dict | None, n_inputs: int) -> int:
    if rep is None:
        return 2 * n_inputs
    for r in rep["inputs"]:
        for e in r["errors"]:
            print(f"{r['key']}: {e}", file=sys.stderr)
    return sum((not r["run_ok"]) + (not r["verify_ok"]) for r in rep["inputs"])


def _sum(rep: dict, field: str) -> float | None:
    vals = [r.get(field) for r in rep["inputs"]]
    return None if None in vals else sum(vals)


def _scaled(rep: dict, field: str) -> float | None:
    """A timing summed over the inputs, each scaled to the reference speed."""
    vals = [r.get(field) for r in rep["inputs"]]
    return None if None in vals else sum(v * r[field + "_scale"] for v, r in zip(vals, rep["inputs"]))


def _setup(rep: dict) -> float:
    """Import time scaled by the reference run right after the import."""
    return rep["setup_s"] * speed.quiet(speed.SETUP_MIX) / rep["setup_ref_s"]


def _busy(rep: dict) -> float | None:
    """Scaled run_s + verify_s of one repetition."""
    run_s, verify_s = _scaled(rep, "run_s"), _scaled(rep, "verify_s")
    return None if run_s is None or verify_s is None else run_s + verify_s


def _summary(samples: dict[str, list]) -> dict:
    out = {}
    for name, vals in samples.items():
        vals = [v for v in vals if v is not None]
        if not vals:
            continue
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        out[name] = {"median": statistics.median(vals), "q1": q[0], "q3": q[2],
                     "min": min(vals), "max": max(vals), "n": len(vals)}
    return out


def _end_to_end(reps: list[dict], setups: list[dict]) -> dict[str, list]:
    return {
        "run_s": [_scaled(r, "run_s") for r in reps],
        "verify_s": [_scaled(r, "verify_s") for r in reps],
        "trace_bytes": [_sum(r, "trace_bytes") for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": [_setup(r) for r in setups],
        # unscaled, for the report line only
        "run_wall_s": [_sum(r, "run_s") for r in reps],
        "verify_wall_s": [_sum(r, "verify_s") for r in reps],
        "setup_wall_s": [r["setup_s"] for r in setups],
        "ref_s": [t for r in setups for t in r["ref_s"]],
    }


def _per_layer(reps: list[dict], traced: list[dict]) -> tuple[dict[str, list], set[str]]:
    samples: dict[str, list] = {}
    absent: set[str] = set()
    for rep in traced:
        absent.update(rep["absent"])
        for layer, rec in rep["layers"].items():
            samples.setdefault(f"{layer}.calls", []).append(rec["calls"])
            samples.setdefault(f"{layer}.self_s", []).append(rec["self_s"])
        for name, value in rep["headroom"].items():
            samples.setdefault(name, []).append(value)
    samples["interpretations.theta_objects"] = samples.get("interpretations.theta_objects.calls", [])
    samples["runner.int_digits_limit_raised"] = [max(r["int_digits_raised"] for r in reps + traced)]
    plain = [t for t in map(_busy, reps) if t is not None]
    slow = [t for t in map(_busy, traced) if t is not None]
    if plain and slow:
        samples["trace_overhead_s"] = [statistics.median(slow) - statistics.median(plain)]
    return samples, absent


def _env(args, inputs) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(), "cpu_model": cpu, "nproc": os.cpu_count(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "src_lines": src_lines, "inputs": inputs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, still kill and reap the running repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "fractal_goodstein" / "__init__.py").is_file():
        print(f"no package source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = workloads.inputs(args.workload, args.seed)
    request = {
        "inputs": inputs,
        "textbook": args.workload == "certified-classic",
        "reference": workloads.REFERENCE[args.workload],
    }
    print(json.dumps({"env": _env(args, inputs)}))

    start = time.perf_counter()

    def remaining() -> float:
        return max(1.0, LIMIT_S - (time.perf_counter() - start))

    setups: list[dict] = []
    attempted = failed = 0
    for _ in range(SETUP_SAMPLES):
        rep = _child({**request, "inputs": []}, remaining())
        if rep is not None:
            setups.append(rep)
    reps: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    batches = 0
    while True:
        t = time.perf_counter()
        batch = [("plain", request)]
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"{args.workload}-seed{args.seed}.spans"
            batch.append(("traced", {**request, "trace": True, "spans_out": str(spans)}))
        for kind, req in batch:
            rep = _child(req, remaining())
            attempted += 2 * len(inputs)
            failed += _failures(rep, len(inputs))
            if rep is not None:
                (traced if kind == "traced" else reps).append(rep)
                setups.append(rep)
        longest = max(longest, time.perf_counter() - t)
        batches += 1
        done = batches >= (1 if args.trace else MIN_REPS)
        ends = time.perf_counter() - start + longest
        if (done and ends > args.seconds) or ends > LIMIT_S:
            break
    if not reps or (args.trace and not traced):
        print("every repetition failed", file=sys.stderr)
        return 1

    if args.trace:
        samples, absent = _per_layer(reps, traced)
        wanted = spec["per_layer"]
    else:
        samples, absent = _end_to_end(reps, setups), set()
        wanted = spec["end_to_end"]
    summary = _summary(samples)
    metrics = {}
    for m in wanted:
        value = summary.get(m["name"], {}).get("median")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    missing = sorted(m for m in metrics if metrics[m]["value"] is None)
    print(json.dumps({"report": summary, "failed_frac": failed / attempted,
                      "absent_layers": sorted(absent), "missing_metrics": missing}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
