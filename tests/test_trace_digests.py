"""Whole traces pinned by digest, over every hierarchy kind and term budget.

perfbench/pinned.json digests only the benchmark inputs.  This sweep pins
the full trace_lines() of small runs with both kinds of evidence, under the
real term budgets and under small patched ones, so that a speed-up which
changes any value, certificate, witness, stop reason or death shows here.
"""

import hashlib

import pytest

from fractal_goodstein.numerals import BitBudget
from fractal_goodstein.runner import run
from oracles import term_budgets

SPECS = ["classic", "plus-chain: 2,6", "finite-for: 3", "ouroboros", "diagonal", "finite: 3,12"]

# (bit budget, term node budget, term depth budget) -> sha256 of the sweep
PINNED = {
    (64, 10_000, 200): "133f8f94776e100c01d3aae59259ad2ff3588ccc4b04253fb59e5dae7fad9471",
    (1 << 20, 10_000, 200): "88ba60c71281b04760c5f69882a10eca65b6d3bd1150cf60d5d453877f86d2e0",
    (1 << 20, 8, 200): "652d67da25e1d91a5c0a3e716facc53d4cd1bb47fcde98ad2f82f6bc1fe9f413",
    (1 << 20, 12, 200): "386763596d18b540a176a6444156056ce154f9a0428bb9749ae5cb8a73962cb0",
    (1 << 20, 16, 200): "df854ac68d36cdc234cc34126a351972605892afe69bb40d83f4020ba222a89b",
    (1 << 20, 22, 200): "1f4d979ca58ff653cbc1034f10b7153ba87f435973c5f80b8ca7291f9803d8b1",
    (1 << 20, 10_000, 6): "4a634f59c0014e166969383fe0a79f2ba1ca3e397ab120b9e32bf9162ace9b9a",
    (1 << 20, 10_000, 9): "2ac964b6227e3d40a14ee185d172483de88025fd17e2c292e98b61bfbb693932",
}


def _run_under(spec, seed, bits, nodes, depth):
    """One run under the given budgets, from tables that hold only the constants.

    A stored term is returned without a size check, so a run under a patched
    term budget starts from cold tables; the trace is then printed under the
    real budgets.
    """
    with term_budgets(nodes, depth):
        result = run(spec, seed, max_steps=40, budget=BitBudget(bits), certify="both")
    return result.trace_lines()


@pytest.mark.parametrize("bits, nodes, depth", list(PINNED))
def test_trace_digests_are_pinned(bits, nodes, depth):
    digest = hashlib.sha256()
    for spec in SPECS:
        for seed in range(8):
            try:
                lines = _run_under(spec, seed, bits, nodes, depth)
            except ValueError as e:  # a seed above the first stage's bound
                lines = [f"ValueError: {e}"]
            for line in lines:
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED[bits, nodes, depth]
