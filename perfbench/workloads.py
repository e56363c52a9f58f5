"""Workload families: each workload seed picks one input set from a fixed family.

An input is the tuple the program sees, ``(spec, seed, max_steps, certify)``.
Every member of a family has the same shape and, as measured, the same cost
to within a few percent, so runs at different workload seeds compare.  Why
each workload exists and which layers it should stress is in README.md.
"""

from __future__ import annotations

import random

# Step caps are jittered by 0..CAP_JITTER-1 steps.  upgrade-chain cost grows
# about as steps**2.7, so a wider jitter would show up as seed-to-seed spread.
CAP_JITTER = 16

CLASSIC_SEEDS = (4, 5, 6, 7)
CLASSIC_CAP = 1000

CHAIN_SPEC = "plus-chain: 2,6"
CHAIN_SEEDS = (5, 6, 7)
CHAIN_CAP = 1300

# 2**15 plus a low part of 8..3863: the leading monomial dominates every
# stage, so all members climb 16 -> 178 -> 2.6k -> 43.5k -> 844k bits and die
# on the default bit budget at step 5.  Low parts below 8 would borrow into
# the leading monomial and multiply the work (2**15 + 1 costs about 3x).
WIDE_LOWS = tuple(8 + 257 * j for j in range(16))

# The one costly member is diagonal seed 2 (its stage-0 bound is 2); the rest
# cover every self-feeding kind and the terminated, budget-death and psi-stop
# outcomes at a few milliseconds each.
LAZY_INPUTS = (
    [("diagonal", 2, None, "both")]
    + [("ouroboros", s, None, "both") for s in range(6)]
    + [(f"finite-for: {m}", s, None, "both") for m in (3, 4, 5) for s in range(m + 1)]
)


def _classic(rng: random.Random) -> list[tuple]:
    return [("classic", s, CLASSIC_CAP + rng.randrange(CAP_JITTER), "both") for s in CLASSIC_SEEDS]


def _chain(rng: random.Random) -> list[tuple]:
    return [(CHAIN_SPEC, s, CHAIN_CAP + rng.randrange(CAP_JITTER), "none") for s in CHAIN_SEEDS]


def _wide(rng: random.Random) -> list[tuple]:
    return [("classic", (1 << 15) + rng.choice(WIDE_LOWS), None, "none")]


def _lazy(rng: random.Random) -> list[tuple]:
    inputs = list(LAZY_INPUTS)
    rng.shuffle(inputs)
    return inputs


# The mix of speed.py routines that each workload's timings are scaled by:
# the one that slows most nearly as the workload does in a slow spell
# (README.md, "Scaled time").
REFERENCE = {
    "certified-classic": ("objects", "ints", "bigints"),
    "upgrade-chain": ("ints", "bigints"),
    "wide-values": ("bigints",),
    "lazy-deaths": ("bigints",),
}

WORKLOADS = {
    "certified-classic": _classic,
    "upgrade-chain": _chain,
    "wide-values": _wide,
    "lazy-deaths": _lazy,
}


def inputs(workload: str, seed: int) -> list[tuple]:
    """The input set of one repetition; the same seed gives the same set."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def family(workload: str) -> list[tuple]:
    """Every input any seed can draw, for pinning their expected outputs."""
    if workload == "certified-classic":
        return [("classic", s, CLASSIC_CAP + j, "both") for s in CLASSIC_SEEDS for j in range(CAP_JITTER)]
    if workload == "upgrade-chain":
        return [(CHAIN_SPEC, s, CHAIN_CAP + j, "none") for s in CHAIN_SEEDS for j in range(CAP_JITTER)]
    if workload == "wide-values":
        return [("classic", (1 << 15) + k, None, "none") for k in WIDE_LOWS]
    return list(LAZY_INPUTS)


def key(inp: tuple) -> str:
    spec, seed, max_steps, certify = inp
    return f"{spec}|{seed}|{max_steps}|{certify}"
