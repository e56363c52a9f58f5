"""Fixed reference routines that measure how fast the machine runs a kind of work right now.

On a shared VM the same work can take twice as long for tens of seconds at
a time, with CPU time rising as much as wall time, so nothing inside the
process sees the slowdown.  It hits kinds of work unequally: interpreted
code over many small objects slows most, arithmetic on huge integers
hardly at all.  So each workload names the mix of routines that slows
most nearly as its own work does (``workloads.REFERENCE``).  A ``Clock``
times the mix between the timings of a repetition and scales each timing
by the mix's quiet time over the mean of the two mix times around it
(README.md, "Scaled time").

The routines use nothing from the package under test, so a change to the
program never changes them.
"""

from __future__ import annotations

import time

# Seconds each routine takes on a quiet 2-vCPU Intel Xeon VM with Python
# 3.11.7 (the 10th percentile of 200 calls).  Scaled timings read as
# seconds at that speed.
REF_S = {"objects": 0.0235, "ints": 0.025, "bigints": 0.0395}

# The reference runs again after a timing once this much time has passed
# since it last ran; the machine's speed changes within seconds.
EVERY_S = 0.5

# The import that setup_s times is scaled by this mix, in every workload.
SETUP_MIX = ("objects", "ints", "bigints")


class _Node:
    __slots__ = ("left", "right", "key")

    def __init__(self, left, right, key):
        self.left = left
        self.right = right
        self.key = hash((key, left if isinstance(left, int) else left.key))


def _build(depth: int, k: int):
    if depth == 0:
        return k
    return _Node(_build(depth - 1, k), _build(depth - 1, k + 1), k)


def _walk(node, seen: dict) -> int:
    if isinstance(node, int):
        return node
    if node.key in seen:
        return seen[node.key]
    total = _walk(node.left, seen) + _walk(node.right, seen)
    seen[node.key] = total
    return total


def objects() -> int:
    """Small objects with __slots__, tuple hashing, dict look-ups, recursion, sorting."""
    total = 0
    for i in range(50):
        seen: dict = {}
        total += _walk(_build(10, i), seen)
        total += sorted((k % 97, k) for k in seen)[0][0]
    return total


def ints() -> int:
    """A tight loop of arithmetic on integers of a few hundred bits."""
    total = 0
    x = 7**300
    for i in range(60000):
        q, r = divmod(x * (i + 1), 1000003 + i)
        total += r + (q & 0xFF)
    return total


_X, _Y = 3**30000, 5**22000


def bigints() -> int:
    """Products and quotients of integers of 50k to 100k bits."""
    total = 0
    for i in range(8):
        q, r = divmod(_X * (_Y + i), _Y - i)
        total += r & 0xFF
    return total


ROUTINES = {"objects": objects, "ints": ints, "bigints": bigints}


def quiet(mix) -> float:
    """Seconds the mix of routines takes on the quiet machine."""
    return sum(REF_S[name] for name in mix)


def timed(mix) -> float:
    """Wall time of one call of each routine of the mix."""
    t = time.perf_counter()
    for name in mix:
        ROUTINES[name]()
    return time.perf_counter() - t


class Clock:
    """Gives each timing of a repetition the scale that turns it into seconds at quiet speed."""

    def __init__(self, mix) -> None:
        self.mix = tuple(mix)
        self.refs = [timed(self.mix)]
        self.since = time.perf_counter()
        self.pending: list[tuple[dict, str]] = []

    def lap(self, out: dict, name: str) -> None:
        """Mark ``out[name]`` as timed; it gets ``out[name + "_scale"]`` once the reference runs again."""
        self.pending.append((out, name))
        if time.perf_counter() - self.since > EVERY_S:
            self.close()

    def close(self) -> None:
        """Run the reference now and scale every timing still waiting for it."""
        if self.pending:
            self.refs.append(timed(self.mix))
            scale = quiet(self.mix) / ((self.refs[-2] + self.refs[-1]) / 2)
            for o, n in self.pending:
                o[n + "_scale"] = scale
            self.pending = []
            self.since = time.perf_counter()
