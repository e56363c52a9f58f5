"""Output checks: a digest of a run's decoded content, and a textbook simulator.

The digest is taken from ``RunResult.records`` and the structured tail
fields, never from trace bytes or ``detail`` prose, so a change of trace
format or message wording does not trip it.  Printed certificates do
enter it, in the term grammar ``term_to_str`` writes.
"""

from __future__ import annotations

import hashlib


def digest(result) -> str:
    """sha256 over values, bases, printed certificates and witnesses, and stops."""
    from fractal_goodstein.ordinal_terms import lift, term_to_str

    def term(t) -> str:
        return "" if t is None else term_to_str(lift(t))

    h = hashlib.sha256()
    for r in result.records:
        psi_n = "" if r.psi_n is None else hex(r.psi_n)
        h.update(f"{r.index};{hex(r.value)};{r.base};{term(r.theta)};{psi_n};{term(r.psi_u)}\n".encode())
    stops = [None if s is None else s["step"] for s in (result.theta_stop, result.psi_stop)]
    h.update(f"{result.outcome};{len(result.records)};{stops}".encode())
    return h.hexdigest()


def _bump(n: int, b: int) -> int:
    """Hereditary base-b notation of n rewritten in base b + 1."""
    out, exp = 0, 0
    while n:
        n, d = divmod(n, b)
        if d:
            out += d * (b + 1) ** _bump(exp, b)
        exp += 1
    return out


def goodstein(seed: int, steps: int) -> list[int]:
    """The first values of the classic Goodstein sequence, bases 2, 3, 4, ..."""
    values = [seed]
    while len(values) < steps and values[-1]:
        values.append(_bump(values[-1], len(values) + 1) - 1)
    return values
