"""Ordinal readings of hereditary notation over a base hierarchy.

Two collapses share one positional engine.  The theta reading splits a value
along its lower base and anchors the split point at earlier hierarchy
elements, which makes it strictly monotone and certificate grade.  The psi
reading interprets digits literally along the upper base; it is not monotone
but it commutes with upgrades, and fundamental-sequence entries of psi values
can be realized by explicit integers.  Everything here is an exact term
computation, no limits are taken anywhere.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .hierarchy import FiniteHierarchy, Hierarchy, _coerce
from .numerals import (
    DEFAULT_BUDGET,
    BitBudget,
    _short,
    decompose,
    digits,
)
from .ordinal_terms import (
    CNT_ONE,
    CNT_ZERO,
    Cofinality,
    CntTerm,
    Index,
    OrdTerm,
    OrdinalError,
    check_plus_big_omega,
    cnt_add,
    cofinality,
    compare,
    compare_cnt,
    compare_spines,
    fin_cnt,
    fin_ord,
    fund_seq,
    lift,
    natural_sum,
    omega_monomial,
    ord_sum,
    psi,
    theta,
)
from .successors import PlusHierarchy

__all__ = [
    "ThetaInterpretation",
    "PsiInterpretation",
    "IotaProvenance",
    "o_from_digits",
    "fs_witness",
    "majorize_witness",
]


def o_from_digits(
    b: int,
    f: Callable[[int], CntTerm],
    x: int,
    rest: Callable[[int], CntTerm] | None = None,
) -> OrdTerm:
    """Positional ordinal of x along base b, digits read through f.

    Coefficients and exponent leaves go through f; exponents at or above b
    recurse.  A trailing remainder below b goes through rest instead, which
    defaults to f.  The pieces are summed in one pass (ord_sum).
    """
    if b < 2:
        raise ValueError(f"base must be at least 2, got {b}")
    if rest is None:
        rest = f
    if x < b:
        return lift(f(x))

    def pieces() -> Iterator[OrdTerm]:
        t = x
        while t >= b:
            _, e, a, r = decompose(t, b)
            exp = lift(f(e)) if e < b else o_from_digits(b, f, e, rest)
            yield omega_monomial(exp, f(a))
            t = r
        if t:
            yield lift(rest(t))

    return ord_sum(pieces())


class ThetaInterpretation:
    """Strictly monotone collapse of hereditary notation over a hierarchy.

    upper(n) is the uncountable reading, value(n) the countable collapse
    used in termination certificates.  Values below the minimum base read as
    themselves; hierarchy elements restart the notation on top of the
    reading of what is left below them.
    """

    def __init__(self, base: Hierarchy | Iterable[int]) -> None:
        self.base = _coerce(base)
        self._upper: dict[int, OrdTerm] = {}
        self._value: dict[int, CntTerm] = {}

    def upper_base_term(self, b: int, n: int) -> OrdTerm:
        """The uncountable reading of n forced along the single base b."""
        return o_from_digits(b, self._digit, n, rest=self.value)

    def _digit(self, m: int) -> CntTerm:
        # literal only below the minimum base; larger digits go through the
        # collapse, which upgrades preserve
        if m < self.base.min_base:
            return fin_cnt(m)
        return self.value(m)

    def upper(self, n: int) -> OrdTerm:
        if n < 0:
            raise ValueError(f"cannot interpret {n}")
        hit = self._upper.get(n)
        if hit is not None:
            return hit
        h = self.base
        if n < h.min_base:
            out = fin_ord(n)
        elif n in h and n != h.min_base:
            b = h.lower_base(n)
            # the value is added as the term lift(value), which is checked on
            # its own first: a value at the node budget stops at that term
            x, y = self.upper_base_term(b, n - b), lift(self.value(n - b))
            out = OrdTerm(x.monos, cnt_add(x.tail, y.tail))
        else:
            out = self.upper_base_term(h.lower_base(n), n)
        self._upper[n] = out
        return out

    def star(self, n: int) -> CntTerm:
        """Collapse at the largest earlier element whose reading majorizes n.

        Comparison happens after adding one uncountable step to both sides,
        so a countable difference on top of a shared spine does not count.
        Every exponent is at least 1, so x + Omega keeps the monomials of x,
        drops its tail, and adds 1 to an Omega^1 coefficient or appends
        Omega^1*1 alike on both sides: the sums compare as the monomials do
        (compare_spines).  They are not built, but their budget checks run.
        """
        spine = self.upper(n)
        check_plus_big_omega(spine)
        below: list[int] = []
        for x in self.base.elements_from(0):
            if x >= n:
                break
            below.append(x)
        for b_star in reversed(below):
            candidate = self.upper(b_star)
            check_plus_big_omega(candidate)
            if compare_spines(candidate, spine) >= 0:
                return self.value(b_star)
        return CNT_ZERO

    def value(self, n: int) -> CntTerm:
        hit = self._value.get(n)
        if hit is not None:
            return hit
        if n < self.base.min_base:
            out = theta(fin_ord(n))  # no element lies below n, so star(n) is 0
        else:
            arg, star = self.upper(n), self.star(n)
            out = theta(arg if star.is_zero() else natural_sum(arg, lift(star)))
        self._value[n] = out
        return out


class ThetaReader:
    """Theta certificates of one run, each read afresh or from the step before.

    Fed the values of consecutive steps of one run, with their stages.  The
    upgrade from the single base b - 1 to the single base b is the hereditary
    base change, which keeps the reading of every monomial.  So when the
    previous reading was taken at {b - 1} with a positive trailing digit r,
    the stage is {b}, and the value stays above b, the decrement only turns
    the tail v(r) into v(r - 1), or nothing at 0, and star keeps the same
    spine and value.  Every other step (a borrow, a value at or below the
    base, a stage of other bases, the first one) reads afresh through
    ThetaInterpretation, the oracle of every step.
    """

    def __init__(self) -> None:
        self._last: tuple[int, OrdTerm, CntTerm, int] | None = None  # (b, arg, star, r)

    def value(self, stage: Hierarchy, n: int) -> CntTerm:
        last, self._last = self._last, None
        # reuse needs n > b: at n == b nothing lies below n, so star turns to 0
        if not (isinstance(stage, FiniteHierarchy) and len(stage) == 1 and n > stage.min_base):
            return ThetaInterpretation(stage).value(n)
        b = stage.min_base
        if last is not None and last[0] == b - 1 and last[3]:
            _, arg, star, r = last
            r -= 1
            arg = OrdTerm(arg.monos, theta(fin_ord(r)) if r else CNT_ZERO)
        else:
            fresh = ThetaInterpretation(stage)
            arg, star, r = fresh.upper(n), fresh.star(n), n % b
        out = theta(arg if star.is_zero() else natural_sum(arg, lift(star)))
        self._last = (b, arg, star, r)
        return out


class PsiInterpretation:
    """Upgrade-invariant collapse of hereditary notation over a hierarchy.

    One digit function everywhere: upper(n) reads n along its upper base
    with every digit interpreted by value, and value(n) collapses that.
    """

    def __init__(self, base: Hierarchy | Iterable[int]) -> None:
        self.base = _coerce(base)
        self._upper: dict[int, OrdTerm] = {}
        self._value: dict[int, CntTerm] = {}

    def upper_base_term(self, b: int, n: int) -> OrdTerm:
        return o_from_digits(b, self.value, n)

    def upper(self, n: int) -> OrdTerm:
        if n < 0:
            raise ValueError(f"cannot interpret {n}")
        hit = self._upper.get(n)
        if hit is not None:
            return hit
        if n < self.base.min_base:
            out = fin_ord(n)
        else:
            out = self.upper_base_term(self.base.upper_base(n), n)
        self._upper[n] = out
        return out

    def value(self, n: int) -> CntTerm:
        hit = self._value.get(n)
        if hit is not None:
            return hit
        if n < self.base.min_base:
            out = fin_cnt(n)
        else:
            out = psi(self.upper(n))
        self._value[n] = out
        return out

    # Normal forms.  A value is upper normal along b when every layer of its
    # decomposition is normal and each remainder stays under the monomial it
    # follows; it is normal outright when on top of that every hereditary
    # digit collapses strictly below the value itself.

    def is_upper_base_normal(self, b: int, n: int) -> bool:
        if n < self.base.min_base:
            return True
        if n < b:
            return self.is_normal(n)
        _, e, a, r = decompose(n, b)
        if not self.is_normal(a):
            return False
        if not (self.is_upper_normal(e) and self.is_upper_normal(r)):
            return False
        if r == 0:
            return True
        bound = omega_monomial(self.upper_base_term(b, e), CNT_ONE)
        return compare(self.upper_base_term(b, r), bound) < 0

    def is_upper_normal(self, n: int) -> bool:
        if n < self.base.min_base:
            return True
        return self.is_upper_base_normal(self.base.upper_base(n), n)

    def is_normal(self, n: int) -> bool:
        if n < self.base.min_base:
            return True
        if not self.is_upper_normal(n):
            return False
        own = self.value(n)
        b = self.base.upper_base(n)
        return all(compare_cnt(self.value(c), own) < 0 for c in digits(n, b))


class IotaProvenance(NamedTuple):
    """An index ordinal arriving with an integer realization in hand.

    value is the index itself, c realizes it (the psi value of c is the
    index), and digit_witness steps a single digit down by the index when
    the caller knows how; it may be omitted when no limit digit will be hit.
    """

    value: Index
    c: int
    digit_witness: Callable[[int], int] | None = None


def _digit_step(interp: PsiInterpretation, iota: IotaProvenance, d: int) -> int:
    val = interp.value(d)
    if val.is_zero():
        raise OrdinalError("cannot step a zero digit down")
    if val.is_finite():
        return d - 1
    if iota.digit_witness is None:
        raise OrdinalError(f"no digit witness available for {_short(d)}")
    return iota.digit_witness(d)


def fs_witness(
    interp: PsiInterpretation,
    b: int,
    s: int,
    iota: IotaProvenance,
    budget: BitBudget = DEFAULT_BUDGET,
) -> int:
    """An integer whose reading along b is a fundamental-sequence entry.

    Returns s2 with upper_base_term(b, s2) equal to the entry of
    upper_base_term(b, s) at iota.value.  The index must be finite unless
    the reading of s is uncountably cofinal, and the provenance integer must
    actually realize the index.
    """
    term = interp.upper_base_term(b, s)
    cof = cofinality(term)
    if cof is Cofinality.ZERO:
        raise OrdinalError("cannot step zero down")
    if cof is not Cofinality.BIG_OMEGA and not isinstance(iota.value, int):
        raise OrdinalError(
            f"index {iota.value!r} is not finite but the reading of "
            f"{_short(s)} is not uncountably cofinal"
        )
    want = fin_cnt(iota.value) if isinstance(iota.value, int) else iota.value
    if interp.value(iota.c) != want:
        raise OrdinalError(f"provenance {iota.c} does not realize the index")
    return _fs_witness(interp, b, s, iota, budget)


def _fs_witness(
    interp: PsiInterpretation,
    b: int,
    s: int,
    iota: IotaProvenance,
    budget: BitBudget,
) -> int:
    if s < b:
        return _digit_step(interp, iota, s)
    if s == b:
        return iota.c
    _, e, a, r = decompose(s, b)
    if r > 0:
        return budget.check((s - r) + _fs_witness(interp, b, r, iota, budget))
    alpha = interp.value(a)
    block = s // a
    if alpha == CNT_ONE:
        # s is exactly a power of b; step inside the exponent
        eta = interp.upper_base_term(b, e)
        if e >= b:
            new_e = _fs_witness(interp, b, e, iota, budget)
        else:
            new_e = _digit_step(interp, iota, e)
        if eta.tail.fin > 0:
            return budget.check(budget.pow(b, new_e) * iota.c)
        return budget.pow(b, new_e)
    if alpha.is_finite():
        return budget.check(block * (a - 1) + _fs_witness(interp, b, block, iota, budget))
    if alpha.fin > 0:
        raise OrdinalError(f"digit {_short(a)} has a mixed successor value")
    return budget.check(block * _digit_step(interp, iota, a))


def majorize_witness(
    base: Hierarchy | Iterable[int],
    k: int,
    n: int,
    i: int,
    budget: BitBudget = DEFAULT_BUDGET,
    plus: PlusHierarchy | None = None,
) -> int:
    """An integer realizing the i-th entry under the psi value of n.

    Over the k-th successor of the base hierarchy, the psi value of the
    returned integer is the i-th fundamental-sequence entry of the psi value
    of n, which the upgrade preserves.  The index must stay below both the
    minimum base and k + 2, and n must be in normal form.
    """
    B = _coerce(base)
    if plus is None:
        plus = PlusHierarchy(B, k, budget=budget)
    bound = min(B.min_base, k + 2)
    if not 0 <= i < bound:
        raise ValueError(f"index {i} is out of range for this hierarchy pair")
    if n == 0:
        return 0
    if n < B.min_base:
        return n - 1
    side_b = PsiInterpretation(B)
    if not side_b.is_normal(n):
        raise OrdinalError(f"{_short(n)} is not in normal form over {B!r}")
    if n in B:
        return i
    side_c = PsiInterpretation(plus)
    zeta = side_b.upper(n)
    critical = cofinality(zeta) is Cofinality.BIG_OMEGA
    if critical:
        if not B.is_critical(n):
            raise OrdinalError(
                f"{_short(n)} reads as uncountably cofinal but is not critical"
            )
        d = plus.d_sequence(n)
    # each upgraded digit of n, back to the digit it came from
    pre = {plus.upgrade_value(x): x for x in digits(n, B.upper_base(n))}

    def digit_witness(j: int) -> Callable[[int], int] | None:
        """Steps an upgraded digit down by index j; None when j is out of range."""
        if j >= bound:
            return None

        def witness(v: int) -> int:
            if v not in pre:
                raise OrdinalError(f"no digit witness for {_short(v)}")
            return majorize_witness(B, k, pre[v], j, budget, plus)

        return witness

    if not critical:
        s = plus.upgrade_value(n)
        chosen = plus.chosen_base(n)
        assert chosen is not None
        return fs_witness(side_c, chosen, s, IotaProvenance(i, i, digit_witness(i)), budget)
    cur = 0
    for j in range(i):
        iota_val = side_c.value(cur)
        zi = fund_seq(zeta, iota_val)
        if zi.is_countable():
            t = zi.tail
            if t == CNT_ZERO:
                cur = 0
            elif t == CNT_ONE:
                cur = 1
            else:
                raise OrdinalError(
                    f"no witness for countable entry {t!r} at round {j}"
                )
            continue
        s = d[j + 1] if j < k else plus.upgrade_value(n)
        iota = IotaProvenance(iota_val, cur, digit_witness(cur))
        cur = fs_witness(side_c, d[j], s, iota, budget)
    return cur
