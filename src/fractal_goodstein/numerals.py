"""Exact arithmetic on hereditary base representations.

Everything here works on plain Python ints and never goes through
floating point.  A bit budget guards against materializing numbers so
wide that downstream work becomes infeasible.

Within a deep base change's walk a power is derived from the one above it,
exact and no wider than it (_ladder).  An even base's power is its odd part's
power, shifted.  A decomposition takes a logarithm only where its exponent is
not provably small, counted up from 0.  _change_width carries the iterates of
a polynomial deep change by their widths.

A deep change asked to hold its result, whose lead is past 256 bits and fits
the budget by the widths alone, takes no power: it returns a Form, its digits
along c, which answers width and order from them and takes its integer once,
when something else reads it.  A Form over b is walked by its digits, so a
step that hands its value on as a Form spares the next walk its decompositions.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import ge, gt, le, lt
from typing import Callable, NamedTuple

__all__ = [
    "BudgetExceededError",
    "BitBudget",
    "DEFAULT_BUDGET",
    "Infinity",
    "INFINITY",
    "ExtNat",
    "Decomposition",
    "decompose",
    "digits",
    "base_change",
    "superexp",
]


class BudgetExceededError(Exception):
    """A computation would exceed the active budget."""


class BitBudget:
    """Cap on the bit length of any single value.

    The budget is stateless: it does not meter cumulative work, it only
    refuses to produce a number wider than ``bits`` bits.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int = 1 << 20) -> None:
        if type(bits) is not int:
            raise TypeError(f"a bit budget is an integer, got {bits!r:.40}")
        if bits < 1:
            raise ValueError("budget must allow at least one bit")
        self.bits = bits

    def check(self, n: int) -> int:
        if n.bit_length() > self.bits:
            raise BudgetExceededError(
                f"value of {n.bit_length()} bits exceeds budget of {self.bits} bits"
            )
        return n

    def pow(self, base: int, exp: int) -> int:
        """base**exp, refused before it is taken if it cannot fit the budget."""
        # pre-guard: refuse before materializing anything astronomically wide
        if base >= 2 and (
            exp > self.bits or (base.bit_length() - 1) * exp > self.bits
        ):
            raise self.refusal(base, exp)
        return self.check(_power(base, exp))

    def refusal(self, base: int, exp: int) -> BudgetExceededError:
        return BudgetExceededError(f"{_short(base)}**{_short(exp)} exceeds budget of {self.bits} bits")


def _power(base: int, exp: int) -> int:
    """base**exp, an even base o * 2**t taken as o**exp shifted left by t * exp bits.

    The shift is linear in the width, and the products that build the power
    are narrower, the last by t * exp bits.
    """
    if (t := (base & -base).bit_length() - 1) > 0:
        return (base >> t) ** exp << t * exp
    return base**exp


def _short(n: int) -> str:
    # huge values cannot even be printed in full (int-to-str digit limits)
    if n.bit_length() <= 256:
        return str(n)
    return f"<{n.bit_length()}-bit integer>"


DEFAULT_BUDGET = BitBudget()


@total_ordering
class Infinity:
    """Positive infinity for extended natural arithmetic.

    A dedicated singleton type rather than a sentinel integer, so it can
    never be confused with an actual value.  Comparisons with ints work
    in both directions.
    """

    _instance: "Infinity | None" = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Infinity)

    def __hash__(self) -> int:
        return hash("fractal_goodstein.Infinity")

    def __lt__(self, other: object):
        if isinstance(other, (int, Infinity)):
            return False
        return NotImplemented


INFINITY = Infinity()

ExtNat = int | Infinity


# log2 of a base is bounded in fixed point with _LOG_BITS fraction bits,
# computed on a mantissa of _LOG_BITS + 4 bits
_LOG_BITS = 64
_MANT_BITS = _LOG_BITS + 4

_LADDER_BITS = 256  # the widest divisor that derives a power from the one above


@lru_cache(maxsize=4096)
def _log2_frac(top: int) -> int:
    """Fraction bits F of log2(x), for x = top / 2**_MANT_BITS in [1, 2).

    Squaring x doubles log2(x); a square at or above 2 yields a 1 bit and is
    halved.  Each right shift rounds x down by less than 2**-_MANT_BITS,
    which lowers log2(x) by less than 2**(1 - _MANT_BITS), weighted 2**-i at
    bit i; a mantissa cut short by less than 2**-_MANT_BITS costs as much at
    weight 1.  With the bits not extracted, which weigh less than one unit,
    F <= 2**_LOG_BITS * log2(x') < F + 1.25 for any such uncut mantissa x'.
    """
    x, frac, two = top, 0, 2 << (2 * _MANT_BITS)
    for _ in range(_LOG_BITS):
        x *= x
        frac <<= 1
        if x >= two:
            x >>= _MANT_BITS + 1
            frac |= 1
        else:
            x >>= _MANT_BITS
    return frac


def _log2_ceil(b: int) -> int:
    """An integer h with 2**_LOG_BITS * log2(b) < h <= that + 2, for b >= 2."""
    k = b.bit_length() - 1
    # the leading _MANT_BITS + 1 bits of b, as x = top / 2**_MANT_BITS in [1, 2);
    # cutting lower bits rounds x down, which _log2_frac allows for
    top = b >> (k - _MANT_BITS) if k > _MANT_BITS else b << (_MANT_BITS - k)
    return (k << _LOG_BITS) + _log2_frac(top) + 2


def _ladder(b: int, e: int, above: tuple[int, int] | None, take: Callable[[int, int], int]) -> int:
    """b**e: above = (e', b**e') divided by b**(e' - e) when that is narrow, else take(b, e)."""
    if above and 0 < (g := above[0] - e) * b.bit_length() <= _LADDER_BITS:
        return above[1] // b**g
    return take(b, e)


def _floor_log(n: int, b: int, above: tuple[int, int] | None = None) -> tuple[int, int]:
    """Largest e with b**e <= n, together with b**e.  Requires n >= 1, b >= 2.

    A start e0 with b**e0 <= n is stepped up by multiplications by b.  With L
    the bit length of n and w = (bit length of b) - 1 <= log2(b), the answer
    is at most (L - 1) // w.  The start is e0 = 0 when L <= 64, or L <= 256
    and that bound is below 16; else e0 = floor((L - 1) / h) for an upper
    bound h on log2(b) from _log2_ceil, in integers: e0 * log2(b) <= L - 1,
    so b**e0 <= 2**(L - 1) <= n.  b**e0 is the one power taken, and at most
    two steps remain; given ``above`` = (e', b**e') with n < b**e', it is
    derived from that power (_ladder).
    """
    L, w = n.bit_length(), b.bit_length() - 1
    if L <= 64 or L <= 256 and (L - 1) // w < 16:
        e, power = 0, 1
    else:
        e = ((L - 1) << _LOG_BITS) // _log2_ceil(b)
        power = _ladder(b, e, above, pow)
        # The answer e* has b**e* <= n < 2**L, so it lies below
        # L / log2(b) <= (L - 1) / log2(b) + 1, and the floor puts e0 above
        # (L - 1) / h - 1, where h exceeds log2(b) by at most
        # 2**(1 - _LOG_BITS).  So the gap is under
        # 2 + (L - 1) * 2**(1 - _LOG_BITS), below 3 for any n narrower than
        # 2**63 bits: the loop below takes at most two steps.
    while (up := power * b) <= n:
        power = up
        e += 1
    return e, power


class Decomposition(NamedTuple):
    """n = base**exp * coeff + rest with 0 < coeff < base and rest < base**exp."""

    base: int
    exp: int
    coeff: int
    rest: int


def decompose(n: int, b: int) -> Decomposition:
    """Leading-term b-decomposition of n >= 1."""
    if b < 2:
        raise ValueError(f"base must be at least 2, got {b}")
    if n <= 0:
        raise ValueError(f"cannot decompose {n}: need a positive number")
    if n < b:
        return Decomposition(b, 0, n, 0)
    e, power = _floor_log(n, b)
    coeff, rest = divmod(n, power)
    return Decomposition(b, e, coeff, rest)


def digits(n: int, b: int) -> frozenset[int]:
    """All hereditary base-b digits of n, exponents included."""
    if b < 2:
        raise ValueError(f"base must be at least 2, got {b}")
    if n < 0:
        raise ValueError(f"cannot take digits of {n}")
    out: set[int] = set()
    visited: set[int] = set()
    stack = [n]
    while stack:
        m = stack.pop()
        if m < b:
            out.add(m)
            continue
        if m in visited:
            continue
        visited.add(m)
        _, e, a, r = decompose(m, b)
        stack += (e, a, r)
    return frozenset(out)


def _phi_value(
    up: Callable[[int], ExtNat] | None,
    b: int,
    c: int,
    m: int | Form,
    budget: BitBudget,
    low: int,
    held: list[tuple[int, int]] | None = None,
) -> ExtNat | Form:
    """Deep base change of m: hereditary base-b monomials rebuilt over c.

    Digits and small remainders below ``low`` stay as they are, those from
    ``low`` up to b are upgraded by up(), and exponents are rewritten
    recursively.  Infinite digit upgrades make the whole value infinite.
    With low == b no digit is upgraded (up is never called): that is the
    hereditary base change.

    A power of at most min(_LADDER_BITS, budget.bits) bits by pe * (bit
    length of c) passes the guards of budget.pow by its width and is taken
    directly.  Later powers of a walk are exact quotients of the ones above
    them (_ladder), never wider than a power budget.pow already checked, so
    deaths are the same.

    A Form m over b is walked by its own monomials and then its run, with no
    logarithm and no division.  Given a list ``held``, a change whose lead
    c**pe is past 256 bits and whose c**(pe + 1) fits the budget, both by
    c's width, takes no power: it puts its monomials (pe, ua) in ``held`` and
    returns their Form.  No check can fail on the way, as every sum it
    checks lies below c**(pe + 1).
    """
    acc: ExtNat = 0
    rest, bits, todo, run = m, budget.bits, (), 0
    if type(m) is Form:
        rest, todo, run = m.tail, m.terms[::-1], m.run
    elif m < b:
        return m if m < low else up(m)
    above = cpow = None  # (e, b**e) and (pe, c**pe) of the monomial before
    # walk monomials iteratively; recursion depth is only the exponent tower
    while todo or run or rest >= b:
        if todo:
            e, a = todo.pop()
        elif run:
            e, a, run = run, b - 1, run - 1
        else:
            e, bpow = above = _floor_log(rest, b, above)
            a, rest = divmod(rest, bpow)
        if e < b:  # most exponents are single digits: no recursive call
            pe = e if e < low else up(e)
        else:
            pe = _phi_value(up, b, c, e, budget, low)
        ua = a if a < low else up(a)
        if pe is INFINITY or ua is INFINITY:
            acc = INFINITY
            break
        if held is not None and (
            held or _LADDER_BITS <= pe * (c.bit_length() - 1) and (pe + 1) * c.bit_length() <= bits
        ):
            held.append((pe, ua))
            continue
        held = None  # only the lead decides
        if (w := pe * c.bit_length()) <= _LADDER_BITS and w <= bits:
            power = c**pe  # fits the budget by its width: the guards cannot fail
        else:
            power = _ladder(c, pe, cpow, budget.pow)
        cpow = pe, power
        acc += power * ua
        if acc.bit_length() > bits:
            budget.check(acc)
    if acc is not INFINITY and rest:
        tail = rest if rest < low else up(rest)
        acc = INFINITY if tail is INFINITY else budget.check(acc + tail)
    return Form(c, held, acc) if held and acc is not INFINITY else acc


Bracket = tuple[int, int, int]  # (s, lo, hi): lo * 2**s <= value < hi * 2**s


def _bracket(s: int, lo: int, hi: int) -> Bracket:
    """(s, lo, hi), exact up to 256 bits as _short prints it, else cut to 128: lo down, hi up."""
    t = lo.bit_length() - 128 if s or lo.bit_length() > 256 else 0
    return s + t, lo >> t, -(-hi >> t)


def _width(v: Bracket) -> int | None:
    """The bit length of every value in v; None if v straddles a power of two."""
    return v[1].bit_length() + v[0] if v[1].bit_length() == (v[2] - 1).bit_length() else None


def _pow_bracket(c: int, e: int) -> Bracket:
    """c**e for e >= 1 as a bracket, squared up bit by bit and cut as _bracket cuts."""
    v = _bracket(0, c, c + 1)
    for bit in bin(e)[3:]:
        s, lo, hi = v = _bracket(2 * v[0], v[1] ** 2, v[2] ** 2 if v[0] else v[1] ** 2 + 1)
        if bit == "1":
            v = _bracket(s, lo * c, hi * c if s else lo * c + 1)
    return v


def _ordered(op: Callable[[int, int], bool]) -> Callable[[Form, int | Form], bool]:
    """A comparison of a Form: by its integer once it is taken, else by Form._cmp."""
    return lambda self, o: op(self._n, o) if self._n is not None and type(o) is int else op(self._cmp(o), 0)


class Form:
    """A value held as the change that built it, sum(c**pe * ua) + tail, until its integer is read.

    Its digits along c have falling exponents and ua, tail < c, so its lead bounds its width:
    lo <= width <= hi; a run k > 0 puts c - 1 at each exponent from k to 1 after a last monomial
    (k + 1, c - 1).  Comparisons read the bounds, then the width a bracket settles, which
    bit_length() and so _short read too.  Anything else takes the integer once, by int().
    """

    __slots__ = ("c", "terms", "run", "tail", "lo", "hi", "_n")

    def __init__(
        self, c: int, terms: list[tuple[int, int]], tail: int, run: int = 0, n: int | None = None
    ) -> None:
        (pe, ua), w = terms[0], c.bit_length()
        self.c, self.terms, self.run, self.tail, self._n = c, terms, run, tail, n
        self.lo, self.hi = pe * (w - 1) + ua.bit_length(), (pe + 1) * w

    def __index__(self) -> int:
        """The sum, each power derived from the one above where it can; a run adds c**(k + 1) - c."""
        if self._n is None:
            n, above = self.tail, None
            for pe, ua in self.terms:
                above = pe, _ladder(self.c, pe, above, _power)
                n += above[1] * ua
            self._n = n + above[1] - self.c if self.run else n
        return self._n

    def bit_length(self) -> int:
        if self._n is None:  # the monomials below the lead sum to less than c**k
            (pe, ua), k = self.terms[0], self.terms[1][0] + 1 if len(self.terms) > 1 else self.run + 1
            (s, lo, hi), (t, _, top) = _pow_bracket(self.c, pe), _pow_bracket(self.c, k)
            if w := _width(_bracket(s, lo * ua, hi * ua + (top << t >> s) + 1)):
                return w
        return int(self).bit_length()

    def _cmp(self, o: int | Form) -> int:
        """The sign of self - o, read from widths where they differ."""
        if o is self:
            return 0
        lo, hi = (o.lo, o.hi) if type(o) is Form else (o.bit_length(),) * 2
        if hi < self.lo or lo > self.hi:
            return 1 if hi < self.lo else -1
        if (w := self.bit_length()) != (v := o.bit_length()):
            return 1 if w > v else -1
        return (int(self) > int(o)) - (int(self) < int(o))

    def __eq__(self, o: object) -> bool:
        return self._n == o if self._n is not None else isinstance(o, (int, Form)) and self._cmp(o) == 0

    __lt__, __le__, __gt__, __ge__ = map(_ordered, (lt, le, gt, ge))
    __hash__ = lambda self: hash(int(self))
    __repr__ = lambda self: repr(int(self))

    def __sub__(self, one: int) -> int | Form:
        """self - 1 as a form, carrying the integer if it is known: the lowest monomial lends
        c**pe, and each digit below it is c - 1, the first listed and the rest a run."""
        c, terms, tail, n = self.c, self.terms, self.tail, self._n and self._n - 1
        if one != 1 or self.run and not tail:
            return int(self) - one
        if tail:
            return Form(c, terms, tail - 1, self.run, n)
        (pe, ua), terms = terms[-1], terms[:-1]
        terms += [(pe, ua - 1)] * (ua > 1) + [(pe - 1, c - 1)] * (pe > 1)
        return Form(c, terms, c - 1, max(pe - 2, 0), n)

    def next_multiple(self) -> int | Form:
        """c * (self // c + 1) of a form fresh from _phi_value, in place: a carry forces."""
        c, terms, (pe, ua) = self.c, self.terms, self.terms[-1]
        if self.tail >= c or pe == 1 and ua + 1 == c:
            return c * (int(self) // c + 1)
        terms[-1:], self.tail = [(1, ua + 1)] if pe == 1 else [(pe, ua), (1, 1)], 0
        return self


def _change_width(m: int, b: int, low: int, d: Bracket) -> tuple[Bracket, int] | None:
    """The deep change of m into d as a bracket, and m's lead exponent e1; None out of reach.

    With m's hereditary digits along b below low, the change is P(d) = sum(d**e * a) + r,
    taken exactly on an exact d (s = 0, hi = lo + 1).  For a cut d, with r plus the other
    coefficients below 2**s, P(d) lies in [lo', hi') * 2**(s*e1): lo' = lo**e1 * a1 and
    hi' = hi**(e1 - 1) * (hi * a1 + 1), as each later monomial is at most d**(e1 - 1) * a.
    """
    terms = []
    while m >= b:
        e, power = _floor_log(m, b)
        a, m = divmod(m, power)
        if e >= low or a >= low:
            return None
        terms.append((e, a))
    (e1, a1), (s, lo, hi) = terms[0], d
    if m >= low or s and sum(a for _, a in terms[1:]) + m >> s:
        return None
    if s:
        return _bracket(s * e1, lo**e1 * a1, hi ** (e1 - 1) * (hi * a1 + 1)), e1
    x = sum(lo**e * a for e, a in terms) + m
    return _bracket(0, x, x + 1), e1


def base_change(n: int, b: int, c: int, budget: BitBudget = DEFAULT_BUDGET) -> int:
    """Rewrite n from hereditary base b to base c >= b, digits unchanged.

    Strictly monotone in n, the identity when c == b.
    """
    if b < 2:
        raise ValueError(f"base must be at least 2, got {b}")
    if c < b:
        raise ValueError(f"target base {c} must be at least the source base {b}")
    if n < 0:
        raise ValueError(f"cannot base-change {n}")
    budget.check(n)
    return _phi_value(None, b, c, n, budget, b)


def superexp(x: int, y: int, budget: BitBudget = DEFAULT_BUDGET) -> int:
    """Iterated exponentiation: a tower of y copies of x."""
    if x < 0 or y < 0:
        raise ValueError("superexp needs nonnegative arguments")
    out = 1
    for _ in range(y):
        out = budget.pow(x, out)
    return out
