"""Term calculus for ordinals below the Bachmann-Howard ordinal.

Terms are two-sorted.  An OrdTerm is a sum of Omega-monomials plus a
countable tail; a CntTerm (countable term) is a sum of atom copies plus
a finite part.  Atoms are the countable building blocks: the distinguished
omega, and collapses v(.) and p(.) of OrdTerms.

The two collapse flavors live in disjoint universes that share this one
skeleton: v-atoms certify termination, p-atoms witness lower bounds.
Comparing a v-atom with a p-atom is a type error by design.

All terms are immutable and sized; building a term above the node or
depth budget raises BudgetExceededError.  The depth budget matters
independently: iterated collapses nest fast, and a deep-but-narrow term
would otherwise overflow the interpreter stack in comparison or printing
long before the node count became suspicious.

Each distinct term is built once while a bounded per-class table holds
it: a constructor call with the arguments of a stored term returns that
term, and a full table is cleared back to the module constants.
Equality and hashing stay structural, so the table is a cache that no
result depends on.
"""

from __future__ import annotations

import enum
import operator
import re
from typing import Iterable, Iterator, Union

from .numerals import BudgetExceededError

__all__ = [
    "TERM_NODE_BUDGET",
    "TERM_DEPTH_BUDGET",
    "OrdinalError",
    "Atom",
    "CntTerm",
    "OrdTerm",
    "CNT_ZERO",
    "CNT_ONE",
    "ZERO",
    "ONE",
    "OMEGA",
    "OMEGA_ORD",
    "BIG_OMEGA",
    "fin_cnt",
    "fin_ord",
    "lift",
    "as_cnt",
    "theta",
    "psi",
    "omega_monomial",
    "omega_tower",
    "compare",
    "compare_cnt",
    "compare_spines",
    "natural_sum",
    "natural_sum_cnt",
    "ord_sum",
    "cnt_add",
    "check_plus_big_omega",
    "Cofinality",
    "cofinality",
    "fund_seq",
    "fund_seq_cnt",
    "step_down",
    "big_f",
    "is_psi_normal_form",
    "term_to_str",
    "cnt_to_str",
    "CntPrinter",
    "parse_term",
]

# Guards against runaway term growth (iterated collapses can nest quickly).
# The depth bound must stay far below the interpreter recursion limit.
TERM_NODE_BUDGET = 10_000
TERM_DEPTH_BUDGET = 200


class OrdinalError(Exception):
    """Structural misuse of the term calculus."""


# entries per class before its table is cleared
_TABLE_LIMIT = 1 << 16


class _Interned(type):
    """Term classes whose constructor returns the stored term for known arguments."""

    def __init__(cls, *args) -> None:
        super().__init__(*args)
        cls._table = {}
        cls._seed = {}  # what a cleared table starts from: the module constants

    def __call__(cls, *args):
        table = cls._table
        term = table.get(args)
        if term is None:
            # a miss runs __init__, so checks and budget errors happen here,
            # and a build that raises stores nothing
            term = super().__call__(*args)
            if len(table) >= _TABLE_LIMIT:
                table.clear()
                table.update(cls._seed)
            table[args] = term
        return term


def _check_budgets(size: int, depth: int) -> None:
    """Raise for a term of this size and depth over a budget, the node budget first."""
    if size > TERM_NODE_BUDGET:
        raise BudgetExceededError(
            f"term of {size} nodes exceeds budget of {TERM_NODE_BUDGET} nodes"
        )
    if depth > TERM_DEPTH_BUDGET:
        raise BudgetExceededError(
            f"term of depth {depth} exceeds budget of {TERM_DEPTH_BUDGET} levels"
        )


class Atom(metaclass=_Interned):
    """A countable building block: omega, or a collapse of an OrdTerm."""

    __slots__ = ("kind", "arg", "size", "depth", "_hash")

    def __init__(self, kind: str, arg: "OrdTerm | None") -> None:
        self.kind = kind
        self.arg = arg
        self.size = 1 + (arg.size if arg is not None else 0)
        self.depth = 1 + (arg.depth if arg is not None else 0)
        _check_budgets(self.size, self.depth)
        self._hash = hash(("atom", kind, arg))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Atom):
            return NotImplemented
        return self.kind == other.kind and self.arg == other.arg

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return _atom_to_str(self)


class CntTerm(metaclass=_Interned):
    """Countable term: atom copies in strictly decreasing order plus a finite part."""

    __slots__ = ("parts", "fin", "size", "depth", "_hash")

    def __init__(self, parts: tuple[tuple[Atom, int], ...], fin: int) -> None:
        if fin < 0:
            raise OrdinalError("finite part cannot be negative")
        size = depth = 1
        for atom, m in parts:
            if m < 1:
                raise OrdinalError("atom multiplicities must be positive")
            size += atom.size
            if atom.depth >= depth:
                depth = atom.depth + 1
        _check_budgets(size, depth)
        self.parts = parts
        self.fin = fin
        self.size = size
        self.depth = depth
        self._hash = hash(("cnt", parts, fin))

    def is_zero(self) -> bool:
        return not self.parts and self.fin == 0

    def is_finite(self) -> bool:
        return not self.parts

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CntTerm):
            return NotImplemented
        return self.fin == other.fin and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return cnt_to_str(self)


class OrdTerm(metaclass=_Interned):
    """Sum of Omega-monomials (exponents strictly decreasing) plus a countable tail."""

    __slots__ = ("monos", "tail", "size", "depth", "_hash")

    def __init__(self, monos: tuple[tuple["OrdTerm", CntTerm], ...], tail: CntTerm) -> None:
        size, depth = 1 + tail.size, 1 + tail.depth
        for exp, coeff in monos:
            if not (exp.monos or exp.tail.parts or exp.tail.fin) or not (coeff.parts or coeff.fin):
                raise OrdinalError("monomials need nonzero exponent and coefficient")
            size += exp.size + coeff.size
            if exp.depth >= depth or coeff.depth >= depth:
                depth = 1 + max(exp.depth, coeff.depth)
        _check_budgets(size, depth)
        self.monos = monos
        self.tail = tail
        self.size = size
        self.depth = depth
        self._hash = hash(("ord", monos, tail))

    def is_zero(self) -> bool:
        return not self.monos and self.tail.is_zero()

    def is_countable(self) -> bool:
        return not self.monos

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, OrdTerm):
            return NotImplemented
        return self.tail == other.tail and self.monos == other.monos

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return term_to_str(self)


# canonical constants
_OMEGA_ATOM = Atom("omega", None)
CNT_ZERO = CntTerm((), 0)
CNT_ONE = CntTerm((), 1)
OMEGA = CntTerm(((_OMEGA_ATOM, 1),), 0)
ZERO = OrdTerm((), CNT_ZERO)
ONE = OrdTerm((), CNT_ONE)
OMEGA_ORD = OrdTerm((), OMEGA)
BIG_OMEGA = OrdTerm(((ONE, CNT_ONE),), CNT_ZERO)

# the tables now hold exactly the constants and their subterms; a term
# rebuilt after a clear is then the constant itself, and the `is` fast
# paths keep hitting
for _cls in (Atom, CntTerm, OrdTerm):
    _cls._seed = dict(_cls._table)


def fin_cnt(n: int) -> CntTerm:
    if n < 0:
        raise OrdinalError("finite terms are nonnegative")
    return CntTerm((), n)


def fin_ord(n: int) -> OrdTerm:
    return OrdTerm((), fin_cnt(n))


def lift(c: CntTerm) -> OrdTerm:
    """Embed a countable term as an OrdTerm."""
    return OrdTerm((), c)


def as_cnt(x: OrdTerm) -> CntTerm:
    """Project a countable OrdTerm back to its tail."""
    if x.monos:
        raise OrdinalError(f"{x!r} is uncountable")
    return x.tail


def theta(arg: OrdTerm) -> CntTerm:
    """v-collapse of arg; v(0) = 1 and v(1) = omega are folded in."""
    if not (arg.monos or arg.tail.parts) and arg.tail.fin < 2:
        return OMEGA if arg.tail.fin else CNT_ONE
    return CntTerm(((Atom("theta", arg), 1),), 0)


def psi(arg: OrdTerm) -> CntTerm:
    """p-collapse of arg; countable arguments are fixed and p(Omega) = omega."""
    if arg.is_countable():
        return arg.tail
    if arg == BIG_OMEGA:
        return OMEGA
    return CntTerm(((Atom("psi", arg), 1),), 0)


def omega_monomial(exp: OrdTerm, coeff: CntTerm) -> OrdTerm:
    """Omega^exp * coeff as a term; degenerate cases fold away."""
    if coeff.is_zero():
        return ZERO
    if exp.is_zero():
        return lift(coeff)
    return OrdTerm(((exp, coeff),), CNT_ZERO)


def omega_tower(k: int) -> OrdTerm:
    """Omega^^k: a tower of k Omegas (k = 0 gives 1)."""
    out = ONE
    for _ in range(k):
        out = omega_monomial(out, CNT_ONE)
    return out


# --- comparison ---------------------------------------------------------


def _compare_atoms(a: Atom, b: Atom) -> int:
    if a is b:
        return 0
    if a.kind == "omega":
        return 0 if b.kind == "omega" else -1  # omega sits below every collapse atom
    if b.kind == "omega":
        return 1
    if a.kind != b.kind:
        raise OrdinalError(
            "cannot compare a v-collapse with a p-collapse: the two "
            "interpretations never mix"
        )
    c = compare(a.arg, b.arg)
    if c == 0 or a.kind == "psi":
        return c  # p-atoms compare by argument alone
    # v-atoms: order reflects argument order exactly when every coefficient
    # of the smaller argument stays below the larger collapse
    if c < 0:
        return -1 if _below(a.arg, b) else 1
    return 1 if _below(b.arg, a) else -1


def _below(x: OrdTerm, atom: Atom) -> bool:
    """Whether every countable coefficient in x, hereditarily, lies below the atom:
    a countable term does exactly when it is finite or its lead atom does."""
    for exp, coeff in x.monos:
        if coeff.parts and _compare_atoms(coeff.parts[0][0], atom) >= 0:
            return False
        if (exp.monos or exp.tail.parts) and not _below(exp, atom):
            return False
    parts = x.tail.parts
    return not parts or _compare_atoms(parts[0][0], atom) < 0


def compare_cnt(x: CntTerm, y: CntTerm) -> int:
    """Strict total order on countable terms of one flavor: -1, 0, or 1."""
    if x is y:
        return 0
    for (a1, m1), (a2, m2) in zip(x.parts, y.parts):
        c = _compare_atoms(a1, a2)
        if c:
            return c
        if m1 != m2:
            return -1 if m1 < m2 else 1
    if len(x.parts) != len(y.parts):
        return -1 if len(x.parts) < len(y.parts) else 1
    if x.fin != y.fin:
        return -1 if x.fin < y.fin else 1
    return 0


def compare(x: OrdTerm, y: OrdTerm) -> int:
    """Strict total order on OrdTerms of one flavor: -1, 0, or 1."""
    if x is y:
        return 0
    return compare_spines(x, y) or compare_cnt(x.tail, y.tail)


def compare_spines(x: OrdTerm, y: OrdTerm) -> int:
    """compare on the monomials alone; equal to compare of x + Omega and y + Omega."""
    if x.monos is y.monos:
        return 0  # consecutive readings of a run share their spine tuple
    for (e1, c1), (e2, c2) in zip(x.monos, y.monos):
        c = compare(e1, e2)
        if c:
            return c
        c = compare_cnt(c1, c2)
        if c:
            return c
    if len(x.monos) != len(y.monos):
        return -1 if len(x.monos) < len(y.monos) else 1
    return 0


# --- sums ----------------------------------------------------------------


def _merge(xs: tuple, ys: tuple, cmp, add) -> tuple:
    """Natural sum of strictly decreasing (key, coefficient) pieces: equal keys add."""
    merged = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        c = cmp(xs[i][0], ys[j][0])
        if c == 0:
            merged.append((xs[i][0], add(xs[i][1], ys[j][1])))
            i += 1
            j += 1
        elif c > 0:
            merged.append(xs[i])
            i += 1
        else:
            merged.append(ys[j])
            j += 1
    return (*merged, *xs[i:], *ys[j:])


def natural_sum_cnt(x: CntTerm, y: CntTerm) -> CntTerm:
    """Commutative merge of countable terms."""
    return CntTerm(_merge(x.parts, y.parts, _compare_atoms, operator.add), x.fin + y.fin)


def natural_sum(x: OrdTerm, y: OrdTerm) -> OrdTerm:
    """Commutative merge of OrdTerms, strictly monotone in both arguments."""
    monos = _merge(x.monos, y.monos, compare, natural_sum_cnt)
    return OrdTerm(monos, natural_sum_cnt(x.tail, y.tail))


def cnt_add(x: CntTerm, y: CntTerm) -> CntTerm:
    """Ordinal addition on countable terms: x-pieces below y's lead are absorbed."""
    if not y.parts:
        return CntTerm(x.parts, x.fin + y.fin)
    lead, mult = y.parts[0]
    for i, (atom, m) in enumerate(x.parts):
        order = _compare_atoms(atom, lead)
        if order < 0:
            return CntTerm(x.parts[:i] + y.parts, y.fin)
        if order == 0:
            return CntTerm((*x.parts[:i], (lead, m + mult), *y.parts[1:]), y.fin)
    return CntTerm(x.parts + y.parts, y.fin)


def ord_sum(terms: Iterable[OrdTerm]) -> OrdTerm:
    """Ordinal sum of terms from the left, absorbing as usual.

    The monomials sit on a stack with decreasing exponents: a term's lead
    pops the smaller ones, which the sum absorbs, and merges with an equal
    one through cnt_add.  Only the sum is built, but the size and depth of
    each partial sum from the left are checked in order, the first term's
    included, so a sum over budget raises at the first partial sum that is
    over it.  Each term is summed before the next is asked for.
    """
    pairs: list = []  # the (exponent, coefficient) pairs stored in the terms
    totals = [(0, 0)]  # the node count and depth of pairs[:k], at k
    nodes = deepest = 0  # of pairs
    tail = CNT_ZERO
    for y in terms:
        monos = y.monos
        if monos:
            lead, coeff = monos[0]
            while pairs and (order := compare(pairs[-1][0], lead)) <= 0:
                _, below = pairs.pop()
                totals.pop()
                if order == 0:
                    monos = ((lead, cnt_add(below, coeff)), *monos[1:])
                    break
            nodes, deepest = totals[-1]
            for exp, coeff in monos:
                nodes += exp.size + coeff.size
                if exp.depth > deepest:
                    deepest = exp.depth
                if coeff.depth > deepest:
                    deepest = coeff.depth
                totals.append((nodes, deepest))
            pairs.extend(monos)
            tail = y.tail
        elif y.tail.is_zero():
            continue
        else:
            tail = cnt_add(tail, y.tail)
        # the checks of the partial sum so far
        size = 1 + nodes + tail.size
        depth = 1 + (deepest if deepest > tail.depth else tail.depth)
        if size > TERM_NODE_BUDGET or depth > TERM_DEPTH_BUDGET:
            _check_budgets(size, depth)
    monos = tuple(pairs)
    if monos and (tail.parts or tail.fin):
        # the monomials alone recur across nearby readings: their stored sum
        # lends its tuple, so that tuple is kept once
        monos = OrdTerm(monos, CNT_ZERO).monos
    return OrdTerm(monos, tail)


def check_plus_big_omega(x: OrdTerm) -> None:
    """Raise what building x + Omega would raise, without building it.

    x + Omega drops the tail of x and either turns an Omega^1 coefficient c
    into c + 1, of the same size, or appends the three nodes of Omega^1*1.
    It is no deeper than x, which passed, or than BIG_OMEGA.
    """
    size = x.size - x.tail.size + 4
    if size > TERM_NODE_BUDGET or BIG_OMEGA.depth > TERM_DEPTH_BUDGET:
        if x.monos and x.monos[-1][0] == ONE:
            size -= 3
        _check_budgets(size, BIG_OMEGA.depth)


# --- cofinality and fundamental sequences --------------------------------


class Cofinality(enum.Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    OMEGA = "omega"
    BIG_OMEGA = "Omega"


def _cofinality_cnt(c: CntTerm) -> Cofinality:
    if c.is_zero():
        return Cofinality.ZERO
    if c.fin > 0:
        return Cofinality.SUCCESSOR
    return Cofinality.OMEGA


def cofinality(x: OrdTerm) -> Cofinality:
    """Which index type the fundamental sequence of x consumes."""
    if not x.monos or not x.tail.is_zero():
        return _cofinality_cnt(x.tail)
    alpha, beta = x.monos[-1]
    if beta.fin == 0:
        return Cofinality.OMEGA  # countable limit coefficient
    # coefficient is a successor: the exponent decides
    if alpha.tail.fin > 0:
        return Cofinality.BIG_OMEGA  # successor exponent
    return cofinality(alpha)


Index = Union[int, CntTerm]


def _as_finite_index(idx: Index) -> int:
    if isinstance(idx, CntTerm):
        if not idx.is_finite():
            raise OrdinalError(
                f"this position has countable cofinality; index {idx!r} is too large"
            )
        return idx.fin
    if idx < 0:
        raise OrdinalError("indices are nonnegative")
    return idx


def _as_cnt_index(idx: Index) -> CntTerm:
    if isinstance(idx, CntTerm):
        return idx
    if idx < 0:
        raise OrdinalError("indices are nonnegative")
    return fin_cnt(idx)


def _pred_cnt(c: CntTerm) -> CntTerm:
    return CntTerm(c.parts, c.fin - 1)


def _pred_ord(x: OrdTerm) -> OrdTerm:
    return OrdTerm(x.monos, _pred_cnt(x.tail))


def _psi_atom_fund_seq(atom: Atom, idx: Index) -> CntTerm:
    zeta = atom.arg
    assert zeta is not None
    cof = cofinality(zeta)
    if cof is Cofinality.BIG_OMEGA:
        # diagonal descent: xi[0] = 0, xi[k+1] = p(zeta[xi[k]]); each entry
        # depends only on the one before, so a repeat is a fixed point
        steps = _as_finite_index(idx)
        cur = CNT_ZERO
        for _ in range(steps):
            nxt = psi(fund_seq(zeta, cur))
            if nxt == cur:
                break
            cur = nxt
        return cur
    # countable (or successor) argument cofinality: push the index inside
    return psi(fund_seq(zeta, idx))


def fund_seq_cnt(c: CntTerm, idx: Index) -> CntTerm:
    """Fundamental sequence member c[idx] for countable terms."""
    if c.is_zero():
        return CNT_ZERO
    if c.fin > 0:
        return _pred_cnt(c)
    prefix = c.parts[:-1]
    atom, mult = c.parts[-1]
    if mult > 1:
        head = CntTerm(prefix + ((atom, mult - 1),), 0)
    else:
        head = CntTerm(prefix, 0)
    if atom.kind == "omega":
        step = _as_cnt_index(idx)  # omega[i] = i
    elif atom.kind == "psi":
        step = _psi_atom_fund_seq(atom, idx)
    else:
        raise OrdinalError("v-collapses have no fundamental sequences")
    return cnt_add(head, step)


def fund_seq(x: OrdTerm, idx: Index) -> OrdTerm:
    """Fundamental sequence member x[idx]; zero and one both step to zero."""
    if x.is_zero():
        return ZERO
    if x.tail.fin > 0:
        return _pred_ord(x)  # successors step to their predecessor
    if not x.tail.is_zero():
        return OrdTerm(x.monos, fund_seq_cnt(x.tail, idx))
    prefix = OrdTerm(x.monos[:-1], CNT_ZERO)
    alpha, beta = x.monos[-1]
    if beta.fin == 0:
        # limit coefficient: recurse inside it
        stepped = omega_monomial(alpha, fund_seq_cnt(beta, _as_finite_index(idx)))
        return ord_sum((prefix, stepped))
    stepped = omega_monomial(alpha, _pred_cnt(beta))
    if alpha.tail.fin > 0:
        # successor exponent: Omega^(a+1)[iota] = Omega^a * iota
        part = omega_monomial(_pred_ord(alpha), _as_cnt_index(idx))
    else:
        # limit exponent: Omega^a[idx] = Omega^(a[idx])
        part = omega_monomial(fund_seq(alpha, idx), CNT_ONE)
    return ord_sum((prefix, stepped, part))


def step_down(x: OrdTerm | CntTerm, upto: int | None = None) -> list[OrdTerm]:
    """Iterated descent x, x[1], (x[1])[2], ... until zero (or upto steps)."""
    if isinstance(x, CntTerm):
        x = lift(x)
    seq = [x]
    i = 1
    while not seq[-1].is_zero() and (upto is None or i <= upto):
        seq.append(fund_seq(seq[-1], i))
        i += 1
    return seq


def big_f(n: int) -> int:
    """Length of the iterated descent starting at p(Omega^^n)."""
    if n < 0:
        raise OrdinalError("big_f needs a nonnegative argument")
    return len(step_down(psi(omega_tower(n)))) - 1


def is_psi_normal_form(arg: OrdTerm) -> bool:
    """Whether p(arg) is in normal form: every coefficient of arg below p(arg)."""
    if arg.is_countable():
        return True  # collapse is the identity here, nothing to check
    return _below(arg, psi(arg).parts[0][0])


# --- text grammar ---------------------------------------------------------
#
# ord := "0" | sum ; sum := prod ("+" prod)* ; prod := ("W^" exp "*")? cnt ;
# exp := "(" ord ")" | nat | "w" ; cnt := nat | "w" | ("v"|"p") "(" ord ")" ("*" nat)?
#
# Exponents other than bare naturals and "w" are parenthesized so the
# grammar stays unambiguous; the parser re-merges repeated "W^e*" pieces,
# making print/parse a bit-exact round trip.


def _atom_to_str(a: Atom, spine: str | None = None) -> str:
    if a.kind == "omega":
        return "w"
    tag = "v" if a.kind == "theta" else "p"
    return f"{tag}({term_to_str(a.arg, spine)})"


def _cnt_pieces(c: CntTerm, lead_spine: str | None = None) -> Iterator[str]:
    for atom, mult in c.parts:
        if atom.kind == "omega":
            for _ in range(mult):
                yield "w"
        elif mult == 1:
            yield _atom_to_str(atom, lead_spine)
        else:
            yield f"{_atom_to_str(atom, lead_spine)}*{mult}"
        lead_spine = None
    if c.fin > 0:
        yield str(c.fin)


def _exp_to_str(e: OrdTerm) -> str:
    if not e.monos and e.tail.is_finite():
        return str(e.tail.fin)
    if e == OMEGA_ORD:
        return "w"
    return f"({term_to_str(e)})"


def _spine_to_str(monos: tuple) -> str:
    prods: list[str] = []
    for exp, coeff in monos:
        head = f"W^{_exp_to_str(exp)}*"
        prods.extend(head + piece for piece in _cnt_pieces(coeff))
    return "+".join(prods)


def term_to_str(x: OrdTerm, spine: str | None = None) -> str:
    """The text of x; spine, when given, is the text of x.monos."""
    if not x.monos and not x.tail.parts:
        return str(x.tail.fin)
    if spine is None:
        spine = _spine_to_str(x.monos)
    return "+".join(filter(None, (spine, *_cnt_pieces(x.tail))))


def cnt_to_str(c: CntTerm) -> str:
    """The text of lift(c), without building it: a term at the node budget would not lift."""
    return "0" if c.is_zero() else "+".join(_cnt_pieces(c))


class CntPrinter:
    """cnt_to_str, its oracle, for a run's consecutive terms: the text of the last spine
    printed (the lead collapse's argument's monomials) is reused for an equal one."""

    _spine, _text = (), ""  # the last spine printed, and its text

    def text(self, c: CntTerm) -> str:
        if not c.parts or c.parts[0][0].arg is None:
            return cnt_to_str(c)
        spine = c.parts[0][0].arg.monos
        if spine is not self._spine and spine != self._spine:
            self._spine, self._text = spine, _spine_to_str(spine)
        return "+".join(_cnt_pieces(c, self._text))


_TOKEN = re.compile(r"W\^|\d+|[wvp()*+]")


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens: list[str] = []
        pos = 0
        for m in _TOKEN.finditer(text):
            if text[pos : m.start()].strip():
                raise OrdinalError(f"cannot read term near {text[pos:m.start()]!r}")
            self.tokens.append(m.group())
            pos = m.end()
        if text[pos:].strip():
            raise OrdinalError(f"cannot read term near {text[pos:]!r}")
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise OrdinalError("term ended unexpectedly")
        if expected is not None and tok != expected:
            raise OrdinalError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def parse_sum(self) -> OrdTerm:
        return ord_sum(self._prods())

    def _prods(self) -> Iterator[OrdTerm]:
        yield self.parse_prod()
        while self.peek() == "+":
            self.take("+")
            yield self.parse_prod()

    def parse_prod(self) -> OrdTerm:
        if self.peek() == "W^":
            self.take("W^")
            exp = self.parse_exp()
            self.take("*")
            return omega_monomial(exp, self.parse_cnt())
        return lift(self.parse_cnt())

    def parse_exp(self) -> OrdTerm:
        tok = self.peek()
        if tok == "(":
            self.take("(")
            out = self.parse_sum()
            self.take(")")
            return out
        if tok == "w":
            self.take("w")
            return OMEGA_ORD
        if tok is not None and tok.isdigit():
            return fin_ord(int(self.take()))
        raise OrdinalError(f"expected an exponent, found {tok!r}")

    def parse_cnt(self) -> CntTerm:
        tok = self.peek()
        if tok is not None and tok.isdigit():
            return fin_cnt(int(self.take()))
        if tok == "w":
            self.take("w")
            return OMEGA
        if tok in ("v", "p"):
            self.take()
            self.take("(")
            arg = self.parse_sum()
            self.take(")")
            value = theta(arg) if tok == "v" else psi(arg)
            if self.peek() == "*":
                self.take("*")
                mult_tok = self.take()
                if not mult_tok.isdigit():
                    raise OrdinalError(f"expected a multiplicity, found {mult_tok!r}")
                mult = int(mult_tok)
                if mult > 1_000_000:
                    raise OrdinalError("multiplicity too large")
                if mult == 0:
                    value = CNT_ZERO
                elif value.is_finite():
                    value = fin_cnt(value.fin * mult)
                else:
                    # x*m = x + ... + x: every copy but the last is absorbed
                    # into the leading atoms of the next
                    (atom, lead), *rest = value.parts
                    value = CntTerm(((atom, lead * mult), *rest), value.fin)
            return value
        raise OrdinalError(f"expected a countable piece, found {tok!r}")


def parse_term(text: str) -> OrdTerm:
    """Parse the term grammar; inverse of term_to_str on its outputs."""
    parser = _Parser(text)
    out = parser.parse_sum()
    if parser.peek() is not None:
        raise OrdinalError(f"trailing input from {parser.peek()!r}")
    return out
