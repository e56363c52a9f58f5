"""Base hierarchies: validation, navigation, criticality, lazy extension."""

import itertools

import pytest

from fractal_goodstein.hierarchy import (
    FiniteHierarchy,
    HorizonError,
    LazyHierarchy,
)
from fractal_goodstein.numerals import INFINITY, BudgetExceededError


def test_validation_rules():
    FiniteHierarchy([2])
    FiniteHierarchy([2, 6])
    FiniteHierarchy([3, 12, 48])
    with pytest.raises(ValueError):
        FiniteHierarchy([])
    with pytest.raises(ValueError):
        FiniteHierarchy([1, 2])
    with pytest.raises(ValueError):
        FiniteHierarchy([2, 3])  # 3 not a multiple of 2
    with pytest.raises(ValueError):
        FiniteHierarchy([3, 5])
    with pytest.raises(ValueError):
        FiniteHierarchy([2, 2])  # duplicates survive sorting, then fail
    # order of the input does not matter, only the sorted chain does
    assert FiniteHierarchy([6, 2]) == FiniteHierarchy([2, 6])


def test_every_pair_of_a_finite_hierarchy_is_checked_with_its_text():
    with pytest.raises(ValueError, match=r"^6 is not a multiple of its predecessor 4$"):
        FiniteHierarchy([4, 6])
    with pytest.raises(ValueError, match=r"^bases must be strictly increasing, got 2 followed by 2$"):
        FiniteHierarchy([2, 2, 4])
    with pytest.raises(ValueError, match=r"^12 is not a multiple of its predecessor 8$"):
        FiniteHierarchy([2, 4, 8, 12])


def test_validate_wrapper():
    assert FiniteHierarchy([2, 6]).known_elements() == (2, 6)
    with pytest.raises(ValueError):
        FiniteHierarchy([2, 5])


def test_membership_and_bounds():
    h = FiniteHierarchy([2, 6])
    assert 2 in h and 6 in h
    assert 4 not in h and 12 not in h
    assert h.min_base == 2
    assert h.max_base == 6
    assert len(h) == 2
    assert list(h) == [2, 6]


def test_lower_and_upper_base():
    h = FiniteHierarchy([2, 6])
    # largest element at or below n, clamped at the minimum
    assert h.upper_base(6) == 6
    assert h.upper_base(7) == 6
    assert h.upper_base(5) == 2
    assert h.upper_base(2) == 2
    assert h.upper_base(0) == 2
    # same but strictly below n
    assert h.lower_base(6) == 2
    assert h.lower_base(7) == 6
    assert h.lower_base(2) == 2


def test_s_next():
    h = FiniteHierarchy([2, 6])
    assert h.s_next(2) == 6
    assert h.s_next(6) is INFINITY
    assert h.s_next(3) == 6
    assert h.s_next(100) is INFINITY


def test_is_critical():
    h = FiniteHierarchy([2, 6])
    # critical: above the minimum, divisible by its upper base, not itself a base
    assert h.is_critical(4)
    assert h.is_critical(12)
    assert h.is_critical(18)
    assert not h.is_critical(6)
    assert not h.is_critical(2)
    assert not h.is_critical(8)  # upper base 6 does not divide 8
    assert not h.is_critical(1)


def test_restrict_and_elements_from():
    h = FiniteHierarchy([2, 6, 12])
    assert h.restrict(6).known_elements() == (2, 6)
    assert h.restrict(7).known_elements() == (2, 6)
    assert h.restrict(2).known_elements() == (2,)
    with pytest.raises(ValueError):
        h.restrict(1)  # would be empty
    assert list(itertools.islice(h.elements_from(6), 2)) == [6, 12]


def test_equality_and_hash():
    assert FiniteHierarchy([2, 6]) == FiniteHierarchy((2, 6))
    assert FiniteHierarchy([2, 6]) != FiniteHierarchy([2])
    assert hash(FiniteHierarchy([2, 6])) == hash(FiniteHierarchy([2, 6]))


def test_lazy_hierarchy_extends_on_demand():
    lh = LazyHierarchy((2 * 3**i for i in itertools.count()), horizon=10)
    assert lh.min_base == 2
    assert lh.s_next(2) == 6
    assert lh.upper_base(100) == 54
    assert list(itertools.islice(lh.elements_from(2), 4)) == [2, 6, 18, 54]
    assert 18 in lh


def test_lazy_hierarchy_horizon():
    lh = LazyHierarchy((2 * 3**i for i in itertools.count()), horizon=5)
    with pytest.raises(HorizonError) as exc:
        lh.s_next(2 * 3**9)
    assert "more than 5 materialized bases" in str(exc.value)


def test_a_horizon_error_is_a_budget_error():
    # the horizon is a budget on materialized bases: one handler takes both
    assert issubclass(HorizonError, BudgetExceededError)
    lh = LazyHierarchy((2 * 3**i for i in itertools.count()), horizon=5)
    with pytest.raises(BudgetExceededError) as exc:
        lh.s_next(2 * 3**9)
    assert type(exc.value) is HorizonError
    assert str(exc.value) == "lazy hierarchy needs more than 5 materialized bases"


def test_lazy_hierarchy_exhausted_source_is_finite():
    lh = LazyHierarchy(iter([2, 6]), horizon=8)
    assert lh.s_next(6) is INFINITY
    assert lh.upper_base(100) == 6


def test_lazy_hierarchy_validates_stream():
    with pytest.raises(ValueError):
        LazyHierarchy(iter([2, 5]), horizon=8).s_next(2)
    with pytest.raises(ValueError):
        LazyHierarchy(iter([2, 2]), horizon=8).s_next(2)


def test_lazy_hierarchy_description():
    lh = LazyHierarchy(iter([3, 12]), horizon=4, description="demo stages")
    assert "demo stages" in repr(lh)
