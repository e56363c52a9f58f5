"""Upgrade operator fixtures and laws, including the good-successor check."""

import time

import pytest

from fractal_goodstein.hierarchy import FiniteHierarchy
from fractal_goodstein.numerals import INFINITY, BitBudget, BudgetExceededError, digits
from fractal_goodstein.upgrade import (
    UpgradeContext,
    check_good_successor,
    deep_base_change,
    upgrade,
)

PAIR1 = ([2, 6], [3, 30, 180])
PAIR2 = ([2], [3, 27])


def test_upgrade_worked_example():
    up = UpgradeContext(*PAIR1)
    t0 = time.monotonic()
    assert up.upgrade(2) == 3
    assert up.upgrade(3) == 4
    assert up.upgrade(4) == 27
    assert up.upgrade(5) == 28
    assert up.upgrade(6) == 30
    assert up.upgrade(7) == 31
    assert up.upgrade(12) == 90
    assert up.upgrade(54432) == 180**180 + 180**28
    assert time.monotonic() - t0 < 1.0
    assert up.chosen_base(2) == 3
    assert up.chosen_base(6) == 30
    assert up.chosen_base(54432) == 180


def test_upgrade_zero_and_one_are_fixed():
    up = UpgradeContext(*PAIR1)
    assert up.upgrade(0) == 0
    assert up.upgrade(1) == 1


def test_upgrade_singleton_pair():
    up = UpgradeContext(*PAIR2)
    assert up.upgrade(2) == 3
    assert up.upgrade(3) == 4
    assert up.upgrade(4) == 27**27
    assert up.upgrade(5) == 27**27 + 1
    assert up.upgrade(6) == 27**27 + 27
    assert up.upgrade(7) == 27**27 + 28
    assert up.upgrade(15) == 27**28 + 27**27 + 28


def test_upgrade_dies_loudly_past_the_budget():
    up = UpgradeContext(*PAIR2)
    with pytest.raises(BudgetExceededError) as exc:
        up.upgrade(16)
    assert "exceeds budget" in str(exc.value)


def test_deep_base_change():
    assert deep_base_change([2], [3, 27], 2, 27, 4) == 27**27
    assert deep_base_change([2], [3, 27], 2, 27, 6) == 27**27 + 27
    assert deep_base_change([2], [3, 27], 2, 27, 2) == 27
    assert deep_base_change([2], [3, 27], 2, 27, 1) == 1


def test_fast_paths_agree_with_candidate_search():
    for pair, limit in ((PAIR1, 40), (PAIR2, 15)):
        fast = UpgradeContext(*pair)
        slow = UpgradeContext(*pair, fast_paths=False)
        for n in range(limit + 1):
            assert fast.upgrade(n) == slow.upgrade(n), n


def test_upgrade_matches_base_change_on_singletons():
    up = UpgradeContext([2], [3])
    from fractal_goodstein.numerals import base_change

    for n in range(201):
        assert up.upgrade(n) == base_change(n, 2, 3)


def test_single_base_pairs_agree_with_the_candidate_search():
    # a target below the source included: from the source base on, its
    # upgrades are infinite and have no chosen base
    for b in range(2, 7):
        for c in range(2, 7):
            fast = UpgradeContext([b], [c])
            slow = UpgradeContext([b], [c], fast_paths=False)
            for n in range(60):
                assert fast.upgrade(n) == slow.upgrade(n), (b, c, n)
                assert fast.chosen_base(n) == slow.chosen_base(n), (b, c, n)
            if c < b:
                assert fast.upgrade(b) is INFINITY and fast.chosen_base(b) is None
    assert UpgradeContext([3], [2]).upgrade(3) is INFINITY


def test_upgrade_is_strictly_monotone():
    up = UpgradeContext(*PAIR1)
    vals = [up.upgrade(n) for n in range(61)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    up2 = UpgradeContext(*PAIR2)
    vals2 = [up2.upgrade(n) for n in range(16)]
    assert all(a < b for a, b in zip(vals2, vals2[1:]))


def test_upgrade_preserves_base_membership():
    up = UpgradeContext(*PAIR1)
    assert up.upgrade(2) in FiniteHierarchy(PAIR1[1])
    assert up.upgrade(6) in FiniteHierarchy(PAIR1[1])
    assert UpgradeContext(*PAIR2).upgrade(2) == 3


def test_upgrade_beyond_target_hierarchy_is_infinite():
    # {3,12} runs out of room above 12^12: nothing left to upgrade into
    up = UpgradeContext([2, 6], [3, 12])
    assert up.upgrade(4) == 12**12
    assert up.upgrade(5) == 12**12 + 1
    assert up.upgrade(6) is INFINITY
    assert up.upgrade(7) is INFINITY


def test_the_candidate_search_stops_where_the_fast_paths_do():
    # past the first infinite upgrade every later one is infinite and has no
    # chosen base, with or without the block decomposition
    fast = UpgradeContext([2, 6], [3, 12])
    slow = UpgradeContext([2, 6], [3, 12], fast_paths=False)
    for n in range(41):
        assert slow.upgrade(n) == fast.upgrade(n), n
        assert slow.chosen_base(n) == fast.chosen_base(n), n
        assert (slow.upgrade(n) is INFINITY) == (n >= 6), n
    assert slow.chosen_base(40) is None


def test_an_infinite_digit_makes_the_deep_change_infinite():
    # 7 * 36 has the digit 7 over base 36, and the upgrade of 7 is infinite
    up = UpgradeContext([2, 6, 36], [3, 12])
    assert up.upgrade(7) is INFINITY
    assert up.deep_base_change(36, 12, 7 * 36) is INFINITY


def test_digit_transfer_and_divisibility():
    B = FiniteHierarchy(PAIR1[0])
    up = UpgradeContext(*PAIR1)
    for n in range(2, 61):
        v = up.upgrade(n)
        b = B.upper_base(n)
        c = up.chosen_base(n)
        # hereditary digits upgrade pointwise
        assert {up.upgrade(d) for d in digits(n, b)} == set(digits(v, c)), n
        assert (n % b == 0) == (v % c == 0), n


def test_upgrade_locality():
    # the upgrade of b*a + r splits at the digit boundary
    B = FiniteHierarchy(PAIR1[0])
    slow = UpgradeContext(*PAIR1, fast_paths=False)
    for n in range(2, 101):
        b = B.upper_base(n)
        r = n % b
        if 0 < r < b and n - r >= b:
            assert slow.upgrade(n) == slow.upgrade(n - r) + slow.upgrade(r), n


def test_good_successor_accepts_valid_pairs():
    assert check_good_successor([2, 6], [3, 30], 20).ok
    assert check_good_successor([2], [3], 20).ok


def test_good_successor_finds_the_gap_counterexample():
    report = check_good_successor([2, 6], [3, 12], 20)
    assert not report.ok
    assert report.counterexample == 5
    assert "multiple 8916100448268 of base 12" in report.reason
    assert "falls in the gap above 8916100448257" in report.reason


def test_good_successor_rejects_invalid_hierarchy():
    report = check_good_successor([2, 6], [3, 5], 7)
    assert not report.ok
    assert "hierarchy" in report.reason


def test_module_level_upgrade_wrapper():
    assert upgrade([2, 6], [3, 30, 180], 4) == 27
    assert upgrade([2], [3, 27], 4, budget=BitBudget(1 << 12)) == 27**27
