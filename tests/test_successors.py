"""Plus-construction stages and the dynamical base hierarchies built on them."""

import pytest

from fractal_goodstein.hierarchy import FiniteHierarchy
from fractal_goodstein.numerals import BitBudget, BudgetExceededError, base_change
from fractal_goodstein.successors import (
    PlusHierarchy,
    d_sequence,
    dynamical,
    ouroboros_stage,
)
from fractal_goodstein.upgrade import UpgradeContext


def test_plus_zero_stage_of_2_6():
    ph = PlusHierarchy([2, 6], 0)
    assert ph.stage_at(6).known_elements() == (3, 30)


def test_plus_one_stage_of_2():
    ph = PlusHierarchy([2], 1)
    assert ph.stage_at(4).known_elements() == (3, 27)
    assert ph.d_sequence(6) == (27, 27**27 + 27)
    assert ph.stage_at(6).known_elements() == (3, 27, 27**27 + 27)


def test_plus_one_stage_of_2_dies_at_event_8():
    ph = PlusHierarchy([2], 1)
    with pytest.raises(BudgetExceededError):
        ph.stage_at(8)


def test_plus_two_stage_of_2():
    ph = PlusHierarchy([2], 2)
    assert ph.stage_at(4).known_elements() == (3, 27, 27**27)


def test_plus_one_stage_of_3():
    ph = PlusHierarchy([3], 1)
    assert ph.stage_at(12).known_elements() == (4, 8, 64, 4160)


def test_d_sequence_requires_critical_point():
    ph = PlusHierarchy([2], 1)
    with pytest.raises(ValueError):
        ph.d_sequence(5)  # 5 is not critical over {2}
    assert d_sequence([2], 1, 6) == (27, 27**27 + 27)


@pytest.mark.parametrize("base, index", [([3], 2), ([2, 6], 1)])
def test_d_sequence_is_the_iterated_deep_change(base, index):
    # d_sequence reads the bases the event at n appended; materializing past
    # n first must not change it, and each entry must be the deep change of
    # n into the one before
    ph = PlusHierarchy(base, index)
    oracle = UpgradeContext(base, ph.stage_at(24), fast_paths=False)
    for n in range(2, 25):
        if not ph.base.is_critical(n):
            continue
        ds = ph.d_sequence(n)
        assert len(ds) == index + 1
        assert ds == PlusHierarchy(base, index).d_sequence(n)
        b = ph.base.upper_base(n)
        for d, nd in zip(ds, ds[1:]):
            assert nd == oracle.deep_base_change(b, d, n), (n, d)


def test_plus_restriction():
    ph = PlusHierarchy([2], 1)
    assert ph.stage_at(6).restrict(27).known_elements() == (3, 27)


def test_upgrade_value_agrees_with_candidate_search():
    # the stage fast path must match the from-scratch search on the same pair
    ph = PlusHierarchy([3], 1)
    stage = ph.stage_at(12)
    oracle = UpgradeContext([3], stage, fast_paths=False)
    for n in range(13):
        assert ph.upgrade_value(n) == oracle.upgrade(n), n


def test_chosen_base_tracks_the_upgrade():
    ph = PlusHierarchy([2], 1)
    assert ph.chosen_base(4) == 27
    assert ph.chosen_base(2) == 3
    assert ph.chosen_base(1) is None


def test_classic_hierarchy():
    d = dynamical("classic")
    assert d.spec_string() == "classic"
    assert d.stage(0).known_elements() == (2,)
    assert d.stage(3).known_elements() == (5,)
    assert d.plus_object(7).index == 0
    assert d.step_bound(0) is None
    for n in (0, 1, 5, 100):
        assert d.upgrade_step(0, n) == base_change(n, 2, 3)
        assert d.upgrade_step(3, n) == base_change(n, 5, 6)


def test_plus_chain_from_2_matches_classic():
    pc = dynamical("plus-chain", start=[2])
    cl = dynamical("classic")
    for i in range(3):
        assert pc.stage(i).known_elements() == cl.stage(i).known_elements()
        for n in range(41):
            assert pc.upgrade_step(i, n) == cl.upgrade_step(i, n)


def test_plus_chain_spec_string():
    pc = dynamical("plus-chain", start=[2, 6])
    assert pc.spec_string() == "plus-chain: 2,6"
    assert pc.stage(0).known_elements() == (2, 6)


def test_ouroboros_stages():
    oo = dynamical("ouroboros")
    assert oo.spec_string() == "ouroboros"
    assert oo.stage(0).known_elements() == (2,)
    assert oo.stage(1).known_elements() == (3,)
    assert oo.plus_object(2).index == 2
    assert oo.upgrade_step(0, 4) == 27
    assert ouroboros_stage(1).known_elements() == (3,)


def test_ouroboros_second_stage_prefix():
    # stage 2 is ({3}) plus-one: lazily materialized as needed
    ph = PlusHierarchy([3], 1)
    assert ph.stage_at(12).known_elements() == (4, 8, 64, 4160)
    oo = dynamical("ouroboros")
    assert oo.upgrade_step(1, 26) == PlusHierarchy([3], 1).upgrade_value(26)


def test_finite_for_bounds_and_run():
    ff = dynamical("finite-for", m=3)
    assert [ff.step_bound(i) for i in range(5)] == [3, 4, 5, 6, 7]
    n, vals = 3, [3]
    for i in range(8):
        if n == 0:
            break
        n = ff.upgrade_step(i, n) - 1
        vals.append(n)
    assert vals == [3, 3, 3, 2, 1, 0]


def test_finite_for_identity_below_min_stage():
    ff = dynamical("finite-for", m=3)
    assert ff.upgrade_step(0, 2) == 3
    assert ff.upgrade_step(5, 1) == 1
    assert ff.upgrade_step(5, 0) == 0


def test_finite_for_rejects_values_over_the_bound():
    ff = dynamical("finite-for", m=3)
    with pytest.raises(ValueError) as exc:
        ff.upgrade_step(0, 4)
    assert "bound" in str(exc.value)


def test_finite_for_4_dies_freezing_stage_2():
    ff = dynamical("finite-for", m=4)
    assert ff.step_bound(1) == 27
    with pytest.raises(BudgetExceededError):
        ff.upgrade_step(1, 26)


def test_ouroboros_survives_where_finite_for_dies():
    oo = dynamical("ouroboros")
    assert oo.upgrade_step(1, 26) > 26


def test_ouroboros_agrees_with_finite_for_while_alive():
    for m in (2, 3):
        ff = dynamical("finite-for", m=m)
        oo = dynamical("ouroboros")
        n = m
        for i in range(8):
            if n == 0:
                break
            a = ff.upgrade_step(i, n)
            b = oo.upgrade_step(i, n)
            assert a == b, (m, i, n)
            n = a - 1


def test_diagonal_bounds_and_run():
    dg = dynamical("diagonal")
    assert dg.spec_string() == "diagonal"
    assert [dg.step_bound(i) for i in range(3)] == [2, 3, 256]
    n, vals = 2, [2]
    for i in range(8):
        if n == 0:
            break
        n = dg.upgrade_step(i, n) - 1
        vals.append(n)
    assert vals == [2, 2, 1, 0]


def test_diagonal_rejects_seed_3():
    dg = dynamical("diagonal")
    with pytest.raises(ValueError) as exc:
        dg.upgrade_step(0, 3)
    assert "exceeds the stage-0 bound 2" in str(exc.value)


def test_diagonal_stage_3_exhausts_budget():
    dg = dynamical("diagonal")
    with pytest.raises(BudgetExceededError):
        dg.step_bound(3)


def test_dynamical_factory_rejects_unknown_kind():
    with pytest.raises(ValueError):
        dynamical("spiral")
    with pytest.raises(ValueError):
        dynamical("finite-for")  # needs m
    with pytest.raises(ValueError):
        dynamical("plus-chain")  # needs start


def test_plus_budget_is_respected():
    # the stage at 4 only needs small elements, the upgrade value does not
    ph = PlusHierarchy([2], 1, budget=BitBudget(16))
    assert ph.stage_at(4).known_elements() == (3, 27)
    with pytest.raises(BudgetExceededError):
        ph.upgrade_value(4)
