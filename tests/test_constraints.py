"""Tests for canonical linear constraints and constraint systems."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.system.constraints import (
    NEG_INF,
    POS_INF,
    ConstraintSystem,
    LinearConstraint,
)

small = st.integers(min_value=-30, max_value=30)


class TestNormalization:
    def test_gcd_divides_through(self):
        c = LinearConstraint.make([2, 4], 5)
        assert c.coeffs == (1, 2)
        assert c.bound == 2  # floor(5/2): exact integer tightening

    def test_floor_tightening_negative(self):
        c = LinearConstraint.make([3], -5)
        assert c.coeffs == (1,)
        assert c.bound == -2  # 3t <= -5  =>  t <= -2

    def test_no_change_when_coprime(self):
        c = LinearConstraint.make([2, 3], 7)
        assert c.coeffs == (2, 3) and c.bound == 7

    @given(st.lists(small, min_size=1, max_size=4), small)
    def test_normalization_preserves_integer_points(self, coeffs, bound):
        raw = LinearConstraint(tuple(coeffs), bound)
        norm = LinearConstraint.make(coeffs, bound)
        for point in [(0,) * len(coeffs), (1,) * len(coeffs), (-2,) * len(coeffs)]:
            assert raw.evaluate(point) == norm.evaluate(point)


class TestStructure:
    def test_variables(self):
        c = LinearConstraint.make([1, 0, -2], 3)
        assert c.variables() == (0, 2)
        assert c.num_vars_used == 2

    def test_trivial_and_contradiction(self):
        assert LinearConstraint.make([0, 0], 5).is_trivial
        assert LinearConstraint.make([0, 0], -1).is_contradiction
        assert not LinearConstraint.make([1], -1).is_contradiction

    def test_substitute(self):
        c = LinearConstraint.make([2, 3], 10)
        out = c.substitute(1, 2)  # 2t0 + 6 <= 10 -> 2t0 <= 4 -> t0 <= 2
        assert out.coeffs == (1, 0)
        assert out.bound == 2

    def test_substitute_absent(self):
        c = LinearConstraint.make([1, 0], 5)
        assert c.substitute(1, 99) is c

    def test_str(self):
        text = str(LinearConstraint.make([1, -2], 3))
        assert "<=" in text


class TestSystem:
    def test_add_checks_arity(self):
        system = ConstraintSystem(("a", "b"))
        with pytest.raises(ValueError):
            system.add([1], 0)

    def test_single_variable_intervals(self):
        system = ConstraintSystem(("t1", "t2"))
        system.add([1, 0], 10)  # t1 <= 10
        system.add([-1, 0], -1)  # t1 >= 1
        system.add([0, 2], 7)  # t2 <= 3
        system.add([0, -3], 6)  # t2 >= -2
        lo_hi = system.single_variable_intervals()
        assert (lo_hi[0].lo, lo_hi[0].hi) == (1, 10)
        assert (lo_hi[1].lo, lo_hi[1].hi) == (-2, 3)

    def test_interval_unbounded(self):
        system = ConstraintSystem(("t1",))
        intervals = system.single_variable_intervals()
        assert intervals[0].lo == NEG_INF and intervals[0].hi == POS_INF
        assert intervals[0].pick() == 0

    def test_interval_empty_and_pick_raises(self):
        system = ConstraintSystem(("t1",))
        system.add([1], 0)  # t <= 0
        system.add([-1], -5)  # t >= 5
        (interval,) = system.single_variable_intervals()
        assert interval.empty
        with pytest.raises(ValueError):
            interval.pick()

    def test_negative_coefficient_lower_bound(self):
        system = ConstraintSystem(("t",))
        system.add([-2], -5)  # -2t <= -5  =>  t >= 2.5  =>  t >= 3
        (interval,) = system.single_variable_intervals()
        assert interval.lo == 3

    def test_multi_var_ignored_by_intervals(self):
        system = ConstraintSystem(("a", "b"))
        system.add([1, 1], 5)
        intervals = system.single_variable_intervals()
        assert intervals[0].hi == POS_INF

    def test_evaluate(self):
        system = ConstraintSystem(("a", "b"))
        system.add([1, 1], 5)
        system.add([-1, 0], 0)
        assert system.evaluate((0, 5))
        assert not system.evaluate((0, 6))

    def test_evaluate_rejects_a_point_of_the_wrong_length(self):
        # zip() would truncate: (-5,) once read as satisfying a + b <= 0.
        row = LinearConstraint((1, 1), 0)
        system = ConstraintSystem(("a", "b"), [row])
        for point in ((-5,), (-1,), (0, 0, 0)):
            with pytest.raises(ValueError):
                row.evaluate(point)
            with pytest.raises(ValueError):
                system.evaluate(point)
        assert row.evaluate((-5, 5)) and not row.evaluate((1, 0))
        assert system.evaluate((-1, 1)) and not system.evaluate((0, 1))
        assert ConstraintSystem(("a", "b")).evaluate((7, 7))
        with pytest.raises(ValueError):
            ConstraintSystem(("a", "b")).evaluate(())

    def test_used_variables_and_max_arity(self):
        system = ConstraintSystem(("a", "b", "c"))
        system.add([1, 0, 0], 3)
        system.add([1, -1, 0], 0)
        assert system.used_variables() == {0, 1}
        assert [c.num_vars_used for c in system.constraints] == [1, 2]

    def test_without_trivial(self):
        system = ConstraintSystem(("a",))
        system.add([0], 5)
        system.add([1], 2)
        assert len(system.without_trivial().constraints) == 1

    def test_copy_independent(self):
        system = ConstraintSystem(("a",))
        system.add([1], 2)
        clone = system.copy()
        clone.add([1], 3)
        assert len(system.constraints) == 1
