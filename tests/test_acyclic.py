"""Tests for the Acyclic test."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deptests.acyclic import (
    AcyclicTest,
    build_constraint_graph,
    _graph_has_cycle,
)
from repro.deptests.base import Verdict
from repro.oracle.enumerate import solve_system
from repro.system.constraints import ConstraintSystem

small = st.integers(min_value=-8, max_value=8)


def _system(n, *rows):
    system = ConstraintSystem(tuple(f"t{i}" for i in range(n)))
    for coeffs, bound in rows:
        system.add(coeffs, bound)
    return system


class TestGraph:
    def test_equality_pair_creates_cycle(self):
        # t0 = t1 kept as two inequalities: the canonical cycle the paper
        # says makes GCD preprocessing a prerequisite.
        system = _system(2, ([1, -1], 0), ([-1, 1], 0))
        assert _graph_has_cycle(build_constraint_graph(system))
        assert not AcyclicTest().applicable(system)

    def test_one_direction_no_cycle(self):
        system = _system(2, ([1, -1], 0))  # t0 <= t1
        assert not _graph_has_cycle(build_constraint_graph(system))
        assert AcyclicTest().applicable(system)

    def test_single_var_constraints_no_edges(self):
        system = _system(2, ([1, 0], 5), ([0, -1], 3))
        assert build_constraint_graph(system) == []

    def test_three_variable_constraint_edges(self):
        # t0 + 2t1 - t2 <= 0 contributes 6 ordered-pair edges.
        system = _system(3, ([1, 2, -1], 0))
        edges = build_constraint_graph(system)
        assert len(edges) == 6
        assert (("+", 0), ("-", 1)) in edges
        assert (("+", 0), ("+", 2)) in edges


class TestDecisions:
    def test_paper_flavor_example(self):
        # A chain: t0 <= t1, t1 <= t2, with box bounds. Acyclic; dependent.
        system = _system(
            3,
            ([1, -1, 0], 0),
            ([0, 1, -1], 0),
            ([1, 0, 0], 10),
            ([-1, 0, 0], -1),
            ([0, 0, 1], 10),
            ([0, 0, -1], -1),
        )
        result = AcyclicTest().run(system)
        assert result.verdict is Verdict.DEPENDENT
        assert system.evaluate(result.witness)

    def test_independent_chain(self):
        # t0 >= 5, t0 <= t1, t1 <= 3: infeasible, found by elimination.
        system = _system(
            2,
            ([-1, 0], -5),
            ([1, -1], 0),
            ([0, 1], 3),
        )
        result = AcyclicTest().run(system)
        assert result.verdict is Verdict.INDEPENDENT

    def test_deferred_unbounded_variable(self):
        # t1 has no lower bound; t0 <= t1 is satisfiable by pushing t1 up?
        # No: t0 <= t1 bounds t0 above through t1... t1 only appears with
        # negative sign so it may float high: always satisfiable.
        system = _system(2, ([1, -1], 0), ([-1, 0], -1), ([1, 0], 10))
        result = AcyclicTest().run(system)
        assert result.verdict is Verdict.DEPENDENT
        assert system.evaluate(result.witness)

    def test_deferred_low_variable(self):
        # t0 only bounded above (by t1 and constant); no lower bound.
        system = _system(2, ([1, -1], -3), ([0, 1], 4), ([0, -1], 0))
        result = AcyclicTest().run(system)
        assert result.verdict is Verdict.DEPENDENT
        assert system.evaluate(result.witness)

    def test_cycle_reports_not_applicable(self):
        system = _system(2, ([1, -1], -1), ([-1, 1], -1))
        result = AcyclicTest().run(system)
        assert result.verdict is Verdict.NOT_APPLICABLE

    def test_partial_elimination_residual(self):
        # t2 is out of the (t0, t1) cycle and gets eliminated.
        system = _system(
            3,
            ([1, -1, 0], -1),
            ([-1, 1, 0], -1),
            ([0, 0, 1], 5),
            ([1, 0, 1], 8),
        )
        elimination = AcyclicTest().eliminate(system)
        assert elimination.verdict is None
        residual_vars = elimination.residual.used_variables()
        assert 2 not in residual_vars


class TestExactnessAgainstOracle:
    @given(
        st.lists(
            st.tuples(
                st.tuples(small, small, small).filter(lambda c: any(c)),
                st.integers(-10, 20),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300)
    def test_agrees_with_enumeration_when_applicable(self, rows):
        system = _system(3, *rows)
        # Box the variables so brute force terminates and stays aligned
        # with the test (the test must see the same system).
        for var in range(3):
            lo_row = [0, 0, 0]
            lo_row[var] = -1
            hi_row = [0, 0, 0]
            hi_row[var] = 1
            system.add(lo_row, 6)  # t >= -6
            system.add(hi_row, 6)  # t <= 6
        test = AcyclicTest()
        result = test.run(system)
        if result.verdict is Verdict.NOT_APPLICABLE:
            return
        brute = solve_system(system, -6, 6)
        assert (brute is not None) == (result.verdict is Verdict.DEPENDENT)
        if result.witness is not None:
            assert system.evaluate(result.witness)

    @given(
        st.lists(
            st.tuples(
                st.tuples(small, small, small).filter(lambda c: any(c)),
                st.integers(-10, 20),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200)
    def test_elimination_matches_graph_acyclicity(self, rows):
        """The elimination runs to completion iff the graph is acyclic."""
        system = _system(3, *rows)
        test = AcyclicTest()
        elimination = test.eliminate(system)
        if elimination.verdict is not None:
            return  # decided early (contradiction): no claim either way
        # stuck => there must be a cycle
        assert _graph_has_cycle(build_constraint_graph(system))


def _steps(elimination):
    """Steps as plain data: a pin's value, a deferral's removed rows."""
    return [
        (kind, var, payload if kind == "pin" else [
            (con.coeffs, con.bound) for con in payload
        ])
        for kind, var, payload in elimination.steps
    ]


class TestEliminationSteps:
    """The elimination's pins, deferrals and leftovers, in order."""

    def test_pin_and_both_deferrals_leave_a_residual(self):
        system = _system(
            5,
            ([-1, 0, 0, -1, 0], 2),
            ([1, 0, 0, -1, 0], 8),
            ([0, 0, 0, 3, 0], 4),
            ([0, -1, 0, 0, 0], 8),
            ([-2, 3, 0, 1, 0], -2),
            ([0, 0, -1, 0, -1], 5),
            ([0, 0, 0, 1, 3], 3),
            ([0, 1, 0, 0, 0], -3),
        )
        elimination = AcyclicTest().eliminate(system)
        assert elimination.verdict is None
        assert _steps(elimination) == [
            ("pin", 1, -8),
            ("defer_high", 2, [((0, 0, -1, 0, -1), 5)]),
            ("defer_low", 4, [((0, 0, 0, 1, 3), 3)]),
        ]
        assert elimination.base_values == {}
        assert [
            (con.coeffs, con.bound)
            for con in elimination.residual.constraints
        ] == [
            ((-1, 0, 0, -1, 0), 2),
            ((1, 0, 0, -1, 0), 8),
            ((0, 0, 0, 1, 0), 1),
            ((-2, 0, 0, 1, 0), 22),
        ]
        witness = elimination.complete_witness((-1, 0, 0, 0, 0))
        assert witness == (-1, -8, -6, 0, 1)
        assert system.evaluate(witness)

    def test_full_elimination_sets_base_values(self):
        system = _system(
            5,
            ([0, 0, 1, 0, 1], 8),
            ([1, 0, 0, 0, 0], 7),
            ([0, -1, 0, -2, 1], -2),
            ([1, 0, 3, 0, -1], 4),
            ([0, 0, -1, 0, 0], 2),
            ([0, 0, 3, 3, 0], -2),
        )
        elimination = AcyclicTest().eliminate(system)
        assert elimination.verdict is Verdict.DEPENDENT
        assert _steps(elimination) == [
            ("defer_low", 0, [
                ((1, 0, 0, 0, 0), 7),
                ((1, 0, 3, 0, -1), 4),
            ]),
            ("defer_high", 1, [((0, -1, 0, -2, 1), -2)]),
            ("pin", 2, -2),
        ]
        assert elimination.base_values == {3: 1, 4: 10}
        witness = elimination.complete_witness(None)
        assert witness == (7, 10, -2, 1, 10)
        assert system.evaluate(witness)
