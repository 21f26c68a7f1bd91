"""HiGHS backend via :func:`scipy.optimize.milp`.

This plays the role Gurobi plays in the paper: an exact mixed-integer
solver.  Models are translated to the sparse matrix form scipy expects.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from ..errors import SolverError
from .model import Model, Sense
from .solution import Solution, SolveStatus

#: scipy.milp status codes -> our statuses.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.FEASIBLE,  # iteration/time limit with incumbent
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve_with_scipy(
    model: Model,
    time_limit: float | None = None,
    mip_rel_gap: float | None = 0.02,
) -> Solution:
    """Solve ``model`` with HiGHS.

    Args:
        model: the ILP to solve (minimization).
        time_limit: optional wall-clock budget in seconds.
        mip_rel_gap: relative optimality gap at which the search stops.
            Floorplanning instances are highly symmetric (hundreds of
            identical PEs), where proving exact optimality is exponential
            but a 2%-optimal incumbent appears almost immediately.
    """
    num_vars = model.num_variables
    if num_vars == 0:
        return Solution(status=SolveStatus.OPTIMAL, objective=model.objective.constant,
                        backend="scipy-highs")

    cost = np.zeros(num_vars)
    for var, coef in model.objective.terms.items():
        cost[var.index] += coef

    rows, cols, data = [], [], []
    lower_bounds, upper_bounds = [], []
    for row, constraint in enumerate(model.constraints):
        for var, coef in constraint.expr.terms.items():
            rows.append(row)
            cols.append(var.index)
            data.append(coef)
        rhs = -constraint.expr.constant
        if constraint.sense is Sense.LE:
            lower_bounds.append(-np.inf)
            upper_bounds.append(rhs)
        elif constraint.sense is Sense.GE:
            lower_bounds.append(rhs)
            upper_bounds.append(np.inf)
        else:
            lower_bounds.append(rhs)
            upper_bounds.append(rhs)

    constraints = []
    if model.constraints:
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(model.constraints), num_vars)
        )
        constraints.append(
            LinearConstraint(matrix, np.array(lower_bounds), np.array(upper_bounds))
        )

    integrality = np.array([1 if v.is_integer else 0 for v in model.variables])
    bounds = Bounds(
        np.array([v.lower for v in model.variables]),
        np.array([v.upper for v in model.variables]),
    )

    options: dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if mip_rel_gap is not None and model.num_integer_variables:
        options["mip_rel_gap"] = mip_rel_gap

    start = time.perf_counter()
    try:
        result = milp(
            c=cost,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options or None,
        )
    except Exception as exc:  # scipy raises on malformed inputs
        raise SolverError(f"scipy milp failed on model {model.name!r}: {exc}") from exc
    elapsed = time.perf_counter() - start

    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    telemetry = _telemetry(result)
    if result.x is None:
        if status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
            status = SolveStatus.ERROR
        return Solution(
            status=status, solve_seconds=elapsed, backend="scipy-highs", **telemetry
        )

    values = {}
    for var in model.variables:
        value = float(result.x[var.index])
        if var.is_integer:
            value = float(round(value))
        values[var] = value
    objective = model.objective.value(values)
    return Solution(
        status=status,
        objective=objective,
        values=values,
        solve_seconds=elapsed,
        backend="scipy-highs",
        **telemetry,
    )


def _telemetry(result) -> dict:
    """The MIP search's gap, dual bound and node count, where reported."""
    gap = getattr(result, "mip_gap", None)
    bound = getattr(result, "mip_dual_bound", None)
    nodes = getattr(result, "mip_node_count", None)
    return {
        "mip_gap": None if gap is None else float(gap),
        "mip_dual_bound": None if bound is None else float(bound),
        "mip_node_count": None if nodes is None else int(nodes),
    }
