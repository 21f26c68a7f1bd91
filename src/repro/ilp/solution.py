"""Solver-independent solution objects."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import Model, Var


class SolveStatus(Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped early with an incumbent
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass(slots=True)
class Solution:
    """The result of solving a :class:`~repro.ilp.model.Model`.

    ``values`` maps every model variable to its value; integer variables
    are rounded to exact integers by the backends.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: dict[Var, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    backend: str = ""
    nodes_explored: int = 0
    #: HiGHS telemetry from ``scipy.optimize.milp``: the relative gap
    #: and dual bound the search stopped at, and its branch-and-bound
    #: node count.  None when the backend does not report them (the
    #: pure-Python branch-and-bound).
    mip_gap: float | None = None
    mip_dual_bound: float | None = None
    mip_node_count: int | None = None

    @property
    def is_usable(self) -> bool:
        """True when a feasible assignment is available."""
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def __getitem__(self, var: Var) -> float:
        return self.values[var]

    def check_feasible(self, model: Model, tol: float = 1e-5) -> bool:
        """Verify every constraint of ``model`` holds under this solution."""
        if not self.is_usable:
            return False
        return all(c.satisfied(self.values, tol=tol) for c in model.constraints)
