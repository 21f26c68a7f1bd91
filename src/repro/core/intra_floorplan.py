"""Intra-FPGA floorplanning (step 5 of Figure 5, formulation of Sec. 4.5).

Each FPGA is presented to the floorplanner as a grid of slots delimited by
die boundaries and the hard-IP column (the U55C is a 3-row x 2-column
grid).  Every task assigned to the device must land in one slot, keeping
each slot under the utilization threshold and minimizing the Manhattan
wirelength of Eq. 4:

    sum_e width(e) * (|row_u - row_v| + |col_u - col_v|)

Tasks with HBM ports are pulled toward the HBM-adjacent row by a soft
affinity (strong but not a hard pin: the paper's binding explorer trades
bottom-die congestion against HBM proximity, which is exactly what a soft
cost expresses).

Methods:

* ``"refine"`` (the default, ``"auto"``) — greedy seeds refined by
  Fiduccia-Mattheyses single-task moves and pairwise swaps over slot
  boundaries, on exactly the direct ILP's objective.  No solver, and
  deterministic: a plan is a pure function of the device's subgraph.
* ``"bisect"`` — the paper's recursive two-way scheme, which splits the
  slot grid along its longest axis until single slots remain; each split
  is a small ILP.
* ``"ilp"`` — the direct assignment ILP.  The Manhattan distance is
  linear in the assignment binaries, so it needs only two auxiliary
  continuous variables per edge; it is wall-limited on large devices.
* ``"greedy"`` — the refinement's first seed alone, relaxing the
  threshold if it must (the deadline ladder's ILP-free tier).
* ``"naive"`` — area-driven packing blind to connectivity, modelling a
  placer with no floorplan guidance.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..deadline import current_deadline
from ..devices.fpga import FPGAPart, Slot
from ..errors import FloorplanError, InfeasibleError
from ..graph.graph import TaskGraph
from ..hls.resource import RESOURCE_KINDS, ResourceVector, total_resources
from ..ilp import Model, solve, sum_expr
from .bipartition import BipartitionSpec, bipartition

#: Soft cost (in Eq. 4 width units) pulling each HBM port toward the HBM row.
HBM_AFFINITY_WEIGHT = 256.0


@dataclass(slots=True)
class IntraFloorplanConfig:
    """Knobs for the intra-FPGA floorplanner."""

    threshold: float = 0.7
    method: str = "auto"  # "auto" (= "refine") | "refine" | "bisect" | "ilp" | "greedy" | "naive"
    backend: str = "scipy"
    time_limit: float | None = 15.0
    hbm_affinity: float = HBM_AFFINITY_WEIGHT


@dataclass(slots=True)
class IntraFloorplan:
    """Task -> slot placement for one device."""

    device_num: int
    placement: dict[str, Slot]
    wirelength: float
    per_slot: dict[tuple[int, int], ResourceVector]
    solve_seconds: float
    method: str

    def slot_of(self, task_name: str) -> Slot:
        try:
            return self.placement[task_name]
        except KeyError:
            raise FloorplanError(f"task {task_name!r} not placed on device "
                                 f"{self.device_num}") from None

    def crossings(self, src: str, dst: str) -> int:
        """Slot crossings between two placed tasks (Manhattan distance)."""
        return self.slot_of(src).distance_to(self.slot_of(dst))

    def max_slot_utilization(
        self,
        part: FPGAPart,
        kinds: tuple[str, ...] = ("lut", "ff", "bram", "uram"),
    ) -> float:
        """The most congested slot's utilization ratio.

        By default DSP is excluded: DSP blocks live in dedicated hard
        columns and dense DSP packing does not stretch fabric routing the
        way LUT/FF/BRAM pressure does (it limits *routability*, which the
        capacity constraints handle, not achievable frequency).
        """
        cap = part.slot_capacity
        worst = 0.0
        for used in self.per_slot.values():
            ratios = used.utilization(cap)
            worst = max(worst, max(ratios[k] for k in kinds))
        return worst


def _wirelength(graph: TaskGraph, placement: dict[str, Slot]) -> float:
    total = 0.0
    for chan in graph.channels():
        if chan.src in placement and chan.dst in placement:
            total += chan.width_bits * placement[chan.src].distance_to(
                placement[chan.dst]
            )
    return total


def relaxed_thresholds(threshold: float) -> list[float]:
    """``threshold``, then 0.95 and 1.0 (full slots) where above it: the
    slot thresholds tried in turn when a device's tasks do not pack."""
    return [threshold] + [t for t in (0.95, 1.0) if t > threshold]


def hbm_row_distance(
    graph: TaskGraph, part: FPGAPart, placement: dict[str, Slot]
) -> int:
    """HBM ports times rows between each port's task and the HBM row:
    what the soft affinity charges ``hbm_affinity`` per unit of."""
    return sum(
        len(task.hbm_ports) * abs(placement[task.name].row - part.hbm_row)
        for task in graph.tasks()
        if task.uses_hbm
    )


def placement_objective(
    graph: TaskGraph,
    part: FPGAPart,
    placement: dict[str, Slot],
    hbm_affinity: float = HBM_AFFINITY_WEIGHT,
) -> float:
    """The cost every placer here minimizes (the direct ILP's objective):
    Eq. 4 wirelength plus ``hbm_affinity`` per HBM port per row away."""
    return _wirelength(graph, placement) + hbm_affinity * hbm_row_distance(
        graph, part, placement
    )


def _per_slot_usage(
    graph: TaskGraph, placement: dict[str, Slot]
) -> dict[tuple[int, int], ResourceVector]:
    usage: dict[tuple[int, int], ResourceVector] = {}
    for name, slot in placement.items():
        key = (slot.row, slot.col)
        usage[key] = usage.get(key, ResourceVector.zero()) + graph.task(
            name
        ).require_resources()
    return usage


# ---------------------------------------------------------------------------
# Direct assignment ILP
# ---------------------------------------------------------------------------


def _floorplan_ilp(
    graph: TaskGraph, part: FPGAPart, config: IntraFloorplanConfig
) -> dict[str, Slot]:
    slots = part.slots()
    model = Model(f"intra_{graph.name}")

    x = {
        (task.name, i): model.binary_var(f"x_{task.name}_{i}")
        for task in graph.tasks()
        for i in range(len(slots))
    }
    for task in graph.tasks():
        model.add_constraint(
            sum_expr(x[task.name, i] for i in range(len(slots))) == 1
        )
    cap = part.slot_capacity
    for i in range(len(slots)):
        for kind in RESOURCE_KINDS:
            model.add_constraint(
                sum_expr(
                    task.require_resources()[kind] * x[task.name, i]
                    for task in graph.tasks()
                )
                <= config.threshold * cap[kind]
            )

    def row_expr(name: str):
        return sum_expr(slots[i].row * x[name, i] for i in range(len(slots)))

    def col_expr(name: str):
        return sum_expr(slots[i].col * x[name, i] for i in range(len(slots)))

    cost_terms = []
    max_row = max(s.row for s in slots)
    max_col = max(s.col for s in slots)
    for chan in graph.channels():
        dr = model.continuous_var(f"dr_{chan.name}", lower=0.0, upper=float(max_row))
        dc = model.continuous_var(f"dc_{chan.name}", lower=0.0, upper=float(max_col))
        model.add_constraint(dr >= row_expr(chan.src) - row_expr(chan.dst))
        model.add_constraint(dr >= row_expr(chan.dst) - row_expr(chan.src))
        model.add_constraint(dc >= col_expr(chan.src) - col_expr(chan.dst))
        model.add_constraint(dc >= col_expr(chan.dst) - col_expr(chan.src))
        cost_terms.append(chan.width_bits * (dr + dc))

    # HBM affinity: pay per row of distance from the HBM row.
    for task in graph.tasks():
        if not task.uses_hbm:
            continue
        weight = config.hbm_affinity * len(task.hbm_ports)
        dist_expr = sum_expr(
            abs(slots[i].row - part.hbm_row) * x[task.name, i]
            for i in range(len(slots))
        )
        cost_terms.append(weight * dist_expr)

    model.minimize(sum_expr(cost_terms))
    solution = solve(model, backend=config.backend, time_limit=config.time_limit)
    if not solution.is_usable:
        raise InfeasibleError(
            f"design {graph.name!r} does not fit the {part.name} slot grid at "
            f"threshold {config.threshold}"
        )
    placement: dict[str, Slot] = {}
    for task in graph.tasks():
        for i in range(len(slots)):
            if solution[x[task.name, i]] > 0.5:
                placement[task.name] = slots[i]
                break
        else:
            raise FloorplanError(f"solver left task {task.name!r} unplaced")
    return placement


# ---------------------------------------------------------------------------
# Recursive two-way partitioning over the slot grid (the paper's scheme)
# ---------------------------------------------------------------------------


def _floorplan_bisect(
    graph: TaskGraph, part: FPGAPart, config: IntraFloorplanConfig
) -> dict[str, Slot]:
    placement: dict[str, Slot] = {}

    def recurse(sub: TaskGraph, slots: list[Slot], threshold: float) -> None:
        if not sub.num_tasks:
            return
        if len(slots) == 1:
            target = slots[0]
            used = total_resources([t.require_resources() for t in sub.tasks()])
            if not used.fits_within(target.capacity, threshold=config.threshold):
                raise InfeasibleError(
                    f"bisection leaves slot {target.name} over threshold"
                )
            for task in sub.tasks():
                placement[task.name] = target
            return
        rows = {s.row for s in slots}
        cols = {s.col for s in slots}
        # Split along the longer axis, matching the paper's top-down halving.
        if len(rows) >= len(cols):
            cut = sorted(rows)[len(rows) // 2]
            left = [s for s in slots if s.row < cut]
            right = [s for s in slots if s.row >= cut]
            axis = "row"
        else:
            cut = sorted(cols)[len(cols) // 2]
            left = [s for s in slots if s.col < cut]
            right = [s for s in slots if s.col >= cut]
            axis = "col"

        affinity: dict[str, tuple[int, float]] = {}
        if axis == "row":
            # Pull HBM tasks toward whichever half contains the HBM row.
            hbm_side = 0 if any(s.row == part.hbm_row for s in left) else 1
            hbm_in_range = any(s.row == part.hbm_row for s in left + right)
            if hbm_in_range:
                for task in sub.tasks():
                    if task.uses_hbm:
                        affinity[task.name] = (
                            hbm_side,
                            config.hbm_affinity * len(task.hbm_ports),
                        )

        # A min-cut split at a loose threshold can be so imbalanced that a
        # child level cannot bin-pack its share.  When a child fails, redo
        # this level with a tighter (more balance-forcing) threshold: the
        # extra cut width costs wirelength but restores packability.
        last_error: InfeasibleError | None = None
        for attempt_threshold in (threshold, threshold * 0.9, threshold * 0.8):
            try:
                result = bipartition(
                    BipartitionSpec(
                        graph=sub,
                        capacity_left=total_resources([s.capacity for s in left]),
                        capacity_right=total_resources([s.capacity for s in right]),
                        threshold=attempt_threshold,
                        affinity=affinity,
                        backend=config.backend,
                        time_limit=config.time_limit,
                    )
                )
                saved = dict(placement)
                try:
                    recurse(sub.subgraph(result.tasks_on(0), name=f"{sub.name}_l"),
                            left, threshold)
                    recurse(sub.subgraph(result.tasks_on(1), name=f"{sub.name}_r"),
                            right, threshold)
                    return
                except InfeasibleError as exc:
                    placement.clear()
                    placement.update(saved)
                    last_error = exc
            except InfeasibleError as exc:
                last_error = exc
        raise last_error

    recurse(graph, part.slots(), config.threshold)
    missing = set(graph.task_names()) - set(placement)
    if missing:
        raise FloorplanError(f"bisection left tasks unplaced: {sorted(missing)}")
    return placement


# ---------------------------------------------------------------------------
# Naive packing (models a placer with no floorplan guidance)
# ---------------------------------------------------------------------------


def _floorplan_naive(
    graph: TaskGraph, part: FPGAPart, config: IntraFloorplanConfig
) -> dict[str, Slot]:
    """First-fit-decreasing area packing, blind to connectivity.

    This models what the conventional flow's placer effectively does when
    HLS has no floorplan information: modules end up compact in area but
    arbitrarily far from the modules they talk to.  Slots are filled up to
    their full capacity (not the floorplanner's safety threshold), which
    is exactly the congestion the paper blames for low Vitis frequencies.
    Slots fill in serpentine order (adjacent slot to adjacent slot), the
    way an area-driven placer grows a compact blob.
    """
    slots = part.slots()
    slots = sorted(
        slots,
        key=lambda s: (s.row, s.col if s.row % 2 == 0 else -s.col),
    )
    order = sorted(
        graph.task_names(),
        key=lambda n: -graph.task(n).require_resources().lut,
    )
    # A real placer balances: it will not pack one region solid while the
    # rest of the chip sits empty.  Fill each slot only up to a comfort
    # level tied to the design's overall utilization, falling back to a
    # full pack when the comfort level cannot fit the design.
    design_util = total_resources(
        [t.require_resources() for t in graph.tasks()]
    ).max_utilization(part.resources)
    comfort = min(1.0, max(0.4, design_util + 0.15))
    for fill_cap in (comfort, 1.0):
        remaining = [slot.capacity * fill_cap for slot in slots]
        placement: dict[str, Slot] = {}
        for name in order:
            area = graph.task(name).require_resources()
            for i, slot in enumerate(slots):
                if area.fits_within(remaining[i], threshold=1.0):
                    placement[name] = slot
                    remaining[i] = remaining[i] - area
                    break
            else:
                break  # this fill cap fails; try the next
        else:
            return placement
    raise InfeasibleError(
        f"naive packing cannot fit the design on {part.name}"
    )


# ---------------------------------------------------------------------------
# Greedy seeds and Fiduccia-Mattheyses refinement (no ILP)
# ---------------------------------------------------------------------------

#: Cost changes smaller than this are rounding noise, not improvements.
_GAIN_EPS = 1e-9


class _SlotProblem:
    """One device's placement problem as arrays, scored exactly as
    :func:`_floorplan_ilp` scores it: Eq. 4 plus the HBM affinity term.

    Tasks are indexed in sorted name order and slots in the part's
    row-major order, and every choice breaks ties toward the lower
    index, so a placement never depends on set or dict iteration order
    (and so not on ``PYTHONHASHSEED``).  A placement is an array
    ``slot_of`` of slot indices, one per task.
    """

    def __init__(
        self,
        graph: TaskGraph,
        part: FPGAPart,
        config: IntraFloorplanConfig,
        threshold: float,
    ):
        self.names = sorted(graph.task_names())
        index = {name: i for i, name in enumerate(self.names)}
        self.slots = part.slots()
        rows = np.array([s.row for s in self.slots], dtype=float)
        cols = np.array([s.col for s in self.slots], dtype=float)
        self.dist = np.abs(rows[:, None] - rows) + np.abs(cols[:, None] - cols)
        n = len(self.names)
        #: Summed channel width between each task pair (Eq. 4 weights),
        #: and each task's channels as (width, neighbor) for BFS orders.
        self.width = np.zeros((n, n))
        self.channels: list[list[tuple[float, int]]] = [[] for _ in range(n)]
        for chan in graph.channels():
            if chan.src == chan.dst:
                continue
            i, j = index[chan.src], index[chan.dst]
            self.width[i, j] += chan.width_bits
            self.width[j, i] += chan.width_bits
            self.channels[i].append((float(chan.width_bits), j))
            self.channels[j].append((float(chan.width_bits), i))
        #: Each task's neighbors: the only rows of a cost table its move changes.
        self.neighbors = [np.flatnonzero(row) for row in self.width]
        tasks = [graph.task(name) for name in self.names]
        self.hbm_ports = np.array(
            [len(t.hbm_ports) if t.uses_hbm else 0 for t in tasks], dtype=float
        )
        self.hbm_cost = np.outer(
            config.hbm_affinity * self.hbm_ports, np.abs(rows - part.hbm_row)
        )
        self.need = np.array([t.require_resources().as_tuple() for t in tasks])
        self.capacity = np.array(part.slot_capacity.as_tuple())
        self.limit = threshold * self.capacity + 1e-9

    # -- seeds ----------------------------------------------------------------

    def bfs_order(self) -> list[int]:
        """BFS over the channels from the largest task (by LUTs), widest
        channels first, so neighbors are placed one after another."""
        order: list[int] = []
        seen = [False] * len(self.names)
        lut = self.need[:, 0]
        for seed in sorted(range(len(self.names)), key=lambda i: (-lut[i], i)):
            if seen[seed]:
                continue
            seen[seed] = True
            frontier = deque([seed])
            while frontier:
                i = frontier.popleft()
                order.append(i)
                for _width, j in sorted(self.channels[i], key=lambda p: (-p[0], p[1])):
                    if not seen[j]:
                        seen[j] = True
                        frontier.append(j)
        return order

    def seed_orders(self) -> list[list[int]]:
        """The refinement's greedy seeds: BFS from the largest task, the
        same with HBM tasks first, and largest binding resource first."""
        bfs = self.bfs_order()
        hbm_first = [i for i in bfs if self.hbm_ports[i]] + [
            i for i in bfs if not self.hbm_ports[i]
        ]
        share = (self.need / np.where(self.capacity > 0, self.capacity, np.inf)).max(axis=1)
        largest = sorted(range(len(self.names)), key=lambda i: (-share[i], i))
        return [bfs, hbm_first, largest]

    def greedy(self, order: list[int]) -> np.ndarray | None:
        """Place the tasks one by one in ``order``, each into the slot
        under the threshold where it pays least toward its placed
        neighbors and the HBM row; None when some task fits nowhere."""
        slot_of = np.full(len(self.names), -1)
        usage = np.zeros((len(self.slots), len(RESOURCE_KINDS)))
        cost = self.hbm_cost.copy()
        for i in order:
            fits = (usage + self.need[i] <= self.limit).all(axis=1)
            if not fits.any():
                return None
            s = int(np.argmin(np.where(fits, cost[i], np.inf)))
            slot_of[i] = s
            usage[s] += self.need[i]
            nbrs = self.neighbors[i]
            cost[nbrs] += np.outer(self.width[nbrs, i], self.dist[s])
        return slot_of

    # -- scoring --------------------------------------------------------------

    def objective(self, slot_of: np.ndarray) -> float:
        wires = 0.5 * float((self.width * self.dist[slot_of][:, slot_of]).sum())
        return wires + float(self.hbm_cost[np.arange(len(slot_of)), slot_of].sum())

    def placement(self, slot_of: np.ndarray) -> dict[str, Slot]:
        return {name: self.slots[s] for name, s in zip(self.names, slot_of)}


class _Refinement:
    """Move-based improvement of one seed placement under the threshold.

    ``cost[i, s]`` is what task ``i`` would pay at slot ``s`` with every
    other task where it is now, so a move's gain is one subtraction,
    and a move updates only its neighbors' rows of ``cost``.
    """

    def __init__(self, problem: _SlotProblem, slot_of: np.ndarray):
        self.problem = problem
        self.slot_of = slot_of.copy()
        self.usage = np.zeros((len(problem.slots), len(RESOURCE_KINDS)))
        np.add.at(self.usage, self.slot_of, problem.need)
        self.cost = problem.hbm_cost + problem.width @ problem.dist[self.slot_of]

    def move(self, i: int, s: int) -> None:
        p = self.problem
        a = self.slot_of[i]
        self.slot_of[i] = s
        self.usage[a] -= p.need[i]
        self.usage[s] += p.need[i]
        nbrs = p.neighbors[i]
        self.cost[nbrs] += np.outer(p.width[nbrs, i], p.dist[s] - p.dist[a])

    def _fits(self, s: int) -> np.ndarray:
        """Which tasks could join slot ``s`` under the threshold."""
        return (self.usage[s] + self.problem.need <= self.problem.limit).all(axis=1)

    def fm_pass(self) -> float:
        """One Fiduccia-Mattheyses pass: repeatedly make the best single
        move of an unlocked task to a slot it fits in (even an uphill
        one), lock the task, then undo the moves after the best prefix.
        Returns the change in cost kept (zero or negative)."""
        n, slots = len(self.slot_of), len(self.problem.slots)
        tasks = np.arange(n)
        fits = np.stack([self._fits(s) for s in range(slots)], axis=1)
        locked = np.zeros(n, dtype=bool)
        moves: list[tuple[int, int]] = []
        total = best = 0.0
        keep = 0
        for _ in range(n):
            allowed = fits & ~locked[:, None]
            allowed[tasks, self.slot_of] = False
            if not allowed.any():
                break
            delta = self.cost - self.cost[tasks, self.slot_of][:, None]
            delta[~allowed] = np.inf
            i, s = divmod(int(np.argmin(delta)), slots)
            total += delta[i, s]
            a = int(self.slot_of[i])
            moves.append((i, a))
            self.move(i, s)
            locked[i] = True
            fits[:, a] = self._fits(a)
            fits[:, s] = self._fits(s)
            if total < best - _GAIN_EPS:
                best, keep = total, len(moves)
        for i, a in reversed(moves[keep:]):
            self.move(i, a)
        return best

    def swap_pass(self) -> float:
        """Repeatedly make the best swap of two tasks in different slots
        while it lowers the cost and both slots stay under the threshold.
        Returns the change in cost (zero or negative)."""
        p = self.problem
        tasks = np.arange(len(self.slot_of))
        total = 0.0
        while True:
            slot_of = self.slot_of
            # fits[i, j]: task j fits in task i's slot once task i leaves it.
            room = self.usage[slot_of] - p.need
            fits = (room[:, None, :] + p.need[None, :, :] <= p.limit).all(axis=2)
            here = self.cost[tasks, slot_of]
            across = self.cost[:, slot_of]  # across[i, j] = cost of i at j's slot
            # Each side prices the pair's own channel as if the partner
            # stayed put; after a swap that channel's length is unchanged.
            delta = (
                across - here[:, None]
                + (across - here[:, None]).T
                + 2.0 * p.width * p.dist[slot_of][:, slot_of]
            )
            delta[~(fits & fits.T) | (slot_of[:, None] == slot_of)] = np.inf
            i, j = divmod(int(np.argmin(delta)), len(tasks))
            if not delta[i, j] < -_GAIN_EPS:
                return total
            total += delta[i, j]
            si, sj = int(slot_of[i]), int(slot_of[j])
            self.move(i, sj)
            self.move(j, si)

    def run(self) -> np.ndarray:
        """Alternate FM and swap passes until neither improves, checking
        the ambient deadline between passes."""
        deadline = current_deadline()
        while True:
            if deadline is not None:
                deadline.check("intra-FPGA refinement")
            if self.fm_pass() + self.swap_pass() > -_GAIN_EPS:
                return self.slot_of


def _floorplan_refine(
    graph: TaskGraph, part: FPGAPart, config: IntraFloorplanConfig
) -> dict[str, Slot]:
    """Greedy seeds refined by FM and swap passes; the best one wins.

    Each seed order is placed greedily at the configured threshold only
    and then refined under it.  Distinct seeds are refined separately
    and the lowest-cost result wins (the first on a tie).
    """
    problem = _SlotProblem(graph, part, config, config.threshold)
    best: np.ndarray | None = None
    best_cost = float("inf")
    seen: set[bytes] = set()
    for order in problem.seed_orders():
        seed = problem.greedy(order)
        if seed is None or seed.tobytes() in seen:
            continue
        seen.add(seed.tobytes())
        refined = _Refinement(problem, seed).run()
        cost = problem.objective(refined)
        if cost < best_cost - _GAIN_EPS:
            best, best_cost = refined, cost
    if best is None:
        raise InfeasibleError(
            f"design {graph.name!r} does not fit the {part.name} slot grid at "
            f"threshold {config.threshold}"
        )
    return problem.placement(best)


def _floorplan_greedy(
    graph: TaskGraph, part: FPGAPart, config: IntraFloorplanConfig
) -> dict[str, Slot]:
    """Connectivity-ordered placement that respects the slot threshold.

    The deadline ladder's last resort: no ILP, no refinement, one linear
    pass.  Unlike :func:`_floorplan_naive` (which deliberately models a
    floorplan-blind placer), this keeps the two properties that make a
    floorplan a floorplan — slots stay under the utilization threshold,
    and each task is placed in whichever feasible slot minimizes the
    width-weighted distance to its already-placed neighbors, plus the
    same soft HBM affinity the ILP uses.  It is the first seed of
    ``"refine"``, without the refinement.

    Placement order is a BFS over the channel graph seeded from the
    largest task.  If the configured threshold cannot pack the design
    the pass retries at 0.95 and 1.0 — full physical capacity — before
    declaring infeasibility.
    """
    for threshold in relaxed_thresholds(config.threshold):
        problem = _SlotProblem(graph, part, config, threshold)
        slot_of = problem.greedy(problem.bfs_order())
        if slot_of is not None:
            return problem.placement(slot_of)
    raise InfeasibleError(
        f"greedy placement cannot fit the design on {part.name} even at "
        f"full slot capacity"
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def floorplan_intra(
    graph: TaskGraph,
    part: FPGAPart,
    device_num: int = 0,
    config: IntraFloorplanConfig | None = None,
) -> IntraFloorplan:
    """Place every task of ``graph`` into a slot of ``part``'s grid.

    ``graph`` is typically the induced subgraph of one device's tasks
    (cross-device channels are handled by communication insertion before
    this step, so every channel endpoint is local).
    """
    config = config or IntraFloorplanConfig()
    for task in graph.tasks():
        task.require_resources()

    method = "refine" if config.method == "auto" else config.method

    start = time.perf_counter()
    if graph.num_tasks == 0:
        placement: dict[str, Slot] = {}
    elif method == "refine":
        placement = _floorplan_refine(graph, part, config)
    elif method == "ilp":
        placement = _floorplan_ilp(graph, part, config)
    elif method == "bisect":
        placement = _floorplan_bisect(graph, part, config)
    elif method == "greedy":
        placement = _floorplan_greedy(graph, part, config)
    elif method == "naive":
        placement = _floorplan_naive(graph, part, config)
    else:
        raise FloorplanError(f"unknown intra-FPGA method {config.method!r}")
    elapsed = time.perf_counter() - start

    return IntraFloorplan(
        device_num=device_num,
        placement=placement,
        wirelength=_wirelength(graph, placement),
        per_slot=_per_slot_usage(graph, placement),
        solve_seconds=elapsed,
        method=method,
    )
