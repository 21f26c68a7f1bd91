"""Helpers shared by the benchmark's workloads.

Statistics (the percentile rule, geomean), the seeded inputs (hash
seeds, request schedule), the output checks, and the metric document.
Nothing here starts a process or touches the network, so the tests in
``test_common.py`` exercise it directly.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass

#: The paper apps the compiler is measured on (``build_app_graph`` defaults).
APPS = ("stencil", "pagerank", "knn", "cnn")
#: FPGA counts of the measured flows: F1-T, F2, F4.
FPGA_COUNTS = (1, 2, 4)
#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10
#: Offered load of the open loop, requests per second; the in-process
#: service probes arrive at the same mean rate.
RATE = 10.0


def hash_seed(seed: int, index: int = 0) -> int:
    """The ``PYTHONHASHSEED`` of a run's ``index``-th program process.

    Floorplans and compile times depend on the hash seed (set iteration
    order reaches the ILP models), so it is derived from the workload
    seed: the same seed gives the same plans, and each seed samples its
    own hash seeds.  Index 0 of seed ``n`` is ``n``.
    """
    return (seed + index * 1_000_003) % 2**32


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile, refused without enough tail.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    strictly beyond the returned rank, so a tail figure is never read off
    a handful of points.  ``p = 50`` needs only as many samples as that.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if p > 50 and beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def warm_bodies() -> list[dict]:
    """The 24 request bodies every HTTP workload pre-warms and then hits:
    4 apps x ``fpgas`` 1/2/4 x compile/simulate."""
    return [
        {"app": app, "fpgas": fpgas, "simulate": simulate}
        for simulate in (True, False)
        for app in APPS
        for fpgas in FPGA_COUNTS
    ]


@dataclass(frozen=True, slots=True)
class Send:
    """One scheduled request of an open-loop run."""

    at_s: float  # offset from the start of the measured window
    body: int  # index into the hit bodies


def open_loop_schedule(
    seed: int, seconds: float, rate: float, num_bodies: int, part: int = 0
) -> list[Send]:
    """``seconds * rate`` seeded sends over ``num_bodies`` bodies, for
    window ``part`` of a run (each window gets its own sends).

    Send ``i`` goes at a uniform random time in the ``i``-th slot of
    ``1/rate`` seconds.  The random phase keeps the sends from locking
    onto the server's internal poll period, which moved the median hit
    by 20% between runs with evenly spaced sends.  The one-per-slot
    spacing keeps the bursts of a Poisson process, which spread the tail
    by as much, out of the client's queue.
    """
    rng = random.Random(f"schedule:{seed}:{part}")
    return [
        Send((i + rng.random()) / rate, rng.randrange(num_bodies))
        for i in range(int(seconds * rate))
    ]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_hit(document: dict, recorded: dict) -> str | None:
    """Why a cache-hit answer is wrong, or None when it is right.

    A hit must return exactly the document the same body got in set-up:
    same design summary, same simulated latency.
    """
    if document != recorded:
        return "response differs from the one recorded in set-up"
    return None


def design_errors(design) -> list[str]:
    """Defects of one compiled design: DRC errors, a degraded tier."""
    from repro.check import Severity

    problems = [
        f"DRC {d.rule}: {d.message}"
        for d in design.diagnostics
        if d.severity is Severity.ERROR
    ]
    if design.floorplan_tier != "full":
        problems.append(f"floorplan tier {design.floorplan_tier}")
    return problems


def wirelength(design) -> float:
    """The Eq. 4 intra-FPGA objective summed over a design's devices."""
    return float(sum(plan.wirelength for plan in design.intra.values()))


# ---------------------------------------------------------------------------
# Result document
# ---------------------------------------------------------------------------


class Metrics:
    """Named metrics with units, in the order they are recorded."""

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        if name in self.values:
            raise ValueError(f"metric {name} recorded twice")
        self.values[name] = {"value": value, "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: Metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics.values,
        }
    )
