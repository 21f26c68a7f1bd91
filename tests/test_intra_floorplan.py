"""Intra-FPGA floorplanning tests: slot placement, Eq. 4 wirelength."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.experiments import paper_app_devices
from repro.core import IntraFloorplanConfig, floorplan_intra
from repro.core.intra_floorplan import (
    _Refinement,
    _SlotProblem,
    placement_objective,
    relaxed_thresholds,
)
from repro.devices import ALVEO_U55C
from repro.errors import FloorplanError, InfeasibleError
from repro.graph import GraphBuilder
from repro.hls import synthesize
from repro.hls.resource import RESOURCE_KINDS

from tests.conftest import build_chain, build_diamond, build_wide

METHODS = ("ilp", "bisect", "refine", "naive")


def synthesized(graph):
    synthesize(graph)
    return graph


@pytest.mark.parametrize("method", METHODS)
class TestMethods:
    def test_places_all_tasks(self, method):
        g = synthesized(build_diamond())
        plan = floorplan_intra(
            g, ALVEO_U55C, config=IntraFloorplanConfig(method=method)
        )
        assert set(plan.placement) == set(g.task_names())
        assert plan.method == method

    def test_slots_are_on_grid(self, method):
        g = synthesized(build_chain(5))
        plan = floorplan_intra(
            g, ALVEO_U55C, config=IntraFloorplanConfig(method=method)
        )
        for slot in plan.placement.values():
            assert 0 <= slot.row < ALVEO_U55C.grid_rows
            assert 0 <= slot.col < ALVEO_U55C.grid_cols

    def test_per_slot_accounting(self, method):
        g = synthesized(build_diamond())
        plan = floorplan_intra(
            g, ALVEO_U55C, config=IntraFloorplanConfig(method=method)
        )
        total = sum(v.lut for v in plan.per_slot.values())
        manual = sum(t.require_resources().lut for t in g.tasks())
        assert total == pytest.approx(manual)


class TestQuality:
    def test_ilp_wirelength_not_worse_than_bisect(self):
        g = synthesized(build_chain(5))
        ilp = floorplan_intra(g, ALVEO_U55C, config=IntraFloorplanConfig(method="ilp"))
        bisect = floorplan_intra(
            g, ALVEO_U55C, config=IntraFloorplanConfig(method="bisect")
        )
        assert ilp.wirelength <= bisect.wirelength + 1e-6

    def test_small_design_zero_wirelength(self):
        b = GraphBuilder()
        b.task("a", hints={"lut": 1000})
        b.task("b", hints={"lut": 1000})
        b.stream("a", "b", width_bits=512)
        g = synthesized(b.build())
        plan = floorplan_intra(g, ALVEO_U55C, config=IntraFloorplanConfig(method="ilp"))
        assert plan.wirelength == 0.0
        assert plan.crossings("a", "b") == 0

    def test_hbm_tasks_prefer_hbm_row(self):
        b = GraphBuilder()
        b.task("mem", hints={"lut": 1000}, hbm_read=("p", 512, 1e6))
        b.task("calc", hints={"lut": 1000})
        b.stream("mem", "calc", width_bits=32)
        g = synthesized(b.build())
        plan = floorplan_intra(g, ALVEO_U55C, config=IntraFloorplanConfig(method="ilp"))
        assert plan.placement["mem"].row == ALVEO_U55C.hbm_row

    def test_wirelength_matches_eq4(self):
        g = synthesized(build_chain(5))
        plan = floorplan_intra(g, ALVEO_U55C, config=IntraFloorplanConfig(method="ilp"))
        manual = sum(
            c.width_bits
            * plan.placement[c.src].distance_to(plan.placement[c.dst])
            for c in g.channels()
        )
        assert plan.wirelength == pytest.approx(manual)


class TestCapacity:
    def test_threshold_respected(self):
        g = synthesized(build_chain(6, lut=80_000))
        for method in ("ilp", "refine"):
            plan = floorplan_intra(
                g, ALVEO_U55C, config=IntraFloorplanConfig(method=method, threshold=0.7)
            )
            assert plan.max_slot_utilization(ALVEO_U55C) <= 0.71, method

    def test_oversized_task_is_infeasible(self):
        g = synthesized(build_chain(3, lut=250_000))
        for method in ("ilp", "refine"):
            with pytest.raises(InfeasibleError):
                floorplan_intra(
                    g, ALVEO_U55C, config=IntraFloorplanConfig(method=method, threshold=0.7)
                )

    def test_empty_graph(self):
        from repro.graph import TaskGraph

        plan = floorplan_intra(TaskGraph(), ALVEO_U55C)
        assert plan.placement == {}
        assert plan.wirelength == 0.0

    def test_unknown_method(self):
        g = synthesized(build_diamond())
        with pytest.raises(FloorplanError, match="unknown intra-FPGA"):
            floorplan_intra(
                g, ALVEO_U55C, config=IntraFloorplanConfig(method="anneal")
            )

    def test_slot_of_unplaced_task(self):
        g = synthesized(build_diamond())
        plan = floorplan_intra(g, ALVEO_U55C)
        with pytest.raises(FloorplanError, match="not placed"):
            plan.slot_of("ghost")


class TestNaivePacking:
    def test_naive_ignores_wirelength(self):
        g = synthesized(build_chain(6, lut=100_000))
        naive = floorplan_intra(
            g, ALVEO_U55C, config=IntraFloorplanConfig(method="naive")
        )
        smart = floorplan_intra(
            g, ALVEO_U55C, config=IntraFloorplanConfig(method="ilp")
        )
        assert smart.wirelength <= naive.wirelength + 1e-9

    def test_naive_balances_fill(self):
        # A design at ~25% utilization should not produce a ~100% slot.
        g = synthesized(build_chain(8, lut=35_000))
        plan = floorplan_intra(
            g, ALVEO_U55C, config=IntraFloorplanConfig(method="naive")
        )
        assert plan.max_slot_utilization(ALVEO_U55C) < 0.9


class TestAuto:
    def test_auto_small_uses_refine(self):
        g = synthesized(build_diamond())
        plan = floorplan_intra(g, ALVEO_U55C, config=IntraFloorplanConfig(method="auto"))
        assert plan.method == "refine"

    def test_auto_large_uses_refine(self):
        g = synthesized(build_chain(40, lut=15_000))
        plan = floorplan_intra(g, ALVEO_U55C, config=IntraFloorplanConfig(method="auto"))
        assert plan.method == "refine"


@pytest.fixture(scope="module")
def paper_devices():
    return paper_app_devices()


class TestRefine:
    def test_auto_beats_greedy_under_the_threshold_on_paper_devices(self, paper_devices):
        for label, graph, part, threshold in paper_devices:
            plan = floorplan_intra(graph, part, config=IntraFloorplanConfig(threshold=threshold))
            assert plan.method == "refine"
            assert set(plan.placement) == set(graph.task_names()), label
            assert plan.max_slot_utilization(part, RESOURCE_KINDS) <= threshold + 1e-9, label
            greedy = floorplan_intra(
                graph, part,
                config=IntraFloorplanConfig(method="greedy", threshold=threshold),
            )
            assert placement_objective(graph, part, plan.placement) <= (
                placement_objective(graph, part, greedy.placement)
            ), label

    def test_greedy_matches_the_plain_loop_reference(self, paper_devices):
        graphs = [synthesized(build_diamond()), synthesized(build_chain(12, lut=60_000)),
                  synthesized(build_wide(10))]
        graphs += [graph for _label, graph, _part, _threshold in paper_devices]
        for graph in graphs:
            for threshold in (0.35, 0.7):
                config = IntraFloorplanConfig(method="greedy", threshold=threshold)
                plan = floorplan_intra(graph, ALVEO_U55C, config=config)
                assert plan.placement == _reference_greedy(graph, ALVEO_U55C, config)

    def test_incremental_costs_match_a_fresh_evaluation(self, paper_devices):
        for _label, graph, part, _threshold in paper_devices:
            problem = _SlotProblem(graph, part, IntraFloorplanConfig(), 1.0)
            refinement = _Refinement(problem, problem.greedy(problem.bfs_order()))
            slot_of = refinement.run()
            fresh = _Refinement(problem, slot_of)
            assert (refinement.cost == fresh.cost).all()
            assert refinement.usage == pytest.approx(fresh.usage, abs=1e-6)
            assert problem.objective(slot_of) == placement_objective(
                graph, part, problem.placement(slot_of)
            )

    def test_refine_is_hash_seed_independent(self):
        script = (
            "import json\n"
            "from repro.core import IntraFloorplanConfig, floorplan_intra\n"
            "from repro.devices import ALVEO_U55C\n"
            "from repro.hls import synthesize\n"
            "from repro.serve.server import build_app_graph\n"
            "g = build_app_graph('cnn')\n"
            "synthesize(g)\n"
            "plan = floorplan_intra(g, ALVEO_U55C, config=IntraFloorplanConfig(threshold=0.5))\n"
            "print(json.dumps({n: [s.row, s.col] for n, s in sorted(plan.placement.items())}))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])) == 74


def _reference_greedy(graph, part, config):
    """The greedy tier as a plain loop over ResourceVectors: BFS order
    from the largest task, widest channels first; each task to the
    cheapest slot with room, ties to the first slot; the threshold
    relaxed to 0.95 and 1.0 if it must be."""
    neighbors = {name: [] for name in graph.task_names()}
    for chan in graph.channels():
        if chan.src != chan.dst:
            neighbors[chan.src].append((chan.dst, float(chan.width_bits)))
            neighbors[chan.dst].append((chan.src, float(chan.width_bits)))
    order, seen = [], set()
    for seed in sorted(graph.task_names(), key=lambda n: (-graph.task(n).require_resources().lut, n)):
        if seed in seen:
            continue
        seen.add(seed)
        frontier = [seed]
        while frontier:
            name = frontier.pop(0)
            order.append(name)
            for nbr, _width in sorted(neighbors[name], key=lambda p: (-p[1], p[0])):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
    slots = part.slots()
    for threshold in relaxed_thresholds(config.threshold):
        remaining = [slot.capacity * threshold for slot in slots]
        placement = {}
        for name in order:
            task = graph.task(name)
            need = task.require_resources()
            best, best_cost = None, float("inf")
            for i, slot in enumerate(slots):
                if not need.fits_within(remaining[i]):
                    continue
                cost = sum(width * slot.distance_to(placement[nbr])
                           for nbr, width in neighbors[name] if nbr in placement)
                if task.uses_hbm:
                    cost += (config.hbm_affinity * len(task.hbm_ports)
                             * abs(slot.row - part.hbm_row))
                if cost < best_cost:
                    best, best_cost = i, cost
            if best is None:
                break
            placement[name] = slots[best]
            remaining[best] = remaining[best] - need
        else:
            return placement
    raise InfeasibleError("reference greedy found no plan")
