"""Cross-cutting property-based tests on core invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import paper_testbed
from repro.core import InterFloorplanConfig, IntraFloorplanConfig, floorplan_inter, floorplan_intra
from repro.core.intra_floorplan import placement_objective
from repro.devices import ALVEO_U55C, ALVEO_U250
from repro.errors import InfeasibleError
from repro.graph import Channel, Task, TaskGraph
from repro.graph.task import MMAPPort, PortDirection
from repro.hls import synthesize
from repro.hls.resource import RESOURCE_KINDS
from repro.sim import Environment, Get, Put


def random_dag(seed: int, tasks: int, lut_range=(10_000, 60_000)) -> TaskGraph:
    rng = random.Random(seed)
    g = TaskGraph(name=f"dag{seed}")
    names = [f"n{i}" for i in range(tasks)]
    for name in names:
        g.add_task(Task(name=name, hints={"lut": rng.randint(*lut_range)}))
    count = 0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if rng.random() < 0.3:
                g.add_channel(
                    Channel(
                        name=f"e{count}",
                        src=a,
                        dst=b,
                        width_bits=rng.choice([32, 128, 512]),
                        tokens=rng.randint(1, 10_000),
                    )
                )
                count += 1
    if count == 0:
        g.add_channel(Channel(name="e0", src=names[0], dst=names[-1]))
    return g


class TestFloorplanInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), tasks=st.integers(4, 12))
    def test_every_floorplan_is_feasible_and_complete(self, seed, tasks):
        g = random_dag(seed, tasks)
        synthesize(g)
        cluster = paper_testbed(2)
        plan = floorplan_inter(g, cluster, InterFloorplanConfig(time_limit=20.0))
        # Complete
        assert set(plan.assignment) == set(g.task_names())
        # Feasible at the threshold
        for dev, used in plan.per_device.items():
            cap = cluster.device(dev).usable_resources
            assert used.fits_within(cap, threshold=0.7)
        # Self-consistent cut accounting
        assert plan.cut_volume_bytes == pytest.approx(
            g.cut_volume_bytes(plan.assignment)
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_methods_agree_on_feasibility(self, seed):
        g = random_dag(seed, 8)
        synthesize(g)
        cluster = paper_testbed(2)
        costs = {}
        for method in ("ilp", "greedy"):
            plan = floorplan_inter(
                g, cluster, InterFloorplanConfig(method=method, time_limit=20.0)
            )
            costs[method] = plan.comm_cost
        # Exact optimization never loses to the heuristic (2% MIP gap).
        assert costs["ilp"] <= costs["greedy"] * 1.021 + 1e-6


@st.composite
def placement_cases(draw, max_tasks: int = 14):
    """A random DAG in the style of the analyzer's fuzzed corpus (mixed
    task sizes, some HBM ports, random channel widths), a device part
    and a slot threshold."""
    n = draw(st.integers(2, max_tasks))
    # Task sizes scale with the count so that most designs about fill a
    # device: some pack easily, some only at a loose threshold, some not.
    max_lut = min(110_000, max(4_000, 1_200_000 // n))
    g = TaskGraph(name="placement")
    for i in range(n):
        ports = [
            MMAPPort(name=f"p{p}", direction=PortDirection.READ,
                     width_bits=draw(st.sampled_from([64, 256, 512])), volume_bytes=1e6)
            for p in range(draw(st.integers(0, 2)))
        ]
        g.add_task(Task(name=f"t{i}", hints={"lut": draw(st.integers(2_000, max_lut))},
                        hbm_ports=ports))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([32, 128, 512])),
        max_size=3 * n,
    ))
    for k, (a, b, width) in enumerate(edges):
        if a != b:
            g.add_channel(Channel(name=f"e{k}", src=f"t{min(a, b)}", dst=f"t{max(a, b)}",
                                  width_bits=width))
    part = draw(st.sampled_from([ALVEO_U55C, ALVEO_U250]))
    threshold = draw(st.sampled_from([0.5, 0.7, 0.9]))
    return g, part, threshold


def check_refine_against_greedy(graph, part, threshold):
    """``refine`` places every task under the threshold and never scores
    worse than ``greedy`` whenever greedy's plan fits the threshold (then
    greedy ran without relaxing it, and its plan is refine's first seed);
    when it does not, refine may find no plan."""
    synthesize(graph)
    try:
        greedy = floorplan_intra(
            graph, part, config=IntraFloorplanConfig(method="greedy", threshold=threshold)
        )
    except InfeasibleError:  # not even at full slots, so not at the threshold
        greedy_fits = False
    else:
        greedy_fits = all(
            used.fits_within(part.slot_capacity, threshold)
            for used in greedy.per_slot.values()
        )
    try:
        plan = floorplan_intra(
            graph, part, config=IntraFloorplanConfig(method="refine", threshold=threshold)
        )
    except InfeasibleError:
        assert not greedy_fits
        return
    assert set(plan.placement) == set(graph.task_names())
    assert plan.max_slot_utilization(part, RESOURCE_KINDS) <= threshold + 1e-9
    if greedy_fits:
        assert placement_objective(graph, part, plan.placement) <= placement_objective(
            graph, part, greedy.placement
        )


class TestRefineInvariants:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=placement_cases())
    def test_refine_is_feasible_and_beats_greedy(self, case):
        check_refine_against_greedy(*case)

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=placement_cases(max_tasks=60))
    def test_refine_is_feasible_and_beats_greedy_deep(self, case):
        check_refine_against_greedy(*case)


class TestEngineConservation:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        producers=st.integers(1, 4),
        items=st.integers(1, 20),
    )
    def test_tokens_conserved(self, seed, producers, items):
        """All tokens put are either consumed or still buffered at the end."""
        rng = random.Random(seed)
        env = Environment()
        buf = env.buffer("b", capacity=max(4, items))

        def producer(delay):
            for _ in range(items):
                yield env.timeout(delay)
                yield Put(buf, 1)

        def consumer(total):
            for _ in range(total):
                yield Get(buf, 1)

        for p in range(producers):
            env.process(f"p{p}", producer(rng.random()))
        env.process("c", consumer(producers * items))
        env.run()
        assert buf.total_put == producers * items
        assert buf.total_got == producers * items
        assert buf.level == 0.0

    @settings(max_examples=20, deadline=None)
    @given(delays=st.lists(st.floats(0.01, 10, allow_nan=False), min_size=1, max_size=8))
    def test_clock_is_max_of_independent_delays(self, delays):
        env = Environment()

        def proc(d):
            yield env.timeout(d)

        for i, d in enumerate(delays):
            env.process(f"p{i}", proc(d))
        assert env.run() == pytest.approx(max(delays))


class TestEstimatorDevice:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), tasks=st.integers(2, 10))
    def test_synthesis_total_additivity(self, seed, tasks):
        g = random_dag(seed, tasks)
        report = synthesize(g)
        manual = sum(t.require_resources().lut for t in g.tasks())
        assert report.total.lut == pytest.approx(manual)

    @settings(max_examples=20, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_slot_capacities_tile_the_device(self, rows, cols):
        from dataclasses import replace

        part = replace(ALVEO_U55C, grid_rows=rows, grid_cols=cols)
        slots = part.slots()
        assert len(slots) == rows * cols
        total = sum(s.capacity.lut for s in slots)
        assert total == pytest.approx(part.resources.lut)
