"""Per-layer measurement for the traced runs.

Spans are taken from the benchmark's side of each layer boundary: the
compiler's stage functions and the ILP ``solve`` are wrapped where the
compiler binds them (and removed again after each traced compile), and
the hit path's layers are timed by calling each module's public
function directly.  Nothing here is active in a timing run.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import tempfile
import time
from pathlib import Path

from common import APPS, RATE, median

#: Compiler stage functions, as bound in ``repro.core.compiler``.
STAGES = {
    "synthesize": "hls.synthesize.s",
    "floorplan_inter": "inter_floorplan.s",
    "floorplan_inter_coarse": "inter_floorplan.s",
    "insert_communication": "comm_insertion.s",
    "floorplan_intra": "intra_floorplan.s",
    "bind_hbm_channels": "hbm_binding.s",
    "pipeline_device": "pipelining.s",
    "verify_balanced": "pipelining.s",
    "estimate_frequency_mhz": "timing.s",
}
#: Modules that bind ``repro.ilp.solve`` at import.
SOLVE_CALLERS = (
    "repro.core.bipartition",
    "repro.core.inter_floorplan",
    "repro.core.intra_floorplan",
    "repro.core.hbm_binding",
)
COMPILE_TIMES = sorted(set(STAGES.values())) + ["drc.s", "ilp.solve.s", "sim.simulate.s"]
COMPILE_COUNTS = [
    "intra.method.ilp", "intra.method.bisect", "intra.method.greedy",
    "ladder.steps", "ilp.solves", "ilp.vars", "ilp.constraints",
    "ilp.not_optimal", "ilp.fallbacks",
]


class CompileTracer:
    """Wraps the compiler's layers and keeps one record per traced compile.

    Layer times are CPU seconds of the compiling process, as the
    ``cold_compile`` operations are.
    """

    def __init__(self) -> None:
        self.records: dict[str, list[dict]] = {}
        self._current: dict = {}

    def _add(self, key: str, amount: float) -> None:
        self._current[key] = self._current.get(key, 0.0) + amount

    def _timed(self, key: str, fn):
        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, time.process_time() - start)

        return wrapper

    def _timed_solve(self, fn):
        from repro.ilp.solution import SolveStatus

        def wrapper(model, *args, **kwargs):
            start = time.process_time()
            solution = fn(model, *args, **kwargs)
            self._add("ilp.solve.s", time.process_time() - start)
            self._add("ilp.solves", 1)
            self._add("ilp.vars", model.num_variables)
            self._add("ilp.constraints", model.num_constraints)
            if solution.status is not SolveStatus.OPTIMAL:
                self._add("ilp.not_optimal", 1)
            return solution

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        import importlib

        import repro.check
        import repro.core.compiler as compiler
        import repro.sim.execution as execution

        patches = [(compiler, name, self._timed(key, getattr(compiler, name)))
                   for name, key in STAGES.items()]
        patches += [
            (repro.check, "check_graph", self._timed("drc.s", repro.check.check_graph)),
            (repro.check, "check_design", self._timed("drc.s", repro.check.check_design)),
            (execution, "simulate", self._timed("sim.simulate.s", execution.simulate)),
        ]
        for name in SOLVE_CALLERS:
            module = importlib.import_module(name)
            patches.append((module, "solve", self._timed_solve(module.solve)))
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        self._current = {}
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def after_compile(self, case: str, design) -> None:
        """Close the record of one traced compile+simulate."""
        for plan in design.intra.values():
            self._add(f"intra.method.{plan.method}", 1)
        self._add("ladder.steps", design.stage_seconds.get("ladder_steps", 0.0))
        self._add("ilp.fallbacks", design.stage_seconds.get("ilp_fallbacks", 0.0))
        self.records.setdefault(case, []).append(self._current)
        self._current = {}

    def report(self, metrics) -> None:
        """Layer times as the sum over cases of each case's median, and
        counts from each case's first traced compile (they repeat under a
        fixed hash seed), both per pass of the 12 cases."""
        for key in COMPILE_TIMES:
            metrics.add(key, sum(
                median([r.get(key, 0.0) for r in runs]) for runs in self.records.values()
            ), "s")
        for key in COMPILE_COUNTS:
            metrics.add(key, int(sum(
                runs[0].get(key, 0) for runs in self.records.values()
            )), "count")


def _median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e3


def probe_hit_layers(entries, cache_dir: Path, metrics, repeats: int = 5) -> dict:
    """Time each layer of a cache hit in-process, per entry, and report
    the medians.

    ``entries`` are ``(graph, cluster, flow, design)`` whose compile is
    stored in ``cache_dir`` under the default :class:`CompilerConfig`.
    Returns the medians, in ms, keyed by metric name.
    """
    from repro.core.compiler import CompilerConfig
    from repro.graph.serialize import design_summary
    from repro.perf.cache import DesignCache, configure_cache
    from repro.perf.fingerprint import fingerprint_compile
    from repro.serve.broker import CompileRequest, CompileService, ServiceConfig
    from repro.serve.server import build_app_graph

    cache_dir = str(cache_dir)
    layer: dict[str, list[float]] = {}

    def note(key: str, value_ms: float) -> None:
        layer.setdefault(key, []).append(value_ms)

    for app in APPS:
        note("serve.parse_ms", _median_ms(lambda: build_app_graph(app), repeats))
    scratch = Path(tempfile.mkdtemp(prefix="put-", dir=Path(cache_dir).parent))
    try:
        for graph, cluster, flow, design in entries:
            fingerprint = fingerprint_compile(graph, cluster, CompilerConfig(), flow)
            note("perf.fingerprint_ms", _median_ms(
                lambda: fingerprint_compile(graph, cluster, CompilerConfig(), flow),
                repeats))
            disk, mem = [], []
            for _ in range(repeats):
                cache = DesignCache(directory=cache_dir)
                disk.append(_median_ms(lambda: cache.get(fingerprint), 1))
                mem.append(_median_ms(lambda: cache.get(fingerprint), 1))
            note("perf.cache_get_disk_ms", median(disk))
            note("perf.cache_get_mem_ms", median(mem))
            note("serve.encode_ms", _median_ms(
                lambda: json.dumps({"design": design_summary(design)}, indent=2).encode(),
                repeats))
            put_cache = DesignCache(directory=str(scratch))
            note("perf.cache_put_ms", _median_ms(
                lambda: put_cache.put(fingerprint, design, 1.0), repeats))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Service hits arrive like the open loop's sends, at random gaps of
    # mean ``1/RATE``: the fleet's dispatch waits on its monitor's poll,
    # and evenly spaced calls would lock onto one phase of it.
    gaps = random.Random(0)
    configure_cache(directory=cache_dir, enabled=True, use_disk=True)
    for key, config in (
        ("broker.execute_hit_ms", ServiceConfig(workers=1)),
        ("fleet.run_hit_ms", ServiceConfig(fleet_workers=2)),
    ):
        service = CompileService(config)
        try:
            for graph, cluster, flow, _ in entries:
                request = CompileRequest(graph=graph, cluster=cluster, flow=flow)
                service.execute(request)  # first touch may read the disk tier
                samples = []
                for _ in range(repeats):
                    time.sleep(gaps.expovariate(RATE))
                    start = time.perf_counter()
                    service.execute(request)
                    samples.append(time.perf_counter() - start)
                note(key, median(samples) * 1e3)
        finally:
            service.shutdown()

    medians = {key: median(values) for key, values in layer.items()}
    medians["fleet.dispatch_ms"] = (
        medians["fleet.run_hit_ms"] - medians["broker.execute_hit_ms"]
    )
    for key, value in medians.items():
        metrics.add(key, value, "ms")
    return medians
