"""The ``cold_compile`` workload: the compiler with the cache off.

``compile_design`` plus ``simulate`` on the four paper apps x
F1-T/F2/F4 (F1-T as ``compile_single_tapa`` runs it: one card, the
"tapa" flow), round-robin in a closed loop with one caller, until the
measured window ends.

Compile time depends on the hash seed: one hash seed makes PageRank and
CNN up to three times slower than another.  So a timing run samples many
hash seeds: it runs short-lived shard processes, :data:`WORKERS` at a
time, each with its own ``PYTHONHASHSEED``, until the window ends.  Shard
``j`` compiles the four apps once at one FPGA count (F1-T, F2, F4 in
turn), so every shard samples each app's hash-seed effect.  An
operation is timed in CPU seconds of its process: the compile runs on
one thread, so on an idle host this is its wall time, and on a shared
host it leaves out the time the process waited for a core.

A traced run is one worker with one hash seed that runs all 12 cases
round-robin for the window.

Run as a script, this file is one worker: it sets up, measures, checks
every output, and prints its samples as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from common import (
    APPS,
    FPGA_COUNTS,
    Metrics,
    design_errors,
    geomean,
    hash_seed,
    median,
    wirelength,
)

#: Shards running at once in a timing run, one per core of a 2-vCPU host.
WORKERS = 2
#: A timing run starts shards until the window ends, and at least this
#: many, so that every case is measured.
MIN_SHARDS = len(FPGA_COUNTS)
#: A worker that has not finished by then has hung.
WORKER_TIMEOUT_S = 150.0


class Case:
    """One app x flow of the measured pass."""

    def __init__(self, app: str, fpgas: int):
        from repro.cluster.cluster import make_cluster, paper_testbed
        from repro.serve.server import build_app_graph

        self.name = f"{app}/F{fpgas}" + ("-T" if fpgas == 1 else "")
        self.graph = build_app_graph(app)
        # F1-T is compile_single_tapa: one card, the "tapa" flow.
        self.flow = "tapa" if fpgas == 1 else "tapa-cs"
        self.cluster = make_cluster(1) if fpgas == 1 else paper_testbed(fpgas)

    def run(self):
        from repro.core.compiler import compile_design
        from repro.sim.execution import simulate

        design = compile_design(self.graph, self.cluster, flow=self.flow)
        return design, simulate(design)


def set_up(fpgas: int | None = None) -> list[Case]:
    """Import the compiler, build the inputs, and compile once.

    The inputs are the 12 cases, or the four at ``fpgas`` FPGAs.  The
    first compile pays the solver's and checker's lazy imports, so it is
    set-up work, not part of the measured window.
    """
    cases = [Case(app, f) for app in APPS for f in FPGA_COUNTS if fpgas in (None, f)]
    Case("knn", 1).run()
    return cases


class Outcome:
    """Per-case CPU-time samples plus the first pass's outputs."""

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = {}
        self.reference: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, case: Case, elapsed: float, design, result) -> None:
        from repro.analyze.oracle import cross_check_design

        self.attempted += 1
        problems = design_errors(design)
        if not cross_check_design(design).ok:
            problems.append("analyzer/simulator cross-check failed")
        outputs = (wirelength(design), design.frequency_mhz, result.latency_ms)
        first = self.reference.setdefault(case.name, outputs)
        if outputs != first:
            problems.append(f"outputs {outputs} differ from first pass {first}")
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"cold_compile: {case.name}: {'; '.join(problems)}", file=sys.stderr)
            return
        self.seconds.setdefault(case.name, []).append(elapsed)


def run_window(cases: list[Case], seconds: float, tracer=None):
    """Compile round-robin for ``seconds`` (at least one full pass).

    With a ``tracer`` every case runs twice back to back, untraced then
    traced, so the tracing overhead is a paired difference.
    """
    plain, traced = Outcome(), Outcome()
    end = time.monotonic() + seconds
    i = 0
    while i < len(cases) or time.monotonic() < end:
        case = cases[i % len(cases)]
        i += 1
        for outcome, hooks in ((plain, None), (traced, tracer)):
            if outcome is traced and tracer is None:
                continue
            start = time.process_time()
            try:
                if hooks is None:
                    design, result = case.run()
                else:
                    with hooks.installed():
                        design, result = case.run()
                        hooks.after_compile(case.name, design)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                outcome.attempted += 1
                outcome.failed += 1
                print(f"cold_compile: {case.name}: {exc!r}", file=sys.stderr)
                continue
            outcome.record(case, time.process_time() - start, design, result)
    return plain, traced


def worker(spawned_at: float, fpgas: int | None, seconds: float, traced_run: bool) -> dict:
    """One worker's run: set-up time, samples and outputs per case, and
    with tracing the per-layer metrics."""
    import layers

    cases = set_up(fpgas)
    setup_s = time.monotonic() - spawned_at
    tracer = layers.CompileTracer() if traced_run else None
    plain, traced = run_window(cases, seconds, tracer)
    document = {
        "setup_s": setup_s,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "wrong": plain.wrong + traced.wrong,
        "cases": {
            name: {"cpu_s": samples, "outputs": plain.reference[name]}
            for name, samples in plain.seconds.items()
        },
    }
    if traced_run:
        metrics = Metrics()
        tracer.report(metrics)
        names = [c.name for c in cases]
        op_s = {n: median(plain.seconds[n]) for n in names}
        traced_s = {n: median(traced.seconds[n]) for n in names}
        metrics.add("trace.op_ms_geomean", geomean(list(op_s.values())) * 1e3, "ms")
        metrics.add("trace.overhead_pct",
                    (geomean([traced_s[n] / op_s[n] for n in names]) - 1) * 100, "%")
        # The stage layers run one after another inside a compile; the
        # ILP solves run inside them and are not counted again.
        covered = sum(metrics.values[key]["value"]
                      for key in layers.COMPILE_TIMES if key != "ilp.solve.s")
        metrics.add("trace.residual_ms", (sum(traced_s.values()) - covered) * 1e3, "ms")
        document["layers"] = metrics.values
    return document


def _spawn(root: Path, env: dict, value: int, fpgas: int | None, seconds: float,
           traced: bool) -> subprocess.Popen:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--spawned-at", repr(time.monotonic()), "--seconds", repr(seconds),
               "--trace", str(int(traced))]
    if fpgas is not None:
        command += ["--fpgas", str(fpgas)]
    return subprocess.Popen(command, cwd=root, env=dict(env, PYTHONHASHSEED=str(value)),
                            stdout=subprocess.PIPE, text=True)


def _collect(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cold_compile worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_shards(root: Path, env: dict, seed: int, seconds: float) -> list[dict]:
    """Shards :data:`WORKERS` at a time until ``seconds`` have passed
    and at least :data:`MIN_SHARDS` have started; their documents."""
    end = time.monotonic() + seconds
    running: list[subprocess.Popen] = []
    documents = []
    started = 0
    try:
        while True:
            while len(running) < WORKERS and (started < MIN_SHARDS or time.monotonic() < end):
                fpgas = FPGA_COUNTS[started % len(FPGA_COUNTS)]
                running.append(_spawn(root, env, hash_seed(seed, started), fpgas, 0, False))
                started += 1
            if not running:
                return documents
            for proc in [p for p in running if p.poll() is not None]:
                running.remove(proc)
                documents.append(_collect(proc))
            time.sleep(0.01)
    finally:
        for proc in running:
            proc.kill()
            proc.wait()


def run(root: Path, env: dict, seed: int, seconds: float, traced: bool,
        metrics: Metrics) -> tuple[int, int, int]:
    """One run of the workload: ``(attempted, failed, wrong)``."""
    if traced:
        proc = _spawn(root, env, hash_seed(seed), None, seconds, True)
        try:
            documents = [_collect(proc)]
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    else:
        documents = run_shards(root, env, seed, seconds)
    print("perfbench: cold_compile PYTHONHASHSEED="
          + ",".join(d["hash_seed"] for d in documents), flush=True)
    counts = tuple(sum(d[key] for d in documents) for key in ("attempted", "failed", "wrong"))
    if traced:
        for name, metric in documents[0]["layers"].items():
            metrics.add(name, metric["value"], metric["unit"])
        return counts

    # Each case weighs the same however many shards measured it.
    samples: dict[str, list] = {}
    for document in documents:
        for name, case in document["cases"].items():
            samples.setdefault(name, []).append(case)
    per_case = samples.values()
    metrics.add("setup_s", median([d["setup_s"] for d in documents]), "s")
    metrics.add("op_ms_geomean", geomean([
        geomean([c["cpu_s"][0] * 1e3 for c in cases]) for cases in per_case]), "ms")
    metrics.add("wirelength_geomean", geomean([
        geomean([c["outputs"][0] for c in cases]) for cases in per_case]), "bit-slot")
    metrics.add("design_latency_ms_geomean", geomean([
        geomean([c["outputs"][2] for c in cases]) for cases in per_case]), "sim_ms")
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="One cold_compile worker.")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fpgas", type=int, choices=FPGA_COUNTS)
    args = parser.parse_args(argv)
    document = worker(args.spawned_at, args.fpgas, args.seconds, bool(args.trace))
    document["hash_seed"] = os.environ.get("PYTHONHASHSEED")
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
