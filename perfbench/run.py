"""Benchmark of the TAPA-CS compiler and its compile service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_compile --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/NOTES.md``): ``cold_compile`` (the compiler
in-process, cache off) and ``warm_http`` (cache hits through a live
``repro serve --fleet 2`` with its journal on).  ``--trace 0`` prints
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints its
per-layer metrics, with layers the workload does not exercise reading 0.
The last line of standard output is the JSON result.

Every program process of a run uses a ``PYTHONHASHSEED`` derived from
``--seed``: the script re-executes itself with it before doing anything,
and the ``cold_compile`` workers get their own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_compile", "warm_http")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_env(workdir: Path) -> dict:
    """The environment of every program process: this checkout's
    sources, a private cache, and no inherited ``REPRO_*`` tuning."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    return env


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(ROOT / "src"))
    from common import Metrics, hash_seed, result_line

    seed_for_hash = str(hash_seed(args.seed))
    if os.environ.get("PYTHONHASHSEED") != seed_for_hash:
        env = dict(os.environ, PYTHONHASHSEED=seed_for_hash)
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    print(f"perfbench: {args.workload} seed={args.seed} PYTHONHASHSEED={seed_for_hash} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = dict(program_env(workdir), PYTHONHASHSEED=seed_for_hash)
    metrics = Metrics()
    try:
        if args.workload == "cold_compile":
            import cold

            attempted, failed, wrong = cold.run(
                ROOT, env, args.seed, args.seconds, bool(args.trace), metrics)
        else:
            import serving

            ledger = serving.run(ROOT, workdir, env, args.seed, args.seconds,
                                 bool(args.trace), metrics)
            attempted, failed, wrong = ledger.attempted, ledger.failed, ledger.wrong
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    if not args.trace:
        metrics.add("ok_frac", 1 - failed / attempted, "ratio")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        for name, unit in units.items():
            if name not in metrics.values:  # a layer this workload leaves idle
                metrics.add(name, 0, unit)
    emitted = {name: m["unit"] for name, m in metrics.values.items()}
    if emitted != units:
        print(f"perfbench: metrics {emitted} do not match BENCHMARK.json {units}",
              file=sys.stderr)
        return 3
    print(result_line(wrong == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
