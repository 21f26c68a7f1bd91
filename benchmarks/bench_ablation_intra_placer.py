"""Ablation: intra-FPGA placers (refine / greedy vs bisect / direct ILP).

Runs every placer on each device of the four paper apps at F1-T/F2/F4
and scores it on the direct ILP's objective.  The solver-free placers'
table is a pure function of the inputs and is gated against its
committed baseline; the ILP placers' table moves with the hash seed and
is only reported.  Set REPRO_QUICK=1 to run the direct ILP only on
devices small enough to solve well inside its time limit.
"""

from repro.bench import experiments as ex
from repro.bench import print_table

from conftest import run_once


def test_ablation_intra_placer(benchmark):
    headers, rows = run_once(benchmark, ex.ablation_intra_placer)
    print_table(headers, rows, title="Ablation: solver-free intra-FPGA placers")
    assert rows, "experiment produced no rows"


def test_ablation_intra_placer_ilp(benchmark):
    headers, rows = run_once(benchmark, ex.ablation_intra_placer_ilp)
    print_table(headers, rows, title="Ablation: ILP intra-FPGA placers (not gated)")
    assert rows, "experiment produced no rows"
