"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import (  # noqa: E402
    MIN_BEYOND,
    Metrics,
    check_hit,
    design_errors,
    geomean,
    hash_seed,
    open_loop_schedule,
    percentile,
)


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 90) == 90.0  # ten samples lie beyond
        with pytest.raises(ValueError, match="need 10"):
            percentile(samples, 95)

    def test_p95_of_two_hundred(self):
        samples = [float(i) for i in range(200, 0, -1)]
        assert percentile(samples, 95) == 190.0
        assert len([s for s in samples if s > 190.0]) == MIN_BEYOND

    def test_median_has_no_tail_rule(self):
        assert percentile([3.0], 50) == 3.0

    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestGeomean:
    def test_value(self):
        assert geomean([1.0, 100.0]) == pytest.approx(10.0)
        assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("values", [[], [1.0, 0.0], [-1.0, 4.0]])
    def test_rejects_non_positive(self, values):
        with pytest.raises(ValueError):
            geomean(values)


class TestSchedule:
    def test_same_seed_same_requests(self):
        assert open_loop_schedule(7, 25, 10, 24) == open_loop_schedule(7, 25, 10, 24)

    def test_other_seed_other_requests(self):
        assert open_loop_schedule(7, 25, 10, 24) != open_loop_schedule(8, 25, 10, 24)

    def test_each_window_of_a_run_has_its_own_requests(self):
        parts = [open_loop_schedule(7, 10, 10, 24, part) for part in range(3)]
        assert parts[0] != parts[1] != parts[2] != parts[0]
        assert parts[1] == open_loop_schedule(7, 10, 10, 24, 1)

    def test_rate_and_window(self):
        sends = open_loop_schedule(3, 25, 10, 24)
        assert len(sends) == 250
        assert all(0 <= s.at_s < 25 for s in sends)
        assert [s.at_s for s in sends] == sorted(s.at_s for s in sends)
        assert {s.body for s in sends} <= set(range(24))


class TestChecks:
    DOC = {"design": {"frequency_mhz": 300.0, "assignment": {"a": 0}}, "floorplan_tier": "full"}

    def test_hit_equal_to_recorded(self):
        assert check_hit(json.loads(json.dumps(self.DOC)), self.DOC) is None

    def test_hit_with_wrong_summary(self):
        wrong = json.loads(json.dumps(self.DOC))
        wrong["design"]["assignment"]["a"] = 1
        assert "differs" in check_hit(wrong, self.DOC)

    @pytest.fixture(scope="class")
    def design(self):
        from repro.cluster.cluster import make_cluster
        from repro.core.compiler import compile_design
        from repro.serve.server import build_app_graph

        return compile_design(build_app_graph("knn"), make_cluster(1), flow="tapa")

    def test_clean_design(self, design):
        assert design_errors(design) == []

    def test_design_with_drc_error(self, design):
        from repro.check import Diagnostic, Severity

        broken = replace(design, diagnostics=[
            Diagnostic(rule="F001", severity=Severity.ERROR, location="t", message="forged")
        ])
        assert design_errors(broken) == ["DRC F001: forged"]

    def test_degraded_design(self, design):
        assert design_errors(replace(design, floorplan_tier="greedy")) == [
            "floorplan tier greedy"
        ]


def test_hash_seed_is_a_valid_pythonhashseed():
    assert hash_seed(0) == 0
    assert 0 <= hash_seed(2**40 + 3) < 2**32
    assert 0 <= hash_seed(2**32 - 1, 5) < 2**32


def test_hash_seeds_of_a_run_are_distinct():
    seeds = [hash_seed(7, index) for index in range(64)]
    assert len(set(seeds)) == len(seeds)
    assert hash_seed(7, 3) == hash_seed(7, 3)
    assert not set(seeds) & {hash_seed(8, index) for index in range(64)}


def test_metric_names_are_unique():
    metrics = Metrics()
    metrics.add("op_ms_geomean", 1.0, "ms")
    with pytest.raises(ValueError):
        metrics.add("op_ms_geomean", 2.0, "ms")
