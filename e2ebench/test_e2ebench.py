"""Tests of the benchmark itself: BENCHMARK.json and tiny smoke runs.

Run from the repository root::

    python3 -m pytest e2ebench -q

The smoke runs use ``--scale tiny`` (seconds-scale inputs) and go through
the same output checks as a full run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
from repro.experiments.matrices import ALL_MATRICES  # noqa: E402
from repro.service.protocol import PlanRequest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: The end-to-end metric names, in the order BENCHMARK.json lists them.
END_TO_END = [
    "setup_s", "peak_rss_mb", "cold_p50_ms", "cold_tail_ms", "cold_plans_per_s",
    "warm_p50_ms", "warm_tail_ms", "warm_req_per_s", "delta_p50_ms", "delta_tail_ms",
    "cell_p50_ms", "cells_per_s", "sim_speedup_geomean", "model_err_mean",
]


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=HERE / "run.py", timeout=300):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=timeout)
    return proc


def _result(proc):
    assert proc.stdout.strip(), proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "e2ebench/run.py"]
    assert spec["paths"] == ["e2ebench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m


def test_end_to_end_metrics(spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    assert list(metrics) == END_TO_END
    for m in metrics.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


def test_per_layer_metrics_match_the_layer_map(spec):
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert list(per_layer) == list(run.LAYER_MAP)
    for name, (unit, moves, workload) in run.LAYER_MAP.items():
        assert set(per_layer[name]) == {"name", "unit", "better"}
        assert per_layer[name]["unit"] == unit
        assert moves and workload


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 36, 48, 144):
        q = harness.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10 > n * (100 - q - 1) / 100


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(spec, workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0",
                "--scale", "tiny")
    result = _result(proc)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and value["value"] > 0


def test_smoke_traced(spec):
    proc = _run("--workload", "delta-stream", "--seed", "3", "--seconds", "0.2",
                "--trace", "1", "--scale", "tiny")
    result = _result(proc)
    assert proc.returncode == 0, proc.stderr
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert metrics["service.store_hit_ratio.cold"]["value"] == 0.0
    assert metrics["service.store_hit_ratio.warm"]["value"] == 1.0
    assert metrics["sim.simulate_calls"]["value"] == 5.0
    assert "per-layer metric" in proc.stdout


def test_failed_check_exits_nonzero(tmp_path):
    """A planner whose in-process predictions drift fails the output checks."""
    script = tmp_path / "perturbed.py"
    script.write_text(
        "import dataclasses, sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "from repro.core import partition as P\n"
        "original = P.HotTilesPartitioner.partition\n"
        "def drifted(self, tiled):\n"
        "    result = original(self, tiled)\n"
        "    chosen = dataclasses.replace(\n"
        "        result.chosen, predicted_time_s=result.chosen.predicted_time_s * 2)\n"
        "    return dataclasses.replace(result, chosen=chosen)\n"
        "P.HotTilesPartitioner.partition = drifted\n"
        "import run\n"
        "sys.exit(run.main(sys.argv[1:]))\n"
    )
    proc = _run("--workload", "experiment-cells", "--seed", "3", "--seconds", "0.2",
                "--scale", "tiny", script=script)
    result = _result(proc)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] > 0
    assert "FAILED: served plan" in proc.stderr
    assert "FAILED: lineage" in proc.stderr


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "plan-serve", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "e2ebench" / "run.py", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_cell_recipes_are_the_table_recipes():
    """At its original seed each cell recipe rebuilds the benchmark matrix exactly."""
    original_seeds = {"gea": 21, "pap": 12, "dgr": 14, "del": 13}
    assert set(harness.FULL.cell_recipes) == set(original_seeds)
    for short, recipe in harness.FULL.cell_recipes.items():
        ours = PlanRequest.from_dict(
            {"generator": dict(recipe, seed=original_seeds[short])}).resolve_matrix()
        theirs = ALL_MATRICES[short].builder()
        assert np.array_equal(ours.rows, theirs.rows), short
        assert np.array_equal(ours.cols, theirs.cols), short
        assert np.array_equal(ours.vals, theirs.vals), short
