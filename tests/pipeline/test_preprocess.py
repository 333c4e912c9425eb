"""End-to-end preprocessing pipeline tests."""

import math

import numpy as np
import pytest

from repro.experiments import figures
from repro.pipeline import preprocess
from repro.pipeline.cost import PreprocessCost
from repro.pipeline.preprocess import HotTilesPreprocessor
from repro.sparse import generators
from tests.core.test_partition import tiny_arch


@pytest.fixture(scope="module")
def matrix():
    return generators.community_blocks(128, 3000, 8, seed=6)


class TestPipeline:
    def test_run_produces_formats_and_partition(self, matrix):
        result = HotTilesPreprocessor(tiny_arch()).run(matrix)
        assert result.partition.chosen is not None
        assignment = result.partition.chosen.assignment
        if assignment.any():
            assert result.hot_format is not None
        if (~assignment).any():
            assert result.cold_format is not None

    def test_verify_spmm_matches_reference(self, matrix):
        result = HotTilesPreprocessor(tiny_arch()).run(matrix)
        rng = np.random.default_rng(7)
        din = rng.standard_normal((matrix.n_cols, 4)).astype(np.float32)
        np.testing.assert_allclose(
            result.verify_spmm(din), matrix.spmm(din), rtol=1e-4, atol=1e-4
        )

    def test_nnz_split_is_exact(self, matrix):
        result = HotTilesPreprocessor(tiny_arch()).run(matrix)
        hot_nnz = result.hot_format.nnz if result.hot_format else 0
        cold_nnz = result.cold_format.nnz if result.cold_format else 0
        assert hot_nnz + cold_nnz == matrix.nnz

    def test_cost_fields_populated(self, matrix):
        cost = HotTilesPreprocessor(tiny_arch()).run(matrix).cost
        assert cost.scan_s > 0
        assert cost.partition_s > 0
        assert cost.format_generation_s > 0
        assert cost.total_s == pytest.approx(
            cost.scan_s + cost.partition_s + cost.format_generation_s
        )

    def test_homogeneous_architecture(self, matrix):
        result = HotTilesPreprocessor(tiny_arch(n_hot=0)).run(matrix)
        assert result.hot_format is None
        assert result.cold_format.nnz == matrix.nnz

    def test_given_tiling_is_used_not_rebuilt(self, matrix, monkeypatch):
        arch = tiny_arch()
        fresh = HotTilesPreprocessor(arch).run(matrix)
        tiled = fresh.tiled

        def no_scan(*args, **kwargs):
            raise AssertionError("the given tiling should be used")

        monkeypatch.setattr(preprocess, "TiledMatrix", no_scan)
        again = HotTilesPreprocessor(arch).run(matrix, tiled=tiled)
        assert again.tiled is tiled
        assert np.array_equal(
            again.partition.chosen.assignment, fresh.partition.chosen.assignment
        )

    def test_given_tiling_must_match(self, matrix):
        from repro.sparse.tiling import TiledMatrix

        arch = tiny_arch()
        pre = HotTilesPreprocessor(arch)
        wrong_shape = TiledMatrix(matrix, arch.tile_height, arch.tile_width * 2)
        with pytest.raises(ValueError, match="tiles"):
            pre.run(matrix, tiled=wrong_shape)
        other = generators.community_blocks(128, 3000, 8, seed=7)
        with pytest.raises(ValueError, match="another matrix"):
            pre.run(matrix, tiled=TiledMatrix(other, arch.tile_height, arch.tile_width))


class TestHomogeneousBaseline:
    """The Fig. 18 baseline is timed on demand, never inside ``run()``."""

    def test_run_builds_only_the_emitted_formats(self, matrix, monkeypatch):
        calls = []
        real = preprocess.build_format
        monkeypatch.setattr(
            preprocess,
            "build_format",
            lambda tiled, subset, worker: calls.append(subset) or real(tiled, subset, worker),
        )
        result = HotTilesPreprocessor(tiny_arch()).run(matrix)
        assignment = result.partition.chosen.assignment
        assert len(calls) == int(assignment.any()) + int((~assignment).any())
        assert result.cost.homogeneous_format_s is None
        with pytest.raises(ValueError, match="baseline not timed"):
            result.cost.overhead_fraction

    @pytest.mark.parametrize("n_hot", [0, 2])
    def test_baseline_cost_times_the_baseline(self, matrix, n_hot):
        pre = HotTilesPreprocessor(tiny_arch(n_hot=n_hot))
        result = pre.run(matrix)
        cost = pre.baseline_cost(result)
        assert cost.homogeneous_format_s > 0
        assert (cost.scan_s, cost.partition_s, cost.format_generation_s) == (
            result.cost.scan_s,
            result.cost.partition_s,
            result.cost.format_generation_s,
        )
        assert 0 <= cost.overhead_fraction < 1

    def test_figure18_reports_positive_baseline(self, monkeypatch):
        costs = []
        real = HotTilesPreprocessor.baseline_cost
        monkeypatch.setattr(
            HotTilesPreprocessor,
            "baseline_cost",
            lambda self, result: costs.append(real(self, result)) or costs[-1],
        )
        result = figures.figure18(subset=["pap"])
        assert len(costs) == 1 and costs[0].homogeneous_format_s > 0
        (_m, fmt_share, overhead_share, slowdown), = result.rows
        assert 0 < fmt_share and 0 < overhead_share < 1
        assert math.isfinite(slowdown) and slowdown >= 1.0


class TestCostModel:
    def test_overhead_fraction_bounds(self):
        cost = PreprocessCost(1.0, 2.0, 3.0, 2.0)
        assert cost.total_s == pytest.approx(6.0)
        assert cost.hottiles_overhead_s == pytest.approx(4.0)
        assert 0 <= cost.overhead_fraction <= 1

    def test_slowdown(self):
        cost = PreprocessCost(1.0, 1.0, 2.0, 1.0)
        assert cost.slowdown_vs_homogeneous == pytest.approx(4.0)

    def test_zero_baseline(self):
        cost = PreprocessCost(1.0, 0.0, 0.0, 0.0)
        assert cost.slowdown_vs_homogeneous == float("inf")

    def test_baseline_defaults_to_untimed(self):
        cost = PreprocessCost(1.0, 1.0, 2.0)
        assert cost.homogeneous_format_s is None
        assert cost.total_s == pytest.approx(4.0)
        for prop in ("hottiles_overhead_s", "overhead_fraction", "slowdown_vs_homogeneous"):
            with pytest.raises(ValueError, match="baseline not timed"):
                getattr(cost, prop)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PreprocessCost(-1.0, 0.0, 0.0, 0.0)
