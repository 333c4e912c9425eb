"""Accelerator sparse-format tests: every format computes the same SpMM."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traits import SparseFormat, Traversal
from repro.pipeline.formats import TiledCoo, TiledCsr, UntiledCoo, UntiledCsr, build_format
from repro.sparse import generators
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.workers import piuma_mtp, piuma_stp, sextans, spade_pe


@pytest.fixture(scope="module")
def tiled():
    m = generators.rmat(scale=8, nnz=1500, seed=3)
    return TiledMatrix(m, 32, 32)


@pytest.fixture(scope="module")
def din(tiled):
    rng = np.random.default_rng(4)
    return rng.standard_normal((tiled.matrix.n_cols, 8)).astype(np.float32)


WORKERS = {
    "spade": (spade_pe(), UntiledCoo),
    "sextans": (sextans(4), TiledCoo),
    "mtp": (piuma_mtp(), UntiledCsr),
    "stp": (piuma_stp(), TiledCsr),
}


class TestFormatTypes:
    @pytest.mark.parametrize("name", WORKERS)
    def test_worker_maps_to_expected_format(self, tiled, name):
        worker, expected_type = WORKERS[name]
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), worker)
        assert isinstance(fmt, expected_type)
        assert fmt.nnz == tiled.matrix.nnz


class TestSpmmEquivalence:
    @pytest.mark.parametrize("name", WORKERS)
    def test_full_matrix_spmm(self, tiled, din, name):
        worker, _ = WORKERS[name]
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), worker)
        expected = tiled.matrix.spmm(din)
        np.testing.assert_allclose(fmt.spmm(din), expected, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("hot_name,cold_name", [("sextans", "spade"), ("stp", "mtp")])
    def test_partitioned_formats_merge_to_reference(self, tiled, din, hot_name, cold_name):
        """The Merger's contract: hot partial + cold partial == full SpMM."""
        rng = np.random.default_rng(9)
        assignment = rng.random(tiled.n_tiles) < 0.4
        hot_fmt = build_format(tiled, assignment, WORKERS[hot_name][0])
        cold_fmt = build_format(tiled, ~assignment, WORKERS[cold_name][0])
        merged = hot_fmt.spmm(din) + cold_fmt.spmm(din)
        np.testing.assert_allclose(
            merged, tiled.matrix.spmm(din), rtol=1e-4, atol=1e-4
        )

    def test_empty_subset(self, tiled, din):
        fmt = build_format(tiled, np.zeros(tiled.n_tiles, dtype=bool), spade_pe())
        assert fmt.nnz == 0
        assert np.array_equal(fmt.spmm(din), np.zeros((tiled.matrix.n_rows, 8)))


class TestDataItems:
    def test_coo_items(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), spade_pe())
        assert fmt.data_items == 3 * tiled.matrix.nnz

    def test_untiled_csr_items(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), piuma_mtp())
        assert fmt.data_items == tiled.matrix.n_rows + 2 * tiled.matrix.nnz

    def test_tiled_csr_items(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), piuma_stp())
        # Sum over tiles of (clipped tile height + 2 * tile nnz).
        heights = np.minimum(
            tiled.tile_height,
            tiled.matrix.n_rows - tiled.stats.tile_row * tiled.tile_height,
        )
        expected = int(heights.sum()) + 2 * tiled.matrix.nnz
        assert fmt.data_items == expected


class TestStructure:
    def test_untiled_coo_row_major(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), spade_pe())
        key = fmt.rows * tiled.matrix.n_cols + fmt.cols
        assert np.all(np.diff(key) > 0)

    def test_tiled_coo_offsets_consistent(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), sextans(4))
        assert fmt.tile_offsets[0] == 0
        assert fmt.tile_offsets[-1] == fmt.nnz
        assert np.all(np.diff(fmt.tile_offsets) > 0)  # empty tiles eliminated

    def test_untiled_csr_indptr(self, tiled):
        fmt = build_format(tiled, np.ones(tiled.n_tiles, dtype=bool), piuma_mtp())
        assert fmt.indptr.shape == (tiled.matrix.n_rows + 1,)
        assert fmt.indptr[-1] == fmt.nnz

    def test_subset_shape_check(self, tiled):
        with pytest.raises(ValueError, match="tile_subset"):
            build_format(tiled, np.ones(3, dtype=bool), spade_pe())


# ----------------------------------------------------------------------
# Differential check against the original per-tile implementation.


def reference_build_format(tiled, tile_subset, worker):
    """The per-tile ``build_format``: one ``arange`` per tile, an argsort
    for the row-ordered formats, one local indptr per tiled-CSR tile."""
    tile_subset = np.asarray(tile_subset, dtype=bool)
    tile_idx = np.flatnonzero(tile_subset)
    pieces = [np.arange(tiled.tile_offsets[i], tiled.tile_offsets[i + 1]) for i in tile_idx]
    nnz_idx = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    matrix = tiled.matrix

    if worker.traversal is Traversal.UNTILED_ROW_ORDERED:
        key = tiled.rows[nnz_idx] * np.int64(max(matrix.n_cols, 1)) + tiled.cols[nnz_idx]
        nnz_idx = nnz_idx[np.argsort(key, kind="stable")]
        rows = tiled.rows[nnz_idx]
        cols = tiled.cols[nnz_idx]
        vals = tiled.vals[nnz_idx]
        if worker.sparse_format is SparseFormat.COO_LIKE:
            return UntiledCoo(matrix.n_rows, matrix.n_cols, rows, cols, vals)
        counts = np.bincount(rows, minlength=matrix.n_rows)
        indptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return UntiledCsr(matrix.n_rows, matrix.n_cols, indptr, cols, vals)

    rows = tiled.rows[nnz_idx]
    cols = tiled.cols[nnz_idx]
    vals = tiled.vals[nnz_idx]
    sizes = tiled.tile_offsets[tile_idx + 1] - tiled.tile_offsets[tile_idx]
    offsets = np.zeros(tile_idx.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    tile_row = tiled.stats.tile_row[tile_idx]
    tile_col = tiled.stats.tile_col[tile_idx]
    if worker.sparse_format is SparseFormat.COO_LIKE:
        return TiledCoo(
            matrix.n_rows, matrix.n_cols, tile_row, tile_col, offsets, rows, cols, vals
        )

    th = tiled.tile_height
    indptr_chunks = []
    indptr_offsets = np.zeros(tile_idx.shape[0], dtype=np.int64)
    pos = 0
    for j in range(tile_idx.shape[0]):
        lo, hi = offsets[j], offsets[j + 1]
        base = int(tile_row[j]) * th
        height = min(th, matrix.n_rows - base)
        counts = np.bincount(rows[lo:hi] - base, minlength=height)
        local = np.zeros(height + 1, dtype=np.int64)
        np.cumsum(counts, out=local[1:])
        indptr_chunks.append(local)
        indptr_offsets[j] = pos
        pos += height + 1
    indptrs = (
        np.concatenate(indptr_chunks) if indptr_chunks else np.zeros(0, dtype=np.int64)
    )
    return TiledCsr(
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        tile_height=th,
        tile_row=tile_row,
        tile_col=tile_col,
        tile_indptr_offsets=indptr_offsets,
        indptrs=indptrs,
        tile_offsets=offsets,
        indices=cols,
        vals=vals,
    )


def assert_formats_identical(got, want):
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert a.shape == b.shape, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def assert_matches_reference(tiled, subset):
    for worker, _ in WORKERS.values():
        assert_formats_identical(
            build_format(tiled, subset, worker), reference_build_format(tiled, subset, worker)
        )


class TestMatchesPerTileReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_subsets(self, tiled, seed):
        subset = np.random.default_rng(seed).random(tiled.n_tiles) < 0.3 + 0.15 * seed
        assert_matches_reference(tiled, subset)

    @pytest.mark.parametrize("fill", [False, True])
    def test_no_tiles_and_all_tiles(self, tiled, fill):
        assert_matches_reference(tiled, np.full(tiled.n_tiles, fill))

    def test_clipped_last_row_panel(self):
        m = generators.uniform_random(70, 50, 900, seed=5, dtype=np.float64)
        clipped = TiledMatrix(m, 16, 12)
        assert m.n_rows % clipped.tile_height != 0
        subset = np.random.default_rng(1).random(clipped.n_tiles) < 0.5
        subset[-1] = True  # the last tile sits in the clipped panel
        assert_matches_reference(clipped, subset)

    def test_empty_matrix(self):
        empty = TiledMatrix(SparseMatrix.empty(9, 7), 4, 4)
        assert empty.n_tiles == 0
        assert_matches_reference(empty, np.zeros(0, dtype=bool))

    def test_single_nonzero_tiles(self):
        # One nonzero per tile, spread over every row panel.
        idx = np.arange(0, 40, 5)
        m = SparseMatrix(41, 41, idx, idx[::-1], np.arange(1.0, 9.0))
        single = TiledMatrix(m, 5, 5)
        assert np.all(single.stats.nnz == 1)
        for seed in range(3):
            subset = np.random.default_rng(seed).random(single.n_tiles) < 0.5
            assert_matches_reference(single, subset)


@st.composite
def tiled_and_mask(draw):
    n_rows = draw(st.integers(1, 30))
    n_cols = draw(st.integers(1, 30))
    cells = draw(st.sets(st.integers(0, n_rows * n_cols - 1), max_size=60))
    keys = np.array(sorted(cells), dtype=np.int64)
    vals = np.arange(1, keys.shape[0] + 1, dtype=np.float32)
    matrix = SparseMatrix(n_rows, n_cols, keys // n_cols, keys % n_cols, vals)
    tiled = TiledMatrix(matrix, draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    mask = draw(st.lists(st.booleans(), min_size=tiled.n_tiles, max_size=tiled.n_tiles))
    return tiled, np.array(mask, dtype=bool)


@settings(max_examples=60, deadline=None)
@given(case=tiled_and_mask())
def test_matches_reference_property(case):
    tiled, mask = case
    assert_matches_reference(tiled, mask)
