"""Property tests: the dirty tile keys a delta reports are sound.

:func:`repro.streaming.apply.apply_delta_tiled` retiles from scratch and
derives the dirty set from the batch's delete hits and brand-new inserts;
:func:`repro.core.partition.repair_plan` re-costs only those tiles.  A
tile whose statistics changed but which is missing from the set would be
priced from a stale cache entry, so these properties pin the derivation
against the tilings themselves.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.apply import apply_delta_tiled
from repro.streaming.delta import DeltaBatch


def tile_table(tiled):
    """``{tile key: (nnz, uniq_rids, uniq_cids)}`` of the non-empty tiles."""
    s = tiled.stats
    keys = s.tile_row * max(tiled.n_panel_cols, 1) + s.tile_col
    return {
        int(k): (int(n), int(r), int(c))
        for k, n, r, c in zip(keys, s.nnz, s.uniq_rids, s.uniq_cids)
    }


def random_matrix(n_rows, n_cols, nnz, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    return SparseMatrix(n_rows, n_cols, rows, cols, rng.standard_normal(nnz))


def random_batch(matrix, n_new, n_over, n_del, n_miss, local, seed):
    """Fresh inserts, overwrites of live cells, delete hits and misses.

    ``local`` confines fresh inserts to one corner block of the matrix;
    otherwise they scatter over the whole shape.  Overwrites and deletes
    may name the same cell (delete, then re-insert).
    """
    rng = np.random.default_rng(seed)
    hi_r = max(matrix.n_rows // 4, 1) if local else matrix.n_rows
    hi_c = max(matrix.n_cols // 4, 1) if local else matrix.n_cols
    over = rng.integers(0, matrix.nnz, n_over) if matrix.nnz else []
    hits = rng.integers(0, matrix.nnz, n_del) if matrix.nnz else []
    ir = np.concatenate((rng.integers(0, hi_r, n_new), matrix.rows[over]))
    ic = np.concatenate((rng.integers(0, hi_c, n_new), matrix.cols[over]))
    dr = np.concatenate((matrix.rows[hits], rng.integers(0, matrix.n_rows, n_miss)))
    dc = np.concatenate((matrix.cols[hits], rng.integers(0, matrix.n_cols, n_miss)))
    return DeltaBatch(ir, ic, rng.standard_normal(ir.shape[0]), dr, dc)


def check_dirty_keys(tiled, delta):
    new, report = apply_delta_tiled(tiled, delta)
    dirty = set(report.dirty_tile_keys.tolist())
    assert report.dirty_tile_keys.tolist() == sorted(dirty)

    # 1. Every tile whose statistics changed, appeared or vanished is dirty.
    before, after = tile_table(tiled), tile_table(new)
    changed = {k for k in before.keys() | after.keys() if before.get(k) != after.get(k)}
    assert changed <= dirty

    # 2. Every dirty tile holds a delete hit or a brand-new insert, and
    # every such tile is dirty.
    th, tw, npc = tiled.tile_height, tiled.tile_width, max(tiled.n_panel_cols, 1)
    live = set(zip(tiled.matrix.rows.tolist(), tiled.matrix.cols.tolist()))
    deleted = set(zip(delta.delete_rows.tolist(), delta.delete_cols.tolist())) & live
    fresh = set(zip(delta.insert_rows.tolist(), delta.insert_cols.tolist()))
    fresh -= live - deleted
    assert dirty == {(r // th) * npc + c // tw for r, c in deleted | fresh}
    return new, report


@st.composite
def tilings(draw):
    n_rows = draw(st.integers(1, 96))
    n_cols = draw(st.integers(1, 96))
    nnz = draw(st.integers(0, 300))
    th = draw(st.sampled_from([1, 3, 8, 16]))
    tw = draw(st.sampled_from([1, 3, 8, 16]))
    matrix = random_matrix(n_rows, n_cols, nnz, draw(st.integers(0, 2**16)))
    return TiledMatrix(matrix, th, tw)


batches = st.fixed_dictionaries({
    "n_new": st.integers(0, 40),
    "n_over": st.integers(0, 20),
    "n_del": st.integers(0, 30),
    "n_miss": st.integers(0, 10),
    "local": st.booleans(),
    "seed": st.integers(0, 2**16),
})


@settings(max_examples=80, deadline=None)
@given(tiled=tilings(), batch=batches)
def test_dirty_keys_cover_every_changed_tile(tiled, batch):
    check_dirty_keys(tiled, random_batch(tiled.matrix, **batch))


# 1100 x 1100 with 4 x 4 tiles is a 275 x 275 grid: 75625 cells, past the
# 65536 that the tile sort's radix path covers.
WIDE = TiledMatrix(random_matrix(1100, 1100, 3000, seed=7), 4, 4)


@settings(max_examples=15, deadline=None)
@given(batch=batches)
def test_dirty_keys_on_wide_grid(batch):
    assert WIDE.n_panel_rows * WIDE.n_panel_cols > 1 << 16
    check_dirty_keys(WIDE, random_batch(WIDE.matrix, **batch))


@settings(max_examples=40, deadline=None)
@given(tiled=tilings(), n_over=st.integers(1, 30), seed=st.integers(0, 2**16))
def test_overwrite_only_batch_dirties_nothing(tiled, n_over, seed):
    if tiled.matrix.nnz == 0:
        return
    delta = random_batch(tiled.matrix, 0, n_over, 0, 0, local=False, seed=seed)
    new, report = check_dirty_keys(tiled, delta)
    assert report.n_dirty_tiles == 0
    assert report.n_inserted == report.n_deleted == 0
    assert tile_table(new) == tile_table(tiled)
