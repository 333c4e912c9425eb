"""Application of a :class:`DeltaBatch` to a matrix and its tiling.

:func:`apply_delta_matrix` merges the (already sorted) batch into the
(already sorted) canonical COO arrays with ``searchsorted`` +
``np.insert`` -- ``O(nnz + |delta| log nnz)``, no argsort -- and the
result is **bit-identical** (every array, dtype and digest) to
constructing ``SparseMatrix`` from scratch on the mutated coordinates;
``tests/streaming/`` and the ``delta-replay`` experiment enforce this.
:func:`apply_delta_tiled` retiles the result with the ordinary
:class:`TiledMatrix` constructor (a linear radix tile sort on grids of up
to 65536 cells) and reports which tiles went *structurally dirty*
(nonzero added or removed; value-only overwrites keep a tile clean), the
set :func:`repro.core.partition.repair_plan` re-costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.delta import DeltaBatch

__all__ = ["DeltaApplyReport", "apply_delta_matrix", "apply_delta_tiled"]


@dataclass(frozen=True)
class _MergeInfo:
    """Which nonzeros a delta structurally added and removed.

    Internal to the streaming package: :func:`apply_delta_tiled` derives
    the dirty tiles from it.
    """

    #: coordinates of the brand-new nonzeros (sorted by canonical key)
    ins_rows: np.ndarray
    ins_cols: np.ndarray
    #: coordinates of the nonzeros actually removed (delete hits only)
    del_rows: np.ndarray
    del_cols: np.ndarray
    #: number of in-place value overwrites (structurally clean)
    n_overwrites: int


@dataclass(frozen=True)
class DeltaApplyReport:
    """What one batch did to a tiling, for lineage counters and repair."""

    n_inserted: int  #: brand-new nonzeros added
    n_overwritten: int  #: existing nonzeros whose value changed
    n_deleted: int  #: nonzeros removed (delete misses excluded)
    #: sorted tile keys (``tile_row * n_panel_cols + tile_col``) of tiles
    #: whose *structure* changed; value-only overwrites stay clean
    dirty_tile_keys: np.ndarray
    tiles_before: int
    tiles_after: int

    @property
    def n_dirty_tiles(self) -> int:
        return int(self.dirty_tile_keys.shape[0])


def apply_delta_matrix(
    matrix: SparseMatrix, delta: DeltaBatch
) -> Tuple[SparseMatrix, _MergeInfo]:
    """Apply ``delta`` to ``matrix``; return the new matrix and merge map.

    Deletes apply first (absent cells are silent no-ops), then inserts
    (upsert: overwrite if the cell survived, new nonzero otherwise).  The
    result is built through :meth:`SparseMatrix._from_canonical` with an
    incrementally patched CSR ``indptr``; an empty batch returns ``matrix``
    itself, digest unchanged.
    """
    delta.validate_against(matrix.n_rows, matrix.n_cols)
    z = np.zeros(0, dtype=np.int64)
    if delta.is_empty:
        return matrix, _MergeInfo(z, z, z, z, n_overwrites=0)

    n_cols = np.int64(max(matrix.n_cols, 1))
    old_keys = matrix.rows * n_cols + matrix.cols  # strictly increasing

    # --- deletes: mark hits among the existing nonzeros ----------------
    keep = np.ones(matrix.nnz, dtype=bool)
    if delta.n_deletes:
        del_keys = delta.delete_rows * n_cols + delta.delete_cols
        pos = np.searchsorted(old_keys, del_keys)
        in_range = pos < matrix.nnz
        hit = np.zeros(delta.n_deletes, dtype=bool)
        hit[in_range] = old_keys[pos[in_range]] == del_keys[in_range]
        keep[pos[hit]] = False
        del_rows = delta.delete_rows[hit]
        del_cols = delta.delete_cols[hit]
    else:
        del_rows = del_cols = z

    kept_keys = old_keys[keep]
    kept_rows = matrix.rows[keep]
    kept_cols = matrix.cols[keep]
    kept_vals = matrix.vals[keep]  # fancy indexing already copies

    # --- inserts: split into overwrites and brand-new nonzeros ---------
    if delta.n_inserts:
        ins_keys = delta.insert_rows * n_cols + delta.insert_cols
        pos_k = np.searchsorted(kept_keys, ins_keys)
        in_range = pos_k < kept_keys.shape[0]
        over = np.zeros(delta.n_inserts, dtype=bool)
        over[in_range] = kept_keys[pos_k[in_range]] == ins_keys[in_range]
        kept_vals[pos_k[over]] = delta.insert_vals[over]  # casts to dtype
        new = ~over
        ins_rows = delta.insert_rows[new]
        ins_cols = delta.insert_cols[new]
        ins_vals = delta.insert_vals[new].astype(matrix.dtype)
        insert_at = pos_k[new]  # non-decreasing: keys are sorted
        n_overwrites = int(over.sum())
    else:
        ins_rows = ins_cols = insert_at = z
        ins_vals = np.zeros(0, dtype=matrix.dtype)
        n_overwrites = 0

    new_rows = np.insert(kept_rows, insert_at, ins_rows)
    new_cols = np.insert(kept_cols, insert_at, ins_cols)
    new_vals = np.insert(kept_vals, insert_at, ins_vals)

    # CSR indptr patched by per-row net change instead of a fresh bincount
    # over all nonzeros.
    row_delta = np.bincount(ins_rows, minlength=matrix.n_rows).astype(np.int64)
    row_delta -= np.bincount(del_rows, minlength=matrix.n_rows).astype(np.int64)
    new_indptr = matrix.indptr() + np.concatenate(
        ([0], np.cumsum(row_delta))
    ).astype(np.int64)

    result = SparseMatrix._from_canonical(
        matrix.n_rows, matrix.n_cols, new_rows, new_cols, new_vals, indptr=new_indptr
    )
    info = _MergeInfo(
        ins_rows=ins_rows,
        ins_cols=ins_cols,
        del_rows=del_rows,
        del_cols=del_cols,
        n_overwrites=n_overwrites,
    )
    return result, info


def apply_delta_tiled(
    tiled: TiledMatrix, delta: DeltaBatch
) -> Tuple[TiledMatrix, DeltaApplyReport]:
    """Apply ``delta`` to a tiling; return the new tiling and report.

    The matrix is merged by :func:`apply_delta_matrix` and retiled from
    scratch with the same tile shape.  The dirty tiles are those holding
    an actual delete or a brand-new insert.  An empty batch returns
    ``tiled`` itself.
    """
    if delta.is_empty:
        return tiled, DeltaApplyReport(
            n_inserted=0, n_overwritten=0, n_deleted=0,
            dirty_tile_keys=np.zeros(0, dtype=np.int64),
            tiles_before=tiled.n_tiles, tiles_after=tiled.n_tiles,
        )

    new_matrix, info = apply_delta_matrix(tiled.matrix, delta)
    th, tw = tiled.tile_height, tiled.tile_width
    npc = np.int64(max(tiled.n_panel_cols, 1))
    dirty_keys = np.union1d(
        (info.del_rows // th) * npc + info.del_cols // tw,
        (info.ins_rows // th) * npc + info.ins_cols // tw,
    ).astype(np.int64)
    new_tiled = TiledMatrix(new_matrix, th, tw)
    return new_tiled, DeltaApplyReport(
        n_inserted=int(info.ins_rows.shape[0]),
        n_overwritten=info.n_overwrites,
        n_deleted=int(info.del_rows.shape[0]),
        dirty_tile_keys=dirty_keys,
        tiles_before=tiled.n_tiles,
        tiles_after=new_tiled.n_tiles,
    )
