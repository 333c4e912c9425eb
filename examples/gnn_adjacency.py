"""GNN workload: amortizing HotTiles preprocessing over training epochs.

The paper's headline application is Graph Neural Networks: SpMM with the
graph adjacency matrix is the backbone of GCN aggregation, executed once
per layer per epoch with K = 32 feature columns.  HotTiles' preprocessing
"can be incurred once during GNN training and not affect GNN inference
later on" (Sec. VI-B).

This example builds a social-network-like adjacency matrix, runs the full
preprocessing pipeline (scan -> model -> partition -> format generation),
verifies the generated accelerator formats compute the exact SpMM, and
shows after how many epochs the preprocessing pays for itself.

Run:  python examples/gnn_adjacency.py
"""

import numpy as np

from repro import spade_sextans
from repro.core.traits import WorkerKind
from repro.pipeline.preprocess import HotTilesPreprocessor
from repro.sim import simulate, simulate_homogeneous
from repro.sparse import generators

EPOCHS = 200
LAYERS = 2


def main() -> None:
    # A power-law graph: 16k nodes, ~12 edges per node, symmetrized so
    # message passing runs in both directions.
    graph = generators.rmat(scale=14, nnz=190_000, seed=21, symmetrize=True)
    print(f"GNN adjacency: {graph}")

    arch = spade_sextans(system_scale=4)
    pre = HotTilesPreprocessor(arch)
    result = pre.run(graph)
    chosen = result.partition.chosen

    print(
        f"partitioned into {result.hot_format.nnz if result.hot_format else 0} hot + "
        f"{result.cold_format.nnz if result.cold_format else 0} cold nonzeros "
        f"({chosen.label}, {chosen.mode.value})"
    )

    # Functional check: the two accelerator formats together compute the
    # exact aggregation (this is what the Merger module guarantees).
    features = np.random.default_rng(0).standard_normal(
        (graph.n_cols, arch.problem.k)
    ).astype(np.float32)
    merged = result.verify_spmm(features)
    reference = graph.spmm(features)
    max_err = float(np.max(np.abs(merged - reference)))
    print(f"aggregation check: max |merged - reference| = {max_err:.2e}")

    # Runtime: HotTiles vs the best homogeneous execution, per aggregation.
    tiled = result.tiled
    hottiles = simulate(arch, tiled, chosen.assignment, chosen.mode).time_s
    best_hom = min(
        simulate_homogeneous(arch, tiled, WorkerKind.HOT).time_s,
        simulate_homogeneous(arch, tiled, WorkerKind.COLD).time_s,
    )
    saved_per_spmm = best_hom - hottiles
    print(
        f"per-aggregation: HotTiles {hottiles * 1e3:.3f} ms vs best homogeneous "
        f"{best_hom * 1e3:.3f} ms (saves {saved_per_spmm * 1e3:.3f} ms)"
    )

    # Amortization: preprocessing is a one-time host cost.
    cost = pre.baseline_cost(result)
    overhead = cost.hottiles_overhead_s
    total_spmms = EPOCHS * LAYERS
    print(
        f"\npreprocessing: total {cost.total_s * 1e3:.1f} ms on the host, "
        f"of which HotTiles-specific overhead {overhead * 1e3:.1f} ms "
        f"({cost.overhead_fraction:.0%})"
    )
    if saved_per_spmm > 0:
        breakeven = int(np.ceil(overhead / saved_per_spmm))
        print(
            f"breakeven after {breakeven} aggregations; a {EPOCHS}-epoch, "
            f"{LAYERS}-layer training runs {total_spmms} aggregations and saves "
            f"{(total_spmms * saved_per_spmm - overhead) * 1e3:.1f} ms net"
        )
    else:
        print("HotTiles does not beat the best homogeneous run on this graph")


if __name__ == "__main__":
    main()
