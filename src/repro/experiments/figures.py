"""Reproduction functions: one per paper table/figure (see DESIGN.md Sec. 4).

Every function returns a structured result object with a ``render()``
method producing the rows/series the paper reports.  Absolute times are
not comparable to the paper's testbed (our matrices and simulator are
scaled stand-ins, DESIGN.md Sec. 2); the *shape* -- who wins, by roughly
what factor, where crossovers fall -- is the reproduction target, and
EXPERIMENTS.md records paper-vs-measured for each.

``subset`` parameters restrict the benchmark set (used by the tests);
benchmarks run the full sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.configs import piuma, spade_sextans, spade_sextans_iso_scale, spade_sextans_pcie
from repro.arch.heterogeneous import Architecture
from repro.core.partition import HotTilesPartitioner
from repro.experiments.executor import Cell, get_executor
from repro.experiments.matrices import TABLE_V, TABLE_VIII, load_matrix
from repro.experiments.reporting import format_assignment_map, format_table, geomean
from repro.experiments.runner import (
    COLD_ONLY,
    HOT_ONLY,
    HOTTILES,
    IUNAWARE,
    MatrixRun,
    calibrated,
    evaluate_heuristics,
)
from repro.core.baselines import iunaware_assignment
from repro.pipeline.preprocess import HotTilesPreprocessor
from repro.sim.utilization import UtilizationRow, utilization_row
from repro.sparse.tiling import TiledMatrix

__all__ = [
    "figure04",
    "figure05",
    "figure10_table06",
    "figure11",
    "figure12",
    "table07",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "table09",
    "figure17",
    "figure18",
]


def _shorts(subset: Optional[Sequence[str]], table: Dict[str, object]) -> List[str]:
    if subset is None:
        return list(table)
    unknown = [s for s in subset if s not in table]
    if unknown:
        raise ValueError(f"unknown benchmark(s) {unknown}; known: {sorted(table)}")
    return list(subset)


def _runs(
    arch: Architecture, shorts: Sequence[str], seed: int = 0
) -> Dict[str, MatrixRun]:
    """Evaluate one architecture over a benchmark set.

    Routed through the active executor: with ``--jobs`` the matrices run
    on a process pool, and with a cache configured repeated invocations
    are served from disk instead of re-simulated.
    """
    cells = [Cell(arch=arch, matrix=s, seed=seed) for s in shorts]
    return dict(zip(shorts, get_executor().run_cells(cells)))


# ----------------------------------------------------------------------
# Fig. 4: IUnaware vs homogeneous execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure04Result:
    """Per architecture and matrix: speedups over the worst homogeneous."""

    rows: List[Tuple[str, str, float, float, float]]  #: (arch, matrix, hot, cold, iunaware)

    def render(self) -> str:
        return format_table(
            ["arch", "matrix", "HotOnly", "ColdOnly", "IUnaware"],
            self.rows,
            title="Fig. 4 -- speedup over the worst homogeneous execution",
        )


def figure04(subset: Optional[Sequence[str]] = None, seed: int = 0) -> Figure04Result:
    """IUnaware never beats the best homogeneous by much -- and loses badly
    on SPADE-Sextans (the paper's motivation for IMH awareness)."""
    shorts = _shorts(subset, TABLE_V)
    rows: List[Tuple[str, str, float, float, float]] = []
    for arch in (spade_sextans(4), piuma()):
        for short, run in _runs(arch, shorts, seed).items():
            worst = run.worst_homogeneous_s
            rows.append(
                (
                    arch.name,
                    short,
                    run.speedup_over(HOT_ONLY, worst),
                    run.speedup_over(COLD_ONLY, worst),
                    run.speedup_over(IUNAWARE, worst),
                )
            )
    return Figure04Result(rows=rows)


# ----------------------------------------------------------------------
# Fig. 5: tile assignment maps for pap
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure05Result:
    """Hot/cold assignment grids for IUnaware and HotTiles."""

    density_grid: np.ndarray
    iunaware_hot_grid: np.ndarray
    hottiles_hot_grid: np.ndarray
    iunaware_hot_nnz_pct: float
    hottiles_hot_nnz_pct: float

    def render(self) -> str:
        return (
            f"Fig. 5 -- tile assignment for pap (# hot, . cold)\n"
            f"IUnaware (hot nnz {self.iunaware_hot_nnz_pct:.0f}%):\n"
            f"{format_assignment_map(self.density_grid, self.iunaware_hot_grid)}\n"
            f"HotTiles (hot nnz {self.hottiles_hot_nnz_pct:.0f}%):\n"
            f"{format_assignment_map(self.density_grid, self.hottiles_hot_grid)}"
        )


def figure05(short: str = "pap", seed: int = 0) -> Figure05Result:
    """HotTiles clusters hot tiles on the dense diagonal communities;
    IUnaware scatters them randomly (paper: 52% -> 72% hot nonzeros)."""
    arch = calibrated(spade_sextans(4))
    matrix = load_matrix(short)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    density = tiled.density_map()

    def hot_grid(assignment: np.ndarray) -> np.ndarray:
        grid = np.zeros_like(density, dtype=bool)
        stats = tiled.stats
        grid[stats.tile_row[assignment], stats.tile_col[assignment]] = True
        return grid

    nnz = tiled.stats.nnz
    iu = iunaware_assignment(tiled, arch, seed=seed)
    ht = HotTilesPartitioner(arch).partition(tiled).chosen
    return Figure05Result(
        density_grid=density,
        iunaware_hot_grid=hot_grid(iu.assignment),
        hottiles_hot_grid=hot_grid(ht.assignment),
        iunaware_hot_nnz_pct=100.0 * nnz[iu.assignment].sum() / nnz.sum(),
        hottiles_hot_nnz_pct=100.0 * ht.hot_nnz_fraction(tiled),
    )


# ----------------------------------------------------------------------
# Fig. 10 + Table VI / Fig. 11: main comparisons
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparisonResult:
    """Per-matrix strategy runtimes and speedups over worst homogeneous."""

    arch_name: str
    runtimes_ms: List[Tuple[str, float, float, float, float, float]]
    #: rows: (matrix, HotOnly, ColdOnly, BestHom, IUnaware, HotTiles) in ms
    avg_speedup_vs: Dict[str, float]
    #: HotTiles geomean speedup over each baseline

    def render(self) -> str:
        table = format_table(
            ["matrix", "HotOnly", "ColdOnly", "BestHom", "IUnaware", "HotTiles"],
            self.runtimes_ms,
            title=f"Runtime in ms for {self.arch_name} (Table VI shape)",
        )
        avgs = ", ".join(f"{k}: {v:.2f}x" for k, v in self.avg_speedup_vs.items())
        return f"{table}\nHotTiles average speedup -- {avgs}"


def _comparison(arch: Architecture, shorts: Sequence[str], seed: int) -> ComparisonResult:
    rows = []
    speedups: Dict[str, List[float]] = {k: [] for k in (HOT_ONLY, COLD_ONLY, "best-hom", IUNAWARE)}
    for short, run in _runs(arch, shorts, seed).items():
        ht = run.time(HOTTILES)
        rows.append(
            (
                short,
                run.time(HOT_ONLY) * 1e3,
                run.time(COLD_ONLY) * 1e3,
                run.best_homogeneous_s * 1e3,
                run.time(IUNAWARE) * 1e3,
                ht * 1e3,
            )
        )
        speedups[HOT_ONLY].append(run.time(HOT_ONLY) / ht)
        speedups[COLD_ONLY].append(run.time(COLD_ONLY) / ht)
        speedups["best-hom"].append(run.best_homogeneous_s / ht)
        speedups[IUNAWARE].append(run.time(IUNAWARE) / ht)
    return ComparisonResult(
        arch_name=arch.name,
        runtimes_ms=rows,
        avg_speedup_vs={k: geomean(v) for k, v in speedups.items()},
    )


def figure10_table06(
    subset: Optional[Sequence[str]] = None, seed: int = 0
) -> ComparisonResult:
    """SPADE-Sextans scale 4: HotTiles vs every baseline (paper: 8.7x /
    1.9x / 2.0x / 1.25x over HotOnly / ColdOnly / IUnaware / BestHom)."""
    return _comparison(spade_sextans(4), _shorts(subset, TABLE_V), seed)


def figure11(subset: Optional[Sequence[str]] = None, seed: int = 0) -> ComparisonResult:
    """PIUMA: same comparison (paper: 9.2x / 1.4x / 1.4x / 1.4x)."""
    return _comparison(piuma(), _shorts(subset, TABLE_V), seed)


# ----------------------------------------------------------------------
# Fig. 12: heuristics across system scales
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure12Result:
    """Per scale: heuristic/HotTiles speedups vs BestHomogeneous + BW."""

    rows: List[Tuple[int, str, float]]  #: (scale, strategy, geomean speedup)
    bandwidth_gbs: Dict[int, float]  #: avg homogeneous BW utilization per scale

    def render(self) -> str:
        table = format_table(
            ["scale", "strategy", "speedup vs BestHom"],
            self.rows,
            title="Fig. 12 -- heuristics across SPADE-Sextans system scales",
        )
        bw = ", ".join(f"scale {s}: {v:.0f} GB/s" for s, v in self.bandwidth_gbs.items())
        return f"{table}\nAvg homogeneous bandwidth utilization -- {bw}"


def figure12(
    scales: Sequence[int] = (1, 2, 4, 8),
    subset: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Figure12Result:
    """The four heuristics are complementary: MinTime Parallel wins at
    small scales, Serial/MinByte at bandwidth-saturated large scales, and
    HotTiles (which picks per matrix) beats each individual heuristic."""
    shorts = _shorts(subset, TABLE_V)
    rows: List[Tuple[int, str, float]] = []
    bandwidth: Dict[int, float] = {}
    for scale in scales:
        arch = spade_sextans(scale)
        runs = _runs(arch, shorts, seed)
        heuristic_times: Dict[str, List[float]] = {}
        best_hom: Dict[str, float] = {}
        bw_samples: List[float] = []
        for short, run in runs.items():
            best_hom[short] = run.best_homogeneous_s
            for strategy in (HOT_ONLY, COLD_ONLY):
                bw_samples.append(
                    run.outcomes[strategy].sim.bandwidth_utilization_bytes_per_sec / 1e9
                )
            for name, t in evaluate_heuristics(arch, load_matrix(short)).items():
                heuristic_times.setdefault(name, []).append(best_hom[short] / t)
        for name, speedups in heuristic_times.items():
            rows.append((scale, name, geomean(speedups)))
        bandwidth[scale] = float(np.mean(bw_samples))
    return Figure12Result(rows=rows, bandwidth_gbs=bandwidth)


# ----------------------------------------------------------------------
# Table VII: utilization statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table07Result:
    rows: Dict[int, List[UtilizationRow]]  #: per scale, one row per strategy

    def render(self) -> str:
        parts = []
        for scale, rows in self.rows.items():
            parts.append(
                format_table(
                    ["strategy", "BW (GB/s)", "lines/nnz", "cold GFLOP/s", "hot GFLOP/s"],
                    [
                        (
                            r.strategy,
                            r.bandwidth_gbs,
                            r.cache_lines_per_nnz,
                            r.cold_gflops,
                            r.hot_gflops,
                        )
                        for r in rows
                    ],
                    title=f"Table VII -- utilization, system scale {scale} (geomean)",
                )
            )
        return "\n\n".join(parts)


def table07(
    scales: Sequence[int] = (1, 4),
    subset: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Table07Result:
    """HotTiles raises bandwidth utilization at small scales and trades it
    for fewer memory accesses at large scales (paper Sec. VIII-A)."""
    shorts = _shorts(subset, TABLE_V)
    out: Dict[int, List[UtilizationRow]] = {}
    for scale in scales:
        runs = _runs(spade_sextans(scale), shorts, seed)
        nnzs = [runs[s].nnz for s in shorts]
        out[scale] = [
            utilization_row(
                strategy, [runs[s].outcomes[strategy].sim for s in shorts], nnzs
            )
            for strategy in (HOT_ONLY, COLD_ONLY, IUNAWARE, HOTTILES)
        ]
    return Table07Result(rows=out)


# ----------------------------------------------------------------------
# Fig. 13: heterogeneous scale 4 vs homogeneous scale 8
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure13Result:
    rows: List[Tuple[str, float, float]]  #: (matrix, vs HotOnly8, vs ColdOnly8)
    avg_vs_hot8: float
    avg_vs_cold8: float

    def render(self) -> str:
        table = format_table(
            ["matrix", "speedup vs HotOnly8", "speedup vs ColdOnly8"],
            self.rows,
            title="Fig. 13 -- HotTiles scale 4 vs doubled homogeneous scale 8",
        )
        return (
            f"{table}\naverage: {self.avg_vs_hot8:.2f}x vs HotOnly8, "
            f"{self.avg_vs_cold8:.2f}x vs ColdOnly8"
        )


def figure13(subset: Optional[Sequence[str]] = None, seed: int = 0) -> Figure13Result:
    """A heterogeneous machine beats homogeneous machines with twice the
    workers of either type (paper: 2.9x and 1.6x on average)."""
    shorts = _shorts(subset, TABLE_V)
    runs4 = _runs(spade_sextans(4), shorts, seed)
    runs8 = _runs(spade_sextans(8), shorts, seed)
    rows = []
    for short in shorts:
        ht4 = runs4[short].time(HOTTILES)
        rows.append(
            (
                short,
                runs8[short].time(HOT_ONLY) / ht4,
                runs8[short].time(COLD_ONLY) / ht4,
            )
        )
    return Figure13Result(
        rows=rows,
        avg_vs_hot8=geomean([r[1] for r in rows]),
        avg_vs_cold8=geomean([r[2] for r in rows]),
    )


# ----------------------------------------------------------------------
# Fig. 14: gSpMM arithmetic-intensity sweep (SPADE-Sextans+PCIe)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure14Result:
    rows: List[Tuple[int, float, float, float]]
    #: (ops_per_nnz, speedup vs HotOnly, speedup vs ColdOnly, hot nnz %)

    def render(self) -> str:
        return format_table(
            ["ops/nnz", "vs HotOnly", "vs ColdOnly", "hot nnz %"],
            self.rows,
            title="Fig. 14 -- gSpMM arithmetic intensities on SPADE-Sextans+PCIe",
        )


def figure14(
    ops_sweep: Sequence[int] = (1, 2, 4, 8, 16, 32),
    subset: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Figure14Result:
    """As arithmetic intensity grows, nonzeros migrate to the enhanced
    off-chip hot worker and the speedup over ColdOnly rises while the
    speedup over HotOnly falls (paper: 11.9x / 3.7x averages)."""
    shorts = _shorts(subset, TABLE_V)
    rows = []
    for ops in ops_sweep:
        arch = spade_sextans_pcie(4, ops_per_nnz=ops)
        runs = _runs(arch, shorts, seed)
        vs_hot = geomean([r.time(HOT_ONLY) / r.time(HOTTILES) for r in runs.values()])
        vs_cold = geomean([r.time(COLD_ONLY) / r.time(HOTTILES) for r in runs.values()])
        frac = float(
            np.mean([r.outcomes[HOTTILES].hot_nnz_fraction for r in runs.values()])
        )
        rows.append((ops, vs_hot, vs_cold, 100.0 * frac))
    return Figure14Result(rows=rows)


# ----------------------------------------------------------------------
# Fig. 15: higher-density matrix set
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure15Result:
    per_scale: Dict[int, ComparisonResult]

    def render(self) -> str:
        return "\n\n".join(
            f"Fig. 15 -- scale {s}\n{r.render()}" for s, r in self.per_scale.items()
        )


def figure15(
    scales: Sequence[int] = (1, 4),
    subset: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Figure15Result:
    """On denser matrices ColdOnly loses its edge: HotTiles still wins
    (paper averages: 1.5x / 3.8x / 1.4x over HotOnly/ColdOnly/IUnaware)."""
    shorts = _shorts(subset, TABLE_VIII)
    return Figure15Result(
        per_scale={s: _comparison(spade_sextans(s), shorts, seed) for s in scales}
    )


# ----------------------------------------------------------------------
# Fig. 16 + Table IX: iso-scale architecture exploration
# ----------------------------------------------------------------------
_ISO_SCALES: Tuple[Tuple[int, int], ...] = tuple((c, 8 - c) for c in range(9))


def _iso_name(cold_scale: int, hot_scale: int) -> str:
    return f"{cold_scale}-{hot_scale}"


@dataclass(frozen=True)
class Figure16Result:
    """Predicted and actual average speedup of each iso-scale arch vs 4-4."""

    rows: List[Tuple[str, float, float]]  #: (arch, predicted, actual)

    def render(self) -> str:
        return format_table(
            ["architecture", "predicted speedup vs 4-4", "actual speedup vs 4-4"],
            self.rows,
            title="Fig. 16 -- iso-scale exploration (average across matrices)",
        )

    @property
    def predicted_best(self) -> str:
        return max(self.rows, key=lambda r: r[1])[0]

    @property
    def actual_best(self) -> str:
        return max(self.rows, key=lambda r: r[2])[0]


@dataclass(frozen=True)
class Table09Result:
    """Per matrix: predicted vs actual best iso-scale architecture."""

    rows: List[Tuple[str, str, float, str, float, bool]]
    #: (matrix, pred best, speedup of pred, actual best, speedup of actual, correct?)

    def render(self) -> str:
        table = format_table(
            ["matrix", "pred. best", "speedup", "actual best", "speedup", "correct"],
            [(m, p, ps, a, as_, "Y" if ok else "N") for m, p, ps, a, as_, ok in self.rows],
            title="Table IX -- reconfigurable per-matrix architecture selection",
        )
        avg_pred = geomean([r[2] for r in self.rows])
        avg_oracle = geomean([r[4] for r in self.rows])
        hit = sum(1 for r in self.rows if r[5]) / len(self.rows)
        return (
            f"{table}\nAVG speedup: predicted {avg_pred:.2f}x, oracle {avg_oracle:.2f}x, "
            f"correct predictions {hit:.0%}"
        )


def _iso_scale_sweep(
    subset: Optional[Sequence[str]], seed: int
) -> Tuple[List[str], Dict[str, Dict[str, Tuple[float, float]]]]:
    """(predicted, actual) HotTiles runtime per iso-scale arch per matrix."""
    shorts = _shorts(subset, TABLE_V)
    # One flat fan-out over the full (architecture x matrix) grid -- the
    # widest parallel section of the reproduction (9 archs x 10 matrices).
    names = [_iso_name(c, h) for c, h in _ISO_SCALES]
    archs = [spade_sextans_iso_scale(c, h) for c, h in _ISO_SCALES]
    cells = [
        Cell(arch=arch, matrix=short, seed=seed) for arch in archs for short in shorts
    ]
    runs = iter(get_executor().run_cells(cells))
    data: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for name in names:
        data[name] = {}
        for short in shorts:
            out = next(runs).outcomes[HOTTILES]
            data[name][short] = (float(out.predicted_s), out.time_s)
    return shorts, data


def figure16(subset: Optional[Sequence[str]] = None, seed: int = 0) -> Figure16Result:
    """Predicted and actual performance trends agree; the architecture
    predicted best is also the actual best (paper: 3-5)."""
    shorts, data = _iso_scale_sweep(subset, seed)
    base = data[_iso_name(4, 4)]
    rows = []
    for name, per_matrix in data.items():
        pred = geomean([base[s][0] / per_matrix[s][0] for s in shorts])
        act = geomean([base[s][1] / per_matrix[s][1] for s in shorts])
        rows.append((name, pred, act))
    return Figure16Result(rows=rows)


def table09(subset: Optional[Sequence[str]] = None, seed: int = 0) -> Table09Result:
    """Per-matrix reconfiguration: HotTiles picks the true best iso-scale
    architecture for about half the matrices, biased toward hot workers
    because the model ignores cache reuse (paper: 50%, 1.23x vs 1.33x)."""
    shorts, data = _iso_scale_sweep(subset, seed)
    base = data[_iso_name(4, 4)]
    rows = []
    for short in shorts:
        pred_best = min(data, key=lambda name: data[name][short][0])
        actual_best = min(data, key=lambda name: data[name][short][1])
        rows.append(
            (
                short,
                pred_best,
                base[short][1] / data[pred_best][short][1],
                actual_best,
                base[short][1] / data[actual_best][short][1],
                pred_best == actual_best,
            )
        )
    return Table09Result(rows=rows)


# ----------------------------------------------------------------------
# Fig. 17: model prediction error
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure17Result:
    rows: List[Tuple[str, str, float, float, float]]
    #: (arch, matrix, err% HotOnly, err% ColdOnly, err% HotTiles)

    def render(self) -> str:
        table = format_table(
            ["arch", "matrix", "HotOnly err%", "ColdOnly err%", "HotTiles err%"],
            self.rows,
            title="Fig. 17 -- execution-time prediction error",
        )
        avgs = tuple(
            float(np.mean([r[i] for r in self.rows])) for i in (2, 3, 4)
        )
        return (
            f"{table}\naverage error: HotOnly {avgs[0]:.1f}%, "
            f"ColdOnly {avgs[1]:.1f}%, HotTiles {avgs[2]:.1f}%"
        )


def figure17(subset: Optional[Sequence[str]] = None, seed: int = 0) -> Figure17Result:
    """Prediction error is low overall; ColdOnly errs highest because the
    model ignores cache reuse (paper: 4.8% / 19.6% / 12.4% averages)."""
    shorts = _shorts(subset, TABLE_V)
    rows = []
    for arch in (spade_sextans(4), piuma()):
        for short, run in _runs(arch, shorts, seed).items():
            rows.append(
                (
                    arch.name,
                    short,
                    100.0 * run.outcomes[HOT_ONLY].prediction_error,
                    100.0 * run.outcomes[COLD_ONLY].prediction_error,
                    100.0 * run.outcomes[HOTTILES].prediction_error,
                )
            )
    return Figure17Result(rows=rows)


# ----------------------------------------------------------------------
# Fig. 18: preprocessing cost
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure18Result:
    rows: List[Tuple[str, float, float, float]]
    #: (matrix, format-gen share, hottiles-overhead share, slowdown vs hom.)
    avg_overhead_fraction: float

    def render(self) -> str:
        table = format_table(
            ["matrix", "format gen share", "HotTiles overhead share", "x homogeneous"],
            self.rows,
            title="Fig. 18 -- preprocessing cost breakdown (PIUMA host)",
        )
        return (
            f"{table}\naverage HotTiles overhead share: "
            f"{self.avg_overhead_fraction:.0%} (paper: ~73%)"
        )


def figure18(subset: Optional[Sequence[str]] = None) -> Figure18Result:
    """HotTiles preprocessing costs a few homogeneous format generations,
    a one-time cost amortized over SpMM iterations (paper Sec. VIII-C)."""
    shorts = _shorts(subset, TABLE_V)
    pre = HotTilesPreprocessor(piuma())
    rows = []
    fractions = []
    for short in shorts:
        cost = pre.baseline_cost(pre.run(load_matrix(short)))
        overhead = cost.overhead_fraction
        fractions.append(overhead)
        rows.append((short, 1.0 - overhead, overhead, cost.slowdown_vs_homogeneous))
    return Figure18Result(rows=rows, avg_overhead_fraction=float(np.mean(fractions)))
