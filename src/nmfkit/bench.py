"""Benchmark presets: run algorithms to a target objective fraction, average
over seeded trials, and emit comparison tables.

Every cell is one :func:`~nmfkit.solvers.solve` call: the table presets set
``SolverConfig.target_fraction`` and the sim1 preset uses the relative-change
tolerance; each row is read off the solve's trace. Within a trial every
algorithm sees the same data matrix and the same starting factors, so initial
objectives match and timing differences come from the iterations alone. The
trace clock starts after data generation, input normalization,
initialization and the starting objective; step-size and bound computations
are part of each algorithm and are included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .datagen import generate_dense_uniform, generate_sparse
from .errors import ContractViolationError, NmfError
from .solvers import (
    Algorithm,
    FactorPair,
    IterationTrace,
    SolverConfig,
    solve,
)

__all__ = [
    "MatrixKind",
    "BenchResults",
    "run_scenario",
    "derive_seed",
    "sim1_run",
    "sim1_write_outputs",
    "sim2_scenario",
    "sim3_scenarios",
]

ALL_ALGORITHMS = (
    Algorithm.INOM,
    Algorithm.PARINOM,
    Algorithm.MU,
    Algorithm.FAST_HALS,
    Algorithm.ACC_PARINOM,
    Algorithm.ACC_MU,
)


class MatrixKind(Enum):
    DENSE_UNIFORM = "dense-uniform"
    SPARSE70 = "sparse70"


def derive_seed(*parts: int) -> int:
    """Collision-resistant integer seed derived from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class BenchScenario:
    """Declarative description of one benchmark table."""

    name: str
    n: int
    m: int
    rank_values: tuple[int, ...]
    kind: MatrixKind = MatrixKind.DENSE_UNIFORM
    algorithms: tuple[Algorithm, ...] = ALL_ALGORITHMS
    target_fraction: float = 0.7
    trials: int = 50
    seed: int = 0
    max_iters: int = 5000

    def __post_init__(self):
        if not 0.0 < self.target_fraction <= 1.0:
            raise ContractViolationError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )
        if self.trials < 1:
            raise ContractViolationError(f"trials must be >= 1, got {self.trials}")
        if any(r >= min(self.n, self.m) for r in self.rank_values):
            raise ContractViolationError(
                f"ranks {self.rank_values} must stay below min(n, m) = "
                f"{min(self.n, self.m)}"
            )


@dataclass(frozen=True)
class TrialRow:
    scenario: str
    algorithm: Algorithm
    r: int
    trial: int
    elapsed_s: float
    iters: int
    achieved: bool
    final_objective: float
    error: Optional[str] = None

    @classmethod
    def from_trace(
        cls, scenario: str, algorithm: Algorithm, r: int, trial: int, trace: IterationTrace
    ) -> "TrialRow":
        """The row of one finished solve; ``achieved`` is ``trace.converged``."""
        return cls(
            scenario,
            algorithm,
            r,
            trial,
            trace.records[-1].elapsed_s,
            trace.iterations,
            trace.converged,
            trace.final_objective,
        )


@dataclass
class BenchResults:
    rows: list[TrialRow] = field(default_factory=list)

    def extend(self, other: "BenchResults") -> None:
        self.rows.extend(other.rows)

    @property
    def failures(self) -> list[TrialRow]:
        return [r for r in self.rows if r.error is not None]

    def cell_rows(self, algorithm: Algorithm, r: int) -> list[TrialRow]:
        return [x for x in self.rows if x.algorithm is algorithm and x.r == r]

    def summary_rows(self):
        """Mean/std of time and iterations for each (scenario, algorithm, r)."""
        cells: dict[tuple[str, str, int], list[TrialRow]] = {}
        for row in self.rows:
            cells.setdefault((row.scenario, row.algorithm.value, row.r), []).append(row)
        out = []
        for (scen, alg, r), rows in sorted(cells.items()):
            good = [x for x in rows if x.error is None]
            elapsed = np.array([x.elapsed_s for x in good])
            iters = np.array([x.iters for x in good], dtype=float)
            objs = np.array([x.final_objective for x in good])
            out.append(
                {
                    "scenario": scen,
                    "algorithm": alg,
                    "r": r,
                    "trials": len(rows),
                    "failed": len(rows) - len(good),
                    "achieved_count": sum(1 for x in good if x.achieved),
                    "mean_elapsed_s": float(elapsed.mean()) if good else float("nan"),
                    "std_elapsed_s": float(elapsed.std()) if good else float("nan"),
                    "mean_iters": float(iters.mean()) if good else float("nan"),
                    "std_iters": float(iters.std()) if good else float("nan"),
                    "mean_final_objective": float(objs.mean()) if good else float("nan"),
                }
            )
        return out

    def write_results_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(
                "scenario,algorithm,r,trial,elapsed_s,iters,achieved,final_objective\n"
            )
            for x in self.rows:
                fh.write(
                    f"{x.scenario},{x.algorithm.value},{x.r},{x.trial},"
                    f"{x.elapsed_s!r},{x.iters},{str(x.achieved).lower()},"
                    f"{x.final_objective!r}\n"
                )

    def write_summary_csv(self, path) -> None:
        cols = [
            "scenario",
            "algorithm",
            "r",
            "trials",
            "failed",
            "achieved_count",
            "mean_elapsed_s",
            "std_elapsed_s",
            "mean_iters",
            "std_iters",
            "mean_final_objective",
        ]
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.summary_rows():
                fh.write(
                    ",".join(
                        repr(row[c]) if isinstance(row[c], float) else str(row[c])
                        for c in cols
                    )
                    + "\n"
                )


def _trial_matrix(scenario: BenchScenario, trial: int) -> np.ndarray:
    data_seed = derive_seed(scenario.seed, trial, 0)
    if scenario.kind is MatrixKind.DENSE_UNIFORM:
        V = generate_dense_uniform(scenario.n, scenario.m, 100.0, 200.0, data_seed)
    else:
        V = generate_sparse(scenario.n, scenario.m, 0.7, data_seed)
    return linalg.normalize_columns(V)


def run_scenario(scenario: BenchScenario) -> BenchResults:
    """Run every (algorithm, rank, trial) cell of the scenario.

    Per trial, all algorithms share one data matrix and (per rank) one seeded
    initialization. A failing cell is recorded with its error message and the
    scenario continues. Iteration counts are reproducible bit-for-bit for a
    fixed scenario seed and BLAS thread count; elapsed times of course are not.
    """
    results = BenchResults()
    for trial in range(scenario.trials):
        V = _trial_matrix(scenario, trial)
        for r in scenario.rank_values:
            init_seed = derive_seed(scenario.seed, trial, 1, r)
            for alg in scenario.algorithms:
                config = SolverConfig(
                    algorithm=alg,
                    rank=r,
                    max_iters=scenario.max_iters,
                    seed=init_seed,
                    target_fraction=scenario.target_fraction,
                )
                try:
                    _, trace = solve(V, config)
                    results.rows.append(
                        TrialRow.from_trace(scenario.name, alg, r, trial, trace)
                    )
                except NmfError as exc:
                    results.rows.append(
                        TrialRow(
                            scenario.name,
                            alg,
                            r,
                            trial,
                            float("nan"),
                            0,
                            False,
                            float("nan"),
                            error=str(exc),
                        )
                    )
    return results


def _scaled(value: int, scale: float) -> int:
    return max(1, int(round(value * scale)))


def sim2_scenario(
    kind: MatrixKind,
    scale: float = 0.05,
    trials: int = 3,
    seed: int = 0,
    rank_values: Optional[Sequence[int]] = None,
) -> BenchScenario:
    """Dense or sparse fixed-size table with a swept rank.

    At scale 1 this is the 10000 x 50000 matrix with ranks 500..5000 in steps
    of 500; every dimension and the rank grid shrink by ``scale``.
    """
    n = _scaled(10000, scale)
    m = _scaled(50000, scale)
    if rank_values is None:
        step_r = _scaled(500, scale)
        rank_values = tuple(step_r * i for i in range(1, 11))
    rank_values = tuple(r for r in rank_values if r < min(n, m))
    name = "sim2-dense" if kind is MatrixKind.DENSE_UNIFORM else "sim2-sparse"
    return BenchScenario(
        name=name,
        n=n,
        m=m,
        rank_values=rank_values,
        kind=kind,
        trials=trials,
        seed=seed,
    )


def sim3_scenarios(
    kind: MatrixKind = MatrixKind.DENSE_UNIFORM,
    scale: float = 0.05,
    trials: int = 3,
    seed: int = 0,
    m_values: Optional[Sequence[int]] = None,
) -> list[BenchScenario]:
    """Growing-width tables: n and r fixed, m swept.

    At scale 1 the width runs 100000..1000000 in steps of 100000 with
    n = 1000 and r = 100.
    """
    n = _scaled(1000, scale)
    r = _scaled(100, scale)
    if m_values is None:
        step_m = _scaled(100000, scale)
        m_values = tuple(step_m * i for i in range(1, 11))
    out = []
    for m in m_values:
        out.append(
            BenchScenario(
                name=f"sim3-m{m}",
                n=n,
                m=m,
                rank_values=(r,),
                kind=kind,
                trials=trials,
                seed=seed,
            )
        )
    return out


@dataclass
class Sim1Result:
    traces: dict[Algorithm, IterationTrace]
    pairs: dict[Algorithm, FactorPair]
    results: BenchResults


def sim1_run(
    scale: float = 1.0,
    seed: int = 0,
    tol: float = 1e-6,
    max_iters: int = 5000,
    algorithms: tuple[Algorithm, ...] = ALL_ALGORITHMS,
) -> Sim1Result:
    """Convergence-comparison run: one shared 100 x 200 rank-1 instance,
    every algorithm solved to the relative-change tolerance, full traces kept.
    """
    n = _scaled(100, scale)
    m = _scaled(200, scale)
    V = linalg.normalize_columns(
        generate_dense_uniform(n, m, 100.0, 200.0, derive_seed(seed, 0, 0))
    )
    init_seed = derive_seed(seed, 0, 1, 1)
    traces: dict[Algorithm, IterationTrace] = {}
    pairs: dict[Algorithm, FactorPair] = {}
    results = BenchResults()
    for alg in algorithms:
        config = SolverConfig(
            algorithm=alg, rank=1, tol=tol, max_iters=max_iters, seed=init_seed
        )
        pair, trace = solve(V, config)
        traces[alg] = trace
        pairs[alg] = pair
        results.rows.append(TrialRow.from_trace("sim1", alg, 1, 0, trace))
    return Sim1Result(traces=traces, pairs=pairs, results=results)


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def write_objective_svg(path, curves: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
    """Minimal SVG line plot of objective (log10) against elapsed seconds.

    ``curves`` maps a label to ``(times, objectives)``. The plot is emitted
    directly as text so no plotting runtime is needed; CSV stays the
    authoritative output.
    """
    width, height, margin = 720, 480, 60
    xs_all = np.concatenate([c[0] for c in curves.values()])
    ys_all = np.concatenate([c[1] for c in curves.values()])
    ys_all = np.log10(np.maximum(ys_all, 1e-300))
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">elapsed seconds</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">log10 objective</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" '
            f'text-anchor="middle" font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-size="11">{yv:.3g}</text>'
        )
    for i, (label, (xs, ys)) in enumerate(curves.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        ys = np.log10(np.maximum(np.asarray(ys, dtype=float), 1e-300))
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 150}" y="{margin + 16 * i}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def sim1_write_outputs(out_dir, result: Sim1Result) -> None:
    """Emit the convergence-run artifacts: per-iteration trace CSV, the
    objective-vs-time SVG, and the results/summary tables."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "sim1_traces.csv")
    with open(trace_path, "w", encoding="ascii") as fh:
        fh.write("algorithm,iter,objective,elapsed_s\n")
        for alg, trace in result.traces.items():
            for rec in trace.records:
                fh.write(
                    f"{alg.value},{rec.iteration},{rec.objective!r},{rec.elapsed_s!r}\n"
                )
    curves = {
        alg.value: (trace.elapsed, trace.objectives)
        for alg, trace in result.traces.items()
    }
    write_objective_svg(os.path.join(out_dir, "sim1_objective_vs_time.svg"), curves)
    result.results.write_results_csv(os.path.join(out_dir, "sim1_results.csv"))
    result.results.write_summary_csv(os.path.join(out_dir, "sim1_summary.csv"))
