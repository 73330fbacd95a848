"""Benchmark presets: run algorithms to a target objective, average over
seeded trials, and emit comparison tables.

Every row is one :func:`~nmfkit.solvers.solve` call, read off its trace.
Each (trial, rank) cell draws one seeded start and hands that same pair to
every algorithm as ``init``, so all of them begin at the same factors and
the same objective f0, and timing differences come from the iterations
alone. The table presets stop each solve at ``SolverConfig.target =
TARGET_FRACTION * f0``; the sim1 preset uses the relative-change tolerance.
From the seeded start every sim2/sim3 cell reaches 0.7 f0 in one iteration,
so those tables time one step, not a descent to a tight level (ROADMAP
item 3). The trace clock starts after data generation, input
normalization, initialization and the starting objective; step-size and
bound computations are part of each algorithm and are included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import linalg, solvers
from .datagen import derive_seed, generate_dense_uniform, generate_sparse
from .errors import ContractViolationError, NmfError
from .solvers import Algorithm, IterationTrace, SolverConfig

__all__ = [
    "MatrixKind",
    "BenchResults",
    "run_scenario",
    "sim1_run",
    "sim1_write_outputs",
    "sim2_scenario",
    "sim3_scenarios",
]

# Every algorithm, in the enum's order, which is the order of every output.
ALL_ALGORITHMS = tuple(Algorithm)


# The table presets stop each solve at this fraction of its cell's starting
# objective.
TARGET_FRACTION = 0.7


class MatrixKind(Enum):
    DENSE_UNIFORM = "dense-uniform"
    SPARSE70 = "sparse70"


@dataclass(frozen=True)
class BenchScenario:
    """Declarative description of one benchmark table."""

    name: str
    n: int
    m: int
    rank_values: tuple[int, ...]
    kind: MatrixKind = MatrixKind.DENSE_UNIFORM
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        linalg.require_count(self.n, "n", 1)
        linalg.require_count(self.m, "m", 1)
        linalg.require_count(self.trials, "trials", 1)
        linalg.require_count(self.seed, "seed", 0)
        if not self.rank_values:
            raise ContractViolationError(
                f"scenario {self.name!r} has no rank below min(n, m) = "
                f"{min(self.n, self.m)}"
            )
        for r in self.rank_values:
            linalg.require_count(r, "rank", 1)
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

    @classmethod
    def failed(
        cls, scenario: str, algorithm: Algorithm, r: int, trial: int, error: NmfError
    ) -> "TrialRow":
        """The row of a solve, or of its cell's start, that raised ``error``."""
        return cls(
            scenario, algorithm, r, trial, float("nan"), 0, False, float("nan"),
            error=str(error),
        )


# The columns of the summary table, one row per (scenario, algorithm, r)
# cell, in the order of BenchResults.summary_rows and summary.csv.
SUMMARY_COLUMNS = (
    "scenario", "algorithm", "r", "trials", "failed", "achieved_count",
    "mean_elapsed_s", "std_elapsed_s", "mean_iters", "std_iters",
    "mean_final_objective",
)


@dataclass
class BenchResults:
    rows: list[TrialRow] = field(default_factory=list)

    def extend(self, other: "BenchResults") -> None:
        self.rows.extend(other.rows)

    @property
    def failures(self) -> list[TrialRow]:
        return [r for r in self.rows if r.error is not None]

    def summary_rows(self):
        """Mean/std of time and iterations for each (scenario, algorithm, r)."""
        cells: dict[tuple[str, str, int], list[TrialRow]] = {}
        for row in self.rows:
            cells.setdefault((row.scenario, row.algorithm.value, row.r), []).append(row)
        out = []
        for (scen, alg, r), rows in sorted(cells.items()):
            good = [x for x in rows if x.error is None]
            stats = (np.nan,) * 5
            if good:
                elapsed = np.array([x.elapsed_s for x in good])
                iters = np.array([x.iters for x in good], dtype=float)
                objs = np.array([x.final_objective for x in good])
                stats = (elapsed.mean(), elapsed.std(), iters.mean(), iters.std(), objs.mean())
            achieved = sum(1 for x in good if x.achieved)
            values = (scen, alg, r, len(rows), len(rows) - len(good), achieved)
            out.append(dict(zip(SUMMARY_COLUMNS, values + tuple(map(float, stats)))))
        return out

    def write_results_csv(self, path) -> None:
        """One line per row. The last column, ``error``, is empty for a
        finished solve and holds a failed one's message, double-quoted with
        inner quotes doubled, since a message can hold commas."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(
                "scenario,algorithm,r,trial,elapsed_s,iters,achieved,final_objective,"
                "error\n"
            )
            for x in self.rows:
                error = "" if x.error is None else '"' + x.error.replace('"', '""') + '"'
                fh.write(
                    f"{x.scenario},{x.algorithm.value},{x.r},{x.trial},"
                    f"{x.elapsed_s!r},{x.iters},{str(x.achieved).lower()},"
                    f"{x.final_objective!r},{error}\n"
                )

    def write_summary_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(SUMMARY_COLUMNS) + "\n")
            for row in self.summary_rows():
                fh.write(
                    ",".join(
                        repr(row[c]) if isinstance(row[c], float) else str(row[c])
                        for c in SUMMARY_COLUMNS
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
    """Run every algorithm on every (trial, rank) cell of the scenario.

    Per trial, all algorithms share one data matrix. Per (trial, rank) cell,
    one seeded start is drawn and its objective f0 evaluated; every algorithm
    is then solved from that start to ``TARGET_FRACTION * f0``. A failing
    solve, or a cell whose start or trial matrix fails, is recorded with its
    error message and the scenario continues. Iteration counts are
    reproducible bit-for-bit for a fixed scenario seed and BLAS thread count;
    elapsed times of course are not.
    """
    results = BenchResults()

    def fail(trial, ranks, exc):
        results.rows.extend(
            TrialRow.failed(scenario.name, alg, r, trial, exc)
            for r in ranks
            for alg in ALL_ALGORITHMS
        )

    for trial in range(scenario.trials):
        try:
            V = _trial_matrix(scenario, trial)
        except NmfError as exc:
            fail(trial, scenario.rank_values, exc)
            continue
        for r in scenario.rank_values:
            try:
                start = solvers.initial_factors(V, r, derive_seed(scenario.seed, trial, 1, r))
                f0 = linalg.frobenius_residual(V, start.W, start.H)
                target = TARGET_FRACTION * f0
            except NmfError as exc:
                fail(trial, (r,), exc)
                continue
            for alg in ALL_ALGORITHMS:
                try:
                    config = SolverConfig(alg, rank=r, target=target)
                    _, trace = solvers.solve(V, config, init=start)
                    row = TrialRow.from_trace(scenario.name, alg, r, trial, trace)
                except NmfError as exc:
                    row = TrialRow.failed(scenario.name, alg, r, trial, exc)
                results.rows.append(row)
    return results


def _scaled(value: int, scale: float) -> int:
    linalg.require_real(scale, "scale")
    if not 0.0 < scale <= 1.0:
        raise ContractViolationError(f"scale must be in (0, 1], got {scale}")
    return max(1, int(round(value * scale)))


def sim2_scenario(
    kind: MatrixKind,
    scale: float = 0.05,
    trials: int = 3,
    seed: int = 0,
) -> BenchScenario:
    """Dense or sparse fixed-size table with a swept rank.

    At scale 1 this is the 10000 x 50000 matrix with ranks 500..5000 in steps
    of 500; every dimension and the rank grid shrink by ``scale``.
    """
    n = _scaled(10000, scale)
    m = _scaled(50000, scale)
    step_r = _scaled(500, scale)
    rank_values = tuple(r for r in range(step_r, 11 * step_r, step_r) if r < min(n, m))
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
    scale: float = 0.05, trials: int = 3, seed: int = 0
) -> list[BenchScenario]:
    """Growing-width tables: n and r fixed, m swept.

    At scale 1 the width runs 100000..1000000 in steps of 100000 with
    n = 1000 and r = 100.
    """
    n = _scaled(1000, scale)
    r = _scaled(100, scale)
    step_m = _scaled(100000, scale)
    return [
        BenchScenario(
            name=f"sim3-m{m}", n=n, m=m, rank_values=(r,), trials=trials, seed=seed
        )
        for m in range(step_m, 11 * step_m, step_m)
    ]


@dataclass
class Sim1Result:
    traces: dict[Algorithm, IterationTrace]
    results: BenchResults


def sim1_run(scale: float = 1.0, seed: int = 0) -> Sim1Result:
    """Convergence-comparison run: one shared 100 x 200 rank-1 instance,
    every algorithm solved from one shared seeded start to the default
    relative-change tolerance (1e-6, at most 5000 iterations), full traces
    kept.
    """
    n = _scaled(100, scale)
    m = _scaled(200, scale)
    V = linalg.normalize_columns(
        generate_dense_uniform(n, m, 100.0, 200.0, derive_seed(seed, 0, 0))
    )
    start = solvers.initial_factors(V, 1, derive_seed(seed, 0, 1, 1))
    traces: dict[Algorithm, IterationTrace] = {}
    results = BenchResults()
    for alg in ALL_ALGORITHMS:
        config = SolverConfig(alg, rank=1)
        _, trace = solvers.solve(V, config, init=start)
        traces[alg] = trace
        results.rows.append(TrialRow.from_trace("sim1", alg, 1, 0, trace))
    return Sim1Result(traces=traces, results=results)


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
