"""Command-line front end: factorize a CSV matrix, run benchmark presets,
reproduce the source-separation experiment, or run the verification suites.

Exit codes: 0 success, 1 usage/input error, 2 numerical failure,
3 verification failure. With identical flags, seeds and BLAS thread count all
file outputs are byte-identical except for timing columns and the
``bench --preset sim1`` plot ``sim1_objective_vs_time.svg``, whose x axis is
elapsed time.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

# bench, datagen and verify are imported by the commands that use them, so
# factorize does not pay for them.
from . import diagnostics, linalg, solvers
from .errors import (
    ContractViolationError,
    CsvFormatError,
    DegenerateColumnError,
    NmfError,
)
from .solvers import Algorithm, FactorPair, SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this toolkit reserves 2 for
    # numerical failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _algorithm(value: str) -> Algorithm:
    try:
        return Algorithm(value)
    except ValueError:
        choices = ", ".join(a.value for a in Algorithm)
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {value!r} (choose from {choices})"
        ) from None


def _seed(value: str) -> int:
    # numpy's generators refuse a negative seed; refuse it here, as a usage
    # error, before any work starts.
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a nonnegative integer, got {value!r}"
        )
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nmfkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize a CSV matrix")
    p.add_argument("input", help="matrix CSV ('rows,cols' header, then rows)")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--algo", type=_algorithm, default=Algorithm.INOM)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument(
        "--normalize",
        action="store_true",
        help="column-normalize the input matrix before solving",
    )
    p.add_argument("--out-w", default="W.csv")
    p.add_argument("--out-h", default="H.csv")
    p.add_argument("--trace", default=None, help="also write the iteration trace CSV")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("bench", help="run a benchmark preset")
    p.add_argument(
        "--preset",
        required=True,
        choices=("sim1", "sim2-dense", "sim2-sparse", "sim3"),
    )
    p.add_argument("--scale", type=float, help="size scale in (0, 1]")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out", default="bench-out", help="output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bss", help="source-separation reproduction")
    p.add_argument("--noise-var", type=float)
    p.add_argument("--sample-rate", type=float)
    p.add_argument("--algo", type=_algorithm, default=Algorithm.INOM)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out-dir", default="bss-out")
    p.set_defaults(func=cmd_bss)

    p = sub.add_parser("verify", help="run the invariant verification suites")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a synthetic matrix as CSV")
    p.add_argument("kind", choices=("dense", "sparse"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lo", type=float, default=100.0, help="dense: lower bound")
    p.add_argument("--hi", type=float, default=200.0, help="dense: upper bound")
    p.add_argument("--sparsity", type=float, default=0.7, help="sparse: zero fraction")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="V.csv")
    p.set_defaults(func=cmd_generate)

    return parser


def _given(**flags) -> dict:
    """The flags the user gave, as keyword arguments. A flag left out is
    None and is not passed on, so the library's default applies."""
    return {k: v for k, v in flags.items() if v is not None}


def cmd_factorize(args) -> int:
    V = linalg.read_matrix_csv(args.input)
    if args.normalize:
        # V is this command's own array, so it is divided in place: the same
        # bits as normalize_columns, without a second copy of V.
        try:
            V /= linalg.nonzero_column_norms(V)
        except DegenerateColumnError as exc:
            raise ContractViolationError(
                f"--normalize needs nonzero input columns; input {exc}"
            ) from None
    config = SolverConfig(
        algorithm=args.algo,
        rank=args.rank,
        **_given(tol=args.tol, max_iters=args.max_iters, seed=args.seed),
    )
    pair, trace = solvers.solve(V, config)
    linalg.write_matrix_csv(args.out_w, pair.W)
    linalg.write_matrix_csv(args.out_h, pair.H)
    if args.trace:
        trace.write_csv(args.trace)
    report = diagnostics.kkt_residual(V, pair.W, pair.H)
    print(f"algorithm: {config.algorithm.value}")
    print(f"iterations: {trace.iterations}")
    print(f"converged: {str(trace.converged).lower()}")
    print(f"stop_reason: {trace.stop_reason}")
    print(f"final_objective: {trace.final_objective!r}")
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench

    if args.preset == "sim1":
        result = bench.sim1_run(**_given(scale=args.scale, seed=args.seed))
        bench.sim1_write_outputs(args.out, result)
        for alg, trace in result.traces.items():
            print(
                f"sim1 {alg.value}: iters={trace.iterations} "
                f"converged={str(trace.converged).lower()} "
                f"final_objective={trace.final_objective!r}"
            )
        print(f"wrote sim1 outputs to {args.out}")
        return EXIT_OK

    given = _given(scale=args.scale, trials=args.trials, seed=args.seed)
    if args.preset in ("sim2-dense", "sim2-sparse"):
        kind = (
            bench.MatrixKind.DENSE_UNIFORM
            if args.preset == "sim2-dense"
            else bench.MatrixKind.SPARSE70
        )
        scenarios = [bench.sim2_scenario(kind, **given)]
    else:
        scenarios = bench.sim3_scenarios(**given)
    os.makedirs(args.out, exist_ok=True)

    results = bench.BenchResults()
    for scenario in scenarios:
        results.extend(bench.run_scenario(scenario))
    results.write_results_csv(os.path.join(args.out, "results.csv"))
    results.write_summary_csv(os.path.join(args.out, "summary.csv"))
    for row in results.summary_rows():
        print(
            f"{row['scenario']} {row['algorithm']} r={row['r']}: "
            f"mean_elapsed={row['mean_elapsed_s']:.4g}s "
            f"mean_iters={row['mean_iters']:.4g} "
            f"achieved={row['achieved_count']}/{row['trials']}"
        )
    if results.failures:
        first = results.failures[0]
        print(
            f"note: {len(results.failures)} cell(s) failed, first: "
            f"{first.scenario}/{first.algorithm.value}/r={first.r}: {first.error}",
            file=sys.stderr,
        )
    print(f"wrote results to {args.out}")
    return EXIT_OK


def match_sources(recovered: np.ndarray, sources: np.ndarray):
    """Greedy best-correlation assignment of recovered rows to true sources.

    Rows are scaled to unit norm first (harmless for Pearson correlation,
    which is scale-invariant, but it keeps the outputs comparable). A
    constant row or source correlates 0. Returns a list of (source_index,
    recovered_index, correlation), one per source, in descending correlation
    order of assignment.
    """
    scaled = np.array(recovered, dtype=float, order="C")
    sources = np.ascontiguousarray(sources, dtype=float)
    for i in range(scaled.shape[0]):
        norm = float(np.sqrt(np.sum(scaled[i] * scaled[i])))
        if norm > 0:
            scaled[i] /= norm
    # Every sum runs along a contiguous row, in numpy's pairwise order, so
    # each correlation has the bits of a sum over that one pair's samples.
    dr = scaled - scaled.mean(axis=1, keepdims=True)
    ds = sources - sources.mean(axis=1, keepdims=True)
    norms = np.outer(np.sqrt(np.sum(dr * dr, axis=1)), np.sqrt(np.sum(ds * ds, axis=1)))
    cross = np.sum(dr[:, None, :] * ds[None, :, :], axis=2)
    corr = np.divide(cross, norms, out=np.zeros_like(cross), where=norms != 0.0)
    matches = []
    free_rec = set(range(scaled.shape[0]))
    free_src = set(range(sources.shape[0]))
    while free_rec and free_src:
        best = max(
            ((i, j) for i in free_rec for j in free_src), key=lambda ij: corr[ij]
        )
        i, j = best
        matches.append((j, i, float(corr[i, j])))
        free_rec.remove(i)
        free_src.remove(j)
    return matches


def solve_bss(
    scenario: datagen.BssScenario, observed: np.ndarray, algorithm: Algorithm
):
    """The ``bss`` command's solve of ``observed``: rank = the number of
    sources, ``datagen.BSS_NUM_SOURCES``, a start seeded by ``scenario.seed``
    (W uniform on [100, 500) then column-normalized, H uniform on [200,
    400)), ``tol`` 1e-8 and at most 1000 iterations. Returns ``(pair,
    trace)`` from :func:`solvers.solve`.
    """
    from . import datagen

    rank = datagen.BSS_NUM_SOURCES
    rng = np.random.default_rng([scenario.seed, 1])
    W0 = linalg.normalize_columns(
        rng.uniform(100.0, 500.0, size=(datagen.BSS_NUM_SENSORS, rank))
    )
    H0 = rng.uniform(200.0, 400.0, size=(rank, scenario.num_samples))
    config = SolverConfig(algorithm=algorithm, rank=rank, tol=1e-8, max_iters=1000)
    return solvers.solve(observed, config, init=FactorPair(W0, H0))


def cmd_bss(args) -> int:
    from . import datagen

    scenario = datagen.BssScenario(
        **_given(
            noise_variance=args.noise_var,
            sample_rate_hz=args.sample_rate,
            seed=args.seed,
        )
    )
    sources, mixing, observed = datagen.generate_bss(scenario)
    pair, trace = solve_bss(scenario, observed, args.algo)

    os.makedirs(args.out_dir, exist_ok=True)
    linalg.write_matrix_csv(os.path.join(args.out_dir, "sources.csv"), sources)
    linalg.write_matrix_csv(os.path.join(args.out_dir, "mixing.csv"), mixing)
    linalg.write_matrix_csv(os.path.join(args.out_dir, "observed.csv"), observed)
    linalg.write_matrix_csv(os.path.join(args.out_dir, "recovered_w.csv"), pair.W)
    linalg.write_matrix_csv(os.path.join(args.out_dir, "recovered_h.csv"), pair.H)

    matches = match_sources(pair.H, sources)
    mean_corr = float(np.mean([c for _, _, c in matches]))
    lines = [
        f"algorithm: {args.algo.value}",
        f"noise_variance: {scenario.noise_variance!r}",
        f"sample_rate_hz: {scenario.sample_rate_hz!r}",
        f"aliasing_warning: {str(scenario.aliasing).lower()}",
        f"iterations: {trace.iterations}",
        f"converged: {str(trace.converged).lower()}",
        f"final_objective: {trace.final_objective!r}",
    ]
    for src, rec, corr in sorted(matches):
        lines.append(f"source_{src + 1}_matched_row: {rec + 1}")
        lines.append(f"source_{src + 1}_correlation: {corr!r}")
    lines.append(f"mean_correlation: {mean_corr!r}")
    report = "\n".join(lines) + "\n"
    with open(os.path.join(args.out_dir, "match_report.txt"), "w", encoding="ascii") as fh:
        fh.write(report)
    print(report, end="")
    return EXIT_OK


def cmd_generate(args) -> int:
    from . import datagen

    if args.kind == "dense":
        M = datagen.generate_dense_uniform(args.n, args.m, args.lo, args.hi, args.seed)
    else:
        M = datagen.generate_sparse(args.n, args.m, args.sparsity, args.seed)
    linalg.write_matrix_csv(args.out, M)
    print(f"wrote {args.n}x{args.m} {args.kind} matrix to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(quick=args.quick, **_given(seed=args.seed))
    failed = False
    for res in results:
        print(f"{res.name}: {res.checks} checks, {res.failures} failures")
        if not res.passed:
            failed = True
    if failed:
        first = next(r for r in results if not r.passed)
        print(f"first counterexample ({first.name}):", file=sys.stderr)
        print(first.counterexample, file=sys.stderr)
        return EXIT_VERIFY
    print("all suites passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (1) and --help (0)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CsvFormatError, OSError) as exc:
        print(f"nmfkit: input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ContractViolationError, MemoryError) as exc:
        print(f"nmfkit: invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NmfError as exc:
        print(f"nmfkit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
