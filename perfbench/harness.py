"""Time-to-tolerance benchmark for nmfkit, one workload per invocation.

Start it through ``run.py``, which pins the BLAS thread count and glibc's
malloc thresholds first. This
module is the single benchmark process: one closed-loop client that runs
one job at a time. A pass takes one seeded instance and runs all six
algorithms on it from the same seeded start; passes repeat until
``--seconds`` have been measured. With ``--trace 0`` it prints the
end-to-end metrics. With ``--trace 1`` every pass runs each job untraced
and then traced, checks that tracing left the result bitwise unchanged,
and prints the per-layer metrics derived from the recorded spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every job passed its correctness gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from nmfkit import cli, datagen, diagnostics, linalg, solvers, squarem
from nmfkit.solvers import (
    Algorithm,
    FactorPair,
    IterationTrace,
    SolverConfig,
    TraceRecord,
)
from tracing import Hook, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

ALGORITHMS = [a.value for a in Algorithm]
MAX_ITERS = 3000
# Every run completes this many passes whatever --seconds says; iteration
# counts and the final-objective geomean come from these passes only, so
# they repeat exactly for a seed however many passes the clock allows.
MIN_PASSES = 2
SETUP_REPEATS = 3
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, nmfkit.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    rank: int
    tol: float
    via_cli: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-r20", 150, 750, 20, 1e-4, via_cli=False),
        Workload("solve-r60", 150, 750, 60, 1e-3, via_cli=False),
        Workload("factorize-csv", 600, 600, 10, 1e-3, via_cli=True),
    )
}


class GateError(Exception):
    """A job finished but its output broke the correctness contract."""


# ---------------------------------------------------------------- inputs


def import_seconds() -> float:
    """Median time to import numpy and nmfkit, each in a fresh interpreter."""
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPEATS)
    )


def instance_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def set_up(w: Workload, seed: int, workdir: Path):
    """Make instance ``seed``: a uniform [100, 200) matrix, column-normalized
    for the solve workloads, or written as CSV for the CLI workload (which
    normalizes inside the job, through ``--normalize``)."""
    V = datagen.generate_dense_uniform(w.n, w.m, 100.0, 200.0, seed)
    if not w.via_cli:
        return linalg.normalize_columns(V), None
    csv = workdir / "V.csv"
    # Fresh files only: ext4 starts writeback when a file that was truncated
    # and written again is closed. The job outputs are deleted after each job
    # for the same reason.
    csv.unlink(missing_ok=True)
    linalg.write_matrix_csv(csv, V)
    return V, csv


# ------------------------------------------------------------------ jobs


def _read_back(path: Path, shape) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
    if header != f"{shape[0]},{shape[1]}":
        raise GateError(f"{path.name} header {header!r}, expected shape {shape}")
    M = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if M.shape != tuple(shape):
        raise GateError(f"{path.name} holds shape {M.shape}, expected {shape}")
    return M


def run_job(w: Workload, V, csv, start_seed: int, alg: str, workdir: Path):
    """One timed job; returns (wall seconds, output to gate)."""
    if not w.via_cli:
        config = SolverConfig(
            Algorithm(alg), w.rank, tol=w.tol, max_iters=MAX_ITERS, seed=start_seed
        )
        t0 = time.perf_counter()
        pair, trace = solvers.solve(V, config)
        return time.perf_counter() - t0, (pair, trace)

    out_w, out_h, out_t = (workdir / f"{x}.csv" for x in ("W", "H", "trace"))
    argv = [
        "factorize", str(csv), "--rank", str(w.rank), "--algo", alg,
        "--normalize", "--tol", repr(w.tol), "--max-iters", str(MAX_ITERS),
        "--seed", str(start_seed), "--out-w", str(out_w), "--out-h", str(out_h),
        "--trace", str(out_t),
    ]
    stdout = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise GateError(f"factorize exited with code {code}")
    pair = FactorPair(
        _read_back(out_w, (w.n, w.rank)), _read_back(out_h, (w.rank, w.m))
    )
    with open(out_t, encoding="ascii") as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
    trace = IterationTrace([TraceRecord(int(k), float(f), float(t)) for k, f, t in rows])
    for path in (out_w, out_h, out_t):
        path.unlink()
    report = dict(ln.split(": ", 1) for ln in stdout.getvalue().splitlines())
    if int(report["iterations"]) != trace.iterations:
        raise GateError("printed iteration count disagrees with the trace CSV")
    if float(report["final_objective"]) != trace.final_objective:
        raise GateError("printed final objective disagrees with the trace CSV")
    return wall, (pair, trace)


def gate(pair: FactorPair, trace: IterationTrace) -> None:
    """Nonnegative factors with unit-norm W columns, a monotone objective
    trace and a finite final objective."""
    pair.validate()
    if not trace.is_monotone():
        raise GateError("objective trace is not monotone")
    if not math.isfinite(trace.final_objective):
        raise GateError("final objective is not finite")


# --------------------------------------------------------------- tracing


def _map_flops(args, kwargs, result):
    # GEMM flops computed from the shapes: each INOM block update forms two
    # Gram-type products and two O(nmr) ones; every other map forms twice that.
    V = args[0]
    n, m = V.shape
    if len(args) == 3:
        r, per = args[1].shape[1], 2
    else:
        r, per = args[1].rank, 4
    return {"flops": per * (n * m * r + r * r * (n + m))}


def _accel_note(args, kwargs, result):
    accel = result[1]
    kept = not (accel.alpha_w == -1.0 and accel.alpha_h == -1.0)
    return {"backtracks": accel.backtracks, "kept": kept}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# Every wrapped lookup site, with the layer its calls belong to.
HOOKS = (
    Hook(linalg, "frobenius_residual", "linalg.objective"),
    Hook(linalg, "column_norms", "linalg.normalize"),
    Hook(linalg, "normalize_columns", "linalg.normalize"),
    Hook(linalg, "read_matrix_csv", "linalg.csv_read", _csv_bytes),
    Hook(linalg, "write_matrix_csv", "linalg.csv_write"),
    Hook(datagen, "generate_dense_uniform", "datagen.generate"),
    Hook(solvers, "solve", "solvers.solve"),
    Hook(solvers, "inom_update_h", "solvers.map", _map_flops),
    Hook(solvers, "inom_update_w", "solvers.map", _map_flops),
    Hook(solvers, "parinom_iterate", "solvers.map", _map_flops),
    Hook(solvers, "mu_iterate", "solvers.map", _map_flops),
    Hook(solvers, "fast_hals_iterate", "solvers.map", _map_flops),
    # squarem imported the base maps by name, so its lookups need their
    # own wrappers.
    Hook(squarem, "parinom_iterate", "solvers.map", _map_flops),
    Hook(squarem, "mu_iterate", "solvers.map", _map_flops),
    Hook(squarem, "squarem_step", "squarem.step", _accel_note),
    Hook(diagnostics, "kkt_residual", "diagnostics.kkt"),
    Hook(cli, "main", "cli.factorize"),
)


# One application of a base map: an INOM H update (paired with its W update)
# or one call of any other map.
_MAP_STARTS = {
    "solvers.inom_update_h", "solvers.parinom_iterate", "solvers.mu_iterate",
    "solvers.fast_hals_iterate", "squarem.parinom_iterate", "squarem.mu_iterate",
}
BASE_MAPS = {"inom", "parinom", "mu", "fast-hals"}

PER_LAYER = [
    ("linalg.objective.self_s", "s", "lower"),
    ("linalg.objective.share", "ratio", "lower"),
    ("linalg.objective.calls_per_iter", "calls/iter", "lower"),
    ("squarem.step.self_s", "s", "lower"),
    ("squarem.objective_calls_per_step", "calls/step", "lower"),
    ("squarem.backtracks_per_step", "count/step", "lower"),
    ("squarem.extrapolation_kept_ratio", "ratio", "higher"),
    *[(f"solvers.map.{a}.ms_per_call", "ms", "lower") for a in ALGORITHMS],
    ("solvers.map.self_s", "s", "lower"),
    ("solvers.map.gflops_computed", "GFLOP/s", "higher"),
    *[(f"solvers.iters.{a}", "count", "lower") for a in ALGORITHMS],
    ("solvers.solve.self_s", "s", "lower"),
    ("linalg.normalize.self_s", "s", "lower"),
    ("linalg.csv_read.self_s", "s", "lower"),
    ("linalg.csv_read.mb_per_s", "MB/s", "higher"),
    ("linalg.csv_write.self_s", "s", "lower"),
    ("diagnostics.kkt.self_s", "s", "lower"),
    ("cli.factorize.self_s", "s", "lower"),
    ("datagen.generate_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

END_TO_END = [
    *[(f"run_s.{a}", "s", "lower") for a in ALGORITHMS],
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("final_objective.geomean", "obj", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_seconds(spans, jobs) -> dict:
    """Self seconds per layer, over the spans of ``jobs``."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.job in jobs:
            out[s.layer] = out.get(s.layer, 0.0) + t
    return out


def per_layer_metrics(spans, records) -> dict:
    traced = {r["job"]: r for r in records if r["traced"] and not r["failed"]}
    own = layer_self_seconds(spans, set(traced))
    of_layer: dict[str, list] = {}
    step_ids = set()
    for i, s in enumerate(spans):
        if s.job in traced:
            of_layer.setdefault(s.layer, []).append(s)
            if s.layer == "squarem.step":
                step_ids.add(i)
    objective = of_layer.get("linalg.objective", [])
    steps = of_layer.get("squarem.step", [])
    maps = of_layer.get("solvers.map", [])
    reads = of_layer.get("linalg.csv_read", [])

    metrics = {
        f"{layer}.self_s": own.get(layer, 0.0)
        for layer in ("linalg.objective", "squarem.step", "solvers.map",
                      "solvers.solve", "linalg.normalize", "linalg.csv_read",
                      "linalg.csv_write", "diagnostics.kkt", "cli.factorize")
    }
    job_wall = sum(s.duration for s in of_layer["bench.job"])
    metrics["linalg.objective.share"] = _ratio(own.get("linalg.objective", 0.0), job_wall)
    metrics["linalg.objective.calls_per_iter"] = _ratio(
        len(objective), sum(r["iters"] for r in traced.values())
    )
    metrics["squarem.objective_calls_per_step"] = _ratio(
        sum(1 for s in objective if s.parent in step_ids), len(steps)
    )
    metrics["squarem.backtracks_per_step"] = _ratio(
        sum(s.attrs["backtracks"] for s in steps), len(steps)
    )
    metrics["squarem.extrapolation_kept_ratio"] = _ratio(
        sum(s.attrs["kept"] for s in steps), len(steps)
    )
    for alg in ALGORITHMS:
        mine = [s for s in maps if traced[s.job]["alg"] == alg]
        metrics[f"solvers.map.{alg}.ms_per_call"] = 1e3 * _ratio(
            sum(s.duration for s in mine), sum(s.name in _MAP_STARTS for s in mine)
        )
        metrics[f"solvers.iters.{alg}"] = sum(
            r["iters"] for r in traced.values()
            if r["alg"] == alg and r["pass"] < MIN_PASSES
        )
    metrics["solvers.map.gflops_computed"] = 1e-9 * _ratio(
        sum(s.attrs["flops"] for s in maps), sum(s.duration for s in maps)
    )
    metrics["linalg.csv_read.mb_per_s"] = 1e-6 * _ratio(
        sum(s.attrs["bytes"] for s in reads), sum(s.duration for s in reads)
    )
    metrics["datagen.generate_s"] = statistics.median(
        s.duration for s in spans if s.layer == "datagen.generate"
    )
    plain = {(r["pass"], r["alg"]): r["wall_s"] for r in records
             if not r["traced"] and not r["failed"]}
    paired = [(r["wall_s"], plain[r["pass"], r["alg"]]) for r in traced.values()
              if (r["pass"], r["alg"]) in plain]
    metrics["trace.overhead_frac"] = _ratio(
        sum(t for t, _ in paired), sum(u for _, u in paired)
    ) - 1.0
    return metrics


# ------------------------------------------------------------------- run


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _run_one(w, V, csv, start_seed, alg, workdir, record, tracer=None):
    try:
        if tracer is None:
            wall, (pair, trace) = run_job(w, V, csv, start_seed, alg, workdir)
        else:
            with tracer.job_span(record["job"], HOOKS):
                wall, (pair, trace) = run_job(w, V, csv, start_seed, alg, workdir)
        gate(pair, trace)
        record.update(wall_s=wall, iters=trace.iterations, final=trace.final_objective)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        record.update(failed=True, error="".join(
            traceback.format_exception_only(type(exc), exc)).strip())
    return record


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; returns the result object plus its job records."""
    workdir = out_dir / f"work-{w.name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            ctx = tracer.job_span(f"setup{i}", HOOKS) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with ctx:
                V, csv = set_up(w, instance_seed(seed, 0), workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_s = None if trace else import_seconds() + statistics.median(setup_times)

        # One untimed job first: the first BLAS calls of a process and the
        # allocator's first growth cost several times a steady job.
        run_job(w, V, csv, instance_seed(seed, 0), ALGORITHMS[0], workdir)

        records = []
        t_start = time.perf_counter()
        p = 0
        # Start another pass while it would end, on average, by the deadline.
        while p < MIN_PASSES or (
            time.perf_counter() - t_start) * (1 + 0.5 / p) < seconds:
            start_seed = instance_seed(seed, p)
            if p > 0 and not w.via_cli:
                V, csv = set_up(w, start_seed, workdir)
            for alg in ALGORITHMS:
                base = {"pass": p, "alg": alg, "failed": False}
                plain = _run_one(w, V, csv, start_seed, alg, workdir,
                                 {**base, "traced": False, "job": f"p{p}-{alg}"})
                records.append(plain)
                if tracer is None:
                    continue
                rec = _run_one(w, V, csv, start_seed, alg, workdir,
                               {**base, "traced": True, "job": f"p{p}-{alg}-traced"},
                               tracer)
                if not rec["failed"] and not plain["failed"] and (
                    rec["iters"], rec["final"]) != (plain["iters"], plain["final"]):
                    rec.update(failed=True, error="tracing changed the result")
                records.append(rec)
            p += 1
        wall_s = time.perf_counter() - t_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["failed"] for r in records)
    if tracer is not None:
        spans_path = out_dir / f"spans-{w.name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        values = per_layer_metrics(tracer.spans, records) if not failed else {}
        table = PER_LAYER
    else:
        values = end_to_end_metrics(records, setup_s) if not failed else {}
        table = END_TO_END
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit, _ in table}
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "passes": p,
        "wall_s": wall_s,
        "records": records,
        "spans": tracer.spans if tracer else None,
    }


def job_seconds(records) -> dict:
    """Wall seconds of every job, by algorithm, and of every pass."""
    out: dict[str, list] = {}
    passes: dict[int, float] = {}
    for r in records:
        out.setdefault(f"run_s.{r['alg']}", []).append(r["wall_s"])
        passes[r["pass"]] = passes.get(r["pass"], 0.0) + r["wall_s"]
    out["pass_s"] = list(passes.values())
    return out


def end_to_end_metrics(records, setup_s: float) -> dict:
    # Means, not medians: on a 2-vCPU VM the CPU-bound single-threaded jobs
    # ran in a fast and a slow mode, and a median jumped between the modes
    # as their mix changed from run to run (over ten seeds it spread up to
    # 0.32 where the mean spread 0.14).
    metrics = {name: statistics.fmean(v) for name, v in job_seconds(records).items()}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finals = [r["final"] for r in records if r["pass"] < MIN_PASSES]
    metrics["final_objective.geomean"] = math.exp(
        sum(math.log(f) for f in finals) / len(finals)
    )
    return metrics


def _layer_split(result) -> list[str]:
    """Self seconds per layer on base-map and accelerated jobs."""
    traced = {r["job"]: r for r in result["records"] if r["traced"]}
    lines = []
    for label, algs in (("base-map", BASE_MAPS), ("accelerated", {"acc-parinom", "acc-mu"})):
        jobs = {j for j, r in traced.items() if r["alg"] in algs}
        split = layer_self_seconds(result["spans"], jobs)
        total = sum(split.values())
        ranked = sorted(split.items(), key=lambda kv: -kv[1])
        lines.append(f"layer self time, {label} jobs: " + ", ".join(
            f"{k} {v:.4f}s ({_ratio(v, total):.1%})" for k, v in ranked))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not Path(solvers.__file__).resolve().is_relative_to(src):
        print(f"perfbench: nmfkit was imported from {solvers.__file__}, not {src}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    result = run(w, args.seed, args.seconds, bool(args.trace), OUT_DIR)

    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {w.name} seed {args.seed} trace {args.trace} "
          f"passes {result['passes']} wall_s {result['wall_s']:.3f} "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {_ratio(result['failed'], result['attempted']):.4g}")
    for r in result["records"]:
        if r["failed"]:
            print(f"FAILED pass {r['pass']} {r['alg']} traced={r['traced']}: {r['error']}")
    samples = job_seconds(r for r in result["records"] if not r["failed"] and not r["traced"])
    for name, m in result["metrics"].items():
        extra = ""
        if name in samples and not args.trace:
            v = samples[name]
            extra = f" (mean of {len(v)}; median {statistics.median(v):.6g})"
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} {value} {m['unit']}{extra}")
    if args.trace and result["correct"]:
        for line in _layer_split(result):
            print(line)

    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    with open(OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**summary, "env": env, "workload": w.__dict__,
                   "passes": result["passes"], "jobs": result["records"]}, fh, indent=1)
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
