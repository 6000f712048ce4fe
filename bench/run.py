"""Benchmark of glt-stokes: set-up and solve time and peak memory on four
workloads, or the per-layer breakdown of a traced run.

Run from the repository root:

    python3 bench/run.py --workload saddle-n32 --seed 1 --seconds 10 --trace 0

The run repeats whole rounds of the workload until `--seconds` have passed
(at least one round), checks every output, and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 1` the metrics are the per-layer figures and the spans are written
to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("table-small", "saddle-n32", "velocity-n64", "spectra-n16")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def single_thread_blas() -> int:
    """Run BLAS/OpenMP single-threaded and return the CPUs this process may
    use; must run before numpy is imported.  On a small shared machine two
    BLAS threads contend with the interpreter and with anything else
    running, which tripled the run-to-run spread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(nproc: int) -> dict:
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(rec, rounds, span_cost: float) -> dict:
    """Per-layer figures of a traced run, summed over its rounds."""
    selfs = rec.self_times()
    counts = rec.counts()
    gm = [s for rnd in rounds for s in rnd.gmres_stats]
    iterations = sum(s.iterations for s in gm)
    # one history entry per restart (the recomputed residual) plus one per
    # Arnoldi step
    cycles = sum(len(s.residual_history) - s.iterations for s in gm)
    applies = counts.get("precond.apply", 0)
    true_res = [r for rnd in rounds for r in rnd.true_residuals]
    m = {
        "mesh.build_s": (selfs["mesh.build"], "s"),
        "assembly.assemble_s": (selfs["assembly.assemble"], "s"),
        "symbols.build_s": (selfs["symbols.build"], "s"),
        "precond.tau_core_s": (selfs["precond.tau_core"], "s"),
        "precond.velocity_build_s": (selfs["precond.velocity_build"], "s"),
        "precond.schur_build_s": (selfs["precond.schur_build"], "s"),
        "precond.mass_build_s": (selfs["precond.mass_build"], "s"),
        "precond.apply_s": (selfs["precond.apply"], "s"),
        "precond.apply_count": (applies, "count"),
        "precond.apply_ms": (1e3 * selfs["precond.apply"] / applies if applies else 0.0, "ms"),
        "solvers.matvec_s": (selfs["solvers.matvec"], "s"),
        "solvers.matvec_count": (counts.get("solvers.matvec", 0), "count"),
        "solvers.gmres_self_s": (selfs["solvers.gmres"], "s"),
        "solvers.iterations": (iterations, "count"),
        "solvers.cycles": (cycles, "count"),
        "solvers.steps_per_cycle": (iterations / cycles if cycles else 0.0, "ratio"),
        "solvers.true_residual_max": (max(true_res) if true_res else 0.0, "1"),
        "solvers.minres_s": (selfs["solvers.minres"], "s"),
        "solvers.minres_iterations": (sum(s.iterations for rnd in rounds
                                          for s in rnd.minres_stats), "count"),
        "spectra.eig_s": (selfs["spectra.eig"], "s"),
        "spectra.svd_s": (selfs["spectra.svd"], "s"),
        "spectra.symbol_sample_s": (selfs["spectra.symbol_sample"], "s"),
        "spectra.ks_s": (selfs["spectra.ks"], "s"),
        "spectra.pencil_s": (selfs["spectra.pencil"], "s"),
        "spectra.precond_sv_s": (selfs["spectra.precond_sv"], "s"),
        "trace.other_s": (selfs["trace.other"], "s"),
        "trace.timed_s": (rec.timed_s, "s"),
        "trace.span_count": (len(rec.spans), "count"),
        "trace.overhead_s": (len(rec.spans) * span_cost, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = single_thread_blas()
    src = ROOT / "src"
    if not (src / "glt_stokes" / "__init__.py").is_file():
        print(f"glt_stokes sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import glt_stokes
    import recorder
    import workloads

    if Path(glt_stokes.__file__).resolve().parent != (src / "glt_stokes").resolve():
        print(f"imported glt_stokes from {glt_stokes.__file__}, not {src}",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_facts(nproc)), flush=True)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    run_workload = workloads.WORKLOADS[args.workload]

    rec = recorder.Recorder(trace=bool(args.trace))
    rounds, setups, solves = [], [], []
    start = time.perf_counter()
    with rec:
        while not rounds or time.perf_counter() - start < args.seconds:
            setup0, timed0 = rec.setup_s, rec.timed_s
            rnd = workloads.Round(rec, out_dir)
            run_workload(rnd)
            rounds.append(rnd)
            setups.append(rec.setup_s - setup0)
            solves.append((rec.timed_s - timed0) - setups[-1])
            iterations = sum(s.iterations for s in rnd.gmres_stats + rnd.minres_stats)
            print(f"round {len(rounds)}: setup {setups[-1]:.4f} s, solve "
                  f"{solves[-1]:.4f} s, {iterations} Krylov iterations, "
                  f"{rnd.attempted} attempted, {rnd.failed} failed, "
                  f"{len(rnd.errors)} check errors", flush=True)

    errors = [e for rnd in rounds for e in rnd.errors]
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(rec, rounds, recorder.span_cost_s())
        trace_path = out_dir / "trace.json"
        trace_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "spans": rec.span_records(start)}))
        print(f"spans written to {trace_path}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(solves), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
