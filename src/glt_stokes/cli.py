"""Experiment driver: mesh info, assembly export, symbol evaluation,
spectra, preconditioner diagnostics, solver runs, the iteration tables,
and the strip-viscosity benchmark.

Every output file starts with comment lines carrying the artifact version
and the full configuration, so re-running a config reproduces the file
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from . import __version__
from .assembly import (ViscosityField, assemble_divergence, assemble_saddle,
                       assemble_stiffness, viscosity_for_group)
from .mesh import StructuredMesh, build_mesh, saddle_dimension
from .precond import (STRATEGIES, SPDSolver, _env_threads,
                      build_saddle_preconditioner, env_blas_threads,
                      usable_cpus)
from .solvers import gmres, minres
from .spectra import (DEFAULT_GRID, pencil_class_sizes, sample_saddle_symbol,
                      sample_symbol, singular_values, symmetric_eigenvalues,
                      wathen_condition_number, weyl_distance)
from .symbols import default_symbol_set

GROUPS = (1, 2, 3)
CASES = ("a", "b", "c")


@dataclass
class ExperimentConfig:
    n: int = 8
    group: int = 1
    gamma: float | None = None
    case: str = "a"
    strategy: str = "tau_block"
    tol: float = 1e-5
    restart: int = 20
    maxit: int = 1000
    seed: int = 42
    grid: tuple = DEFAULT_GRID
    output_dir: str = "."

    def validate(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}, got {self.group}")
        if self.group == 3 and self.gamma is None:
            raise ValueError("group 3 requires --gamma")
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        return self

    def viscosity(self) -> ViscosityField:
        return viscosity_for_group(self.group, self.gamma)

    def header_lines(self) -> list[str]:
        payload = asdict(self)
        payload["grid"] = list(self.grid)
        return [f"# glt-stokes {__version__}",
                f"# config: {json.dumps(payload, sort_keys=True)}"]


def thread_pool_size() -> int:
    """Threads of the `table` cell pool: GLT_STOKES_THREADS when it is a
    positive integer, else the CPUs this process may use, at most 4."""
    return _env_threads("GLT_STOKES_THREADS") or min(4, usable_cpus())


def _write_csv(path: Path, header_lines, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def rhs_for_case(case: str, mesh: StructuredMesh, dim: int,
                 seed: int = 42) -> np.ndarray:
    """Right-hand sides of the benchmark cases on the assembled system.

    a: all ones; b: the product x*y sampled at each DOF's coordinates;
    c: independent uniform [0,1] entries from the seeded generator.
    """
    if case == "a":
        return np.ones(dim)
    if case == "b":
        vc = mesh.velocity_coords()
        pc = mesh.pressure_coords()
        bv = vc[:, 0] * vc[:, 1]
        return np.concatenate([bv, bv, pc[:, 0] * pc[:, 1]])
    if case == "c":
        return np.random.default_rng(seed).uniform(0.0, 1.0, dim)
    raise ValueError(f"unknown case {case!r}")


def group_label(cfg: ExperimentConfig):
    """The group column of a table row: 1, 2, or 3(gamma=...) for group 3
    (3(gamma=None) for a config that lacks the gamma group 3 needs)."""
    if cfg.group != 3:
        return cfg.group
    gamma = "None" if cfg.gamma is None else f"{cfg.gamma:g}"
    return f"3(gamma={gamma})"


# columns of the `solve` command's CSV, in the order of `run_solve_cell`'s row
SOLVE_COLUMNS = ("group", "case", "n", "dim", "strategy", "iterations",
                 "final_residual", "converged", "seed", "wall_time_s")


def run_solve_cell(cfg: ExperimentConfig, preconditioned: bool = True) -> dict:
    """One (group, case, n) PGMRES run; returns the results.csv row
    (the `SOLVE_COLUMNS`) plus the stop reason, the restart-cycle count
    and, when preconditioned, the build's phase timings, the smallest
    velocity pivot, the Schur complement's relative symmetry defect, the
    thread count its panels were built with and the threads an apply
    uses."""
    cfg.validate()
    mu = cfg.viscosity()
    mesh = build_mesh(cfg.n)
    system = assemble_saddle(mesh, mu)
    M = system.full_matrix()
    b = rhs_for_case(cfg.case, mesh, system.dimension, cfg.seed)
    ns = system.nullspace_vector()
    ns = ns / np.linalg.norm(ns)
    b = b - ns * (ns @ b)

    build = {}
    if preconditioned:
        prec = build_saddle_preconditioner(mesh, mu, system, cfg.strategy)
        stats = gmres(M, b, prec.apply, restart=cfg.restart, tol=cfg.tol,
                      maxit=cfg.maxit)
        build = {"phase_seconds": prec.phase_seconds,
                 "velocity_min_pivot": prec.velocity_solver.min_pivot,
                 "schur_symmetry_defect": prec.schur_symmetry_defect,
                 "schur_workers": prec.schur_workers,
                 "apply_workers": prec.apply_workers}
    else:
        stats = gmres(M, b, None, restart=cfg.restart, tol=cfg.tol,
                      maxit=cfg.maxit)
    return {
        "group": group_label(cfg),
        "case": cfg.case,
        "n": cfg.n,
        "dim": system.dimension,
        "strategy": cfg.strategy if preconditioned else "none",
        "iterations": stats.iterations,
        "final_residual": f"{stats.final_relative_residual:.6e}",
        "converged": stats.converged,
        "seed": cfg.seed,
        "wall_time_s": f"{stats.wall_time:.3f}",
        "stop_reason": stats.stop_reason,
        "cycles": stats.cycles,
        **build,
    }


# published iteration counts, recorded as expectation metadata in table runs
PUBLISHED_ITERATIONS = {
    (1, None): {"a": {8: 57, 16: 90, 32: 154},
                "b": {8: 98, 16: 218, 32: 625},
                "c": {8: 88, 16: 167, 32: 444}},
    (2, None): {"a": {8: 59, 16: 80, 32: 118},
                "b": {8: 107, 16: 206, 32: 554},
                "c": {8: 97, 16: 146, 32: 407}},
    (3, 1): {"a": {8: 58, 16: 85, 32: 124},
             "b": {8: 105, 16: 218, 32: 486},
             "c": {8: 92, 16: 147, 32: 454}},
    (3, 10): {"a": {8: 60, 16: 90, 32: 128},
              "b": {8: 98, 16: 227, 32: 431},
              "c": {8: 88, 16: 158, 32: 394}},
    (3, 100): {"a": {8: 68, 16: 92, 32: 116},
               "b": {8: 139, 16: 314, 32: 738},
               "c": {8: 128, 16: 253, 32: 312}},
}


# per-cell diagnostics of `run_solve_cell` that the table's JSON sidecar
# keeps and its CSV body leaves out
SIDECAR_KEYS = ("stop_reason", "cycles", "phase_seconds", "velocity_min_pivot",
                "schur_symmetry_defect", "schur_workers", "apply_workers")


def run_group_table(configs: list[ExperimentConfig], out_path: Path,
                    meta: dict | None = None) -> list[dict]:
    """PGMRES iteration table; cells run in a work pool, rows written in
    config order.  Failed cells are recorded with converged=false.

    Next to the CSV, `<out>.json` holds one record per cell: its group,
    case and n, the `SIDECAR_KEYS` diagnostics, the BLAS thread count the
    environment asks for (`env_blas_threads()`, null when it asks for
    none), the GMRES and whole-cell wall times, and the error text of a
    failed cell (null otherwise).
    """
    def cell(cfg):
        t0 = time.perf_counter()
        try:
            row = run_solve_cell(cfg)
        except Exception as exc:  # record and continue
            row = {
                "group": group_label(cfg), "case": cfg.case, "n": cfg.n,
                "dim": saddle_dimension(cfg.n) if cfg.n >= 1 else "",
                "strategy": cfg.strategy, "iterations": -1,
                "final_residual": f"error: {exc}", "converged": False,
                "seed": cfg.seed, "wall_time_s": "", "error": str(exc),
            }
        row["cell_wall_s"] = time.perf_counter() - t0
        return row

    with ThreadPoolExecutor(max_workers=thread_pool_size()) as pool:
        rows = list(pool.map(cell, configs))

    for cfg, row in zip(configs, rows):
        key = (cfg.group, cfg.gamma if cfg.group == 3 else None)
        expected = PUBLISHED_ITERATIONS.get(key, {}).get(cfg.case, {}).get(cfg.n)
        row["published"] = expected if expected is not None else ""
        row["iterations_per_n"] = (f"{row['iterations'] / cfg.n:.2f}"
                                   if row["iterations"] >= 0 else "")

    # wall time is volatile and stays out of table bodies so identical
    # configs reproduce the file byte for byte
    columns = ["group", "case", "n", "dim", "strategy", "iterations",
               "final_residual", "converged", "seed",
               "published", "iterations_per_n"]
    header = [f"# glt-stokes {__version__}",
              f"# table of {len(configs)} PGMRES cells"]
    if meta:
        header.append(f"# config: {json.dumps(meta, sort_keys=True)}")
    _write_csv(out_path, header, columns,
               [[row[c] for c in columns] for row in rows])
    blas_threads = env_blas_threads()
    sidecar = [{"group": row["group"], "case": row["case"], "n": row["n"],
                **{key: row.get(key) for key in SIDECAR_KEYS},
                "blas_threads": blas_threads,
                "gmres_wall_s": (float(row["wall_time_s"])
                                 if row["wall_time_s"] else None),
                "cell_wall_s": row["cell_wall_s"],
                "error": row.get("error")} for row in rows]
    out_path.with_name(out_path.name + ".json").write_text(
        json.dumps(sidecar, indent=1))
    return rows


def example1_conformity(n: int, w: float, delta: float) -> None:
    """The uniform mesh must place grid lines on the strip interfaces: on
    the unit square those sit at (1 +- w)/2 and (1 +- (w+delta))/2."""
    must_hit = [(1.0 - w) / 2.0, (1.0 + w) / 2.0]
    if delta > 0:
        must_hit += [(1.0 - w - delta) / 2.0, (1.0 + w + delta) / 2.0]
        if 1.0 / n >= delta / 2.0:
            raise ValueError(
                f"element size 1/{n} must be smaller than delta/2 = {delta / 2}")
    for pos in must_hit:
        scaled = pos * n
        if abs(scaled - round(scaled)) > 1e-9:
            from fractions import Fraction
            denom = Fraction(pos).limit_denominator(10000).denominator
            raise ValueError(
                f"mesh with n={n} does not conform to interface x={pos:.4g}: "
                f"n must be a multiple of {denom}")


def run_example1(mu0: float, mu1_list, w: float, delta_list, n_list,
                 out_path: Path, tol: float = 1e-12,
                 maxit: int = 40000) -> list[dict]:
    """Strip-viscosity benchmark: condition number of the mass-based
    block preconditioner and MINRES iterations, per (mu1, delta, n).

    The preconditioner uses the exact stiffness block, so its spectrum
    reduces exactly to the pressure-size Schur pencil.  Next to the CSV,
    `<out>.json` holds one record per row: its mu1, delta and n, the
    seconds of the pencil (`wathen_condition_number`), the sizes of the
    pencil's reflection classes (`pencil_class_sizes`), and the MINRES
    seconds and stop reason.
    """
    rows, records = [], []
    for delta in delta_list:
        for n in n_list:
            example1_conformity(n, w, delta)
            mesh = build_mesh(n)
            for mu1 in mu1_list:
                mu = ViscosityField.example1(mu0, mu1, w, delta)
                system = assemble_saddle(mesh, mu)
                M = system.full_matrix()
                A = system.stiffness
                P = sp.bmat([[A, None, None],
                             [None, A, None],
                             [None, None, system.pressure_mass]], format="csc")
                t0 = time.perf_counter()
                lam_max, lam_min, cond = wathen_condition_number(system)
                pencil_s = time.perf_counter() - t0
                ns = system.nullspace_vector()
                b = np.ones(system.dimension)
                psolve = SPDSolver(P)
                stats = minres(M, b, psolve.solve, nullspace=ns, tol=tol,
                               maxit=maxit)
                rows.append({
                    "mu0": mu0, "mu1": mu1, "w": w, "delta": delta, "n": n,
                    "dim": system.dimension,
                    "lambda_max": f"{lam_max:.6e}",
                    "lambda_min_nonzero": f"{lam_min:.6e}",
                    "condition_number": f"{cond:.6e}",
                    "minres_iterations": stats.iterations,
                    "minres_converged": stats.converged,
                    "minres_residual": f"{stats.final_relative_residual:.3e}",
                })
                records.append({
                    "mu1": mu1, "delta": delta, "n": n,
                    "pencil_s": pencil_s,
                    "pencil_classes": pencil_class_sizes(system),
                    "minres_s": stats.wall_time,
                    "stop_reason": stats.stop_reason,
                })
    columns = list(rows[0].keys()) if rows else [
        "mu0", "mu1", "w", "delta", "n", "dim", "lambda_max",
        "lambda_min_nonzero", "condition_number", "minres_iterations",
        "minres_converged", "minres_residual"]
    header = [f"# glt-stokes {__version__}",
              "# strip-viscosity benchmark on uniform conforming meshes",
              "# note: uniform meshes replace the graded meshes of the "
              "reference setup; trends are comparable, absolute values "
              "need not be"]
    _write_csv(out_path, header, columns,
               [[row[c] for c in columns] for row in rows])
    out_path.with_name(out_path.name + ".json").write_text(
        json.dumps(records, indent=1))
    return rows


def target_spectrum(target: str, mesh: StructuredMesh, mu: ViscosityField):
    """Sorted matrix values of a spectrum target (eigenvalues of A and M,
    singular values of Bx and By) and the sampler of its symbol, a
    function of the sampling grid.

    The eigensolves pass the x <-> y swap of the mesh as the mirror: the
    velocity swap for A, and for M the swap that also exchanges the u_x
    and u_y blocks; a field that is not swap-invariant falls back to one
    full-size block.
    """
    rv, rp = mesh.swap_permutations()
    nvel = mesh.velocity_count
    if target == "A":
        return (symmetric_eigenvalues(assemble_stiffness(mesh, mu), rv),
                lambda grid: sample_symbol(default_symbol_set().stiffness,
                                           mu, grid))
    if target in ("Bx", "By"):
        pick = ("Bx", "By").index(target)

        def sampler(grid):
            nx, ny, nt1, nt2 = grid
            syms = default_symbol_set()
            return sample_symbol((syms.div_x, syms.div_y)[pick], None,
                                 (1, 1, nx * nt1, ny * nt2))
        return singular_values(assemble_divergence(mesh)[pick]), sampler
    if target == "M":
        mirror = np.concatenate([rv + nvel, rv, rp + 2 * nvel])
        return (symmetric_eigenvalues(assemble_saddle(mesh, mu).full_matrix(),
                                      mirror),
                lambda grid: sample_saddle_symbol(mu, grid))
    raise ValueError(f"unknown target {target!r}; pick A, Bx, By or M")


def emit_adherence_data(target: str, cfg: ExperimentConfig,
                        out_path: Path) -> float:
    """Rank-aligned matrix spectrum vs symbol quantiles, plus the KS
    distance; targets: A, Bx, By, M."""
    cfg.validate()
    values, sampler = target_spectrum(target, build_mesh(cfg.n),
                                      cfg.viscosity())
    pool = sampler(cfg.grid)
    ks_distance = weyl_distance(values, pool)
    ranks = (np.arange(len(values)) + 0.5) / len(values)
    quantiles = np.quantile(pool, ranks)
    rows = [[i, f"{values[i]:.12e}", f"{quantiles[i]:.12e}"]
            for i in range(len(values))]
    header = cfg.header_lines() + [f"# target: {target}",
                                   f"# ks_distance={ks_distance:.6f}"]
    _write_csv(out_path, header, ["index", "matrix_value", "symbol_quantile"],
               rows)
    return ks_distance


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p):
    p.add_argument("--config", type=str, help="JSON config file")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--group", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--case", type=str, default=None)
    p.add_argument("--strategy", type=str, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--restart", type=int, default=None)
    p.add_argument("--maxit", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output-dir", type=str, default=None)


def _config_from_args(args) -> ExperimentConfig:
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
    cfg = ExperimentConfig(**base)
    for key in ("n", "group", "gamma", "case", "strategy", "tol", "restart",
                "maxit", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "output_dir", None):
        cfg.output_dir = args.output_dir
    return cfg.validate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="glt-stokes",
        description="Crisscross Taylor-Hood Stokes: assembly, spectral "
                    "symbols, Weyl distribution checks, and tau/Schur "
                    "preconditioned solves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-info", help="mesh counts and optional dump")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--dump", type=str, help="write plain-text mesh dump here")

    p = sub.add_parser("assemble", help="assemble and export Matrix Market")
    _add_common(p)
    p.add_argument("--export", type=str, required=True,
                   help="output path prefix for .mtx files")

    p = sub.add_parser("symbol", help="evaluate a named symbol")
    p.add_argument("--name", type=str, default="stiffness")
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--y", type=float, default=0.5)
    p.add_argument("--theta1", type=float, default=0.0)
    p.add_argument("--theta2", type=float, default=0.0)
    p.add_argument("--group", type=int, default=1)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--dump", action="store_true",
                   help="emit the full coefficient tables as JSON")

    p = sub.add_parser("spectrum", help="dense spectrum of one block")
    _add_common(p)
    p.add_argument("--target", type=str, default="A",
                   choices=["A", "Bx", "By", "M"])
    p.add_argument("--out", type=str, default="spectrum.csv")

    p = sub.add_parser("compare", help="spectrum vs symbol adherence CSV")
    _add_common(p)
    p.add_argument("--target", type=str, default="A",
                   choices=["A", "Bx", "By", "M"])
    p.add_argument("--out", type=str, default="compare.csv")

    p = sub.add_parser("precond-spectrum",
                       help="singular values of the preconditioned system")
    _add_common(p)
    p.add_argument("--out", type=str, default="precond_spectrum.csv")

    p = sub.add_parser("solve", help="one preconditioned solve")
    _add_common(p)
    p.add_argument("--unpreconditioned", action="store_true")
    p.add_argument("--out", type=str, default="results.csv")

    p = sub.add_parser("table", help="full iteration table")
    _add_common(p)
    p.add_argument("--groups", type=str, default="1,2,3")
    p.add_argument("--cases", type=str, default="a,b,c")
    p.add_argument("--sizes", type=str, default="8,16,32")
    p.add_argument("--gammas", type=str, default="1,10,100")
    p.add_argument("--out", type=str, default="results.csv")

    p = sub.add_parser("example1", help="strip-viscosity benchmark")
    p.add_argument("--mu0", type=float, default=1.0)
    p.add_argument("--mu1", type=str, default="1,100,10000,1000000")
    p.add_argument("--w", type=float, default=0.1)
    p.add_argument("--delta", type=str, default="0")
    p.add_argument("--sizes", type=str, default="20")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", type=str, default="example1.csv")

    args = parser.parse_args(argv)

    if args.command == "mesh-info":
        mesh = build_mesh(args.n)
        info = {
            "n": args.n,
            "triangles": len(mesh.triangles),
            "velocity_dofs_per_component": mesh.velocity_count,
            "pressure_dofs": mesh.pressure_count,
            "saddle_dimension": saddle_dimension(args.n),
        }
        print(json.dumps(info, indent=2))
        if args.dump:
            Path(args.dump).write_text(mesh.dump())
        return 0

    if args.command == "assemble":
        cfg = _config_from_args(args)
        system = assemble_saddle(build_mesh(cfg.n), cfg.viscosity())
        prefix = Path(args.export)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        scipy.io.mmwrite(str(prefix) + "_A.mtx", system.stiffness,
                         symmetry="symmetric")
        scipy.io.mmwrite(str(prefix) + "_Bx.mtx", system.div_x)
        scipy.io.mmwrite(str(prefix) + "_By.mtx", system.div_y)
        scipy.io.mmwrite(str(prefix) + "_Mp.mtx", system.pressure_mass,
                         symmetry="symmetric")
        scipy.io.mmwrite(str(prefix) + "_full.mtx", system.full_matrix(),
                         symmetry="symmetric")
        print(f"wrote {prefix}_{{A,Bx,By,Mp,full}}.mtx")
        return 0

    if args.command == "symbol":
        syms = default_symbol_set()
        if args.dump:
            tables = {name: syms.by_name(name).to_json()
                      for name in ("stiffness", "stiffness_pre", "g0", "g1",
                                   "div_x", "div_y", "div_x0", "div_x1",
                                   "div_y0", "div_y1")}
            print(json.dumps(tables, indent=1))
            return 0
        sym = syms.by_name(args.name)
        if sym.levels == 2:
            val = sym.eval(args.theta1, args.theta2)
        else:
            val = sym.eval(args.theta2)
        if args.name in ("stiffness", "stiffness_pre", "a"):
            mu = viscosity_for_group(args.group, args.gamma)
            val = float(mu(np.array([[args.x, args.y]]))[0]) * val
        print(json.dumps({"re": val.real.tolist(), "im": val.imag.tolist()},
                         indent=1))
        return 0

    if args.command in ("spectrum", "compare"):
        cfg = _config_from_args(args)
        out = Path(cfg.output_dir) / args.out
        if args.command == "spectrum":
            vals, _ = target_spectrum(args.target, build_mesh(cfg.n),
                                      cfg.viscosity())
            _write_csv(out, cfg.header_lines() + [f"# target: {args.target}"],
                       ["index", "value"],
                       [[i, f"{v:.12e}"] for i, v in enumerate(vals)])
            print(f"wrote {out}")
        else:
            ks = emit_adherence_data(args.target, cfg, out)
            print(f"wrote {out}; ks_distance={ks:.6f}")
        return 0

    if args.command == "precond-spectrum":
        cfg = _config_from_args(args)
        if cfg.n > 16:
            raise SystemExit("precond-spectrum computes densely; use n <= 16")
        mu = cfg.viscosity()
        mesh = build_mesh(cfg.n)
        system = assemble_saddle(mesh, mu)
        prec = build_saddle_preconditioner(mesh, mu, system, cfg.strategy)
        PM = prec.apply(system.full_matrix().toarray())
        sv = np.sort(np.linalg.svd(PM, compute_uv=False))
        out = Path(cfg.output_dir) / args.out
        inside = np.mean((sv >= 0.5) & (sv <= 2.0))
        _write_csv(out, cfg.header_lines() +
                   [f"# fraction_in_[0.5,2]: {inside:.6f}"],
                   ["index", "singular_value"],
                   [[i, f"{v:.12e}"] for i, v in enumerate(sv)])
        print(f"wrote {out}; fraction in [1/2,2] = {inside:.4f}")
        return 0

    if args.command == "solve":
        cfg = _config_from_args(args)
        row = run_solve_cell(cfg, preconditioned=not args.unpreconditioned)
        out = Path(cfg.output_dir) / args.out
        new = not out.exists()
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a") as fh:
            if new:
                fh.write(",".join(SOLVE_COLUMNS) + "\n")
            fh.write(",".join(str(row[k]) for k in SOLVE_COLUMNS) + "\n")
        print(json.dumps(row, indent=1, default=str))
        return 0

    if args.command == "table":
        cfg = _config_from_args(args)
        groups = [int(g) for g in args.groups.split(",")]
        cases = args.cases.split(",")
        sizes = [int(s) for s in args.sizes.split(",")]
        gammas = [float(g) for g in args.gammas.split(",")]
        configs = []
        for g in groups:
            gamma_list = gammas if g == 3 else [None]
            for gamma in gamma_list:
                for case in cases:
                    for n in sizes:
                        configs.append(ExperimentConfig(
                            n=n, group=g, gamma=gamma, case=case,
                            strategy=cfg.strategy, tol=cfg.tol,
                            restart=cfg.restart, maxit=cfg.maxit,
                            seed=cfg.seed, output_dir=cfg.output_dir))
        out = Path(cfg.output_dir) / args.out
        meta = {"groups": groups, "cases": cases, "sizes": sizes,
                "gammas": gammas, "strategy": cfg.strategy, "tol": cfg.tol,
                "restart": cfg.restart, "maxit": cfg.maxit, "seed": cfg.seed}
        rows = run_group_table(configs, out, meta)
        print(f"wrote {out} with {len(rows)} cells")
        return 0

    if args.command == "example1":
        mu1_list = [float(v) for v in args.mu1.split(",")]
        delta_list = [float(v) for v in args.delta.split(",")]
        n_list = [int(v) for v in args.sizes.split(",")]
        out = Path(args.out)
        rows = run_example1(args.mu0, mu1_list, args.w, delta_list, n_list,
                            out, tol=args.tol)
        print(f"wrote {out} with {len(rows)} rows")
        return 0

    raise SystemExit(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
