"""Experiment driver: mesh info, assembly export, symbol evaluation,
spectra, preconditioner diagnostics, solver runs, the iteration tables,
and the strip-viscosity benchmark.

`spectrum`, `compare` and `precond-spectrum` start their CSV with a
version line, a config line (`ExperimentConfig.header_lines`) and comment
lines of their own; `table` with a version line, a cell count and its
settings; `example1` with a version line and two description lines (its
rows carry mu0, mu1, w, delta and n, not the MINRES tolerance).  Re-running
any of them rewrites the CSV byte for byte; their `<out>.json` sidecars of
timings differ.  `solve` writes no comment lines: a new file gets the
`SOLVE_COLUMNS` line, each run appends one row, whose `wall_time_s` varies,
and a file whose first line is not that column line is refused.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from . import __version__
from .assembly import (ViscosityField, assemble_divergence, assemble_saddle,
                       assemble_stiffness, viscosity_for_group)
from .mesh import (StructuredMesh, build_mesh, reflection_permutations,
                   saddle_dimension)
from .precond import (SPDSolver, blas_threads, build_saddle_preconditioner,
                      fan_out, workers)
from .solvers import check_solver_settings, gmres, minres
from .spectra import (DEFAULT_GRID, mirror_class_sizes, pencil_class_sizes,
                      pool_quantiles, sample_saddle_symbol, sample_symbol,
                      singular_values, solved_frequency_count,
                      symmetric_eigenvalues, wathen_condition_number,
                      weyl_distance)
from .symbols import default_symbol_set

CASES = ("a", "b", "c")
TARGETS = ("A", "Bx", "By", "M")  # the spectrum targets
_EXAMPLE1_MAXIT = 40000  # the MINRES step cap of `run_example1`


@dataclass
class ExperimentConfig:
    n: int = 8
    group: int = 1
    gamma: float | None = None
    case: str = "a"
    tol: float = 1e-5
    restart: int = 20
    maxit: int = 1000
    seed: int = 42
    grid: tuple = DEFAULT_GRID
    output_dir: str = "."

    def validate(self):
        """Raise ValueError on a bad setting, naming it."""
        saddle_dimension(self.n)  # refuses a non-integer n and n < 1
        self.viscosity()  # refuses an unknown group and a bad group-3 gamma
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        check_solver_settings(self.tol, self.maxit, self.restart)
        return self

    def viscosity(self) -> ViscosityField:
        return viscosity_for_group(self.group, self.gamma)

    def header_lines(self) -> list[str]:
        payload = asdict(self)
        payload["grid"] = list(self.grid)
        return [f"# glt-stokes {__version__}",
                f"# config: {json.dumps(payload, sort_keys=True)}"]


def _write_csv(path: Path, header_lines, columns, rows):
    """The `#` header lines as they are, then the columns and the rows as
    CSV; each value is written as its str(), quoted only when it holds a
    comma, a quote or a line break (an error text), so numeric rows read
    as before."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([str(v) for v in row] for row in rows)


def _write_sidecar(out_path: Path, payload) -> None:
    """Write `payload` as indented JSON to `<out>.json` beside `out_path`."""
    out_path.with_name(out_path.name + ".json").write_text(
        json.dumps(payload, indent=1))


def rhs_for_case(case: str, mesh: StructuredMesh, dim: int,
                 seed: int = 42) -> np.ndarray:
    """Right-hand sides of the benchmark cases on the assembled system.

    a: all ones; b: the product x*y sampled at each DOF's coordinates;
    c: independent uniform [0,1] entries from the seeded generator.
    """
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}, got {case!r}")
    if case == "a":
        return np.ones(dim)
    if case == "b":
        vc = mesh.velocity_coords()
        pc = mesh.pressure_coords()
        bv = vc[:, 0] * vc[:, 1]
        return np.concatenate([bv, bv, pc[:, 0] * pc[:, 1]])
    return np.random.default_rng(seed).uniform(0.0, 1.0, dim)


def group_label(cfg: ExperimentConfig):
    """The group column of a table row: 1, 2, or 3(gamma=...) for group 3
    (3(gamma=None) for a config that lacks the gamma group 3 needs)."""
    if cfg.group != 3:
        return cfg.group
    gamma = "None" if cfg.gamma is None else f"{cfg.gamma:g}"
    return f"3(gamma={gamma})"


# columns of the `solve` command's CSV, in the order of `run_solve_cell`'s row;
# the strategy column reads `PRECONDITIONER`, or "none" for an
# unpreconditioned run
PRECONDITIONER = "tau_block"
SOLVE_COLUMNS = ("group", "case", "n", "dim", "strategy", "iterations",
                 "final_residual", "converged", "seed", "wall_time_s")


def run_solve_cell(cfg: ExperimentConfig, preconditioned: bool = True) -> dict:
    """One (group, case, n) PGMRES run; returns the results.csv row
    (the `SOLVE_COLUMNS`) plus the stop reason, the restart-cycle count
    and, when preconditioned, the build's phase timings, the velocity
    definiteness certificate `velocity_min_pivot` (the smallest squared
    diagonal entry of the DST block Cholesky factors), the Schur
    complement's relative symmetry defect, the thread count its panels were
    built with and the threads an apply uses."""
    cfg.validate()
    mu = cfg.viscosity()
    mesh = build_mesh(cfg.n)
    system = assemble_saddle(mesh, mu)
    M = system.full_matrix()
    b = rhs_for_case(cfg.case, mesh, system.dimension, cfg.seed)
    ns = system.nullspace_vector()
    ns = ns / np.linalg.norm(ns)
    b = b - ns * (ns @ b)

    build, apply = {}, None
    if preconditioned:
        prec = build_saddle_preconditioner(mesh, mu, system)
        apply = prec.apply
        build = {"phase_seconds": prec.phase_seconds,
                 "velocity_min_pivot": prec.velocity_solver.min_pivot,
                 "schur_symmetry_defect": prec.schur_symmetry_defect,
                 "schur_workers": prec.schur_workers,
                 "apply_workers": prec.apply_workers}
    stats = gmres(M, b, apply, restart=cfg.restart, tol=cfg.tol,
                  maxit=cfg.maxit)
    return {
        "group": group_label(cfg),
        "case": cfg.case,
        "n": cfg.n,
        "dim": system.dimension,
        "strategy": PRECONDITIONER if preconditioned else "none",
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
    """PGMRES iteration table; cells run through `precond.fan_out` (on the
    pool when `workers()` > 1), rows written in config order.  Failed
    cells are recorded with converged=false.

    Next to the CSV, `<out>.json` holds one record per cell: its group,
    case and n, the `SIDECAR_KEYS` diagnostics, the BLAS thread count in
    force (`precond.blas_threads()`: 1, or null where scipy's OpenBLAS
    could not be pinned), the GMRES and whole-cell wall times, and the
    error text of a failed cell (null otherwise).
    """
    def cell(cfg):
        t0 = time.perf_counter()
        try:
            row = run_solve_cell(cfg)
        except Exception as exc:  # record and continue
            row = {
                "group": group_label(cfg), "case": cfg.case, "n": cfg.n,
                "dim": saddle_dimension(cfg.n) if cfg.n >= 1 else "",
                "strategy": PRECONDITIONER, "iterations": -1,
                "final_residual": f"error: {exc}", "converged": False,
                "seed": cfg.seed, "wall_time_s": "", "error": str(exc),
            }
        row["cell_wall_s"] = time.perf_counter() - t0
        return row

    rows = fan_out(cell, configs)

    for cfg, row in zip(configs, rows):
        key = (cfg.group, cfg.gamma if cfg.group == 3 else None)
        expected = PUBLISHED_ITERATIONS.get(key, {}).get(cfg.case, {}).get(cfg.n)
        row["published"] = expected if expected is not None else ""
        row["iterations_per_n"] = (f"{row['iterations'] / cfg.n:.2f}"
                                   if row["iterations"] >= 0 else "")

    # wall time is volatile and stays out of table bodies so identical
    # configs reproduce the file byte for byte
    columns = [*SOLVE_COLUMNS[:-1], "published", "iterations_per_n"]
    header = [f"# glt-stokes {__version__}",
              f"# table of {len(configs)} PGMRES cells"]
    if meta:
        header.append(f"# config: {json.dumps(meta, sort_keys=True)}")
    _write_csv(out_path, header, columns,
               [[row[c] for c in columns] for row in rows])
    sidecar = [{"group": row["group"], "case": row["case"], "n": row["n"],
                **{key: row.get(key) for key in SIDECAR_KEYS},
                "blas_threads": blas_threads(),
                "gmres_wall_s": (float(row["wall_time_s"])
                                 if row["wall_time_s"] else None),
                "cell_wall_s": row["cell_wall_s"],
                "error": row.get("error")} for row in rows]
    _write_sidecar(out_path, sidecar)
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
                 out_path: Path, tol: float = 1e-12) -> list[dict]:
    """Strip-viscosity benchmark: condition number of the mass-based
    block preconditioner and MINRES iterations (at most `_EXAMPLE1_MAXIT`),
    per (mu1, delta, n); every input is checked before the first row.

    The preconditioner uses the exact stiffness block, so its spectrum
    reduces exactly to the pressure-size Schur pencil.  Next to the CSV,
    `<out>.json` holds one record per row: its mu1, delta and n, the
    seconds of the pencil (`wathen_condition_number`), the sizes of the
    pencil's reflection classes (`pencil_class_sizes`), the MINRES seconds
    and stop reason, and `mass_min_pivot`, the smallest LDL^T pivot of the
    preconditioner diag(A, A, W) (its definiteness certificate).
    """
    fields = {(mu1, delta): ViscosityField.example1(mu0, mu1, w, delta)
              for delta in delta_list for mu1 in mu1_list}
    meshes = {n: build_mesh(n) for n in n_list}
    for delta in delta_list:
        for n in n_list:
            example1_conformity(n, w, delta)
    check_solver_settings(tol, _EXAMPLE1_MAXIT)
    columns = ["mu0", "mu1", "w", "delta", "n", "dim", "lambda_max",
               "lambda_min_nonzero", "condition_number", "minres_iterations",
               "minres_converged", "minres_residual"]
    rows, records = [], []
    for delta in delta_list:
        for n in n_list:
            for mu1 in mu1_list:
                system = assemble_saddle(meshes[n], fields[mu1, delta])
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
                               maxit=_EXAMPLE1_MAXIT)
                rows.append(dict(zip(columns, [
                    mu0, mu1, w, delta, n, system.dimension,
                    f"{lam_max:.6e}", f"{lam_min:.6e}", f"{cond:.6e}",
                    stats.iterations, stats.converged,
                    f"{stats.final_relative_residual:.3e}"])))
                records.append({
                    "mu1": mu1, "delta": delta, "n": n,
                    "pencil_s": pencil_s,
                    "pencil_classes": pencil_class_sizes(system),
                    "minres_s": stats.wall_time,
                    "stop_reason": stats.stop_reason,
                    "mass_min_pivot": psolve.min_pivot,
                })
    header = [f"# glt-stokes {__version__}",
              "# strip-viscosity benchmark on uniform conforming meshes",
              "# note: uniform meshes replace the graded meshes of the "
              "reference setup; trends are comparable, absolute values "
              "need not be"]
    _write_csv(out_path, header, columns,
               [[row[c] for c in columns] for row in rows])
    _write_sidecar(out_path, records)
    return rows


def target_spectrum(target: str, mesh: StructuredMesh, mu: ViscosityField,
                    grid=DEFAULT_GRID):
    """Sorted matrix values of a spectrum target (eigenvalues of A and M,
    singular values of Bx and By), the sizes of the dense blocks they were
    solved in, the sampler of its symbol (no arguments) and the grid that
    samples.  That grid is `grid` itself, except for the
    viscosity-independent divergence symbols (Bx, By), whose pool folds
    the physical points of (n_x, n_y, n_t1, n_t2) into the frequencies,
    (1, 1, n_x n_t1, n_y n_t2).

    The eigensolves pass the x <-> y swap of the mesh as the mirror: the
    velocity swap for A, and for M the swap that also exchanges the u_x
    and u_y blocks; a field that is not swap-invariant falls back to one
    full-size block (`mirror_class_sizes`).  A singular value target is
    one block.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
    rv, rp = reflection_permutations(mesh.n, "swap")
    nvel = mesh.velocity_count
    if target == "A":
        A = assemble_stiffness(mesh, mu)
        return (symmetric_eigenvalues(A, rv), mirror_class_sizes(A, rv),
                lambda: sample_symbol(default_symbol_set().stiffness, mu,
                                      grid), grid)
    if target in ("Bx", "By"):
        nx, ny, nt1, nt2 = grid
        folded = (1, 1, nx * nt1, ny * nt2)
        B = assemble_divergence(mesh)[("Bx", "By").index(target)]
        values = singular_values(B)
        return (values, [len(values)],
                lambda: sample_symbol(default_symbol_set().by_name(target),
                                      None, folded), folded)
    M = assemble_saddle(mesh, mu).full_matrix()
    mirror = np.concatenate([rv + nvel, rv, rp + 2 * nvel])
    return (symmetric_eigenvalues(M, mirror), mirror_class_sizes(M, mirror),
            lambda: sample_saddle_symbol(mu, grid), grid)


def emit_adherence_data(target: str, cfg: ExperimentConfig,
                        out_path: Path) -> float:
    """Rank-aligned matrix spectrum vs symbol quantiles, plus the KS
    distance of one of the `TARGETS`.

    The quantiles are read off the sorted symbol pool (`pool_quantiles`).
    Next to the CSV, `<out>.json` holds the seconds of the matrix spectrum
    (mesh and assembly included), of the symbol pool and of the KS
    distance, the pool's length, the frequency points whose symbol was
    solved (`solved_frequency_count`, per distinct viscosity weight for
    M), the sizes of the dense blocks the matrix spectrum was solved in
    (`target_spectrum`), and the `workers()` count they ran with.
    """
    cfg.validate()
    t0 = time.perf_counter()
    values, classes, sampler, grid = target_spectrum(
        target, build_mesh(cfg.n), cfg.viscosity(), cfg.grid)
    t1 = time.perf_counter()
    pool = sampler()
    t2 = time.perf_counter()
    ks_distance = weyl_distance(values, pool)
    t3 = time.perf_counter()
    ranks = (np.arange(len(values)) + 0.5) / len(values)
    quantiles = pool_quantiles(pool, ranks)
    rows = [[i, f"{values[i]:.12e}", f"{quantiles[i]:.12e}"]
            for i in range(len(values))]
    header = cfg.header_lines() + [f"# target: {target}",
                                   f"# ks_distance={ks_distance:.6f}"]
    _write_csv(out_path, header, ["index", "matrix_value", "symbol_quantile"],
               rows)
    _write_sidecar(out_path, {
        "matrix_spectrum_s": t1 - t0, "matrix_classes": classes,
        "matrix_workers": workers(), "symbol_pool_s": t2 - t1,
        "ks_s": t3 - t2, "pool_size": len(pool),
        "frequency_points_solved": solved_frequency_count(grid)})
    return ks_distance


# ---------------------------------------------------------------------------
# argument parsing

def _add_config(p, *names):
    """--config and an option for each `ExperimentConfig` field in `names`,
    of the type of the field's default (gamma, None by default, a float)."""
    p.add_argument("--config", type=str, help="JSON config file")
    for name in names:
        flag = "-n" if name == "n" else "--" + name.replace("_", "-")
        p.add_argument(flag, type=float if name == "gamma"
                       else type(getattr(ExperimentConfig, name)))


def _list_of(kind):
    """An argparse type: a comma-separated list of `kind` values."""
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"{kind.__name__} list"  # the type argparse's error names
    return parse


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_type_error(key: str, value) -> str | None:
    """What a config-file value of field `key` must be, if `value` is not
    that; else None.  The rule follows the type of the field's default: an
    int field takes an int, a float field an int or a float (never a
    bool), gamma (None by default) a number or null, a str field a string
    and grid (a tuple) four positive ints."""
    number = _is_int(value) or isinstance(value, float)
    ok, want = {
        int: (_is_int(value), "an integer"),
        float: (number, "a number"),
        type(None): (number or value is None, "a number or null"),
        str: (isinstance(value, str), "a string"),
        tuple: (isinstance(value, list) and len(value) == 4
                and all(_is_int(v) and v > 0 for v in value),
                "a list of four positive integers"),
    }[type(getattr(ExperimentConfig, key))]
    return None if ok else want


def _config_from_args(args) -> ExperimentConfig:
    """The config of a `--config` JSON file, if any, overridden by the
    options given, not yet validated.  A file key that is not an
    `ExperimentConfig` field, one the command reads no option for (and no
    file-only default, as `compare` sets for `grid`), or one whose value
    lacks its field's type (`_config_type_error`), raises ValueError
    naming it."""
    names = [f.name for f in fields(ExperimentConfig)]
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
        unknown = sorted(set(base) - set(names))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}; "
                             f"known: {names}")
        read = [key for key in names if hasattr(args, key)]
        unread = sorted(set(base) - set(read))
        if unread:
            raise ValueError(f"{args.config}: {args.command} does not read "
                             f"config keys {unread}; it reads: {read}")
        for key, value in base.items():
            want = _config_type_error(key, value)
            if want:
                raise ValueError(f"{args.config}: config key {key!r} must be "
                                 f"{want}, got {value!r}")
    cfg = ExperimentConfig(**base)
    for key in names:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


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
    _add_config(p, "n", "group", "gamma")
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
    _add_config(p, "n", "group", "gamma", "output_dir")
    p.add_argument("--target", type=str, default="A", choices=TARGETS)
    p.add_argument("--out", type=str, default="spectrum.csv")

    p = sub.add_parser("compare", help="spectrum vs symbol adherence CSV")
    _add_config(p, "n", "group", "gamma", "output_dir")
    # the symbol sampling grid, which only a config file sets
    p.set_defaults(grid=None)
    p.add_argument("--target", type=str, default="A", choices=TARGETS)
    p.add_argument("--out", type=str, default="compare.csv")

    p = sub.add_parser("precond-spectrum",
                       help="singular values of the preconditioned system")
    _add_config(p, "n", "group", "gamma", "output_dir")
    p.add_argument("--out", type=str, default="precond_spectrum.csv")

    p = sub.add_parser("solve", help="one preconditioned solve")
    _add_config(p, "n", "group", "gamma", "case", "tol", "restart", "maxit",
                "seed", "output_dir")
    p.add_argument("--unpreconditioned", action="store_true")
    p.add_argument("--out", type=str, default="results.csv")

    # no abbreviations: --group, --case or --gamma would read as a list
    p = sub.add_parser("table", help="full iteration table", allow_abbrev=False)
    _add_config(p, "tol", "restart", "maxit", "seed", "output_dir")
    p.add_argument("--groups", type=_list_of(int), default="1,2,3")
    p.add_argument("--cases", type=_list_of(str), default="a,b,c")
    p.add_argument("--sizes", type=_list_of(int), default="8,16,32")
    p.add_argument("--gammas", type=_list_of(float), default="1,10,100")
    p.add_argument("--out", type=str, default="results.csv")

    p = sub.add_parser("example1", help="strip-viscosity benchmark")
    p.add_argument("--mu0", type=float, default=1.0)
    p.add_argument("--mu1", type=_list_of(float), default="1,100,10000,1000000")
    p.add_argument("--w", type=float, default=0.1)
    p.add_argument("--delta", type=_list_of(float), default="0")
    p.add_argument("--sizes", type=_list_of(int), default="20")
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
        cfg = _config_from_args(args).validate()
        system = assemble_saddle(build_mesh(cfg.n), cfg.viscosity())
        prefix = Path(args.export)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        blocks = {"A": system.stiffness, "Bx": system.div_x, "By": system.div_y,
                  "Mp": system.pressure_mass, "full": system.full_matrix()}
        for name, block in blocks.items():
            scipy.io.mmwrite(f"{prefix}_{name}.mtx", block, symmetry=(
                None if name in ("Bx", "By") else "symmetric"))
        print(f"wrote {prefix}_{{A,Bx,By,Mp,full}}.mtx")
        return 0

    if args.command == "symbol":
        mu = viscosity_for_group(args.group, args.gamma)
        syms = default_symbol_set()
        if args.dump:
            tables = {name: syms.by_name(name).to_json()
                      for name in ("stiffness", "stiffness_pre", "g0", "g1",
                                   "div_x", "div_y", "div_x0", "div_x1",
                                   "div_y0", "div_y1")}
            print(json.dumps(tables, indent=1))
            return 0
        sym = syms.by_name(args.name)
        thetas = (args.theta1, args.theta2)
        if sym.levels == 2:
            val = sym.eval(*thetas)
        else:
            val = sym.eval(thetas[syms.slice_angle(args.name)])
        if sym in (syms.stiffness, syms.stiffness_pre, syms.g0, syms.g1):
            val = float(mu(np.array([[args.x, args.y]]))[0]) * val
        print(json.dumps({"re": val.real.tolist(), "im": val.imag.tolist()},
                         indent=1))
        return 0

    if args.command in ("spectrum", "compare"):
        cfg = _config_from_args(args).validate()
        out = Path(cfg.output_dir) / args.out
        if args.command == "spectrum":
            vals = target_spectrum(args.target, build_mesh(cfg.n),
                                   cfg.viscosity())[0]
            _write_csv(out, cfg.header_lines() + [f"# target: {args.target}"],
                       ["index", "value"],
                       [[i, f"{v:.12e}"] for i, v in enumerate(vals)])
            print(f"wrote {out}")
        else:
            ks = emit_adherence_data(args.target, cfg, out)
            print(f"wrote {out}; ks_distance={ks:.6f}")
        return 0

    if args.command == "precond-spectrum":
        cfg = _config_from_args(args).validate()
        if cfg.n > 16:
            raise SystemExit("precond-spectrum computes densely; use n <= 16")
        mu = cfg.viscosity()
        mesh = build_mesh(cfg.n)
        system = assemble_saddle(mesh, mu)
        prec = build_saddle_preconditioner(mesh, mu, system)
        PM = prec.apply(system.full_matrix().toarray())
        sv = singular_values(PM)
        out = Path(cfg.output_dir) / args.out
        inside = np.mean((sv >= 0.5) & (sv <= 2.0))
        _write_csv(out, cfg.header_lines() +
                   [f"# fraction_in_[0.5,2]: {inside:.6f}"],
                   ["index", "singular_value"],
                   [[i, f"{v:.12e}"] for i, v in enumerate(sv)])
        print(f"wrote {out}; fraction in [1/2,2] = {inside:.4f}")
        return 0

    if args.command == "solve":
        cfg = _config_from_args(args).validate()
        out = Path(cfg.output_dir) / args.out
        new = not out.exists()
        columns = ",".join(SOLVE_COLUMNS)
        if not new:
            with open(out) as fh:
                first = fh.readline().rstrip("\n")
            if first != columns:
                raise SystemExit(f"{out} does not start with the solve "
                                 f"columns {columns}; not appending to it")
        row = run_solve_cell(cfg, preconditioned=not args.unpreconditioned)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(SOLVE_COLUMNS)
            writer.writerow([str(row[k]) for k in SOLVE_COLUMNS])
        print(json.dumps(row, indent=1, default=str))
        return 0

    if args.command == "table":
        cfg = _config_from_args(args)
        configs = [replace(cfg, n=n, group=g, gamma=gamma, case=case).validate()
                   for g in args.groups
                   for gamma in (args.gammas if g == 3 else [None])
                   for case in args.cases for n in args.sizes]
        out = Path(cfg.output_dir) / args.out
        meta = {"groups": args.groups, "cases": args.cases,
                "sizes": args.sizes, "gammas": args.gammas, "tol": cfg.tol,
                "restart": cfg.restart, "maxit": cfg.maxit, "seed": cfg.seed}
        rows = run_group_table(configs, out, meta)
        print(f"wrote {out} with {len(rows)} cells")
        return 0

    # example1, the last command
    out = Path(args.out)
    rows = run_example1(args.mu0, args.mu1, args.w, args.delta, args.sizes,
                        out, tol=args.tol)
    print(f"wrote {out} with {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
