"""Phase timing and span tracing for the benchmark.

Every timed piece of benchmark code runs through `Recorder.run`, either as
set-up or as solve work.  Time spent inside the program's set-up entry
points (mesh, assembly, symbol set, preconditioner builds) counts as set-up
even when a program driver calls them from a solve operation, so those
entry points are hooked in every run.  A traced run hooks the solve-side
entry points as well and records one span per hooked call; spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) -> span name.  The attribute may be `Class.method`.
SETUP_HOOKS = {
    ("mesh", "build_mesh"): "mesh.build",
    ("assembly", "assemble_saddle"): "assembly.assemble",
    ("assembly", "assemble_stiffness"): "assembly.assemble",
    ("assembly", "assemble_divergence"): "assembly.assemble",
    ("assembly", "assemble_pressure_mass"): "assembly.assemble",
    ("assembly", "SaddleSystem.full_matrix"): "assembly.assemble",
    ("symbols", "build_symbol_set"): "symbols.build",
    ("precond", "tau_block_core"): "precond.tau_core",
    ("precond", "build_velocity_preconditioner"): "precond.velocity_build",
    ("precond", "build_schur"): "precond.schur_build",
}

TRACE_HOOKS = {
    ("precond", "SaddlePreconditioner.apply"): "precond.apply",
    ("solvers", "gmres"): "solvers.gmres",
    ("solvers", "minres"): "solvers.minres",
    ("spectra", "symmetric_eigenvalues"): "spectra.eig",
    ("spectra", "singular_values"): "spectra.svd",
    ("spectra", "sample_symbol"): "spectra.symbol_sample",
    ("spectra", "sample_saddle_symbol"): "spectra.symbol_sample",
    ("spectra", "weyl_distance"): "spectra.ks",
    ("spectra", "wathen_condition_number"): "spectra.pencil",
    ("spectra", "saddle_pencil_eigenvalues"): "spectra.pencil",
}

# span names whose self time is reported under their own name; the self
# time of every other span (the benchmark's operation spans, program glue
# such as CSV writing) is reported as trace.other_s
LAYERS = sorted(set(SETUP_HOOKS.values()) | set(TRACE_HOOKS.values())
                | {"solvers.matvec", "precond.mass_build", "spectra.precond_sv"})

PACKAGE = "glt_stokes"


class Recorder:
    """Accumulates set-up and total timed seconds; records spans if `trace`.

    A span is (id, name, parent id, root id, start, end), times in seconds
    from `time.perf_counter`.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.timed_s = 0.0
        self.setup_s = 0.0
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._setup_depth = 0
        self._region_depth = 0
        self._patches: list[tuple] = []

    @property
    def solve_s(self) -> float:
        return self.timed_s - self.setup_s

    def _call(self, name: str, setup: bool, fn, args, kwargs):
        if not self._region_depth:
            # untimed work, such as the correctness checks
            return fn(*args, **kwargs)
        sid = None
        if self.trace:
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            root = self._stack[0] if self._stack else sid
            self._stack.append(sid)
        if setup:
            self._setup_depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            if setup:
                self._setup_depth -= 1
                if self._setup_depth == 0:
                    self.setup_s += t1 - t0
            if sid is not None:
                self._stack.pop()
                self.spans.append((sid, name, parent, root, t0, t1))

    def run(self, phase: str, name: str, fn, *args, **kwargs):
        """Time one top-level piece of benchmark work as `phase` ("setup"
        or "solve"); only time inside `run` counts towards the metrics."""
        if phase not in ("setup", "solve"):
            raise ValueError(f"unknown phase {phase!r}")
        self._region_depth += 1
        t0 = time.perf_counter()
        try:
            return self._call(name, phase == "setup", fn, args, kwargs)
        finally:
            self.timed_s += time.perf_counter() - t0
            self._region_depth -= 1

    def traced(self, name: str, fn):
        """`fn` wrapped in a span when tracing, else `fn` itself."""
        if not self.trace:
            return fn

        def wrapper(*args, **kwargs):
            return self._call(name, False, fn, args, kwargs)
        return wrapper

    # -- hooks on the program's module attributes -------------------------

    def __enter__(self):
        hooks = dict(SETUP_HOOKS)
        if self.trace:
            hooks.update(TRACE_HOOKS)
        for (module, attr), name in hooks.items():
            self._hook(module, attr, name, (module, attr) in SETUP_HOOKS)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _hook(self, module: str, attr: str, name: str, setup: bool):
        mod = importlib.import_module(f"{PACKAGE}.{module}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, fn_name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, setup, original, args, kwargs)

        if owner_name:
            self._patch(owner, fn_name, original, wrapper)
            return
        # `from .x import f` copies the binding, so rebind it everywhere
        for mname, m in list(sys.modules.items()):
            if mname == PACKAGE or mname.startswith(PACKAGE + "."):
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per layer: span duration minus its children's."""
        child = {}
        for sid, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {name: 0.0 for name in LAYERS}
        out["trace.other"] = 0.0
        for sid, name, _, _, t0, t1 in self.spans:
            key = name if name in out else "trace.other"
            out[key] += (t1 - t0) - child.get(sid, 0.0)
        return out

    def counts(self) -> dict:
        out: dict = {}
        for span in self.spans:
            out[span[1]] = out.get(span[1], 0) + 1
        return out

    def span_records(self, origin: float) -> list[dict]:
        return [{"id": s[0], "name": s[1], "parent": s[2], "root": s[3],
                 "start": s[4] - origin, "end": s[5] - origin}
                for s in sorted(self.spans)]


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one span around an empty call, in seconds."""
    rec = Recorder(trace=True)
    noop = rec.traced("noop", lambda: None)

    def loop():
        for _ in range(samples):
            noop()
    rec.run("solve", "calibration", loop)
    return rec.timed_s / samples
