import ast
import functools
import importlib
import importlib.util
import pkgutil
import tomllib
from pathlib import Path

import pytest

import glt_stokes
from glt_stokes import symbols

BENCH = Path(__file__).resolve().parents[1] / "bench"

MODULES = [glt_stokes] + [
    importlib.import_module(f"glt_stokes.{info.name}")
    for info in pkgutil.iter_modules(glt_stokes.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def _identifiers_of(tree):
    """Every name a syntax tree reads: the names it loads, its attributes
    and its imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


@functools.cache
def _identifiers(path):
    """Every name a Python file reads (`_identifiers_of` its tree)."""
    return _identifiers_of(ast.parse(path.read_text()))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_used_elsewhere(module):
    # a public name nothing outside its module uses is a helper to delete
    # or to make module-internal
    root = BENCH.parent
    used = set().union(*(
        _identifiers(path) for folder in ("src", "tests", "bench")
        for path in (root / folder).rglob("*.py")
        if path.resolve() != Path(module.__file__).resolve()))
    assert [name for name in getattr(module, "__all__", [])
            if name not in used] == []


def _program_entry_names():
    """The names the program is entered by from outside `src/`: its
    console entry point and the hooks of bench/recorder.py (`Class.method`
    counting both parts)."""
    root = BENCH.parent
    scripts = tomllib.loads((root / "pyproject.toml").read_text())[
        "project"]["scripts"]
    recorder = _load_bench_module("recorder")
    hooks = {**recorder.SETUP_HOOKS, **recorder.TRACE_HOOKS}
    return ({target.rpartition(":")[2] for target in scripts.values()}
            | {part for _, attr in hooks for part in attr.split(".")})


def test_src_definitions_reached_outside_tests():
    # a checker or a reference that only tests call lives in tests/, so a
    # module-level function or class of src/ must be named by other code
    # of src/ (the package's re-exports aside), by bench/*.py, by a bench
    # hook or by the console entry point
    root = BENCH.parent
    sources = sorted(p for p in (root / "src").rglob("*.py")
                     if p.name != "__init__.py")
    bench = set().union(*map(_identifiers, BENCH.glob("*.py")))
    outside = bench | _program_entry_names()
    unreached = []
    for path in sources:
        body = ast.parse(path.read_text()).body
        reads = [_identifiers_of(stmt) for stmt in body]
        others = set().union(*(_identifiers(p) for p in sources if p != path))
        for i, node in enumerate(body):
            # the module's own other statements count, its own body not
            own = set().union(*reads[:i], *reads[i + 1:])
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in outside | others | own):
                unreached.append(f"{path.stem}.{node.name}")
    assert unreached == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path):
    """The scope (`module.function`, or `module` at module level) of every
    use of os.environ or os.getenv in a Python file, as an attribute of
    `os` or imported from it."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr in _ENVIRONMENT
                    and ast.unparse(child.value) == "os") or (
                    isinstance(child, ast.ImportFrom) and child.module == "os"
                    and {a.name for a in child.names} & _ENVIRONMENT):
                reads.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return reads


def test_src_reads_no_environment():
    # an output or a thread decision must not depend on the process
    # environment, so the package reads none of it
    reads = [scope for path in sorted((BENCH.parent / "src").rglob("*.py"))
             for scope in _environment_reads(path)]
    assert reads == []


def _defaulted_parameters(path):
    """(function, parameter, positional index or None) of every parameter
    with a default of a function or method a Python file defines, dunders
    aside; a method's index counts from the argument after self or cls."""
    tree = ast.parse(path.read_text())
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    params = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = id(node) in methods and not any(
            ast.unparse(d) == "staticmethod" for d in node.decorator_list)
        first = len(positional) - len(args.defaults)
        params += [(node.name, arg.arg, i - bound)
                   for i, arg in enumerate(positional) if i >= first]
        params += [(node.name, arg.arg, None)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
    return params


@functools.cache
def _calls(path):
    """(called name, positional count, keyword names) of every call in a
    Python file; a `*` argument counts as every position, and a `**`
    argument as every keyword (the name None)."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((name, float("inf") if starred else len(node.args),
                          {k.arg for k in node.keywords}))
    return calls


def test_defaulted_parameters_passed_somewhere():
    # a default that no call overrides is a knob nothing sets: a constant
    # to write into the function body
    root = BENCH.parent
    calls = [call for folder in ("src", "tests", "bench")
             for path in (root / folder).rglob("*.py") for call in _calls(path)]
    unset = [f"{path.stem}.{func}.{param}"
             for path in sorted((root / "src").rglob("*.py"))
             for func, param, index in _defaulted_parameters(path)
             if not any(name == func and (param in keys or None in keys
                                          or (index is not None
                                              and npos > index))
                        for name, npos, keys in calls)]
    assert unset == []


def _private_definitions(path):
    """The module-level `_name`s (dunders aside) a Python file defines as a
    function, a class or an assigned constant."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [leaf.id for target in targets
                      for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def test_private_names_read_somewhere():
    # a module-level private name that no file reads is dead code to delete
    root = BENCH.parent
    used = set().union(*(_identifiers(path)
                         for folder in ("src", "tests", "bench")
                         for path in (root / folder).rglob("*.py")))
    unread = [f"{path.stem}.{name}"
              for path in sorted((root / "src").rglob("*.py"))
              for name in _private_definitions(path) if name not in used]
    assert unread == []


def _attribute_reads(path):
    """Every attribute a Python file reads (loads) by name."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_dataclass_fields_read_somewhere():
    # a dataclass field nothing reads as an attribute is state to delete
    root = BENCH.parent
    reads = set().union(*(_attribute_reads(path)
                          for folder in ("src", "tests", "bench")
                          for path in (root / folder).rglob("*.py")))
    unread = []
    for path in sorted((root / "src").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                unread += [f"{cls.name}.{node.target.id}" for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and node.target.id not in reads]
    assert unread == []


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_resolve():
    # bench/recorder.py wraps these (module, attribute) pairs by name, so a
    # renamed function fails here rather than in a benchmark run
    recorder = _load_bench_module("recorder")
    hooks = {**recorder.SETUP_HOOKS, **recorder.TRACE_HOOKS}
    assert hooks
    missing = []
    for module, attr in hooks:
        owner = importlib.import_module(f"{recorder.PACKAGE}.{module}")
        try:
            target = functools.reduce(getattr, attr.split("."), owner)
        except AttributeError:
            target = None
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_bench_symbol_reset_starts_cold(monkeypatch):
    # bench/workloads.py starts every round from a cold symbol set by
    # clearing symbols._SET (it imports bench/checks.py as `checks`); the
    # next default_symbol_set must build anew
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = _load_bench_module("workloads")
    before = symbols.default_symbol_set()
    assert symbols.default_symbol_set() is before
    workloads.reset_symbol_cache()
    after = symbols.default_symbol_set()
    assert after is not before
    assert symbols.default_symbol_set() is after


def _workloads_attribute_reads():
    """Dotted names `module.attr[.attr...]` of every glt_stokes module
    attribute that bench/workloads.py reads, by the names it imports the
    modules as."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "glt_stokes"
               for alias in node.names}
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.add(".".join([modules[node.id]] + chain))
    return reads


def test_bench_workload_calls_resolve():
    # bench/workloads.py calls the program through its modules' attributes,
    # so a renamed function or class fails here rather than in a benchmark run
    reads = _workloads_attribute_reads()
    assert {"cli.emit_adherence_data", "cli.example1_conformity",
            "precond.SPDSolver", "assembly.ViscosityField.example1",
            "spectra.wathen_condition_number", "symbols._SET"} <= reads
    missing = []
    for name in sorted(reads):
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"glt_stokes.{module}")
        try:
            functools.reduce(getattr, attrs, owner)
        except AttributeError:
            missing.append(name)
    assert missing == []
