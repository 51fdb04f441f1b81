import ast
import functools
import importlib
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ImportError:   # in the standard library from 3.11 on
    tomllib = None

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"] if tomllib else None
# the pyproject.toml checks need tomllib; the AST guards below need no TOML
needs_tomllib = pytest.mark.skipif(tomllib is None, reason="tomllib is new in Python 3.11")


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "resdyn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_modules() -> dict[str, str]:
    """Each declared runtime dependency's import name, mapped to its name."""
    names = (re.match(r"[A-Za-z0-9_.-]+", r).group(0) for r in PROJECT["dependencies"])
    return {name.lower().replace("-", "_"): name for name in names}


@needs_tomllib
def test_every_runtime_dependency_is_imported():
    used = imported_top_level_modules()
    for module, name in declared_modules().items():
        assert module in used, f"{name} is declared but never imported"


@needs_tomllib
def test_every_imported_module_is_stdlib_or_declared():
    # an undeclared package imports fine wherever it happens to be installed
    # (say orjson) and fails wherever resdyn is installed from its metadata
    undeclared = (imported_top_level_modules() - set(sys.stdlib_module_names)
                  - set(declared_modules()))
    assert not undeclared, f"imported but neither stdlib nor declared: {sorted(undeclared)}"


@needs_tomllib
def test_every_script_target_resolves():
    for script, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script} -> {target} is not callable"


def public_symbols(tree: ast.Module) -> list[tuple[str, str]]:
    """(symbol, the name code refers to it by) for each public top-level
    name, and for each public method or property of a public class, which
    code refers to by its attribute name; dunders are not public."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name))
        elif isinstance(node, ast.Assign):
            found += [(t.id, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node.target.id))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [(f"{node.name}.{fn.name}", fn.name) for fn in node.body
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(symbol, name) for symbol, name in found if not name.startswith("_")]


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read, attributes accessed and names imported: every way code
    can refer to a symbol other than by defining or assigning it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


@functools.cache
def parsed(folder: str) -> tuple[tuple[Path, ast.Module], ...]:
    """(path, syntax tree) of each Python file under `folder`, sorted."""
    return tuple((path, ast.parse(path.read_text()))
                 for path in sorted((ROOT / folder).rglob("*.py")))


def unreferenced_symbols(folders: tuple[str, ...]) -> list[str]:
    """`module.symbol` of each public `src/` symbol (`module.Class.method`
    for a method) that nothing in `folders` refers to."""
    referenced = set()
    for folder in folders:
        for _, tree in parsed(folder):
            referenced |= referenced_names(tree)
    return [f"{path.stem}.{symbol}" for path, tree in parsed("src/resdyn")
            for symbol, name in public_symbols(tree) if name not in referenced]


def test_every_public_symbol_has_a_caller():
    orphans = unreferenced_symbols(("src", "tests", "perfbench"))
    assert not orphans, f"public symbols nothing refers to: {orphans}"


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def is_init_false(value: ast.expr) -> bool:
    """A `field(..., init=False)`: a field that is not a constructor parameter."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords)


def optional_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(call name, parameter, position) for each defaulted, non-underscore
    parameter of a public function, of a method of a public class, or of a
    public dataclass's constructor (a field with a default). A constructor
    is called by its class name; a keyword-only parameter has no position."""
    found = []

    def add(call_name: str, fn: ast.FunctionDef, skip_first: bool) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        positional = positional[1:] if skip_first else positional
        for arg in defaulted:
            found.append((call_name, arg.arg, positional.index(arg)))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((call_name, arg.arg, None))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node.name, node, skip_first=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if is_dataclass(node):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                          and isinstance(f.target, ast.Name)]
                found += [(node.name, f.target.id, i) for i, f in enumerate(fields)
                          if f.value is not None and not is_init_false(f.value)]
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                add(node.name if fn.name == "__init__" else fn.name, fn,
                    skip_first=not static)
    return [f for f in found if not f[1].startswith("_")]


def parameters_passed(tree: ast.AST) -> set[tuple[str, str | int]]:
    """(called name, keyword) and (called name, position) for every call;
    a `*args` sets every position, a `**{...}` whose keys are all string
    literals sets those keywords, and any other `**` every keyword."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args):
            passed.add((name, "*"))
        passed.update((name, i) for i in range(len(node.args)))
        for kw in node.keywords:
            if kw.arg is not None:
                passed.add((name, kw.arg))
            elif isinstance(kw.value, ast.Dict) and all(
                    isinstance(k, ast.Constant) and isinstance(k.value, str)
                    for k in kw.value.keys):
                passed.update((name, k.value) for k in kw.value.keys)
            else:
                passed.add((name, "**"))
    return passed


def unset_parameters(folders: tuple[str, ...]) -> list[str]:
    """`module.call(parameter)` of each optional parameter of `src/` that
    nothing in `folders` sets."""
    passed = set()
    for folder in folders:
        for _, tree in parsed(folder):
            passed |= parameters_passed(tree)
    unset = []
    for path, tree in parsed("src/resdyn"):
        for name, param, position in optional_parameters(tree):
            ways = {(name, param), (name, "**")}
            if position is not None:
                ways |= {(name, position), (name, "*")}
            if not ways & passed:
                unset.append(f"{path.stem}.{name}({param})")
    return unset


def test_every_optional_parameter_is_set():
    """A defaulted parameter that no caller sets has one value in use: it
    is a constant, not a setting."""
    unset = unset_parameters(("src", "tests", "perfbench"))
    assert not unset, f"optional parameters no caller sets: {unset}"


# Surface that only tests/ reaches, mapped to the ROADMAP item that gives
# it a caller in src/ or perfbench/, or deletes it.
ONLY_TESTS_REACH = {
    "core.write_log_csv": 1,            # the CLI writes logs
    "core.parse_log_row": 3,            # columnar logs replace it
    "dynamics.MlpDynamicModel.save": 1,  # the CLI's train writes DM-LB checkpoints
    "dynamics.MlpDynamicModel.load": 1,  # and its rollout reads them
    "encoders.encode(train)": 1,        # the joint trainer trains with dropout
    "encoders.encode(rng)": 1,
    **{f"scenarios.OracleParams({field})": 4 for field in (   # randomized vehicles
        "mass", "yaw_inertia", "lf", "lr", "cornering_front", "cornering_rear",
        "max_front_wheel_angle", "throttle_gain", "brake_gain", "throttle_deadzone",
        "brake_deadzone", "throttle_tau", "steering_tau", "rolling_resistance",
        "drag_coeff", "low_speed_blend")},
    "scenarios.oracle_log(params)": 13,  # the shifted-vehicle stress set
    "svgp.VariationalGP(num_tasks)": 1,  # full-state targets, one task each
    "svgp.VariationalGP(input_mean)": 2,  # the GP's own z-scoring goes
    "svgp.VariationalGP(input_std)": 2,
}


def test_surface_only_tests_reach_is_listed():
    """The two guards above count tests/ as a caller, so what only tests
    use passes them; it is listed here until it has a real caller."""
    found = set(unreferenced_symbols(("src", "perfbench"))
                + unset_parameters(("src", "perfbench")))
    unlisted = sorted(found - set(ONLY_TESTS_REACH))
    assert not unlisted, f"only tests/ reaches these, and ONLY_TESTS_REACH lacks them: {unlisted}"
    reached = sorted(set(ONLY_TESTS_REACH) - found)
    assert not reached, f"listed in ONLY_TESTS_REACH, but src/ or perfbench/ reaches them " \
                        f"or they are gone: {reached}"


def test_optional_parameter_guard_sees_dataclass_fields_and_literal_keys():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(default=0, init=False)\n")
    assert optional_parameters(tree) == [("Spec", "b", 1), ("Spec", "c", 2)]
    assert parameters_passed(ast.parse("Spec(**{'b': 2})")) == {("Spec", "b")}
    assert parameters_passed(ast.parse("Spec(**{key: 2})")) == {("Spec", "**")}
    assert parameters_passed(ast.parse("Spec(**kw)")) == {("Spec", "**")}


def test_symbol_guard_sees_public_methods_and_properties():
    tree = ast.parse(
        "class Model:\n"
        "    def __init__(self): pass\n"
        "    def save(self): pass\n"
        "    @property\n"
        "    def width(self): pass\n"
        "    def _fit(self): pass\n"
        "class _Plan:\n"
        "    def cruise(self): pass\n")
    assert public_symbols(tree) == [("Model", "Model"), ("Model.save", "save"),
                                    ("Model.width", "width")]


def public_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Public top-level functions, and the constructor and public methods
    of public classes."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [fn for fn in node.body if isinstance(fn, ast.FunctionDef)
                      and (fn.name == "__init__" or not fn.name.startswith("_"))]
    return found


def test_no_public_signature_takes_keyword_catchall():
    """The guard above sees only named parameters, and every option passed
    through a `**` parameter would look set to it."""
    found = [f"{path.stem}.{fn.name}(**{fn.args.kwarg.arg})"
             for path in sorted((ROOT / "src" / "resdyn").glob("*.py"))
             for fn in public_functions(ast.parse(path.read_text()))
             if fn.args.kwarg is not None]
    assert not found, f"public signatures with a ** parameter: {found}"


def node_protocol_sites(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function or class path, line) of each store to a
    `._backward` or `._parents` attribute and each `_parents=` keyword."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store)
                    and child.attr in ("_backward", "_parents")
                    or isinstance(child, ast.keyword) and child.arg == "_parents"):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_node_records_a_backward():
    """A graph node is built one way, by `autodiff._node`; `Tensor.__init__`
    sets the fields it records."""
    allowed = {("autodiff", "_node"), ("autodiff", "Tensor.__init__")}
    found = [f"{path.stem}.py:{line} in {scope or '<module>'}"
             for path in sorted((ROOT / "src" / "resdyn").glob("*.py"))
             for scope, line in node_protocol_sites(ast.parse(path.read_text()))
             if (path.stem, scope) not in allowed]
    assert not found, f"graph nodes recorded outside autodiff._node: {found}"
