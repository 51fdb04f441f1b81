import ast
import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "resdyn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_runtime_dependency_is_imported():
    used = imported_top_level_modules()
    for requirement in PROJECT["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        assert name.lower().replace("-", "_") in used, f"{name} is declared but never imported"


def test_every_script_target_resolves():
    for script, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {script} -> {target} is not callable"


def public_top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


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


def test_every_public_symbol_has_a_caller():
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced |= referenced_names(ast.parse(path.read_text()))
    orphans = []
    for path in sorted((ROOT / "src" / "resdyn").glob("*.py")):
        tree = ast.parse(path.read_text())
        orphans += [f"{path.stem}.{n}" for n in public_top_level_names(tree)
                    if n not in referenced]
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


def test_every_optional_parameter_is_set():
    """A defaulted parameter that no caller sets has one value in use: it
    is a constant, not a setting."""
    passed = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            passed |= parameters_passed(ast.parse(path.read_text()))
    unset = []
    for path in sorted((ROOT / "src" / "resdyn").glob("*.py")):
        for name, param, position in optional_parameters(ast.parse(path.read_text())):
            ways = {(name, param), (name, "**")}
            if position is not None:
                ways |= {(name, position), (name, "*")}
            if not ways & passed:
                unset.append(f"{path.stem}.{name}({param})")
    assert not unset, f"optional parameters no caller sets: {unset}"


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
