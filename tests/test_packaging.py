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
