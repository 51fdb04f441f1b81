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
