"""The package runs on the standard library alone: every import in
``src/torsionforms``, at module level or inside a function, is relative or
names a standard-library module.  Importing the CLI loads none of the
slower standard modules the value types once needed."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torsionforms"
MODULES = sorted(PACKAGE.glob("*.py"))


def _absolute_imports(path: Path) -> list:
    """(line, top-level module) of every absolute import in the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_every_module_is_walked():
    assert {"__init__.py", "cli.py", "thue.py"} <= {path.name for path in MODULES}


def test_nested_imports_are_seen():
    # cli imports multiprocessing inside cmd_scan
    assert "multiprocessing" in {name for _, name in _absolute_imports(PACKAGE / "cli.py")}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_relative_or_stdlib(path):
    outside = [(line, name) for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports outside the standard library"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: a .pth file in site-packages may import typing itself
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import torsionforms.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
