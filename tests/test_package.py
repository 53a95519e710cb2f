"""The names the `cwwkit` package exports."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import cwwkit

ROOT = Path(__file__).resolve().parent.parent


def test_all_lists_every_imported_public_name_once():
    exported = cwwkit.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(cwwkit, name), name
    imported = {name for name, value in vars(cwwkit).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == imported


def test_cli_import_loads_no_json_and_no_dataclasses():
    # a fresh interpreter: this one has imported json and every module already
    probe = (
        "import sys, cwwkit.cli\n"
        "print('json' in sys.modules, 'dataclasses' in sys.modules)\n"
        "print(sum(hasattr(value, '__dataclass_fields__') and isinstance(value, type)\n"
        "          for name, module in list(sys.modules.items())\n"
        "          if name.split('.')[0] == 'cwwkit'\n"
        "          for value in vars(module).values()\n"
        "          if getattr(value, '__module__', None) == name))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=60, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert result.returncode == 0, result.stderr
    json_loaded, dataclasses_loaded, dataclass_types = result.stdout.split()
    assert json_loaded == "False"
    assert dataclasses_loaded == "False"
    assert dataclass_types == "0"


def _unused_imports(path):
    """Names a file's top-level imports bind and the file never reads."""
    text = path.read_text("utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unused


def test_no_module_or_test_imports_an_unused_name():
    # __init__.py imports to re-export; benchmarks/ is not scanned
    paths = [path for path in sorted((ROOT / "src" / "cwwkit").glob("*.py"))
             if path.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    assert [name for path in paths for name in _unused_imports(path)] == []
