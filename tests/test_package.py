"""The names the `cwwkit` package exports."""

import os
import subprocess
import sys
import types

import cwwkit


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
