"""The names the `cwwkit` package exports."""

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
