import importlib

import quadsuite


def test_every_export_resolves():
    for name in quadsuite.__all__:
        assert getattr(quadsuite, name) is not None, name


def test_export_table_matches_module_all():
    # the package table and each module's __all__ must list the same names
    for module, names in quadsuite._EXPORTS.items():
        mod = importlib.import_module(f"quadsuite.{module}")
        assert names == getattr(mod, "__all__", names), module
