import importlib
import pkgutil

import pytest

import dualbid

MODULES = ["dualbid"] + [
    f"dualbid.{info.name}"
    for info in pkgutil.iter_modules(dualbid.__path__)
    if not info.name.startswith("_")
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_modules_export_names():
    assert "dualbid.mmkp" in EXPORTING and "dualbid.sim" in EXPORTING


@pytest.mark.parametrize("name", EXPORTING)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
