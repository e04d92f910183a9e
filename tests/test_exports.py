"""Every name a package exports resolves, so ``import *`` cannot fail on
a stale entry."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["blsces", "blsces.groups", "blsces.zk"])
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
