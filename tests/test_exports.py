import importlib
import pkgutil

import pytest

import reluphase

# Every module but __main__, whose import would run the CLI.
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(reluphase.__path__, "reluphase.")
    if info.name != "reluphase.__main__"
)


def test_package_exports_resolve():
    missing = [name for name in reluphase.__all__ if not hasattr(reluphase, name)]
    assert missing == []
    assert len(set(reluphase.__all__)) == len(reluphase.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_star_import():
    namespace = {}
    exec("from reluphase import *", namespace)
    assert set(reluphase.__all__) <= set(namespace)
