"""Every exported name resolves: ``from hsmc import *`` and its modules' ``*`` never
name something that is gone."""

import importlib
import pkgutil

import pytest

import hsmc

# the package and each of its modules that declares ``__all__``
MODULES = [m for m in (hsmc, *(importlib.import_module(f"hsmc.{info.name}")
                               for info in pkgutil.iter_modules(hsmc.__path__)))
           if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_is_an_attribute(module):
    assert [e for e in module.__all__ if not hasattr(module, e)] == []


def test_the_package_exports_each_name_once():
    assert len(hsmc.__all__) == len(set(hsmc.__all__))
