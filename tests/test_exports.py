"""Every name a dsff_lab module lists in __all__ exists in that module.

A name dropped from a module but left in its __all__ breaks
`from dsff_lab.<module> import *`; this catches it in the tier-1 run.
"""
import importlib
import pkgutil

import pytest

import dsff_lab

MODULES = [info.name for info in pkgutil.iter_modules(dsff_lab.__path__)]


def test_every_module_is_walked():
    assert {"bessel", "cli", "estimator", "quadrature", "theory", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"dsff_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from dsff_lab.{name} import *", namespace)
