"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import cgsws


def test_every_exported_name_resolves():
    modules = [cgsws] + [importlib.import_module(f"cgsws.{info.name}")
                         for info in pkgutil.iter_modules(cgsws.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"exported but not defined: {missing}"
