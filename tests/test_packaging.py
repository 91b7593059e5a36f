"""Every exported name resolves: the package's ``__all__`` and each module's."""

import importlib
import pkgutil

import ttdbeam


def test_package_exports_resolve():
    assert [name for name in ttdbeam.__all__ if not hasattr(ttdbeam, name)] == []


def test_module_exports_resolve():
    modules = [importlib.import_module(info.name) for info in pkgutil.iter_modules(ttdbeam.__path__, "ttdbeam.")]
    assert {"ttdbeam.core", "ttdbeam.dictionary", "ttdbeam.hdb"} <= {module.__name__ for module in modules}
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
