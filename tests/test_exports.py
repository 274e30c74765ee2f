"""Every name a vertipy module lists in `__all__` resolves."""

import importlib
import pkgutil

import vertipy


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(vertipy.__path__):
        module = importlib.import_module(f"vertipy.{info.name}")
        missing += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []
