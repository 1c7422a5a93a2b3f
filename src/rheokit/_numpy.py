"""Modules imported on first attribute use: numpy, so start-up paths that never
touch an array (``simulate``, ``--dump-model``) do not load it, the sampled
transforms of ``convex_core``, which no CLI command loads, and (``_served``) the
modules that define the names another module hands out."""

import importlib


class _Lazy:
    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):  # later lookups find the value bound here and skip this hook
        value = self.__dict__[name] = getattr(importlib.import_module(self._module), name)
        return value


np = _Lazy("numpy")


def _served(module, where):
    """A ``__getattr__`` (PEP 562) for ``module``, serving each name of ``where`` from the
    rheokit module it maps to, imported at the first read of one."""
    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"rheokit.{where[name]}"), name)

    return __getattr__
