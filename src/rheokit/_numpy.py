"""Modules imported on first attribute use: numpy, so start-up paths that never
touch an array (``simulate``, ``--dump-model``) do not load it, and the sampled
transforms of ``convex_core``, which no CLI command loads."""

import importlib


class _Lazy:
    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):  # later lookups find the value bound here and skip this hook
        value = self.__dict__[name] = getattr(importlib.import_module(self._module), name)
        return value


np = _Lazy("numpy")
