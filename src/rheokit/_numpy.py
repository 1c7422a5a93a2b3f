"""numpy, imported on first attribute use, so start-up paths that never
touch an array (``simulate``, ``--dump-model``) do not load it."""


class _Numpy:
    def __getattr__(self, name):
        import numpy

        value = self.__dict__[name] = getattr(numpy, name)  # later lookups skip this hook
        return value


np = _Numpy()
