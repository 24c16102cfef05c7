"""Square-root minimum-volume NMF: solvers, metrics, data generators.

Every name in a library module's ``__all__`` is a package attribute,
loaded on first use: submodules import numpy lazily through this package
interface, so process-level knobs (BLAS thread caps, warnings filters) can
be set before any numerical code loads.
"""

import importlib

__version__ = "0.1.0"

# The library modules, each after the ones it imports, so that finding a
# name loads little besides its own module.  ``cli`` is not one: importing
# it sets the BLAS thread variables.
_MODULES = (
    "errors", "linalg", "projections", "fgm", "matrixio", "metrics", "datagen",
    "initialization", "baseline", "solver", "sweep",
)


def _modules():
    return (importlib.import_module(f".{name}", __name__) for name in _MODULES)


def __getattr__(name):
    if name == "__all__":
        value = [public for module in _modules() for public in module.__all__]
        value.append("__version__")
    else:
        # A submodule's name is not searched for: ``from sqrtminvol import cli``
        # must import cli alone, before numpy loads.
        search = () if name in (*_MODULES, "cli") else _modules()
        module = next((m for m in search if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __getattr__("__all__")
