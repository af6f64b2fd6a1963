"""numpy and mpmath, each imported on the first attribute access.

``ap`` and ``witness`` use neither, so a process that runs only them never
pays for their import.  A module that is already imported is returned as it
is; on first use a lazy one turns into the module itself, so later accesses
cost nothing extra.  A missing module raises ModuleNotFoundError here, when
the package is imported.
"""

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
mpmath = _lazy("mpmath")
