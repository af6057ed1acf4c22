"""numpy for the modules that build arrays: ``bipoly``, ``graphs``, ``oracle``.

numpy's import costs more than the rest of the package's, and the scalar
commands (``eval``, ``invariants``, ``reliability``) never make an array.
So ``np`` is numpy loaded lazily, by the recipe in the ``importlib``
documentation: the module is registered in ``sys.modules`` at once, and
numpy's own code runs at its first attribute access, such as the first
``np.array``.  If numpy is already imported, ``np`` is that module.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
