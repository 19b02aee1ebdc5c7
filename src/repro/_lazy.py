"""Third-party modules bound at import and executed on first use.

``from repro._lazy import numpy as np`` binds ``np`` without running
numpy's body: an :class:`importlib.util.LazyLoader` module runs it on
its first attribute access (``np.zeros``).  A process that never calls
into numpy or networkx never pays their import (about 0.3 s each), and
the binding takes the one line that ``import numpy as np`` took.  That
matters in the app modules, whose golden traces pin each event's
``file:line`` label.

Before Python 3.12, two threads that touch a lazy module for the first
time at once can race.  So a process loads what its workers or threads
will run, with :func:`preload`, before it forks them or starts them;
:func:`bound_in` says which lazy modules a module uses.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from types import ModuleType
from typing import List

__all__ = ["bound_in", "preload"]

#: The modules this package binds lazily.
LAZY = frozenset({"networkx", "numpy"})


def __getattr__(name: str) -> ModuleType:
    """``from repro._lazy import numpy``: the module, its body not yet run."""
    if name not in LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.loader is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def preload(*names: str) -> None:
    """Import each named module and run its body now, lazy binding or not."""
    for name in names:
        # The first attribute access runs a lazily bound module's body.
        getattr(importlib.import_module(name), "__name__")


def bound_in(module: ModuleType) -> List[str]:
    """The lazily bound modules ``module`` binds at its top level.

    An identity test against ``sys.modules``, so it runs no module body.
    """
    found = []
    for name in sorted(LAZY):
        lazy = sys.modules.get(name)
        if lazy is not None and any(v is lazy for v in vars(module).values()):
            found.append(name)
    return found
