"""Count calls of library functions and methods, through every binding.

    with counting("stablegraph.canonical_form", "descent._PairWitnesses.get") as calls:
        ...
    calls["stablegraph.canonical_form"]

A target names a ``graphstrata`` module and a function in it, or a method
that a class defined there defines itself
(``"stablegraph.StableGraph.degree"``); an inherited method is no target.
The modules import each other's functions by name, so a function is wrapped
once and the wrapper rebound in every ``graphstrata`` namespace that binds
it, as ``perfbench/spans.py`` does; a method is patched on its class.  A
reference kept anywhere else, such as in a dict, still calls the original.
No argument is kept.  Every binding is restored on exit, also when the
block raises.
"""

import contextlib
import importlib
import sys
from collections import Counter


def resolve(target):
    """``(owner, name, original)``: ``LookupError`` if ``target`` names no function or method."""
    module, _, path = target.partition(".")
    *classes, name = path.split(".")
    try:
        owner = importlib.import_module(f"graphstrata.{module}")
        for cls in classes:
            owner = vars(owner)[cls]
        original = vars(owner)[name]
    except (ImportError, KeyError, TypeError, ValueError):
        owner = original = None
    if callable(original) and not isinstance(original, (type, staticmethod)):
        if bool(classes) == isinstance(owner, type):
            return owner, name, original
    raise LookupError(f"no graphstrata function or method {target!r}")


def _counted(calls, target, original):
    def wrapper(*args, **kwargs):
        calls[target] += 1
        return original(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def counting(*targets):
    """Count each target's calls while the block runs; yield the ``Counter``."""
    calls, restore = Counter(), []  # restore: (namespace, name, original)
    resolved = {target: resolve(target) for target in targets}
    # The package imports every module but ``cli``.  Imported first inside
    # the block, ``cli`` would bind the wrappers by name and keep them.
    importlib.import_module("graphstrata.cli")
    modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "graphstrata"]
    try:
        for target, (owner, name, original) in resolved.items():
            bindings = [(owner, name)] if isinstance(owner, type) else [
                (module, attr)
                for module in modules
                for attr, value in vars(module).items()
                if value is original
            ]
            wrapper = _counted(calls, target, original)
            for namespace, attr in bindings:
                restore.append((namespace, attr, original))
                setattr(namespace, attr, wrapper)
        yield calls
    finally:
        for namespace, attr, original in reversed(restore):
            setattr(namespace, attr, original)
