"""Name-based access to the batch MQDP solvers.

The experiment drivers and the command-line interface refer to algorithms by
the names the paper uses; this registry is the single mapping from those
names to callables.  Every registered solver has the uniform signature
``solver(instance) -> Solution``.

:func:`solve` also takes an encoded instance's columns
(:class:`InstanceColumns`): Scan, Scan+ and GreedySC solve on them and
build only their picks, and every other solver gets the instance they
encode.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from ..errors import UnknownAlgorithmError
from .brute_force import brute_force, exact_via_setcover
from .greedy_sc import greedy_sc
from .instance import Instance, InstanceColumns
from .opt import opt
from .scan import scan, scan_plus
from .solution import Solution

__all__ = ["solve", "available_algorithms", "lookup", "register",
           "unregister"]

_REGISTRY: Dict[str, Callable[[Instance], Solution]] = {
    "opt": opt,
    "brute_force": brute_force,
    "exact_setcover": exact_via_setcover,
    "greedy_sc": greedy_sc,
    "scan": scan,
    "scan+": scan_plus,
}


def available_algorithms() -> List[str]:
    """Names of every registered batch solver, sorted."""
    return sorted(_REGISTRY)


def lookup(name: str) -> Callable[[Instance], Solution]:
    """The solver registered under ``name``; raises
    :class:`UnknownAlgorithmError` for any other name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: "
            + ", ".join(available_algorithms())
        ) from None


def register(name: str, solver: Callable[[Instance], Solution]) -> None:
    """Register a custom solver under ``name`` (overwriting is an error)."""
    if name in _REGISTRY:
        raise ValueError(f"algorithm {name!r} is already registered")
    _REGISTRY[name] = solver


def unregister(name: str) -> None:
    """Remove a custom solver; the built-in algorithms are permanent."""
    lookup(name)
    if name in ("opt", "brute_force", "exact_setcover",
                "greedy_sc", "scan", "scan+"):
        raise ValueError(f"cannot unregister built-in algorithm {name!r}")
    del _REGISTRY[name]


# the solvers that run on columns as they are
_ON_COLUMNS = (scan, scan_plus, greedy_sc)


def solve(
    name: str, instance: Union[Instance, InstanceColumns], **kwargs
) -> Solution:
    """Run the named batch algorithm on ``instance``, an instance or an
    encoded one's columns."""
    solver = lookup(name)
    if isinstance(instance, InstanceColumns) \
            and solver not in _ON_COLUMNS:
        instance = instance.instance
    return solver(instance, **kwargs)
