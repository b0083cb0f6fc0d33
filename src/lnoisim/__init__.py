"""Simulation toolkit for a fast electro-optic photonic processor.

The package models a small programmable interferometer driven by a pulsed
single-photon source: 2x2 switch cells with finite extinction, bandwidth
and drive electronics; rectangular mesh synthesis of arbitrary unitaries;
one- and two-photon counting statistics with partial distinguishability;
time-domain demultiplexing of a photon train; loss budgeting; and transfer
matrix reconstruction from measured statistics.

The namespace is lazy (PEP 562): ``import lnoisim`` loads no submodule,
and a name is imported from the submodule that exports it on first use.
"""

import importlib

__version__ = "0.1.0"

#: The submodules whose ``__all__`` make up the namespace, each after those it
#: imports.  ``errors`` and ``components`` import no numpy and come first, so a
#: switch cell builds and calibrates before the lookup reaches ``core``.
_SUBMODULES = ("errors", "components", "core", "photons", "router", "budget", "mesh", "reconstruct")


def __getattr__(name):
    # cli and experiments export no names: import them alone, not every submodule.
    if name in _SUBMODULES or name in ("cli", "experiments"):
        return importlib.import_module(f"{__name__}.{name}")
    modules = map(__getattr__, _SUBMODULES)
    if name == "__all__":
        value = ["__version__"] + [export for module in modules for export in module.__all__]
    else:
        module = next((module for module in modules if name in module.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})
