"""Simulation toolkit for a fast electro-optic photonic processor.

The package models a small programmable interferometer driven by a pulsed
single-photon source: 2x2 switch cells with finite extinction, bandwidth
and drive electronics; rectangular mesh synthesis of arbitrary unitaries;
one- and two-photon counting statistics with partial distinguishability;
time-domain demultiplexing of a photon train; loss budgeting; and transfer
matrix reconstruction from measured statistics.
"""

from . import budget, components, core, errors, mesh, photons, reconstruct, router
from .budget import *
from .components import *
from .core import *
from .errors import *
from .mesh import *
from .photons import *
from .reconstruct import *
from .router import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (core, components, mesh, photons, router, budget, reconstruct, errors)
    for name in module.__all__
]
