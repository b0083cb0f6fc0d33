"""Inputs that several tests build from the package but no experiment needs:
the all-cross mesh and the JSON form of measured statistics."""

import numpy as np

from lnoisim import MeshConfig


def all_cross_config(n):
    """The n-mode mesh with every cell fully cross (theta = 0): light walks across it."""
    n_cells = n * (n - 1) // 2
    return MeshConfig(n, np.zeros(n_cells), np.zeros(n_cells), np.zeros(n))


def statistics_json(stats):
    """The JSON object of ``MeasuredStatistics`` ``stats``, as ``from_json_dict`` reads it."""
    return {
        "singles": [[float(v) for v in row] for row in stats.singles],
        "pairs": [d.to_json_dict() for _, d in sorted(stats.pairs.items())],
    }
