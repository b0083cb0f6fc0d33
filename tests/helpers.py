"""Inputs that several tests build from the package but no experiment needs:
the all-cross mesh and the JSON form of measured statistics."""

import numpy as np

from lnoisim import MeshCell, MeshConfig, clements_layout


def all_cross_config(n):
    """The n-mode mesh with every cell fully cross (theta = 0): light walks across it."""
    cells = tuple(MeshCell(pair, 0.0, 0.0) for pair in clements_layout(n))
    return MeshConfig(n, cells, np.zeros(n))


def statistics_json(stats):
    """The JSON object of ``MeasuredStatistics`` ``stats``, as ``from_json_dict`` reads it."""
    return {
        "singles": [[float(v) for v in row] for row in stats.singles],
        "pairs": [d.to_json_dict() for _, d in sorted(stats.pairs.items())],
    }
