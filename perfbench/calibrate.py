"""One switch-cell calibration as a fresh process, for ``cli-cold``.

    python3 perfbench/calibrate.py EXTINCTION_DB INSERTION_LOSS_DB

Imports lnoisim from ``PYTHONPATH``, builds a cell with that extinction
ratio and loss, and measures both back through the library:
``extinction_ratio_db`` and ``estimate_mzi_loss_from_demux`` on the tree
transmissions of ``demux_input_transmissions``.  Prints one JSON object
with the two measured values.  ``cli_cold.py`` times the process from the
outside and checks the values.
"""

from __future__ import annotations

import json
import sys

if __name__ == "__main__":
    er, il = float(sys.argv[1]), float(sys.argv[2])
    import lnoisim as lib

    cell = lib.MZIParams.with_extinction(er, insertion_loss_db=il)
    measured_er = lib.extinction_ratio_db(cell)
    loss = lib.estimate_mzi_loss_from_demux(*lib.demux_input_transmissions([cell] * 3))
    print(json.dumps({"extinction_db": measured_er, "cell_loss_db": loss}))
