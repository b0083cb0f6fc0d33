"""One set-up sample: a fresh process imports ``lnoisim.cli`` and builds the
``switching`` workload's inputs, then exits.  ``run.py`` times it from the
outside.

    python3 perfbench/setup_probe.py SEED TINY WORKDIR
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import SRC

if __name__ == "__main__":
    seed, tiny, workdir = int(sys.argv[1]), sys.argv[2] == "1", Path(sys.argv[3])
    sys.path.insert(0, str(SRC))
    import lnoisim
    import lnoisim.cli  # noqa: F401

    from switching import Switching

    Switching(lnoisim, seed, tiny, workdir)
