"""Digests of the CLI's output on the golden configs, and the script that rewrites them.

    python tests/golden/regen.py

runs ``validate`` and then the experiment on each ``configs/*.json``, in
process through ``lnoisim.cli.main``, and writes ``digests.json``: for
each config, the exit code and the sha256 of stdout and stderr (with the
output directory masked) of both calls, and the sha256 of every file the
run left in its output directory.  ``tests/test_golden.py`` compares a
fresh run with that table.  Rewrite it only with a change that means to
alter the bytes, and list the changed files and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "digests.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _call(main, argv, outdir: Path, prefix: str) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = (buf.getvalue().replace(str(outdir), "<out>") for buf in (stdout, stderr))
    return {f"{prefix}exit": code, f"{prefix}stdout": _sha256(out), f"{prefix}stderr": _sha256(err)}


def digests(workdir: Path) -> dict:
    """{config name: {exit code, output or file name: value or sha256}}."""
    from lnoisim.cli import main

    runs = {}
    for path in sorted((HERE / "configs").glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        command = experiment.split("-", 1) if experiment.startswith("mesh-") else [experiment]
        outdir = workdir / path.stem
        entry = _call(main, ["validate", "--config", str(path)], outdir, "validate ")
        entry.update(_call(main, [*command, "--config", str(path), "--output-dir", str(outdir)], outdir, ""))
        for file in sorted(outdir.iterdir()) if outdir.is_dir() else ():
            entry[file.name] = hashlib.sha256(file.read_bytes()).hexdigest()
        runs[path.stem] = entry
    return runs


def versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        table = {**versions(), "runs": digests(Path(tmp))}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TABLE} ({len(table['runs'])} configs)")
