"""Command-line front end for reproducible simulation runs.

Each subcommand reads one JSON config, writes its artifacts into an output
directory, and finishes with a ``manifest.json`` recording the tool
version, the config digest, the config's seed, and a sha256 digest per
artifact.  The config is a run's only input and nothing time-dependent is
written, so a rerun with the same config is byte-identical.

A run writes in commit order: it first removes ``manifest.json`` and every
artifact it is about to write, then writes each artifact, then the
manifest.  Each file is written to a temp file and renamed onto its free
name, so it appears whole or not at all, and whenever ``manifest.json``
exists every digest in it matches the file on disk.  A directory without
``manifest.json`` holds an incomplete run.  Nothing is fsynced: after a
power loss an artifact may be empty, and its manifest digest shows it.

Exit codes: 0 on success, 1 on a runtime failure (solver did not converge,
file missing, ...), 2 when the config fails validation.  Validation
collects every diagnostic before exiting so a bad config round-trips in
one attempt.

This module is the front end: argparse, config loading and the writes.
It imports only the standard library and ``errors``, so ``--version``,
``--help`` and usage errors never load numpy, and it imports ``hashlib``
and ``json`` only where a command needs them.  The experiments, each a
config parse and a run, live in ``experiments``, which ``_execute``
imports once argparse has accepted a command.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, LnoisimError

__all__ = ["main"]

MANIFEST_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization helpers


def _dump_json(obj) -> bytes:
    import json
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a fresh temp file beside ``path`` and rename it there.

    ``path`` then appears whole or not at all.  ``_execute`` removes the
    manifest and every artifact of the run before the first call, writes
    the artifacts, and writes ``manifest.json`` last, so a directory without
    one holds an incomplete run.  Every rename thus lands on a free name:
    a rename onto an existing file makes ext4 (``auto_da_alloc``) start
    writing the new file back inside the rename, and a file the next rerun
    removes is otherwise usually never written to disk at all.  Nothing is
    fsynced, so after a power loss a file may be empty; the manifest
    digest of an artifact shows it.  The temp file is created by a plain
    exclusive ``open``, so it and the renamed file get mode
    ``0o666 & ~umask`` (``tempfile.mkstemp`` would make them 0600).
    """
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# driver


def _load_config(path: str) -> tuple[dict, str]:
    import hashlib
    import json
    raw = Path(path).read_bytes()
    try:
        cfg = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(["config must be a JSON object"])
    return cfg, hashlib.sha256(raw).hexdigest()


def _execute(experiment: str, args) -> int:
    import hashlib
    cfg, digest = _load_config(args.config)
    from .experiments import EXPERIMENTS, parse

    if experiment == "validate":
        experiment = cfg.get("experiment")
        if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
            raise ConfigError(
                [f"unknown experiment {experiment!r}; expected one of {sorted(EXPERIMENTS)}"]
            )
    parsed = parse(experiment, cfg)
    if args.command == "validate":
        if not args.quiet:
            print(f"config ok: {experiment}")
        return 0
    outputs, lines = EXPERIMENTS[experiment][1](parsed)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # The manifest goes first and comes back last, so it never lists a
    # digest that the file beside it does not have.
    for name in ["manifest.json", *outputs]:
        (outdir / name).unlink(missing_ok=True)
    digests = {}
    for name, data in outputs.items():
        _atomic_write(outdir / name, data)
        digests[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool": "lnoisim",
        "tool_version": __version__,
        "experiment": experiment,
        "config_sha256": digest,
        "seed": cfg.get("seed"),
        "outputs": digests,
    }
    _atomic_write(outdir / "manifest.json", _dump_json(manifest))

    if not args.quiet:
        for line in lines:
            print(line)
        for name in [*outputs, "manifest.json"]:
            print(f"wrote {outdir / name}")
    return 0


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument(
        "--output-dir", default=".", help="directory for artifacts (default: cwd)"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the run summary")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="lnoisim",
        description="Reproducible simulations of a fast switched photonic processor.",
    )
    parser.add_argument("--version", action="version", version=f"lnoisim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in [
        ("hom-fringe", "sweep an MZI phase and fit two-photon interference visibility"),
        ("demux", "route a pulsed photon train through the 1-to-4 switch tree"),
        ("distribution", "one- or two-photon output statistics of a transfer matrix"),
        ("reconstruct", "fit a transfer matrix to photon-counting statistics"),
        ("loss-budget", "total a chain of insertion losses"),
        ("validate", "check a config without running anything"),
    ]:
        p = sub.add_parser(name, help=text)
        _add_common_arguments(p)

    mesh = sub.add_parser("mesh", help="rectangular-mesh synthesis utilities")
    mesh_sub = mesh.add_subparsers(dest="mesh_command", required=True)
    for name, text in [
        ("decompose", "factor a unitary into per-cell phases"),
        ("compose", "multiply out a mesh configuration"),
    ]:
        p = mesh_sub.add_parser(name, help=text)
        _add_common_arguments(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "mesh":
        experiment = f"mesh-{args.mesh_command}"
    else:
        experiment = args.command
    try:
        return _execute(experiment, args)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    except LnoisimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
