"""Command-line front end for reproducible simulation runs.

Each subcommand reads one JSON config, writes its artifacts into an output
directory, and finishes with a ``manifest.json`` recording the tool
version, the config digest, the seed, and a sha256 digest per artifact.  Nothing
time-dependent is written, so a rerun with the same config and seed is
byte-identical.

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
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .budget import BudgetEntry, LossBudget, sweep_wavelength
from .components import GratingSpectrum, MZIParams, PhaseShifterParams, phase_from_voltage
from .core import finite_number_array, is_finite_number, is_integer, matrix_distance
from .errors import ConfigError, LnoisimError
from .mesh import MeshConfig, compose, decompose, modulator_layout
from .photons import (
    SourceModel,
    fit_hom_visibility,
    fit_hom_visibility_poisson,
    fringe_contrast_from_overlap,
    hom_fringe,
    single_photon_distribution,
    two_photon_distribution,
)
from .reconstruct import (
    MeasuredStatistics,
    canonical_form,
    reconstruct_unitary,
    synthesize_statistics,
)
from .router import (
    SLOTS_PER_FRAME,
    TIMING_TOLERANCE_NS,
    default_pulse_program,
    simulate_demux,
    switch_metrics,
)

__all__ = ["main", "matrix_from_json_dict", "matrix_to_json_dict"]

CONFIG_SCHEMA_VERSION = 1
UNITARY_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1

#: The longest ``demux`` train, so that a run stays well inside memory:
#: 100,000 frames take about 0.3 GB and write a 37 MB trace.csv.
MAX_N_FRAMES = 100_000

#: The most grid samples per ``demux`` slot: the drive grid indexes its
#: 4 * n_frames * samples_per_slot samples with int64, and this keeps that
#: count within int64 for every n_frames up to MAX_N_FRAMES.
MAX_SAMPLES_PER_SLOT = int(np.iinfo(np.int64).max) // (SLOTS_PER_FRAME * MAX_N_FRAMES)

#: The longest ``hom-fringe`` sweep, for the same reason as MAX_N_FRAMES.
MAX_N_POINTS = 100_000

#: The largest mean numpy's Poisson sampler accepts.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


# ---------------------------------------------------------------------------
# serialization helpers


def matrix_to_json_dict(u) -> dict:
    """JSON form of a complex matrix: separate real/imaginary parts."""
    mat = np.asarray(u, dtype=complex)
    return {
        "schema_version": UNITARY_SCHEMA_VERSION,
        "n": int(mat.shape[0]),
        "re": [[float(v.real) for v in row] for row in mat],
        "im": [[float(v.imag) for v in row] for row in mat],
    }


def matrix_from_json_dict(data) -> np.ndarray:
    """The matrix of :func:`matrix_to_json_dict`; ``schema_version`` and ``n`` are optional."""
    re = finite_number_array(data["re"], 2, "matrix 're'")
    im = finite_number_array(data["im"], 2, "matrix 'im'")
    if re.shape != im.shape:
        raise ValueError("matrix 're' and 'im' must be matching 2-d arrays")
    version = data.get("schema_version", UNITARY_SCHEMA_VERSION)
    if not is_integer(version) or version != UNITARY_SCHEMA_VERSION:
        raise ValueError(f"unsupported matrix schema_version {version!r}")
    n = data.get("n", re.shape[0])
    if not is_integer(n) or n != re.shape[0]:
        raise ValueError(f"matrix 'n' must be its row count {re.shape[0]}, got {n!r}")
    return re + 1j * im


def _dump_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _csv_bytes(header, columns) -> bytes:
    """CSV of equal-length columns (1-d arrays or 2-d blocks), values as float reprs.

    ``repr`` of a float64 is a function of its 64-bit pattern alone, so each
    distinct pattern is formatted once and every cell takes its pattern's
    text.  Keying on the pattern rather than the value keeps 0.0 and -0.0
    apart; every NaN payload still prints as ``nan``.
    """
    table = np.column_stack(columns)
    bits, inverse = np.unique(table.view(np.uint64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    body = (row * table.shape[0]) % tuple(texts[inverse.ravel()].tolist())
    return (",".join(header) + "\n" + body).encode("utf-8")


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
    digest of an artifact shows it.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# config parsing: one pass per experiment turns the config into the library
# objects its run needs and collects every diagnostic on the way.  `validate`
# runs the same parse and stops there, so `config ok` means the run will not
# exit 2.  A key the config leaves out is left out of the library call too,
# so the library's own defaults apply.


def _number(cfg, diags, key, default=None, minimum=None, maximum=None):
    if key not in cfg:
        return default
    value = cfg[key]
    if not is_finite_number(value):
        diags.append(f"field {key!r} must be a finite number")
        return default
    if minimum is not None and value < minimum:
        diags.append(f"field {key!r} must be >= {minimum}")
        return default
    if maximum is not None and value > maximum:
        diags.append(f"field {key!r} must be <= {maximum}")
        return default
    return value


def _integer(cfg, diags, key, default=None, minimum=None, maximum=None):
    if key in cfg and not is_integer(cfg[key]):
        diags.append(f"field {key!r} must be an integer")
        return default
    return _number(cfg, diags, key, default, minimum, maximum)


def _boolean(cfg, diags, key):
    value = cfg.get(key)
    if key in cfg and not isinstance(value, bool):
        diags.append(f"field {key!r} must be true or false")
        return None
    return value


def _optional_number(cfg, diags, key, minimum=None, maximum=None):
    """A number, or null/absent meaning 'feature disabled'."""
    if cfg.get(key) is None:
        return None
    return _number(cfg, diags, key, minimum=minimum, maximum=maximum)


def _given(**options) -> dict:
    """The keyword arguments a config set; absent ones keep the library default."""
    return {name: value for name, value in options.items() if value is not None}


def _build(diags, where, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, or None and a diagnostic if it refuses the input."""
    try:
        return make(*args, **kwargs)
    except KeyError as exc:
        diags.append(f"{where} is missing the key {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        diags.append(f"{where}: {exc}")
    return None


def _matrix_field(cfg, diags, key, required=False):
    if key not in cfg or cfg[key] is None:
        if required:
            diags.append(f"missing required field {key!r}")
        return None
    obj = cfg[key]
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        diags.append(f"field {key!r} must be an object with 're' and 'im' arrays")
        return None
    return _build(diags, f"field {key!r}", matrix_from_json_dict, obj)


def _switch_cell(diags, shifter, er_db, bar_leakage=None, **loss):
    if er_db is not None:
        return _build(diags, "field 'extinction_db'", MZIParams.with_extinction, er_db, shifter, **loss)
    if bar_leakage is not None:
        return MZIParams.with_bar_leakage(bar_leakage, shifter, **loss)
    return MZIParams(shifter=shifter, **loss)


def _check_common(cfg, experiment, diags) -> None:
    version = cfg.get("schema_version")
    if not is_integer(version) or version != CONFIG_SCHEMA_VERSION:
        diags.append(
            f"schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )
    declared = cfg.get("experiment")
    if declared != experiment:
        diags.append(f"config experiment {declared!r} does not match command {experiment!r}")
    if "seed" in cfg and cfg["seed"] is not None:
        _integer(cfg, diags, "seed", minimum=0)


def _parse_hom_fringe(cfg, seed, diags):
    overlap = _number(
        cfg, diags, "overlap", default=SourceModel.indistinguishability, minimum=0.0, maximum=1.0
    )
    v_pi = _number(cfg, diags, "v_pi_volts", default=PhaseShifterParams.v_pi_volts, minimum=1e-9)
    start = _number(cfg, diags, "voltage_start", default=0.0)
    stop = _number(cfg, diags, "voltage_stop", default=9.0)
    n_points = _integer(cfg, diags, "n_points", default=41, minimum=5, maximum=MAX_N_POINTS)
    floor = _number(cfg, diags, "accidental_floor", minimum=0.0)
    er = _optional_number(cfg, diags, "extinction_db", minimum=0.1)
    mean_counts = _optional_number(cfg, diags, "poisson_mean_counts", minimum=1.0)
    if not stop > start:
        diags.append("voltage_stop must exceed voltage_start")
    if mean_counts is not None and seed is None:
        diags.append("seed is required when poisson_mean_counts is set")
    # A passive cell's coincidence probability is at most 1, plus the floor.
    if mean_counts is not None and mean_counts * (1.0 + (floor or 0.0)) > _POISSON_LAM_MAX:
        diags.append(
            f"poisson_mean_counts times (1 + accidental_floor) must not exceed "
            f"{_POISSON_LAM_MAX:.6g}, the largest Poisson mean numpy samples"
        )
    cell = _switch_cell(diags, PhaseShifterParams(v_pi_volts=v_pi), er)
    return cell, (start, stop, n_points), overlap, _given(accidental_floor=floor), mean_counts, seed


def _parse_demux(cfg, seed, diags):
    n_frames = _integer(cfg, diags, "n_frames", default=10, minimum=1, maximum=MAX_N_FRAMES)
    period = _number(
        cfg, diags, "repetition_period_ns", default=SourceModel.repetition_period_ns, minimum=1e-9
    )
    v_pi = _number(cfg, diags, "v_pi_volts", default=PhaseShifterParams.v_pi_volts, minimum=1e-9)
    # An absent f_3db_ghz keeps the stock bandwidth; null means an instantaneous shifter.
    f_3db = PhaseShifterParams.f_3db_ghz
    if "f_3db_ghz" in cfg:
        f_3db = _optional_number(cfg, diags, "f_3db_ghz", minimum=1e-9)
        f_3db = math.inf if f_3db is None else f_3db
    per_slot = _integer(cfg, diags, "samples_per_slot", minimum=2, maximum=MAX_SAMPLES_PER_SLOT)
    er = _optional_number(cfg, diags, "extinction_db", minimum=0.1)
    leak = _optional_number(cfg, diags, "bar_leakage", minimum=0.0, maximum=0.499)
    loss = _number(cfg, diags, "insertion_loss_db", minimum=0.0)
    offset = _number(cfg, diags, "train_offset_ns", default=0.0, minimum=0.0)
    program = default_pulse_program(period, v_pi, n_frames, **_given(samples_per_slot=per_slot))
    if math.isfinite(f_3db) and program.sample_rate_ghz <= 2.0 * f_3db:
        diags.append(
            f"samples_per_slot / repetition_period_ns = {program.sample_rate_ghz:.6g} GHz must "
            f"exceed twice f_3db_ghz ({2.0 * f_3db:.6g} GHz)"
        )
    # The last photon instant of simulate_demux, which the program must reach.
    last_photon = offset + period * (SLOTS_PER_FRAME * n_frames - 0.5)
    if last_photon > program.end_ns + TIMING_TOLERANCE_NS:
        diags.append(
            f"train_offset_ns puts the last photon at {last_photon:.10g} ns, past the end "
            f"of the pulse program at {program.end_ns:.10g} ns"
        )
    if cfg.get("extinction_db") is not None and cfg.get("bar_leakage") is not None:
        diags.append("give at most one of extinction_db and bar_leakage")
    errors = cfg.get("phase_errors_rad")
    if "phase_errors_rad" in cfg and not (
        isinstance(errors, list) and len(errors) == 3 and all(is_finite_number(v) for v in errors)
    ):
        diags.append("field 'phase_errors_rad' must be a list of 3 finite numbers")
    shifter = PhaseShifterParams(v_pi_volts=v_pi, f_3db_ghz=f_3db)
    cell = _switch_cell(diags, shifter, er, leak, **_given(insertion_loss_db=loss))
    source = SourceModel(repetition_period_ns=period)
    return (cell, cell, cell), program, source, n_frames, offset, _given(phase_errors_rad=errors)


def _parse_distribution(cfg, seed, diags):
    has_unitary = cfg.get("unitary") is not None
    has_mesh = cfg.get("mesh") is not None
    if has_unitary == has_mesh:
        diags.append("give exactly one of 'unitary' and 'mesh'")
    u = _matrix_field(cfg, diags, "unitary")
    if has_mesh and not isinstance(cfg["mesh"], dict):
        diags.append("field 'mesh' must be a mesh configuration object")
    elif has_mesh:
        mesh = _build(diags, "field 'mesh'", MeshConfig.from_json_dict, cfg["mesh"])
        u = None if mesh is None else compose(mesh)
    modes = cfg.get("input_modes")
    if not (
        isinstance(modes, list)
        and len(modes) in (1, 2)
        and all(is_integer(m) and m >= 0 for m in modes)
    ):
        diags.append("field 'input_modes' must be a list of 1 or 2 port indices")
    elif len(modes) == 2 and modes[0] == modes[1]:
        diags.append("two-photon input_modes must be distinct ports")
    elif u is not None and max(modes) >= u.shape[1]:
        diags.append(
            f"field 'input_modes': port {max(modes)} out of range for {u.shape[1]} inputs"
        )
    overlap = _number(cfg, diags, "overlap", minimum=0.0, maximum=1.0)
    collision_free = _boolean(cfg, diags, "collision_free_only")
    return u, modes, _given(overlap=overlap, collision_free_only=collision_free)


def _parse_mesh_decompose(cfg, seed, diags):
    u = _matrix_field(cfg, diags, "unitary", required=True)
    tol = _number(cfg, diags, "tol", minimum=0.0)
    if u is None:
        return None
    return u, _build(diags, "field 'unitary'", decompose, u, **_given(tol=tol))


def _parse_mesh_compose(cfg, seed, diags):
    if not isinstance(cfg.get("mesh"), dict):
        diags.append("missing required field 'mesh' (mesh configuration object)")
        return None
    return _build(diags, "field 'mesh'", MeshConfig.from_json_dict, cfg["mesh"])


def _parse_reconstruct(cfg, seed, diags):
    if seed is None:
        diags.append("seed is required for reconstruction (random restarts)")
    has_unitary = cfg.get("unitary") is not None
    has_stats = cfg.get("statistics") is not None
    if has_unitary == has_stats:
        diags.append("give exactly one of 'unitary' and 'statistics'")
    reference = _matrix_field(cfg, diags, "unitary")
    stats = None
    if has_stats and not isinstance(cfg["statistics"], dict):
        diags.append("field 'statistics' must be a measured-statistics object")
    elif has_stats:
        stats = _build(
            diags, "field 'statistics'", MeasuredStatistics.from_json_dict, cfg["statistics"]
        )
    overlap = _given(overlap=_number(cfg, diags, "overlap", minimum=0.0, maximum=1.0))
    n_restarts = _integer(cfg, diags, "n_restarts", minimum=1)
    collision_free = _boolean(cfg, diags, "collision_free_only")
    if reference is not None:
        stats = _build(
            diags, "field 'unitary'", synthesize_statistics, reference,
            **overlap, **_given(collision_free_only=collision_free),
        )
    if stats is not None and stats.n_modes < 2:
        source = "unitary" if reference is not None else "statistics"
        diags.append(f"field {source!r}: reconstruction needs at least 2 modes")
    elif stats is not None and stats.missing_pairs():
        diags.append(
            f"field 'statistics': no two-photon data for input pairs {stats.missing_pairs()}"
        )
    return stats, reference, seed, {**overlap, **_given(n_restarts=n_restarts)}


def _parse_loss_budget(cfg, seed, diags):
    entries = cfg.get("entries")
    if not (isinstance(entries, list) and entries):
        diags.append("field 'entries' must be a non-empty list")
        entries = []
    parsed = []
    for idx, entry in enumerate(entries):
        if isinstance(entry, dict) and isinstance(entry.get("label"), str):
            parsed.append(_build(diags, f"entries[{idx}]", BudgetEntry.from_json_dict, entry))
        else:
            diags.append(f"entries[{idx}] must be an object with a string 'label'")
            parsed.append(None)
    budget = None
    if parsed and None not in parsed:
        budget = _build(diags, "entries", LossBudget, tuple(parsed))
    sweep = cfg.get("sweep")
    if sweep is None:
        return budget, None
    if not isinstance(sweep, dict):
        diags.append("field 'sweep' must be an object")
        return budget, None
    wavelengths = sweep.get("wavelengths_nm")
    if not (
        isinstance(wavelengths, list)
        and len(wavelengths) >= 1
        and all(is_finite_number(v) for v in wavelengths)
    ):
        diags.append("sweep.wavelengths_nm must be a non-empty list of finite numbers")
        wavelengths = []
    wavelengths = [float(v) for v in wavelengths]
    labels = sweep.get("coupler_labels")
    if not (isinstance(labels, list) and labels and all(isinstance(v, str) for v in labels)):
        diags.append("sweep.coupler_labels must be a non-empty list of entry labels")
    else:
        known = [entry.get("label") for entry in entries if isinstance(entry, dict)]
        for label in labels:
            if label not in known:
                diags.append(f"sweep.coupler_labels: no entry is labelled {label!r}")
    grating = sweep.get("grating", {})
    if not isinstance(grating, dict):
        diags.append("sweep.grating must be an object of grating parameters")
        return budget, None
    spectrum = _build(diags, "sweep.grating", GratingSpectrum, **grating)
    if spectrum is not None:
        for wavelength in wavelengths:
            _build(diags, "sweep.wavelengths_nm", spectrum.efficiency_db, wavelength)
    return budget, (spectrum, wavelengths, labels)


# ---------------------------------------------------------------------------
# experiment runners: parsed config -> ({filename: bytes}, [summary lines])


def _run_hom_fringe(parsed):
    cell, (start, stop, n_points), overlap, floor, mean_counts, seed = parsed
    volts = np.linspace(start, stop, n_points)
    phases = phase_from_voltage(cell.shifter, volts)
    probs = hom_fringe(cell, phases, overlap, **floor)
    if mean_counts is None:
        values = probs
        visibility, stderr = fit_hom_visibility(phases, values)
    else:
        rng = np.random.default_rng(seed)
        values = rng.poisson(probs * mean_counts).astype(float)
        visibility, stderr = fit_hom_visibility_poisson(phases, values)
    top, bottom = float(values.max()), float(values.min())
    fit = {
        "visibility": visibility,
        "stderr": stderr,
        "raw_contrast": (top - bottom) / (top + bottom) if top + bottom > 0 else None,
        "expected_raw_contrast": fringe_contrast_from_overlap(overlap),
        "n_points": int(n_points),
    }
    outputs = {
        "fringe.csv": _csv_bytes(["voltage_v", "phase_rad", "coincidence"], (volts, phases, values)),
        "fit.json": _dump_json(fit),
    }
    lines = [f"visibility: {visibility:.6f} +/- {stderr:.6f}"]
    return outputs, lines


def _run_demux(parsed):
    tree, program, source, n_frames, offset, errors = parsed
    trace = simulate_demux(tree, program, source, n_frames, train_offset_ns=offset, **errors)
    metrics = switch_metrics(trace)
    outputs = {
        "trace.csv": _csv_bytes(
            ["time_ns", "out0", "out1", "out2", "out3"], (trace.times_ns, trace.outputs)
        ),
        "metrics.json": _dump_json(metrics.to_json_dict()),
    }
    lines = [
        f"average routing probability: {metrics.average_probability:.6f}",
        f"unswitched residual: {metrics.suppression_db:.2f} dB",
    ]
    return outputs, lines


def _run_distribution(parsed):
    u, modes, options = parsed
    if len(modes) == 1:
        dist = single_photon_distribution(u, modes[0])
        payload = {
            "input_modes": modes,
            "outputs": [
                {"port": int(o), "p": float(p)}
                for o, p in zip(dist.outcomes, dist.probabilities)
            ],
        }
        total = float(np.sum(dist.probabilities))
    else:
        dist = two_photon_distribution(u, (min(modes), max(modes)), **options)
        payload = dist.to_json_dict()
        total = dist.total
    outputs = {"distribution.json": _dump_json(payload)}
    return outputs, [f"total probability: {total:.9f}"]


def _run_mesh_decompose(parsed):
    u, config = parsed
    residual = matrix_distance(compose(config), u)
    report = {
        "recompose_distance": residual,
        "phase_count": config.phase_count,
        "n_cells": len(config.cells),
        "modulators": sorted(modulator_layout(config)),
    }
    outputs = {
        "mesh.json": _dump_json(config.to_json_dict()),
        "report.json": _dump_json(report),
    }
    return outputs, [f"recompose distance: {residual:.3e}"]


def _run_mesh_compose(config):
    u = compose(config)
    outputs = {"unitary.json": _dump_json(matrix_to_json_dict(u))}
    return outputs, [f"composed {config.n_modes}x{config.n_modes} transfer matrix"]


def _run_reconstruct(parsed):
    stats, reference, seed, options = parsed
    result = reconstruct_unitary(stats, seed=seed, **options)
    report = {
        "cost": result.cost,
        "converged": result.converged,
        "n_restarts_used": result.n_restarts_used,
    }
    if reference is not None:
        report["distance_to_reference"] = matrix_distance(
            canonical_form(reference), result.unitary
        )
    outputs = {
        "reconstructed.json": _dump_json(matrix_to_json_dict(result.unitary)),
        "report.json": _dump_json(report),
    }
    lines = [f"fit cost: {result.cost:.3e} after {result.n_restarts_used} restart(s)"]
    if reference is not None:
        lines.append(f"distance to reference: {report['distance_to_reference']:.3e}")
    return outputs, lines


def _run_loss_budget(parsed):
    budget, sweep = parsed
    payload = {
        "total_db": budget.total_db,
        "end_to_end_transmission": budget.end_to_end_transmission,
        "breakdown": budget.breakdown(),
    }
    outputs = {"budget.json": _dump_json(payload)}
    lines = [
        f"total loss: {budget.total_db:.3f} dB "
        f"(transmission {budget.end_to_end_transmission:.4e})"
    ]
    if sweep is not None:
        grating, wavelengths, labels = sweep
        transmissions = sweep_wavelength(budget, grating, wavelengths, labels)
        outputs["sweep.csv"] = _csv_bytes(
            ["wavelength_nm", "transmission"], (wavelengths, transmissions)
        )
        lines.append(f"swept {len(wavelengths)} wavelengths")
    return outputs, lines


#: experiment -> (parse, run); the parse is validate's whole job.
_EXPERIMENTS = {
    "hom-fringe": (_parse_hom_fringe, _run_hom_fringe),
    "demux": (_parse_demux, _run_demux),
    "distribution": (_parse_distribution, _run_distribution),
    "mesh-decompose": (_parse_mesh_decompose, _run_mesh_decompose),
    "mesh-compose": (_parse_mesh_compose, _run_mesh_compose),
    "reconstruct": (_parse_reconstruct, _run_reconstruct),
    "loss-budget": (_parse_loss_budget, _run_loss_budget),
}


def _parse(experiment, cfg, seed):
    """The parsed inputs of ``experiment``, or ConfigError with every diagnostic."""
    diags: list[str] = []
    _check_common(cfg, experiment, diags)
    parsed = None
    if not diags or cfg.get("experiment") == experiment:
        parsed = _EXPERIMENTS[experiment][0](cfg, seed, diags)
    if diags:
        raise ConfigError(diags)
    return parsed


# ---------------------------------------------------------------------------
# driver


def _load_config(path: str) -> tuple[dict, str]:
    raw = Path(path).read_bytes()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(["config must be a JSON object"])
    return cfg, hashlib.sha256(raw).hexdigest()


def _execute(experiment: str, args) -> int:
    cfg, digest = _load_config(args.config)
    if experiment == "validate":
        experiment = cfg.get("experiment")
        if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
            raise ConfigError(
                [f"unknown experiment {experiment!r}; expected one of {sorted(_EXPERIMENTS)}"]
            )
    seed = args.seed if args.seed is not None else cfg.get("seed")
    parsed = _parse(experiment, cfg, seed)
    if args.command == "validate":
        if not args.quiet:
            print(f"config ok: {experiment}")
        return 0
    outputs, lines = _EXPERIMENTS[experiment][1](parsed)

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
        "seed": seed,
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
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config's RNG seed"
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
