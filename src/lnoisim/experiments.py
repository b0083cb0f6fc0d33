"""The experiments behind the CLI: one config parse and one run each.

``EXPERIMENTS`` maps each experiment to its parse/run pair.  ``cli``
imports this module only once argparse has accepted a command, and each
pair imports the library modules its experiment runs when it is called,
so a cold ``lnoisim demux`` loads no ``mesh``, ``reconstruct`` or
``budget``.
"""

from __future__ import annotations

import collections
import math
import sys

import numpy as np

from .cli import _dump_json
from .core import check_fields, finite_number_array, is_finite_number, is_integer, matrix_distance
from .errors import ConfigError

__all__ = ["matrix_from_json_dict", "matrix_to_json_dict"]

CONFIG_SCHEMA_VERSION = 1
UNITARY_SCHEMA_VERSION = 1

#: The longest ``demux`` train, so that a run stays well inside memory:
#: a cold 100,000-frame run peaks at about 170 MB RSS and writes a 37 MB
#: trace.csv.
MAX_N_FRAMES = 100_000

#: The largest ``demux`` insertion_loss_db, about 1,538 dB.  A photon crosses
#: two cells, so its power is 10**(-insertion_loss_db / 5), about the smallest
#: normal float at this bound; past about 1,617 dB it underflows to 0 and no
#: output can be scored.
MAX_INSERTION_LOSS_DB = -5.0 * math.log10(sys.float_info.min)

#: The longest ``hom-fringe`` sweep, for the same reason as MAX_N_FRAMES.
MAX_N_POINTS = 100_000

#: The largest magnitude of a voltage or ``v_pi_volts``: ``phase_from_voltage``
#: computes pi * V first, which is finite up to here and overflows past it.
MAX_VOLTS = sys.float_info.max / math.pi

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
    check_fields(data, ("schema_version", "n", "re", "im"))
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


def _passive_matrix(data) -> np.ndarray:
    """The matrix of :func:`matrix_from_json_dict`, refused unless it is passive:
    its largest singular value, the most it can amplify any input, is at most
    1 + 1e-9, the slack rounding leaves on a lossless matrix."""
    u = matrix_from_json_dict(data)
    gain = np.linalg.norm(u, 2)
    if gain > 1.0 + 1e-9:
        raise ValueError(f"matrix is not passive: its largest singular value is {gain:.10g}")
    return u


def _group_texts(block, prefix, suffix):
    """The text of each row of the 2-d float64 ``block``: ``prefix``, its cells
    as reprs joined by ``,``, then ``suffix``; an object array of strings.

    One lexicographic sort of the rows by their 64-bit patterns puts equal
    rows next to each other, and a row that differs from the one before it
    starts a new distinct row.  Each distinct row is formatted once, one
    column at a time from a flat list, and every row takes the text of its
    run.
    """
    bits = block.view(np.uint64)
    order = np.lexsort(bits.T)
    ordered = bits[order]
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in ordered.T:
        starts[1:] |= column[1:] != column[:-1]
    first, *rest = (
        np.array([repr(v) for v in column.tolist()], dtype=object)
        for column in ordered[starts].view(np.float64).T
    )
    joined = prefix + first if prefix else first
    for texts in rest:
        joined = joined + "," + texts
    if suffix:
        joined = joined + suffix
    run_of = np.empty(len(order), dtype=np.intp)
    run_of[order] = np.cumsum(starts) - 1
    return joined[run_of]


def _csv_bytes(header, columns) -> bytes:
    """CSV of equal-length columns (1-d arrays or 2-d blocks), values as float reprs.

    ``repr`` of a float64 is a function of its 64-bit pattern alone, so each
    column group sorts its rows by their patterns and formats each distinct
    row once (a demux trace has a few dozen distinct output rows).  A
    group's texts carry the separators around it: a leading ``,`` unless it
    is the first group, a trailing newline if it is the last.  The body is
    one join over a string per row and group; no container is built per row
    or cell.  Keying on the pattern rather than the value keeps 0.0 and -0.0
    apart; every NaN payload still prints as ``nan``.
    """
    blocks = [np.asarray(c, dtype=np.float64) for c in columns]
    pieces = np.empty((len(blocks[0]), len(blocks)), dtype=object)
    for g, block in enumerate(blocks):
        block = block if block.ndim == 2 else block[:, None]
        pieces[:, g] = _group_texts(block, "," if g else "", "\n" if g == len(blocks) - 1 else "")
    return (",".join(header) + "\n" + "".join(pieces.ravel().tolist())).encode("utf-8")


# ---------------------------------------------------------------------------
# config parsing: `_read` checks each key against FIELDS, then one parse per
# experiment checks what involves several keys or a structured value and
# builds the library objects its run needs, collecting every diagnostic.
# `validate` runs the same parse and stops there, so `config ok` means the run
# will not exit 2.  A key the config leaves out is left out of the library
# call too, so the library's own defaults apply.


#: How `_read` checks a config key: ``kind`` is float, int, bool, or None for
#: a value the parse function checks itself; ``null`` accepts null too.
Field = collections.namedtuple("Field", "kind minimum maximum null", defaults=(None, None, False))


def _read(cfg, table, diags) -> dict:
    """The keys of ``cfg`` that ``table`` declares and whose values pass its checks;
    each other key adds a diagnostic."""
    try:
        check_fields(cfg, table)
    except ConfigError as exc:
        diags.extend(exc.diagnostics)
    fields = {}
    for key, (kind, minimum, maximum, null) in table.items():
        value = cfg.get(key)
        if key not in cfg or kind is None or (null and value is None):
            problem = None
        elif kind is bool:
            problem = None if isinstance(value, bool) else "true or false"
        elif kind is int and not is_integer(value):
            problem = "an integer"
        elif not is_finite_number(value):
            problem = "a finite number"
        elif minimum is not None and value < minimum:
            problem = f">= {minimum}"
        elif maximum is not None and value > maximum:
            problem = f"<= {maximum}"
        else:
            problem = None
        if problem:
            diags.append(f"field {key!r} must be {problem}")
        elif key in cfg:
            fields[key] = value
    return fields


def _given(fields, *keys) -> dict:
    """The keyword arguments among ``keys`` the config set; absent ones keep the library default."""
    return {key: fields[key] for key in keys if fields.get(key) is not None}


def _build(diags, where, make, /, *args, **kwargs):
    """``make(*args, **kwargs)``, or None and a diagnostic if it refuses the input."""
    try:
        return make(*args, **kwargs)
    except KeyError as exc:
        diags.append(f"{where} is missing the key {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        diags.append(f"{where}: {exc}")
    return None


def _object(fields, diags, key, make, required=False):
    """``make`` of the JSON object at ``key``; None if it is absent, null or refused."""
    if fields.get(key) is not None:
        return _build(diags, f"field {key!r}", make, fields[key])
    if required:
        diags.append(f"missing required field {key!r}")
    return None


def _switch_cell(diags, shifter, er_db, bar_leakage=None, **loss):
    from .components import MZIParams
    if er_db is not None:
        return _build(diags, "field 'extinction_db'", MZIParams.with_extinction, er_db, shifter, **loss)
    if bar_leakage is not None:
        return MZIParams.with_bar_leakage(bar_leakage, shifter, **loss)
    return MZIParams(shifter=shifter, **loss)


def _parse_hom_fringe(fields, diags):
    from .components import PhaseShifterParams, phase_from_voltage
    from .photons import MIN_FRINGE_SPAN_RAD, SOURCE_OVERLAP
    start, stop = fields.get("voltage_start", 0.0), fields.get("voltage_stop", 9.0)
    n_points = fields.get("n_points", 41)
    floor, mean_counts = fields.get("accidental_floor", 0.0), fields.get("poisson_mean_counts")
    if not stop > start:
        diags.append("voltage_stop must exceed voltage_start")
    if mean_counts is not None and fields["seed"] is None:
        diags.append("seed is required when poisson_mean_counts is set")
    # A passive cell's coincidence probability is at most 1, plus the floor.
    if mean_counts is not None and mean_counts * (1.0 + floor) > _POISSON_LAM_MAX:
        diags.append(
            f"poisson_mean_counts times (1 + accidental_floor) must not exceed "
            f"{_POISSON_LAM_MAX:.6g}, the largest Poisson mean numpy samples"
        )
    shifter = PhaseShifterParams(**_given(fields, "v_pi_volts"))
    # The fringe repeats every v_pi volts, so a step of half that or more aliases it:
    # at exactly v_pi / 2 it samples cos^2 at only two values.
    step = (stop - start) / (n_points - 1)
    if step >= shifter.v_pi_volts / 2.0:
        diags.append(f"the voltage step {step:.6g} V is not under v_pi_volts / 2, so the fringe aliases")
    # The run's phases span exactly this, as linspace returns both end points.
    span = phase_from_voltage(shifter, stop) - phase_from_voltage(shifter, start)
    if stop > start and span < MIN_FRINGE_SPAN_RAD:
        diags.append(f"the sweep spans {span:.6g} rad, under the pi/2 the fringe fit needs")
    cell = _switch_cell(diags, shifter, fields.get("extinction_db"))
    overlap = fields.get("overlap", SOURCE_OVERLAP)
    sweep = (start, stop, n_points)
    return cell, sweep, overlap, _given(fields, "accidental_floor"), mean_counts, fields["seed"]


def _parse_demux(fields, diags):
    from .components import PhaseShifterParams
    from .router import SourceModel, _photon_times, default_pulse_program
    n_frames, offset = fields.get("n_frames", 10), fields.get("train_offset_ns", 0.0)
    # Each switch is driven at 0 and its own V_pi, so only the bandwidth is a key:
    # an absent f_3db_ghz keeps the stock one, and null means an instantaneous shifter.
    f_3db = fields.get("f_3db_ghz", PhaseShifterParams.f_3db_ghz)
    shifter = PhaseShifterParams(f_3db_ghz=f_3db or math.inf)
    source = SourceModel(**_given(fields, "repetition_period_ns"))
    period = source.repetition_period_ns
    where = "field 'repetition_period_ns'"
    program = _build(diags, where, default_pulse_program, period, shifter.v_pi_volts, n_frames)
    if program is not None:
        _build(diags, "field 'train_offset_ns'", _photon_times, program, period, n_frames, offset)
    er, leak = fields.get("extinction_db"), fields.get("bar_leakage")
    if er is not None and leak is not None:
        diags.append("give at most one of extinction_db and bar_leakage")
    errors = fields.get("phase_errors_rad")
    if "phase_errors_rad" in fields and not (
        isinstance(errors, list) and len(errors) == 3 and all(is_finite_number(v) for v in errors)
    ):
        diags.append("field 'phase_errors_rad' must be a list of 3 finite numbers")
    cell = _switch_cell(diags, shifter, er, leak, **_given(fields, "insertion_loss_db"))
    return (cell, cell, cell), program, source, n_frames, offset, _given(fields, "phase_errors_rad")


def _parse_distribution(fields, diags):
    if (fields.get("unitary") is None) == (fields.get("mesh") is None):
        diags.append("give exactly one of 'unitary' and 'mesh'")
    u = _object(fields, diags, "unitary", _passive_matrix)
    if fields.get("mesh") is not None:
        from .mesh import MeshConfig, compose
        mesh = _object(fields, diags, "mesh", MeshConfig.from_json_dict)
        if mesh is not None:
            u = compose(mesh)
    modes = fields.get("input_modes")
    if not (isinstance(modes, list) and len(modes) in (1, 2)
            and all(is_integer(m) and m >= 0 for m in modes)):
        diags.append("field 'input_modes' must be a list of 1 or 2 port indices")
    elif len(modes) == 2 and modes[0] == modes[1]:
        diags.append("two-photon input_modes must be distinct ports")
    elif u is not None and max(modes) >= u.shape[1]:
        diags.append(f"field 'input_modes': port {max(modes)} out of range for {u.shape[1]} inputs")
    options = _given(fields, "overlap", "collision_free_only")
    if isinstance(modes, list) and len(modes) == 1:
        diags += [f"field {key!r} applies to two input modes only" for key in options]
    return u, modes, options


def _parse_mesh_decompose(fields, diags):
    from .mesh import decompose
    u = _object(fields, diags, "unitary", matrix_from_json_dict, required=True)
    if u is None:
        return None
    return u, _build(diags, "field 'unitary'", decompose, u, **_given(fields, "tol"))


def _parse_mesh_compose(fields, diags):
    from .mesh import MeshConfig
    return _object(fields, diags, "mesh", MeshConfig.from_json_dict, required=True)


def _parse_reconstruct(fields, diags):
    from .reconstruct import MIN_OVERLAP, MeasuredStatistics, synthesize_statistics
    if fields.get("overlap", 1.0) < MIN_OVERLAP:
        diags.append(f"field 'overlap' must be >= {MIN_OVERLAP:g}: below it the pairs carry too little phase")
    if (fields.get("unitary") is None) == (fields.get("statistics") is None):
        diags.append("give exactly one of 'unitary' and 'statistics'")
    reference = _object(fields, diags, "unitary", _passive_matrix)
    stats = _object(fields, diags, "statistics", MeasuredStatistics.from_json_dict)
    if reference is not None:
        options = _given(fields, "overlap")
        stats = _build(diags, "field 'unitary'", synthesize_statistics, reference, **options)
    return stats, reference, _given(fields, "overlap")


def _grating_spectrum(data):
    import dataclasses

    from .budget import GratingSpectrum
    check_fields(data, [field.name for field in dataclasses.fields(GratingSpectrum)])
    return GratingSpectrum(**data)


def _parse_loss_budget(fields, diags):
    from .budget import BudgetEntry, LossBudget
    entries = fields.get("entries")
    if not (isinstance(entries, list) and entries):
        diags.append("field 'entries' must be a non-empty list")
        entries = []
    parsed = [
        _build(diags, f"entries[{idx}]", BudgetEntry.from_json_dict, entry)
        for idx, entry in enumerate(entries)
    ]
    budget = None
    if parsed and None not in parsed:
        budget = _build(diags, "entries", LossBudget, tuple(parsed))
    sweep = fields.get("sweep")
    if sweep is None:
        return budget, None
    if not isinstance(sweep, dict):
        diags.append("field 'sweep' must be an object")
        return budget, None
    _build(diags, "sweep", check_fields, sweep, ("wavelengths_nm", "coupler_labels", "grating"))
    wavelengths = sweep.get("wavelengths_nm")
    if not (isinstance(wavelengths, list) and wavelengths
            and all(is_finite_number(v) for v in wavelengths)):
        diags.append("sweep.wavelengths_nm must be a non-empty list of finite numbers")
        wavelengths = []
    wavelengths = [float(v) for v in wavelengths]
    labels = sweep.get("coupler_labels")
    if not (isinstance(labels, list) and labels and all(isinstance(v, str) for v in labels)):
        diags.append("sweep.coupler_labels must be a non-empty list of entry labels")
    else:
        known = [entry.get("label") for entry in entries if isinstance(entry, dict)]
        diags += [f"sweep.coupler_labels: no entry is labelled {label!r}" for label in labels
                  if label not in known]
    spectrum = _build(diags, "sweep.grating", _grating_spectrum, sweep.get("grating", {}))
    if spectrum is not None:
        for wavelength in wavelengths:
            _build(diags, "sweep.wavelengths_nm", spectrum.efficiency_db, wavelength)
    return budget, (spectrum, wavelengths, labels)


# ---------------------------------------------------------------------------
# experiment runners: parsed config -> ({filename: bytes}, [summary lines])


def _run_hom_fringe(parsed):
    from .components import phase_from_voltage
    from .photons import fit_hom_visibility, fit_hom_visibility_poisson, hom_fringe
    from .photons import fringe_contrast_from_overlap
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
    from .router import simulate_demux, switch_metrics
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
    from .photons import nphoton_collision_free_distribution, two_photon_distribution
    u, modes, options = parsed
    if len(modes) == 1:
        dist = nphoton_collision_free_distribution(u, modes)
    else:
        dist = two_photon_distribution(u, (min(modes), max(modes)), **options)
    outputs = {"distribution.json": _dump_json(dist.to_json_dict())}
    return outputs, [f"total probability: {dist.total:.9f}"]


def _run_mesh_decompose(parsed):
    from .mesh import compose, modulator_layout
    u, config = parsed
    residual = matrix_distance(compose(config), u)
    report = {
        "recompose_distance": residual,
        "phase_count": config.phase_count,
        "n_cells": len(config.thetas),
        "modulators": sorted(modulator_layout(config)),
    }
    outputs = {
        "mesh.json": _dump_json(config.to_json_dict()),
        "report.json": _dump_json(report),
    }
    return outputs, [f"recompose distance: {residual:.3e}"]


def _run_mesh_compose(config):
    from .mesh import compose
    u = compose(config)
    outputs = {"unitary.json": _dump_json(matrix_to_json_dict(u))}
    return outputs, [f"composed {config.n_modes}x{config.n_modes} transfer matrix"]


def _run_reconstruct(parsed):
    from .reconstruct import canonical_form, reconstruct_unitary
    stats, reference, options = parsed
    result = reconstruct_unitary(stats, **options)
    report = {"cost": result.cost, "converged": result.converged, "nfev": result.nfev}
    if reference is not None:
        report["distance_to_reference"] = matrix_distance(
            canonical_form(reference), result.unitary
        )
    outputs = {
        "reconstructed.json": _dump_json(matrix_to_json_dict(result.unitary)),
        "report.json": _dump_json(report),
    }
    lines = [f"fit cost: {result.cost:.3e} after {result.nfev} evaluation(s)"]
    if reference is not None:
        lines.append(f"distance to reference: {report['distance_to_reference']:.3e}")
    return outputs, lines


def _run_loss_budget(parsed):
    from .budget import sweep_wavelength
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


_POSITIVE, _NON_NEGATIVE = Field(float, 1e-9), Field(float, 0.0)
_VOLTS, _V_PI = Field(float, -MAX_VOLTS, MAX_VOLTS), Field(float, 1e-9, MAX_VOLTS)
_OVERLAP, _EXTINCTION, _PARSED = Field(float, 0.0, 1.0), Field(float, 0.1, null=True), Field(None)

#: The keys every config may carry; `parse` checks the first two itself.
COMMON_FIELDS = {"schema_version": _PARSED, "experiment": _PARSED, "seed": Field(int, 0, null=True)}

#: experiment -> {key: Field} for every other key its config may carry, the
#: keys of the README key table.  Any key not declared is a config error.
FIELDS = {
    "hom-fringe": {
        "overlap": _OVERLAP, "v_pi_volts": _V_PI, "voltage_start": _VOLTS,
        "voltage_stop": _VOLTS, "n_points": Field(int, 5, MAX_N_POINTS),
        "accidental_floor": _NON_NEGATIVE, "extinction_db": _EXTINCTION,
        "poisson_mean_counts": Field(float, 1.0, null=True),
    },
    "demux": {
        "n_frames": Field(int, 1, MAX_N_FRAMES), "repetition_period_ns": _POSITIVE,
        "f_3db_ghz": Field(float, 1e-9, null=True),
        "extinction_db": _EXTINCTION, "bar_leakage": Field(float, 0.0, 0.499, null=True),
        "insertion_loss_db": Field(float, 0.0, MAX_INSERTION_LOSS_DB),
        "train_offset_ns": _NON_NEGATIVE, "phase_errors_rad": _PARSED,
    },
    "distribution": {
        "unitary": _PARSED, "mesh": _PARSED, "input_modes": _PARSED, "overlap": _OVERLAP,
        "collision_free_only": Field(bool),
    },
    "mesh-decompose": {"unitary": _PARSED, "tol": _NON_NEGATIVE},
    "mesh-compose": {"mesh": _PARSED},
    "reconstruct": {"unitary": _PARSED, "statistics": _PARSED, "overlap": _OVERLAP},
    "loss-budget": {"entries": _PARSED, "sweep": _PARSED},
}

#: experiment -> (parse, run); the parse is validate's whole job.
EXPERIMENTS = {
    "hom-fringe": (_parse_hom_fringe, _run_hom_fringe),
    "demux": (_parse_demux, _run_demux),
    "distribution": (_parse_distribution, _run_distribution),
    "mesh-decompose": (_parse_mesh_decompose, _run_mesh_decompose),
    "mesh-compose": (_parse_mesh_compose, _run_mesh_compose),
    "reconstruct": (_parse_reconstruct, _run_reconstruct),
    "loss-budget": (_parse_loss_budget, _run_loss_budget),
}


def parse(experiment, cfg):
    """The parsed inputs of ``experiment``, or ConfigError with every diagnostic."""
    diags: list[str] = []
    version = cfg.get("schema_version")
    if not is_integer(version) or version != CONFIG_SCHEMA_VERSION:
        diags.append(f"schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
    declared = cfg.get("experiment")
    if declared != experiment:
        diags.append(f"config experiment {declared!r} does not match command {experiment!r}")
        raise ConfigError(diags)
    fields = _read(cfg, {**COMMON_FIELDS, **FIELDS[experiment]}, diags)
    # A refused seed has a diagnostic of its own, and still counts as given.
    fields.setdefault("seed", cfg.get("seed"))
    parsed = EXPERIMENTS[experiment][0](fields, diags)
    if diags:
        raise ConfigError(diags)
    return parsed
