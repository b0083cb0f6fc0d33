"""The experiments behind the CLI: one config parse and one run each.

``EXPERIMENTS`` maps each experiment to its parse/run pair.  ``cli``
imports this module only once argparse has accepted a command, and each
pair imports the library modules its experiment runs when it is called,
so a cold ``lnoisim demux`` loads no ``mesh``, ``reconstruct`` or
``budget``.
"""

from __future__ import annotations

import math

import numpy as np

from .cli import _dump_json
from .core import finite_number_array, is_finite_number, is_integer, matrix_distance
from .errors import ConfigError

__all__ = ["matrix_from_json_dict", "matrix_to_json_dict"]

CONFIG_SCHEMA_VERSION = 1
UNITARY_SCHEMA_VERSION = 1

#: The longest ``demux`` train, so that a run stays well inside memory:
#: 100,000 frames take about 0.3 GB and write a 37 MB trace.csv.
MAX_N_FRAMES = 100_000

#: The most grid samples per ``demux`` slot: the drive grid indexes its
#: 4 * n_frames * samples_per_slot samples with int64, and this keeps that
#: count within int64 for every n_frames up to MAX_N_FRAMES.  The 4 is
#: ``router.SLOTS_PER_FRAME``, written out so this module loads no router.
MAX_SAMPLES_PER_SLOT = int(np.iinfo(np.int64).max) // (4 * MAX_N_FRAMES)

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
    from .components import MZIParams
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
    from .components import PhaseShifterParams
    from .photons import SourceModel
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
    from .components import PhaseShifterParams
    from .photons import SourceModel
    from .router import SLOTS_PER_FRAME, TIMING_TOLERANCE_NS, default_pulse_program
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
    from .mesh import MeshConfig, compose
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
    from .mesh import decompose
    u = _matrix_field(cfg, diags, "unitary", required=True)
    tol = _number(cfg, diags, "tol", minimum=0.0)
    if u is None:
        return None
    return u, _build(diags, "field 'unitary'", decompose, u, **_given(tol=tol))


def _parse_mesh_compose(cfg, seed, diags):
    from .mesh import MeshConfig
    if not isinstance(cfg.get("mesh"), dict):
        diags.append("missing required field 'mesh' (mesh configuration object)")
        return None
    return _build(diags, "field 'mesh'", MeshConfig.from_json_dict, cfg["mesh"])


def _parse_reconstruct(cfg, seed, diags):
    from .reconstruct import MeasuredStatistics, synthesize_statistics
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
    from .budget import BudgetEntry, LossBudget
    from .components import GratingSpectrum
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
    from .photons import single_photon_distribution, two_photon_distribution
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
    from .mesh import compose, modulator_layout
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
    from .mesh import compose
    u = compose(config)
    outputs = {"unitary.json": _dump_json(matrix_to_json_dict(u))}
    return outputs, [f"composed {config.n_modes}x{config.n_modes} transfer matrix"]


def _run_reconstruct(parsed):
    from .reconstruct import canonical_form, reconstruct_unitary
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


def parse(experiment, cfg, seed):
    """The parsed inputs of ``experiment``, or ConfigError with every diagnostic."""
    diags: list[str] = []
    _check_common(cfg, experiment, diags)
    parsed = None
    if not diags or cfg.get("experiment") == experiment:
        parsed = EXPERIMENTS[experiment][0](cfg, seed, diags)
    if diags:
        raise ConfigError(diags)
    return parsed
