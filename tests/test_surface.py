"""The public surface is what something that uses the package reaches.

The golden configs and the README's Python blocks run once under
``sys.setprofile``.  Every function in a module's ``__all__``, and every
public method and property of a class there, must be called by them,
unless ALLOWED names it with the use that keeps it.  Every defaulted
parameter of those functions, and every defaulted field of a dataclass
there, must be given a value other than its default in the same pass,
unless ALLOWED_DEFAULTS names it with what sets it.  A name or an option
that nothing uses is deleted, not listed.  Every config key an experiment
declares must be given by a golden config of that experiment that
``validate`` accepts, with no list of exceptions.

The same pass records the first call of each of those functions and
dataclasses.  Replayed with nan, inf or -inf in one parameter annotated
``float`` or ``int`` at a time, each call must raise ``ValueError``, unless
PROPAGATES names the parameter with the reason it lets the value through.

An exception class has no public methods for that pass to see, so each
one must instead be caught by name somewhere in the package or carry data
of its own.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lnoisim
from golden import regen
from lnoisim.experiments import COMMON_FIELDS, FIELDS
from test_readme import BLOCKS

#: Public names no golden config or README block calls, and what uses each.
ALLOWED = {
    "MZIParams.ideal": "benchmark: perfbench/switching.py and perfbench/smoke.py",
    "voltage_for_phase": "benchmark: phases_to_voltages, which perfbench/circuit.py calls",
    "gauge_input_phases": "benchmark: the voltage program of perfbench/circuit.py",
    "phases_to_voltages": "benchmark: the voltage program of perfbench/circuit.py",
    "extinction_ratio_db": "benchmark: switch-cell calibration; README acceptance item 6",
    "demux_input_transmissions": "benchmark: switch-cell calibration; README acceptance item 6",
    "estimate_mzi_loss_from_demux": "benchmark: switch-cell calibration; README acceptance item 6",
    "permanent": "benchmark: the permanent timings of perfbench/circuit.py",
    "eom_response": "benchmark: the sampled drive grid of perfbench/switching.py",
    "PulseProgram.channels": "benchmark: the sampled drive grid of perfbench/switching.py",
    "PulseProgram.sample_rate_ghz": "benchmark: the sampled drive grid of perfbench/switching.py",
    "PhotonDistribution.outcomes": "benchmark: perfbench/circuit.py reads patterns by this name",
    "PhotonDistribution.to_distribution": "benchmark: perfbench/circuit.py converts through it",
    "ReconstructionResult.n_restarts_used": "benchmark: perfbench/circuit.py reads the restart count",
    "MeshConfig.cells": "benchmark: perfbench/circuit.py and perfbench/smoke.py read cells[k].theta and .phi",
    "eom_s21_db": "README acceptance item 5: modulator bandwidth",
    "s21_crossing_ghz": "README acceptance item 5: modulator bandwidth",
}

#: Defaulted parameters, ``function(name)``, and dataclass fields,
#: ``Class.name``, that no golden config or README block sets, and what sets each.
ALLOWED_DEFAULTS = {
    "MZIParams.ideal(shifter)": "benchmark: perfbench/switching.py and perfbench/smoke.py",
    "default_pulse_program(samples_per_slot)": "benchmark: perfbench/switching.py passes it by name",
    "default_pulse_program(v_pi_volts)": "benchmark: perfbench/switching.py passes it by name",
    "fit_hom_visibility(sigma)": "benchmark: the weighted fringe fits of perfbench/switching.py and smoke.py",
    "reconstruct_unitary(seed)": "benchmark: perfbench/circuit.py and perfbench/smoke.py pass a seed",
}


#: Parameters, ``function(name)``, and dataclass fields, ``Class.name``,
#: annotated ``float`` or ``int`` that let nan or an infinity through, and why.
PROPAGATES = {
    "phase_from_voltage(volts)": "element-wise kernel: a non-finite voltage is a non-finite phase",
    "mzi_transfer(phase_rad)": "element-wise kernel: a non-finite phase gives a nan matrix",
    "PhaseShifterParams.f_3db_ghz": "math.inf models an instantaneous shifter",
    "SwitchMetrics.average_probability": "a result that switch_metrics builds from a checked trace",
    "SwitchMetrics.suppression_db": "a result: perfect routing reports -inf",
    "ReconstructionResult.cost": "a result that reconstruct_unitary builds from its best fit",
    "ReconstructionResult.nfev": "a result: reconstruct_unitary counts its fit's evaluations",
    "SwitchMetrics.n_frames": "a result that switch_metrics counts from a checked trace",
}


def _public_modules():
    modules = [importlib.import_module(f"lnoisim.{name}") for name in lnoisim._SUBMODULES]
    return modules + [lnoisim.cli, lnoisim.experiments]


def _public_functions():
    """{qualified name: function} for each function of an ``__all__`` and each
    public method and property of an ``__all__`` class."""
    found = {}
    for module in _public_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[obj.__qualname__] = obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{name}.{attr}"] = member
    return found


def _callables():
    """(name pattern, callable, function) for each public function, called
    directly, and each ``__all__`` dataclass, called through its class and
    read from its generated ``__init__``."""
    found = [(f"{name}({{}})", func, func) for name, func in _public_functions().items()]
    for module in _public_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found.append((f"{name}.{{}}", obj, obj.__init__))
    return found


def _defaulted_options():
    """{code object: [(option name, parameter, default)]} for each defaulted
    parameter of a public function and each defaulted field of an ``__all__``
    dataclass."""
    return {
        func.__code__: [
            (pattern.format(param.name), param.name, param.default)
            for param in inspect.signature(func).parameters.values()
            if param.default is not param.empty
        ]
        for pattern, _, func in _callables()
    }


def _replayable():
    """{code object: (name pattern, callable, numeric parameters)} for each of
    ``_callables``; a parameter counts as numeric if its annotation is
    ``float`` or ``int``, alone or in a union."""
    return {
        func.__code__: (pattern, target, [
            param.name for param in inspect.signature(target).parameters.values()
            if {"float", "int"} & {part.strip() for part in str(param.annotation).split("|")}
        ])
        for pattern, target, func in _callables()
    }


def _differs(value, default) -> bool:
    """Whether an argument is other than its parameter's default; an array
    compared element by element counts as other."""
    if value is default:
        return False
    try:
        return not bool(value == default)
    except ValueError:
        return True


@pytest.fixture(scope="module")
def profiled_pass(tmp_path_factory):
    """One run of the golden configs and README blocks under ``sys.setprofile``:
    the code objects it calls, the options it gives a value other than their
    default, and the arguments of the first call of each replayable code object."""
    reached, set_options, first_calls = set(), set(), {}
    options, replayable = _defaulted_options(), _replayable()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)
            for option, param, default in options.get(frame.f_code, ()):
                if _differs(frame.f_locals[param], default):
                    set_options.add(option)
            if frame.f_code in replayable and frame.f_code not in first_calls:
                target = replayable[frame.f_code][1]
                first_calls[frame.f_code] = {
                    name: frame.f_locals[name] for name in inspect.signature(target).parameters
                }

    sys.setprofile(profile)
    try:
        regen.digests(tmp_path_factory.mktemp("golden"))
        for index, block in enumerate(BLOCKS):
            exec(compile(block, f"README.md python block {index}", "exec"), {})
    finally:
        sys.setprofile(None)
    return reached, set_options, first_calls


def test_every_public_function_is_used(profiled_pass):
    public = _public_functions()
    reached, *_ = profiled_pass
    unused = sorted(
        name for name, func in public.items() if func.__code__ not in reached and name not in ALLOWED
    )
    assert not unused, f"public but reached by no golden config or README block: {unused}"
    gone = sorted(name for name in ALLOWED if name not in public)
    assert not gone, f"ALLOWED names what is no longer public: {gone}"
    reached_anyway = sorted(name for name in ALLOWED if public[name].__code__ in reached)
    assert not reached_anyway, f"ALLOWED names what a golden config or README block reaches: {reached_anyway}"


def test_every_option_is_set(profiled_pass):
    _, set_options, _ = profiled_pass
    options = {option for entries in _defaulted_options().values() for option, _, _ in entries}
    unset = sorted(options - set_options - set(ALLOWED_DEFAULTS))
    assert not unset, f"options no golden config or README block sets: {unset}"
    gone = sorted(set(ALLOWED_DEFAULTS) - options)
    assert not gone, f"ALLOWED_DEFAULTS names what is no longer a defaulted option: {gone}"
    set_anyway = sorted(set(ALLOWED_DEFAULTS) & set_options)
    assert not set_anyway, f"ALLOWED_DEFAULTS names what a golden config or README block sets: {set_anyway}"


def test_every_config_key_is_set_by_a_golden_config():
    recorded = json.loads(regen.TABLE.read_text())["runs"]
    given = {experiment: set() for experiment in FIELDS}
    for path in (regen.HERE / "configs").glob("*.json"):
        if recorded[path.stem]["validate exit"] == 0:
            cfg = json.loads(path.read_text())
            given[cfg["experiment"]] |= cfg.keys()
    unset = sorted(
        f"{experiment}.{key}"
        for experiment, keys in FIELDS.items()
        for key in {**COMMON_FIELDS, **keys}.keys() - {"schema_version", "experiment"} - given[experiment]
    )
    assert not unset, f"config keys no golden config that validate accepts gives: {unset}"


def _refuses(target, args) -> bool:
    try:
        target(**args)
    except ValueError:
        return True
    return False


def test_numeric_parameters_refuse_values_that_are_not_finite(profiled_pass):
    *_, first_calls = profiled_pass
    replayable = _replayable()
    let_through = set()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for code, args in first_calls.items():
            pattern, target, numeric = replayable[code]
            for param in numeric:
                if not all(_refuses(target, {**args, param: value})
                           for value in (math.nan, math.inf, -math.inf)):
                    let_through.add(pattern.format(param))
    accepted = sorted(let_through - set(PROPAGATES))
    assert not accepted, f"numeric parameters that accept nan or an infinity: {accepted}"
    stale = sorted(set(PROPAGATES) - let_through)
    assert not stale, f"PROPAGATES names what refuses them all or is no longer replayed: {stale}"


def _caught_names():
    """The names that an ``except`` clause in the package's source catches."""
    caught = set()
    for path in Path(lnoisim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.id if isinstance(t, ast.Name) else t.attr for t in types}
    return caught


def test_every_error_class_is_told_apart():
    # A class is kept only if a handler tells it apart from the others, or
    # if it defines __init__ to carry data a caller reads.
    caught = _caught_names()
    errors = importlib.import_module("lnoisim.errors")
    bare = sorted(
        name for name in errors.__all__
        if name not in caught and "__init__" not in vars(getattr(errors, name))
    )
    assert not bare, f"error classes that no except clause catches and that carry no data: {bare}"
