"""The public surface is what something that uses the package reaches.

The golden configs and the README's Python blocks run under
``sys.setprofile``.  Every function in a module's ``__all__``, and every
public method and property of a class there, must be called by them,
unless ALLOWED names it with the use that keeps it.  A name that nothing
uses is deleted, not listed.

An exception class has no public methods for that pass to see, so each
one must instead be caught by name somewhere in the package or carry data
of its own.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import lnoisim
from golden import regen
from test_readme import BLOCKS

#: Public names no golden config or README block calls, and what uses each.
ALLOWED = {
    "MZIParams.ideal": "benchmark: perfbench/switching.py and perfbench/smoke.py",
    "voltage_for_phase": "benchmark: the voltage program of perfbench/circuit.py",
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
    "eom_s21_db": "README acceptance item 5: modulator bandwidth",
    "s21_crossing_ghz": "README acceptance item 5: modulator bandwidth",
}


def _public_functions():
    """{qualified name: function} for each function of an ``__all__`` and each
    public method and property of an ``__all__`` class."""
    modules = [importlib.import_module(f"lnoisim.{name}") for name in lnoisim._SUBMODULES]
    modules += [lnoisim.cli, lnoisim.experiments]
    found = {}
    for module in modules:
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


def _reached_code(tmp_path):
    """The code objects called while the golden configs and README blocks run."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        regen.digests(tmp_path)
        for index, block in enumerate(BLOCKS):
            exec(compile(block, f"README.md python block {index}", "exec"), {})
    finally:
        sys.setprofile(None)
    return reached


def test_every_public_function_is_used(tmp_path):
    public = _public_functions()
    reached = _reached_code(tmp_path)
    unused = sorted(
        name for name, func in public.items() if func.__code__ not in reached and name not in ALLOWED
    )
    assert not unused, f"public but reached by no golden config or README block: {unused}"
    gone = sorted(name for name in ALLOWED if name not in public)
    assert not gone, f"ALLOWED names what is no longer public: {gone}"
    reached_anyway = sorted(name for name in ALLOWED if public[name].__code__ in reached)
    assert not reached_anyway, f"ALLOWED names what a golden config or README block reaches: {reached_anyway}"


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
