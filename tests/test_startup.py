import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lnoisim

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "configs"

# Runs `python -m lnoisim ARGS` through runpy, then prints the exit code,
# the lnoisim modules loaded and whether numpy, hashlib and json are loaded,
# all read before the probe imports json itself.
CLI_PROBE = """
import runpy, sys
sys.argv[0] = "lnoisim"
try:
    runpy.run_module("lnoisim", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = set(sys.modules)
import json
print(json.dumps([code, sorted(m for m in loaded if m.startswith("lnoisim")),
                  *(name in loaded for name in ("numpy", "hashlib", "json"))]))
"""


def _fresh_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["demux"]])
def test_front_end_alone_loads_no_numpy(argv):
    # `demux` without --config is an argparse usage error: exit 2.
    code, modules, numpy_loaded, hashlib_loaded, json_loaded = _fresh_python(CLI_PROBE, *argv)
    assert code == (2 if argv == ["demux"] else 0)
    assert modules == ["lnoisim", "lnoisim.cli", "lnoisim.errors"]
    assert not (numpy_loaded or hashlib_loaded or json_loaded)


@pytest.mark.parametrize("argv, config, unloaded", [
    (["validate"], "readme-loss-budget.json", {"mesh", "photons", "reconstruct", "router"}),
    (["hom-fringe", "--quiet"], "readme-hom-fringe.json", {"mesh", "reconstruct", "router", "budget"}),
    (["demux", "--quiet"], "readme-demux.json", {"photons", "mesh", "reconstruct", "budget"}),
    (["distribution", "--quiet"], "readme-distribution.json", {"mesh", "router", "reconstruct", "budget"}),
])
def test_experiment_loads_only_the_modules_it_runs(tmp_path, argv, config, unloaded):
    args = [*argv, "--config", str(GOLDEN / config), "--output-dir", str(tmp_path)]
    code, modules, *_ = _fresh_python(CLI_PROBE, *args)
    assert code == 0
    assert "lnoisim.experiments" in modules
    assert not {f"lnoisim.{name}" for name in unloaded} & set(modules)


def test_from_import_of_the_front_end_loads_no_library():
    code = (
        "import json, sys; from lnoisim import cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lnoisim'))))"
    )
    assert _fresh_python(code) == ["lnoisim", "lnoisim.cli", "lnoisim.errors"]


@pytest.mark.parametrize("extra, code", [({}, 0), ({"overlapp": 0.5}, 2)])
def test_difflib_loads_only_to_hint_at_an_unknown_key(tmp_path, extra, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads((GOLDEN / "readme-hom-fringe.json").read_text()), **extra}))
    probe = (
        "import json, sys; from lnoisim.cli import main; "
        "print(json.dumps([main(sys.argv[1:]), 'difflib' in sys.modules]))"
    )
    assert _fresh_python(probe, "validate", "--config", str(cfg)) == [code, code == 2]


def test_switch_cell_calibrates_without_numpy():
    # The calls of a switch-cell calibration: build, extinction, tree loss.
    code = (
        "import json, sys, lnoisim as lib; "
        "cell = lib.MZIParams.with_extinction(25.0, insertion_loss_db=0.5); "
        "er = lib.extinction_ratio_db(cell); "
        "loss = lib.estimate_mzi_loss_from_demux(*lib.demux_input_transmissions([cell] * 3)); "
        "print(json.dumps([er, loss, sorted(m for m in sys.modules if m.startswith('lnoisim')), "
        "'numpy' in sys.modules]))"
    )
    er, loss, modules, numpy_loaded = _fresh_python(code)
    assert er == pytest.approx(25.0) and loss == pytest.approx(0.5)
    assert modules == ["lnoisim", "lnoisim.components", "lnoisim.errors"]
    assert not numpy_loaded


def test_package_import_is_lazy():
    # A name loads the submodule that exports it and those before it in
    # dependency order, and then sits in the package's own namespace.
    code = (
        "import json, sys, lnoisim; loaded = lambda: sorted(m for m in sys.modules if m.startswith('lnoisim.')); "
        "before = loaded(); lnoisim.hom_fringe; "
        "print(json.dumps([before, loaded(), 'hom_fringe' in vars(lnoisim)]))"
    )
    before, after, cached = _fresh_python(code)
    assert before == []
    assert after == ["lnoisim.components", "lnoisim.core", "lnoisim.errors", "lnoisim.photons"]
    assert cached


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lnoisim import *", namespace)
    for name in lnoisim.__all__:
        assert namespace[name] is getattr(lnoisim, name), name


def test_dir_lists_all_and_every_export():
    listed = dir(lnoisim)
    assert "__all__" in listed
    assert set(lnoisim.__all__) <= set(listed)


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'lnoisim' has no attribute 'no_such_name'"):
        lnoisim.no_such_name


def test_resolved_name_is_cached_in_the_module_dict():
    vars(lnoisim).pop("switch_metrics", None)
    assert lnoisim.switch_metrics is lnoisim.router.switch_metrics
    assert vars(lnoisim)["switch_metrics"] is lnoisim.router.switch_metrics
