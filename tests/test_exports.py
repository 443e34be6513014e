"""Every exported name resolves, and the scalar path needs nothing but the stdlib.

A scalar in gives a Python ``complex``/``float`` out; an array in gives an
ndarray of its shape.  ``import susy_ces`` loads no submodule, each name
loads its module on first access, and no scalar call below it loads numpy
(``verify`` does).
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import susy_ces
from susy_ces import Branch, Sector, V, chf_1f1, components, solution_Z, y_of_x
from susy_ces import closedform as cf

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["susy_ces", "susy_ces.oracle",
                                    "susy_ces.scattering", "susy_ces.verify"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []


def test_verify_names_load_lazily():
    from susy_ces import verify
    assert susy_ces.run_suite is verify.run_suite
    assert susy_ces.CheckReport is verify.CheckReport
    ns = {}
    exec("from susy_ces import *", ns)
    assert ns["run_suite"] is verify.run_suite and ns["CheckReport"] is verify.CheckReport
    with pytest.raises(AttributeError):
        susy_ces.no_such_name


def test_dir_names_every_export_and_submodule():
    # the namespace is lazy: dir() lists what it can resolve, loaded or not
    names = dir(susy_ces)
    assert set(susy_ces.__all__) <= set(names)
    assert set(SUBMODULES) <= set(names)


def test_not_converged_carries_its_partial_result():
    partial = object()
    assert susy_ces.NotConverged("m", result=partial).result is partial
    assert susy_ces.NotConverged("m").result is None


#: a fresh interpreter: the modules a scalar call loads, then every
#: submodule through the package namespace
_FRESH = """\
import json, sys
import susy_ces
facts = {"dir": sorted(dir(susy_ces))}
susy_ces.solution_params(1.0, 1.0)
facts["solution_params"] = sorted(sys.modules)
susy_ces.phase_difference
facts["phase_difference loads scattering"] = "susy_ces.scattering" in sys.modules
facts["attributes"] = [getattr(susy_ces, name) is sys.modules["susy_ces." + name]
                       for name in sys.argv[1:]]
print(json.dumps(facts))
"""
SUBMODULES = ("closedform", "specfun", "highprec", "oracle", "potential",
              "scattering", "errors", "_points", "verify", "cli")


def test_a_scalar_call_loads_only_the_modules_it_uses():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", _FRESH, *SUBMODULES],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    facts = json.loads(run.stdout)
    assert set(susy_ces.__all__) <= set(facts["dir"])
    loaded = set(facts["solution_params"])
    assert {"susy_ces.closedform", "susy_ces.specfun", "susy_ces.highprec"} <= loaded
    assert not loaded & {"susy_ces.oracle", "susy_ces.scattering", "susy_ces.verify",
                         "decimal", "numpy"}
    assert facts["phase_difference loads scattering"]
    assert all(facts["attributes"])


def test_scalar_path_runs_on_the_stdlib_alone():
    # -S: no site-packages, so numpy cannot be imported at all
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-S", str(ROOT / "scripts" / "stdlib_smoke.py")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("stdlib only:")


P = cf.solution_params(1.0, 1.0)


def _on_ray(x):
    """z = -2 i x: an array (0-d included) for an array x, else a scalar."""
    return np.asarray(-2j * x) if isinstance(x, np.ndarray) else -2j * x


#: each public function that takes points, called at x (or z = -2 i x)
CALLS = {
    "solution_Z.value": (lambda x: solution_Z(P, Branch.I, Sector.MINUS, x).value, complex),
    "solution_Z.derivative": (lambda x: solution_Z(P, Branch.II, Sector.PLUS, x).derivative,
                              complex),
    "components": (lambda x: components(P, Branch.II, x)[1], complex),
    "y_of_x": (lambda x: y_of_x(x, 1.0), complex),
    "V": (lambda x: V(x, 1.0, Sector.MINUS), float),
    "chf_1f1": (lambda x: chf_1f1(0.5j, 0.5, _on_ray(x)), complex),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_scalar_gives_a_python_scalar(name):
    f, kind = CALLS[name]
    for x in (2.5, np.float64(2.5)):   # np.float64 is a float: the scalar path
        got = f(x)
        assert type(got) is kind
        assert got == f(2.5)


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("shape", [(), (0,), (1,), (2, 2)])
def test_an_array_gives_an_ndarray_of_its_shape(name, shape):
    f, kind = CALLS[name]
    got = f(np.full(shape, 2.5))
    assert isinstance(got, np.ndarray)
    assert got.shape == shape
    assert got.dtype == np.dtype(kind)
    assert all(v == f(2.5) for v in got.ravel().tolist())
