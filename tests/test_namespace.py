"""The package namespace: every public name resolves, and scipy loads only
when something is integrated."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iobspectra

FRESH_PROCESS = """
import sys
import iobspectra

def no_scipy(after):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{loaded} loaded after {after}"

no_scipy("import iobspectra")
state = iobspectra.BlochState(0.1, 0.2, 0.3)
no_scipy("building a BlochState")
params = iobspectra.MediumParams(delta=3.0, zeta_lorentz=50.0)
iobspectra.bloch_rhs(state, params, iobspectra.Mechanism.LORENTZ, 8.0)
iobspectra.jacobian(state, params, iobspectra.Mechanism.LORENTZ, 8.0)
no_scipy("bloch_rhs and jacobian")
assert set(iobspectra.__all__) | {"dynamics"} <= set(dir(iobspectra))
assert iobspectra.dynamics.integrate is sys.modules["iobspectra.dynamics"].integrate
iobspectra.dynamics.odeint
assert "scipy.integrate" in sys.modules
"""


def test_every_public_name_resolves():
    for name in iobspectra.__all__:
        value = getattr(iobspectra, name)
        if name not in vars(iobspectra):  # resolved on access, from dynamics
            assert value is getattr(iobspectra.dynamics, name), name
    namespace = {}
    exec("from iobspectra import *", namespace)
    for name in iobspectra.__all__:
        assert namespace[name] is getattr(iobspectra, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        iobspectra.no_such_name


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(iobspectra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_on_first_integration():
    run_fresh(FRESH_PROCESS)


RESOLVE = """
import importlib, json, sys
missing = [(m, a) for m, a in json.loads(sys.argv[1])
           if not hasattr(importlib.import_module("iobspectra." + m), a)]
assert not missing, missing
"""


def test_tracer_targets_resolve():
    """The benchmark's tracer wraps each (module, attribute) of its TARGETS
    through getattr and setattr, so each must resolve on iobspectra.<module>.
    A fresh process meets the names bound on first access as a tracer does."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = sorted({(module, attr) for module, attr, _, _ in tracer.TARGETS})
    assert ("dynamics", "solve_ivp") in pairs
    run_fresh(RESOLVE, json.dumps(pairs))


def test_dynamics_solve_ivp_is_scipys():
    """Tracers wrap ``dynamics.solve_ivp`` by attribute, so it must be the
    plain scipy function, not a proxy."""
    import scipy.integrate

    assert iobspectra.dynamics.solve_ivp is scipy.integrate.solve_ivp


def test_dynamics_odeint_is_scipys():
    """LSODA runs through ``dynamics.odeint``, which tracers wrap by attribute
    as they wrap ``solve_ivp``."""
    import scipy.integrate

    assert iobspectra.dynamics.odeint is scipy.integrate.odeint
