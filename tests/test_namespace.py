"""The package namespace: every public name resolves, and of scipy only the
compiled ODEPACK module loads, and only when something is integrated."""

import importlib.util
import json
import os
import types
from pathlib import Path

import pytest
from conftest import python

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
iobspectra.integrate(state, params, iobspectra.Mechanism.LORENTZ, 8.0, 5.0,
                     t_eval=[0.0, 1.0, 5.0])
iobspectra.sweep_adiabatic(params, iobspectra.Mechanism.LORENTZ, 13.0, 13.5, 1e-3)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == ["scipy.integrate._odepack"], f"{loaded} loaded after a relax and a sweep"
"""


def test_every_public_name_resolves():
    """``__all__``, derived from the imports of ``__init__``, holds 44 distinct
    names, each bound in the package to an object of an iobspectra module and
    none to a module, so a later import there cannot export a foreign name."""
    names = iobspectra.__all__
    assert len(names) == len(set(names)) == 44
    for name in names:
        value = vars(iobspectra)[name]
        assert not isinstance(value, types.ModuleType), name
        assert value.__module__.startswith("iobspectra."), (name, value.__module__)
    namespace = {}
    exec("from iobspectra import *", namespace)
    for name in names:
        assert namespace[name] is getattr(iobspectra, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        iobspectra.no_such_name


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter, which must exit 0."""
    proc = python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr


def test_scipy_loads_on_first_integration():
    """Importing the package, building states and evaluating the flow load no
    scipy module; a relax and a sweep load scipy's compiled ODEPACK module
    alone, not the scipy.integrate package, whose import takes about half a
    second."""
    run_fresh(FRESH_PROCESS)


NO_ODEPACK = """
import importlib.machinery, os
from iobspectra import dynamics
find_spec = importlib.machinery.PathFinder.find_spec
importlib.machinery.PathFinder.find_spec = lambda name, path=None, target=None: (
    None if name == "scipy.integrate._odepack" else find_spec(name, path, target))
try:
    dynamics.odeint
    raise AssertionError("no ImportError")
except ImportError as exc:
    message = str(exc)
assert message.startswith("scipy's ODEPACK extension scipy.integrate._odepack is not in "), message
assert message.endswith(os.path.join("scipy", "integrate")), message
"""


def test_a_missing_odepack_extension_is_an_import_error():
    """Without the compiled extension, the first integration raises an
    ImportError that names where it was looked for; there is no fallback to
    the scipy.integrate package."""
    run_fresh(NO_ODEPACK)


REPEATED_SCANS = """
import resource
import numpy as np
from iobspectra import MediumParams, Mechanism, scan_hysteresis
grid = np.linspace(0.0, 25.0, 2000)
for mech, params in ((Mechanism.LORENTZ, MediumParams(delta=3.0, zeta_lorentz=50.0)),
                     (Mechanism.DETUNING, MediumParams(delta=3.0, zeta_detuning=50.0))):
    scan_hysteresis(params, mech, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        scan_hysteresis(params, mech, grid)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 50, f"{mech.value}: {faults} page faults in 5 repeated scans"
"""


@pytest.mark.skipif("CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}),
                    reason="the heap setting is glibc's")
def test_repeated_scans_reuse_their_heap():
    """Importing the package keeps freed heap for the next call: with glibc's
    defaults, five 2000-drive scans in a fresh process faulted in about 600
    pages again."""
    run_fresh(REPEATED_SCANS)


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


SCIPY_FIRST = """
import sys
import scipy.integrate
from iobspectra import dynamics
assert dynamics.odeint is sys.modules["scipy.integrate._odepack"].odeint
"""

PACKAGE_FIRST = """
import sys
from iobspectra import dynamics
odeint = dynamics.odeint
import scipy.integrate
assert odeint is sys.modules["scipy.integrate._odepack"].odeint
assert odeint is scipy.integrate._odepack_py._odepack.odeint
"""


def test_dynamics_odeint_is_scipys():
    """LSODA runs through ``dynamics.odeint``, which tracers wrap by attribute
    as they wrap ``solve_ivp``.  It is the function of scipy's one ODEPACK
    module object, whether scipy.integrate loaded that module first or the
    package did and scipy.integrate reuses it."""
    run_fresh(SCIPY_FIRST)
    run_fresh(PACKAGE_FIRST)
