"""The package namespace: every public name resolves, and ``dynamics``
(with its scipy import) loads only when first used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import iobspectra

FRESH_PROCESS = """
import sys
import iobspectra
assert "iobspectra.dynamics" not in sys.modules
assert set(iobspectra.__all__) | {"dynamics"} <= set(dir(iobspectra))
assert iobspectra.dynamics.integrate is sys.modules["iobspectra.dynamics"].integrate
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


def test_dynamics_loads_on_first_access():
    src = str(Path(iobspectra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
