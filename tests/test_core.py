import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iobspectra import (
    MechanismError,
    MediumParams,
    Mechanism,
    incoherent_spectrum,
    solve_inversion,
    spectrum_coefficients,
    validate_mechanism,
    zeta_total,
)


def test_zeta_total_single_mechanisms():
    p = MediumParams(delta=3.0, zeta_lorentz=50.0)
    assert zeta_total(p, Mechanism.LORENTZ) == 50.0
    q = MediumParams(delta=3.0, zeta_detuning=50.0)
    assert zeta_total(q, Mechanism.DETUNING) == 50.0


def test_zeta_total_free_atom_limit():
    p = MediumParams()
    for mech in Mechanism:
        assert zeta_total(p, mech) == 0.0


def test_zeta_total_joint_additivity():
    p = MediumParams(delta=3.0, zeta_lorentz=30.0, zeta_detuning=20.0)
    assert zeta_total(p, Mechanism.JOINT) == 50.0


def test_inconsistent_mechanism_rejected():
    p = MediumParams(zeta_lorentz=10.0, zeta_detuning=5.0)
    with pytest.raises(MechanismError):
        zeta_total(p, Mechanism.LORENTZ)
    with pytest.raises(MechanismError):
        validate_mechanism(p, Mechanism.DETUNING)
    validate_mechanism(p, Mechanism.JOINT)  # allowed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"omega": -0.5},
        {"zeta_lorentz": -1.0},
        {"zeta_detuning": -2.0},
        {"delta": math.nan},
        {"omega": math.inf},
        # squares of these overflow in the cubics
        {"gamma": 1e200},
        {"delta": -1e200},
        {"zeta_lorentz": 1e200},
        {"zeta_detuning": 1e200},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        MediumParams(**kwargs)


def test_params_immutable():
    p = MediumParams()
    with pytest.raises(Exception):
        p.gamma = 2.0


@given(
    zl=st.floats(0.0, 100.0),
    zm=st.floats(0.0, 100.0),
)
def test_zeta_total_nonnegative_zero_iff_both_zero(zl, zm):
    p = MediumParams(zeta_lorentz=zl, zeta_detuning=zm)
    total = zeta_total(p, Mechanism.JOINT)
    assert total >= 0.0
    assert (total == 0.0) == (zl == 0.0 and zm == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(1e-3, 1e3),
    delta=st.floats(-8.0, 8.0),
    omega=st.floats(0.0, 20.0),
    zeta=st.floats(0.0, 60.0),
)
def test_rescaling_invariance(scale, delta, omega, zeta):
    """Scaling every frequency by a common factor leaves gamma-unit outputs alone."""
    base = MediumParams(gamma=1.0, delta=delta, omega=omega, zeta_lorentz=zeta)
    scaled = MediumParams(
        gamma=scale, delta=scale * delta, omega=scale * omega, zeta_lorentz=scale * zeta
    )
    w0 = solve_inversion(base, Mechanism.LORENTZ)
    w1 = solve_inversion(scaled, Mechanism.LORENTZ)
    assert len(w0) == len(w1)
    for a, b in zip(w0, w1):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    # spectral density carries one inverse frequency unit: gamma * S is invariant
    c0 = spectrum_coefficients(omega**2, delta, 1.0)
    c1 = spectrum_coefficients((scale * omega) ** 2, scale * delta, scale)
    rho22 = 0.5 * (1.0 - w0[0])
    for nu in (0.0, 0.7, 3.0):
        s0 = incoherent_spectrum(nu, c0, rho22, 1.0)
        s1 = incoherent_spectrum(scale * nu, c1, rho22, scale)
        assert scale * s1 == pytest.approx(s0, rel=1e-9, abs=1e-300)
