import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from omrouter.errors import InvalidParameterError
from omrouter.model import (CONSTANTS, SystemParams, effective_detunings,
                            pump_amplitude, thermal_occupation)

TAU = 2.0 * math.pi

# frozen with mpmath at 50 digits: sqrt(2*kappa1*P/(hbar*omega_l)) for
# P = 130 uW, omega_l = 2pi*195 THz, kappa1 = 2pi*100 kHz
EPS_L_REFERENCE = 35557505653.925893488
# frozen with mpmath at 50 digits: Bose occupation at omega = 2pi*10.56 MHz,
# T = 20 mK
NBAR_REFERENCE = 38.965405438534725087


def make_params(**overrides):
    values = dict(
        omega_m=TAU * 10.56e6, mass=48e-12, gamma_m=TAU * 32.0,
        kappa1=TAU * 100e3, kappa2=TAU * 1e3, g1=5.0e19, g2=1.2e20,
        delta_a=TAU * 10.56e6, delta_c=TAU * 10.56e6,
        omega_l=TAU * 195e12, omega_p=TAU * 7.1e9,
        power_l=130e-6, power_p=300e-9, temperature=0.02)
    values.update(overrides)
    return SystemParams(**values)


class TestPumpAmplitude:
    def test_zero_power(self):
        assert pump_amplitude(0.0, TAU * 195e12, TAU * 100e3) == 0.0

    def test_kappa_scaling(self):
        base = pump_amplitude(1e-6, TAU * 195e12, TAU * 100e3)
        doubled = pump_amplitude(1e-6, TAU * 195e12, 2.0 * TAU * 100e3)
        assert doubled == pytest.approx(math.sqrt(2.0) * base, rel=1e-12)

    def test_reference_value(self):
        eps = pump_amplitude(130e-6, TAU * 195e12, TAU * 100e3)
        assert eps == pytest.approx(EPS_L_REFERENCE, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(power=1e-6, omega_carrier=0.0, kappa=1.0),
        dict(power=1e-6, omega_carrier=-1.0, kappa=1.0),
        dict(power=1e-6, omega_carrier=1.0, kappa=0.0),
        dict(power=-1e-6, omega_carrier=1.0, kappa=1.0),
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(InvalidParameterError):
            pump_amplitude(**kwargs)

    def test_nan_power_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="^power must be >= 0$"):
            pump_amplitude(math.nan, 1e15, 1e5)

    @pytest.mark.parametrize("args, name", [
        ((math.inf, 1e15, 1e5), "power"),
        ((1e-6, math.inf, 1e5), "omega_carrier"),
        ((1e-6, 1e15, math.inf), "kappa")])
    def test_infinite_argument_rejected(self, args, name):
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must be finite$"):
            pump_amplitude(*args)

    @given(power=st.floats(min_value=1e-12, max_value=1e-2),
           alpha=st.floats(min_value=1e-6, max_value=1e6))
    def test_power_homogeneity(self, power, alpha):
        eps = pump_amplitude(power, TAU * 195e12, TAU * 100e3)
        scaled = pump_amplitude(alpha * power, TAU * 195e12, TAU * 100e3)
        assert scaled == pytest.approx(math.sqrt(alpha) * eps, rel=1e-9)


class TestEffectiveDetunings:
    def test_undisplaced(self):
        p = make_params()
        assert effective_detunings(p, 0.0) == (p.delta_a, p.delta_c)

    def test_decoupled(self):
        p = make_params(g1=0.0, g2=0.0)
        assert effective_detunings(p, 3.7e-13) == (p.delta_a, p.delta_c)

    @given(q=st.floats(min_value=-1e-11, max_value=1e-11))
    def test_linear_in_displacement(self, q):
        p = make_params()
        d1, d2 = effective_detunings(p, q)
        d10, d20 = effective_detunings(p, 0.0)
        scale = abs(p.delta_a) + abs(p.g1 * q)
        assert abs((d1 - d10) - p.g1 * q) <= 1e-12 * scale
        assert abs((d2 - d20) + p.g2 * q) <= 1e-12 * scale


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(TAU * 10.56e6, 0.0) == 0.0

    def test_unit_occupation_at_ln2_point(self):
        omega = TAU * 10.56e6
        temperature = CONSTANTS.hbar * omega / (CONSTANTS.k_B * math.log(2.0))
        assert thermal_occupation(omega, temperature) == pytest.approx(
            1.0, rel=1e-12)

    def test_reference_value(self):
        nbar = thermal_occupation(TAU * 10.56e6, 0.02)
        assert nbar == pytest.approx(NBAR_REFERENCE, rel=1e-12)

    def test_matches_coth_form(self):
        # nbar == (coth(x/2) - 1)/2 with x = hbar*omega/(k_B*T); the coth
        # side is evaluated at 50 digits so the comparison is one-sided
        mp.mp.dps = 50
        temperature = 0.02
        xs = np.logspace(-6, math.log10(50.0), 200)
        omegas = xs * CONSTANTS.k_B * temperature / CONSTANTS.hbar
        ours = thermal_occupation(omegas, temperature)
        for x, n in zip(xs, np.atleast_1d(ours)):
            exact = (mp.coth(mp.mpf(repr(float(x))) / 2) - 1) / 2
            assert abs(n - float(exact)) <= 1e-12 * float(exact)

    @given(omega=st.floats(min_value=1e3, max_value=1e11),
           t1=st.floats(min_value=1e-2, max_value=100.0),
           factor=st.floats(min_value=1.01, max_value=100.0))
    def test_monotone_in_temperature(self, omega, t1, factor):
        assert (thermal_occupation(omega, t1 * factor)
                > thermal_occupation(omega, t1))

    @given(omega=st.floats(min_value=1e3, max_value=1e11),
           factor=st.floats(min_value=1.01, max_value=100.0))
    def test_monotone_in_frequency(self, omega, factor):
        assert (thermal_occupation(omega * factor, 1.0)
                < thermal_occupation(omega, 1.0))

    def test_large_argument_underflows_to_zero(self):
        assert thermal_occupation(1e16, 1e-6) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            thermal_occupation(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            thermal_occupation(1.0, -1.0)

    def test_nan_temperature_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="^temperature must be >= 0$"):
            thermal_occupation(1e7, math.nan)

    @pytest.mark.parametrize("omega", [1e7, np.array([1e7, 2e7])])
    def test_infinite_temperature_rejected(self, omega):
        with pytest.raises(InvalidParameterError,
                           match="^temperature must be finite$"):
            thermal_occupation(omega, math.inf)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_params(omega_m=0.0)
        with pytest.raises(InvalidParameterError):
            make_params(mass=-1e-12)
        with pytest.raises(InvalidParameterError):
            make_params(g1=-1.0)
        with pytest.raises(InvalidParameterError):
            make_params(power_p=-1e-9)

    @pytest.mark.parametrize("name", [
        "omega_m", "mass", "gamma_m", "kappa1", "kappa2", "g1", "g2",
        "delta_a", "delta_c", "omega_l", "omega_p", "power_l", "power_p",
        "temperature"])
    def test_non_finite_value_rejected(self, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError,
                               match=f"^{name} must be finite$"):
                make_params(**{name: value})

    def test_sign_messages_unchanged(self):
        for name, value, message in [
                ("omega_m", 0.0, "omega_m must be > 0"),
                ("kappa2", -1.0, "kappa2 must be > 0"),
                ("g2", -1.0, "g2 must be >= 0"),
                ("temperature", -1e-3, "temperature must be >= 0")]:
            with pytest.raises(InvalidParameterError,
                               match=f"^{message}$"):
                make_params(**{name: value})

    def test_immutable(self):
        p = make_params()
        with pytest.raises(AttributeError):
            p.omega_m = 1.0
