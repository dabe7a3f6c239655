import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import omrouter.response as response_module
from omrouter.errors import InvalidParameterError, SingularPointError
from omrouter.model import CONSTANTS, thermal_occupation
from omrouter.response import (closed_form_coefficients,
                               closed_vs_oracle_deviation,
                               linear_solve_coefficients, reflection,
                               scan_spectrum, thermal_noise_spectrum,
                               transmission, vacuum_noise_spectrum,
                               _oracle_system)
from omrouter.steady import solve_steady_state

from test_model import make_params

TAU = 2.0 * math.pi
_COLUMNS = ("r_refl", "t_trans", "s_thermal", "s_vacuum")
_PUBLIC = ((reflection, "r_refl"), (transmission, "t_trans"),
           (thermal_noise_spectrum, "s_thermal"),
           (vacuum_noise_spectrum, "s_vacuum"))


@pytest.fixture(scope="module")
def bare():
    params = make_params(g1=0.0, g2=0.0, delta_a=TAU * 10.56e6)
    return params, solve_steady_state(params)


class TestBareCavity:
    def test_closed_form_is_lorentzian(self, bare):
        params, state = bare
        k1 = params.kappa1
        for omega in np.linspace(0.5, 1.5, 101) * params.omega_m:
            c = closed_form_coefficients(params, state, omega)
            expected = 2.0 * k1 / (2.0 * k1 + 1j * (state.delta1 - omega))
            got = math.sqrt(2.0 * k1) * c.e1
            assert abs(got - expected) <= 1e-12 * abs(expected)
            assert c.f1 == 0.0 and c.e2 == 0.0 and c.f2 == 0.0 and c.v == 0.0

    def test_oracle_matches_closed_exactly(self, bare):
        params, state = bare
        for omega in np.linspace(0.6, 1.4, 21) * params.omega_m:
            c = closed_form_coefficients(params, state, omega)
            o = linear_solve_coefficients(params, state, omega)
            assert abs(c.e1 - o.e1) <= 1e-12 * abs(c.e1)

    def test_unitarity(self, bare):
        params, state = bare
        grid = np.linspace(0.5, 1.5, 101) * params.omega_m
        total = (reflection(params, state, grid)
                 + transmission(params, state, grid))
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_resonant_point(self, bare):
        params, state = bare
        assert reflection(params, state, state.delta1) < 1e-24
        assert transmission(params, state, state.delta1) == pytest.approx(
            1.0, abs=1e-12)

    def test_far_detuned_total_reflection(self, bare):
        params, state = bare
        omega = state.delta1 + 1e6 * params.kappa1
        assert abs(reflection(params, state, omega) - 1.0) < 1e-5

    @given(kappa=st.floats(min_value=1e3, max_value=1e7),
           detuning=st.floats(min_value=-1e8, max_value=1e8),
           x=st.floats(min_value=-1e9, max_value=1e9))
    def test_unitarity_is_algebraic(self, kappa, detuning, x):
        z = 2.0 * kappa / (2.0 * kappa + 1j * (detuning - x))
        assert abs(z - 1.0) ** 2 + abs(z) ** 2 == pytest.approx(1.0,
                                                                abs=1e-12)


class TestCoefficients:
    def test_intermediates_reproduce_definitions(self, params_on, state_on):
        omega = 1.05 * params_on.omega_m
        c = closed_form_coefficients(params_on, state_on, omega)
        assert c.a1 == state_on.delta1 + omega + 2j * params_on.kappa1
        assert c.b1 == state_on.delta1 - omega - 2j * params_on.kappa1
        assert c.a2 == state_on.delta2 + omega + 2j * params_on.kappa2
        assert c.b2 == state_on.delta2 - omega - 2j * params_on.kappa2
        assert c.n_mech == (omega**2 + 1j * omega * params_on.gamma_m
                            - params_on.omega_m**2)
        assert c.d_det != 0.0

    def test_oracle_agreement_at_sideband(self, params_on, state_on):
        wm = params_on.omega_m
        c = closed_form_coefficients(params_on, state_on, wm)
        o = linear_solve_coefficients(params_on, state_on, wm)
        for name in ("e1", "f1", "e2", "f2", "v"):
            x, y = getattr(c, name), getattr(o, name)
            assert abs(x - y) <= 1e-9 * max(abs(x), abs(y))

    def test_optical_pump_off_kills_cross_terms(self):
        params = make_params(power_l=0.0)
        state = solve_steady_state(params)
        c = closed_form_coefficients(params, state, params.omega_m)
        assert c.f1 == 0.0 and c.e2 == 0.0 and c.f2 == 0.0 and c.v == 0.0
        # e1 reduces to the microwave-dressed cavity response
        hbar = CONSTANTS.hbar
        num = (2.0 * hbar * abs(state.c_s) ** 2 * params.g2**2
               * state.delta2 * c.a1
               + params.mass * c.n_mech * c.a1 * c.a2 * c.b2)
        expected = -1j * math.sqrt(2.0 * params.kappa1) * num / c.d_det
        assert c.e1 == pytest.approx(expected, rel=1e-12)

    def test_microwave_decoupled_kills_cross_terms(self):
        params = make_params(g2=0.0)
        state = solve_steady_state(params)
        c = closed_form_coefficients(params, state, 1.02 * params.omega_m)
        assert c.e2 == 0.0 and c.f2 == 0.0
        assert c.f1 != 0.0 and c.v != 0.0  # optical side still coupled

    def test_conjugate_mirror_symmetry(self, params_on, state_on):
        # conjugating the fluctuation system and flipping the frequency maps
        # the co-rotating row/ports onto the counter-rotating ones
        for omega in (0.93 * params_on.omega_m, 1.21 * params_on.omega_m):
            sol = {}
            for w in (omega, -omega):
                mat, rhs = _oracle_system(params_on, state_on,
                                          np.atleast_1d(w))
                sol[w] = np.linalg.solve(mat[0], rhs)
            plus, minus = sol[omega], sol[-omega]
            assert plus[1, 1] == pytest.approx(np.conj(minus[0, 0]),
                                               rel=1e-10)
            assert plus[1, 0] == pytest.approx(np.conj(minus[0, 1]),
                                               rel=1e-10)

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_singular_node_raises_or_masks(self, params_on, state_on,
                                           monkeypatch, method):
        real_arrays = response_module._arrays

        def singular_first(*args):
            arrs, bad = real_arrays(*args)
            bad[0] = True
            return arrs, bad

        monkeypatch.setattr(response_module, "_arrays", singular_first)
        wm = params_on.omega_m
        with pytest.raises(SingularPointError,
                           match=f"{method} .*condition estimate"):
            response_module.coefficients(params_on, state_on, wm, method)
        with pytest.raises(SingularPointError):
            reflection(params_on, state_on, wm, method=method)
        values = transmission(params_on, state_on, [wm, 1.1 * wm],
                              method=method)
        assert np.isnan(values[0]) and np.isfinite(values[1])

    def test_oracle_falls_back_to_per_node_solves(self, params_on,
                                                  state_on, monkeypatch):
        # a failed batched solve is retried node by node, and only the node
        # whose own matrix is singular is bad
        wm = params_on.omega_m
        grid = wm * np.array([0.9, 1.0, 1.1])
        expected = transmission(params_on, state_on, grid, method="oracle")
        real_solve = np.linalg.solve
        singular_entry = -1j * (grid[1] / wm)  # node 1's (4, 4) entry

        def solve(a, b):
            if np.ndim(a) == 3 or a[4, 4] == singular_entry:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        values = transmission(params_on, state_on, grid, method="oracle")
        assert np.isnan(values[1])
        assert values[[0, 2]] == pytest.approx(expected[[0, 2]], rel=1e-12)
        result = scan_spectrum(params_on, grid, method="oracle",
                               state=state_on)
        assert result.errors == [(1, grid[1],
                                  "singular response denominator")]
        for name in _COLUMNS:
            column = result.column(name)
            assert np.isnan(column[1]) and np.all(np.isfinite(column[[0, 2]]))
        with pytest.raises(SingularPointError,
                           match="oracle .*condition estimate"):
            response_module.coefficients(params_on, state_on, grid[1],
                                         "oracle")
        assert math.isfinite(abs(response_module.coefficients(
            params_on, state_on, grid[0], "oracle").e1))

    def test_unknown_method_rejected(self, params_on, state_on):
        with pytest.raises(InvalidParameterError):
            reflection(params_on, state_on, params_on.omega_m,
                       method="bogus")


class TestSpectra:
    def test_nonnegative_on_defaults(self, params_on, state_on):
        grid = params_on.omega_m * np.linspace(0.7, 1.3, 501)
        result = scan_spectrum(params_on, grid, state=state_on)
        for name in ("r_refl", "t_trans", "s_thermal", "s_vacuum"):
            column = result.column(name)
            assert np.all(np.isfinite(column))
            assert np.all(column >= 0.0)

    def test_nonnegative_on_random_parameters(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            params = make_params(
                g1=10 ** rng.uniform(18.0, 19.7),
                g2=10 ** rng.uniform(19.0, 20.0),
                power_l=10 ** rng.uniform(-6.0, -3.9),
                power_p=10 ** rng.uniform(-8.0, -6.5))
            state = solve_steady_state(params)
            grid = params.omega_m * np.linspace(0.8, 1.2, 101)
            result = scan_spectrum(params, grid, state=state)
            for name in ("r_refl", "t_trans", "s_thermal", "s_vacuum"):
                assert np.all(result.column(name) >= 0.0)

    def test_thermal_zero_at_zero_temperature(self):
        params = make_params(temperature=0.0)
        state = solve_steady_state(params)
        grid = params.omega_m * np.linspace(0.8, 1.2, 101)
        s = thermal_noise_spectrum(params, state, grid)
        assert np.all(s == 0.0)

    def test_thermal_zero_when_mechanics_decoupled(self):
        params = make_params(g1=0.0)
        state = solve_steady_state(params)
        omega = params.omega_m
        assert thermal_noise_spectrum(params, state, omega) == 0.0
        assert vacuum_noise_spectrum(params, state, omega) == 0.0

    def test_vacuum_zero_without_optical_pump(self):
        params = make_params(power_l=0.0)
        state = solve_steady_state(params)
        assert vacuum_noise_spectrum(params, state, params.omega_m) == 0.0

    def test_thermal_rejects_zero_frequency(self, params_on, state_on):
        with pytest.raises(InvalidParameterError):
            thermal_noise_spectrum(params_on, state_on, 0.0)

    def test_thermal_linear_in_occupation(self, params_on, state_on):
        omega = 1.1 * params_on.omega_m
        s1 = thermal_noise_spectrum(params_on, state_on, omega)
        hot = replace(params_on, temperature=0.08)
        s2 = thermal_noise_spectrum(hot, state_on, omega)
        ratio = (thermal_occupation(omega, 0.08)
                 / thermal_occupation(omega, params_on.temperature))
        assert s2 / s1 == pytest.approx(ratio, rel=1e-12)

    def test_thermal_matches_coth_correlator(self, params_on, state_on):
        # re-evaluate the raw (-w)*(1 + coth(-x/2)) weight at 50 digits and
        # compare with the stable Bose form used by the implementation
        mp.mp.dps = 50
        hbar, kb = CONSTANTS.hbar, CONSTANTS.k_B
        temperature = params_on.temperature
        for frac in (0.9, 1.0, 1.1):
            omega = frac * params_on.omega_m
            s_stable = thermal_noise_spectrum(params_on, state_on, omega)
            x = mp.mpf(repr(hbar)) * mp.mpf(repr(omega)) / (
                mp.mpf(repr(kb)) * mp.mpf(repr(temperature)))
            weight_exact = (-mp.mpf(repr(omega))) * (1 + mp.coth(-x / 2))
            nbar = thermal_occupation(omega, temperature)
            weight_stable = 2.0 * omega * nbar
            assert weight_stable == pytest.approx(float(weight_exact),
                                                  rel=1e-10)
            assert s_stable >= 0.0

    def test_negative_frequency_includes_vacuum_emission(self):
        params = make_params(temperature=0.0)
        state = solve_steady_state(params)
        assert thermal_noise_spectrum(params, state, -params.omega_m) > 0.0


class TestScan:
    def test_empty_grid(self, params_on, state_on):
        # the general path: empty columns and no errors on either kernel
        for method in ("closed", "oracle"):
            result = scan_spectrum(params_on, [], method=method,
                                   state=state_on)
            assert len(result) == 0 and result.errors == []
            for name in ("omega", *_COLUMNS):
                assert result.column(name).shape == (0,)

    def test_empty_2d_grid_rejected(self, params_on, state_on):
        # a 2-D grid is rejected whatever its size
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            scan_spectrum(params_on, np.empty((0, 3)), state=state_on)

    def test_single_node_matches_pointwise(self, params_on, state_on):
        omega = 1.07 * params_on.omega_m
        result = scan_spectrum(params_on, [omega], state=state_on)
        assert result.r_refl[0] == reflection(params_on, state_on, omega)
        assert result.t_trans[0] == transmission(params_on, state_on, omega)
        assert result.s_thermal[0] == thermal_noise_spectrum(params_on,
                                                             state_on, omega)
        assert result.s_vacuum[0] == vacuum_noise_spectrum(params_on,
                                                           state_on, omega)

    def test_rejects_non_increasing_grid(self, params_on, state_on):
        with pytest.raises(InvalidParameterError):
            scan_spectrum(params_on, [2.0, 1.0], state=state_on)

    def test_zero_node_recorded_and_scan_continues(self, params_on,
                                                   state_on):
        wm = params_on.omega_m
        result = scan_spectrum(params_on, [-wm, 0.0, wm], state=state_on)
        assert len(result) == 3
        assert [e[0] for e in result.errors] == [1]
        assert math.isnan(result.s_thermal[1])
        assert math.isfinite(result.r_refl[1])
        assert math.isfinite(result.s_thermal[0])

    @pytest.mark.parametrize("singular, nonfinite, expected", [
        ([0, 2], [3], [(0, "singular response denominator"),
                       (2, "singular response denominator"),
                       (3, "non-finite spectrum value")]),
        ([], [2, 4], [(2, "thermal spectrum singular at omega = 0"),
                      (4, "non-finite spectrum value")]),
    ])
    def test_error_precedence(self, params_on, state_on, monkeypatch,
                              singular, nonfinite, expected):
        # per node: a singular denominator wins over omega = 0, which wins
        # over a non-finite value
        real_arrays = response_module._arrays

        def forced(*args):
            arrs, bad = real_arrays(*args)
            bad[singular] = True
            arrs["e1"][nonfinite] = np.nan
            return arrs, bad

        monkeypatch.setattr(response_module, "_arrays", forced)
        wm = params_on.omega_m
        grid = wm * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        result = scan_spectrum(params_on, grid, state=state_on)
        assert [(i, msg) for i, _, msg in result.errors] == expected
        assert [w for _, w, _ in result.errors] == [
            0.0 if msg.startswith("thermal") else grid[i]
            for i, msg in expected]
        failed = [i for i, msg in expected if not msg.startswith("thermal")]
        for name in ("r_refl", "t_trans", "s_thermal", "s_vacuum"):
            column = result.column(name)
            assert np.all(np.isnan(column[failed]))
            ok = [i for i in range(5) if i not in failed and i != 2]
            assert np.all(np.isfinite(column[ok]))
        assert np.isnan(result.column("s_thermal")[2])

    def test_columns_are_read_only_copies(self, params_on, state_on):
        grid = params_on.omega_m * np.linspace(0.9, 1.1, 5)
        result = scan_spectrum(params_on, grid, state=state_on)
        grid[0] = 0.0  # the caller's grid stays the caller's
        assert result.omega[0] == 0.9 * params_on.omega_m
        for name in ("omega", "r_refl", "t_trans", "s_thermal", "s_vacuum"):
            with pytest.raises(ValueError):
                result.column(name)[0] = 1.0
        with pytest.raises(InvalidParameterError):
            result.column("errors")

    def test_finiteness_sweep(self, params_on, state_on):
        grid = params_on.omega_m * np.linspace(0.9, 1.1, 2001)
        result = scan_spectrum(params_on, grid, state=state_on)
        assert result.errors == []
        omegas = result.column("omega")
        assert np.all(np.diff(omegas) > 0)
        for name in ("r_refl", "t_trans", "s_thermal", "s_vacuum"):
            assert np.all(np.isfinite(result.column(name)))


class TestKernelInvariance:
    """A node's spectra are the same bits whether it is evaluated alone, in
    a 401-node row or in a batch of rows: the batched port spectra of
    ``routing_report`` equal one call per port because of this."""

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_alone_in_row_and_in_batch(self, params_on, state_on, method):
        wm = params_on.omega_m
        rows = np.stack([np.linspace(c - 0.01 * wm, c + 0.01 * wm, 401)
                         for c in (0.9 * wm, 1.1 * wm)])
        arrs, _ = response_module._arrays(params_on, state_on, rows, method)
        batch = response_module._spectra(params_on, rows, arrs)
        nodes = [0, 1, 57, 200, 343, 399, 400]
        for k, row in enumerate(rows):
            scan = scan_spectrum(params_on, row, method=method,
                                 state=state_on)
            for name in _COLUMNS:
                assert (batch[name][k].tobytes()
                        == scan.column(name).tobytes())
            together = response_module._node_spectra(
                params_on, state_on, row[nodes], method)
            assert set(together) == {"r_refl", "t_trans"}
            for j, i in enumerate(nodes):
                alone = response_module._node_spectra(
                    params_on, state_on, row[i], method)
                for name in together:
                    assert (alone[name].tobytes()
                            == together[name][j:j + 1].tobytes()
                            == scan.column(name)[i:i + 1].tobytes())
                for spectrum, name in _PUBLIC:
                    value = spectrum(params_on, state_on, row[i], method)
                    assert (np.float64(value).tobytes()
                            == scan.column(name)[i:i + 1].tobytes())

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_spectra_coefficients_match_full_coefficients(
            self, params_on, state_on, method):
        # the grid call behind the spectra forms all five coefficients,
        # each with every bit of the single-node coefficients()
        grid = params_on.omega_m * np.linspace(0.8, 1.2, 9)
        arrs, _ = response_module._arrays(params_on, state_on, grid, method)
        assert set(arrs) == {"e1", "f1", "e2", "f2", "v"}
        for i, omega in enumerate(grid):
            full = response_module.coefficients(params_on, state_on, omega,
                                                method)
            for name in arrs:
                assert complex(arrs[name][i]) == getattr(full, name)


@pytest.fixture(scope="module")
def toy():
    # slow, mildly stiff toy magnitudes so explicit RK4 settles quickly;
    # powers chosen for |a_s| = 1e3, |c_s| = 500 and multiphoton couplings
    # comparable to kappa1
    base = make_params(
        omega_m=1.0e3, mass=1.0e-3, gamma_m=20.0, kappa1=100.0,
        kappa2=30.0, g1=0.0, g2=0.0, delta_a=1.0e3, delta_c=1.0e3,
        omega_l=1.0e9, omega_p=1.0e8, power_l=0.0, power_p=0.0,
        temperature=0.0)
    hbar = CONSTANTS.hbar
    x_s = math.sqrt(hbar / (base.mass * base.omega_m))
    eps_l = 1e3 * math.hypot(2 * base.kappa1, base.omega_m)
    eps_p = 500 * math.hypot(2 * base.kappa2, base.omega_m)
    params = replace(
        base,
        g1=50.0 / (x_s * 1e3), g2=40.0 / (x_s * 500),
        power_l=eps_l**2 * hbar * base.omega_l / (2 * base.kappa1),
        power_p=eps_p**2 * hbar * base.omega_p / (2 * base.kappa2))
    return params, solve_steady_state(params)


class TestTimeDomainCrossCheck:
    """Third, fully independent route: integrate the linearized equations of
    motion with a monochromatic drive on one input port and demodulate the
    settled optical response.  This checks the whole frequency-domain
    convention chain (sign of i*omega, port normalizations, doubled-basis
    bookkeeping) against nothing but an ODE stepper."""

    def _drift_matrix(self, params, state):
        hbar = CONSTANTS.hbar
        m = params.mass
        mat = np.zeros((6, 6), dtype=complex)
        mat[0, 0] = -(2 * params.kappa1 + 1j * state.delta1)
        mat[0, 4] = -1j * params.g1 * state.a_s
        mat[1, 1] = -(2 * params.kappa1 - 1j * state.delta1)
        mat[1, 4] = 1j * params.g1 * np.conj(state.a_s)
        mat[2, 2] = -(2 * params.kappa2 + 1j * state.delta2)
        mat[2, 4] = 1j * params.g2 * state.c_s
        mat[3, 3] = -(2 * params.kappa2 - 1j * state.delta2)
        mat[3, 4] = -1j * params.g2 * np.conj(state.c_s)
        mat[4, 5] = 1.0 / m
        mat[5, 4] = -m * params.omega_m**2
        mat[5, 5] = -params.gamma_m
        mat[5, 0] = -hbar * params.g1 * np.conj(state.a_s)
        mat[5, 1] = -hbar * params.g1 * state.a_s
        mat[5, 2] = hbar * params.g2 * np.conj(state.c_s)
        mat[5, 3] = hbar * params.g2 * state.c_s
        return mat

    def _settled_responses(self, params, state, drives, omega):
        """Column k of the result: settled delta-a response to drive k."""
        mat = self._drift_matrix(params, state)
        x = np.zeros_like(drives)
        dt = 1.0 / (25 * 1.2e3)
        steps = int(12.0 / (params.gamma_m / 2.0) / dt)

        def deriv(t, vec):
            return mat @ vec + drives * np.exp(-1j * omega * t)

        t = 0.0
        for _ in range(steps):
            k1 = deriv(t, x)
            k2 = deriv(t + dt / 2, x + dt / 2 * k1)
            k3 = deriv(t + dt / 2, x + dt / 2 * k2)
            k4 = deriv(t + dt, x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        return x[0] * np.exp(1j * omega * t)

    def test_all_port_coefficients(self, toy):
        params, state = toy
        omega = 1.05e3
        c = closed_form_coefficients(params, state, omega)
        s1 = math.sqrt(2 * params.kappa1)
        s2 = math.sqrt(2 * params.kappa2)
        slots = (0, 1, 2, 3, 5)
        amplitudes = (s1, s1, s2, s2, 1.0)
        drives = np.zeros((6, 5), dtype=complex)
        for k, (slot, amp) in enumerate(zip(slots, amplitudes)):
            drives[slot, k] = amp
        got = self._settled_responses(params, state, drives, omega)
        expected = (c.e1, c.f1, c.e2, c.f2, c.v)
        for name, value, ref in zip(("e1", "f1", "e2", "f2", "v"), got,
                                    expected):
            assert value == pytest.approx(ref, rel=1e-6), name


def test_deviation_helper_reports_per_coefficient(params_on, state_on):
    grid = params_on.omega_m * np.linspace(0.9, 1.1, 51)
    devs = closed_vs_oracle_deviation(params_on, state_on, grid)
    assert set(devs) == {"e1", "f1", "e2", "f2", "v", "max"}
    assert devs["max"] == max(devs[k] for k in ("e1", "f1", "e2", "f2", "v"))
    assert devs["max"] < 1e-9


@pytest.mark.parametrize("path", ["_closed_arrays", "_oracle_arrays"])
def test_deviation_helper_raises_on_singular_node(params_on, state_on,
                                                  monkeypatch, path):
    real_arrays = getattr(response_module, path)

    def singular_first(*args):
        arrs, bad = real_arrays(*args)
        bad[0] = True
        return arrs, bad

    monkeypatch.setattr(response_module, path, singular_first)
    grid = params_on.omega_m * np.linspace(0.9, 1.1, 5)
    with pytest.raises(SingularPointError,
                       match="^deviation grid hits a singular node$"):
        closed_vs_oracle_deviation(params_on, state_on, grid)
