import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import omrouter.steady as steady_module
from omrouter.errors import ConvergenceError
from omrouter.model import CONSTANTS, SystemParams, drive_amplitudes
from omrouter.steady import (enumerate_branches, force_balance,
                             pin_effective_detunings, solve_steady_state,
                             steady_residual, SteadyState)

from test_model import make_params

TAU = 2.0 * math.pi


def balance_oracle(params, q):
    """Independent transcription of the static force balance."""
    hbar = CONSTANTS.hbar
    eps_l, eps_p = drive_amplitudes(params)
    mw = hbar * params.g2 * eps_p**2 / (
        (2 * params.kappa2) ** 2 + (params.delta_c - params.g2 * q) ** 2)
    opt = hbar * params.g1 * eps_l**2 / (
        (2 * params.kappa1) ** 2 + (params.delta_a + params.g1 * q) ** 2)
    return params.mass * params.omega_m**2 * q - mw + opt


def reference_roots(params, power_scale=1.0):
    """Real roots of the cleared force balance by 50-digit ``polyroots``.

    The balance times both Lorentzian denominators is a polynomial of
    degree at most 5; in ``x = q/q_max`` its real roots with ``|x| <= 1``
    are the steady-state displacements.
    """
    with mp.workdps(50):
        hbar = mp.mpf(CONSTANTS.hbar)
        eps_l, eps_p = (mp.mpf(e) for e in drive_amplitudes(params))
        scale = mp.mpf(power_scale)
        m_w2 = mp.mpf(params.mass) * mp.mpf(params.omega_m) ** 2
        n_opt = hbar * params.g1 * scale * eps_l**2
        n_mw = hbar * params.g2 * scale * eps_p**2
        k1 = (2 * mp.mpf(params.kappa1)) ** 2
        k2 = (2 * mp.mpf(params.kappa2)) ** 2
        q_max = mp.mpf(11) / 10 * (n_opt / k1 + n_mw / k2) / m_w2
        s1, s2 = params.g1 * q_max, params.g2 * q_max
        da, dc = mp.mpf(params.delta_a), mp.mpf(params.delta_c)
        d1 = [s1**2, 2 * da * s1, k1 + da**2]
        d2 = [s2**2, -2 * dc * s2, k2 + dc**2]
        coeffs = [m_w2 * q_max * sum(d1[i] * d2[k - i]
                                     for i in range(3) if 0 <= k - i < 3)
                  for k in range(5)] + [mp.mpf(0)]
        for k in range(3):
            coeffs[3 + k] += n_opt * d2[k] - n_mw * d1[k]
        while coeffs[0] == 0:
            coeffs.pop(0)
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=100)
        return sorted(float(r.real * q_max) for r in roots
                      if abs(r.imag) <= mp.mpf(10) ** -30 and abs(r.real) <= 1)


def criterion3_params(rng):
    """One draw from acceptance criterion 3's parameter distribution."""
    wm = TAU * 10 ** rng.uniform(6.0, 7.5)
    return SystemParams(
        omega_m=wm, mass=10 ** rng.uniform(-13.0, -10.0),
        gamma_m=TAU * 10 ** rng.uniform(0.5, 2.5),
        kappa1=TAU * 10 ** rng.uniform(4.0, 5.5),
        kappa2=TAU * 10 ** rng.uniform(2.5, 4.0),
        g1=10 ** rng.uniform(17.0, 19.5), g2=10 ** rng.uniform(18.0, 20.0),
        delta_a=rng.uniform(-2.0, 2.0) * wm,
        delta_c=rng.uniform(-2.0, 2.0) * wm,
        omega_l=TAU * 195e12, omega_p=TAU * 7.1e9,
        power_l=10 ** rng.uniform(-7.0, -3.5),
        power_p=10 ** rng.uniform(-9.0, -6.0), temperature=0.02)


def assert_roots_match(ours, theirs, rel=1e-12):
    assert len(ours) == len(theirs)
    for q, ref in zip(ours, theirs):
        assert abs(q - ref) <= rel * abs(ref)


# power scale of the default device's 3 -> 5 branch fold, located by
# bisecting the reference root count to 1e-15 relative
DEFAULT_FOLD_SCALE = 0.06623234532580656


class TestEnumerationReference:
    @pytest.mark.parametrize("power_scale", [0.3, 1.0])
    def test_matches_polyroots_on_criterion3_draws(self, power_scale):
        rng = np.random.default_rng(20260810)
        counts = set()
        for _ in range(24):
            params = criterion3_params(rng)
            ours = enumerate_branches(params, power_scale)
            assert_roots_match(ours, reference_roots(params, power_scale))
            counts.add(len(ours))
        assert counts == {1, 3, 5}

    def test_near_fold_finds_all_five(self, params_on):
        before = DEFAULT_FOLD_SCALE * (1.0 - 1e-9)
        after = DEFAULT_FOLD_SCALE * (1.0 + 1e-9)
        assert len(reference_roots(params_on, before)) == 3
        reference = reference_roots(params_on, after)
        assert len(reference) == 5
        # two of the five roots are only ~3e-5 relative apart here
        assert_roots_match(enumerate_branches(params_on, after), reference)

    @pytest.mark.parametrize("overrides", [
        dict(g1=0.0), dict(g2=0.0), dict(power_l=0.0), dict(power_p=0.0)])
    def test_degenerate_balance(self, overrides):
        # a zero coupling leaves its Lorentzian constant and drops the
        # polynomial's degree; a zero pump removes its force term
        params = make_params(**overrides)
        roots = enumerate_branches(params)
        assert len(roots) % 2 == 1
        assert_roots_match(roots, reference_roots(params))


class TestRampEnumeration:
    """The ramp enumerates all its power scales in one pass."""

    def test_one_eigenvalue_call_per_ramp(self, params_on, monkeypatch):
        shapes = []
        real_eigvals = np.linalg.eigvals

        def counting(matrices):
            shapes.append(np.shape(matrices))
            return real_eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        solve_steady_state(params_on, ramp_steps=11)
        # one stack of companion matrices, one per nonzero power scale
        assert shapes == [(10, 5, 5)]

    def test_few_balance_evaluations_per_bracket(self, monkeypatch):
        # counts the balance evaluations of the bracket solve alone, once
        # per bracket; started at the quintic's own root it takes about 3
        evaluations, brackets = [0], [0]
        real_solve = steady_module._false_position

        def solve(func, *args):
            brackets[0] += 1

            def counted(q):
                evaluations[0] += 1
                return func(q)

            return real_solve(counted, *args)

        monkeypatch.setattr(steady_module, "_false_position", solve)
        rng = np.random.default_rng(20260810)
        for _ in range(24):
            params = criterion3_params(rng)
            for power_scale in (0.3, 1.0):
                enumerate_branches(params, power_scale)
        assert brackets[0] > 0
        assert evaluations[0] / brackets[0] <= 6.0

    @pytest.mark.parametrize("params", [
        *(criterion3_params(np.random.default_rng([20260810, k]))
          for k in range(8)),
        make_params(g1=0.0), make_params(g2=0.0),
        make_params(power_l=0.0), make_params(power_p=0.0)],
        ids=[*(f"criterion3-{k}" for k in range(8)),
             "g1=0", "g2=0", "power_l=0", "power_p=0"])
    def test_ramp_roots_equal_enumerate_branches(self, params, monkeypatch):
        seen = []
        real_enumerate = steady_module._enumerate

        def recording(params, scales):
            roots = real_enumerate(params, scales)
            seen.append((list(scales), roots))
            return roots

        monkeypatch.setattr(steady_module, "_enumerate", recording)
        solve_steady_state(params, ramp_steps=11, residual_tol=math.inf)
        assert len(seen) == 1
        scales, ramp_roots = seen[0]
        assert scales == list(np.linspace(0.0, 1.0, 11)[1:])
        for scale, roots in zip(scales, ramp_roots):
            alone = enumerate_branches(params, scale)
            assert [q.hex() for q in roots] == [q.hex() for q in alone]


class TestFalsePosition:
    """The bracket solve, on ``q**2 - 2`` over ``[1, 2]`` unless stated."""

    ROOT = math.sqrt(2.0)

    @staticmethod
    def solve(seed=None, func=lambda q: q * q - 2.0, lo=1.0, hi=2.0):
        points = []

        def recording(q):
            points.append(q)
            return func(q)

        args = (recording, lo, hi, func(lo), func(hi))
        root = (steady_module._false_position(*args) if seed is None
                else steady_module._false_position(*args, seed))
        return root, points

    def assert_solved(self, root):
        assert abs(root - self.ROOT) <= steady_module._Q_REL_TOL * self.ROOT

    @pytest.mark.parametrize("seed", [None, math.nan, 1.0, 2.0, 2.5])
    def test_without_inner_seed_starts_at_secant_point(self, seed):
        # NaN, a bracket end or a point outside the bracket is no seed
        root, points = self.solve(seed)
        assert points[0] == pytest.approx(4.0 / 3.0)  # the secant point
        assert (root, points) == self.solve()
        self.assert_solved(root)

    def test_seed_at_exact_zero_is_returned(self):
        root, points = self.solve(0.375, func=lambda q: q - 0.375, lo=0.0)
        assert root == 0.375
        assert points == [0.375]

    @pytest.mark.parametrize("offset", [-1e-6, -3e-13, -1e-15, 1e-15, 3e-13,
                                        1e-6])
    def test_seed_on_either_side_is_evaluated_first(self, offset):
        seed = self.ROOT + offset
        root, points = self.solve(seed)
        assert points[0] == seed
        assert len(points) <= 4 < len(self.solve()[1])
        self.assert_solved(root)

    def test_near_fold_pair_has_no_real_seed(self, params_on, monkeypatch):
        # this close past the default device's 3 -> 5 fold the eigen-solver
        # returns the two nearly coincident roots as a complex pair, so
        # their brackets hold no real seed and start at the secant point
        power_scale = DEFAULT_FOLD_SCALE * (1.0 + 3e-13)
        seeds = []
        real_solve = steady_module._false_position

        def recording(func, lo, hi, f_lo, f_hi, seed=math.nan):
            seeds.append(seed)
            return real_solve(func, lo, hi, f_lo, f_hi, seed)

        monkeypatch.setattr(steady_module, "_false_position", recording)
        roots = enumerate_branches(params_on, power_scale)
        assert len(seeds) == 5
        assert sum(math.isnan(seed) for seed in seeds) == 2
        # a double root's position is conditioned as the square root of
        # rounding: the pair sits ~4e-12 (relative) off the 50-digit roots
        assert_roots_match(roots, reference_roots(params_on, power_scale),
                           rel=1e-11)


class TestEnumerateBranches:
    def test_no_drive(self):
        p = make_params(power_l=0.0, power_p=0.0)
        assert enumerate_branches(p) == [0.0]

    def test_decoupled(self):
        p = make_params(g1=0.0, g2=0.0)
        assert enumerate_branches(p) == [0.0]

    def test_default_roots_satisfy_balance(self, params_on):
        roots = enumerate_branches(params_on)
        assert len(roots) % 2 == 1
        assert roots == sorted(roots)
        scale = params_on.mass * params_on.omega_m**2
        for q in roots:
            assert abs(balance_oracle(params_on, q)) < (
                1e-10 * scale * abs(q) + 1e-22)

    def test_matches_module_force_balance(self, params_on):
        qs = np.linspace(-1e-12, 1e-12, 7)
        ours = force_balance(params_on, qs)
        theirs = np.array([balance_oracle(params_on, q) for q in qs])
        np.testing.assert_allclose(ours, theirs, rtol=1e-12)

    def test_power_scale_reduces_to_no_drive(self):
        p = make_params()
        assert enumerate_branches(p, power_scale=0.0) == [0.0]


class TestSolveSteadyState:
    def test_no_drive(self):
        p = make_params(power_l=0.0, power_p=0.0)
        st = solve_steady_state(p)
        assert st.q_s == 0.0
        assert st.p_s == 0.0
        assert st.a_s == 0.0 and st.c_s == 0.0
        assert st.residual == 0.0

    def test_decoupled_closed_form(self):
        p = make_params(g1=0.0, g2=0.0, delta_a=TAU * 10.56e6, power_p=0.0)
        st = solve_steady_state(p)
        eps_l, _ = drive_amplitudes(p)
        expected = eps_l / (2.0 * p.kappa1 + 1j * p.omega_m)
        assert st.q_s == 0.0
        assert st.a_s == pytest.approx(expected, rel=1e-12)

    def test_default_residual(self, params_on, state_on):
        assert state_on.residual < 1e-10
        assert state_on.p_s == 0.0

    def test_branch_is_zero_power_connected(self, params_on, state_on):
        roots = enumerate_branches(params_on)
        # the connected branch is the small-displacement one, far from the
        # radiation-pressure resonances
        assert state_on.q_s == roots[state_on.branch_index]
        assert abs(state_on.q_s) < 1e-13

    def test_seed_selects_nearest_root(self, params_on, state_on):
        roots = enumerate_branches(params_on)
        assert len(roots) >= 3
        st = solve_steady_state(params_on, q_seed=roots[-1])
        assert st.q_s == pytest.approx(roots[-1], rel=1e-12)
        assert st.branch_index == len(roots) - 1

    def test_seed_tracks_over_the_full_power_stage_only(self, params_on,
                                                       monkeypatch):
        seen = []
        real_enumerate = steady_module._enumerate

        def recording(params, scales):
            seen.append(list(scales))
            return real_enumerate(params, scales)

        monkeypatch.setattr(steady_module, "_enumerate", recording)
        solve_steady_state(params_on, q_seed=0.0)
        assert seen == [[1.0]]

    @pytest.mark.parametrize("q_seed", [None, 0.0])
    def test_branches_are_the_full_power_roots(self, params_on, q_seed):
        st = solve_steady_state(params_on, q_seed=q_seed)
        assert st.branches == tuple(enumerate_branches(params_on))
        assert st.q_s == st.branches[st.branch_index]

    def test_equidistant_seed_is_ambiguous(self, params_on):
        roots = enumerate_branches(params_on)
        st = solve_steady_state(params_on, q_seed=0.5 * (roots[2] + roots[3]),
                                residual_tol=math.inf)
        assert st.branch_index in (2, 3)
        assert st.warnings == ("branch tracking ambiguous: two roots "
                               "equidistant from seed",)

    @pytest.mark.parametrize("roots, target", [
        ([0.0], 7.0), ([1.0, 3.0], 2.0), ([-1.0, 1.0, 5.0], 0.0),
        ([1.0, 2.0, 3.0], 2.2), ([0.0, 1e-15, 3e-15], 2e-15),
        ([-4e-13, 3.7e-15, 4.7e-13], 0.0), ([2.0, 1.0, 3.0], 2.0)])
    def test_nearest_matches_stable_argsort(self, roots, target):
        # the tie rule and the ambiguity test of numpy's stable argsort
        dists = np.abs(np.asarray(roots) - target)
        order = np.argsort(dists, kind="stable")
        ambiguous = (len(roots) > 1
                     and dists[order[1]] - dists[order[0]] < 1e-15)
        assert steady_module._nearest(roots, target) == (int(order[0]),
                                                         ambiguous)

    def test_single_root_selected_when_unique(self):
        p = make_params(power_l=1e-9, power_p=1e-13)
        roots = enumerate_branches(p)
        assert len(roots) == 1
        st = solve_steady_state(p)
        assert st.q_s == pytest.approx(roots[0], abs=1e-25)

    def test_radiation_pressure_sign(self):
        # optical drive only, red-detuned: the static force pushes q down
        for delta in (0.5, 1.0, 1.7):
            p = make_params(power_p=0.0, delta_a=delta * TAU * 10.56e6)
            assert solve_steady_state(p).q_s <= 0.0

    def test_drive_swap_antisymmetry(self):
        common = dict(g1=5e18, g2=5e18, kappa1=TAU * 50e3, kappa2=TAU * 50e3,
                      delta_a=TAU * 10.56e6, delta_c=TAU * 10.56e6,
                      omega_l=TAU * 10e9, omega_p=TAU * 10e9)
        p = make_params(power_l=2e-7, power_p=5e-8, **common)
        p_swapped = make_params(power_l=5e-8, power_p=2e-7, **common)
        q = solve_steady_state(p).q_s
        q_swapped = solve_steady_state(p_swapped).q_s
        assert abs(q_swapped + q) <= 1e-12 * max(abs(q), abs(q_swapped))

    def test_residual_gate(self, params_on, monkeypatch):
        import omrouter.steady as steady_module
        monkeypatch.setattr(steady_module, "steady_residual",
                            lambda params, state: 1.0)
        with pytest.raises(ConvergenceError):
            solve_steady_state(params_on)


class TestSteadyResidual:
    def test_exact_fixed_point(self):
        p = make_params(g1=0.0, g2=0.0, power_p=0.0)
        eps_l, _ = drive_amplitudes(p)
        st = SteadyState(q_s=0.0, p_s=0.0,
                         a_s=eps_l / (2.0 * p.kappa1 + 1j * p.delta_a),
                         c_s=0.0, delta1=p.delta_a, delta2=p.delta_c,
                         residual=0.0, branch_index=0)
        assert steady_residual(p, st) < 1e-15

    def test_detects_perturbation(self, params_on, state_on):
        nudged = replace(state_on, q_s=state_on.q_s * 1.01)
        assert steady_residual(params_on, nudged) > 1e-4

    def test_converged_state(self, params_on, state_on):
        assert steady_residual(params_on, state_on) < 1e-10


class TestPinning:
    def test_both_sides_exact(self, params_on):
        st = solve_steady_state(params_on)
        wm = params_on.omega_m
        assert st.delta1 == pytest.approx(wm, rel=1e-12)
        assert st.delta2 == pytest.approx(wm, rel=1e-12)

    def test_single_side_iterative(self):
        base = make_params(delta_c=1.1 * TAU * 10.56e6)
        pinned = pin_effective_detunings(base, pin_optical=True,
                                         pin_microwave=False)
        st = solve_steady_state(pinned)
        assert abs(st.delta1 - base.omega_m) <= 1e-9 * base.omega_m
        assert pinned.delta_c == base.delta_c

    def test_noop_without_flags(self):
        p = make_params()
        assert pin_effective_detunings(p, False, False) is p

    def test_idempotent(self, default_cfg):
        p = default_cfg.system_params()
        again = pin_effective_detunings(p)
        assert again.delta_a == pytest.approx(p.delta_a, rel=1e-14)
        assert again.delta_c == pytest.approx(p.delta_c, rel=1e-14)


def test_randomized_root_counts_are_odd():
    rng = np.random.default_rng(1290)
    for _ in range(10):
        p = make_params(
            omega_m=TAU * 10 ** rng.uniform(6.0, 7.5),
            mass=10 ** rng.uniform(-13.0, -10.0),
            gamma_m=TAU * 10 ** rng.uniform(0.5, 2.5),
            kappa1=TAU * 10 ** rng.uniform(4.0, 5.5),
            kappa2=TAU * 10 ** rng.uniform(2.5, 4.0),
            g1=10 ** rng.uniform(17.0, 19.5),
            g2=10 ** rng.uniform(18.0, 20.0),
            delta_a=rng.uniform(-2.0, 2.0) * TAU * 10.56e6,
            delta_c=rng.uniform(-2.0, 2.0) * TAU * 10.56e6,
            power_l=10 ** rng.uniform(-7.0, -3.5),
            power_p=10 ** rng.uniform(-9.0, -6.0))
        assert len(enumerate_branches(p)) % 2 == 1
