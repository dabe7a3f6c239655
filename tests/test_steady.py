import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import omrouter.steady as steady_module
from omrouter._roots import REL_TOL, false_position
from omrouter.errors import (BracketingError, ConvergenceError,
                             InvalidParameterError)
from omrouter.model import CONSTANTS, SystemParams, drive_amplitudes
from omrouter.steady import (enumerate_branches, force_balance,
                             operating_point, pin_effective_detunings,
                             solve_steady_state, steady_residual, SteadyState)

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


def pinned_cubic_roots(params, pin_optical):
    """Real roots of the one-sided pinned balance by 50-digit ``polyroots``.

    The pinned side's Lorentzian is the constant at effective detuning
    ``omega_m``; clearing the free side's denominator gives
    ``(m_w2*q + F_pin)*(k^2 + (d + g*q)^2) + F_free``, a cubic in ``q``.
    """
    with mp.workdps(50):
        hbar = mp.mpf(CONSTANTS.hbar)
        eps_l, eps_p = (mp.mpf(e) for e in drive_amplitudes(params))
        wm = mp.mpf(params.omega_m)
        m_w2 = mp.mpf(params.mass) * wm**2
        f_opt = hbar * params.g1 * eps_l**2
        f_mw = hbar * params.g2 * eps_p**2
        k1 = (2 * mp.mpf(params.kappa1)) ** 2
        k2 = (2 * mp.mpf(params.kappa2)) ** 2
        if pin_optical:
            f_pin, f_free = f_opt / (k1 + wm**2), -f_mw
            k, d, g = k2, mp.mpf(params.delta_c), -mp.mpf(params.g2)
        else:
            f_pin, f_free = -f_mw / (k2 + wm**2), f_opt
            k, d, g = k1, mp.mpf(params.delta_a), mp.mpf(params.g1)
        coeffs = [m_w2 * g**2, 2 * m_w2 * d * g + f_pin * g**2,
                  m_w2 * (k + d**2) + 2 * f_pin * d * g,
                  f_pin * (k + d**2) + f_free]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        return sorted(float(r.real) for r in roots
                      if abs(r.imag) <= mp.mpf(10) ** -40 * abs(r))


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


def ramp_reference(params, ramp_steps=11):
    """The ramp with every root solved at every stage.

    Returns each stage's roots, tracked root and ambiguity flag, and the
    state that this chain of ``enumerate_branches`` and ``_nearest`` gives.
    """
    stages, prev, warnings = [], 0.0, ()
    for scale in np.linspace(0.0, 1.0, ramp_steps)[1:]:
        roots = enumerate_branches(params, scale)
        index, ambiguous = steady_module._nearest(roots, prev)
        prev = roots[index]
        stages.append((roots, prev, ambiguous))
        if ambiguous:
            warnings += (f"branch tracking ambiguous at power scale "
                         f"{scale:.2f}",)
    return stages, steady_module._state_from_root(params, roots, index,
                                                  warnings)


def set_ramp_steps(monkeypatch, ramp_steps):
    """Make the ramp of ``solve_steady_state`` take ``ramp_steps`` power
    scales, counting zero, as ``ramp_reference`` does."""
    monkeypatch.setattr(steady_module, "_RAMP_SCALES", tuple(
        np.linspace(0.0, 1.0, ramp_steps)[1:].tolist()))


def count_bracket_solves(params, monkeypatch):
    """The ``_false_position`` calls of one ramped solve."""
    calls = [0]
    real_solve = steady_module._false_position

    def counting(*args):
        calls[0] += 1
        return real_solve(*args)

    monkeypatch.setattr(steady_module, "_false_position", counting)
    solve_steady_state(params)
    monkeypatch.undo()
    return calls[0]


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
    """The ramp takes every power scale's quintic roots in one pass and
    tracks one branch across them."""

    def test_one_eigenvalue_call_per_ramp(self, params_on, monkeypatch):
        shapes = []
        real_eigvals = np.linalg.eigvals

        def counting(matrices):
            shapes.append(np.shape(matrices))
            return real_eigvals(matrices)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        solve_steady_state(params_on)
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
        # an intermediate stage tracks a quintic root standing for its
        # bracket: it lies in the candidate of the all-roots reference's
        # tracked root, with the same ambiguity flag, and full power gives
        # the reference state bit for bit
        stages, tracked = [], []
        real_stages = steady_module._stages
        real_nearest = steady_module._nearest

        def listing(params, scales):
            stages[:] = real_stages(params, scales)
            return stages

        def recording(roots, target):
            index, ambiguous = real_nearest(roots, target)
            tracked.append((roots[index], ambiguous))
            return index, ambiguous

        monkeypatch.setattr(steady_module, "_stages", listing)
        monkeypatch.setattr(steady_module, "_nearest", recording)
        state = solve_steady_state(params, residual_tol=math.inf)
        monkeypatch.undo()
        reference, expected = ramp_reference(params)
        assert len(tracked) == len(reference)
        for stage, (q, ambiguous), (_, ref_q, ref_ambiguous) in zip(
                stages, tracked, reference):
            zeros, brackets = steady_module._scan(stage)
            spans = [(z, z) for z in zeros] + [b[:2] for b in brackets]
            holds = [[lo <= x <= hi for lo, hi in spans] for x in (q, ref_q)]
            assert holds[0] == holds[1] and sum(holds[0]) == 1
            assert ambiguous == ref_ambiguous
        assert repr(state) == repr(expected)

    @pytest.mark.parametrize("overrides, solves", [
        (dict(power_p=0.0, power_l=1e-6), 1),
        (dict(power_p=0.0, power_l=10e-6), 3)])
    def test_single_candidate_stages_are_not_solved(self, params_on,
                                                    monkeypatch, overrides,
                                                    solves):
        # the default device with the microwave pump off: at 1 uW every
        # stage has one candidate root, at 10 uW the stages up to 0.8 have
        # one and the last two three; each intermediate bracket holds one
        # quintic root, so only the full-power brackets are solved
        params = replace(params_on, **overrides)
        counts = [sum(map(len, steady_module._scan(stage))) for stage in
                  steady_module._stages(params, steady_module._RAMP_SCALES)]
        assert counts == ([1] * 10 if solves == 1 else [1] * 8 + [3, 3])
        assert count_bracket_solves(params, monkeypatch) == solves

    def test_single_candidate_draw_solves_once(self, monkeypatch):
        params = criterion3_params(np.random.default_rng([20260810, 1]))
        assert len(enumerate_branches(params)) == 1
        assert count_bracket_solves(params, monkeypatch) == 1

    @pytest.mark.parametrize("ramp_steps", [3, 11])
    def test_skipped_stages_change_no_bit(self, ramp_steps, monkeypatch):
        rng = np.random.default_rng(20261019)
        draws = [criterion3_params(rng) for _ in range(200)]
        draws.append(criterion3_params(np.random.default_rng([0, 1882])))
        set_ramp_steps(monkeypatch, ramp_steps)
        for params in draws:
            state = solve_steady_state(params, residual_tol=math.inf)
            assert repr(state) == repr(ramp_reference(params, ramp_steps)[1])

    @pytest.mark.parametrize("power_p, brackets", [(None, 5), (0.0, 3)])
    def test_only_full_power_brackets_are_solved(self, params_on, monkeypatch,
                                                 power_p, brackets):
        # the default device: every bracket of the 9 intermediate stages
        # holds one quintic root and is not solved; full power solves all
        # 5 (pumped) or 3 (pump off)
        params = (params_on if power_p is None
                  else replace(params_on, power_p=power_p))
        assert count_bracket_solves(params, monkeypatch) == brackets
        assert len(solve_steady_state(params).branches) == brackets

    def test_bracket_without_a_seed_is_solved(self, params_on, monkeypatch):
        # both pumps scaled so that the first stage of a 3-step ramp sits
        # 3e-13 past the default device's 3 -> 5 fold: the eigen-solver
        # returns the near-double root as a complex pair, so its two
        # brackets hold no real quintic root and are solved there
        scale = 2.0 * DEFAULT_FOLD_SCALE * (1.0 + 3e-13)
        params = replace(params_on, power_l=scale * params_on.power_l,
                         power_p=scale * params_on.power_p)
        inner = []
        real_solve = steady_module._false_position

        def recording(func, lo, hi, f_lo, f_hi, seeds=()):
            inner.append(sum(lo < q < hi for q in seeds))
            return real_solve(func, lo, hi, f_lo, f_hi, seeds)

        monkeypatch.setattr(steady_module, "_false_position", recording)
        set_ramp_steps(monkeypatch, 3)
        state = solve_steady_state(params)
        monkeypatch.undo()
        assert inner == [0, 0] + [1] * len(state.branches)
        assert repr(state) == repr(ramp_reference(params, 3)[1])

    def test_ambiguous_intermediate_stage_still_warns(self):
        # a criterion-3 draw whose root at power scale 0.1 is within the
        # ambiguity threshold of its runner-up
        params = criterion3_params(np.random.default_rng([0, 1882]))
        state = solve_steady_state(params)
        assert state.warnings == (
            "branch tracking ambiguous at power scale 0.10",)
        assert state.branch_index == 1


class TestFalsePosition:
    """The bracket solve, on ``q**2 - 2`` over ``[1, 2]`` unless stated."""

    ROOT = math.sqrt(2.0)

    @staticmethod
    def solve(seed=None, func=lambda q: q * q - 2.0, lo=1.0, hi=2.0,
              others=()):
        # the seed list is ``others`` plus ``seed``, if given
        points = []

        def recording(q):
            points.append(q)
            return func(q)

        seeds = [*others, *(() if seed is None else (seed,))]
        root = false_position(recording, lo, hi, func(lo), func(hi), seeds)
        return root, points

    def assert_solved(self, root):
        assert abs(root - self.ROOT) <= REL_TOL * self.ROOT

    @pytest.mark.parametrize("seed", [None, math.nan, 1.0, 2.0, 2.5])
    def test_without_inner_seed_starts_at_secant_point(self, seed):
        # NaN, a bracket end or a point outside the bracket is no seed
        root, points = self.solve(seed)
        assert points[0] == pytest.approx(4.0 / 3.0)  # the secant point
        assert (root, points) == self.solve()
        self.assert_solved(root)

    def test_two_inner_seeds_start_at_secant_point(self):
        # neither of two seeds inside the bracket is taken
        root, points = self.solve(self.ROOT, others=[1.5])
        assert (root, points) == self.solve()

    def test_outer_seeds_do_not_hide_the_inner_one(self):
        seed = self.ROOT + 1e-6
        root, points = self.solve(seed, others=[0.5, 1.0, 2.0, math.nan])
        assert points[0] == seed
        assert (root, points) == self.solve(seed)

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
        inner = []
        real_solve = steady_module._false_position

        def recording(func, lo, hi, f_lo, f_hi, seeds=()):
            inner.append(sum(lo < q < hi for q in seeds))
            return real_solve(func, lo, hi, f_lo, f_hi, seeds)

        monkeypatch.setattr(steady_module, "_false_position", recording)
        roots = enumerate_branches(params_on, power_scale)
        assert len(inner) == 5
        assert inner.count(1) == 3
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

    def test_no_sign_change_raises(self, params_on, monkeypatch):
        # impossible for the continuous balance; a bug would show here
        monkeypatch.setattr(steady_module, "sign_changes",
                            lambda samples, values: ([], []))
        with pytest.raises(BracketingError, match="^no sign change found "
                           "while bracketing the force balance$"):
            enumerate_branches(params_on)

    def test_power_scale_reduces_to_no_drive(self):
        p = make_params()
        assert enumerate_branches(p, power_scale=0.0) == [0.0]

    @pytest.mark.parametrize("power_scale", [-1.0, math.nan, math.inf])
    def test_rejects_bad_power_scale(self, params_on, power_scale):
        with pytest.raises(InvalidParameterError, match="power_scale"):
            enumerate_branches(params_on, power_scale)
        with pytest.raises(InvalidParameterError, match="power_scale"):
            force_balance(params_on, 0.0, power_scale)


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
        real_stages = steady_module._stages

        def recording(params, scales):
            seen.append(list(scales))
            return real_stages(params, scales)

        monkeypatch.setattr(steady_module, "_stages", recording)
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

    @pytest.mark.parametrize("solve", [solve_steady_state, operating_point])
    @pytest.mark.parametrize("q_seed", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_seed(self, params_on, solve, q_seed):
        with pytest.raises(InvalidParameterError, match="q_seed must be"):
            solve(params_on, q_seed=q_seed)

    @pytest.mark.parametrize("solve", [solve_steady_state, operating_point])
    def test_rejects_a_nan_residual_tol(self, params_on, solve):
        # an infinite tolerance switches the gate off on purpose; NaN would
        # do so silently
        with pytest.raises(InvalidParameterError, match="residual_tol"):
            solve(params_on, residual_tol=math.nan)


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

    def test_single_side_lands_on_omega_m(self):
        base = make_params(delta_c=1.1 * TAU * 10.56e6)
        pinned = pin_effective_detunings(base, pin_optical=True,
                                         pin_microwave=False)
        st = solve_steady_state(pinned)
        assert abs(st.delta1 - base.omega_m) <= 1e-14 * base.omega_m
        assert pinned.delta_c == base.delta_c

    def test_single_side_lands_on_omega_m_microwave(self):
        base = make_params(delta_a=1.1 * TAU * 10.56e6)
        pinned = pin_effective_detunings(base, pin_optical=False,
                                         pin_microwave=True)
        st = solve_steady_state(pinned)
        assert abs(st.delta2 - base.omega_m) <= 1e-14 * base.omega_m
        assert pinned.delta_a == base.delta_a

    @pytest.mark.parametrize("pin_optical", [True, False])
    def test_single_side_undriven(self, params_on, pin_optical):
        base = replace(params_on, power_l=0.0, power_p=0.0,
                       delta_a=1.1 * params_on.omega_m,
                       delta_c=1.1 * params_on.omega_m)
        pinned = pin_effective_detunings(base, pin_optical, not pin_optical)
        assert ((pinned.delta_a, pinned.delta_c) == (
            (base.omega_m, base.delta_c) if pin_optical
            else (base.delta_a, base.omega_m)))

    @pytest.mark.parametrize("power_p", [3e-7, 2e-6, 8e-6, 2e-5])
    @pytest.mark.parametrize("pin_optical", [True, False])
    def test_single_side_root_of_pinned_cubic(self, default_cfg, power_p,
                                              pin_optical):
        # the other detuning bare: the root connected to zero power is the
        # cubic's root nearest zero, of three, or of one with delta_c bare
        # from 8 uW; the ramped solve lands on it up to 2 uW only
        bare = "delta_c" if pin_optical else "delta_a"
        base = replace(default_cfg.system_params(), power_p=power_p,
                       **{bare: TAU * 10.56e6})
        q = steady_module._pinned_root(base, pin_optical)
        roots = pinned_cubic_roots(base, pin_optical)
        assert len(roots) == (1 if pin_optical and power_p > 2e-6 else 3)
        assert abs(q - min(roots, key=abs)) <= 4 * math.ulp(q)
        pinned = pin_effective_detunings(base, pin_optical, not pin_optical)
        assert getattr(pinned, bare) == getattr(base, bare)
        st = solve_steady_state(pinned)
        delta = st.delta1 if pin_optical else st.delta2
        assert (abs(delta - base.omega_m) <= 1e-14 * base.omega_m) == (
            power_p <= 2e-6)

    @pytest.mark.parametrize("draw, pin_optical, expected", [
        (19, False, 8.894e-10), (82, True, -1.0515e-10)])
    def test_single_side_root_on_the_force_side(self, draw, pin_optical,
                                                expected):
        # random devices whose pinned cubic has three real roots, two of
        # them on the side of q = 0 away from the pinned balance's force
        # there: the connected root is the force side's root nearest 0,
        # not the middle root of the three
        rng = np.random.default_rng(9090)
        params = [criterion3_params(rng) for _ in range(draw + 1)][-1]
        t = params.omega_m
        at_zero = balance_oracle(replace(
            params, **{"delta_a" if pin_optical else "delta_c": t}), 0.0)
        roots = pinned_cubic_roots(params, pin_optical)
        assert len(roots) == 3
        connected = min((r for r in roots if (r > 0.0) == (at_zero < 0.0)),
                        key=abs)
        assert connected != roots[1]
        assert connected == pytest.approx(expected, rel=1e-4)
        q = steady_module._pinned_root(params, pin_optical)
        assert abs(q - connected) <= 4 * math.ulp(connected)

    @pytest.mark.parametrize("pins", [(True, False), (False, True),
                                      (True, True)])
    def test_solves_no_steady_state(self, monkeypatch, params_on, pins):
        def spy(*args, **kwargs):
            raise AssertionError("pinning solved a steady state")

        monkeypatch.setattr(steady_module, "solve_steady_state", spy)
        for power_p in (0.0, 3e-7, 8e-6):
            pin_effective_detunings(replace(params_on, power_p=power_p),
                                    *pins)

    @pytest.mark.parametrize("power_p, delta_a, delta_c", [
        (0.0, "0x1.fcf24698f57cap+25", "0x1.f3a7b53353d56p+25"),
        (3e-08, "0x1.fc87d2a2f7c04p+25", "0x1.f4a731e81b330p+25"),
        (3e-07, "0x1.f8c9befd0c213p+25", "0x1.fda294431d7dap+25"),
        (1e-06, "0x1.ef15d7e6964bdp+25", "0x1.0a75f9094f588p+26"),
        (1.5e-06, "0x1.e827a08d66b36p+25", "0x1.12c70841220f6p+26"),
        (1.6e-06, "0x1.e6c4c8aec394fp+25", "0x1.1470d8191900cp+26"),
        (2.5e-06, "0x1.da4b31db07829p+25", "0x1.236926b0c77d2p+26"),
        (5e-06, "0x1.b7a41d1d19888p+25", "0x1.4cfe72c7e50fap+26"),
        (7.4e-06, "0x1.965fe03dceacfp+25", "0x1.74e9ef070bb0bp+26"),
        (8e-06, "0x1.8e0ed105fbf62p+25", "0x1.7ee4ce16d558ep+26"),
        (2e-05, "0x1.cf7341530b588p+24", "0x1.233f1da94b3f3p+27")])
    def test_both_sides_closed_form_bits(self, default_cfg, power_p,
                                         delta_a, delta_c):
        # the both-sided closed form, bit for bit, at the CLI matrix's
        # powers
        p = default_cfg.system_params(power_p=power_p)
        assert (p.delta_a.hex(), p.delta_c.hex()) == (delta_a, delta_c)

    def test_noop_without_flags(self):
        p = make_params()
        assert pin_effective_detunings(p, False, False) is p

    def test_idempotent(self, default_cfg):
        p = default_cfg.system_params()
        again = pin_effective_detunings(p)
        assert again.delta_a == pytest.approx(p.delta_a, rel=1e-14)
        assert again.delta_c == pytest.approx(p.delta_c, rel=1e-14)


class TestOperatingPoint:
    @pytest.mark.parametrize("pins", [(False, False), (True, False),
                                      (False, True), (True, True)])
    def test_pins_then_solves(self, params_on, pins):
        # at 300 nW every pinned detuning is met: the state is the one the
        # pinned params give, with no note
        base = replace(params_on, delta_a=TAU * 10.56e6,
                       delta_c=TAU * 10.56e6)
        params, state = operating_point(base, *pins)
        assert params == pin_effective_detunings(base, *pins)
        assert repr(state) == repr(solve_steady_state(params))
        assert state.warnings == ()

    def test_passes_the_solve_options(self, params_on, state_on,
                                      monkeypatch):
        _, seeded = operating_point(params_on, True, True,
                                    q_seed=state_on.branches[-1])
        assert seeded.q_s == state_on.branches[-1]
        monkeypatch.setattr(steady_module, "steady_residual",
                            lambda params, state: 1e-6)
        _, state = operating_point(params_on, residual_tol=1e-5)
        assert state.residual == 1e-6
        with pytest.raises(ConvergenceError):
            operating_point(params_on)

    @pytest.mark.parametrize("bare, missed", [
        (None, ["delta_a", "delta_c"]), ("delta_c", ["delta_a"])])
    def test_notes_each_missed_pin(self, default_cfg, bare, missed):
        # at 8 uW the ramp settles off the pinned root; an unpinned side
        # gets no note
        base = default_cfg.system_params(power_p=8e-6)
        if bare is not None:
            base = replace(base, **{bare: TAU * 10.56e6})
        params, state = operating_point(base, True, bare is None)
        assert [note.split(" = ")[0] for note in state.warnings] == missed
        assert all(" = auto missed omega_m: " in note
                   for note in state.warnings)
        assert repr(replace(state, warnings=())) == repr(
            solve_steady_state(params))

    @pytest.mark.xfail(strict=True, raises=ConvergenceError, reason=(
        "steady_residual is ill-conditioned for small roots: this one "
        "reads residual 1.714e-10 against the 1e-10 gate"))
    def test_route_gate_power_converges(self, default_cfg):
        # the benchmark's route op at this power (inside its gated range)
        # fails on the default device; a fix must make this pass
        operating_point(default_cfg.base_params(1.9715142722466877e-07),
                        True, True)


# criterion 3's sets on which the ramp's root is on the far side of q = 0
# from the net force there
FAR_SIDE_SETS = (0, 12, 25, 81, 95, 99)
FAR_SIDE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ramp picks a root on the far side of q = 0 from the net force"))


def criterion3_sets():
    """Acceptance criterion 3's 100 parameter sets, in its order."""
    rng = np.random.default_rng(20260810)
    return [criterion3_params(rng) for _ in range(100)]


def assert_on_force_side(params, state):
    """The state's root is the first one met walking from ``q = 0`` in the
    direction of the net force there, the root connected to zero power."""
    assert state.q_s * -force_balance(params, 0.0) > 0.0
    lo, hi = sorted((0.0, state.q_s))
    assert not any(lo < q < hi for q in state.branches)


class TestConnectedBranch:
    """The ramp's root against the connected-branch rule; the ramp misses
    it where it steps past a fold on the far side of ``q = 0``."""

    @FAR_SIDE
    @pytest.mark.parametrize("index", FAR_SIDE_SETS)
    def test_far_side_criterion3_set(self, index):
        params = criterion3_sets()[index]
        assert_on_force_side(params, solve_steady_state(params))

    @FAR_SIDE
    @pytest.mark.parametrize("power_p", [3e-6, 8e-6])
    def test_far_side_default_device_delta_c_bare(self, default_cfg,
                                                  power_p):
        base = replace(default_cfg.base_params(power_p),
                       delta_c=TAU * 10.56e6)
        params = pin_effective_detunings(base, True, False)
        assert_on_force_side(params, solve_steady_state(params))

    def test_other_criterion3_sets(self):
        for index, params in enumerate(criterion3_sets()):
            if index not in FAR_SIDE_SETS:
                assert_on_force_side(params, solve_steady_state(params))


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
