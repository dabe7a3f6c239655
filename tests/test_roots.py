import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from omrouter._roots import companion_roots, samples_and_seeds, sign_changes

# roots with distinct real parts on a 1/16 grid, so that every midpoint is
# exact and lies strictly between its two neighbours; each root is real
# or has an imaginary part
roots_st = st.lists(st.tuples(st.integers(-48, 48), st.booleans()),
                    max_size=8, unique_by=lambda kc: kc[0]).map(
    lambda kcs: [complex(k / 16, 0.25 if c else 0.0) for k, c in kcs])


class TestSamplesAndSeeds:
    @given(roots_st)
    def test_samples_separate_every_real_root(self, roots):
        samples, seeds = samples_and_seeds(roots, -1.0, 1.0)
        assert samples == sorted(set(samples))
        assert samples[0] == -1.0 and samples[-1] == 1.0
        assert all(-1.0 <= x <= 1.0 for x in samples)
        assert seeds == [z.real for z in roots if z.imag == 0.0]
        inside = sorted(x for x in seeds if -1.0 < x < 1.0)
        assert not set(inside) & set(samples[1:-1])
        for a, b in zip(inside, inside[1:]):
            assert any(a < x < b for x in samples)

    def test_rule_on_a_quintic(self):
        # real roots -0.5, 0.1 and 2.0 (outside), a pair at 0.6 +- 0.2i
        roots = [-0.5, 0.1, 2.0, 0.6 + 0.2j, 0.6 - 0.2j]
        samples, seeds = samples_and_seeds(roots, -1.0, 1.0)
        # midpoints -0.2, 0.35, 0.6 (the pair) and 1.3 (outside), and the
        # pair's real part, 0.6 again
        assert samples == [-1.0, -0.2, 0.35, 0.6, 1.0]
        assert seeds == [-0.5, 0.1, 2.0]

    def test_complex_root_outside_adds_no_sample(self):
        inner = [-0.5, 0.5]
        for pair in ([], [1.5 + 1j, 1.5 - 1j], [-4.0 + 1j, -4.0 - 1j]):
            assert (samples_and_seeds(inner + pair, -1.0, 1.0)[0]
                    == [-1.0, 0.0, 1.0])

    def test_seeds_are_unclamped_and_in_order(self):
        assert samples_and_seeds([3.0, -7.0, 0j], -1.0, 1.0)[1] == [
            3.0, -7.0, 0.0]

    def test_companion_roots_of_each_row(self):
        # (x - 1)(x - 2)(x + 3) and x**3 - 1 in one call
        rows = np.array([[1.0, 0.0, -7.0, 6.0], [1.0, 0.0, 0.0, -1.0]])
        first, second = companion_roots(rows)
        assert sorted(z.real for z in first) == pytest.approx([-3, 1, 2])
        assert sorted(second, key=lambda z: z.imag) == pytest.approx(
            [-0.5 - 0.75**0.5 * 1j, 1.0, -0.5 + 0.75**0.5 * 1j])


class TestSignChanges:
    def test_brackets_each_sign_change(self):
        zeros, brackets = sign_changes([0.0, 1.0, 2.0, 3.0],
                                       [-1.0, 2.0, 3.0, -4.0])
        assert zeros == []
        assert brackets == [(0.0, 1.0, -1.0, 2.0), (2.0, 3.0, 3.0, -4.0)]

    def test_exact_zero_is_a_root_not_a_bracket_end(self):
        zeros, brackets = sign_changes([0.0, 1.0, 2.0, 3.0, 4.0],
                                       [-1.0, 0.0, 2.0, 0.0, 5.0])
        assert zeros == [1.0, 3.0]
        # the sign change across the first zero still brackets it; the
        # second is a touch, with no sign change across it
        assert brackets == [(0.0, 2.0, -1.0, 2.0)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_skipped(self, bad):
        zeros, brackets = sign_changes([0.0, 1.0, 2.0, 3.0],
                                       [1.0, bad, -2.0, -1.0])
        assert zeros == []
        assert brackets == [(0.0, 2.0, 1.0, -2.0)]

    def test_no_candidate(self):
        assert sign_changes([0.0, 1.0], [1.0, 2.0]) == ([], [])
