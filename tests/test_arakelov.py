"""Theta-sum identities, integral representations, residue extrapolation."""
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcount import arakelov
from hkcount.arakelov import (
    QuadratureFailure,
    geer_schoof_bound_check,
    h0,
    maruyama_residue_check,
    phi,
    prop5_identity_check,
    prop5_identity_tolerance,
    xi_integral,
)
from hkcount.constants import TooCloseToPoleError, xi_K, zetaP1_closed


def _theta_oracle(x: float) -> float:
    """Independent high-precision theta sum via mpmath (explicit range)."""
    with mp.workdps(40):
        t = mp.e ** (-2 * mp.mpf(x))
        n0 = int(mp.ceil(mp.sqrt(60 / (mp.pi * t)))) + 1
        total = mp.mpf(1) + 2 * mp.fsum(mp.e ** (-mp.pi * n * n * t)
                                        for n in range(1, n0 + 1))
        return float(mp.log(total))


class TestH0:
    def test_value_at_zero(self):
        # h0(0) = log(pi^{1/4} / Gamma(3/4))
        want = math.log(math.pi ** 0.25 / math.gamma(0.75))
        assert abs(h0(0.0) - want) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-8.0, 8.0))
    def test_against_mpmath_oracle(self, x):
        assert abs(h0(x) - _theta_oracle(x)) < 1e-12

    def test_functional_equation_grid(self):
        x = -5.0
        worst = 0.0
        while x <= 5.0 + 1e-9:
            worst = max(worst, abs(h0(x) - h0(-x) - x))
            x += 0.01
        assert worst <= 1e-12

    def test_limits(self):
        assert h0(-30.0) == 0.0
        assert abs(h0(30.0) - 30.0) < 1e-12


class TestPhi:
    def test_value_at_zero(self):
        want = math.pi ** 0.25 / math.gamma(0.75) - 1.0
        assert abs(phi(0.0) - want) < 1e-14

    def test_vanishes_at_minus_infinity(self):
        assert phi(-20.0) == 0.0

    def test_positive_side_consistent_with_h0(self):
        for x in (0.3, 1.7, 4.0):
            assert abs(math.log1p(phi(x)) - h0(x)) < 1e-12

    def test_decay_bound(self):
        grid = [-5.0 + 0.1 * k for k in range(51)]
        ok, beta = geer_schoof_bound_check(grid)
        assert ok
        assert 1.9 < beta <= 2.001

    def test_bound_rejects_positive_x(self):
        with pytest.raises(ValueError):
            geer_schoof_bound_check([0.5])


class TestPhiOplus:
    # the relative gap of the two forms stays within the arakelov suite's
    # bound of 1e-12
    def test_single_trivial_summand(self):
        got, gap = arakelov.phi_oplus_check((1.0,), -0.4)
        assert gap <= 1e-12
        assert got == pytest.approx(phi(-0.4), rel=1e-12)

    def test_two_equal_summands(self):
        want = (1.0 + phi(0.0)) ** 2 - 1.0
        got, gap = arakelov.phi_oplus_check((1.0, 1.0), 0.0)
        assert gap <= 1e-12
        assert abs(got - want) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.2, 5.0), min_size=1, max_size=5),
           st.floats(-3.0, 1.5))
    def test_product_and_symmetric_forms_agree(self, scales, x):
        val, gap = arakelov.phi_oplus_check(tuple(scales), x)
        assert gap <= 1e-12
        assert val >= 0.0

    def test_rejects_bad_scales(self):
        for scales in [(1.0, -2.0), (0.0,), (), (1.0, float("nan"))]:
            with pytest.raises(ValueError):
                arakelov.phi_oplus_check(scales, 0.0)


class TestXiIntegral:
    @pytest.mark.parametrize("s", [2.0, 3.0, 5.0])
    def test_matches_completed_zeta(self, s):
        assert abs(xi_integral(s) - 2.0 * xi_K(s)) < 1e-8

    def test_known_values(self):
        assert abs(xi_integral(2.0) - math.pi / 6) < 1e-10
        # 2 xi(3) = zeta(3) / (2 pi)
        assert abs(xi_integral(3.0)
                   - float(mp.zeta(3)) / (2 * math.pi)) < 1e-10

    @pytest.mark.parametrize("s", [8.0, 12.0, 20.0, 50.0])
    def test_peak_split_matches_completed_zeta(self, s):
        # e^{-sx} phi(x) peaks inside [-X0, 0] for s > 2 pi
        want = 2.0 * xi_K(s)
        assert abs(xi_integral(s) - want) <= 1e-12 * want

    def test_large_s_dominated_by_rational_term(self):
        # the integral terms are positive, so 2 xi(s) > 1/(s-1) - 1/s
        val = xi_integral(50.0)
        assert val > 1.0 / 49.0 - 1.0 / 50.0

    def test_domain(self):
        with pytest.raises(ValueError):
            xi_integral(1.0)

    def test_error_estimate_above_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(arakelov, "quad", lambda f, points: (1.0, 1e-3))
        with pytest.raises(QuadratureFailure):
            xi_integral(3.0)


def _suite_integrands(monkeypatch):
    """(f, points) of every quadrature `_pic_integrals` runs for the verify
    suites (2 xi(s) at s = 2, 3, 5; the rank-2 identity at (n, s) = (1, 4))
    and for the peak-split 2 xi(s) at s = 8, 12, 20, 50."""
    seen = []
    real = arakelov.quad

    def record(f, points):
        seen.append((f, list(points)))
        return real(f, points)

    monkeypatch.setattr(arakelov, "quad", record)
    for s in (2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0):
        arakelov._pic_integrals(-s, s - 1.0, 1)
    arakelov._pic_integrals(-4.0, 2.0, 2)
    monkeypatch.setattr(arakelov, "quad", real)
    return seen


def _quad_mp(f, points):
    """30-digit tanh-sinh of the double-valued f: the reference."""
    with mp.workdps(30):
        return float(mp.quad(lambda x: f(float(x)), points))


def _tail_mp(c, rank):
    """The tail bound with Gamma(|c|/2, pi e^{2 X0}) at 30 digits."""
    front = rank * arakelov._GS_BETA * (1.0 + phi(-arakelov._X0)) ** (rank - 1)
    with mp.workdps(30):
        a = mp.mpf(abs(c)) / 2
        g = mp.gammainc(a, mp.pi * mp.e ** (2 * arakelov._X0))
        return front * 0.5 * float(mp.pi ** (-a) * g)


class TestQuad:
    def test_suite_integrands_against_mpmath(self, monkeypatch):
        cases = _suite_integrands(monkeypatch)
        assert len(cases) == 8
        for f, points in cases:
            val, err = arakelov.quad(f, points)
            want = _quad_mp(f, points)
            assert abs(val - want) <= 1e-14 * abs(want)
            # the estimate is never below the true error by more than ulps
            assert abs(val - want) <= err + 4 * math.ulp(want)

    @pytest.mark.parametrize("c", [-50.0, -1.0, 0.5, 8.0])
    def test_exponential_against_closed_form(self, c):
        want = -math.expm1(-3.0 * c) / c  # integral over [-3, 0] of e^{cx}
        val, err = arakelov.quad(lambda x: math.exp(c * x), [-3.0, 0.0])
        assert abs(val - want) <= 1e-14 * abs(want)
        # a node x in [-3, 0] is a double, so e^{cx} carries a relative
        # error up to |3c| 2^-53 that no rule can remove (at c = -50 a
        # 30-digit mpmath.quad of the same double integrand is 1.4e-15 off)
        floor = abs(3.0 * c) * 2.0 ** -53 * abs(want)
        assert abs(val - want) <= err + 4 * math.ulp(want) + floor

    def test_estimate_sums_the_intervals(self):
        # a rule over [-3, -1, 0] is one rule per interval: its value and
        # its estimate are the sums of the two intervals' own
        f = lambda x: math.exp(-2.0 * x)
        val, err = arakelov.quad(f, [-3.0, -1.0, 0.0])
        left = arakelov.quad(f, [-3.0, -1.0])
        right = arakelov.quad(f, [-1.0, 0.0])
        assert val == pytest.approx(left[0] + right[0], rel=1e-15)
        assert err == pytest.approx(left[1] + right[1], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [400.0, -400.0, 150.0, -150.0, 50.0, -50.0,
                                   5.0, -5.0, 1.0, -1.0, 0.0])
    def test_tail_bounds_the_30_digit_gamma(self, c, rank):
        got = arakelov._certified_tail(c, rank)
        want = _tail_mp(c, rank)
        assert got >= want
        if want == 0.0:
            assert got == 0.0
        else:
            assert got <= 1.001 * want


# the Z route each case takes: the numeric sum where it meets its tolerance
# within the work budget, theta where the sum is over budget
_ROUTE = {(1, 3.5): "numeric", (1, 4.0): "numeric", (1, 6.0): "numeric",
          (2, 4.0): "theta", (2, 5.0): "theta", (3, 6.0): "theta"}


class TestRankIdentity:
    @pytest.mark.parametrize("n,s,tol", [(1, 4.0, 1e-6), (1, 6.0, 1e-6),
                                         (2, 4.0, 1e-5)])
    def test_identity(self, n, s, tol):
        lhs, rhs, diff = prop5_identity_check(n, s, _ROUTE[n, s])
        assert abs(diff) <= tol
        assert lhs > 0 and rhs > 0

    @pytest.mark.parametrize("n,s", [(1, 3.5), (1, 4.0), (1, 6.0), (2, 4.0),
                                     (2, 5.0), (3, 6.0)])
    def test_within_stated_tolerance(self, n, s):
        # the tail bound of the zeta sum, the quadrature's threshold and a
        # few ulps, and never above 1e-6
        _, rhs, diff = prop5_identity_check(n, s, _ROUTE[n, s])
        assert abs(diff) <= prop5_identity_tolerance(n, s, rhs) <= 1e-6

    @pytest.mark.parametrize("n,s", [(2, 4.0), (2, 5.0), (3, 6.0)])
    def test_numeric_route_over_budget_raises(self, n, s):
        # no silent fallback: the numeric route refuses what it cannot sum
        with pytest.raises(TooCloseToPoleError):
            prop5_identity_check(n, s, "numeric")

    def test_rejects_an_unknown_route(self):
        with pytest.raises(ValueError, match="route"):
            prop5_identity_check(1, 4.0, "closed")


class TestResidue:
    def test_extrapolated_residue(self):
        got = maruyama_residue_check()
        assert abs(got - 6.0 / math.pi) < 1e-3

    def test_monotone_approach(self):
        # (s-2) Z(s) decreases toward the residue as s -> 2 from above
        vals = [h * zetaP1_closed(2.0 + h) for h in (10.0 ** -k
                                                     for k in range(1, 7))]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 6.0 / math.pi

    def test_consistency_with_projective_line_constant(self):
        # residue = (n+1) * C(P^1) = 2 * 3/pi
        from hkcount.constants import schanuel_constant
        assert abs(maruyama_residue_check()
                   - 2.0 * schanuel_constant(1).constant) < 1e-3
