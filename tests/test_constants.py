"""Special functions and closed-form constants, against independent oracles."""
import itertools
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcount.constants import (
    QQ,
    DomainError,
    FieldInvariants,
    L_minus4,
    SourceFormula,
    TooCloseToPoleError,
    _epstein,
    _height_one_dominates,
    _log_kappa,
    _shell_counts,
    _zeta_k,
    _zp,
    _zetaP_error,
    _zetaP_n2max,
    hirzebruch_table,
    hurwitz_zeta,
    load_invariants,
    predict,
    schanuel_constant,
    stratum_predictions,
    threefold_cases,
    threefold_intro,
    xi_K,
    zeta,
    zetaP1_closed,
    zetaP_best,
    zetaP_numeric,
    zetaP_theta,
)
from hkcount.enumeration import _ball_count, _canonical_vectors
from hkcount.geometry import (
    CaseTag,
    HKVariety,
    LineBundleClass,
    NotBigError,
    anticanonical,
)

CATALAN = 0.9159655941772190150546


class TestScalarFunctions:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.001, 50.0))
    def test_zeta_against_mpmath(self, s):
        assert abs(zeta(s) - float(mp.zeta(s))) <= 1e-12 * abs(float(mp.zeta(s)))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.01, 30.0), st.floats(0.1, 3.0))
    def test_hurwitz_against_mpmath(self, s, a):
        want = float(mp.zeta(s, a))
        assert abs(hurwitz_zeta(s, a) - want) <= 1e-11 * max(1.0, abs(want))

    def test_zeta_special_values(self):
        assert abs(zeta(2.0) - math.pi ** 2 / 6) < 1e-14
        assert abs(zeta(4.0) - math.pi ** 4 / 90) < 1e-14

    def test_zeta_domain(self):
        with pytest.raises(DomainError):
            zeta(1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 40.0), st.floats(0.05, 1e7))
    def test_gamma_against_mpmath(self, s, t):
        want = float(mp.gamma(s))
        assert abs(math.gamma(s) - want) <= 1e-12 * abs(want)
        # log Gamma, the function xi_K uses, also near its zeros at 1 and 2
        want = float(mp.loggamma(t))
        assert abs(math.lgamma(t) - want) <= 1e-12 * max(1.0, abs(want))

    def test_L4_special_values(self):
        # the two Hurwitz poles cancel; close to s = 1 the cancellation
        # costs ~eps/(s-1) in doubles, so test at a modest offset
        assert abs(L_minus4(1.0 + 1e-6) - math.pi / 4) < 1e-6
        want = float(mp.mpf(4) ** mp.mpf("-1.5")
                     * (mp.zeta(1.5, mp.mpf(1) / 4) - mp.zeta(1.5, mp.mpf(3) / 4)))
        assert abs(L_minus4(1.5) - want) < 1e-12
        assert abs(L_minus4(2.0) - CATALAN) < 1e-14
        assert abs(L_minus4(3.0) - math.pi ** 3 / 32) < 1e-14

    def test_xi_past_the_gamma_range(self):
        # from s/2 = 171.6 on Gamma(s/2) is beyond double range, xi(s) only
        # from s = 439 on: the log-space form against mpmath
        for s in (343.0, 344.0, 400.0, 438.0):
            assert xi_K(s) == pytest.approx(float(_xi_mp(s)), rel=1e-12), s
        for s in (439.0, 1e6, 1e308):
            with pytest.raises(OverflowError, match="beyond double range"):
                xi_K(s)
        # zeta_K set to 1: with r1 = r2 = 1, Gamma(180) is beyond double
        # range and xi(180) is not; with r1 = 2 and r2 = 1, xi(160) is
        # beyond it, which raises instead of returning inf
        field = dict(w=2, abs_disc=1, regulator=1.0, class_number=1,
                     zeta_k=lambda s: 1.0)
        with mp.workdps(30):
            want = (mp.pi ** -90 * mp.gamma(90) / 2
                    * (2 * mp.pi) ** -180 * mp.gamma(180))
        assert xi_K(180.0, FieldInvariants(r1=1, r2=1, **field)) == \
            pytest.approx(float(want), rel=1e-12)
        with pytest.raises(OverflowError, match="beyond double range"):
            xi_K(160.0, FieldInvariants(r1=2, r2=1, **field))

    def test_prediction_past_the_gamma_range(self):
        # bundle (k, 1) on X_2(1) has C = xi(3k - 1) / (6 xi(3k) xi(2)):
        # from k = 115 on the xi factors pass the range of Gamma, at k = 146
        # the partial product 6 xi(438) passes the double range, and from
        # k = 147 on xi(3k) does, while C stays an ordinary number.  At
        # k = 10^6 the logs of the xi factors are about 1.8e7, so their
        # double rounding alone leaves a relative error near 1e-9 in C.
        X = HKVariety(1, 2, (1,))
        for k, rel in ((1, 1e-12), (115, 1e-12), (145, 1e-12),
                       (146, 1e-12), (400, 1e-12), (10 ** 6, 1e-8)):
            want = float(_xi_mp(3 * k - 1)
                         / (6 * _xi_mp(3 * k) * _xi_mp(2)))
            assert predict(X, LineBundleClass(k, 1)).constant == \
                pytest.approx(want, rel=rel), k
        # Schanuel's constant of P^n is 1 / (2 (n + 1) xi(n + 1)) over Q,
        # and on X_2(400) at O(1, 1) it is 1 / (802 xi(401)), about 2e-277
        assert schanuel_constant(399).constant == pytest.approx(
            float(1 / (800 * _xi_mp(400.0))), rel=1e-12)
        assert predict(HKVariety(1, 400, (1,)),
                       LineBundleClass(1, 1)).constant == pytest.approx(
            float(1 / (802 * _xi_mp(401.0))), rel=1e-12)
        # the constant of P^437 is a subnormal double: it raises
        with pytest.raises(OverflowError, match="beyond double range"):
            schanuel_constant(437)

    def test_xi_special_values(self):
        # xi(2) = pi/12, xi(3) = zeta(3)/(4 pi), xi(4) = pi^2/180
        assert abs(xi_K(2.0) - math.pi / 12) < 1e-15
        assert abs(xi_K(3.0) - zeta(3.0) / (4 * math.pi)) < 1e-16
        assert abs(xi_K(4.0) - math.pi ** 2 / 180) < 1e-15


def _xi_mp(s):
    """xi(s) over Q in 30-digit mpmath."""
    with mp.workdps(30):
        s = mp.mpf(s)
        return mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s) / 2


class TestProjectiveZeta:
    def test_closed_form_special_value(self):
        # Z_(P^1)(6) = 945 zeta(3) / (16 pi^3); the s -> infinity limit is 2
        # (exactly the two height-1 points), which pins the normalization
        assert abs(zetaP1_closed(6.0)
                   - 945 * zeta(3.0) / (16 * math.pi ** 3)) < 1e-12
        assert abs(zetaP1_closed(60.0) - 2.0) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.floats(2.3, 30.0))
    def test_theta_matches_closed_form_m1(self, s):
        assert abs(zetaP_theta(1, s) - zetaP1_closed(s)) < 1e-11

    def test_numeric_matches_closed_form(self):
        for s, tol in ((4.0, 1e-5), (6.0, 1e-6)):
            assert abs(zetaP_numeric(1, s, tol) - zetaP1_closed(s)) <= tol

    def test_numeric_matches_theta_m2(self):
        assert abs(zetaP_numeric(2, 6.0, 1e-5) - zetaP_theta(2, 6.0)) <= 1e-5

    def test_conventions(self):
        assert zetaP_numeric(0, 5.0) == 1.0
        assert zetaP_numeric(-1, 5.0) == 0.0

    @pytest.mark.parametrize("route", [
        zetaP_numeric, zetaP_theta, zetaP_best,
        lambda m, s: _zp(None, QQ, m, s)],
        ids=["numeric", "theta", "best", "predict"])
    @pytest.mark.parametrize("m", [-2, -1, 0])
    def test_every_route_shares_the_conventions(self, route, m):
        # Z_(P^-1) = 0 and Z_(P^0) = 1 at any s; m < -1 is outside the domain
        if m < -1:
            with pytest.raises(DomainError, match="m must be >= -1"):
                route(m, 3.0)
        else:
            assert route(m, 3.0) == float(m + 1)

    def test_pole_budget(self):
        with pytest.raises(TooCloseToPoleError):
            zetaP_numeric(2, 4.0, 1e-5)

    def test_log_kappa_equals_the_float_bound(self):
        # reference: kappa(X) in doubles,
        # V_k [(1 + sqrt(k)/(2X))^k - 2^-k (1 - sqrt(k)/X)_+^k] / 2, whose
        # powers overflow from about k = 340 on
        def kappa_bound(k, x):
            vk = math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
            r = math.sqrt(k) / x
            return vk * ((1.0 + r / 2.0) ** k
                         - 2.0 ** -k * max(1.0 - r, 0.0) ** k) / 2.0

        for k in range(1, 301):
            for x in (2.0, 3.5, 40.0, 1e6):
                assert _log_kappa(k, x) == pytest.approx(
                    math.log(kappa_bound(k, x)), rel=1e-12, abs=1e-12)
        assert math.isfinite(_log_kappa(10 ** 6, 2.0))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kappa_bounds_the_primitive_count(self, k):
        # N(P^(k-1), H) <= kappa(X) H^k for H >= X, by listing the canonical
        # primitive vectors: N jumps only where H^2 is an integer, so every
        # integer H^2 in [X^2, 4 X^2], and H = X itself, cover H in [X, 2X]
        for x in (2.0, 2.5, 3.0, 4.0, 5.5):
            top = math.floor(4 * x * x)
            per_norm = [0] * (top + 1)
            for _, n2 in _canonical_vectors(k, top):
                per_norm[n2] += 1
            count = list(itertools.accumulate(per_norm))
            kappa = math.exp(_log_kappa(k, x))
            assert count[math.floor(x * x)] <= kappa * x ** k
            for h2 in range(math.ceil(x * x), top + 1):
                assert count[h2] <= kappa * h2 ** (k / 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.floats(0, 1), st.floats(-6, -3))
    def test_numeric_within_tol_of_reference(self, m, u, log_tol):
        # s runs from where the walk at tol 1e-6 holds about 1e5 points to 40
        lo = {1: 4.5, 2: 6.0, 3: 8.0}[m]
        s = lo + u * (40.0 - lo)
        tol = 10.0 ** log_tol
        want = zetaP1_closed(s) if m == 1 else zetaP_theta(m, s)
        assert abs(zetaP_numeric(m, s, tol) - want) <= tol

    def test_summation_bound_is_taken_at_x(self):
        # Z_(P^1)(4) at tol 1e-6, the sum of the rank-2 identity check:
        # n2max was 5,755,733 with the whole tail bounded by kappa(2),
        # 2,360,533 with kappa(X), and is 123,160 with Schanuel's main term
        assert _zetaP_n2max(1, 4.0, 1e-6) == 123_160

    # (m, s, tol): the rank-2 identity's sum, far from and close to the
    # pole, and the first inputs the budget refused before the main term
    @pytest.mark.parametrize("m, s, tol", [
        (1, 4.0, 1e-6), (1, 6.0, 1e-8), (2, 8.0, 1e-8), (3, 12.0, 1e-8),
        (1, 3.0, 1e-4), (1, 3.5, 1e-6), (2, 6.0, 1e-5), (2, 5.0, 1e-4),
        (3, 7.0, 1e-4), (3, 8.0, 1e-6), (4, 10.0, 1e-6)])
    def test_error_within_certified_bound(self, m, s, tol):
        # observed error <= the certified bound at the summation bound
        # sqrt(n2max) <= tol, against the closed form for m = 1 and the
        # theta route otherwise
        want = zetaP1_closed(s) if m == 1 else zetaP_theta(m, s)
        n2max = _zetaP_n2max(m, s, tol)
        bound = math.exp(_zetaP_error(m + 1, s)(0.5 * math.log(n2max)))
        assert abs(zetaP_numeric(m, s, tol) - want) <= bound <= tol

    def test_near_pole_within_budget(self):
        # Z_(P^1)(3) to 1e-4 needs 10^9.2 points with the whole tail
        # bounded, and n2max 508,496 with the main term; Z_(P^2)(4) to
        # 1e-4 still needs 10^8.5
        assert _zetaP_n2max(1, 3.0, 1e-4) == 508_496
        with pytest.raises(TooCloseToPoleError, match=r"10\^8\.5 points"):
            zetaP_numeric(2, 4.0, 1e-4)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 40])
    def test_schanuel_zeta_is_bracketed(self, k):
        z, h = _zeta_k(k)
        with mp.workdps(30):
            assert abs(mp.zeta(k) - z) <= h
        assert h <= 1e-9

    def test_main_term_needs_no_euler_maclaurin_zeta(self, monkeypatch):
        # the constant c = V_k / (2 zeta(k)) of the main term must not come
        # from `zeta`, which the closed form it is checked against uses
        import hkcount.constants as constants

        def refuse(s):
            raise AssertionError("zetaP_numeric called zeta")

        monkeypatch.setattr(constants, "zeta", refuse)
        monkeypatch.setattr(constants, "hurwitz_zeta", refuse)
        for m, s in ((1, 4.0), (2, 8.0), (3, 12.0)):
            zetaP_numeric(m, s, 1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            zetaP_numeric(1, 2.0, 1e-4)
        with pytest.raises(DomainError, match="below 1e-11"):
            zetaP_numeric(1, 8.0, 1e-12)
        with pytest.raises(DomainError):
            zetaP_theta(2, 3.0)


    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shell_counts_brute_force(self, k):
        # r_k(n) by listing Z^k in the box [-6, 6]^k, which holds every
        # vector of norm^2 <= 40
        want = [0] * 41
        for v in itertools.product(range(-6, 7), repeat=k):
            n = sum(x * x for x in v)
            if n <= 40:
                want[n] += 1
        assert _shell_counts(k, 40) == want

    @pytest.mark.parametrize("k", [5, 6])
    def test_shell_counts_match_ball_counts(self, k):
        # the lattice-ball kernel is independent code: its differences are
        # the shells
        want = [_ball_count(k, n) - _ball_count(k, n - 1) for n in range(41)]
        assert _shell_counts(k, 40) == want

    def test_theta_high_dimension(self):
        # at s = 40 only the primitive vectors of norm^2 <= 4 matter: up to
        # sign there are k, 2 C(k,2), 4 C(k,3) and 8 C(k,4) of them
        # (norm^2 = 5 adds below 1e-10)
        m, s = 10, 40.0
        k = m + 1
        want = sum(c * math.comb(k, j) * j ** (-s / 2)
                   for j, c in ((1, 1), (2, 2), (3, 4), (4, 8)))
        t0 = time.time()
        got = zetaP_theta(m, s)
        assert time.time() - t0 < 2.0
        assert abs(got - want) < 1e-9


def _zetaP_theta_mp(m, s):
    """Z_(P^m)(s) by the same theta sums at 30 digits, with mpmath's
    gammainc and zeta: the reference for the double-precision route."""
    k = m + 1
    shells = _shell_counts(k, 40)
    with mp.workdps(30):
        w = mp.mpf(s) / 2
        half_k = mp.mpf(k) / 2
        acc = 1 / (w - half_k) - 1 / w
        for n in range(1, 41):
            if shells[n] == 0:
                continue
            z = mp.pi * n
            g1 = z ** (-w) * mp.gammainc(w, z)
            g2 = z ** (w - half_k) * mp.gammainc(half_k - w, z)
            acc += shells[n] * (g1 + g2)
        epstein = mp.pi ** w / mp.gamma(w) * acc
        return float(epstein / (2 * mp.zeta(2 * w)))


class TestThetaRoute:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.floats(-7.0, math.log10(80.0)))
    def test_matches_30_digit_reference(self, m, log_gap):
        # s from 1e-7 to 80 above the pole s = m + 1
        s = m + 1 + 10.0 ** log_gap
        want = _zetaP_theta_mp(m, s)
        assert abs(zetaP_theta(m, s) - want) <= 1e-13 * want

    @pytest.mark.parametrize("m,s", [(10, 40.0), (50, 52.0), (400, 402.0)])
    def test_high_dimension_matches_30_digit_reference(self, m, s):
        assert not _height_one_dominates(m, s)
        want = _zetaP_theta_mp(m, s)
        assert abs(zetaP_theta(m, s) - want) <= 1e-13 * want

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5 + 1e-7, 60.0))
    def test_epstein_of_z_is_twice_zeta(self, w):
        # E_1(w) = sum over nonzero n of n^(-2w) = 2 zeta(2w)
        with mp.workdps(30):
            want = float(2 * mp.zeta(2 * mp.mpf(w)))
        assert abs(_epstein(1, w) - want) <= 1e-13 * want


class TestSchanuel:
    def test_rational_values(self):
        # C(n) = 1 / ((n+1) w xi(n+1)): 3/pi, 2pi/(3 zeta(3)), 45/(2 pi^2)
        assert abs(schanuel_constant(1).constant - 3 / math.pi) < 1e-14
        assert abs(schanuel_constant(2).constant
                   - 2 * math.pi / (3 * zeta(3.0))) < 1e-14
        assert abs(schanuel_constant(3).constant
                   - 45 / (2 * math.pi ** 2)) < 1e-14

    def test_exponent(self):
        p = schanuel_constant(2)
        assert p.a_l == Fraction(3) and p.log_exponent == 0


class TestPredict:
    def test_anticanonical_equal_case_surface(self):
        X = HKVariety(1, 2, (1,))
        p = predict(X, anticanonical(X))
        assert p.case is CaseTag.EQUAL
        assert (p.a_l, p.log_exponent) == (Fraction(1), 1)
        assert abs(p.constant - 6 / math.pi ** 2) < 1e-12
        assert p.source is SourceFormula.ANTICANONICAL

    def test_anticanonical_threefold(self):
        X = HKVariety(2, 2, (0, 1))
        p = predict(X, anticanonical(X))
        assert abs(p.constant - 1 / zeta(3.0)) < 1e-12

    def test_simple_pole_mu_case(self):
        # [DERIVED oracle: criterion-4 empirical ratio confirms this value]
        X = HKVariety(1, 2, (1,))
        p = predict(X, LineBundleClass(1, 1))
        assert p.case is CaseTag.MU_DOMINATES
        assert p.a_l == Fraction(3)
        assert abs(p.constant - 2 * math.pi / (3 * zeta(3.0))) < 1e-12

    def test_lambda_case_uses_base_zeta(self):
        # (lam, mu) = (1, 3): C = (3/pi) Z_(P^1)(5)
        X = HKVariety(1, 2, (1,))
        p = predict(X, LineBundleClass(1, 3))
        assert p.case is CaseTag.LAMBDA_DOMINATES
        assert abs(p.constant - (3 / math.pi) * zetaP1_closed(5.0)) < 1e-12

    def test_product_case_whole_space(self):
        # trivial fibration P^1 x P^1 with L = 3h + f: C = (3/pi) Z_(P^1)(6)
        # [DERIVED oracle: brute-force N(whole, B)/B^2 -> 2.185 at B = 160]
        X = HKVariety(1, 2, (0,))
        p = predict(X, LineBundleClass(3, 1))
        assert p.source is SourceFormula.PRODUCT
        assert abs(p.constant - (3 / math.pi) * zetaP1_closed(6.0)) < 1e-12
        assert abs(p.constant - 2.1865459914233543) < 1e-9

    def test_non_big_raises(self):
        with pytest.raises(NotBigError):
            predict(HKVariety(1, 2, (1,)), LineBundleClass(0, 2))

    def test_general_field_needs_zeta_samples(self):
        inv = FieldInvariants(r1=2, r2=0, w=2, abs_disc=5, regulator=0.4812,
                              class_number=1, zeta_k=lambda s: 1.0)
        X = HKVariety(1, 2, (1,))
        with pytest.raises(DomainError):
            predict(X, LineBundleClass(1, 3), inv)


class TestTables:
    def test_hirzebruch_diagonal(self):
        rows = {(r["lam"], r["mu"]): r for r in hirzebruch_table()}
        want = 2 * math.pi / (3 * zeta(3.0))
        for lm in ((1, 1), (2, 2), (3, 3)):
            assert abs(rows[lm]["C"] - want) < 1e-9
        assert abs(rows[(2, 3)]["C"] - 6 / math.pi ** 2) < 1e-9
        assert rows[(2, 3)]["log_exponent"] == 1

    def test_hirzebruch_mu_rows_against_reference(self):
        # [PAPER oracle: simple-pole rows of the worked surface table]
        rows = {(r["lam"], r["mu"]): r["C"] for r in hirzebruch_table()}
        assert abs(rows[(2, 1)] - 0.76443811) < 1e-7
        assert abs(rows[(3, 1)] - 0.58325419) < 1e-7
        assert abs(rows[(3, 2)] - 0.97781868) < 1e-7

    def test_threefold_intro_chain(self):
        got = threefold_intro()
        assert abs(got["C"] - 1 / zeta(3.0)) < 1e-9
        assert abs(got["Csecond"] - 3 / math.pi) < 1e-9
        # C' = (3/pi) (Z_(P^1)(6) - 1): whole product count minus subbundle
        want = (3 / math.pi) * (zetaP1_closed(6.0) - 1.0)
        assert abs(got["Cprime"] - want) < 1e-9

    def test_threefold_cases_verdicts(self):
        rows = {r["case"]: r for r in threefold_cases()}
        assert rows["(a1,a2)=(0,0)"]["L_big"] and rows["(a1,a2)=(0,0)"]["M_big"]
        assert rows["(a1,a2)=(0,1)"]["L_big"] and rows["(a1,a2)=(0,1)"]["M_big"]
        assert rows["1<=a1<a2<2a1+2"]["L_big"] and not rows["1<=a1<a2<2a1+2"]["M_big"]
        assert rows["1<=a1=a2"]["L_big"] and not rows["1<=a1=a2"]["M_big"]
        assert not rows["2a1+2<=a2"]["L_big"] and not rows["2a1+2<=a2"]["M_big"]

    def test_stratum_predictions_flags_infinite(self):
        X = HKVariety(2, 2, (0, 2))
        preds = stratum_predictions(X, anticanonical(X))
        assert preds[0].prediction is not None
        assert [p.note for p in preds[1:]] == ["infinite", "infinite"]


class TestInvariantsFile:
    def test_load_invariants(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text(
            "# real quadratic field Q(sqrt 5)\n"
            "r1=2\nr2=0\nw=2\nabsDisc=5\nregulator=0.4812118\n"
            "classNumber=1\nzetaK.2=1.8266976\n")
        inv = load_invariants(str(path))
        assert (inv.r1, inv.r2, inv.w, inv.abs_disc) == (2, 0, 2, 5)
        assert inv.zeta_k(2.0) == pytest.approx(1.8266976)
        with pytest.raises(DomainError):
            inv.zeta_k(3.0)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("r1=1\n")
        with pytest.raises(ValueError):
            load_invariants(str(path))

    @pytest.mark.parametrize("line", ["zetaK.2=nan", "zetaK.2=inf",
                                      "zetaK.2=0", "zetaK.nan=1",
                                      "zetaK.inf=1", "regulator=inf"])
    def test_rejects_values_no_field_has(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text("r1=1\nr2=0\nw=2\nabsDisc=1\nregulator=1.0\n"
                        f"classNumber=1\n{line}\n")
        with pytest.raises(ValueError):
            load_invariants(str(path))

    def test_rational_field_constants(self):
        assert (QQ.r1, QQ.r2, QQ.w, QQ.abs_disc) == (1, 0, 2, 1)
        assert QQ.degree == 1
