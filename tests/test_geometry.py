"""Symbolic geometry: fans, bigness, exponents, restriction chains."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcount.geometry import (
    CaseTag,
    HKVariety,
    LineBundleClass,
    NotBigError,
    ProjectiveSpace,
    anticanonical,
    decompose,
    exponents,
    is_big,
    restrict_to_F,
)
from support import (alpha_constant, build_fan, fan_is_smooth,
                     strongly_accumulates)

varieties = st.builds(
    lambda r, t, a: HKVariety(r, t, tuple(sorted(a[:r]))),
    st.integers(1, 4), st.integers(2, 4),
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
)


class TestConstruction:
    def test_parse_round_trip(self):
        X = HKVariety.parse("2,2:0,1")
        assert (X.r, X.t, X.a) == (2, 2, (0, 1))
        assert HKVariety.parse(str(X)) == X

    def test_rejects_unsorted_twists(self):
        with pytest.raises(ValueError):
            HKVariety(2, 2, (2, 1))

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            HKVariety(0, 2, ())
        with pytest.raises(ValueError):
            HKVariety(1, 1, (1,))

    def test_dimension_and_weights(self):
        X = HKVariety(2, 3, (1, 4))
        assert X.d == 4
        # weights: b_0 = 0, b_i = a_r - a_{i-1} with a_0 = 0
        assert X.fiber_weights == (0, 4, 3)
        assert X.n_x == 1
        assert HKVariety(2, 2, (1, 1)).n_x == 2

    def test_bundle_parse(self):
        assert LineBundleClass.parse("2,3") == LineBundleClass(2, 3)
        with pytest.raises(ValueError):
            LineBundleClass.parse("2;3")


class TestFan:
    def test_hirzebruch_surface_rays(self):
        # [DERIVED oracle: the rank-2 fan of the twist-1 surface]
        fan = build_fan(HKVariety(1, 2, (1,)))
        assert [tuple(r) for r in fan.rays] == [
            (-1, -1), (1, 0), (0, -1), (0, 1)]

    def test_product_surface_rays(self):
        fan = build_fan(HKVariety(1, 2, (0,)))
        assert [tuple(r) for r in fan.rays] == [
            (-1, 0), (1, 0), (0, -1), (0, 1)]

    def test_threefold_rays(self):
        fan = build_fan(HKVariety(2, 2, (0, 1)))
        assert [tuple(r) for r in fan.rays] == [
            (-1, -1, -1), (1, 0, 0), (0, -1, -1), (0, 1, 0), (0, 0, 1)]

    def test_cone_count_and_smoothness(self):
        X = HKVariety(2, 3, (1, 3))
        fan = build_fan(X)
        assert len(fan.rays) == X.r + X.t + 1
        assert len(fan.maximal_cones) == X.t * (X.r + 1)
        assert fan_is_smooth(fan)

    @settings(max_examples=60, deadline=None)
    @given(varieties)
    def test_random_fans_smooth(self, X):
        fan = build_fan(X)
        assert len(fan.rays) == X.r + X.t + 1
        assert len(fan.maximal_cones) == X.t * (X.r + 1)
        assert fan_is_smooth(fan)


class TestBundles:
    def test_anticanonical(self):
        # -K = (r+1) h + ((r+1) a_r + t - |a|) f
        assert anticanonical(HKVariety(1, 2, (1,))) == LineBundleClass(2, 3)
        assert anticanonical(HKVariety(2, 2, (0, 1))) == LineBundleClass(3, 4)

    def test_bigness(self):
        assert is_big(LineBundleClass(1, 1))
        assert not is_big(LineBundleClass(0, 5))
        assert not is_big(LineBundleClass(3, 0))
        assert not is_big(LineBundleClass(-1, 2))

    def test_alpha_constant(self):
        # 1 / ((r+1)((r+1) a_r + t - |a|))
        assert alpha_constant(HKVariety(1, 2, (1,))) == Fraction(1, 6)
        assert alpha_constant(HKVariety(2, 2, (0, 1))) == Fraction(1, 12)

    def test_exponents_cases(self):
        X = HKVariety(1, 2, (1,))
        e = exponents(X, LineBundleClass(2, 3))
        assert (e.lambda_l, e.mu_l) == (Fraction(1), Fraction(1))
        assert e.case is CaseTag.EQUAL and e.log_exponent == 1
        e = exponents(X, LineBundleClass(1, 3))
        assert e.case is CaseTag.LAMBDA_DOMINATES and e.a_l == 2
        e = exponents(X, LineBundleClass(3, 1))
        assert e.case is CaseTag.MU_DOMINATES and e.a_l == 3

    def test_exponents_rejects_non_big(self):
        with pytest.raises(NotBigError):
            exponents(HKVariety(1, 2, (1,)), LineBundleClass(0, 1))

    @settings(max_examples=100, deadline=None)
    @given(varieties)
    def test_anticanonical_always_big_and_balanced(self, X):
        mk = anticanonical(X)
        assert is_big(mk)
        e = exponents(X, mk)
        assert (e.lambda_l, e.mu_l) == (Fraction(1), Fraction(1))
        assert e.case is CaseTag.EQUAL

    @settings(max_examples=100, deadline=None)
    @given(varieties)
    def test_anticanonical_degree_identity(self, X):
        # mu(-K) = sum of fiber weights + t
        mk = anticanonical(X)
        assert mk.mu == sum(X.fiber_weights) + X.t


class TestRestriction:
    def test_restrict_higher_rank(self):
        X = HKVariety(2, 2, (0, 1))
        Xp, Lp = restrict_to_F(X, LineBundleClass(3, 4))
        assert Xp == HKVariety(1, 2, (0,))
        assert Lp == LineBundleClass(3, 1)

    def test_restrict_rank_one(self):
        Xp, k = restrict_to_F(HKVariety(1, 2, (1,)), LineBundleClass(2, 3))
        assert Xp == ProjectiveSpace(1)
        assert k == 1

    def test_decompose_threefold(self):
        X = HKVariety(2, 2, (0, 1))
        strata = decompose(X, anticanonical(X))
        assert len(strata) == 3
        assert [s.open_part for s in strata] == [True, True, False]
        assert strata[-1].space == ProjectiveSpace(1)
        assert all(s.big for s in strata)

    @settings(max_examples=100, deadline=None)
    @given(varieties)
    def test_chain_terminates_in_r_steps(self, X):
        strata = decompose(X, anticanonical(X))
        assert len(strata) == X.r + 1
        assert isinstance(strata[-1].space, ProjectiveSpace)


class TestAccumulation:
    def test_known_verdicts(self):
        X = HKVariety(1, 2, (1,))
        assert strongly_accumulates(X, LineBundleClass(2, 3)) is True
        assert strongly_accumulates(X, LineBundleClass(1, 3)) is False
        # restriction of h+f to F is O(0): not big, not applicable
        assert strongly_accumulates(X, LineBundleClass(1, 1)) is None


class TestProductStratum:
    def test_subbundle_is_big_and_grows_no_faster(self):
        # on a big class of P^{t-1} x P^r (all twists zero) the subbundle F
        # carries (lam, mu), or the twist mu on P^{t-1}: it is big, and its
        # growth key (a, log exponent) never exceeds the product's
        ties = 0
        for r in range(1, 5):
            for t in range(2, 6):
                X = HKVariety(r, t, (0,) * r)
                for lam in range(1, 13):
                    for mu in range(1, 13):
                        L = LineBundleClass(lam, mu)
                        e = exponents(X, L)
                        space, bundle = restrict_to_F(X, L)
                        if isinstance(space, ProjectiveSpace):
                            assert bundle > 0
                            key_f = (Fraction(space.n + 1, bundle), 0)
                        else:
                            assert is_big(bundle)
                            ef = exponents(space, bundle)
                            key_f = (ef.a_l, ef.log_exponent)
                        assert key_f <= (e.a_l, e.log_exponent)
                        ties += key_f == (e.a_l, e.log_exponent)
        assert ties == 1109
