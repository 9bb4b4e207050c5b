"""Exact height arithmetic and point bookkeeping."""
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcount.geometry import (
    HKVariety,
    LineBundleClass,
    ProjectiveSpace,
    anticanonical,
    restrict_to_F,
)
from hkcount.heights import (
    AllZeroError,
    DimensionMismatchError,
    HKRationalPoint,
    ProjectivePoint,
    Region,
    base_height_sq,
    fiber_height_sq,
    height_L_sq,
    height_le,
)
from support import canonicalize, parse_point, region_of


class TestProjectivePoint:
    def test_canonicalize_clears_denominators_and_sign(self):
        assert canonicalize([Fraction(1, 2), Fraction(-3, 4)]).coords == (2, -3)
        assert canonicalize([-2, -4]).coords == (1, 2)
        assert canonicalize([0, 5, 10]).coords == (0, 1, 2)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            canonicalize([0, 0])
        with pytest.raises(AllZeroError):
            ProjectivePoint((0, 0, 0))

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((2, 4))

    def test_base_height(self):
        assert base_height_sq(ProjectivePoint((3, 4))) == 25

    def test_parse_format_round_trip(self):
        pt = parse_point("[1:2];[0:1:-1]")
        assert pt == HKRationalPoint(ProjectivePoint((1, 2)),
                                     ProjectivePoint((0, 1, -1)))
        assert parse_point(str(pt)) == pt


class TestHeights:
    def test_fiber_height_trivial_fibration(self):
        # all twists zero: fiber height is independent of the base point
        X = HKVariety(1, 2, (0,))
        assert fiber_height_sq(X, ProjectivePoint((3, 4)),
                               ProjectivePoint((1, 2))) == 5

    def test_fiber_height_twisted(self):
        # twist-1 surface: weights (0, 1), H_fib^2 = y0^2 + y1^2 / Nq
        X = HKVariety(1, 2, (1,))
        pt = HKRationalPoint(ProjectivePoint((1, 2)), ProjectivePoint((1, 3)))
        assert fiber_height_sq(X, pt.base, pt.fiber) == 1 + Fraction(9, 5)
        assert height_L_sq(X, LineBundleClass(2, 3), pt) == \
            Fraction(14, 5) ** 2 * 5 ** 3

    def test_dimension_mismatch(self):
        X = HKVariety(1, 2, (1,))
        with pytest.raises(DimensionMismatchError):
            fiber_height_sq(X, ProjectivePoint((1, 2, 3)),
                            ProjectivePoint((1, 1)))

    def test_region_of(self):
        X = HKVariety(1, 2, (1,))
        on_u = HKRationalPoint(ProjectivePoint((1, 0)), ProjectivePoint((1, 7)))
        on_f = HKRationalPoint(ProjectivePoint((1, 0)), ProjectivePoint((0, 1)))
        assert region_of(on_u) is Region.GOOD_OPEN
        assert region_of(on_f) is Region.SUBBUNDLE_F

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 6), st.integers(1, 40),
           st.fractions(min_value=Fraction(1, 3), max_value=60))
    def test_exact_comparator_matches_exact_height(self, q0, y1, bound):
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        pt = HKRationalPoint(canonicalize((q0, 1)), canonicalize((1, y1)))
        exact = height_L_sq(X, L, pt) <= Fraction(bound) ** 2
        assert height_le(X, L, pt, Fraction(bound)) == exact

    @pytest.mark.parametrize("variety, bundle, point", [
        ("1,2:1", "1,-1", "[10:11];[0:1]"), ("1,2:2", "-1,2", "[1:11];[0:1]"),
        ("2,2:0,1", "1,-1", "[1:21];[0:3:4]")])
    def test_comparator_exact_at_the_bound_for_negative_exponents(
            self, variety, bundle, point):
        # H_L^2 is a rational square here and B = H_L exactly; a negative
        # exponent must not turn the cleared inequality into floats
        X = HKVariety.parse(variety)
        L = LineBundleClass.parse(bundle)
        pt = parse_point(point)
        h = height_L_sq(X, L, pt)
        B = Fraction(isqrt(h.numerator), isqrt(h.denominator))
        assert B * B == h
        assert height_le(X, L, pt, B)
        assert not height_le(X, L, pt, B * Fraction(999_999, 1_000_000))


def _random_variety(rng: random.Random) -> HKVariety:
    r = rng.randint(1, 4)
    t = rng.randint(2, 4)
    a = tuple(sorted(rng.randint(0, 5) for _ in range(r)))
    return HKVariety(r, t, a)


def _random_big_bundle(rng: random.Random) -> LineBundleClass:
    return LineBundleClass(rng.randint(1, 5), rng.randint(1, 8))


class TestRestrictionHeightEquality:
    """Heights are intrinsic to the subbundle: a point with y_0 = 0 has the
    same height for (X, L) as its reduction for (F, L restricted to F)."""

    def test_500_random_points(self):
        rng = random.Random(20260826)
        checked = 0
        while checked < 500:
            X = _random_variety(rng)
            L = _random_big_bundle(rng)
            base = [rng.randint(-9, 9) for _ in range(X.t)]
            fiber = [0] + [rng.randint(-9, 9) for _ in range(X.r)]
            if not any(base) or not any(fiber):
                continue
            pt = HKRationalPoint(canonicalize(base), canonicalize(fiber))
            h_x = height_L_sq(X, L, pt)
            sub_space, sub_bundle = restrict_to_F(X, L)
            if isinstance(sub_space, ProjectiveSpace):
                h_f = Fraction(base_height_sq(pt.base)) ** sub_bundle
            else:
                # dropping y_0 leaves the weights (b_1 >= ... >= b_r); after
                # normalizing by the smallest, the weight-0 slot of the
                # subbundle corresponds to y_r, so the reduction rotates the
                # last coordinate to the front
                y = pt.fiber.coords
                sub_pt = HKRationalPoint(pt.base,
                                         canonicalize((y[-1],) + y[1:-1]))
                h_f = height_L_sq(sub_space, sub_bundle, sub_pt)
            assert h_x == h_f, (X, L, pt)
            checked += 1
        assert checked == 500
