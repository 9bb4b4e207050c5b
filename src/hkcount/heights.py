"""Exact standard heights over Q.

The standard height takes the max-norm at finite places and the l2-norm at
the archimedean place, so on P^n(Q) a canonical primitive integer
representative q has H(q)^2 = sum q_j^2 exactly.  On the fiber P^r over a
base point Q, the i-th coordinate lives in a rank-one lattice scaled by
||Q||^{-b_i}, giving the exact rational

    H_fib(P)^2 = sum_i y_i^2 * Nq^{-b_i},      Nq = sum q_j^2,

and the combined height of a class lam*h + mu*f is
H_L^2 = (H_fib^2)^lam * Nq^mu.  All comparisons against a rational bound B
are decided as integer inequalities after clearing denominators.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Union

from .geometry import HKVariety, LineBundleClass, ProjectiveSpace, Stratum, decompose


class AllZeroError(ValueError):
    """A projective point needs at least one nonzero coordinate."""


class DimensionMismatchError(ValueError):
    """Coordinate vector length does not match the variety."""


class Region(Enum):
    GOOD_OPEN = "GoodOpen"
    SUBBUNDLE_F = "SubbundleF"
    WHOLE = "Whole"


@dataclass(frozen=True)
class ProjectivePoint:
    """Canonical primitive integer representative of a point of P^n(Q).

    Invariants: coordinates are coprime integers, not all zero, and the
    first nonzero coordinate is positive.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self.coords
        if not c or all(x == 0 for x in c):
            raise AllZeroError("all coordinates are zero")
        g = 0
        for x in c:
            g = gcd(g, x)
        if g != 1:
            raise ValueError(f"coordinates {c} are not primitive")
        first = next(x for x in c if x != 0)
        if first < 0:
            raise ValueError(f"coordinates {c} violate the sign rule")

    def __str__(self) -> str:
        return "[" + ":".join(str(x) for x in self.coords) + "]"


@dataclass(frozen=True)
class HKRationalPoint:
    """A rational point of an HK variety: base point plus fiber point."""

    base: ProjectivePoint
    fiber: ProjectivePoint

    def __str__(self) -> str:
        return f"{self.base};{self.fiber}"


def base_height_sq(Q: ProjectivePoint) -> int:
    """H(Q)^2 = sum q_j^2 for a primitive representative."""
    return sum(x * x for x in Q.coords)


def _check_dims(X: HKVariety, Q: ProjectivePoint, y: ProjectivePoint) -> None:
    if len(Q.coords) != X.t:
        raise DimensionMismatchError(f"base point has {len(Q.coords)} coords, expected {X.t}")
    if len(y.coords) != X.r + 1:
        raise DimensionMismatchError(f"fiber point has {len(y.coords)} coords, expected {X.r + 1}")


def fiber_numerator(X: HKVariety, nq: int, y: tuple[int, ...]) -> int:
    """S = sum_i y_i^2 * Nq^{b_max - b_i}; then H_fib^2 = S / Nq^{b_max}."""
    b = X.fiber_weights
    bmax = X.a[-1]
    return sum(yi * yi * nq ** (bmax - bi) for yi, bi in zip(y, b))


def fiber_height_sq(X: HKVariety, Q: ProjectivePoint, y: ProjectivePoint) -> Fraction:
    """Exact squared fiber height sum_i y_i^2 * Nq^{-b_i}."""
    _check_dims(X, Q, y)
    nq = base_height_sq(Q)
    return Fraction(fiber_numerator(X, nq, y.coords), nq ** X.a[-1])


def height_L_sq(X: HKVariety, L: LineBundleClass, P: HKRationalPoint) -> Fraction:
    """Exact squared height (H_fib^2)^lam * Nq^mu."""
    hf2 = fiber_height_sq(X, P.base, P.fiber)
    nq = base_height_sq(P.base)
    return hf2 ** L.lam * Fraction(nq) ** L.mu


def cleared_height_sq(X: HKVariety, L: LineBundleClass,
                      P: HKRationalPoint) -> tuple[int, int]:
    """Integers n, d > 0 with H_L^2 = n / d, not reduced.

    H_L^2 = S^lam * Nq^(mu - lam*b_max) with S = sum y_i^2 Nq^{b_max-b_i}
    and b_max = a_r; each factor goes to the side where its exponent is
    positive, so no negative power of an int (a float) is formed.
    """
    _check_dims(X, P.base, P.fiber)
    nq = base_height_sq(P.base)
    s = fiber_numerator(X, nq, P.fiber.coords)
    lam, e = L.lam, L.mu - L.lam * X.a[-1]
    return (s ** max(lam, 0) * nq ** max(e, 0),
            s ** max(-lam, 0) * nq ** max(-e, 0))


def height_le(X: HKVariety, L: LineBundleClass, P: HKRationalPoint,
              B: Union[int, Fraction]) -> bool:
    """Exact test H_L(P) <= B, as a cleared integer inequality.

    With B^2 = p/q and H_L^2 = n/d (`cleared_height_sq`), the test
    H_L^2 <= B^2 is n * q <= p * d.
    """
    B = Fraction(B)
    if B <= 0:
        raise ValueError("bound must be positive")
    n, d = cleared_height_sq(X, L, P)
    b2 = B * B
    return n * b2.denominator <= b2.numerator * d


def region_strata(space: Union[HKVariety, ProjectiveSpace],
                  bundle: Union[LineBundleClass, int],
                  region: Region) -> tuple[Stratum, ...]:
    """The strata of `decompose` whose disjoint union is `region`: GoodOpen
    the first, SubbundleF the later ones, Whole all; P^n is its own one."""
    chain = decompose(space, bundle)
    if isinstance(space, ProjectiveSpace) or region is Region.WHOLE:
        return chain
    if region is Region.GOOD_OPEN:
        return chain[:1]
    return chain[1:]
