"""Models and helpers that only the tests use: the toric fan of X_d(a) and
its smoothness check, the alpha constant, the accumulation verdict, point
canonicalization, the point-literal parser, the region of a point, and a
least-squares fit of count tables."""
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from hkcount.geometry import (HKVariety, LineBundleClass, ProjectiveSpace,
                              _bundle_is_big, exponents, restrict_to_F)
from hkcount.heights import (AllZeroError, HKRationalPoint, ProjectivePoint,
                             Region)


@dataclass(frozen=True)
class Fan:
    """Rays (primitive integer vectors in Z^d) and maximal cones (index sets)."""

    rays: tuple[tuple[int, ...], ...]
    maximal_cones: tuple[tuple[int, ...], ...]


def _int_det(mat: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def build_fan(X: HKVariety) -> Fan:
    """Rays and maximal cones of X in Z^{t-1} + Z^r.

    Base rays: u_1, ..., u_{t-1} the standard basis of the first block,
    u_0 = -sum u_i.  Fiber rays: e_1, ..., e_r the standard basis of the
    second block, e_0 = -sum e_j.  The twisted ray is
    w_0 = u_0 - a_r e_1 + (a_1 - a_r) e_2 + ... + (a_{r-1} - a_r) e_r,
    and w_i = u_i for 1 <= i <= t-1.  Rays are stored in the fixed order
    (w_0, ..., w_{t-1}, e_0, ..., e_r); each maximal cone omits one w and
    one e.
    """
    r, t, a = X.r, X.t, X.a
    d = X.d

    def base_vec(i: int) -> list[int]:
        v = [0] * d
        if i == 0:
            for k in range(t - 1):
                v[k] = -1
        else:
            v[i - 1] = 1
        return v

    def fiber_vec(j: int) -> list[int]:
        v = [0] * d
        if j == 0:
            for k in range(r):
                v[t - 1 + k] = -1
        else:
            v[t - 1 + j - 1] = 1
        return v

    w0 = base_vec(0)
    ar = a[-1]
    twists = [-ar] + [a[k] - ar for k in range(r - 1)]  # coefficients of e_1..e_r
    for j in range(r):
        w0[t - 1 + j] += twists[j]

    rays = [tuple(w0)] + [tuple(base_vec(i)) for i in range(1, t)]
    rays += [tuple(fiber_vec(j)) for j in range(r + 1)]

    cones = []
    for j in range(t):  # omitted w index
        for i in range(r + 1):  # omitted e index
            idx = [k for k in range(t) if k != j]
            idx += [t + k for k in range(r + 1) if k != i]
            cones.append(tuple(idx))
    return Fan(rays=tuple(rays), maximal_cones=tuple(cones))


def fan_is_smooth(fan: Fan) -> bool:
    """All rays primitive and every maximal cone unimodular (det = +-1)."""
    for ray in fan.rays:
        g = 0
        for x in ray:
            g = gcd(g, x)
        if g != 1:
            return False
    for cone in fan.maximal_cones:
        mat = [list(fan.rays[i]) for i in cone]
        if abs(_int_det(mat)) != 1:
            return False
    return True


def alpha_constant(X: HKVariety) -> Fraction:
    """Effective-cone volume constant 1 / ((r+1) ((r+1) a_r + t - |a|))."""
    return Fraction(1, (X.r + 1) * ((X.r + 1) * X.a[-1] + X.t - X.abs_a))


def strongly_accumulates(X: HKVariety, L: LineBundleClass) -> Optional[bool]:
    """Does the subbundle F carry asymptotically more points than U?

    True iff max(lambda_l, mu_l) < mu_{L|F}, where mu_{L|F} is the base
    exponent of the restricted class.  Returns None (not applicable) when
    the restriction of L to F is not big, in which case F has infinitely
    many points of bounded height and the comparison is moot.
    """
    exp = exponents(X, L)  # raises NotBigError if L itself is not big
    sub_space, sub_bundle = restrict_to_F(X, L)
    if not _bundle_is_big(sub_space, sub_bundle):
        return None
    if isinstance(sub_space, ProjectiveSpace):
        mu_lf = Fraction(X.t, sub_bundle)
    else:
        mu_lf = exponents(sub_space, sub_bundle).mu_l
    return exp.a_l < mu_lf


def canonicalize(v: Iterable[Union[int, Fraction]]) -> ProjectivePoint:
    """Clear denominators, divide by the gcd and fix the sign.

    Idempotent and invariant under scaling by any nonzero rational.
    """
    fracs = [Fraction(x) for x in v]
    if not fracs or all(x == 0 for x in fracs):
        raise AllZeroError("all coordinates are zero")
    den = 1
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return ProjectivePoint(tuple(ints))


_POINT_RE = re.compile(r"\s*\[([^\]]*)\]\s*;\s*\[([^\]]*)\]\s*")


def parse_point(text: str) -> HKRationalPoint:
    """Parse the point literal '[q0:...:q_{t-1}];[y0:...:y_r]' that
    `count --stream` prints."""
    m = _POINT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"bad point literal {text!r}")
    base = canonicalize(Fraction(x) for x in m.group(1).split(":"))
    fiber = canonicalize(Fraction(x) for x in m.group(2).split(":"))
    return HKRationalPoint(base=base, fiber=fiber)


def region_of(P: HKRationalPoint) -> Region:
    """GoodOpen iff the distinguished fiber coordinate y_0 is nonzero."""
    return Region.GOOD_OPEN if P.fiber.coords[0] != 0 else Region.SUBBUNDLE_F


class DegenerateFitError(ValueError):
    """Not enough (or collinear) data for the requested fit."""


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    log_coefficient: float
    coefficient: float  # the companion pure-power coefficient of the 2-param fit


def estimate_exponent(table: Sequence,
                      exponent: Optional[float] = None) -> ExponentFit:
    """Log-log slope plus a two-parameter fit N ~ C B^a log B + C2 B^a.

    `table` rows are (B, count) pairs.  The slope comes from least squares
    on (log B, log N); the two-parameter fit uses the given exponent `a`
    (default: slope rounded to the nearest integer) and returns C as
    log_coefficient and C2 as coefficient.
    """
    pairs = [(float(b), float(n)) for b, n in table]
    if len(pairs) < 4:
        raise DegenerateFitError("need at least 4 grid points")
    bs = np.array([b for b, _ in pairs])
    ns = np.array([n for _, n in pairs])
    if np.any(bs <= 1) or np.any(ns <= 0):
        raise DegenerateFitError("fit needs B > 1 and positive counts")
    slope, _ = np.polyfit(np.log(bs), np.log(ns), 1)
    a = float(exponent) if exponent is not None else float(round(slope))
    design = np.column_stack([bs ** a * np.log(bs), bs ** a])
    sol, *_ = np.linalg.lstsq(design, ns, rcond=None)
    return ExponentFit(slope=float(slope), log_coefficient=float(sol[0]),
                       coefficient=float(sol[1]))
