"""Symbolic model of projectivized split bundles over projective space.

The varieties handled here are the smooth projective toric varieties of
Picard rank 2: for integers r >= 1, t >= 2 and a nondecreasing tuple
0 <= a_1 <= ... <= a_r, the variety X_d(a_1, ..., a_r) is the
projectivization of O + O(-a_r) + O(a_1 - a_r) + ... + O(a_{r-1} - a_r)
over P^{t-1}, of dimension d = r + t - 1.  Everything in this module is
exact integer/rational arithmetic: the Picard basis {h, f}, the
anticanonical class, bigness, restriction to the projective subbundle F,
growth-exponent data and the stratification chain.
`require_big` is the one place that raises NotBigError.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union


class NotBigError(ValueError):
    """The requested bundle class is not big (count would be infinite)."""


class CaseTag(Enum):
    """Which of the two growth exponents dominates."""

    EQUAL = "EqualCase"
    LAMBDA_DOMINATES = "LambdaDominates"
    MU_DOMINATES = "MuDominates"


@dataclass(frozen=True)
class LineBundleClass:
    """Class lam*h + mu*f in the rank-2 Picard basis {h, f}.

    h is the relative hyperplane class O_X(1), f the pullback of the
    hyperplane class of the base P^{t-1}.
    """

    lam: int
    mu: int

    @classmethod
    def parse(cls, text: str) -> "LineBundleClass":
        m = re.fullmatch(r"\s*(-?\d+)\s*,\s*(-?\d+)\s*", text)
        if m is None:
            raise ValueError(f"bad bundle literal {text!r}; expected 'lam,mu'")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.lam},{self.mu}"


@dataclass(frozen=True)
class ProjectiveSpace:
    """Terminal stratum carrier: plain P^n with an O(k) twist kept separately."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("projective space dimension must be >= 0")

    def __str__(self) -> str:
        return f"P^{self.n}"


@dataclass(frozen=True)
class HKVariety:
    """The combinatorial model (r, t, a) with derived data.

    r: rank of the projectivized bundle minus one (fiber is P^r);
    t: base is P^{t-1};
    a: nondecreasing nonnegative twists (a_1, ..., a_r).
    """

    r: int
    t: int
    a: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.t < 2:
            raise ValueError("t must be >= 2")
        if len(self.a) != self.r:
            raise ValueError(f"expected {self.r} twist entries, got {len(self.a)}")
        if any(x < 0 for x in self.a):
            raise ValueError("twists must be nonnegative")
        if any(self.a[i] > self.a[i + 1] for i in range(self.r - 1)):
            raise ValueError("twists must be nondecreasing")

    @property
    def d(self) -> int:
        return self.r + self.t - 1

    @property
    def fiber_weights(self) -> tuple[int, ...]:
        """(b_0, ..., b_r) with b_0 = 0 and b_i = a_r - a_{i-1} (a_0 := 0).

        b_i is the base twist of the i-th summand in the fiber metric; b_1
        = a_r is the largest.
        """
        ar = self.a[-1]
        return (0,) + tuple(ar - x for x in (0,) + self.a[:-1])

    @property
    def abs_a(self) -> int:
        return sum(self.a)

    @property
    def n_x(self) -> int:
        """Number of indices i with a_i = a_r (multiplicity of the top twist)."""
        return sum(1 for x in self.a if x == self.a[-1])

    @classmethod
    def parse(cls, text: str) -> "HKVariety":
        m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*:\s*((?:-?\d+\s*,\s*)*-?\d+)\s*", text)
        if m is None:
            raise ValueError(f"bad variety literal {text!r}; expected 'r,t:a1,...,ar'")
        r, t = int(m.group(1)), int(m.group(2))
        a = tuple(int(x) for x in m.group(3).split(","))
        return cls(r, t, a)

    def __str__(self) -> str:
        return f"{self.r},{self.t}:{','.join(str(x) for x in self.a)}"


@dataclass(frozen=True)
class ExponentData:
    """Growth-exponent data of a big class: a(L) = max(lambda_l, mu_l)."""

    lambda_l: Fraction
    mu_l: Fraction
    a_l: Fraction
    log_exponent: int  # 1 iff lambda_l == mu_l, else 0
    case: CaseTag


@dataclass(frozen=True)
class Stratum:
    """One piece of the stratification chain.

    `space` is an HKVariety or a ProjectiveSpace; `bundle` is the restricted
    class (LineBundleClass) or, on a projective-space stratum, the integer
    twist k of O(k).  `open_part` is True when the stratum is the good open
    subset of `space` (fiber coordinate y_0 != 0) and False when the whole
    space is taken.
    """

    space: Union[HKVariety, ProjectiveSpace]
    bundle: Union[LineBundleClass, int]
    open_part: bool
    big: bool


def anticanonical(X: HKVariety) -> LineBundleClass:
    """-K_X = (r+1) h + ((r+1) a_r + t - |a|) f."""
    return LineBundleClass(X.r + 1, (X.r + 1) * X.a[-1] + X.t - X.abs_a)


def is_big(L: LineBundleClass) -> bool:
    """Big classes are the interior of the effective cone: lam > 0 and mu > 0."""
    return L.lam > 0 and L.mu > 0


def restrict_to_F(
    X: HKVariety, L: LineBundleClass
) -> tuple[Union[HKVariety, ProjectiveSpace], Union[LineBundleClass, int]]:
    """Restrict L to the subbundle F = {y_0 = 0}.

    For r >= 2, F is the one-step-smaller variety of the same base with
    the top twist dropped, and L restricts to
    (lam, mu - lam*(a_r - a_{r-1})).  For r = 1, F is the base P^{t-1}
    itself and L restricts to the twist mu - a_1*lam.  Non-big results
    are returned as-is; callers decide what bigness means for them.
    """
    lam, mu = L.lam, L.mu
    if X.r >= 2:
        Xp = HKVariety(X.r - 1, X.t, X.a[:-1])
        return Xp, LineBundleClass(lam, mu - lam * (X.a[-1] - X.a[-2]))
    return ProjectiveSpace(X.t - 1), mu - X.a[0] * lam


def exponents(X: HKVariety, L: LineBundleClass) -> ExponentData:
    """Exponent pair of a big class: lambda_l = (r+1)/lam and
    mu_l = ((r+1) a_r + t - |a|)/mu; the count grows like
    B^{max} (log B)^{[lambda_l == mu_l]}.
    """
    require_big(X, L)
    lam_l = Fraction(X.r + 1, L.lam)
    mu_l = Fraction((X.r + 1) * X.a[-1] + X.t - X.abs_a, L.mu)
    if lam_l == mu_l:
        case = CaseTag.EQUAL
    elif lam_l > mu_l:
        case = CaseTag.LAMBDA_DOMINATES
    else:
        case = CaseTag.MU_DOMINATES
    return ExponentData(
        lambda_l=lam_l,
        mu_l=mu_l,
        a_l=max(lam_l, mu_l),
        log_exponent=1 if lam_l == mu_l else 0,
        case=case,
    )


def _bundle_is_big(space: Union[HKVariety, ProjectiveSpace],
                   bundle: Union[LineBundleClass, int]) -> bool:
    if isinstance(space, ProjectiveSpace):
        return bundle > 0
    return is_big(bundle)


def require_big(space: Union[HKVariety, ProjectiveSpace],
                bundle: Union[LineBundleClass, int]) -> None:
    """Raise NotBigError unless the class is big: a class that is not big
    has infinitely many points of bounded height."""
    if not _bundle_is_big(space, bundle):
        raise NotBigError((f"twist O({int(bundle)}) on {space} is not big"
                           if isinstance(space, ProjectiveSpace) else
                           f"bundle {bundle} is not big on {space}")
                          + "; the count is infinite")


def decompose(
    X: Union[HKVariety, ProjectiveSpace],
    L: Optional[LineBundleClass] = None,
) -> tuple[Stratum, ...]:
    """Stratification chain of X carrying the iterated restrictions of L.

    The good open subset is peeled off at every step down to the base
    projective space:
        [U(X), U(X'), ..., P^{t-1} (whole)].
    L defaults to the anticanonical class of X.  A twisted P^n, with L the
    twist, is its own one whole stratum.
    """
    if L is None:
        L = anticanonical(X)
    strata: list[Stratum] = []
    space: Union[HKVariety, ProjectiveSpace] = X
    bundle: Union[LineBundleClass, int] = L
    while isinstance(space, HKVariety):
        strata.append(Stratum(space, bundle, open_part=True,
                              big=_bundle_is_big(space, bundle)))
        space, bundle = restrict_to_F(space, bundle)
    strata.append(Stratum(space, bundle, open_part=False,
                          big=_bundle_is_big(space, bundle)))
    return tuple(strata)
