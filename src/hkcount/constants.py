"""High-precision evaluation of the closed-form asymptotic constants.

Special functions are evaluated in double precision with explicit error
control: Riemann/Hurwitz zeta by Euler-Maclaurin summation, the quadratic
Dirichlet L-function L_{-4} through Hurwitz zeta, and the completed zeta
xi_K in log space, its Gamma factors from math.lgamma (the platform
implementation, validated in the tests against an independent
high-precision oracle).  xi_K and every leading constant are the
exponential of a sum of logarithms, read through one range check, so a
constant whose factors pass the double range still prints when it is
itself a normal double.

The height zeta function of P^m over Q,

    Z_{P^m}(s) = sum over P in P^m(Q) of H(P)^{-s},

has three independent evaluation routes:
  * zetaP_numeric -- direct summation over enumerated points with a
    rigorous Schanuel-type tail bound (slow; raises TooCloseToPoleError
    when the tail cannot be controlled within the work budget);
  * zetaP1_closed -- the closed form 2 zeta(s/2) L_{-4}(s/2) / zeta(s)
    for m = 1 (note Z_{P^1}(s) -> 2 as s -> infinity: exactly the two
    height-1 points [1:0] and [0:1] survive, which pins the additive
    normalization of the closed form);
  * zetaP_theta -- for any m, the incomplete-gamma (theta/Poisson
    summation) representation of the Epstein zeta function of Z^{m+1},
    divided by that of Z^1, 2 zeta(s); in doubles, from math.lgamma and a
    continued fraction, within 1e-13 relative of a 30-digit evaluation
    for every s above the pole, and the limit m + 1 once the points of
    height > 1 provably cannot move it.

Per-stratum predictions follow the chain of `geometry.decompose`: a
stratum that is not big is "infinite", any other gets `predict` or
Schanuel's constant, and the good open part of a product stratum
P^{t-1} x P^r subtracts its subbundle's constant when the growth orders
tie (the subbundle is big there and never grows faster).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from .enumeration import _primitive_norm_blocks
from .geometry import (
    CaseTag,
    HKVariety,
    LineBundleClass,
    Stratum,
    anticanonical,
    decompose,
    exponents,
    restrict_to_F,
)
from .heights import Region, region_strata


class DomainError(ValueError):
    """Argument outside the convergence domain of the evaluator."""


class TooCloseToPoleError(ArithmeticError):
    """The requested tolerance is unreachable this close to a pole."""


from enum import Enum


class SourceFormula(Enum):
    GENERAL = "general-fibration"       # twisted bundle, a_r > 0 (good open count)
    PRODUCT = "trivial-fibration"       # a_r = 0, whole product space count
    ANTICANONICAL = "anticanonical"
    SCHANUEL = "projective-space"


@dataclass(frozen=True)
class FieldInvariants:
    """Number-field data entering the constants: (r1, r2, w, |disc|, R, h).

    zeta_k is an evaluator for the field zeta function at real s > 1;
    None means the rational field (internal Riemann zeta is used).  A value
    no field has (r1 or r2 < 0, degree 0, w, |disc| or h < 1, or R not
    finite and > 0) raises ValueError.
    """

    r1: int
    r2: int
    w: int
    abs_disc: int
    regulator: float
    class_number: int
    zeta_k: Optional[Callable[[float], float]] = field(default=None, compare=False)

    @property
    def degree(self) -> int:
        return self.r1 + 2 * self.r2

    def __post_init__(self) -> None:
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("r1 and r2 must be >= 0")
        if self.degree < 1:
            raise ValueError("field degree must be >= 1")
        if min(self.w, self.abs_disc, self.class_number) < 1:
            raise ValueError("w, absDisc and classNumber must be >= 1")
        if not (math.isfinite(self.regulator) and self.regulator > 0):
            raise ValueError("regulator must be finite and > 0")


QQ = FieldInvariants(r1=1, r2=0, w=2, abs_disc=1, regulator=1.0, class_number=1)


def load_invariants(path: str) -> FieldInvariants:
    """Read the flat key=value invariants file.

    Recognized keys: r1, r2, w, absDisc, regulator, classNumber, and
    optional zetaK.<s>=<value> sample lines giving the field zeta at the
    exact arguments the formulas will request; s must be finite and the
    value finite and > 0.  A bad line or value raises ValueError.
    """
    data: dict[str, str] = {}
    samples: dict[float, float] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad invariants line {line!r}")
            key, val = (x.strip() for x in line.split("=", 1))
            if key.startswith("zetaK."):
                s, z = float(key[6:]), float(val)
                if not (math.isfinite(s) and math.isfinite(z) and z > 0):
                    raise ValueError(f"zetaK sample {line!r} must be a finite "
                                     "s with a finite value > 0")
                samples[s] = z
            else:
                data[key] = val
    try:
        args = dict(
            r1=int(data["r1"]), r2=int(data["r2"]), w=int(data["w"]),
            abs_disc=int(data["absDisc"]), regulator=float(data["regulator"]),
            class_number=int(data["classNumber"]),
        )
    except KeyError as exc:
        raise ValueError(f"missing invariants key {exc}") from exc

    zeta_k = None
    if samples:
        def zeta_k(s: float, _table=dict(samples)) -> float:
            for key, val in _table.items():
                if abs(key - s) < 1e-9:
                    return val
            raise DomainError(f"no zetaK sample provided for s = {s}")
    return FieldInvariants(**args, zeta_k=zeta_k)


# ---------------------------------------------------------------------------
# special functions (Euler-Maclaurin)
# ---------------------------------------------------------------------------

_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730),
]
_EM_N = 24  # direct terms; with 12 Bernoulli corrections this gives ~1e-15


def hurwitz_zeta(s: float, a: float = 1.0) -> float:
    """zeta(s, a) = sum_{k>=0} (k+a)^{-s} by Euler-Maclaurin, s > 1, a > 0.

    The truncation parameters are fixed so the remainder (first omitted
    Bernoulli term) is far below 1e-14 for 1 < s < ~60.
    """
    if s <= 1:
        raise DomainError(f"hurwitz_zeta needs s > 1, got {s}")
    if a <= 0:
        raise DomainError("hurwitz_zeta needs a > 0")
    n = _EM_N
    total = sum((k + a) ** (-s) for k in range(n))
    x = n + a
    total += x ** (1.0 - s) / (s - 1.0)
    total += 0.5 * x ** (-s)
    poch = s  # rising factorial s (s+1) ... (s + 2j - 2)
    fact = 1.0
    xpow = x ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI, start=1):
        if xpow == 0.0:
            break  # x^(-s-2j+1) underflowed, and so does every later term
        fact *= (2 * j - 1) * (2 * j) if j > 1 else 2
        total += float(b) * poch / fact * xpow
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        xpow /= x * x
    return total


def zeta(s: float) -> float:
    """Riemann zeta for s > 1."""
    return hurwitz_zeta(s, 1.0)


def L_minus4(s: float) -> float:
    """Dirichlet L-function of the nontrivial character mod 4.

    L_{-4}(s) = 4^{-s} (zeta(s, 1/4) - zeta(s, 3/4))
              = 1 - 3^{-s} + 4^{-s} (zeta(s, 5/4) - zeta(s, 7/4));
    the two Hurwitz poles at s = 1 cancel, so values just above 1 remain
    accurate.  The second form takes the terms 1 and 3^{-s} out of the
    sums, so no Hurwitz value overflows for large s (zeta(s, 1/4) passes
    4^s), and L_{-4}(s) tends to 1.
    """
    return 1.0 - 3.0 ** (-s) + 4.0 ** (-s) * (hurwitz_zeta(s, 1.25)
                                             - hurwitz_zeta(s, 1.75))


_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)


def _exp_normal(log_val: float, what: str) -> float:
    """e^log_val, when it is a normal double: OverflowError when log_val
    lies outside [log DBL_MIN, log DBL_MAX], or is nan."""
    if not _LOG_MIN <= log_val <= _LOG_MAX:
        raise OverflowError(f"{what} is beyond double range")
    return math.exp(log_val)


def log_xi_K(s: float, inv: FieldInvariants = QQ) -> float:
    """log xi_K(s) = log zeta_K(s) + r1 (lgamma(s/2) - (s/2) log pi - log 2)
    + r2 (lgamma(s) - s log 2 pi), for s > 1; inf where lgamma leaves the
    double range (s of about 5e305 and more)."""
    if s <= 1:
        raise DomainError(f"xi_K needs s > 1, got {s}")
    zk = inv.zeta_k(s) if inv.zeta_k is not None else zeta(s)
    try:
        return (math.log(zk)
                + inv.r1 * (math.lgamma(s / 2.0) - s / 2.0 * math.log(math.pi)
                            - math.log(2.0))
                + inv.r2 * (math.lgamma(s) - s * math.log(2.0 * math.pi)))
    except OverflowError:
        return math.inf


def xi_K(s: float, inv: FieldInvariants = QQ) -> float:
    """Completed field zeta 2^{-r1} (pi^{-s/2} Gamma(s/2))^{r1}
    ((2 pi)^{-s} Gamma(s))^{r2} zeta_K(s), for s > 1, as e^`log_xi_K`,
    which is within about |log xi_K| ulps of the value.  OverflowError
    when xi_K is not a normal double; over Q that is from s = 439 on."""
    return _exp_normal(log_xi_K(s, inv), f"xi_K({s})")


# ---------------------------------------------------------------------------
# height zeta functions of projective space over Q
# ---------------------------------------------------------------------------

_ZP_BUDGET = 20_000_000  # max points the direct summation may enumerate


def _log_kappa(k: int, x: float) -> float:
    """log kappa(X), a safe over-estimate with N(P^{k-1}, H) <= kappa(X) H^k
    for every H >= X >= 2; finite for every k, and for X = inf.

    kappa(X) = (V_k / 2) [(1 + sqrt(k)/(2X))^k - 2^-k (1 - sqrt(k)/X)_+^k].
    Each lattice point owns a unit cube inside the ball of radius
    H + sqrt(k)/2, so at most V_k (H + sqrt(k)/2)^k - 1 nonzero vectors have
    norm <= H.  The cubes of the lattice points in the ball of radius H/2
    cover the ball of radius H/2 - sqrt(k)/2, so at least
    V_k (H/2 - sqrt(k)/2)_+^k - 1 of them are nonzero: their doubles are
    the nonzero multiples of 2 of norm <= H, none of them primitive.
    Canonical primitive points are half of the rest.  Taken at H in place
    of X, the bracket is that bound over V_k H^k / 2; it decreases in H, so
    its value at X bounds every H >= X.  It is formed as
    log a + log1p(-b / a), so no power overflows.
    """
    r = math.sqrt(k) / x
    log_a = k * math.log1p(r / 2.0)
    log_half_vk = (k / 2.0 * math.log(math.pi) - math.lgamma(k / 2.0 + 1.0)
                   - math.log(2.0))
    if r >= 1.0:
        return log_half_vk + log_a
    log_b = k * (math.log1p(-r) - math.log(2.0))
    return log_half_vk + log_a + math.log1p(-math.exp(log_b - log_a))


# The bound X of `zetaP_numeric` aims at a tail of tol e^-_X_MARGIN, so that
# rounding in the logarithms cannot push the certified tail above tol.
_X_MARGIN = 1e-9
_X_STEPS = 5  # odd: every odd step of the decreasing map stays above its root


def _zetaP_n2max(m: int, s: float, tol: float) -> int:
    """The summation bound n2max = ceil(X^2) of `zetaP_numeric`: the points
    of height <= X, whose tail kappa(X) s / (s - k) X^(k - s), k = m + 1,
    is at most tol.

    X solves X = (kappa(X) s / ((s - k) tol))^(1/(s - k)), clamped at X >= 2,
    by _X_STEPS fixed-point steps from X = 2; the first step gives the X of
    kappa(2).  The map decreases in X (kappa does), so its odd steps stay
    above the root and every one of them meets the tail bound.  All of it
    runs in logarithms, since X and the point count overflow near the pole.
    Raises TooCloseToPoleError when the points up to X, at most
    kappa(X) (X + 1)^k, pass _ZP_BUDGET.  Before returning, checks the tail
    at sqrt(n2max) in log space.
    """
    k = m + 1
    excess = s - k  # > 0
    log_c = math.log(s) - math.log(excess) - math.log(tol)

    def log_kappa(log_x: float) -> float:
        # kappa decreases, so its value at the capped X bounds any X beyond
        return _log_kappa(k, math.exp(min(log_x, 700.0)))

    def log_tail(log_x: float) -> float:  # log(tail / tol)
        return log_kappa(log_x) + log_c - excess * log_x

    log_x = math.log(2.0)
    for _ in range(_X_STEPS):
        log_x = max(log_x + (log_tail(log_x) + _X_MARGIN) / excess,
                    math.log(2.0))
    log_points = log_kappa(log_x) + k * (log_x + math.log1p(math.exp(-log_x)))
    if log_points > math.log(_ZP_BUDGET):
        raise TooCloseToPoleError(
            f"direct summation of Z_(P^{m})({s}) to tol {tol} needs ~"
            f"10^{log_points / math.log(10):.1f} points; over budget {_ZP_BUDGET}")
    n2max = math.ceil(math.exp(2.0 * log_x))
    if log_tail(0.5 * math.log(n2max)) > 0.0:
        raise ArithmeticError(f"tail bound of Z_(P^{m})({s}) at n2max "
                              f"{n2max} is above tol {tol}")
    return n2max


def zetaP_numeric(m: int, s: float, tol: float = 1e-8) -> float:
    """Z_{P^m}(s) by direct summation with a rigorous tail bound.

    The partial sum over points of height <= X misses at most
    kappa(X) s / (s - m - 1) X^{m+1-s}; `_zetaP_n2max` chooses X to push
    that below `tol`, with kappa(X) taken at the summation bound itself
    (`_log_kappa`).  Raises TooCloseToPoleError when the required X implies
    more points than the work budget allows.  The points come from the
    enumeration module's primitive-vector walk, one int64 block of
    (norms^2, weights) at a time: a representative of each orbit under
    signs and permutations, weighted by the number of points in it.  Each
    block adds sum w * norm^(-s/2) in float64.
    """
    if m == -1:
        return 0.0
    if m == 0:
        return 1.0
    if m < -1:
        raise DomainError("m must be >= -1")
    if s <= m + 1:
        raise DomainError(f"Z_(P^{m}) diverges for s <= {m + 1}")
    total = 0.0
    for norms, weights in _primitive_norm_blocks(m + 1, _zetaP_n2max(m, s, tol)):
        total += float((weights * norms ** (-0.5 * s)).sum())
    return total


def zetaP1_closed(s: float) -> float:
    """Closed form Z_{P^1}(s) = 2 zeta(s/2) L_{-4}(s/2) / zeta(s), s > 2.

    Derivation: summing ||v||^{-s} over nonzero v in Z^2 gives the Epstein
    zeta 4 zeta(s/2) L_{-4}(s/2); dividing by zeta(s) restricts to
    primitive vectors and halving identifies +-v.  Checked against the
    direct summation and the theta route in the tests.
    """
    if s <= 2:
        raise DomainError(f"Z_(P^1) diverges for s <= 2, got {s}")
    return 2.0 * zeta(s / 2.0) * L_minus4(s / 2.0) / zeta(s)


def _shell_counts(k: int, nmax: int) -> list[int]:
    """r_k(n) = #{v in Z^k : ||v||^2 = n} for n = 0..nmax.

    Adds one coordinate at a time, the plain recursion over the first
    coordinate: r_k(n) = r_{k-1}(n) + 2 sum_{j >= 1} r_{k-1}(n - j^2),
    from r_0 = [1, 0, 0, ...].  O(k nmax^1.5) integer steps.  It shares no
    code with `enumeration._ball_count` (folded cones, and Jacobi's
    four-square theorem for Z^4), so it is the independent reference
    those ball counts are tested against.
    """
    squares = [j * j for j in range(1, math.isqrt(nmax) + 1)]
    shells = [1] + [0] * nmax
    for _ in range(k):
        shells = [r + 2 * sum(shells[n - s] for s in squares if s <= n)
                  for n, r in enumerate(shells)]
    return shells


def _height_one_dominates(m: int, s: float) -> bool:
    """Whether the points of height > 1 provably add less than half an ulp
    of m + 1 to Z_{P^m}(s), so that the sum rounds to its m + 1 points of
    height 1.

    With k = m + 1, the heights in [sqrt 2, 2] belong to at most
    N(P^m, 2) <= kappa(2) 2^k points (`_log_kappa` at X = 2), each adding at
    most 2^(-s/2); the heights above 2 add at most
    kappa(2) s / (s - k) 2^(k - s), the tail bound of `zetaP_numeric` at
    X = 2.  For k >= 4, kappa(2) is V_k (1 + sqrt(k)/4)^k / 2, half the
    bound on all nonzero vectors; for k = 2 and 3 the multiples of 2 lower
    it.  The test runs in logarithms, so it holds up to the largest
    double s.
    """
    k = m + 1
    log_tail = (_log_kappa(k, 2.0) + (k - s / 2) * math.log(2.0)
                + math.log1p(s / (s - k) * 2.0 ** (-s / 2)))
    return log_tail < math.log(math.ulp(m + 1.0) / 2)


# the theta route's sums stop at ||v||^2 = 40: the dropped terms decay
# like e^{-pi n} and sum below 1e-50
_THETA_NMAX = 40


def _gamma_cf(a: float, z: float) -> float:
    """h(a, z) = z^{-a} e^z Gamma(a, z) for z > 0 and z > a - 1, by
    Legendre's continued fraction

      h = 1/(z + 1 - a - 1 (1 - a)/(z + 3 - a - 2 (2 - a)/(z + 5 - a - ...))),

    evaluated front to back by the modified Lentz method."""
    tiny = 1e-300
    b = z + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            return h
    raise ArithmeticError(
        f"continued fraction of Gamma({a}, {z}) did not converge")


def _gamma_q(a: float, z: float) -> float:
    """Q(a, z) = Gamma(a, z) / Gamma(a) for a, z > 0: one minus the power
    series of the lower function below z = a + 1, the continued fraction
    `_gamma_cf` above it."""
    log_front = a * math.log(z) - z - math.lgamma(a)
    if z >= a + 1.0:
        return math.exp(log_front) * _gamma_cf(a, z)
    # P(a, z) = e^{-z} z^a / Gamma(a) sum_{n >= 0} z^n / (a (a+1) ... (a+n))
    term = total = 1.0 / a
    n = 0
    while term > total * 2.0 ** -53:
        n += 1
        term *= z / (a + n)
        total += term
    return 1.0 - math.exp(log_front) * total


def _epstein(k: int, w: float) -> float:
    """E_k(w) = sum over nonzero v in Z^k of (||v||^2)^{-w}, w > k/2.

    Poisson summation of the theta function of Z^k gives the rapidly
    convergent representation

      Gamma(w) pi^{-w} E_k(w) = 1/(w - k/2) - 1/w
          + sum_{n>=1} r_k(n) [ G(w, pi n) + G(k/2 - w, pi n) ],

    with G(a, z) = z^{-a} Gamma(a, z) and r_k(n) from `_shell_counts`.
    In doubles it is read as

      E_k(w) = (pi^w / Gamma(w)) [1/(w - k/2) - 1/w
                                  + sum r_k(n) e^{-pi n} h(k/2 - w, pi n)]
               + sum r_k(n) n^{-w} Q(w, pi n),

    every term positive, so the sum keeps the relative precision of its
    terms."""
    half_k = k / 2.0
    poisson = half_k / (w * (w - half_k))  # 1/(w - k/2) - 1/w
    direct = 0.0
    for n, r in enumerate(_shell_counts(k, _THETA_NMAX)):
        if n and r:
            z = math.pi * n
            poisson += r * math.exp(-z) * _gamma_cf(half_k - w, z)
            direct += r * n ** -w * _gamma_q(w, z)
    return math.exp(w * math.log(math.pi) - math.lgamma(w)) * poisson + direct


def zetaP_theta(m: int, s: float) -> float:
    """Z_{P^m}(s) through the theta/incomplete-gamma form of the Epstein zeta.

    Z_{P^m}(s) = E_{m+1}(s/2) / E_1(s/2): dividing the Epstein zeta of
    Z^{m+1} (`_epstein`) by 2 zeta(s) = E_1(s/2) restricts to primitive
    vectors and identifies +-v.  Both factors come from the same theta
    sum, so the route needs no zeta of its own and shares no code with the
    Euler-Maclaurin zeta behind `zetaP1_closed`.  It agrees with a 30-digit
    evaluation of the same sums to 1e-13 relative (tests).  Where the
    points of height > 1 cannot move the double m + 1, that is the value.
    """
    if m == -1:
        return 0.0
    if m == 0:
        return 1.0
    if s <= m + 1:
        raise DomainError(f"Z_(P^{m}) diverges for s <= {m + 1}")
    if _height_one_dominates(m, s):
        return float(m + 1)
    return _epstein(m + 1, s / 2.0) / _epstein(1, s / 2.0)


def zetaP_best(m: int, s: float) -> float:
    """Best available evaluator over Q: conventions, closed form, or theta."""
    if m <= 0:
        return zetaP_numeric(m, s)
    if m == 1:
        return zetaP1_closed(s)
    return zetaP_theta(m, s)


# ---------------------------------------------------------------------------
# asymptotic predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticPrediction:
    """N(region, B) ~ constant * B^{a_l} (log B)^{log_exponent}."""

    a_l: Fraction
    log_exponent: int
    constant: float
    case: Optional[CaseTag]
    source: SourceFormula
    region: Region


_POLE_GAP = 1e-3  # refuse to evaluate a xi/Z factor this close to its pole


def _leading_constant(inv: FieldInvariants, n: int, k: float, denom: int,
                      xi_num=(), xi_den=(), z: float = 1.0) -> float:
    """(R h)^n |disc|^(-k/2) z prod xi_K(xi_num) / (w^n denom prod xi_K(xi_den)),
    formed as one exponential of its sum of logarithms.  fsum rounds the
    sum once, so the large xi logarithms cancel with no further loss."""
    log_c = math.fsum([n * math.log(inv.regulator * inv.class_number / inv.w),
                       -k / 2.0 * math.log(inv.abs_disc), -math.log(denom),
                       math.log(z)]
                      + [log_xi_K(s, inv) for s in xi_num]
                      + [-log_xi_K(s, inv) for s in xi_den])
    return _exp_normal(log_c, "the leading constant")


def schanuel_constant(n: int, inv: FieldInvariants = QQ) -> AsymptoticPrediction:
    """N(P^n, B) ~ C B^{n+1} with C = R h / ((n+1) w |disc|^{(n+1)/2} xi_K(n+1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    c = _leading_constant(inv, 1, n + 1, n + 1, xi_den=(n + 1,))
    return AsymptoticPrediction(a_l=Fraction(n + 1), log_exponent=0,
                                constant=c, case=None,
                                source=SourceFormula.SCHANUEL,
                                region=Region.WHOLE)


def _zp(zeta_proj: Optional[Callable[[int, float], float]],
        inv: FieldInvariants, m: int, s: float) -> float:
    if m <= 0:
        return float(m + 1) if m in (-1, 0) else 0.0
    if zeta_proj is not None:
        return zeta_proj(m, s)
    if inv.zeta_k is not None:
        raise DomainError(
            "projective height zeta values over a general field must be "
            "supplied via zeta_proj")
    return zetaP_best(m, s)


def predict(X: HKVariety, L: LineBundleClass, inv: FieldInvariants = QQ,
            zeta_proj: Optional[Callable[[int, float], float]] = None,
            ) -> AsymptoticPrediction:
    """Leading constant of the bounded-height count for a big class L.

    For a_r > 0 the prediction is for the good open subset U; for a_r = 0
    (the trivial fibration P^{t-1} x P^r) it is for the whole space.
    Dispatches on which exponent dominates:

      Equal:            C = R^2 h^2 |disc|^{-(d+2)/2}
                            / (w^2 (r+1) mu xi(r+1) xi(t))
      LambdaDominates:  C = R h |disc|^{-(r+1)/2} / (w (r+1) xi(r+1))
                            * Z_{P^{t-1}}(mu lam_l + |a| - (r+1) a_r)
      MuDominates, a_r > 0:
                        C = R h |disc|^{-(t - N_X + r + 1)/2} xi(arg)
                            * (Z_{P^{N_X-1}}(arg) - Z_{P^{N_X-2}}(arg))
                            / (w ((r+1) a_r + t - |a|) xi(lam mu_l) xi(t)),
                        arg = lam mu_l + N_X - (r+1)
      MuDominates, a_r = 0:
                        C = R h |disc|^{-t/2} / (w t xi(t)) * Z_{P^r}(lam mu_l)
    """
    exp = exponents(X, L)  # raises NotBigError when L is not big
    r, t = X.r, X.t
    lam, mu = L.lam, L.mu
    ar, abs_a, n_x = X.a[-1], X.abs_a, X.n_x
    product_case = ar == 0
    region = Region.WHOLE if product_case else Region.GOOD_OPEN
    if L == anticanonical(X):
        source = SourceFormula.ANTICANONICAL
    else:
        source = SourceFormula.PRODUCT if product_case else SourceFormula.GENERAL

    if exp.case is CaseTag.EQUAL:
        c = _leading_constant(inv, 2, X.d + 2, (r + 1) * mu,
                              xi_den=(r + 1, t))
    elif exp.case is CaseTag.LAMBDA_DOMINATES:
        arg = mu * exp.lambda_l + abs_a - (r + 1) * ar
        assert arg > t, "convergence-domain guard: Z argument must exceed t"
        c = _leading_constant(inv, 1, r + 1, r + 1, xi_den=(r + 1,),
                              z=_zp(zeta_proj, inv, t - 1, float(arg)))
    else:  # MuDominates
        arg = lam * exp.mu_l + n_x - (r + 1)
        if product_case:
            zarg = lam * exp.mu_l
            if zarg - (r + 1) < _POLE_GAP:
                raise TooCloseToPoleError(
                    f"Z_(P^{r}) argument {zarg} too close to its pole {r + 1}")
            c = _leading_constant(inv, 1, t, t, xi_den=(t,),
                                  z=_zp(zeta_proj, inv, r, float(zarg)))
        else:
            if arg - 1 < _POLE_GAP or (n_x >= 2 and arg - n_x < _POLE_GAP):
                raise TooCloseToPoleError(
                    f"xi/Z argument {arg} too close to a pole")
            zdiff = (_zp(zeta_proj, inv, n_x - 1, float(arg))
                     - _zp(zeta_proj, inv, n_x - 2, float(arg)))
            c = _leading_constant(inv, 1, t - n_x + r + 1,
                                  (r + 1) * ar + t - abs_a,
                                  xi_num=(float(arg),),
                                  xi_den=(float(lam * exp.mu_l), t), z=zdiff)
    return AsymptoticPrediction(a_l=exp.a_l, log_exponent=exp.log_exponent,
                                constant=c, case=exp.case, source=source,
                                region=region)


def _space_prediction(space, bundle, inv: FieldInvariants) -> AsymptoticPrediction:
    """`predict` on an HK space; Schanuel's constant on a twisted P^n."""
    if isinstance(space, HKVariety):
        return predict(space, bundle, inv)
    # N(P^n, H_{O(k)} <= B) = N(P^n, B^{1/k}) ~ C B^{(n+1)/k}
    return replace(schanuel_constant(space.n, inv),
                   a_l=Fraction(space.n + 1, int(bundle)))


@dataclass(frozen=True)
class StratumPrediction:
    stratum: Stratum
    prediction: Optional[AsymptoticPrediction]
    note: str  # "", or "infinite" when the stratum is not big


def _stratum_prediction(st: Stratum, inv: FieldInvariants) -> StratumPrediction:
    if not st.big:
        return StratumPrediction(st, None, "infinite")
    pred = _space_prediction(st.space, st.bundle, inv)
    if st.open_part and st.space.a[-1] == 0:
        # good open subset of a product stratum P^{t-1} x P^r: U = X minus
        # F, where F is big and grows no faster than X
        f_pred = _space_prediction(*restrict_to_F(st.space, st.bundle), inv)
        key, key_f = ((p.a_l, p.log_exponent) for p in (pred, f_pred))
        assert key_f <= key, "subbundle outgrows its product stratum"
        if key_f == key:
            c = pred.constant - f_pred.constant
            assert c > 0, "subbundle constant exceeds whole-space constant"
            pred = replace(pred, constant=c, region=Region.GOOD_OPEN)
    return StratumPrediction(st, pred, "")


def stratum_predictions(X: HKVariety, L: Optional[LineBundleClass] = None,
                        inv: FieldInvariants = QQ) -> list[StratumPrediction]:
    """Per-stratum growth predictions along the stratification chain.

    Good-open strata of twisted pieces use the fibration formulas; a
    good-open stratum of a product P^{t-1} x P^r (all remaining twists
    zero) is predicted as the whole product when it outgrows the
    subbundle, and as whole minus subbundle when the two growth orders
    tie.  Non-big strata get "infinite".
    """
    if L is None:
        L = anticanonical(X)
    return [_stratum_prediction(st, inv) for st in decompose(X, L)]


def region_prediction(X: HKVariety, L: LineBundleClass, region: Region,
                      inv: FieldInvariants = QQ
                      ) -> Optional[AsymptoticPrediction]:
    """Leading term of the count on `region`, from the stratum chain.

    U is the chain's first stratum, F the union of the later ones and the
    whole space the union of all of them.  A union grows like its dominant
    strata, those with the largest (a, log exponent), whose constants add.
    None when a stratum of the region is infinite.
    """
    preds = []
    for st in region_strata(X, L, region):
        pred = _stratum_prediction(st, inv).prediction
        if pred is None:
            return None
        preds.append(pred)
    top = max((p.a_l, p.log_exponent) for p in preds)
    lead = [p for p in preds if (p.a_l, p.log_exponent) == top]
    return replace(lead[0], constant=sum(p.constant for p in lead),
                   region=region)


def hirzebruch_table(inv: FieldInvariants = QQ) -> list[dict]:
    """Constants for the twist-1 surface X_2(1), (lam, mu) in {1,2,3}^2."""
    X = HKVariety(1, 2, (1,))
    rows = []
    for lam in (1, 2, 3):
        for mu in (1, 2, 3):
            L = LineBundleClass(lam, mu)
            pred = predict(X, L, inv)
            rows.append({
                "lam": lam, "mu": mu,
                "case": pred.case.value,
                "a_l": pred.a_l,
                "log_exponent": pred.log_exponent,
                "C": pred.constant,
            })
    return rows


def threefold_intro(inv: FieldInvariants = QQ) -> dict:
    """The three constants of the chain of the threefold X_3(0,1) at -K.

    C: good open subset of X_3(0,1); C': good open subset of the middle
    stratum (a trivial fibration, predicted as whole-minus-subbundle);
    C'': the terminal projective line.
    """
    X = HKVariety(2, 2, (0, 1))
    preds = stratum_predictions(X, anticanonical(X), inv)
    assert len(preds) == 3 and all(p.prediction is not None for p in preds)
    return {
        "C": preds[0].prediction.constant,
        "Cprime": preds[1].prediction.constant,
        "Csecond": preds[2].prediction.constant,
        "strata": preds,
    }


def threefold_cases() -> list[dict]:
    """Bigness/comparison verdicts for X_3(a1,a2) at -K over parameter regions.

    Each row takes a representative (a1, a2), reads the big flags of the
    two later strata of -K's chain (L' on the middle stratum, the twist on
    the terminal P^1) and reports how the finite growth orders compare.
    """
    regions = [
        ("(a1,a2)=(0,0)", (0, 0)),
        ("(a1,a2)=(0,1)", (0, 1)),
        ("1<=a1<a2<2a1+2", (1, 2)),
        ("1<=a1=a2", (1, 1)),
        ("2a1+2<=a2", (0, 2)),
    ]
    rows = []
    for label, (a1, a2) in regions:
        X = HKVariety(2, 2, (a1, a2))
        preds = stratum_predictions(X, anticanonical(X))
        growths = [(name, sp.note if sp.prediction is None else
                    f"B^{sp.prediction.a_l}" + " log B" * sp.prediction.log_exponent)
                   for name, sp in zip(("U", "U'", "F'"), preds)]
        rows.append({"case": label, "rep": (a1, a2),
                     "L_big": preds[1].stratum.big,
                     "M_big": preds[2].stratum.big, "growth": growths})
    return rows
