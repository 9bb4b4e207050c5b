"""Numeric laboratory for the lattice theta-sum identities over the rationals.

For a rank-1 lattice (Z, scale e^{-x}) the effective-section count is the
theta sum h0(x) = log sum_{n in Z} exp(-pi n^2 e^{-2x}).  This module
verifies, to stated tolerances and by independent code paths:

  * the additivity identity h0(x) - h0(-x) = x (Poisson summation /
    functional equation of the theta function);
  * the direct-sum identity phi(E + F) = phi(E) + phi(F) + phi(E) phi(F)
    and its elementary-symmetric-polynomial expansion;
  * the integral representation of the completed zeta,
      2 xi(s) = I(-s) + I(s-1) + 1/(s-1) - 1/s,
    with I(c) = integral over x <= 0 of e^{c x} phi(x) dx;
  * the rank-(n+1) generalization tying the same integrals to the height
    zeta function of P^n;
  * the simple pole of Z_{P^1} at s = 2 with residue 6/pi (Richardson
    extrapolation);
  * the double-exponential decay bound phi(x) <= beta e^{-pi e^{-2x}}
    for x <= 0.

Quadratures are a tanh-sinh (double-exponential) rule in doubles on
[-X0, 0], split at the integrand's interior peaks; the truncated tails over
(-inf, -X0] are bounded through the decay bound above by incomplete gamma
functions, in log space, and added as certified (numerically negligible)
terms.  Nothing here loads a numerical library.
"""
from __future__ import annotations

import math

from .constants import (
    TooCloseToPoleError,
    xi_K,
    zetaP1_closed,
    zetaP_numeric,
    zetaP_theta,
)


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature could not certify the requested tolerance."""


# Direct summation is used for |x| <= this threshold so that the identity
# h0(x) - h0(-x) = x is a genuine two-sided check there; beyond it the
# functional equation is applied to avoid summing ~e^x near-unit terms.
_DIRECT_LIMIT = 6.0

# theta tail: 2 sum_{n > n0} e^{-pi n^2 t} <= 3 e^{-pi n0^2 t} once
# pi n0^2 t >= 1; choosing pi n0^2 t >= 45 pushes it below 1e-19.
_TAIL_EXPONENT = 45.0


def _theta_excess(t: float) -> float:
    """2 sum_{n >= 1} exp(-pi n^2 t) for t > 0 (that is, theta(t) - 1)."""
    n0 = math.isqrt(int(_TAIL_EXPONENT / (math.pi * t))) + 1
    return 2.0 * sum(math.exp(-math.pi * n * n * t) for n in range(n0, 0, -1))


def h0(x: float) -> float:
    """h0(x) = log sum_{n in Z} exp(-pi n^2 e^{-2x}).

    Direct truncated summation for |x| <= 6 (error below 1e-19 by the
    Gaussian tail bound); for larger |x| the theta functional equation
    theta(1/t) = sqrt(t) theta(t) gives h0(x) = x + h0(-x).
    """
    if x > _DIRECT_LIMIT:
        return x + h0(-x)
    return math.log1p(_theta_excess(math.exp(-2.0 * x)))


def phi(x: float) -> float:
    """phi(x) = e^{h0(x)} - 1, the weighted count of nonzero sections.

    For x <= 0 this is the positive theta excess itself (no cancellation);
    for x > 0 the functional equation form e^x (1 + phi(-x)) - 1 is exact
    and avoids summing thousands of near-unit Gaussian terms.
    """
    if x > 0:
        return math.exp(x) * (1.0 + phi(-x)) - 1.0
    return _theta_excess(math.exp(-2.0 * x))


def phi_oplus_check(scales: tuple[float, ...], x: float) -> tuple[float, float]:
    """(phi of the direct sum +_i (Z, c_i e^{-x}) of rank-1 lattices with
    scales c_i, relative gap of its two forms).

    The scales must be a nonempty tuple of reals c_i > 0 (ValueError
    otherwise).  The forms are the telescoped product
    prod_i (1 + phi_i) - 1, which is the value, and the expansion into
    elementary symmetric polynomials of the phi_i; the gap is
    |product - symmetric| / max(1, |product|).
    """
    if not scales or not all(c > 0 for c in scales):
        raise ValueError("scales must be a nonempty tuple of positive reals")
    phis = [phi(x - math.log(c)) for c in scales]
    product = 1.0
    for p in phis:
        product *= 1.0 + p
    product -= 1.0
    # elementary symmetric polynomials via the generating polynomial
    coeffs = [1.0]
    for p in phis:
        coeffs = [c + p * (coeffs[i - 1] if i else 0.0)
                  for i, c in enumerate(coeffs)] + [p * coeffs[-1]]
    symmetric = sum(coeffs[1:])
    return product, abs(product - symmetric) / max(1.0, abs(product))


def phi_oplus(scales: tuple[float, ...], x: float) -> float:
    """phi of the direct sum +_i (Z, c_i e^{-x}); raises ArithmeticError
    unless its two forms (`phi_oplus_check`) agree to 1e-12 (relative)."""
    value, gap = phi_oplus_check(scales, x)
    if gap > 1e-12:
        raise ArithmeticError(f"direct-sum identity violated: relative gap {gap:.3e}")
    return value


_X0 = 3.0  # quadrature cutoff; phi decays like e^{-pi e^{-2x}} beyond it
_GS_BETA = 2.001  # certified constant in phi(x) <= beta e^{-pi e^{-2x}}, x <= 0


def _certified_tail(c: float, rank: int = 1) -> float:
    """Bound on integral over x <= -X0 of e^{c x} ((1+phi)^rank - 1) dx.

    Using (1+phi)^rank - 1 <= rank (1+phi(-X0))^{rank-1} phi and
    phi <= beta e^{-pi e^{-2x}}, the substitution u = e^{-2x} turns the
    c = -s branch into an incomplete gamma; for any c the integrand is
    dominated by the c = -|c| case on x <= -X0 < 0 up to e^{(c+|c|)(-X0)},
    so a single gamma bound covers both exponents:

        (1/2) pi^{-alpha} Gamma(alpha, z),  alpha = |c|/2,  z = pi e^{2 X0}.

    Gamma(alpha, z) is bounded in log space: by z^{alpha-1} e^{-z} for
    alpha <= 1 (t^{alpha-1} <= z^{alpha-1} on t >= z), by
    z^{alpha-1} e^{-z} z / (z - alpha + 1) for alpha > 1 and z > alpha - 1
    (t^{alpha-1} <= z^{alpha-1} e^{(alpha-1)(t-z)/z}), and by Gamma(alpha)
    otherwise.  Each bound exceeds Gamma(alpha, z) by far more than the
    rounding of its logarithm wherever the result does not underflow.
    """
    front = rank * _GS_BETA * (1.0 + phi(-_X0)) ** (rank - 1)
    alpha = abs(c) / 2.0
    z = math.pi * math.exp(2.0 * _X0)
    if alpha <= 1.0:
        log_gamma = (alpha - 1.0) * math.log(z) - z
    elif z > alpha - 1.0:
        log_gamma = alpha * math.log(z) - z - math.log(z - alpha + 1.0)
    else:
        log_gamma = math.lgamma(alpha)
    return math.exp(math.log(0.5 * front) - alpha * math.log(math.pi)
                    + log_gamma)


# tanh-sinh nodes t = k 2^-level with |t| <= _TS_T_MAX, where the weights
# have fallen below 1e-20; the step halves until two levels agree to
# _TS_RTOL, or up to level _TS_LEVELS
_TS_T_MAX = 3.5
_TS_LEVELS = 8
_TS_RTOL = 2.0 ** -50


def _ts_nodes(level: int):
    """The nodes new at `level` of the tanh-sinh rule on [-1, 1], t > 0, as
    (1 - |x|, weight) with x = tanh(u), u = (pi/2) sinh t.

    1 - tanh u is taken as 2 e^{-2u} / (1 + e^{-2u}), so a node's distance
    to its endpoint keeps full relative precision where x rounds to +-1;
    the weight (pi/2) cosh t / cosh^2 u is
    2 pi cosh t e^{-2u} / (1 + e^{-2u})^2.
    """
    h = 2.0 ** -level
    for k in range(1, int(_TS_T_MAX / h) + 1, 1 if level == 0 else 2):
        t = k * h
        q = math.exp(-math.pi * math.sinh(t))
        yield (2.0 * q / (1.0 + q),
               2.0 * math.pi * math.cosh(t) * q / (1.0 + q) ** 2)


def quad(f, points) -> tuple[float, float]:
    """Tanh-sinh quadrature of f over [points[0], points[-1]], one rule per
    interval between consecutive points.  f takes and returns floats.

    Each rule halves its step and adds only the new nodes to the sum of the
    earlier levels.  Returns (value, error estimate), both floats; the
    estimate is the difference between the last two levels, summed over
    the intervals."""
    val = err = 0.0
    for a, b in zip(points, points[1:]):
        half = 0.5 * (b - a)
        level_sum = 0.0
        for level in range(_TS_LEVELS + 1):
            terms = [0.5 * math.pi * f(a + half)] if level == 0 else []
            terms += [w * (f(a + half * d) + f(b - half * d))
                      for d, w in _ts_nodes(level)]
            prev, level_sum = level_sum, (0.5 * level_sum
                                          + 2.0 ** -level * math.fsum(terms))
            if level and abs(level_sum - prev) <= _TS_RTOL * abs(level_sum):
                break
        val += half * level_sum
        err += abs(half * (level_sum - prev))
    return val, err


def _quad_limit(val: float, quad_tol: float) -> float:
    """The largest error estimate `_pic_integrals` accepts for a value."""
    return max(quad_tol, 1e-8 * abs(val))


def _pic_integrals(c1: float, c2: float, rank: int,
                   quad_tol: float) -> float:
    """integral over [-inf, 0] of (e^{c1 x} + e^{c2 x}) ((1+phi)^rank - 1) dx,
    as tanh-sinh quadrature on [-X0, 0] plus certified tails."""
    def integrand(x: float) -> float:
        # expm1/log1p keep (1+phi)^rank - 1 accurate where phi is far below
        # machine epsilon yet the e^{cx} factor is astronomically large
        g = math.expm1(rank * math.log1p(phi(x)))
        return (math.exp(c1 * x) + math.exp(c2 * x)) * g

    # e^{cx} phi(x) peaks at x = -log(-c / 2 pi)/2 for c < -2 pi; splitting
    # the interval there keeps large |c| accurate
    peaks = sorted({max(-_X0 + 1e-9, -0.5 * math.log(-c / (2.0 * math.pi)))
                    for c in (c1, c2) if c < -2.0 * math.pi})
    val, err = quad(integrand, [-_X0, *peaks, 0.0])
    if err > _quad_limit(val, quad_tol):
        raise QuadratureFailure(
            f"quadrature error estimate {err:.3e} exceeds tolerance")
    return val + _certified_tail(c1, rank) + _certified_tail(c2, rank)


def xi_integral(s: float, quad_tol: float = 1e-10) -> float:
    """2 xi(s) through its integral representation, s > 1:

        2 xi(s) = int_{-inf}^0 (e^{-s x} + e^{(s-1) x}) phi(x) dx
                  + 1/(s-1) - 1/s.

    Independent of the Euler product route in the constants module; the
    two must agree to quadrature accuracy.
    """
    if s <= 1:
        raise ValueError(f"xi_integral needs s > 1, got {s}")
    return _pic_integrals(-s, s - 1.0, 1, quad_tol) + 1.0 / (s - 1.0) - 1.0 / s


# the tail bound of the lhs zeta sum, and the quadrature tolerance, of the
# rank-(n+1) identity check
_IDENTITY_ZETA_TOL = 1e-6
_IDENTITY_QUAD_TOL = 1e-9


def prop5_identity_check(n: int, s: float, quad_tol: float = _IDENTITY_QUAD_TOL
                         ) -> tuple[float, float, float]:
    """Check the rank-(n+1) integral identity for the height zeta of P^n:

      lhs = 2 xi(s) Z_{P^n}(s)
      rhs = int_{-inf}^0 (e^{-s x} + e^{(s-n-1) x}) ((1+phi(x))^{n+1} - 1) dx
            + 1/(s-n-1) - 1/s.

    Returns (lhs, rhs, lhs - rhs).  The lhs zeta value comes from direct
    point summation when feasible within the work budget, otherwise from
    the theta-accelerated route -- always a code path disjoint from the
    quadrature on the rhs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s <= n + 1:
        raise ValueError(f"identity needs s > n + 1, got s = {s}")
    try:
        z = zetaP_numeric(n, s, tol=_IDENTITY_ZETA_TOL)
    except TooCloseToPoleError:
        z = zetaP_theta(n, s)
    lhs = 2.0 * xi_K(s) * z
    rhs = (_pic_integrals(-s, s - (n + 1.0), n + 1, quad_tol)
           + 1.0 / (s - (n + 1.0)) - 1.0 / s)
    return lhs, rhs, lhs - rhs


def prop5_identity_tolerance(n: int, s: float, rhs: float) -> float:
    """How far `prop5_identity_check(n, s)` may miss, given its rhs:
    2 xi(s) times the absolute tail bound of the lhs zeta sum, plus the
    quadrature's acceptance threshold on the rhs integral, plus 4 ulps of
    the rhs for the rounding of the two sums.  The theta route, taken next
    to the pole, is far closer than the tail bound."""
    integral = rhs - 1.0 / (s - (n + 1.0)) + 1.0 / s
    return (2.0 * xi_K(s) * _IDENTITY_ZETA_TOL
            + _quad_limit(integral, _IDENTITY_QUAD_TOL) + 4.0 * math.ulp(rhs))


def maruyama_residue_check() -> float:
    """Residue of Z_{P^1} at its simple pole s = 2, by extrapolation.

    Evaluates (s - 2) Z_{P^1}(s) at s = 2 + 10^{-k}, k = 1..6, and
    Richardson/Neville-extrapolates to s = 2.  The exact residue is
    6/pi (equivalently 1/(2 xi(2)), twice the projective-line leading
    constant 3/pi).
    """
    hs = [10.0 ** (-k) for k in range(1, 7)]
    vals = [h * zetaP1_closed(2.0 + h) for h in hs]
    # Neville tableau for the polynomial through (h_i, f(h_i)) at h = 0
    tab = list(vals)
    for level in range(1, len(hs)):
        for i in range(len(hs) - 1 - level, -1, -1):
            j = i + level
            tab[i] = (hs[j] * tab[i] - hs[i] * tab[i + 1]) / (hs[j] - hs[i])
    return tab[0]


def geer_schoof_bound_check(grid) -> tuple[bool, float]:
    """Verify phi(x) <= beta e^{-pi e^{-2x}} on a grid of x <= 0.

    Returns (all ratios bounded by the certified beta, observed sup of
    phi(x) e^{pi e^{-2x}}).  Points where phi underflows to 0 satisfy the
    bound trivially.  The sup is attained at x = 0 and is just above 2.
    """
    beta_obs = 0.0
    for x in grid:
        if x > 0:
            raise ValueError("grid must lie in (-inf, 0]")
        p = phi(x)
        if p == 0.0:
            continue
        # p > 0 representable forces pi e^{-2x} < ~745, so no overflow:
        ratio = math.exp(math.log(p) + math.pi * math.exp(-2.0 * x))
        beta_obs = max(beta_obs, ratio)
    return beta_obs <= _GS_BETA, beta_obs
