"""Independent exact counts for checking hkcount's output.

Nothing here calls hkcount's counting code.  Two routes are provided:

* `brute_points` walks a box that provably contains every point of
  height <= B and decides each candidate with `hkcount.heights.height_le`,
  the exact integer height test.  It is used for small bounds.
* `ref_count` counts the same set without listing it: it walks the base
  and every fiber coordinate but the last, and counts the last coordinate
  by inclusion-exclusion over the primes of the running gcd.  It is used
  where the box is too large, and is itself checked against
  `brute_points` by `make_pins.py`.

Integer roots are seeded from the bit length, so no float enters a count.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt

REGIONS = {"u": "u", "f": "f", "x": "x", "whole": "x"}


def iroot_floor(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton steps."""
    if n < 0 or k < 1:
        raise ValueError("iroot_floor needs n >= 0 and k >= 1")
    if n < 2 or k == 1:
        return n
    x = 1 << (n.bit_length() + k - 1) // k  # >= the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def squared(B) -> tuple[int, int]:
    b2 = Fraction(B) ** 2
    return b2.numerator, b2.denominator


def canonical_primitive(dim: int, n2max: int):
    """(vector, norm^2) for primitive vectors of Z^dim with norm^2 <= n2max
    whose first nonzero coordinate is positive."""
    def rec(prefix, rem, g, lead):
        i = len(prefix)
        top = isqrt(rem)
        for y in range(0 if lead else -top, top + 1):
            if i == dim - 1:
                if gcd(g, y) == 1:
                    v = prefix + (y,)
                    yield v, n2max - rem + y * y
            else:
                yield from rec(prefix + (y,), rem - y * y, gcd(g, y),
                               lead and y == 0)
    if n2max >= 1:
        yield from rec((), n2max, 0, True)


def ball(dim: int, n: int) -> int:
    """#{v in Z^dim : |v|^2 <= n}, origin included."""
    if n < 0:
        return 0
    if dim == 1:
        return 2 * isqrt(n) + 1
    total = ball(dim - 1, n)
    x = 1
    while x * x <= n:
        total += 2 * ball(dim - 1, n - x * x)
        x += 1
    return total


def mobius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    for p in range(2, n + 1):
        if all(p % d for d in range(2, isqrt(p) + 1)):
            for k in range(p, n + 1, p):
                mu[k] = -mu[k]
            for k in range(p * p, n + 1, p * p):
                mu[k] = 0
    return mu


def squarefree_count(n: int) -> int:
    """#{1 <= d <= n : d squarefree} = sum_k mu(k) floor(n / k^2)."""
    if n < 1:
        return 0
    mu = mobius_upto(isqrt(n))
    return sum(mu[k] * (n // (k * k)) for k in range(1, isqrt(n) + 1))


def primitive_count(dim: int, n2max: int) -> int:
    """Number of canonical primitive vectors of Z^dim with norm^2 <= n2max."""
    if n2max < 1:
        return 0
    mu = mobius_upto(isqrt(n2max))
    total = sum(mu[d] * (ball(dim, n2max // (d * d)) - 1)
                for d in range(1, isqrt(n2max) + 1) if mu[d])
    return total // 2


# ---------------------------------------------------------------------------
# the variety X = (r, t, a) with bundle lam*h + mu*f
# ---------------------------------------------------------------------------

def fiber_coefficients(a: tuple[int, ...], m: int) -> list[int]:
    """c_i = m^(a_r - b_i), with b_0 = 0 and b_i = a_r - a_{i-1} (a_0 = 0)."""
    ar = a[-1]
    return [m ** ar] + [m ** x for x in (0,) + tuple(a[:-1])]


def is_finite(a, lam: int, mu: int, region: str) -> bool:
    """Whether only finitely many points have height <= B (for B >= 1).

    Over a base point of norm m the smallest height in the stratum whose
    first nonzero fiber coordinate is y_j is m^((mu - lam b_j)/2); b_0 = 0
    for U and b_1 = a_r is the largest b on F.
    """
    if lam <= 0:
        return False
    if region in ("u", "x") and mu <= 0:
        return False
    if region in ("f", "x") and mu - lam * a[-1] <= 0:
        return False
    return True


def base_cap(a, lam: int, mu: int, B, region: str) -> int:
    p, q = squared(B)
    caps = []
    if region in ("u", "x"):
        caps.append(iroot_floor(p // q, mu))
    if region in ("f", "x"):
        caps.append(iroot_floor(p // q, mu - lam * a[-1]))
    return max(caps)


def fiber_cap(a, lam: int, mu: int, B, m: int) -> int:
    """Largest S = sum c_i y_i^2 allowed over a base point of norm m:
    S^lam * q * m^mu <= p * m^(lam a_r)."""
    p, q = squared(B)
    return iroot_floor((p * m ** (lam * a[-1])) // (q * m ** mu), lam)


def _boxes(t: int, a, lam: int, mu: int, B, region: str, budget: int):
    """Per base point, the coordinate ranges of a box holding every fiber
    point of height <= B; None when the boxes hold more than `budget`."""
    boxes = []
    size = 0
    for qv, m in canonical_primitive(t, base_cap(a, lam, mu, B, region)):
        s = fiber_cap(a, lam, mu, B, m)
        tops = [isqrt(s // c) for c in fiber_coefficients(a, m)]
        ranges = [range(-y, y + 1) for y in tops]
        if region == "u":
            ranges[0] = range(1, tops[0] + 1)
        elif region == "f":
            ranges[0] = range(0, 1)
        n = 1
        for rg in ranges:
            n *= max(0, rg.stop - rg.start)
        size += n
        if size > budget:
            return None
        boxes.append((qv, ranges))
    return boxes


def box_fits(t: int, a, lam: int, mu: int, B, region: str, budget: int) -> bool:
    return _boxes(t, tuple(a), lam, mu, B, region, budget) is not None


def brute_points(r: int, t: int, a, lam: int, mu: int, B, region: str,
                 budget: int):
    """Every point of height <= B in the region, as (base, fiber) tuples,
    or None when the candidate box exceeds `budget`."""
    from hkcount.geometry import HKVariety, LineBundleClass
    from hkcount.heights import HKRationalPoint, ProjectivePoint, height_le

    a = tuple(a)
    boxes = _boxes(t, a, lam, mu, B, region, budget)
    if boxes is None:
        return None
    X, L = HKVariety(r, t, a), LineBundleClass(lam, mu)
    points = []
    for qv, ranges in boxes:
        base = ProjectivePoint(qv)
        for y in product(*ranges):
            first = next((v for v in y if v), 0)
            if first <= 0:
                continue
            g = 0
            for v in y:
                g = gcd(g, v)
            if g != 1:
                continue
            pt = HKRationalPoint(base, ProjectivePoint(y))
            if height_le(X, L, pt, B):
                points.append((qv, y))
    return points


def good_open_parts(r: int, t: int, a, lam: int, mu: int, region: str):
    """The good-open counts (r, t, a, lam, mu) a count of `region` runs
    before it finishes or meets a stratum that is not big: U of X first
    (regions u, x), then down the chain of subbundles (regions f, x)."""
    a = tuple(a)
    parts = []
    if region in ("u", "x"):
        if lam <= 0 or mu <= 0:
            return parts
        parts.append((r, t, a, lam, mu))
    if region in ("f", "x"):
        while r >= 2:
            mu -= lam * (a[-1] - a[-2])
            r, a = r - 1, a[:-1]
            if lam <= 0 or mu <= 0:
                break
            parts.append((r, t, a, lam, mu))
    return parts


def point_height_sq(a, lam: int, mu: int, qv, y) -> Fraction:
    """Exact H_L^2 of the point (qv; y), for sweeps over several bounds."""
    m = sum(v * v for v in qv)
    s = sum(v * v * c for v, c in zip(y, fiber_coefficients(tuple(a), m)))
    return Fraction(s) ** lam * Fraction(m) ** (mu - lam * a[-1])


def format_point(qv, y) -> str:
    return "[" + ":".join(map(str, qv)) + "];[" + ":".join(map(str, y)) + "]"


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _coprime_upto(g: int, z: int) -> int:
    """#{1 <= y <= z : gcd(y, g) = 1}."""
    total = 0
    primes = _prime_factors(g)
    for mask in range(1 << len(primes)):
        d, sign = 1, 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
                sign = -sign
        total += sign * (z // d)
    return total


def _last_coordinate(g: int, z: int, lead: bool) -> int:
    """Values y with |y| <= z completing a primitive canonical vector whose
    earlier coordinates have gcd g (all zero when `lead`)."""
    if lead:
        return 1 if z >= 1 else 0
    if g == 1:
        return 2 * z + 1
    return 2 * _coprime_upto(g, z)


def _fiber_count(cs: list[int], s: int, g: int, lead: bool) -> int:
    """Canonical primitive completions (y_i, ..., y_r) with sum c y^2 <= s."""
    c = cs[0]
    if len(cs) == 1:
        return _last_coordinate(g, isqrt(s // c), lead)
    total = _fiber_count(cs[1:], s, g, lead)
    for y in range(1, isqrt(s // c) + 1):
        sub = _fiber_count(cs[1:], s - c * y * y, gcd(g, y), False)
        total += sub if lead else 2 * sub
    return total


def ref_count(r: int, t: int, a, lam: int, mu: int, B, region: str) -> int:
    """Exact N(region, B), or raises ValueError when the count is infinite."""
    a = tuple(a)
    if len(a) != r:
        raise ValueError("twist tuple does not match r")
    if not is_finite(a, lam, mu, region):
        raise ValueError("infinite count")
    total = 0
    for _, m in canonical_primitive(t, base_cap(a, lam, mu, B, region)):
        s = fiber_cap(a, lam, mu, B, m)
        cs = fiber_coefficients(a, m)
        if region in ("u", "x"):
            for y0 in range(1, isqrt(s // cs[0]) + 1):
                total += _fiber_count(cs[1:], s - cs[0] * y0 * y0, y0, False)
        if region in ("f", "x"):
            total += _fiber_count(cs[1:], s, 0, True)
    return total
