"""Exact enumeration and counting of rational points of bounded height.

Counting on the good open subset U factors through the base: the fiber
count over a base point Q depends only on Nq = H(Q)^2, so the driver
builds a histogram of base norms and evaluates each distinct norm once.

One walk, `_canonical_walk`, streams the canonical primitive vectors of
a diagonal form sum c_i y_i^2 <= S: with unit weights
(`_canonical_vectors`) the base points of P^(t-1), with the fiber
weights the fiber points of the `enum_hk_points` stream.

The histogram of a large base comes from the folded walk over canonical
primitive vectors (`_primitive_norm_blocks`); a small one comes from the
per-vector `_canonical_vectors` stream.  Norm^2 and gcd do not change
under signs and permutations of the coordinates, so the block walk
visits one representative per orbit, the nondecreasing vectors
0 <= u_1 <= ... <= u_dim, and weights each by the number of canonical
vectors in its orbit.  It runs depth-first over the leading coordinates
and expands each coordinate for a whole batch of prefixes at once with
numpy, so it yields int64 blocks of at most about _CHUNK
(norms^2, weights) and never holds every prefix.  Each representative
gets its own np.gcd test, and its weight is the closed-form size of its
orbit: the walk still enumerates the primitive vectors themselves, and
shares no code with the Mobius sieve over `_ball_count` it is checked
against, which counts every lattice point of a ball and never tests a
gcd.  zetaP_numeric sums w * norm^(-s/2) over the same blocks, and
count_enum_projective sums the weights.  The unfolded stream stays the
small-walk path and the reference the fold is tested against.  A count
takes the histogram as a pair (norms, mults) from `_norm_histogram`:
int64 arrays gathered from the blocks' np.add.at histogram reach the
fiber step without a dict, and a small walk gives the same pair as lists
of Python ints.  `projective_norm_histogram` is the dict of that pair,
for the oracles and the tests.

Counts on P^n, and so every F count, come from the Mobius sieve over
lattice balls (Schanuel 1979): twice N(P^n) is sum over d of
mu(d) (#{v in Z^{n+1} : |v|^2 <= n2max // d^2} - 1).  The ball count
`_ball_count` folds Z^2 at the diagonal and Z^3 onto the cone
0 <= x <= y <= z, so each is a sum of C-level isqrt calls over a
precomputed list of squares; higher dimensions recurse down to Z^3.  It
is integer-only and needs no numpy, so a P^n or F count does not load it.

Fiber vectors are counted by a recursive box walk on the integer
quadratic form sum c_i y_i^2 <= S_max (largest coefficient first), with
the innermost coordinate resolved by a Mobius/inclusion-exclusion
coprimality count instead of a per-point gcd.  For r = 1 the fibers of
all base norms are counted in one batched step (`_count_r1_batched`):
the parameters (c_0, S_max) are computed in int64 arrays (c_1 = 1), the
y_0 = 1 rows of all norms are counted in one vector pass (every y_1 is
coprime to 1), the rows y_0 >= 2 are flattened into blocks of _CHUNK
rows, and their coprime count of the last coordinate is read off a numpy
table of squarefree divisors; both passes add into one int64 fiber count
per norm, and the multiplicities weight those counts in one int64 dot
product where a bound proves it exact, in one Python-int sum otherwise.
The table (`_divisor_table`, int32 divisors with int8 signs) takes mu
from a vectorised integer sieve, `_mobius_array`: each prime
p <= sqrt(ymax) flips the sign of its multiples, zeroes the multiples of
p^2 and is divided out of a remainder, and a remainder above 1 is one
more prime.  The batched step takes only the norms for
which an int64 guard (`_r1_batch_band`) proves that every intermediate
value stays below 2^62 (a cap p // q // m^k with p // q >= 2^62 is divided
in Python ints and only its quotient enters int64); every other norm, and
every r >= 2 count, goes through the per-norm Python path with unbounded
integers.  All bound comparisons are integer-exact, integer roots included
(Newton from above, seeded for square roots from a table of isqrt over
16-bit integers and otherwise from a power of two); no floating point
enters any count.

numpy is imported inside the functions that use it, and the process
pool only on the pooled branch, so importing this module costs neither.
A count loads numpy only when an array step has enough work to repay
the import (about 0.1 s).  A walk bounded by fewer than _NUMPY_WALK_MIN
vectors takes the `_canonical_vectors` stream, and over such a base an
r = 1 band with fewer than _NUMPY_ROWS_MIN y_0 rows is counted per norm
in the calling process.  Both choices depend only on the input's size,
and both sides give the same counts.  Bigness is checked before either.

A count sums the strata of its region (`region_strata`), so every F
count runs on the restricted classes and exercises the restriction
lemmas; the `enum_hk_points` stream walks F directly, as a test oracle.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import gcd, isqrt, log
from operator import mul
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

from .geometry import HKVariety, LineBundleClass, ProjectiveSpace, Stratum, require_big
from .heights import HKRationalPoint, ProjectivePoint, Region, height_L_sq, region_strata


class DegenerateFitError(ValueError):
    """Not enough (or collinear) data for the requested fit."""


@dataclass(frozen=True)
class CountRequest:
    variety: Union[HKVariety, ProjectiveSpace]
    bundle: Union[LineBundleClass, int]
    bound: Fraction
    region: Region = Region.WHOLE
    threads: int = 1

    def __post_init__(self) -> None:
        if Fraction(self.bound) <= 0:
            raise ValueError("bound must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True)
class CountResult:
    count: int
    elapsed: float
    points_visited: int


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    log_coefficient: float
    coefficient: float  # the companion pure-power coefficient of the 2-param fit


def iroot(n: int, k: int) -> int:
    """Exact floor(n ** (1/k)) for n >= 0, k >= 1 (Newton on integers)."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    if k >= n.bit_length():
        return 1  # 2^k > n
    # 2^ceil(bits/k) is at or above the root; from above, integer Newton
    # decreases strictly until it reaches the floor of the root.
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _table_length(n: int) -> int:
    """n + 1, the length of a table indexed 0..n, if its 8-byte entries
    (list slots or int64) fit in sys.maxsize bytes.  A longer one raises
    MemoryError before any memory is touched; a shorter one may still be
    refused by the allocator, with a MemoryError of its own."""
    if 8 * (n + 1) > sys.maxsize:
        raise MemoryError(f"a table of {n + 1} entries cannot be allocated")
    return n + 1


def _squared_cap(B: Union[int, Fraction]) -> tuple[int, int]:
    """(p, q) with B^2 = p/q for an exact rational bound."""
    b2 = Fraction(B) ** 2
    return b2.numerator, b2.denominator


# ---------------------------------------------------------------------------
# int64 array kernels
# ---------------------------------------------------------------------------

# Elements per block of the primitive-vector walk, and rows per block of
# the batched fiber step.  Larger blocks save no time and raise peak
# memory: `verify --suite oracle` (the P^3 walk to norm^2 2500) peaked at
# 90.7 MB with 2^16 and 84.3 MB with 2^14 (84.5 MB with the per-vector
# Python walk), at the same speed.
_CHUNK = 1 << 14
_INT64_SAFE = 1 << 62  # every int64 intermediate stays below this


@lru_cache(maxsize=None)
def _root_tables() -> tuple[np.ndarray, np.ndarray]:
    """(2^0 .. 2^62, isqrt(0 .. 2^16 - 1)) as read-only int64 arrays, built
    on first use so that importing this module loads no numpy."""
    import numpy as np

    powers = np.left_shift(1, np.arange(63, dtype=np.int64))
    r = np.arange(1 << 8, dtype=np.int64)
    roots = np.repeat(r, 2 * r + 1)  # r repeats over r^2 .. (r + 1)^2 - 1
    powers.flags.writeable = roots.flags.writeable = False
    return powers, roots


def _iroot_array(n: np.ndarray, k: int) -> np.ndarray:
    """Elementwise floor(n ** (1/k)) of an int64 array with 0 <= n < 2^62.

    Integer Newton from a seed at or above the root, as in `iroot`; x^(k-1)
    is never formed (n is divided by x k-1 times), so nothing can
    overflow.  The bit length of n is one search over the powers of two.
    A square root starts from (isqrt(n >> 2s) + 1) << s, s = max(0,
    bits - 15) // 2, with isqrt of the top 15 or 16 bits of n read off a
    table: the seed is above sqrt(n), since n < ((n >> 2s) + 1) 4^s, and
    within about 2^-7 of it, so Newton takes about 3 rounds instead of 6.
    Other roots start from 2^ceil(bits/k).
    """
    import numpy as np

    powers, roots = _root_tables()
    n = np.asarray(n, dtype=np.int64)
    bits = np.searchsorted(powers, n, side="right")
    if k == 2:
        s = np.maximum(bits - 15, 0) // 2
        x = (roots[n >> 2 * s] + 1) << s
    else:
        x = np.left_shift(1, (bits + k - 1) // k)
    m = np.maximum(n, 1)
    while True:
        quot = m
        for _ in range(k - 1):
            quot = quot // x
        y = ((k - 1) * x + quot) // k
        down = y < x
        if not down.any():
            return np.where(n == 0, 0, x)
        x = np.where(down, y, x)


def _ragged_arange(lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) of the concatenated ranges lo[i] .. lo[i] + width[i] - 1."""
    import numpy as np

    row = np.repeat(np.arange(len(width)), width)
    first = np.cumsum(width) - width
    value = np.arange(row.size, dtype=np.int64) - np.repeat(first - lo, width)
    return row, value


def _blocks(width: np.ndarray) -> Iterator[tuple[int, int]]:
    """Slices [a, b) of consecutive rows whose widths sum to at most _CHUNK
    plus the width of the slice's last row."""
    import numpy as np

    ends = np.cumsum(width)
    if ends.size == 0:
        return
    cuts = np.searchsorted(ends, np.arange(_CHUNK, int(ends[-1]), _CHUNK)) + 1
    bounds = np.concatenate(([0], cuts, [width.size]))
    # sorted already: drop repeats without np.unique, which imports numpy.ma
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]
    yield from zip(bounds[:-1].tolist(), bounds[1:].tolist())


# ---------------------------------------------------------------------------
# projective space P^n
# ---------------------------------------------------------------------------

def _canonical_walk(cs: Sequence[int], smax: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Canonical primitive integer vectors y with sum c_i y_i^2 <= smax, for
    positive integer weights c_i.

    Canonical means: gcd 1 and first nonzero coordinate positive.  Yields
    (y, sum c_i y_i^2) in deterministic lexicographic order.
    """
    last = len(cs) - 1
    coords = [0] * len(cs)

    def rec(i: int, rem: int, g: int, leading_zero: bool) -> Iterator[tuple[tuple[int, ...], int]]:
        ci = cs[i]
        top = isqrt(rem // ci)
        lo = 0 if leading_zero else -top
        if i == last:
            done = smax - rem
            for y in range(lo, top + 1):
                if gcd(g, y) == 1:
                    coords[i] = y
                    yield tuple(coords), done + ci * y * y
            return
        for y in range(lo, top + 1):
            coords[i] = y
            yield from rec(i + 1, rem - ci * y * y, gcd(g, y), leading_zero and y == 0)

    yield from rec(0, smax, 0, True)


def _canonical_vectors(dim: int, n2max: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """`_canonical_walk` with unit weights: canonical primitive vectors of
    Z^dim with norm^2 <= n2max, as (vector, norm^2)."""
    return _canonical_walk((1,) * dim, n2max)


def enum_projective(n: int, B: Union[int, Fraction]) -> Iterator[ProjectivePoint]:
    """Stream every point of P^n(Q) of height <= B exactly once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = _squared_cap(B)
    n2max = p // q
    for vec, _ in _canonical_vectors(n + 1, n2max):
        yield ProjectivePoint(vec)


def _primitive_norm_blocks(dim: int, n2max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """int64 blocks (norms^2, weights) that together count the canonical
    primitive vectors in Z^dim with norm^2 <= n2max, the vectors
    `_canonical_vectors` yields.

    Norm^2 and gcd do not change under signs and permutations of the
    coordinates, so the walk visits one representative per orbit, the
    nondecreasing 0 <= u_1 <= ... <= u_dim, and weights it by the number of
    canonical vectors in its orbit: 2^(nz - 1) dim! / prod m_j!, with nz
    nonzero coordinates and runs of m_j equal values.  A prefix is
    (rem, g, prev, run, w): budget left, gcd so far, last value, length of
    its run, weight so far.  Level i (from 0) takes u from prev to
    isqrt(rem // (dim - i)), since the dim - i coordinates left are all at
    least u, and multiplies w by (i + 1) / run -- which builds the
    multinomial -- and by 2 for every nonzero u after the first.  Each
    level expands a slice of prefixes in one ragged arange and recurses
    slice by slice, so every level holds about _CHUNK prefixes at a time.
    Each representative gets the gcd test at the last coordinate.

    A weight counts lattice points of the box [-k, k]^dim, k = isqrt(n2max),
    and so does a histogram entry or the sum of a block's weights: all stay
    below (2k + 1)^dim, every partial w too (each factor is >= 1), and
    w * (i + 1) below dim times that.  Where this reaches 2^62 the blocks
    come from the `_canonical_vectors` stream with weight 1 instead.
    """
    import numpy as np

    if (2 * isqrt(n2max) + 1) ** dim * dim >= _INT64_SAFE:
        stream = (m for _, m in _canonical_vectors(dim, n2max))
        while True:
            norms = np.fromiter(islice(stream, _CHUNK), dtype=np.int64)
            if not norms.size:
                return
            yield norms, np.ones_like(norms)

    def expand(depth, rem, g, prev, run, w):
        top = _iroot_array(rem // (dim - depth), 2)
        width = top - prev + 1
        for a, b in _blocks(width):
            row, u = _ragged_arange(prev[a:b], width[a:b])
            row += a
            r = np.where(u == prev[row], run[row] + 1, 1)
            wu = (w[row] * (depth + 1) // r) << ((u > 0) & (prev[row] > 0))
            gu = np.gcd(g[row], u)
            if depth == dim - 1:
                keep = gu == 1
                yield n2max - rem[row][keep] + u[keep] * u[keep], wu[keep]
            else:
                yield from expand(depth + 1, rem[row] - u * u, gu, u, r, wu)

    zero = np.zeros(1, dtype=np.int64)
    yield from expand(0, zero + n2max, zero, zero, zero, zero + 1)


# Walks bounded by at least this many vectors build the histogram from the
# numpy blocks, smaller ones from the `_canonical_vectors` stream.  The
# bound isqrt(n2max)^(n+1) is 1 to 2.5 times below the walk's size for
# n <= 3.  With numpy loaded (2-vCPU Xeon VM, Python 3.11, numpy 2.4, best
# of 3), `_norm_histogram` from the stream took 0.045 s for 115k vectors
# of P^1, 0.080 s for 272k of P^2 and 0.113 s for 365k of P^3; as arrays
# from the folded blocks it took 0.0035, 0.0007 and 0.0004 s.  The import
# costs about 0.10 s, what the stream spends on some 3 * 10^5 vectors; the
# bound sits lower because a base of that size may still need numpy for
# its r = 1 rows.
_NUMPY_WALK_MIN = 10 ** 5


def _numpy_walk(n: int, n2max: int) -> bool:
    return isqrt(n2max) ** (n + 1) >= _NUMPY_WALK_MIN


def _norm_histogram(n: int, n2max: int) -> tuple[Sequence[int], Sequence[int]]:
    """(norms, mults): the distinct norm^2, ascending, of the canonical
    primitive vectors in Z^{n+1} with norm^2 <= n2max, and how many
    vectors have each.  int64 arrays from the numpy walk, lists of Python
    ints from the small one."""
    if not _numpy_walk(n, n2max):
        counts: dict[int, int] = {}
        for _, m in _canonical_vectors(n + 1, n2max):
            counts[m] = counts.get(m, 0) + 1
        norms = sorted(counts)
        return norms, [counts[m] for m in norms]
    import numpy as np

    hist = np.zeros(_table_length(n2max), dtype=np.int64)
    for norms, weights in _primitive_norm_blocks(n + 1, n2max):
        np.add.at(hist, norms, weights)
    norms = np.flatnonzero(hist)
    return norms, hist[norms]


def projective_norm_histogram(n: int, n2max: int) -> dict[int, int]:
    """Counts of canonical primitive vectors in Z^{n+1} grouped by norm^2
    (keys ascending)."""
    norms, mults = _norm_histogram(n, n2max)
    if isinstance(norms, list):
        return dict(zip(norms, mults))
    return dict(zip(norms.tolist(), mults.tolist()))


def count_enum_projective(n: int, B: Union[int, Fraction]) -> int:
    """N(P^n, B) by direct enumeration (reference path): the weights of the
    primitive-vector walk summed, one gcd-tested representative per orbit
    under signs and permutations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = _squared_cap(B)
    return sum(int(weights.sum())
               for _, weights in _primitive_norm_blocks(n + 1, p // q))


def _ball_count(k: int, m: int) -> int:
    """Number of integer vectors in Z^k with norm^2 <= m (origin included).

    k = 2 folds the quadrant at the diagonal: the points with x, y >= 1 are
    2 sum_{x <= t} isqrt(m - x^2) - t^2, t = isqrt(m // 2), since min(x, y)
    <= t and the square [1, t]^2 is counted twice.  k = 3 sums over the
    cone 0 <= x <= y <= z and weights each point by its orbit under signs
    and permutations: 2^(#nonzero coordinates) times 6, 3 or 1 when the
    coordinates are distinct, two equal or all equal.  For each x the
    points with x < y < z come from one isqrt sum over y in
    (x, isqrt((m - x^2) // 2)].  k >= 4 recurses over the first coordinate
    down to k = 3.  Integers only; every lattice point is counted, with
    no gcd.
    """
    if m < 0:
        return 0
    if k == 1:
        return 2 * isqrt(m) + 1
    r = range(isqrt(m) + 1)
    sq = list(map(mul, r, r))
    if k == 2:
        t = isqrt(m // 2)
        inner = 2 * sum(map(isqrt, map(m.__sub__, sq[1:t + 1]))) - t * t
        return 1 + 4 * isqrt(m) + 4 * inner
    if k == 3:
        total = 0
        for x in range(isqrt(m // 3) + 1):
            rem = m - sq[x]
            top = isqrt(rem // 2)  # largest y with y <= z
            tops = sum(map(isqrt, map(rem.__sub__, sq[x + 1:top + 1])))
            lt = tops - (top * (top + 1) - x * (x + 1)) // 2  # x < y < z
            eq = top - x  # x < y = z
            diag = isqrt(rem - sq[x]) - x  # x = y < z
            if x:
                total += 8 * (6 * lt + 3 * eq + 3 * diag + 1)
            else:
                total += 4 * (6 * lt + 3 * eq) + 6 * diag + 1
        return total
    return _ball_count(k - 1, m) + 2 * sum(
        _ball_count(k - 1, m - s) for s in sq[1:])


def _mobius_sieve(n: int) -> list[int]:
    size = _table_length(n)
    mu = [1] * size
    primes: list[int] = []
    is_comp = [False] * size
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def _count_projective_n2(n: int, n2max: int) -> int:
    """N(P^n, .) with the bound given as max allowed norm^2 (exact Mobius sieve)."""
    if n2max < 1:
        return 0
    dmax = isqrt(n2max)
    mu = _mobius_sieve(dmax)
    total = 0
    for d in range(1, dmax + 1):
        if mu[d] == 0:
            continue
        total += mu[d] * (_ball_count(n + 1, n2max // (d * d)) - 1)
    assert total % 2 == 0
    return total // 2


def count_projective_moebius(n: int, B: Union[int, Fraction]) -> int:
    """Independent counting oracle: Mobius sieve over lattice-ball counts."""
    p, q = _squared_cap(B)
    return _count_projective_n2(n, p // q)


# ---------------------------------------------------------------------------
# coprimality counting for the innermost fiber coordinate
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)  # bounded: a long-running process sees many y0
def _squarefree_divisors(g: int) -> tuple[tuple[int, int], ...]:
    """(divisor, Mobius sign) pairs over the radical of g."""
    divs = [(1, 1)]
    x = g
    p = 2
    while p * p <= x:
        if x % p == 0:
            divs += [(d * p, -s) for d, s in divs]
            while x % p == 0:
                x //= p
        p += 1 if p == 2 else 2
    if x > 1:
        divs += [(d * x, -s) for d, s in divs]
    return tuple(divs)


def _coprime_count(g: int, m: int) -> int:
    """#{1 <= y <= m : gcd(y, g) = 1}."""
    if m <= 0:
        return 0
    return sum(s * (m // d) for d, s in _squarefree_divisors(g))


# ---------------------------------------------------------------------------
# fiber counting on the good open subset
# ---------------------------------------------------------------------------

def _count_fiber_good(cs: Sequence[int], smax: int) -> tuple[int, int]:
    """Canonical primitive (y_0, ..., y_r) with y_0 >= 1 and sum c_i y_i^2 <= smax.

    Returns (count, rows_visited).  The last coordinate is resolved in
    closed form by the coprimality count; middle coordinates use the +-
    symmetry of the form.
    """
    r = len(cs) - 1
    clast = cs[-1]
    visited = 0

    def count_last(rem: int, g: int) -> int:
        nonlocal visited
        visited += 1
        m = isqrt(rem // clast)
        if g == 1:
            return 2 * m + 1
        return 2 * _coprime_count(g, m)

    def rec(i: int, rem: int, g: int) -> int:
        if i == r:
            return count_last(rem, g)
        ci = cs[i]
        total = rec(i + 1, rem, g)  # y_i = 0 keeps the running gcd
        top = isqrt(rem // ci)
        for y in range(1, top + 1):
            total += 2 * rec(i + 1, rem - ci * y * y, gcd(g, y))
        return total

    count = 0
    c0 = cs[0]
    for y0 in range(1, isqrt(smax // c0) + 1):
        count += rec(1, smax - c0 * y0 * y0, y0)
    return count, visited


def _fiber_params(X_weights: tuple[int, ...], ar: int, lam: int, mu: int,
                  p: int, q: int, m: int) -> tuple[tuple[int, ...], int]:
    """Weights and cap of the fiber form over a base point of norm^2 = m.

    The exact height condition S^lam * q * m^mu <= p * m^{lam*ar} becomes
    S <= iroot(floor(p * m^{lam*ar} / (q * m^mu)), lam); a cap of 0 is an
    empty fiber.
    """
    smax = iroot((p * m ** (lam * ar)) // (q * m ** mu), lam)
    cs = tuple(m ** (ar - bi) for bi in X_weights)
    return cs, smax


# Largest y_0 the batched r = 1 step tabulates squarefree divisors for.  A
# norm whose fiber has more y_0 rows goes through the per-norm path.  At
# 2^17 the table holds 1.04M entries (5.7 MB with int32 divisors and
# int8 signs); B = 2^30 on X_2(1) with -K needs 2^15.
_Y0_TABLE_MAX = 1 << 17


def _r1_batch_band(weights: tuple[int, ...], ar: int, lam: int, mu: int,
                   p: int, q: int) -> tuple[int, int]:
    """Band [lo, hi] of base norms m whose r = 1 fiber step provably fits
    in int64.

    With e = lam*ar - mu, the cap floor(p m^e / q) of `_fiber_params` is
    (p m^e) // q for e >= 0 and P // m^-e, P = p // q, for e < 0; for
    r = 1 the fiber weights are (0, ar), so the form is m^ar y_0^2 + y_1^2.
    Keeping p m^e and q (e >= 0), or m^-e and the cap (e < 0), and m^ar
    below 2^62 bounds every later value too: S_max, the rows' remainders
    and last-coordinate tops are at most the cap, a row counts at most
    2 sqrt(cap) + 1 < 2^32 points, and a block sums at most _CHUNK rows.
    For e < 0 the cap stays below 2^62 from m^-e > P // 2^62 on, which
    gives the band its lower end; P itself may be any size.  lam <= 62
    keeps the Newton terms of `_iroot_array` small.  The band is empty
    (lo > hi) when no norm qualifies.
    """
    top = _INT64_SAFE - 1
    e = lam * ar - mu
    if len(weights) != 2 or lam > 62 or (e >= 0 and q > top):
        return 1, 0

    def largest(base: int, k: int) -> int:
        """Largest m with base * m^k <= top."""
        if base > top:
            return 0
        return top if k == 0 else iroot(top // base, k)

    if e >= 0:
        return 1, min(largest(p, e), largest(1, ar))
    # smallest m with m^-e > P // 2^62
    lo = iroot(p // q // _INT64_SAFE, -e) + 1
    return lo, min(largest(1, -e), largest(1, ar))


def _mobius_array(n: int) -> np.ndarray:
    """mu(y) for y = 1..n at index y of an int8 array (index 0 unused).

    Each prime p <= sqrt(n) flips the sign of its multiples, zeroes the
    multiples of p^2 and is divided once out of a remainder that starts as
    y; p is prime when no smaller prime has divided its remainder.  For a
    squarefree y what is left is 1 or the one prime factor above sqrt(n),
    which flips the sign once more.  Integers only."""
    import numpy as np

    rest = np.arange(n + 1, dtype=np.int32)
    mu = np.ones(n + 1, dtype=np.int8)
    for p in range(2, isqrt(n) + 1):
        if rest[p] == p:
            mu[p::p] *= -1
            mu[p * p::p * p] = 0
            rest[p::p] //= p
    mu[rest > 1] *= -1
    return mu


def _divisor_table(ymax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, div, sign): the squarefree divisors d of y and their Mobius
    signs mu(d) are div[start[y]:start[y + 1]] and sign[...], y = 1..ymax.

    int32 divisors and offsets, int8 signs: y <= _Y0_TABLE_MAX keeps every
    entry far below 2^31, and the table is the batched step's largest
    allocation."""
    import numpy as np

    mob = _mobius_array(ymax)
    d = np.flatnonzero(mob[1:]).astype(np.int32) + 1
    per = ymax // d  # the multiples d, 2d, .., per * d of each d
    div = np.repeat(d, per)
    first = np.repeat(np.cumsum(per, dtype=np.int32) - per, per)
    y = div * (np.arange(1, div.size + 1, dtype=np.int32) - first)
    order = np.argsort(y)  # the order of a y's divisors does not matter
    div = div[order]
    start = np.searchsorted(y[order], np.arange(ymax + 2, dtype=np.int32))
    return start.astype(np.int32), div, mob[div]


def _count_r1_batched(weights: tuple[int, ...], ar: int, lam: int, mu: int,
                      p: int, q: int, norms: np.ndarray,
                      mults: np.ndarray) -> tuple[int, int, np.ndarray]:
    """`_fiber_params` and `_count_fiber_good` for r = 1, over int64 arrays.

    Counts the norms in `_r1_batch_band` whose fibers have at most
    _Y0_TABLE_MAX rows.  A row's last coordinate runs over |y_1| <= M with
    M = isqrt(S_max - m^ar y_0^2).  The y_0 = 1 rows of all norms are one
    vector pass: every y_1 is coprime to 1, y_1 = 0 included, so such a
    row counts 2 M + 1 and needs no divisors.  The rows y_0 >= 2 of the
    norms that have them are flattened into blocks; a row counts y_1 and
    -y_1 for each 1 <= y_1 <= M coprime to y_0, sum over squarefree
    d | y_0 of mu(d) floor(M/d), read off `_divisor_table`.  Both passes
    add into one int64 fiber count per norm, which cannot overflow: a norm
    has at most _Y0_TABLE_MAX = 2^17 rows and each row counts fewer than
    2^32 points (see `_r1_batch_band`), so a total stays below 2^49.  The
    sum of mult * fiber count is one int64 dot product when the sum of
    the multiplicities times the largest total is below 2^62, which
    bounds every partial sum, and one Python-int sum otherwise (the
    multiplicities are histogram counts, whose sum, the number of base
    vectors, is below 2^62 by the bound of `_primitive_norm_blocks`).
    Returns (that sum, rows, done), where done marks the norms counted
    here; rows is the number of y_0 rows, both passes together, which
    `_count_fiber_good` reports as rows_visited.
    """
    import numpy as np

    lo, hi = _r1_batch_band(weights, ar, lam, mu, p, q)
    done = (norms >= lo) & (norms <= hi)
    if not done.any():
        return 0, 0, done
    m, mult = norms[done], mults[done]
    e = lam * ar - mu
    P = p // q
    if e >= 0:
        cap = (p * m ** e) // q
    elif P < _INT64_SAFE:
        cap = P // m ** -e
    else:  # the band's lower end keeps these quotients below 2^62
        cap = np.array([P // d for d in (m ** -e).tolist()], dtype=np.int64)
    smax = _iroot_array(cap, lam)
    c0 = m ** ar
    top0 = _iroot_array(smax // c0, 2)
    fits = top0 <= _Y0_TABLE_MAX
    done[np.flatnonzero(done)[~fits]] = False
    live = fits & (top0 > 0)
    smax, c0, top0, mult = (a[live] for a in (smax, c0, top0, mult))
    rows = int(top0.sum())
    # y0 = 1: every y1 is coprime to it, y1 = 0 included
    fiber = 2 * _iroot_array(smax - c0, 2) + 1
    more = np.flatnonzero(top0 > 1)
    if more.size:
        smax, c0 = smax[more], c0[more]
        width = top0[more] - 1  # the rows y0 = 2 .. top0
        start, div, sign = _divisor_table(int(width.max()) + 1)
        ends = np.cumsum(width)
        nrows = int(ends[-1])
        for r0 in range(0, nrows, _CHUNK):
            flat = np.arange(r0, min(r0 + _CHUNK, nrows), dtype=np.int64)
            row = np.searchsorted(ends, flat, side="right")
            y0 = flat - (ends[row] - width[row]) + 2
            last = _iroot_array(smax[row] - c0[row] * y0 * y0, 2)
            ndiv = start[y0 + 1] - start[y0]
            term, j = _ragged_arange(start[y0], ndiv)
            coprime = np.add.reduceat(sign[j] * (last[term] // div[j]),
                                      np.cumsum(ndiv) - ndiv)
            heads = np.flatnonzero(np.diff(row, prepend=-1))
            # row is sorted, so a chunk names each norm at most once
            fiber[more[row[heads]]] += 2 * np.add.reduceat(coprime, heads)
    if int(mult.sum()) * int(fiber.max(initial=0)) < _INT64_SAFE:
        return int(mult @ fiber), rows, done
    return sum(map(mul, mult.tolist(), fiber.tolist())), rows, done


def _good_chunk_worker(args: tuple) -> tuple[int, int]:
    """Process-pool worker: count one chunk of base norms one by one with
    unbounded integers; the chunk is given as lists of Python ints (norms
    and multiplicities), never as int64 arrays, whose elements wrap on
    overflow."""
    weights, ar, lam, mu, p, q, norms, mults = args
    count = 0
    visited = 0
    for m, mult in zip(norms, mults):
        c, v = _count_fiber_good(*_fiber_params(weights, ar, lam, mu, p, q, m))
        count += mult * c
        visited += v
    return count, visited


# r = 1 bands over a small base with fewer y_0 rows than this are counted
# per norm, which needs no numpy.  With numpy loaded (2-vCPU VM, Python
# 3.11, numpy 2.4, best of 5; -K twisted to (1, 6) on X_2(1)), 11k rows
# took 0.031 s per norm against 0.006 s batched, 23k rows 0.069 s against
# 0.011 s and 30k rows 0.093 s against 0.015 s; with the import (about
# 0.065 s there) added to the batched side, the two meet near 2.5 * 10^4
# rows.
_NUMPY_ROWS_MIN = 2 * 10 ** 4


def _few_rows_band(args: tuple, norms: Sequence[int]) -> Optional[tuple[int, int]]:
    """The band [lo, hi] of `_r1_batch_band` if the r = 1 fibers of its
    norms have fewer than _NUMPY_ROWS_MIN y_0 rows in all, else None.  A
    row count is isqrt(S_max // c_0), from `_fiber_params`."""
    lo, hi = _r1_batch_band(*args)
    rows = 0
    for m in norms:
        if rows >= _NUMPY_ROWS_MIN:
            break
        if lo <= m <= hi:
            (c0, _), smax = _fiber_params(*args, m)
            rows += isqrt(smax // c0)
    return (lo, hi) if rows < _NUMPY_ROWS_MIN else None


def _count_good_open(X: HKVariety, L: LineBundleClass, B: Fraction,
                     threads: int) -> tuple[int, int]:
    p, q = _squared_cap(B)
    # On U the fiber height is >= 1, so Nq^mu <= B^2 bounds the base.
    n2max = iroot(p // q, L.mu)
    args = (X.fiber_weights, X.a[-1], L.lam, L.mu, p, q)
    norms, mults = _norm_histogram(X.t - 1, n2max)
    # The norms of the r = 1 band are counted here: the pool's fixed cost
    # (about 20 ms per call on 2 CPUs) exceeds what splitting them saves.
    # The pool takes the norms left to the per-norm path, whichever way
    # the band was counted.
    band = None if _numpy_walk(X.t - 1, n2max) else _few_rows_band(args, norms)
    if band is not None:
        lo, hi = band
        inside = [lo <= m <= hi for m in norms]
        count, visited = _good_chunk_worker(
            (*args, *(list(compress(a, inside)) for a in (norms, mults))))
        outside = [not i for i in inside]
        norms, mults = (list(compress(a, outside)) for a in (norms, mults))
    else:
        import numpy as np

        norm_arr = np.asarray(norms, dtype=np.int64)
        mult_arr = np.asarray(mults, dtype=np.int64)
        count, visited, done = _count_r1_batched(*args, norm_arr, mult_arr)
        norms, mults = norm_arr[~done].tolist(), mult_arr[~done].tolist()
    if threads == 1 or len(norms) < 4 * threads:
        parts = [_good_chunk_worker((*args, norms, mults))]
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [(*args, norms[i::threads], mults[i::threads])
                  for i in range(threads)]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_good_chunk_worker, chunks))
    return (count + sum(c for c, _ in parts),
            visited + sum(v for _, v in parts))


def _finite_strata(space: Union[HKVariety, ProjectiveSpace],
                   bundle: Union[LineBundleClass, int],
                   region: Region) -> tuple[Stratum, ...]:
    """`region_strata`, after raising the NotBigError of the first stratum
    that is not big: it has infinitely many points of bounded height."""
    strata = region_strata(space, bundle, region)
    for st in strata:
        require_big(st.space, st.bundle)
    return strata


def count_hk(req: CountRequest) -> CountResult:
    """Exact N(region, H_L, B), summed over the strata of the region, all
    checked big first: an open stratum loops over base norms, the terminal
    twisted P^n is the Mobius sieve.  The result is independent of the
    thread count: per-chunk integer subtotals are summed, an associative
    and commutative reduction.
    """
    t0 = time.perf_counter()
    B = Fraction(req.bound)
    count = visited = 0
    for st in _finite_strata(req.variety, req.bundle, req.region):
        if st.open_part:
            c, v = _count_good_open(st.space, st.bundle, B, req.threads)
        else:
            p, q = _squared_cap(B)
            # Nq^k <= B^2  <=>  Nq <= iroot(floor(B^2), k)
            c = v = _count_projective_n2(st.space.n, iroot(p // q, int(st.bundle)))
        count += c
        visited += v
    return CountResult(count, time.perf_counter() - t0, visited)


# ---------------------------------------------------------------------------
# streaming / direct oracles (slow paths)
# ---------------------------------------------------------------------------

def enum_hk_points(X: HKVariety, L: LineBundleClass, B: Union[int, Fraction],
                   region: Region = Region.WHOLE) -> Iterator[HKRationalPoint]:
    """Stream points of height <= B (slow reference path, used by --stream).

    The region's strata must be big, as for `count_hk`, otherwise the
    stream would be infinite; F is walked as the y_0 = 0 slice.
    """
    _finite_strata(X, L, region)
    B = Fraction(B)
    p, q = _squared_cap(B)
    lam, mu = L.lam, L.mu
    ar = X.a[-1]
    weights = X.fiber_weights
    if region is Region.GOOD_OPEN:
        base_cap = iroot(p // q, mu)
    else:
        kf = mu - lam * ar  # height exponent of the smallest-weight F direction
        base_cap = iroot(p // q, kf) if region is Region.SUBBUNDLE_F else \
            max(iroot(p // q, mu), iroot(p // q, kf))
    # F walks the y_0 = 0 slice: a canonical (0, y') has y' canonical
    slice_f = region is Region.SUBBUNDLE_F
    for vec, m in _canonical_vectors(X.t, base_cap):
        Q = ProjectivePoint(vec)
        if lam <= 0:
            # only F of r = 1 is finite here: its slice is the one point
            # (0 : 1), and S^lam cannot be cleared, so test it exactly
            P = HKRationalPoint(base=Q, fiber=ProjectivePoint((0, 1)))
            if height_L_sq(X, L, P) <= B * B:
                yield P
            continue
        cs, smax = _fiber_params(weights, ar, lam, mu, p, q, m)
        for y, _ in _canonical_walk(cs[1:] if slice_f else cs, smax):
            if slice_f:
                y = (0, *y)
            elif region is Region.GOOD_OPEN and y[0] == 0:
                continue
            yield HKRationalPoint(base=Q, fiber=ProjectivePoint(y))


def count_subbundle_direct(X: HKVariety, L: LineBundleClass,
                           B: Union[int, Fraction]) -> int:
    """Test oracle: count F-points (y_0 = 0) by direct twisted enumeration."""
    return sum(1 for _ in enum_hk_points(X, L, B, Region.SUBBUNDLE_F))


# ---------------------------------------------------------------------------
# sweeps and fits
# ---------------------------------------------------------------------------

def sweep(req: CountRequest, grid: Sequence[Union[int, Fraction]],
          prediction=None) -> list[dict]:
    """Counts over an increasing grid of bounds, with optional predicted column.

    `prediction` is an AsymptoticPrediction (module constants); predicted(B)
    = C * B^a * (log B)^e and ratio = count / predicted.
    """
    vals = [Fraction(b) for b in grid]
    if any(b2 <= b1 for b1, b2 in zip(vals, vals[1:])):
        raise ValueError("grid must be strictly increasing")
    rows = []
    for b in vals:
        res = count_hk(CountRequest(req.variety, req.bundle, b, req.region, req.threads))
        row = {"B": b, "count": res.count, "predicted": None, "ratio": None}
        if prediction is not None:
            bb = float(b)
            pred = prediction.constant * bb ** float(prediction.a_l)
            if prediction.log_exponent:
                pred *= log(bb) ** prediction.log_exponent
            row["predicted"] = pred
            row["ratio"] = res.count / pred if pred > 0 else float("nan")
        rows.append(row)
    return rows


def estimate_exponent(table: Sequence, exponent: Optional[float] = None) -> ExponentFit:
    """Log-log slope plus a two-parameter fit N ~ C B^a log B + C2 B^a.

    `table` rows are (B, count) pairs or dicts with those keys.  The slope
    comes from least squares on (log B, log N); the two-parameter fit uses
    the given exponent `a` (default: slope rounded to the nearest integer)
    and returns C as log_coefficient and C2 as coefficient.
    """
    import numpy as np

    pairs = []
    for row in table:
        if isinstance(row, dict):
            pairs.append((float(row["B"]), float(row["count"])))
        else:
            pairs.append((float(row[0]), float(row[1])))
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
