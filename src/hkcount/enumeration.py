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
int64 arrays gathered from the blocks' np.add.at histogram (an int32
table wherever its entries provably fit) reach the fiber step without a
dict, and a small walk gives the same pair as lists
of Python ints.  `projective_norm_histogram` is the dict of that pair,
for the oracles and the tests.

Counts on P^n, and so every F count, come from the Mobius sieve over
lattice balls (Schanuel 1979): twice N(P^n) is sum over d of
mu(d) (#{v in Z^{n+1} : |v|^2 <= n2max // d^2} - 1).  The ball count
`_ball_count` folds Z^2 at the diagonal and Z^3 onto the cone
0 <= x <= y <= z, so each is a sum of C-level isqrt calls over a
precomputed list of squares.  Z^4 is a divisor sum from Jacobi's
four-square theorem, O(sqrt m) steps per ball, and higher dimensions
recurse down to Z^4.  It is integer-only and needs no numpy, so a P^n or
F count does not load it.

Fiber vectors are counted by a recursive box walk on the integer
quadratic form sum c_i y_i^2 <= S_max, c_i = m^(a_r - b_i), with the
coordinates in `fiber_weights` order: y_0 (c_0 = m^a_r, the largest),
then y_1 (c_1 = 1), then y_i (c_i = m^a_(i-1)) for i >= 2, so for r >= 2
the weight-1 coordinate is not the innermost.  The innermost coordinate
is resolved by a Mobius/inclusion-exclusion coprimality count instead of
a per-point gcd.

`_count_good_open` dispatches on r.  `_count_r1` counts every r = 1
base norm and returns (count, rows), as the per-norm path does.  It
takes the norms in slices of at most _CHUNK, so that no array spans
every norm, and splits each slice once by an int64 guard
(`_r1_batch_band`); the norms with S_max >= 2^62 take one call of the
per-norm path.  One counter (`_count_r1_mobius`) takes each slice's
other fibers as int64 (c_0, S_max, mult) in one call: the identity of
the P^n sieve counts a fiber as sum over d of mu(d) E(c_0, S_max // d^2),
where E counts every lattice point with y_0 >= 1 and tests no gcd.  Each
y_0 row takes one isqrt, M(y_0) = isqrt(S_max - c_0 y_0^2), and the term
of a squarefree d and a multiple y_0 = d k is read off it as
M(d k) // d; mu comes from a vectorised integer sieve, `_mobius_array`.
Every r >= 2 norm goes through the per-norm Python path
(`_good_chunk_worker`) with unbounded integers.  All bound comparisons
are integer-exact, integer roots included (Newton from above, seeded for
square roots from a table of isqrt over 16-bit integers and otherwise
from a power of two); no floating point enters any count.

numpy is imported inside the functions that use it, and the process
pool only on the pooled branch, so importing this module costs neither.
A count loads numpy only when an array step has enough work to repay
the import (about 0.07 s with the one BLAS thread the CLI sets).  A walk
bounded by fewer than _NUMPY_WALK_MIN vectors takes the
`_canonical_vectors` stream.  Over such a base, an r = 1 count whose
fibers with S_max < 2^62 have fewer than _NUMPY_ROWS_MIN y_0 rows is
counted per norm by `_count_r1` (`_few_r1_rows`), before numpy loads;
it reads which walk was taken off the histogram's type (lists or
arrays).  Both choices depend only on the input's size,
and both sides give the same counts.  Bigness is checked before either.
r = 1 counts run in the calling process at any thread count; only an
r >= 2 count splits its norms over a process pool, of at most one worker
per CPU the process may run on.

A count sums the strata of its region (`region_strata`), so every F
count runs on the restricted classes and exercises the restriction
lemmas; the `enum_hk_points` stream walks F directly, as a test oracle.
"""
from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
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
    """points_visited sums over the strata: for an open stratum the rows of
    the last fiber coordinate that `_count_fiber_good` visits, summed over
    the base norms (the y_0 rows for r = 1); for a P^n stratum the count.
    No CLI output prints it; the benchmark's tracer and the tests read it."""
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
# n <= 3.  With numpy loaded (2-vCPU VM, Python 3.11, numpy 2.4, best of
# 3), `_norm_histogram` from the stream took 0.053 s at the bound 65,536
# of P^1 (63k vectors), 0.045 s at 54,872 of P^2 (101k) and 0.069 s at
# 50,625 of P^3 (143k); as arrays from the folded blocks it took 0.003,
# 0.0008 and 0.0007 s.  The import costs 0.06 to 0.08 s after `import
# hkcount.cli` (which pins one BLAS thread), what the stream spends up to
# a bound of 5 * 10^4 (P^3) to 8 * 10^4 (P^1, P^2).  The bound sits at
# the low end because a base of that size may still need numpy for its
# r = 1 rows: from the CLI (median of 9 fresh processes each), X_2(1) -K
# at B = 1.5 * 10^7 (bound 60,516) took 0.234 s with the blocks and
# 0.252 s with the stream, and X_2(1) with bundle (1, 1) at B = 254
# (bound 64,516, few rows) 0.289 s against 0.312 s.
_NUMPY_WALK_MIN = 5 * 10 ** 4


def _numpy_walk(n: int, n2max: int) -> bool:
    return isqrt(n2max) ** (n + 1) >= _NUMPY_WALK_MIN


def _norm_histogram(n: int, n2max: int) -> tuple[Sequence[int], Sequence[int]]:
    """(norms, mults): the distinct norm^2, ascending, of the canonical
    primitive vectors in Z^{n+1} with norm^2 <= n2max, and how many
    vectors have each.  int64 arrays from the numpy walk, lists of Python
    ints from the small one.

    The dense table over 0..n2max is int32 when the box bound of
    `_primitive_norm_blocks`, (2 isqrt(n2max) + 1)^(n+1), is below 2^31:
    no entry can exceed it (P^1 through n2max of about 5 * 10^8).  Larger
    walks keep an int64 table."""
    if not _numpy_walk(n, n2max):
        counts: dict[int, int] = {}
        for _, m in _canonical_vectors(n + 1, n2max):
            counts[m] = counts.get(m, 0) + 1
        norms = sorted(counts)
        return norms, [counts[m] for m in norms]
    import numpy as np

    box = (2 * isqrt(n2max) + 1) ** (n + 1)
    dtype = np.int32 if box < 1 << 31 else np.int64
    hist = np.zeros(_table_length(n2max), dtype=dtype)
    for norms, weights in _primitive_norm_blocks(n + 1, n2max):
        # np.add.at casts mixed dtypes element by element, 20x slower
        np.add.at(hist, norms, weights.astype(dtype, copy=False))
    norms = np.flatnonzero(hist)
    mults = hist[norms]
    del hist  # the table goes before the int64 copy is made
    return norms, mults.astype(np.int64)


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
    (x, isqrt((m - x^2) // 2)].  k = 4 is Jacobi's four-square theorem,
    r_4(n) = 8 sum_{d | n, 4 not | d} d, summed over n <= m:
    1 + 8 (D(m) - 4 D(m // 4)) with D(x) = sum_{n <= x} sigma(n), so it
    takes O(sqrt m) steps (`_sigma_prefix`).  k >= 5 recurses over the
    first coordinate down to k = 4.  Integers only; every lattice point
    is counted, with no gcd.
    """
    if m < 0:
        return 0
    if k == 1:
        return 2 * isqrt(m) + 1
    if k == 4:
        return 1 + 8 * (_sigma_prefix(m) - 4 * _sigma_prefix(m // 4))
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


def _sigma_prefix(x: int) -> int:
    """D(x) = sum_{n <= x} sigma(n) = sum_{d k <= x} d, by the Dirichlet
    hyperbola over r = isqrt(x): sum_{k <= r} (T(x // k) + k (x // k))
    - r T(r), with T(n) = n (n + 1) / 2."""
    r = isqrt(x)
    total = 0
    for k in range(1, r + 1):
        q = x // k
        total += q * (q + 1) // 2 + k * q
    return total - r * r * (r + 1) // 2


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


def _r1_batch_band(ar: int, lam: int, mu: int, p: int, q: int
                   ) -> tuple[int, int]:
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
    gives the band its lower end; P itself may be any size.  For e = 0
    every norm has the cap P and the one S_max = iroot(P, lam), taken in
    Python ints: the band is every m with m^ar below 2^62 when S_max is
    below 2^62, whatever the size of p and q, and empty otherwise.
    Otherwise lam <= 62 keeps the Newton terms of `_iroot_array` small.
    The band is empty (lo > hi) when no norm qualifies.
    """
    top = _INT64_SAFE - 1
    e = lam * ar - mu

    def largest(base: int, k: int) -> int:
        """Largest m with base * m^k <= top."""
        if base > top:
            return 0
        return top if k == 0 else iroot(top // base, k)

    if e == 0:
        return 1, largest(1, ar) if iroot(p // q, lam) <= top else 0
    if lam > 62 or (e > 0 and q > top):
        return 1, 0
    if e > 0:
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


def _ragged_chunks(width: np.ndarray,
                   size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(row, k) over the ranges k = 0 .. width[row] - 1, concatenated in
    row order and cut into blocks of `size` entries; a long row spans
    several blocks, so no block holds more than `size` entries.  A block
    [a, b) looks up its first and last row and repeats each row over its
    part of the block, with no search per entry."""
    import numpy as np

    ends = np.cumsum(width)
    first = ends - width
    total = int(ends[-1]) if ends.size else 0
    for a in range(0, total, size):
        b = min(a + size, total)
        lo, hi = np.searchsorted(ends, (a, b - 1), side="right").tolist()
        part = (np.minimum(ends[lo:hi + 1], b)
                - np.maximum(first[lo:hi + 1], a))
        row = np.repeat(np.arange(lo, hi + 1), part)
        yield row, np.arange(a, b, dtype=np.int64) - first[row]


def _count_r1_mobius(c0: np.ndarray, smax: np.ndarray,
                     mults: np.ndarray) -> tuple[int, int]:
    """Sum of mult * (the r = 1 fiber count of `_count_fiber_good` for the
    form c_0 y_0^2 + y_1^2 <= S_max), and its y_0 rows, over int64 arrays
    with 1 <= c_0 <= S_max < 2^62.

    The count of coprime (y_0, y_1) with y_0 >= 1 is, by Mobius inversion
    over d = gcd(y_0, y_1) (Schanuel 1979, as in `_count_projective_n2`),
    sum over d of mu(d) E(c_0, S_max // d^2), where E(c, T) =
    sum_{k = 1}^{isqrt(T // c)} (2 isqrt(T - c k^2) + 1) counts every
    lattice point with y_0 >= 1 and tests no gcd.  With Y =
    isqrt(S_max // c_0) and M(y_0) = isqrt(S_max - c_0 y_0^2), the term of
    (d, k) is 2 (M(d k) // d) + 1, since isqrt(N // d^2) = isqrt(N) // d,
    and k runs to Y // d.  So M is taken once per row y_0 = 1 .. Y, and
    the terms are gathered from it: the sum over the multiples of each
    squarefree d, mu from `_mobius_array`.

    The norms are taken in parts of at most _CHUNK rows plus the last
    norm's (`_blocks`); a part's M is one int64 array.  The terms of d = 1
    are a sum over M per norm, and the (norm, d) pairs with d >= 2 and
    mu(d) != 0 and then their k are walked in blocks of _CHUNK
    (`_ragged_chunks`).  int64 holds every value: c_0 y_0^2 <= S_max and
    M < 2^31, so a term is below 2^32 in absolute value and a block's sum
    below 2^46.  A partial sum of one norm's terms is at most
    sum_{d <= Y} (Y / d) (2 sqrt(S_max) / d + 1) <= Y sqrt(S_max)
    (pi^2 / 3 + 1) < 5 S_max in absolute value (Y <= sqrt(S_max / c_0),
    and 1 + log Y <= Y), so the per-norm sums are int64 in a part where
    5 S_max is below 2^62 and Python ints otherwise.  A part's sum of mult * fiber
    count is one int64 dot product when the sum of its multiplicities
    times its largest fiber count is below 2^62, which bounds every partial
    sum, and a Python-int one otherwise (the multiplicities are histogram
    counts, whose sum, the number of base vectors, is below 2^62 by the
    bound of `_primitive_norm_blocks`).  The rows reported are Y per norm,
    the y_0 rows `_count_fiber_good` reports.
    """
    import numpy as np

    top0 = _iroot_array(smax // c0, 2)
    if not top0.size:
        return 0, 0
    mob = _mobius_array(int(top0.max()))
    total = 0
    for a, b in _blocks(top0):
        top, c, s, mult = (x[a:b] for x in (top0, c0, smax, mults))
        off = np.cumsum(top) - top - 1  # M(y_0) of norm i is M[off[i] + y_0]
        M = np.empty(int(top.sum()), dtype=np.int64)
        for i, k in _ragged_chunks(top, _CHUNK):
            k += 1
            M[off[i] + k] = _iroot_array(s[i] - c[i] * k * k, 2)
        # the terms of d = 1 are 2 M(k) + 1, and M sums below S_max
        fiber = np.add.reduceat(M, off + 1)
        if 5 * int(s.max()) >= _INT64_SAFE:
            fiber = fiber.astype(object)
        fiber = 2 * fiber + top
        for i, d in _ragged_chunks(top - 1, _CHUNK):
            d += 2
            keep = np.flatnonzero(mob[d])
            i, d = i[keep], d[keep]
            for j, k in _ragged_chunks(top[i] // d, _CHUNK):
                owner, dj = i[j], d[j]
                term = mob[dj] * (2 * (M[off[owner] + dj * (k + 1)] // dj) + 1)
                heads = np.flatnonzero(np.diff(owner, prepend=-1))
                # owner is sorted, so a block names each norm at most once
                fiber[owner[heads]] += np.add.reduceat(term, heads)
        if int(mult.sum()) * int(fiber.max()) >= _INT64_SAFE:
            fiber = fiber.astype(object)
        total += int(mult @ fiber)
    return total, int(top0.sum())


def _count_r1(args: tuple, norms: Sequence[int], mults: Sequence[int]
              ) -> tuple[int, int]:
    """`_fiber_params` and `_count_fiber_good` for r = 1 over every base
    norm: the sum of mult * fiber count, and the y_0 rows,
    isqrt(S_max // c_0) per norm, that `_count_fiber_good` reports.

    A small base (lists from the per-vector stream) with few rows
    (`_few_r1_rows`) goes to the per-norm path whole, before numpy loads.
    Otherwise each slice of at most _CHUNK norms is split once by
    `_r1_batch_band`: the norms outside the band take (c_0, S_max) in
    Python ints from `_fiber_params`, those in it their caps in int64 (a
    cap p // q // m^k with p // q >= 2^62 is divided in Python ints and
    only its quotient enters int64; for e = 0 the one S_max is broadcast).
    Each slice's fibers with c_0 <= S_max < 2^62 go to `_count_r1_mobius`
    in one call, and the norms with S_max >= 2^62 to one per-norm call; a
    norm with c_0 > S_max has no fiber point.
    """
    if isinstance(norms, list) and _few_r1_rows(args, norms):
        return _good_chunk_worker((*args, norms, mults))
    import numpy as np

    lo, hi = _r1_batch_band(*args[1:])
    _, ar, lam, mu, p, q = args
    e = lam * ar - mu
    P = p // q
    norms, mults = (np.asarray(a, dtype=np.int64) for a in (norms, mults))
    big: tuple[list[int], list[int]] = ([], [])
    total = rows = 0
    for a in range(0, norms.size, _CHUNK):
        m, mult = norms[a:a + _CHUNK], mults[a:a + _CHUNK]
        inside = (m >= lo) & (m <= hi)
        rest = []  # (c_0, S_max, mult) of the norms outside the band
        for n, k in zip(m[~inside].tolist(), mult[~inside].tolist()):
            (c0, _), smax = _fiber_params(*args, n)
            if smax >= _INT64_SAFE:
                big[0].append(n)
                big[1].append(k)
            elif c0 <= smax:
                rest.append((c0, smax, k))
        fibers = np.array(rest, dtype=np.int64).reshape(-1, 3).T
        m, mult = m[inside], mult[inside]
        if m.size:  # an empty band may have p or q past int64
            if e == 0:  # one cap P for every norm, so one S_max < 2^62
                smax = np.full(m.size, iroot(P, lam), dtype=np.int64)
            elif e > 0:
                smax = _iroot_array((p * m ** e) // q, lam)
            elif P < _INT64_SAFE:
                smax = _iroot_array(P // m ** -e, lam)
            else:  # the band's lower end keeps these quotients below 2^62
                smax = _iroot_array(np.array(
                    [P // d for d in (m ** -e).tolist()], dtype=np.int64), lam)
            c0 = m ** ar
            live = c0 <= smax
            fibers = np.concatenate(
                (fibers, (c0[live], smax[live], mult[live])), axis=1)
        count, r = _count_r1_mobius(*fibers)
        total += count
        rows += r
    count, r = _good_chunk_worker((*args, *big))
    return total + count, rows + r


def _good_chunk_worker(args: tuple) -> tuple[int, int]:
    """The per-norm path and pool worker: count a chunk of base norms one by
    one with unbounded integers, given as lists of Python ints (norms and
    multiplicities), never as int64 arrays, whose elements wrap on overflow."""
    *params, norms, mults = args
    count = visited = 0
    for m, mult in zip(norms, mults):
        c, v = _count_fiber_good(*_fiber_params(*params, m))
        count += mult * c
        visited += v
    return count, visited


# r = 1 counts over a small base whose norms with S_max < 2^62 have fewer
# y_0 rows than this are counted per norm, which needs no numpy.  With numpy
# loaded (2-vCPU VM, Python 3.11, numpy 2.4, best of 5 with a cold divisor
# cache, two runs; bundle (1, 6) on X_2(1)), 9.1k rows took 0.062 to
# 0.065 s per norm against 0.004 s batched, 11.3k rows 0.071 to 0.081 s
# against 0.005 s and 14.2k rows 0.096 to 0.108 s against 0.005 to
# 0.006 s.  The import costs 0.06 to 0.08 s after `import hkcount.cli`
# (which pins one BLAS thread); added to the batched side, the two meet
# between 1.0 and 1.2 * 10^4 rows.  From the CLI (median of 9 fresh
# processes each), B = 10^4 (11.3k rows) took 0.244 s batched against
# 0.263 s per norm, and B = 12,500 (14.2k rows) 0.250 s against 0.267 s.
# The row count includes the norms outside the int64 band; it chose the
# same side as a count of the band's rows alone on all 119,448 small
# r = 1 inputs (t in {2, 3}, a <= 20, lam, mu <= 6, B = 1, 3/2, ..., 40),
# and the batched side is the one measured here, so the crossover still
# holds.
_NUMPY_ROWS_MIN = 10 ** 4


def _few_r1_rows(args: tuple, norms: Sequence[int]) -> bool:
    """Whether the r = 1 fibers with S_max < 2^62 over the ascending norms
    have fewer than _NUMPY_ROWS_MIN y_0 rows in all.  A row count is
    isqrt(S_max // c_0), from `_fiber_params`; the norms with
    S_max >= 2^62 go to the per-norm path on either side.  For
    lam * ar >= mu the cap p m^(lam ar - mu) / q, and so S_max, grows with
    m, so no norm after the first with S_max >= 2^62 adds a row."""
    _, ar, lam, mu, _, _ = args
    rows = 0
    for m in norms:
        if rows >= _NUMPY_ROWS_MIN:
            break
        (c0, _), smax = _fiber_params(*args, m)
        if smax < _INT64_SAFE:
            rows += isqrt(smax // c0)
        elif lam * ar >= mu:
            break
    return rows < _NUMPY_ROWS_MIN


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_good_open(X: HKVariety, L: LineBundleClass, B: Fraction,
                     threads: int) -> tuple[int, int]:
    p, q = _squared_cap(B)
    # On U the fiber height is >= 1, so Nq^mu <= B^2 bounds the base.
    n2max = iroot(p // q, L.mu)
    args = (X.fiber_weights, X.a[-1], L.lam, L.mu, p, q)
    norms, mults = _norm_histogram(X.t - 1, n2max)
    # r = 1 counts never pool: the pool costs about 20 ms plus a fork per
    # worker on 2 CPUs, more than the per-norm work it would split (the
    # r = 1 count `--variety 1,2:19 --bundle 5,1 --B 90 --threads 2` took
    # 0.22 s pooled and 0.17 s in one process).
    if X.r == 1:
        return _count_r1(args, norms, mults)
    if not isinstance(norms, list):
        norms, mults = norms.tolist(), mults.tolist()
    # Every r >= 2 norm goes per norm, over at most one worker per CPU.
    workers = min(threads, _cpus())
    if workers == 1 or len(norms) < 4 * workers:
        parts = [_good_chunk_worker((*args, norms, mults))]
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [(*args, norms[i::workers], mults[i::workers])
                  for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_good_chunk_worker, chunks))
    return sum(c for c, _ in parts), sum(v for _, v in parts)


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

    An r >= 2 count with threads >= 2 forks its pool: a caller whose numpy
    already runs a BLAS thread pool should set OPENBLAS_NUM_THREADS=1
    first, or pass threads=1, since forking a threaded process is unsafe.
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
