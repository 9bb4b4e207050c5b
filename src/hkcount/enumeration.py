"""Exact enumeration and counting of rational points of bounded height.

Counting on the good open subset U factors through the base: the fiber
count over a base point Q depends only on Nq = H(Q)^2, so the driver
builds a histogram of base norms and evaluates each distinct norm once.

One walk, `_canonical_walk`, streams the canonical primitive vectors of
a diagonal form sum c_i y_i^2 <= S: with unit weights
(`_canonical_vectors`) the base points of P^(t-1), with the fiber
weights the fiber points of the `enum_hk_points` stream.

The histogram of a base comes from a folded walk over canonical
primitive vectors.  Norm^2 and gcd do not change under signs and
permutations of the coordinates, so the walk visits one representative
per orbit, the nondecreasing vectors 0 <= u_1 <= ... <= u_dim, tests its
gcd and weights it by the number of canonical vectors in its orbit: it
still enumerates the primitive vectors themselves, and shares no code
with the Mobius sieves it is checked against, which count every lattice
point of a ball or disk and never test a gcd.  One Python
walk, `_orbit_prefixes`, holds the level rule and the orbit weights: it
yields each prefix u_1 .. u_(dim-1) with its norm^2, its gcd, the range
prev .. top of the last coordinate and that coordinate's two weights.
Two folds expand the last coordinate: `_orbit_fold` in Python ints, one
representative at a time, for a small walk; `_primitive_norm_blocks`
in numpy for a large one, a batch of prefixes at a time, so that it
yields int64 blocks of at most about _CHUNK (norms^2, weights), tests
gcds only at that coordinate and never holds every prefix.
zetaP_numeric sums w * norm^(-s/2) over the same walk
(`primitive_norm_power_sum`, which makes the same choice between the
two), and count_enum_projective sums the histogram.  The unfolded
`_canonical_vectors` stream fixes the order of `enum_hk_points` and is
the reference both folds are tested against.  A count takes the
histogram as a pair (norms, mults) from `_norm_histogram`: int64 arrays
gathered from the blocks' np.add.at histogram (an int32 table wherever
its entries provably fit) reach the fiber step without a dict, and the
Python fold gives the same pair as lists of Python ints.
`projective_norm_histogram` is the dict of that pair, for the oracles
and the tests.

Counts on P^n, and so every F count, come from the Mobius sieve over
lattice balls (Schanuel 1979): twice N(P^n) is sum over d of
mu(d) (#{v in Z^{n+1} : |v|^2 <= n2max // d^2} - 1).  For n >= 2 the
ball count `_ball_count` folds Z^3 onto the cone 0 <= x <= y <= z, a
sum of C-level isqrt calls over a precomputed list of squares; Z^4 is a
divisor sum from Jacobi's four-square theorem, O(sqrt m) steps per ball,
and higher dimensions recurse down to Z^4.  mu comes from
`_mobius_table`, one signed byte per d <= dmax sieved by slice
operations on a bytearray.  It is integer-only and needs no numpy, so a
P^n count with n >= 2 does not load it.  P^1 is the r = 1 disk count
below at c_0 = 1: its points other than [0:1] are the coprime
(y_0, y_1) with y_0 >= 1 and y_0^2 + y_1^2 <= n2max, which
`_count_projective_n2` hands to `_count_r1` as one form; so a P^1 or
surface F count loads numpy only from _NUMPY_ROWS_MIN rows on.

Fiber vectors are counted on the integer quadratic form
sum c_i y_i^2 <= S_max, c_i = m^(a_r - b_i), with the coordinates in
`fiber_weights` order: y_0 (c_0 = m^a_r, the largest), then y_1
(c_1 = 1), then y_i (c_i = m^a_(i-1)) for i >= 2, so for r >= 2 the
weight-1 coordinate is not the innermost.  For r >= 2 a recursive box
walk (`_count_fiber_good`) resolves the innermost coordinate by a
Mobius/inclusion-exclusion coprimality count instead of a per-point gcd.

`_count_good_open` dispatches on r.  `_count_r1` counts every r = 1
base norm and returns (count, rows), the y_0 rows isqrt(S_max // c_0)
per norm.  Every r = 1 fiber is a disk count, taken by one Mobius sum
over d = gcd(y_0, y_1) (Schanuel 1979): sum over d of
mu(d) E(c_0, S_max // d^2), where E counts every lattice point with
y_0 >= 1 and tests no gcd.  Each y_0 row takes one isqrt,
M(y_0) = isqrt(S_max - c_0 y_0^2), and the term of a squarefree d and a
multiple y_0 = d k is read off it as M(d k) // d; mu is the P^n sieve's
`_mobius_table`.  The sum has a Python-int side (`_count_r1_forms`) and
an int64 side (`_count_r1_mobius`), and `_count_r1` is the one router
between them.  A norm's Python-int form (c_0, S_max, mult) is built
once, by `_r1_forms`, and a form with S_max >= 2^62 takes the Python
side.  The norms go in slices of at most _CHUNK, so that no array spans
every norm, each split once by an int64 guard (`_r1_batch_band`) into
caps taken in int64 and forms built in Python ints, and each slice's
fibers with S_max < 2^62 go to the int64 side in one call.
Every r >= 2 norm goes through its own per-norm Python path
(`_good_chunk_worker`) with unbounded integers.  All bound comparisons
are integer-exact, integer roots included (Newton from above, seeded for
square roots from a table of isqrt over 16-bit integers and otherwise
from a power of two); no floating point enters any count.

numpy is imported inside the functions that use it, and the process
pool only on the pooled branch, so importing this module costs neither.
A count loads numpy only when an array step has enough work to repay
the import (about 0.05 s with the one BLAS thread the CLI sets).  A walk
of fewer than about _NUMPY_WALK_MIN orbit representatives (`_numpy_walk`)
takes the Python fold.  Over such a base, an r = 1 count whose forms
with S_max < 2^62 have fewer than _NUMPY_ROWS_MIN y_0 rows takes the
Python side, before numpy loads, and so does a P^1 stratum; `_count_r1`
reads which walk was taken off the histogram's type (lists or arrays).
Both choices depend only on the input's size, both sides give the same
counts, and bigness is checked before either.
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
from math import factorial, fsum, gamma, gcd, isfinite, isqrt, log, nan, pi
from typing import TYPE_CHECKING, Iterator, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

from .geometry import HKVariety, LineBundleClass, ProjectiveSpace, Stratum, require_big
from .heights import HKRationalPoint, ProjectivePoint, Region, height_L_sq, region_strata


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
    """n + 1, the length of a table indexed 0..n, if 8 bytes an entry (an
    int64 table's) fit in sys.maxsize bytes.  A longer one raises
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
# memory: the numpy walk of P^3 to norm^2 2500 (`verify --suite oracle`
# then) peaked at 90.7 MB with 2^16 and 84.3 MB with 2^14 (84.5 MB with
# the per-vector Python walk), at the same speed.
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


def _orbit_prefixes(dim: int, n2max: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """The prefixes u_1 <= ... <= u_(dim-1) of the orbit representatives
    of canonical primitive vectors in Z^dim with norm^2 <= n2max, as
    (norm^2 so far, gcd so far, prev, top, same, new) in Python ints: the
    last coordinate runs over prev .. top, with weight `same` at u = prev
    and `new` above it.  Both folds read this one walk.

    Norm^2 and gcd do not change under signs and permutations of the
    coordinates, so a fold visits one representative per orbit, the
    nondecreasing 0 <= u_1 <= ... <= u_dim, and weights it by the number
    of canonical vectors in its orbit: 2^(nz - 1) dim! / prod m_j!, with
    nz nonzero coordinates and runs of m_j equal values.  Level i (from
    0) takes u from prev to top = isqrt(rem // k), rem the budget left and
    k = dim - i, since the k coordinates left are all at least u.  So
    k u^2 <= rem, the next level's budget rem - u^2 is at least
    (k - 1) u^2, and its top is at least u: prev <= top at every level.
    A u equal to prev extends its run and multiplies w by
    (i + 1) / (run + 1), a larger u starts a run and multiplies it by
    i + 1 -- which builds the multinomial -- and a nonzero u after a
    nonzero one doubles it.  The prefixes come in lexicographic order.

    A weight counts lattice points of the box [-k, k]^dim, k = isqrt(n2max),
    and so does a histogram entry or the sum of a block's weights: all stay
    below (2k + 1)^dim, every partial w too (each factor is >= 1), and
    w * (i + 1) below dim times that.  Where that is below 2^62, every
    value here fits int64 (`_primitive_norm_blocks`).
    """
    def rec(depth, rem, g, prev, run, w):
        top = isqrt(rem // (dim - depth))
        same = w * (depth + 1) // (run + 1) << (prev > 0)  # u = prev
        new = w * (depth + 1) << (prev > 0)  # u > prev
        if depth == dim - 1:
            yield n2max - rem, g, prev, top, same, new
            return
        yield from rec(depth + 1, rem - prev * prev, g, prev, run + 1, same)
        for u in range(prev + 1, top + 1):
            yield from rec(depth + 1, rem - u * u, gcd(g, u), u, 1, new)

    return rec(0, n2max, 0, 0, 0, 1)


def _orbit_fold(dim: int, n2max: int) -> Iterator[tuple[int, int]]:
    """(norm^2, weight) over the gcd-1 representatives of `_orbit_prefixes`,
    one at a time in Python ints, so it needs no numpy."""
    for done, g, prev, top, same, new in _orbit_prefixes(dim, n2max):
        if g == 1:  # gcd(g, prev) = g
            yield done + prev * prev, same
        for u in range(prev + 1, top + 1):
            if g == 1 or gcd(g, u) == 1:
                yield done + u * u, new


def _primitive_norm_blocks(dim: int, n2max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """int64 blocks (norms^2, weights) that together count the canonical
    primitive vectors in Z^dim with norm^2 <= n2max: the representatives
    `_orbit_fold` yields, in the same order.  The prefixes of
    `_orbit_prefixes` come in batches of _CHUNK // 4; a batch of _CHUNK
    Python tuples raised the walk's tracemalloc peak of P^2 to 2^18 from
    2.1 to 6.3 MiB.  The last coordinate of a batch is expanded in one
    ragged arange per slice of about _CHUNK values and gets its gcd test
    there.  A box whose bound reaches 2^62 raises OverflowError:
    `_numpy_walk` gives every such walk to `_orbit_fold`.
    """
    import numpy as np

    if (2 * isqrt(n2max) + 1) ** dim * dim >= _INT64_SAFE:
        raise OverflowError(f"the box of Z^{dim} to norm^2 {n2max} passes int64")
    prefixes = _orbit_prefixes(dim, n2max)
    while batch := list(islice(prefixes, _CHUNK // 4)):
        done, g, prev, top, same, new = np.array(batch, dtype=np.int64).T
        width = top - prev + 1
        for a, b in _blocks(width):
            row, u = _ragged_arange(prev[a:b], width[a:b])
            row += a
            keep = np.gcd(g[row], u) == 1
            row, u = row[keep], u[keep]
            yield done[row] + u * u, np.where(u == prev[row], same[row], new[row])


# A base walk of P^n takes the numpy blocks from about this many orbit
# representatives on, and `_orbit_fold` below: n2max 254,648 on P^1,
# 10,951 on P^2 and 2,790 on P^3.  There (2-vCPU VM, Python 3.11, numpy
# 2.4, best of 5, numpy loaded) `_norm_histogram` took 0.025, 0.020 and
# 0.027 s folded against 0.005, 0.004 and 0.008 s from the blocks, an
# excess of about 0.4 of `import numpy` after `import hkcount.cli`
# (0.047 s, median of 9): a base the fold takes may still need numpy for
# its r = 1 rows.  From the CLI (median of 11 fresh processes each),
# bundle (6, 1) on X_2(1) at B = 505 (35,742 rows, numpy either way) took
# 0.366 s folded and 0.295 s from the blocks; on X_3(1) at B = 105 and
# X_4(1) at B = 53 (no numpy for their rows) 0.152 and 0.184 s folded
# against 0.183 and 0.228 s.  At twice the representatives (B = 714 and
# 63, median of 9) the first took 0.525 against 0.436 s and the last
# 0.152 against 0.169 s, so the bound stays where the two kinds of base
# trade about evenly.
_NUMPY_WALK_MIN = 10 ** 5


def _numpy_walk(n: int, n2max: int) -> bool:
    """Whether the walk of P^n to n2max takes the numpy blocks: its about
    V_k n2max^(k/2) / (2^k k!) representatives, k = n + 1, reach
    _NUMPY_WALK_MIN, and the box bound of `_primitive_norm_blocks` keeps
    every int64 and table entry below 2^62.  Python ints fold the rest."""
    k = n + 1
    if (2 * isqrt(n2max) + 1) ** k * k >= _INT64_SAFE:
        return False
    reps = (pi * n2max / 4) ** (k / 2) / gamma(k / 2 + 1) / factorial(k)
    return reps >= _NUMPY_WALK_MIN


def _norm_histogram(n: int, n2max: int) -> tuple[Sequence[int], Sequence[int]]:
    """(norms, mults): the distinct norm^2, ascending, of the canonical
    primitive vectors in Z^{n+1} with norm^2 <= n2max, and how many
    vectors have each.  int64 arrays from the numpy walk, lists of Python
    ints from `_orbit_fold`.  A bound past any table of n2max + 1 entries
    raises MemoryError on either walk.

    The dense table over 0..n2max is int32 when the box bound of
    `_primitive_norm_blocks`, (2 isqrt(n2max) + 1)^(n+1), is below 2^31:
    no entry can exceed it (P^1 through n2max of about 5 * 10^8).  Larger
    walks keep an int64 table."""
    size = _table_length(n2max)
    if not _numpy_walk(n, n2max):
        counts: dict[int, int] = {}
        for m, w in _orbit_fold(n + 1, n2max):
            counts[m] = counts.get(m, 0) + w
        norms = sorted(counts)
        return norms, [counts[m] for m in norms]
    import numpy as np

    box = (2 * isqrt(n2max) + 1) ** (n + 1)
    dtype = np.int32 if box < 1 << 31 else np.int64
    hist = np.zeros(size, dtype=dtype)
    for norms, weights in _primitive_norm_blocks(n + 1, n2max):
        # np.add.at casts mixed dtypes element by element, 20x slower
        np.add.at(hist, norms, weights.astype(dtype, copy=False))
    norms = np.flatnonzero(hist)
    mults = hist[norms]
    del hist  # the table goes before the int64 copy is made
    return norms, mults.astype(np.int64)


def primitive_norm_power_sum(dim: int, n2max: int, s: float) -> float:
    """fsum of norm^(-s) over the canonical primitive vectors of Z^dim with
    norm^2 <= n2max, from the walk `_norm_histogram` takes: one float sum
    per numpy block, or one term per orbit representative of the fold."""
    if _numpy_walk(dim - 1, n2max):
        terms = (float((w * v ** (-0.5 * s)).sum())
                 for v, w in _primitive_norm_blocks(dim, n2max))
    else:
        terms = (w * v ** (-0.5 * s) for v, w in _orbit_fold(dim, n2max))
    return fsum(terms)


def projective_norm_histogram(n: int, n2max: int) -> dict[int, int]:
    """Counts of canonical primitive vectors in Z^{n+1} grouped by norm^2
    (keys ascending)."""
    norms, mults = _norm_histogram(n, n2max)
    if isinstance(norms, list):
        return dict(zip(norms, mults))
    return dict(zip(norms.tolist(), mults.tolist()))


def count_enum_projective(n: int, B: Union[int, Fraction]) -> int:
    """N(P^n, B) by direct enumeration (reference path): the sum of the
    base histogram, whose walk tests the gcd of one representative per
    orbit under signs and permutations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = _squared_cap(B)
    return int(sum(_norm_histogram(n, p // q)[1]))


def _ball_count(k: int, m: int) -> int:
    """Number of integer vectors in Z^k with norm^2 <= m (origin included).

    k = 3 sums over the cone 0 <= x <= y <= z and weights each point by
    its orbit under signs and permutations: 2^(#nonzero coordinates) times
    6, 3 or 1 when the coordinates are distinct, two equal or all equal.
    For each x the points with x < y < z come from one isqrt sum over y in
    (x, isqrt((m - x^2) // 2)].  k = 4 is Jacobi's four-square theorem,
    r_4(n) = 8 sum_{d | n, 4 not | d} d, summed over n <= m:
    1 + 8 (D(m) - 4 D(m // 4)) with D(x) = sum_{n <= x} sigma(n), so it
    takes O(sqrt m) steps (`_sigma_prefix`).  k = 2 and k >= 5 recurse
    over the first coordinate, down to k = 1 and k = 4.  Integers only;
    every lattice point is counted, with no gcd.  The P^1 count takes the
    r = 1 disk count instead (`_count_projective_n2`), so k = 2 serves
    only the tests.
    """
    if m < 0:
        return 0
    if k == 1:
        return 2 * isqrt(m) + 1
    if k == 4:
        return 1 + 8 * (_sigma_prefix(m) - 4 * _sigma_prefix(m // 4))
    sq = [x * x for x in range(isqrt(m) + 1)]
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


def _mobius_table(n: int) -> memoryview:
    """mu(y) at index y = 1..n of a signed-byte memoryview (index 0 reads 0).

    Every byte of y >= 2 starts at 2, "untouched", so the next byte still
    2 is the next prime p.  `bytes.translate` flips the sign of p's
    multiples (2 reads as +1) and a zero slice clears the multiples of
    p^2.  A prime above n / 2 has no other multiple, so the bytes still 2
    past n / 2 are primes and take -1 in one replace.  Only C-level slice
    operations touch the bytes: the table is n + 1 bytes, and its slice
    copies peak at about as many more."""
    size = _table_length(n)
    mu = bytearray(b"\x02") * size
    mu[:2] = b"\x00\x01"[:size]
    flip = bytes.maketrans(b"\x01\x02\xff", b"\xff\xff\x01")
    half = n // 2 + 1
    p = mu.find(2, 2, half)
    while p != -1:
        mu[p::p] = mu[p::p].translate(flip)
        if p * p <= n:
            mu[p * p::p * p] = bytes(n // (p * p))
        p = mu.find(2, p + 1, half)
    mu[half:] = mu[half:].replace(b"\x02", b"\xff")
    return memoryview(mu).cast("b")


def _count_projective_n2(n: int, n2max: int) -> int:
    """N(P^n, .) with the bound given as max allowed norm^2 (exact Mobius
    sieve).  The points of P^1 other than [0:1] are the coprime (y_0, y_1)
    with y_0 >= 1 and y_0^2 + y_1^2 <= n2max: the r = 1 fiber over the
    base norm 1 for a_r = 0, lam = 1, mu = 0, which `_count_r1` routes."""
    if n2max < 1:
        return 0
    if n == 1:
        return _count_r1(((0, 0), 0, 1, 0, n2max, 1), [1], [1])[0] + 1
    total = sum(m * (_ball_count(n + 1, n2max // (d * d)) - 1)
                for d, m in enumerate(_mobius_table(isqrt(n2max))) if m)
    assert total % 2 == 0
    return total // 2


def count_projective_moebius(n: int, B: Union[int, Fraction]) -> int:
    """Independent counting oracle: Mobius sieve over lattice-ball counts,
    or for P^1 over the rows of the r = 1 disk count; neither tests a gcd."""
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
    """Sum of mult * (the r = 1 fiber count of the form
    c_0 y_0^2 + y_1^2 <= S_max), and its y_0 rows, over int64 arrays with
    1 <= c_0 <= S_max < 2^62: the int64 side of `_count_r1_forms`'s sum,
    which P^1 reaches too (c_0 = 1, through `_count_projective_n2`).

    The count of coprime (y_0, y_1) with y_0 >= 1 is, by Mobius inversion
    over d = gcd(y_0, y_1) (Schanuel 1979), sum over d of
    mu(d) E(c_0, S_max // d^2), where E(c, T) =
    sum_{k = 1}^{isqrt(T // c)} (2 isqrt(T - c k^2) + 1) counts every
    lattice point with y_0 >= 1 and tests no gcd.  With Y =
    isqrt(S_max // c_0) and M(y_0) = isqrt(S_max - c_0 y_0^2), the term of
    (d, k) is 2 (M(d k) // d) + 1, since isqrt(N // d^2) = isqrt(N) // d,
    and k runs to Y // d.  So M is taken once per row y_0 = 1 .. Y, and
    the terms are gathered from it: the sum over the multiples of each
    squarefree d, mu from `_mobius_table`.

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
    bound of `_primitive_norm_blocks`).  The rows reported are Y per norm.
    """
    import numpy as np

    top0 = _iroot_array(smax // c0, 2)
    if not top0.size:
        return 0, 0
    mob = np.frombuffer(_mobius_table(int(top0.max())), dtype=np.int8)
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
    """`_fiber_params` and the r = 1 fiber count over every base norm: the
    sum of mult * fiber count, and the y_0 rows, isqrt(S_max // c_0) per
    norm.  The one router between the Python side of the disk count and
    the int64 one, for U counts and for P^1 (`_count_projective_n2`).

    A small base (lists from `_orbit_fold`) takes the Python side
    (`_count_r1_forms`) from one `_r1_forms` pass, before numpy loads,
    unless its rows reach _NUMPY_ROWS_MIN.  Otherwise each slice of at
    most _CHUNK norms is split once by `_r1_batch_band`: the norms outside
    the band take their forms from `_r1_forms`, those in it their caps in
    int64 (a cap p // q // m^k with p // q >= 2^62 is divided in Python
    ints and only its quotient enters int64; for e = 0 the one S_max is
    broadcast).  Each slice's forms with S_max >= 2^62 take the Python
    side, and its other fibers go to `_count_r1_mobius` in one call.
    """
    if isinstance(norms, list):
        forms = _r1_forms(args, norms, mults, _NUMPY_ROWS_MIN)
        if forms is not None:
            return _count_r1_forms(forms[0] + forms[1])
    import numpy as np

    lo, hi = _r1_batch_band(*args[1:])
    _, ar, lam, mu, p, q = args
    e = lam * ar - mu
    P = p // q
    norms, mults = (np.asarray(a, dtype=np.int64) for a in (norms, mults))
    total = rows = 0
    for a in range(0, norms.size, _CHUNK):
        m, mult = norms[a:a + _CHUNK], mults[a:a + _CHUNK]
        inside = (m >= lo) & (m <= hi)
        wide, narrow = _r1_forms(args, m[~inside].tolist(),
                                 mult[~inside].tolist())
        fibers = np.array(narrow, dtype=np.int64).reshape(-1, 3).T
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
        for count, r in (_count_r1_mobius(*fibers), _count_r1_forms(wide)):
            total += count
            rows += r
    return total, rows


def _good_chunk_worker(args: tuple) -> tuple[int, int]:
    """The r >= 2 per-norm path and pool worker: count a chunk of base
    norms one by one with unbounded integers, given as lists of Python
    ints, never as int64 arrays, whose elements wrap on overflow."""
    *params, norms, mults = args
    count = visited = 0
    for m, mult in zip(norms, mults):
        c, v = _count_fiber_good(*_fiber_params(*params, m))
        count += mult * c
        visited += v
    return count, visited


# r = 1 counts over a small base, and P^1 strata, whose forms with
# S_max < 2^62 have fewer y_0 rows than this are counted in Python ints
# (`_count_r1_forms`), which needs no numpy.  From the CLI, bundle (1, 6)
# on X_2(1) (2-vCPU VM, Python 3.11, numpy 2.4; median of 21 to 25 fresh
# processes each, Python ints against int64, which pays the import of
# numpy): 19.3k rows took 0.121 against 0.181 s, 74.9k rows
# 0.199 against 0.231 s, 89.7k rows 0.204 against 0.215 s, 99.9k and
# 110.1k rows 0.197 and 0.212 s against 0.196 and 0.208 s, and 204.3k
# rows 0.373 against 0.291 s.  The P^1 F count of X_2(1) -K at B = 10^5
# (10^5 rows) took 0.193 against 0.196 s.  The two meet near 10^5 rows.
_NUMPY_ROWS_MIN = 10 ** 5


def _r1_forms(args: tuple, norms: Sequence[int], mults: Sequence[int],
              rows_min: int | None = None) -> tuple[list, list] | None:
    """The r = 1 forms (c_0, S_max, mult) of `_fiber_params` over lists of
    Python ints, one call per norm: (wide, narrow), the forms with
    S_max >= 2^62 and those with c_0 <= S_max < 2^62.  A norm with
    c_0 > S_max has no fiber point and no form.  With rows_min, None once
    the narrow forms' y_0 rows, isqrt(S_max // c_0) each, reach it."""
    wide, narrow, rows = [], [], 0
    for m, mult in zip(norms, mults):
        (c0, _), smax = _fiber_params(*args, m)
        if smax >= _INT64_SAFE:
            wide.append((c0, smax, mult))
        elif c0 <= smax:
            narrow.append((c0, smax, mult))
            rows += isqrt(smax // c0)
            if rows_min is not None and rows >= rows_min:
                return None
    return wide, narrow


def _count_r1_forms(forms: Sequence[tuple[int, int, int]]) -> tuple[int, int]:
    """The Python side of the r = 1 disk count: the sum of mult * fiber
    count, and the y_0 rows Y = isqrt(S_max // c_0), over the Python-int
    forms (c_0, S_max, mult) of `_r1_forms`.  It is `_count_r1_mobius`'s
    sum in Python ints: M[y] = isqrt(S_max - c_0 y^2) for y = 1 .. Y, and
    the fiber count is sum over squarefree d <= Y of
    mu(d) (2 sum_k (M[d k] // d) + Y // d), with one `_mobius_table` for
    every form, built before any M, so that a table too large to allocate
    raises MemoryError first."""
    tops = [isqrt(smax // c0) for c0, smax, _ in forms]
    mob = _mobius_table(max(tops, default=0))
    total = 0
    for (c0, smax, k), top in zip(forms, tops):
        M = [isqrt(smax - c0 * y * y) for y in range(top + 1)]
        # d = 1 needs no division; M[d::d] holds the top // d multiples of d
        total += k * (2 * (sum(M) - M[0]) + top + sum(
            mob[d] * (2 * sum(map(d.__rfloordiv__, M[d::d])) + top // d)
            for d in range(2, top + 1) if mob[d]))
    return total, sum(tops)


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
        import signal
        from concurrent.futures import ProcessPoolExecutor

        chunks = [(*args, norms[i::workers], mults[i::workers])
                  for i in range(workers)]
        # a Ctrl-C ends each worker at once, with no traceback of its own,
        # busy or idle, and reaches the caller as its KeyboardInterrupt
        with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_DFL)) as pool:
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
    = C * B^a * (log B)^e and ratio = count / predicted where predicted(B)
    is a positive double and the ratio a finite one, and both are None
    elsewhere (B <= 1 with a log factor, or past the double range).
    """
    vals = [Fraction(b) for b in grid]
    if any(b2 <= b1 for b1, b2 in zip(vals, vals[1:])):
        raise ValueError("grid must be strictly increasing")
    rows = []
    for b in vals:
        res = count_hk(CountRequest(req.variety, req.bundle, b, req.region, req.threads))
        row = {"B": b, "count": res.count, "predicted": None, "ratio": None}
        if prediction is not None:
            try:
                bb = float(b)
                pred = (prediction.constant * bb ** float(prediction.a_l)
                        * log(bb) ** prediction.log_exponent)
                ratio = res.count / pred
            except (OverflowError, ZeroDivisionError):  # past doubles, or 0
                pred = ratio = nan
            if pred > 0 and isfinite(pred) and isfinite(ratio):
                row["predicted"], row["ratio"] = pred, ratio
        rows.append(row)
    return rows
