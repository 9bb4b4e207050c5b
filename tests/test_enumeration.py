"""Exact counting: enumeration, sieve oracle, fibration counts, fits."""
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkcount import enumeration
from hkcount.constants import _shell_counts
from hkcount.enumeration import (
    CountRequest,
    _ball_count,
    _canonical_vectors,
    _canonical_walk,
    _count_r1,
    _iroot_array,
    _mobius_table,
    _orbit_fold,
    _primitive_norm_blocks,
    _squared_cap,
    count_enum_projective,
    count_hk,
    count_projective_moebius,
    count_subbundle_direct,
    enum_hk_points,
    iroot,
    projective_norm_histogram,
    sweep,
)
from hkcount.geometry import (
    HKVariety,
    LineBundleClass,
    NotBigError,
    ProjectiveSpace,
    anticanonical,
)
from hkcount.heights import (
    HKRationalPoint,
    ProjectivePoint,
    Region,
    height_le,
)
from support import DegenerateFitError, estimate_exponent, region_of


class TestPrimitives:
    @given(st.integers(0, 10 ** 18), st.integers(1, 7))
    def test_iroot_is_floor_root(self, n, k):
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    @settings(deadline=None)
    @given(st.integers(2 ** 1000, 2 ** 3000), st.integers(1, 70))
    def test_iroot_beyond_float_range(self, n, k):
        # a float seed overflows above 2^1024; the integer seed does not
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 2 ** 62 - 1), min_size=1, max_size=20),
           st.integers(1, 62))
    def test_iroot_array_matches_iroot(self, ns, k):
        got = _iroot_array(np.array(ns, dtype=np.int64), k)
        assert got.tolist() == [iroot(n, k) for n in ns]

    def test_iroot_array_square_roots(self):
        # the table seed on every 20-bit n, and on the edges of its bit
        # lengths and of the squares of the int64 roots the r = 1 step
        # meets (isqrt(2^63 - 1) = 3037000499), up to the top of int64
        n = np.arange(1 << 20, dtype=np.int64)
        assert _iroot_array(n, 2).tolist() == [isqrt(v) for v in range(1 << 20)]
        edges = sorted(
            v for v in {(1 << j) + d for j in range(64) for d in (-1, 0, 1)}
            | {r * r + d for r in (2 ** 30, 2 ** 31 - 1, 2 ** 31, 3037000499)
               for d in (-1, 0, 1)}
            if v < 2 ** 63)
        got = _iroot_array(np.array(edges, dtype=np.int64), 2)
        assert got.tolist() == [isqrt(v) for v in edges]

    def test_blocks_drop_repeated_cuts(self):
        # a row wider than several blocks puts repeated cuts at one index
        c = enumeration._CHUNK
        for width in ([0, 3 * c, 1], [3 * c], [c, c, 0, 0, c + 1], [5, 7], []):
            slices = list(enumeration._blocks(np.array(width, dtype=np.int64)))
            if not width:
                assert slices == []
                continue
            starts, stops = zip(*slices)
            assert starts == (0, *stops[:-1]) and stops[-1] == len(width)
            assert all(a < b and sum(width[a:b - 1]) <= c for a, b in slices)

    def test_mobius_table_equals_trial_division(self):
        # mu(y) from the prime factors that trial division finds, every
        # y <= n for every n <= 2000
        want = [0]
        for y in range(1, 2001):
            x, sign, p = y, 1, 2
            while p * p <= x and sign:
                if x % p == 0:
                    x //= p
                    sign = 0 if x % p == 0 else -sign
                p += 1
            want.append(sign if x == 1 or not sign else -sign)
        for n in range(2001):
            mu = _mobius_table(n)
            assert (mu.format, len(mu)) == ("b", n + 1)
            assert list(mu[1:]) == want[1:n + 1], n

    @pytest.mark.parametrize("n, mertens", [
        (1000, 2), (10 ** 4, -23), (10 ** 5, -48), (10 ** 6, 212)])
    def test_mobius_table_gives_mertens(self, n, mertens):
        # M(n) = sum_{y <= n} mu(y) [DERIVED: OEIS A084237]
        assert sum(_mobius_table(n)) == mertens

    def test_mobius_table_peak_memory(self):
        # one byte an entry, and the slice copies of the sieve on top: at
        # most 2.5 bytes an entry at peak
        n = 10 ** 6
        tracemalloc.start()
        try:
            _mobius_table(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n

    def test_table_past_the_address_space_is_beyond_reach(self):
        # 8 bytes a slot: the last length that fits sys.maxsize bytes is
        # accepted, the next is refused before any byte is touched
        last = sys.maxsize // 8
        assert enumeration._table_length(last - 1) == last
        with pytest.raises(MemoryError):
            enumeration._table_length(last)
        with pytest.raises(MemoryError):
            _mobius_table(10 ** 20)

    # the squarefree divisors and their Mobius signs that the per-norm
    # path's coprime count reads (`_squarefree_divisors`), every y <= ymax
    @pytest.mark.parametrize("ymax", [1, 2, 3, 4, 5, 7, 30, 210])
    def test_divisor_table_equals_trial_division(self, ymax):
        for y in range(1, ymax + 1):
            want = []
            for d in range(1, y + 1):
                primes = [p for p in range(2, d + 1)
                          if d % p == 0 and all(p % k for k in range(2, p))]
                if y % d == 0 and all(d % (p * p) for p in primes):
                    want.append((d, (-1) ** len(primes)))
            assert sorted(enumeration._squarefree_divisors(y)) == want

    def test_projective_line_small(self):
        # H <= 2 keeps [1:0],[0:1],[1:1],[1:-1]; H <= 3 adds [1:+-2],[2:+-1]
        assert count_enum_projective(1, 2) == 4
        assert count_enum_projective(1, 3) == 8

    def test_histogram_matches_enumeration(self):
        hist = projective_norm_histogram(2, 100)
        assert sum(hist.values()) == count_enum_projective(2, 10)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_histogram_equals_python_walk(self, data):
        # the folded numpy block walk against the plain per-vector walk;
        # sizes this small build the histogram from the latter
        n = data.draw(st.integers(1, 3))
        n2max = data.draw(st.integers(0, {1: 3000, 2: 600, 3: 150}[n]))
        expected: dict[int, int] = {}
        for _, m in _canonical_vectors(n + 1, n2max):
            expected[m] = expected.get(m, 0) + 1
        blocks: dict[int, int] = {}
        for norms, weights in _primitive_norm_blocks(n + 1, n2max):
            for m, w in zip(norms.tolist(), weights.tolist()):
                blocks[m] = blocks.get(m, 0) + w
        assert blocks == expected
        hist = projective_norm_histogram(n, n2max)
        assert hist == expected
        assert list(hist) == sorted(hist)

    def test_histogram_sides_agree(self, monkeypatch):
        # the same dict, keys ascending, from either side of the walk bound,
        # and the same (norms, mults) pair the count takes: int64 arrays
        # from the blocks, Python ints from the stream
        for n, n2max in ((1, 400), (2, 90), (3, 30)):
            monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", 0)
            blocks = projective_norm_histogram(n, n2max)
            arrays = enumeration._norm_histogram(n, n2max)
            monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", 10 ** 30)
            stream = projective_norm_histogram(n, n2max)
            lists = enumeration._norm_histogram(n, n2max)
            assert list(blocks.items()) == list(stream.items())
            assert all(a.dtype == np.int64 for a in arrays)
            assert all(type(v) is int for a in lists for v in a)
            pair = (list(stream), list(stream.values()))
            assert tuple(a.tolist() for a in arrays) == tuple(lists) == pair

    @pytest.mark.parametrize("n2max, dtype", [(11663, np.int32),
                                              (11664, np.int64)])
    def test_table_dtype_follows_the_box_bound(self, monkeypatch, n2max,
                                               dtype):
        # P^3: the box bound (2 isqrt(n2max) + 1)^4 is 215^4 < 2^31 at
        # n2max = 108^2 - 1 and 217^4 >= 2^31 at 108^2, where the table
        # turns int64.  Prefix sums of the histogram are N(P^3) at every
        # bound (the Mobius sieve), and its small norms are the stream's.
        assert (215 ** 4 < 2 ** 31) and (217 ** 4 >= 2 ** 31)
        tables = []
        zeros = np.zeros

        def spy(shape, dtype=float):
            tables.append((shape, np.dtype(dtype)))
            return zeros(shape, dtype=dtype)

        monkeypatch.setattr(np, "zeros", spy)
        norms, mults = enumeration._norm_histogram(3, n2max)
        monkeypatch.undo()
        assert (n2max + 1, np.dtype(dtype)) in tables
        assert mults.dtype == np.int64
        cum = np.cumsum(mults)
        for bound in (1, 2, 400, 2500, 7000, n2max):
            at = np.searchsorted(norms, bound, side="right") - 1
            assert int(cum[at]) == enumeration._count_projective_n2(3, bound)
        small = norms <= 150
        assert dict(zip(norms[small].tolist(), mults[small].tolist())) == \
            _stream_histogram(4, 150)

    def test_walk_blocks_are_bounded(self):
        n2max = 2 ** 20
        blocks = list(_primitive_norm_blocks(2, n2max))
        assert all(norms.shape == weights.shape for norms, weights in blocks)
        sizes = [norms.size for norms, _ in blocks]
        assert len(sizes) > 1
        assert max(sizes) <= enumeration._CHUNK + 2 * isqrt(n2max) + 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 25))
    def test_enum_equals_moebius(self, n, B):
        assert count_enum_projective(n, B) == count_projective_moebius(n, B)

    def test_fractional_bound(self):
        # H^2 <= 9/4 keeps exactly the height-1 and sqrt(2) points
        assert count_enum_projective(1, Fraction(3, 2)) == 4

    def test_points_are_canonical_and_within_bound(self):
        # ProjectivePoint rejects a vector that is not canonical primitive
        walk = list(_canonical_vectors(2, 25))
        pts = [ProjectivePoint(v) for v, _ in walk]
        assert len(pts) == len(set(pts)) == count_enum_projective(1, 5)
        for v, norm in walk:
            assert sum(x * x for x in v) == norm <= 25

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stream_equals_block_count(self, n):
        # the _canonical_vectors stream against the block walk's count
        for B in range(1, 13):
            assert sum(1 for _ in _canonical_vectors(n + 1, B * B)) == \
                count_enum_projective(n, B)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 50))
    def test_ragged_chunks_cut_the_concatenated_ranges(self, width, size):
        want = [(i, k) for i, w in enumerate(width) for k in range(w)]
        blocks = list(enumeration._ragged_chunks(
            np.array(width, dtype=np.int64), size))
        assert all(0 < row.size <= size for row, _ in blocks)
        got = [(i, k) for row, ks in blocks
               for i, k in zip(row.tolist(), ks.tolist())]
        assert got == want


def _stream_histogram(dim, n2max):
    """Norm^2 histogram of the per-vector `_canonical_vectors` stream."""
    counts: dict[int, int] = {}
    for _, m in _canonical_vectors(dim, n2max):
        counts[m] = counts.get(m, 0) + 1
    return counts


def _fold_histogram(dim, n2max):
    counts: dict[int, int] = {}
    for norms, weights in _primitive_norm_blocks(dim, n2max):
        assert norms.dtype == weights.dtype == np.int64
        for m, w in zip(norms.tolist(), weights.tolist()):
            counts[m] = counts.get(m, 0) + w
    return counts


def _python_fold_histogram(dim, n2max):
    counts: dict[int, int] = {}
    for m, w in _orbit_fold(dim, n2max):
        assert type(m) is type(w) is int
        counts[m] = counts.get(m, 0) + w
    return counts


def _first_numpy_walk(n):
    """The least n2max whose walk of P^n takes the numpy blocks (for
    n <= 3 the choice is monotone up to 10^7)."""
    lo, hi = 1, 10 ** 7
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if enumeration._numpy_walk(n, mid) else (mid + 1, hi)
    return lo


class TestOrbitFold:
    """The walk over one weighted representative per orbit under signs
    and permutations, in numpy blocks and in Python ints, against the
    unfolded `_canonical_vectors` stream."""

    TOP = {2: 2000, 3: 150, 4: 40, 5: 20, 6: 12}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_stream(self, data):
        dim = data.draw(st.integers(2, 6), label="dim")
        top = self.TOP[dim]
        # n2max 0 or 1, a perfect square, j u^2 (plus 0-2: a run of j equal
        # coordinates u on or just inside the cap), or anything
        n2max = data.draw(st.one_of(
            st.sampled_from([0, 1]),
            st.integers(0, isqrt(top)).map(lambda u: u * u),
            st.builds(lambda j, u, e: j * u * u + e, st.integers(2, dim),
                      st.integers(1, isqrt(top // dim)), st.integers(0, 2)),
            st.integers(0, top)), label="n2max")
        stream = _stream_histogram(dim, n2max)
        assert _fold_histogram(dim, n2max) == stream
        assert _python_fold_histogram(dim, n2max) == stream

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_walks_agree_across_the_crossover(self, n):
        # at the last n2max of the Python fold and the first of the numpy
        # blocks, each walk gives the same histogram, and the one taken
        # has its type; P^1 is checked against the stream in full, P^2
        # and P^3 to norm^2 300, and all of them by prefix sums against
        # the Mobius sieve (the full streams take 1 s and 10 s)
        top = _first_numpy_walk(n)
        stream_top = top if n == 1 else 300
        stream = _stream_histogram(n + 1, stream_top)
        for n2max, kind in ((top - 1, list), (top, np.ndarray)):
            assert isinstance(enumeration._norm_histogram(n, n2max)[0], kind)
            walks = []
            for walk_min in (0, 10 ** 30):  # the blocks, then the fold
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(enumeration, "_NUMPY_WALK_MIN", walk_min)
                    walks.append(projective_norm_histogram(n, n2max))
            assert walks[0] == walks[1]
            assert {m: k for m, k in walks[0].items() if m <= stream_top} \
                == {m: k for m, k in stream.items() if m <= n2max}
            cum = list(itertools.accumulate(walks[0].values()))
            norms = list(walks[0])
            for bound in (n2max // 7, n2max // 2, n2max):
                at = np.searchsorted(norms, bound, side="right") - 1
                assert cum[at] == enumeration._count_projective_n2(n, bound)

    def test_one_representative_per_orbit(self):
        # Z^3, norm^2 <= 3: (0,0,1) stands for 3 canonical vectors,
        # (0,1,1) for 3 positions times 2 sign classes, (1,1,1) for 4
        blocks = list(_primitive_norm_blocks(3, 3))
        norms = np.concatenate([n for n, _ in blocks]).tolist()
        weights = np.concatenate([w for _, w in blocks]).tolist()
        assert sorted(zip(norms, weights)) == [(1, 3), (2, 6), (3, 4)]

    def test_box_over_int64_takes_the_python_fold(self, monkeypatch):
        calls = []
        fold = enumeration._orbit_fold

        def spy(dim, n2max):
            calls.append((dim, n2max))
            return fold(dim, n2max)

        monkeypatch.setattr(enumeration, "_orbit_fold", spy)
        # a box of 3^40 >= 2^62 points; and 3^36, where w * (i + 1) can
        # reach 36 times the box before the division: `_numpy_walk` gives
        # them to the Python fold, and the numpy blocks refuse them
        for dim in (40, 36):
            assert 3 ** dim * dim >= 2 ** 62
            assert not enumeration._numpy_walk(dim - 1, 1)
            assert projective_norm_histogram(dim - 1, 1) == {1: dim}
            assert calls.pop() == (dim, 1)
            with pytest.raises(OverflowError):
                next(_primitive_norm_blocks(dim, 1))
        assert enumeration._norm_histogram(35, 2) == tuple(
            map(list, zip(*sorted(_stream_histogram(36, 2).items()))))
        assert calls.pop() == (36, 2)
        # the count and the histogram fold such a box in Python ints
        assert count_enum_projective(39, 1) == 40
        assert calls.pop() == (40, 1)
        assert projective_norm_histogram(35, 2) == _stream_histogram(36, 2)
        assert calls.pop() == (36, 2)
        # high dimension, small norm: the fold runs and equals the stream
        for dim, n2max in ((35, 1), (30, 3)):
            assert _fold_histogram(dim, n2max) == _stream_histogram(dim, n2max)
        assert calls == []


def _canonical_qform_recursive(cs, smax):
    """Canonical primitive y with sum c_i y_i^2 <= smax, one frame per
    coordinate and the gcd tested at the end: the fiber walk the weighted
    `_canonical_walk` replaced."""
    dim = len(cs)
    coords = [0] * dim

    def rec(i, rem, g, leading_zero):
        if i == dim:
            if g == 1:
                yield tuple(coords)
            return
        top = isqrt(rem // cs[i])
        lo = 0 if leading_zero else -top
        for y in range(lo, top + 1):
            coords[i] = y
            yield from rec(i + 1, rem - cs[i] * y * y, math.gcd(g, y),
                           leading_zero and y == 0)

    yield from rec(0, smax, 0, True)


def _box_walk(cs, smax):
    """(y, sum c_i y_i^2) over the box |y_i| <= isqrt(smax // c_i), kept
    when within smax, gcd 1 and first nonzero coordinate positive."""
    ranges = [range(-isqrt(smax // c), isqrt(smax // c) + 1) for c in cs]
    for y in itertools.product(*ranges):
        s = sum(c * v * v for c, v in zip(cs, y))
        if s <= smax and _canonical(y):
            yield y, s


class TestCanonicalWalk:
    """The one canonical walk, weighted for fibers and unit for bases."""

    TOP = {1: 3000, 2: 3000, 3: 300, 4: 40}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_recursion_and_box(self, data):
        cs = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4),
                       label="cs")
        smax = data.draw(st.integers(0, self.TOP[len(cs)]), label="smax")
        got = list(_canonical_walk(cs, smax))
        assert [y for y, _ in got] == list(_canonical_qform_recursive(cs, smax))
        assert got == list(_box_walk(cs, smax))

    @pytest.mark.parametrize("dim, n2max", [(1, 5), (2, 0), (2, 1), (2, 500),
                                            (3, 200), (4, 30), (5, 6)])
    def test_unit_weights_are_the_base_walk(self, dim, n2max):
        got = list(_canonical_vectors(dim, n2max))
        assert got == list(_canonical_walk((1,) * dim, n2max))
        assert got == list(_box_walk((1,) * dim, n2max))


def _ball_count_recursive(k, m):
    """#{v in Z^k : |v|^2 <= m}, one frame per coordinate value: the plain
    recursion the folded kernel replaced."""
    if m < 0:
        return 0
    if k == 1:
        return 2 * isqrt(m) + 1
    total = _ball_count_recursive(k - 1, m)
    x = 1
    while x * x <= m:
        total += 2 * _ball_count_recursive(k - 1, m - x * x)
        x += 1
    return total


class TestBallCount:
    """The folded lattice-ball kernel behind the Mobius sieve."""

    def test_equals_recursion_exhaustively(self):
        # (5, 60) runs the k = 5 -> 4 recursion onto the divisor sum
        for k, top in ((1, 1500), (2, 1500), (3, 1500), (4, 300), (5, 60)):
            for m in range(-2, top):
                assert _ball_count(k, m) == _ball_count_recursive(k, m), (k, m)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 10 ** 5))
    def test_equals_recursion_large(self, k, m):
        assert _ball_count(k, m) == _ball_count_recursive(k, m)

    def test_four_squares_are_the_shell_prefix_sums(self):
        # Jacobi's divisor sum against the plain recursion of constants
        balls = itertools.accumulate(_shell_counts(4, 3000))
        assert [_ball_count(4, m) for m in range(-2, 3001)] == \
            [0, 0] + list(balls)

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 10 ** 5))
    @example(10 ** 5)
    def test_four_squares_equal_the_z3_recursion(self, m):
        # the route the k = 4 branch replaced: one Z^3 ball per x^2 <= m
        top = isqrt(m)
        assert _ball_count(4, m) == _ball_count(3, m) + 2 * sum(
            _ball_count(3, m - x * x) for x in range(1, top + 1))

    @pytest.mark.parametrize("n, B", [(1, 2000), (2, 150), (3, 40), (3, 100),
                                      (4, 20)])
    def test_moebius_equals_enumeration(self, n, B):
        assert count_projective_moebius(n, B) == count_enum_projective(n, B)

    def test_subbundle_pin(self):
        # F of X_3(1) with bundle (1, 2) is P^2 at norm^2 <= 4e6; the value
        # is pinned in bench/pins.json, cross-checked against
        # bench/reference.py
        X = HKVariety(1, 3, (1,))
        t0 = time.perf_counter()
        res = count_hk(CountRequest(X, LineBundleClass(1, 2), Fraction(2000),
                                    Region.SUBBUNDLE_F, 1))
        assert res.count == 13938736657
        assert time.perf_counter() - t0 < 5.0


class TestCountHK:
    def test_regions_partition(self):
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        for b in (1, 3, 7, Fraction(15, 2)):
            w = count_hk(CountRequest(X, L, Fraction(b), Region.WHOLE)).count
            u = count_hk(CountRequest(X, L, Fraction(b), Region.GOOD_OPEN)).count
            f = count_hk(CountRequest(X, L, Fraction(b), Region.SUBBUNDLE_F)).count
            assert w == u + f

    def test_subbundle_reduction_equals_direct(self):
        X = HKVariety(2, 3, (1, 2))
        L = LineBundleClass(2, 5)
        for b in (1, 2, 4):
            via_reduction = count_hk(
                CountRequest(X, L, Fraction(b), Region.SUBBUNDLE_F)).count
            assert via_reduction == count_subbundle_direct(X, L, Fraction(b))

    def test_fast_count_equals_streaming(self):
        X = HKVariety(1, 2, (1,))
        for L in (LineBundleClass(1, 1), LineBundleClass(2, 3),
                  LineBundleClass(3, 1)):
            for b in (2, 6):
                fast = count_hk(CountRequest(X, L, Fraction(b),
                                             Region.GOOD_OPEN)).count
                slow = sum(1 for _ in enum_hk_points(X, L, b, Region.GOOD_OPEN))
                assert fast == slow

    def test_streamed_points_satisfy_bound_and_region(self):
        X = HKVariety(2, 2, (0, 1))
        L = anticanonical(X)
        pts = list(enum_hk_points(X, L, 4, Region.GOOD_OPEN))
        assert len(pts) == len(set(pts))
        for p in pts:
            assert height_le(X, L, p, Fraction(4))
            assert region_of(p) is Region.GOOD_OPEN

    def test_projective_space_request(self):
        # twisted O(k) on P^n counts N(P^n, B^{1/k})
        res = count_hk(CountRequest(ProjectiveSpace(1), 2, Fraction(9)))
        assert res.count == count_enum_projective(1, 3)

    def test_non_big_twist_raises(self):
        with pytest.raises(NotBigError):
            count_hk(CountRequest(ProjectiveSpace(1), 0, Fraction(10)))
        X = HKVariety(1, 2, (1,))
        with pytest.raises(NotBigError):
            count_hk(CountRequest(X, LineBundleClass(1, 1), Fraction(10),
                                  Region.SUBBUNDLE_F))

    def test_infinite_chain_fails_before_counting(self, monkeypatch):
        calls = []
        good_open = enumeration._count_good_open
        monkeypatch.setattr(enumeration, "_count_good_open",
                            lambda *a: calls.append(a) or good_open(*a))
        # the second link of X_4's chain is (3, 1 - 3 * (20 - 4)); its
        # first link, big, is never counted
        X = HKVariety(3, 3, (1, 4, 20))
        for region in (Region.WHOLE, Region.SUBBUNDLE_F):
            with pytest.raises(NotBigError) as exc:
                count_hk(CountRequest(X, LineBundleClass(3, 1), Fraction(2),
                                      region, 1))
            assert str(exc.value) == ("bundle 3,-47 is not big on 2,3:1,4; "
                                      "the count is infinite")
        # the chain ends in the base P^1 with the twist 1 - 1
        with pytest.raises(NotBigError) as exc:
            count_hk(CountRequest(HKVariety(1, 2, (1,)), LineBundleClass(1, 1),
                                  Fraction(3), Region.WHOLE))
        assert str(exc.value) == "twist O(0) on P^1 is not big; the count is infinite"
        assert calls == []

    @pytest.mark.parametrize("X, L, B", [
        (HKVariety(1, 2, (1,)), LineBundleClass(1, 3), 6),
        (HKVariety(2, 3, (1, 2)), LineBundleClass(2, 5), 4),
        (HKVariety(2, 2, (0, 1)), LineBundleClass(3, 4), 5),
        (HKVariety(3, 2, (0, 1, 1)), LineBundleClass(1, 3), Fraction(7, 2)),
    ], ids=["1,2:1", "2,3:1,2", "2,2:0,1", "3,2:0,1,1"])
    def test_subbundle_stream_walks_the_slice(self, X, L, B):
        # reference: walk every fiber vector, keep those with y_0 = 0
        p, q = _squared_cap(B)
        want = []
        for vec, m in _canonical_vectors(X.t, iroot(p // q, L.mu - L.lam * X.a[-1])):
            params = enumeration._fiber_params(X.fiber_weights, X.a[-1],
                                               L.lam, L.mu, p, q, m)
            if params is None:
                continue
            want += [HKRationalPoint(base=ProjectivePoint(vec),
                                     fiber=ProjectivePoint(y))
                     for y in _canonical_qform_recursive(*params)
                     if y[0] == 0]
        got = list(enum_hk_points(X, L, B, Region.SUBBUNDLE_F))
        assert want and got == want

    def test_count_agrees_with_stream_on_a_grid(self):
        # every request of a small grid, lam <= 0 and mu <= 0 included:
        # count_hk and the stream raise the same NotBigError, or the
        # stream yields as many points as count_hk counts
        varieties = [HKVariety(1, t, (a,)) for t in (2, 3) for a in range(3)]
        varieties += [HKVariety(2, t, a) for t in (2, 3) for a in
                      itertools.combinations_with_replacement(range(3), 2)]
        bounds = (Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(4))

        def outcome(run):
            try:
                return run()
            except ValueError as exc:  # NotBigError and any other
                return f"{type(exc).__name__}: {exc}"

        requests = list(itertools.product(varieties, range(-1, 4), range(-1, 6),
                                          bounds, Region))
        assert len(requests) == 7560
        wrong = []
        for X, lam, mu, B, region in requests:
            L = LineBundleClass(lam, mu)
            count = outcome(lambda: count_hk(
                CountRequest(X, L, B, region, 1)).count)
            stream = outcome(lambda: sum(
                1 for _ in enum_hk_points(X, L, B, region)))
            if count != stream or (isinstance(count, str)
                                   and not count.startswith("NotBigError")):
                wrong.append((str(X), str(L), str(B), region.value, count, stream))
        assert wrong == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_surface_pin(self, threads):
        # the count-surface workload of the benchmark: -K on X_2(1), region
        # U, B = 2^30; the count is the bench/pins.json value
        X = HKVariety(1, 2, (1,))
        res = count_hk(CountRequest(X, anticanonical(X), Fraction(2 ** 30),
                                    Region.GOOD_OPEN, threads))
        assert (res.count, res.points_visited) == (15435482828, 600987)

    def test_thread_determinism(self):
        X = HKVariety(1, 2, (1,))
        L = LineBundleClass(1, 1)
        counts = {count_hk(CountRequest(X, L, Fraction(40), Region.GOOD_OPEN,
                                        threads=k)).count for k in (1, 2, 4)}
        assert len(counts) == 1


class TestNumpyImports:
    def test_numpy_walk_loads_no_numpy_ma(self):
        # np.unique imports numpy.ma (10-15 ms); a count on the numpy walk
        # and the batched r = 1 step must not need it
        code = ("import sys\n"
                "from fractions import Fraction\n"
                "from hkcount import enumeration as E\n"
                "from hkcount.geometry import HKVariety, anticanonical\n"
                "from hkcount.heights import Region\n"
                "X = HKVariety(1, 2, (1,))\n"
                "req = E.CountRequest(X, anticanonical(X), Fraction(2 ** 29),"
                " Region.GOOD_OPEN, 1)\n"
                "assert E._numpy_walk(1, E.iroot(2 ** 58, 3))\n"
                "print(E.count_hk(req).count, 'numpy' in sys.modules,"
                " 'numpy.ma' in sys.modules)")
        src = str(Path(enumeration.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        count, numpy, numpy_ma = done.stdout.split()
        X = HKVariety(1, 2, (1,))
        assert int(count) == count_hk(CountRequest(
            X, anticanonical(X), Fraction(2 ** 29), Region.GOOD_OPEN)).count
        assert (numpy, numpy_ma) == ("True", "False")


def _per_norm(args, norms, mults):
    """The per-norm path, with unbounded integers."""
    return enumeration._good_chunk_worker(
        (*args, [int(m) for m in norms], [int(k) for k in mults]))


def _python_params(monkeypatch):
    """The norms `_fiber_params` is called for from now on."""
    params = enumeration._fiber_params
    calls = []

    def spy(*args):
        calls.append(args[-1])
        return params(*args)

    monkeypatch.setattr(enumeration, "_fiber_params", spy)
    return calls


def _per_norm_forms(monkeypatch):
    """The form lists the r = 1 per-norm counter is called with from now
    on."""
    counter = enumeration._count_r1_forms
    calls = []

    def spy(forms):
        calls.append(list(forms))
        return counter(forms)

    monkeypatch.setattr(enumeration, "_count_r1_forms", spy)
    return calls


def _kernel_runs(args, norms):
    """Whether `_count_r1` over these norms calls the int64 kernel."""
    kernel = enumeration._count_r1_mobius
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_count_r1_mobius",
                   lambda *a: seen.append(a) or kernel(*a))
        _count_r1(args, norms, norms)
    return bool(seen)


class TestBatchedFiberStep:
    """The r = 1 route (`_count_r1`) against the per-norm path, on both
    sides of its int64 guard."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20), st.integers(1, 6), st.integers(1, 6),
           st.fractions(1, 60, max_denominator=4))
    def test_equals_per_norm_path(self, a, lam, mu, B):
        args = (HKVariety(1, 2, (a,)).fiber_weights, a, lam, mu,
                *_squared_cap(B))
        norms = np.arange(1, 301, dtype=np.int64)
        mults = norms % 7 + 1
        assert _count_r1(args, norms, mults) == _per_norm(args, norms, mults)

    def test_guard_splits_large_twist(self, monkeypatch):
        # m^119 passes 2^62 from m = 2 on: only m = 1 is in the band, and
        # every other norm takes its S_max in Python ints
        X = HKVariety(1, 2, (20,))
        args = (X.fiber_weights, 20, 6, 1, *_squared_cap(Fraction(89)))
        assert enumeration._r1_batch_band(*args[1:]) == (1, 1)
        norms = np.arange(1, 50, dtype=np.int64)
        want = _per_norm(args, norms, np.ones_like(norms))
        # the cap 7921 m^119 gives S_max >= 2^62 from m = 9 on; norms 2..8
        # go to the int64 kernel and the others are counted per norm, each
        # from the one form built for it
        big = [m for m in range(2, 50) if _smax(args, m) >= _T]
        assert big == list(range(9, 50))
        calls = _python_params(monkeypatch)
        assert _count_r1(args, norms, np.ones_like(norms)) == want
        assert calls == list(range(2, 50))

    @pytest.mark.parametrize("a, bundle, B, walk_min", [
        (1, (1, 6), 8815, None), (19, (5, 1), 90, None), (19, (5, 1), 90, 0)],
        ids=["folded", "folded-large-twist", "array-out-of-band"])
    def test_one_form_per_norm(self, monkeypatch, a, bundle, B, walk_min):
        # each Python-int route builds a norm's form once, and counts it
        # from that build: a folded base counted per norm (9,999 rows at
        # B = 8815, and cli-mix's large twist), and the norms outside the
        # int64 band of an array base, whose S_max mostly reaches 2^62
        X = HKVariety(1, 2, (a,))
        L = LineBundleClass(*bundle)
        p, q = _squared_cap(Fraction(B))
        norms = list(projective_norm_histogram(1, iroot(p // q, L.mu)))
        if walk_min is not None:
            monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", walk_min)
            lo, hi = enumeration._r1_batch_band(a, L.lam, L.mu, p, q)
            norms = [m for m in norms if not lo <= m <= hi]
        kernel = enumeration._count_r1_mobius
        batched = []
        monkeypatch.setattr(enumeration, "_count_r1_mobius",
                            lambda *f: batched.append(f) or kernel(*f))
        calls = _python_params(monkeypatch)
        count_hk(CountRequest(X, L, Fraction(B), Region.GOOD_OPEN))
        assert calls == norms and len(norms) > 1
        assert bool(batched) == (walk_min is not None)

    @staticmethod
    def batched_equals_per_norm(args, norms):
        mults = norms % 7 + 1
        want = _per_norm(args, norms, mults)
        with pytest.MonkeyPatch.context() as mp:
            calls = _per_norm_forms(mp)
            assert _count_r1(args, norms, mults) == want
        assert calls and not any(calls)  # every norm went to the int64 kernel

    @pytest.mark.parametrize("B, lo", [(Fraction(3 * 2 ** 31 - 1, 3), 1),
                                       (2 ** 31, 2)],
                             ids=["int64", "python-int"])
    def test_cap_on_both_sides_of_int64(self, B, lo):
        # -K on X_2(1): the cap is P // m, P = p // q.  B = (3 2^31 - 1)/3
        # (q = 9) leaves P just below 2^62, one int64 division for every
        # norm; B = 2^31 gives P = 2^62, divided in Python ints from m = 2
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        p, q = _squared_cap(B)
        assert (p // q < 2 ** 62, q) == ((True, 9) if lo == 1 else (False, 1))
        args = (X.fiber_weights, 1, L.lam, L.mu, p, q)
        assert enumeration._r1_batch_band(*args[1:])[0] == lo
        self.batched_equals_per_norm(args, np.concatenate(
            [np.arange(lo, lo + 6), np.arange(10 ** 6, 2 ** 21, 9973)]))

    @pytest.mark.parametrize("B, python_caps", [(2 ** 31, 1), (2 ** 32, 4)])
    def test_cap_beyond_int64(self, monkeypatch, B, python_caps):
        # B^2 >= 2^62: the cap P // m of -K on X_2(1) (P = B^2) is divided
        # in Python ints; it reaches 2^62 for m <= P // 2^62, which leaves
        # the band and takes S_max = isqrt(P // m) < 2^62 from _fiber_params
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        args = (X.fiber_weights, 1, L.lam, L.mu, *_squared_cap(B))
        small = np.arange(1, 11)
        calls = _python_params(monkeypatch)
        _count_r1(args, small, small)
        # a norm counted per norm would take its S_max a second time
        assert calls == list(range(1, python_caps + 1))
        self.batched_equals_per_norm(args, np.arange(1000, 1100))

    def test_e0_takes_one_smax_for_every_norm(self, monkeypatch):
        # e = lam ar - mu = 0: every norm has the cap P = p // q and the one
        # S_max = iroot(P, lam), so bundle (3, 3) on X_2(1) keeps every norm
        # in the band whatever the size of p and q, and takes no S_max per
        # norm, while bundle (1, 1) at P = 2^62 has S_max = 2^62 and an
        # empty band; the e=0 and pq-past-int64-3,3 rows of
        # test_representation_change_keeps_the_count check the counts
        X = HKVariety(1, 2, (1,))
        norms = np.array([1, 2, 5, 10, 10 ** 6, 2 ** 21], dtype=np.int64)
        calls = _python_params(monkeypatch)
        for B in (2 ** 31 - 1, 2 ** 31, 10 ** 10, Fraction(2 ** 32 + 1, 2 ** 32)):
            args = (X.fiber_weights, 1, 3, 3, *_squared_cap(B))
            assert enumeration._r1_batch_band(*args[1:]) == (1, 2 ** 62 - 1)
            _count_r1(args, norms, norms)
        assert calls == []
        args = (X.fiber_weights, 1, 1, 1, *_squared_cap(2 ** 31))
        assert enumeration._r1_batch_band(*args[1:]) == (1, 0)

    def test_cap_beyond_int64_square_divisor(self):
        # bundle (1, 3): the cap is P // m^2 with P = 2^64, divided in
        # Python ints, here with divisors m^2 of 31 bits and more
        X = HKVariety(1, 2, (1,))
        args = (X.fiber_weights, 1, 1, 3, *_squared_cap(2 ** 32))
        assert enumeration._r1_batch_band(*args[1:])[0] == 3  # 2^64 // 2^62 < 3^2
        self.batched_equals_per_norm(args, np.arange(46000, 47000, 10))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 120).flatmap(
               lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
           st.integers(-3, -1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 10), st.data())
    def test_band_keeps_caps_below_int64(self, P, e, lam, ar, q, data):
        # for e < 0 the band starts at the first m with P // m^-e < 2^62,
        # so the quotients the batched step turns into int64 are exact
        p = P * q + data.draw(st.integers(0, q - 1))
        lo = enumeration._r1_batch_band(ar, lam, lam * ar - e, p, q)[0]
        assert P // lo ** -e < 2 ** 62
        assert lo == 1 or P // (lo - 1) ** -e >= 2 ** 62

    def test_every_norm_has_one_row(self):
        # -K on X_2(1) at B = 2^30: S_max = isqrt(2^60 // m) and c_0 = m, so
        # m^3 <= 2^60 < 16 m^3 leaves each fiber the one row y_0 = 1, whose
        # one divisor is 1
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        args = (X.fiber_weights, 1, L.lam, L.mu, *_squared_cap(2 ** 30))
        norms = np.arange(420000, 2 ** 20, 997, dtype=np.int64)
        for m in norms.tolist():
            (c0, _), smax = enumeration._fiber_params(*args, m)
            assert isqrt(smax // c0) == 1
        self.batched_equals_per_norm(args, norms)

    def test_wide_norm_sum_past_int64(self, monkeypatch):
        # bundle (1, 1) on X_2(1): the norm m = 1 has S_max = B^2 and
        # c_0 = 1, so B = 2^17 and 2^17 + 1 give it that many rows, each
        # more than a part of _CHUNK rows.  Its fiber points are the
        # canonical primitive vectors of Z^2 with norm^2 <= B^2 other than
        # (0, 1), counted here by the Mobius sieve.
        X = HKVariety(1, 2, (1,))
        kernel = enumeration._count_r1_mobius
        seen = []
        monkeypatch.setattr(enumeration, "_count_r1_mobius",
                            lambda *a: seen.append(a[0].tolist()) or kernel(*a))
        norm = np.array([1], dtype=np.int64)
        top = 1 << 17
        for B in (top, top + 1):
            args = (X.fiber_weights, 1, 1, 1, *_squared_cap(B))
            fiber = enumeration._count_projective_n2(1, B * B) - 1
            # a multiplicity of 2^45 puts the sum past 2^63, into Python ints
            for mult in (3, 1 << 45):
                assert _count_r1(args, norm, norm * mult) == (mult * fiber, B)
        assert seen == [[1]] * 4

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_threads_and_partition(self, data):
        r = data.draw(st.integers(1, 2))
        top = 20 if r == 1 else 3
        a = tuple(sorted(data.draw(st.integers(0, top)) for _ in range(r)))
        X = HKVariety(r, data.draw(st.integers(2, 3)), a)
        L = LineBundleClass(data.draw(st.integers(1, 6)),
                            data.draw(st.integers(1, 6)))
        B = data.draw(st.fractions(1, 40, max_denominator=3))

        def count(region, threads):
            try:
                return count_hk(CountRequest(X, L, B, region, threads)).count
            except NotBigError:
                return None

        u = count(Region.GOOD_OPEN, 1)
        assert count(Region.GOOD_OPEN, 2) == u
        f = count(Region.SUBBUNDLE_F, 1)
        whole = count(Region.WHOLE, 2)
        # None: the stratum's count is infinite, and then so is the whole
        assert whole == (None if u is None or f is None else u + f)

    @pytest.mark.parametrize("bundle, B, expected", [
        (LineBundleClass(6, 1), 89,
         145696913406806411003147549250070410775800),
        (LineBundleClass(5, 1), 100,
         2075684994600228754061045320103980379437556),
    ])
    def test_large_twist_pins(self, bundle, B, expected):
        # cross-checked against an exact count that walks every fiber
        # coordinate but the last; the caps pass 2^1024
        X = HKVariety(1, 2, (20,))
        for threads in (1, 2):
            t0 = time.perf_counter()
            res = count_hk(CountRequest(X, bundle, Fraction(B),
                                        Region.GOOD_OPEN, threads))
            assert res.count == expected
            assert time.perf_counter() - t0 < 5.0


def _gcd_reference(fibers):
    """(sum of mult * fiber count, rows) of (c_0, S_max, mult) fibers by
    the gcd recursion of the per-norm path."""
    count = rows = 0
    for c0, smax, mult in fibers:
        fc, fr = enumeration._count_fiber_good((c0, 1), smax)
        count += mult * fc
        rows += fr
    return count, rows


class TestMobiusKernel:
    """The r = 1 Mobius kernel against the gcd recursion, and the counts
    whose norms reach it."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.just(1), st.integers(1, 3000)),
                              st.integers(1, 4 * 10 ** 6),
                              st.integers(1, 2 ** 40)),
                    min_size=1, max_size=12),
           st.sampled_from((64, enumeration._CHUNK)))
    def test_equals_gcd_recursion(self, fibers, chunk):
        # with parts of 64 rows a norm of up to 2000 rows is wider than a
        # part, and a part holds many norms of few rows
        fibers = [(c0, max(c0, smax), mult) for c0, smax, mult in fibers]
        c0, smax, mult = np.array(fibers, dtype=np.int64).T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_CHUNK", chunk)
            got = enumeration._count_r1_mobius(c0, smax, mult)
        assert got == _gcd_reference(fibers)

    def test_partial_sums_past_int64_take_python_ints(self):
        # 5 S_max >= 2^62, so the kernel's bound no longer keeps a norm's
        # partial sums in int64 and they are Python ints; c_0 >= 2^40 keeps
        # each fiber to at most 2^11 rows.  A multiplicity of 2^40 also
        # puts the sum of mult * fiber count past 2^63.
        fibers = [(2 ** 40, 2 ** 62 - 1, 2 ** 40), (2 ** 40 + 7, 2 ** 62 // 5, 3),
                  (3 ** 30, 2 ** 61 + 12345, 1), (5, 4 * 10 ** 6, 2 ** 40)]
        c0, smax, mult = np.array(fibers, dtype=np.int64).T
        assert 5 * int(smax.max()) >= 2 ** 62
        want = _gcd_reference(fibers)
        assert enumeration._count_r1_mobius(c0, smax, mult) == want
        assert want[0] >= 2 ** 63

    def test_wide_norm_equals_recursion_and_sieve(self):
        # c_0 = 1 and 2^17 + 1 rows, wider than a part of _CHUNK rows: the
        # kernel against the gcd recursion and against the P^1 sieve (the
        # fiber points are the canonical primitive vectors of Z^2 other
        # than (0, 1))
        top = (1 << 17) + 1
        smax = top * top + 5
        one = np.array([1], dtype=np.int64)
        got = enumeration._count_r1_mobius(one, one * smax, one * 3)
        fiber = enumeration._count_projective_n2(1, smax) - 1
        assert got == (3 * fiber, top)
        assert enumeration._count_fiber_good((1, 1), smax) == (fiber, top)

    def test_leftover_norms_skip_the_per_norm_path(self, monkeypatch):
        # every norm's S_max is below 2^62, so the kernel counts them all
        # and the per-norm path is left no norm
        X = HKVariety(1, 2, (1,))
        req = CountRequest(X, LineBundleClass(1, 3), Fraction(3000),
                           Region.GOOD_OPEN)
        want = count_hk(req)
        monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", 0)
        calls = _per_norm_forms(monkeypatch)
        got = count_hk(req)
        assert (got.count, got.points_visited) == (want.count,
                                                   want.points_visited)
        assert calls == [[]]

    def test_surface_pin_past_int64_caps(self):
        # -K on X_2(1), region U, B = 2^33: the norms m <= 2^66 // 2^62
        # have caps past 2^62 and go to the kernel; the pin is the count of
        # the batched step and the per-norm path before the kernel existed
        X = HKVariety(1, 2, (1,))
        res = count_hk(CountRequest(X, anticanonical(X), Fraction(2 ** 33),
                                    Region.GOOD_OPEN))
        assert (res.count, res.points_visited) == (134342841028, 2258741)

    def test_every_surface_norm_through_the_kernel(self, monkeypatch):
        # an empty band sends all 139187 norms of the count-surface count
        # to the kernel with S_max taken in Python ints, and it must give
        # its pin
        monkeypatch.setattr(enumeration, "_r1_batch_band", lambda *a: (1, 0))
        X = HKVariety(1, 2, (1,))
        res = count_hk(CountRequest(X, anticanonical(X), Fraction(2 ** 30),
                                    Region.GOOD_OPEN))
        assert (res.count, res.points_visited) == (15435482828, 600987)

    def test_deep_norms_reach_the_kernel_in_int64(self, monkeypatch):
        # -K on X_2(1) at B = 4096: every norm is in the band, so no S_max
        # is taken in Python ints, and with _CHUNK = 4 the norms with more
        # than 4 rows, each wider than a part, reach the kernel straight
        # from the int64 slices, as every other norm does
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        p, q = _squared_cap(4096)
        args = (X.fiber_weights, 1, L.lam, L.mu, p, q)
        norms = projective_norm_histogram(1, iroot(p // q, L.mu))
        deep = [m for m in norms
                if isqrt(enumeration._fiber_params(*args, m)[1] // m) > 4]
        assert 0 < len(deep) < len(norms)
        req = CountRequest(X, L, Fraction(4096), Region.GOOD_OPEN)
        want = count_hk(req)  # a base this small is counted per norm
        monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", 0)
        monkeypatch.setattr(enumeration, "_CHUNK", 4)
        calls = _python_params(monkeypatch)
        kernel = enumeration._count_r1_mobius
        got_c0 = []
        monkeypatch.setattr(enumeration, "_count_r1_mobius",
                            lambda *a: got_c0.extend(a[0].tolist()) or kernel(*a))
        got = count_hk(req)
        assert (got.count, got.points_visited) == (want.count,
                                                   want.points_visited)
        assert calls == [] and sorted(got_c0) == sorted(norms)  # c_0 = m


class TestBoundedMemory:
    """The surface count's arrays span a slice of norms, not every norm."""

    @pytest.mark.parametrize("bundle, B", [((2, 3), 2 ** 16), ((1, 2), 1500),
                                           ((1, 1), 100)])
    def test_slices_equal_per_norm_path(self, monkeypatch, bundle, B):
        # _CHUNK = 64: the norms span many slices of at most 64 norms, the
        # kernel many parts and blocks, in ascending and descending order
        X = HKVariety(1, 2, (1,))
        L = LineBundleClass(*bundle)
        p, q = _squared_cap(Fraction(B))
        args = (X.fiber_weights, 1, L.lam, L.mu, p, q)
        norms, mults = (np.asarray(a, dtype=np.int64) for a in
                        enumeration._norm_histogram(1, iroot(p // q, L.mu)))
        want = enumeration._good_chunk_worker(
            (*args, norms.tolist(), mults.tolist()))
        monkeypatch.setattr(enumeration, "_CHUNK", 64)
        monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", 0)
        kernel = enumeration._count_r1_mobius
        sizes = []

        def spy(*a):
            sizes.append(a[0].size)
            return kernel(*a)

        monkeypatch.setattr(enumeration, "_count_r1_mobius", spy)
        assert _count_r1(args, norms, mults) == want
        assert len(norms) > 3 * 64
        assert len(sizes) > 3 and max(sizes) <= 64
        sizes.clear()
        assert _count_r1(args, norms[::-1], mults[::-1]) == want
        assert len(sizes) > 3 and max(sizes) <= 64
        res = count_hk(CountRequest(X, L, Fraction(B), Region.GOOD_OPEN))
        assert (res.count, res.points_visited) == want

    def test_surface_count_peak(self):
        # tracemalloc peak of the count-surface count (B = 2^30), numpy
        # loaded: 6.2 MiB (7.1 MiB with the r = 1 divisor table), the
        # histogram phase's int32 table and gathered arrays.  Arrays over
        # all 139187 norms and an int64 table had put it at 18.2 MiB.
        import tracemalloc

        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        enumeration._count_good_open(X, L, Fraction(2 ** 10), 1)
        tracemalloc.start()
        try:
            got = enumeration._count_good_open(X, L, Fraction(2 ** 30), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (15435482828, 600987)
        assert peak < 9 * 2 ** 20, peak / 2 ** 20

    def test_wide_norm_peak(self):
        # tracemalloc peak of `count --variety 1,2:1 --bundle 1,6 --B 1e6
        # --region u`, numpy loaded: its norm 1 has 10^6 y_0 rows, whose
        # isqrt values the kernel holds as one int64 array (7.6 MiB).  The
        # peak is 10.3 MiB, and was 10.5 MiB with a kernel that took one
        # isqrt per Mobius term; the bound leaves 14% above the latter.
        import tracemalloc

        X = HKVariety(1, 2, (1,))
        L = LineBundleClass(1, 6)
        enumeration._count_good_open(X, L, Fraction(10), 1)
        tracemalloc.start()
        try:
            got = enumeration._count_good_open(X, L, Fraction(10 ** 6), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (1952624069060, 1134911)
        assert peak < 12 * 2 ** 20, peak / 2 ** 20


def _box_points(X, L, B, region, budget):
    """Every point of height <= B in the region, by a search over a box
    decided point by point with `height_le`; None if the box holds more
    than `budget` candidates.

    On U (y_0 != 0) the fiber height is >= 1, so Nq^mu <= B^2; on F the
    first nonzero y_j costs at least Nq^-b_j >= Nq^-a_r, so
    Nq^(mu - lam a_r) <= B^2.  Over a base point, y_j^2 Nq^-b_j <= H_fib^2
    <= (B^2 / Nq^mu)^(1/lam) bounds each fiber coordinate on its own.
    """
    p, q = _squared_cap(B)
    lam, mu, ar = L.lam, L.mu, X.a[-1]
    exps = []
    if region is not Region.SUBBUNDLE_F:
        exps.append(mu)
    if region is not Region.GOOD_OPEN:
        exps.append(mu - lam * ar)
    nq_max = max(iroot(p // q, k) for k in exps)
    top = isqrt(nq_max)
    if top ** X.t > budget:  # about as many base points as that
        return None
    boxes = []
    size = 0
    for base in itertools.product(range(-top, top + 1), repeat=X.t):
        nq = sum(x * x for x in base)
        if not 1 <= nq <= nq_max or not _canonical(base):
            continue
        tops = [isqrt(iroot(p * nq ** (lam * b) // (q * nq ** mu), lam))
                for b in X.fiber_weights]
        size += math.prod(2 * k + 1 for k in tops)
        if size > budget:
            return None
        boxes.append((ProjectivePoint(base), tops))
    points = []
    for base, tops in boxes:
        for y in itertools.product(*(range(-k, k + 1) for k in tops)):
            on_f = y[0] == 0
            if not _canonical(y) or region is Region.GOOD_OPEN and on_f \
                    or region is Region.SUBBUNDLE_F and not on_f:
                continue
            P = HKRationalPoint(base, ProjectivePoint(y))
            if height_le(X, L, P, B):
                points.append(P)
    return points


def _canonical(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g == 1 and next(x for x in v if x) > 0


class TestSizeSelection:
    """count_hk on every side of the two size thresholds (numpy walk and
    batched r = 1 step) against the point stream and a box search."""

    SIDES = ((0, 0), (10 ** 30, 0), (10 ** 30, 10 ** 30))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sides_equal_stream_and_box(self, data):
        r = data.draw(st.integers(1, 3))
        top = data.draw(st.sampled_from((3, 20)))
        a = tuple(sorted(data.draw(st.integers(0, top)) for _ in range(r)))
        X = HKVariety(r, data.draw(st.integers(2, 3)), a)
        L = LineBundleClass(data.draw(st.integers(1, 6)),
                            data.draw(st.integers(0, 6)))
        region = data.draw(st.sampled_from(list(Region)))
        threads = data.draw(st.integers(1, 2))
        B = data.draw(st.fractions(1, 400, max_denominator=3))
        infinite = L.mu <= 0 or (region is not Region.GOOD_OPEN
                                 and L.mu - L.lam * a[-1] <= 0)
        if infinite:
            # a Whole or F count runs its finite good-open counts before it
            # raises, and with a twist of 20 they are large even at B = 2
            # (minutes); at B = 1 only base norm 1 and S_max = 1 are left
            B, expected = Fraction(1), None
            with pytest.raises(NotBigError):
                next(iter(enum_hk_points(X, L, B, region)))
        else:
            while (points := _box_points(X, L, B, region, 5000)) is None:
                B = B * 2 / 3
            expected = len(points)
            assert expected == sum(1 for _ in enum_hk_points(X, L, B, region))
        for walk_min, rows_min in self.SIDES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(enumeration, "_NUMPY_WALK_MIN", walk_min)
                mp.setattr(enumeration, "_NUMPY_ROWS_MIN", rows_min)
                req = CountRequest(X, L, B, region, threads)
                if infinite:
                    with pytest.raises(NotBigError):
                        count_hk(req)
                else:
                    assert count_hk(req).count == expected

    def test_row_sum_is_the_fiber_rows(self, monkeypatch):
        # the forms' build sums exactly the y_0 rows the per-norm path
        # visits, so a limit one above them keeps the small base per norm
        # and the limit at them sends it to the kernel; every norm of -K
        # on X_2(1) at B = 300 is in the band
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        p, q = _squared_cap(Fraction(300))
        args = (X.fiber_weights, 1, L.lam, L.mu, p, q)
        norms, mults = enumeration._norm_histogram(1, iroot(p // q, L.mu))
        rows = _per_norm(args, norms, mults)[1]
        assert enumeration._r1_batch_band(*args[1:])[0] == 1
        monkeypatch.setattr(enumeration, "_NUMPY_ROWS_MIN", rows + 1)
        assert not _kernel_runs(args, norms)
        monkeypatch.setattr(enumeration, "_NUMPY_ROWS_MIN", rows)
        assert _kernel_runs(args, norms)

    def test_per_norm_path_gets_the_same_norms(self, monkeypatch):
        # twist 20, bundle (6, 1): the r = 1 band holds only m = 1.  On
        # both numpy sides the per-norm counter gets the forms whose S_max
        # reaches 2^62, and the int64 slices the rest; on the small side
        # it gets every norm's form.  Each side calls it once, in this
        # process, with Python ints.
        X = HKVariety(1, 2, (20,))
        req = CountRequest(X, LineBundleClass(6, 1), Fraction(30),
                           Region.GOOD_OPEN, threads=2)
        calls = _per_norm_forms(monkeypatch)
        results = {}
        for side in self.SIDES:
            monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", side[0])
            monkeypatch.setattr(enumeration, "_NUMPY_ROWS_MIN", side[1])
            calls.clear()
            res = count_hk(req)
            results[side] = (res.count, res.points_visited, calls[:])
            assert len(calls) == 1
            assert all(type(x) is int for form in calls[0] for x in form)
        batched, rows_side, small = (results[side] for side in self.SIDES)
        assert batched == rows_side
        assert batched[:2] == small[:2]
        p, q = _squared_cap(req.bound)
        args = (X.fiber_weights, 20, 6, 1, p, q)
        every = small[2][0]
        norms = projective_norm_histogram(1, iroot(p // q, 1))
        # c_0 = m^20 names each form's norm; every norm has a fiber point
        assert sorted(c0 for c0, _, _ in every) == [m ** 20 for m in norms]
        big = [form for form in every if form[1] >= 2 ** 62]
        assert batched[2] == [big]
        assert big == [(m ** 20, _smax(args, m), k) for m, k in norms.items()
                       if _smax(args, m) >= 2 ** 62]
        assert 0 < len(big) < len(every)

    def test_r1_counts_start_no_pool(self):
        # a large twist leaves its norms with S_max >= 2^62 to the
        # per-norm path; at --threads 2 they are still counted in this
        # process, which never imports the process pool
        argv = ["count", "--variety", "1,2:19", "--bundle", "5,1", "--B", "90",
                "--region", "u", "--threads", "2"]
        code = ("import sys\nfrom hkcount.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "print('concurrent.futures.process' in sys.modules)")
        src = str(Path(enumeration.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split()[-1] == "False"

    def test_pool_workers_capped_at_cpus(self, monkeypatch):
        # a fake pool, so no process starts: --threads 1000 asks for one
        # worker per available CPU, from the affinity mask where the
        # platform has one and from cpu_count otherwise, and keeps 4 norms
        # per worker, or counts serially
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                started.append(len(chunks))
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        X = HKVariety(2, 2, (1, 1))

        def count(threads):
            return count_hk(CountRequest(X, anticanonical(X), Fraction(1000),
                                         Region.GOOD_OPEN, threads)).count

        assert count(1) == 8880 and started == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert count(1000) == 8880 and started == [3, 3]
        started.clear()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert count(1000) == 8880 and started == [2, 2]
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 6)  # 23 norms < 4 * 6
        assert count(1000) == 8880 and started == []


_T = 2 ** 62  # the int64 guard of the count path


def _r1_inputs(a, lam, mu, bounds, norms, scales=(1,)):
    """(args, norms, mults) of the r = 1 step of X_2(a) with bundle
    (lam, mu), at each bound and multiplicity scale, mults = scale *
    (m % 7 + 1)."""
    cases = []
    for B in bounds:
        args = (HKVariety(1, 2, (a,)).fiber_weights, a, lam, mu,
                *_squared_cap(Fraction(B)))
        for scale in scales:
            ns = np.array(list(norms), dtype=np.int64)
            cases.append((args, ns, scale * (ns % 7 + 1)))
    return cases


def _cap(args, m):
    """floor(p m^(lam ar - mu) / q), whose lam-th root is S_max."""
    _, ar, lam, mu, p, q = args
    return (p * m ** (lam * ar)) // (q * m ** mu)


def _smax(args, m):
    return enumeration._fiber_params(*args, m)[1]


def _check_r1(case, side):
    """`_count_r1` against the per-norm path on every norm."""
    args, norms, mults = case
    assert _count_r1(args, norms, mults) == _per_norm(args, norms, mults)
    return {side(args, m, k) for m, k in zip(norms.tolist(), mults.tolist())}


def _check_histogram(case, side):
    """Prefix sums of the base histogram against the Mobius sieve."""
    n, n2max = case
    norms, mults = enumeration._norm_histogram(n, n2max)
    cum = np.cumsum(np.asarray(mults, dtype=np.int64))
    for bound in (1, n2max // 3, n2max):
        at = int(np.searchsorted(norms, bound, side="right")) - 1
        assert int(cum[at]) == enumeration._count_projective_n2(n, bound)
    return {side(n, n2max)}


def _check_count(case, side):
    """A surface count on U against the per-norm path over the same
    histogram."""
    (a, lam, mu), B = case
    X = HKVariety(1, 2, (a,))
    args = (X.fiber_weights, a, lam, mu, *_squared_cap(Fraction(B)))
    norms, mults = enumeration._norm_histogram(1, iroot(args[4] // args[5],
                                                        mu))
    got = enumeration._count_good_open(X, LineBundleClass(lam, mu),
                                       Fraction(B), 1)
    assert got == _per_norm(args, norms, mults)
    return {side(args, norms)}


# Every place where the count path changes representation, each row with
# inputs on both sides of its change: the side function must read False
# and True over the row.  r1 rows call `_count_r1` on a few norms next to
# the change, and their side function reads (args, norm, mult).
_EDGES = [
    # the band's lower end for e < 0: the cap P // m^-e reaches 2^62
    pytest.param("r1", _r1_inputs(1, 2, 3, [2 ** 40],
                                  range(2 ** 18 - 2, 2 ** 18 + 4)),
                 lambda args, m, k: _cap(args, m) >= _T,
                 id="band-lower-end"),
    # the band's upper end: m^-e, p m^e or m^ar reaches 2^62 (m^2 >= 2^62
    # makes c_0 > S_max on both sides, so the counts there are 0)
    pytest.param("r1", _r1_inputs(1, 1, 4, [2 ** 42],
                                  range(1664508, 1664514)),
                 lambda args, m, k: m ** 3 >= _T, id="band-upper-m^-e"),
    pytest.param("r1", _r1_inputs(1, 2, 1, [46341],
                                  range(2147479013, 2147479018)),
                 lambda args, m, k: args[4] * m >= _T, id="band-upper-p*m^e"),
    pytest.param("r1", _r1_inputs(2, 1, 3, [2 ** 20],
                                  range(2 ** 31 - 3, 2 ** 31 + 3)),
                 lambda args, m, k: m ** 2 >= _T, id="band-upper-m^ar"),
    # P = p // q below 2^62 takes the int64 quotient, from 2^62 on the
    # Python-int one
    pytest.param("r1", _r1_inputs(1, 2, 3, [Fraction(3 * 2 ** 31 - 1, 3),
                                            2 ** 31],
                                  [10 ** 6, 10 ** 6 + 1, 2 ** 21 - 1]),
                 lambda args, m, k: args[4] // args[5] >= _T, id="P"),
    # p or q past 2^62 with e >= 0 empties the band; from 2^63 on they
    # are no int64 at all.  X_2(1) with bundle (3, 3) crosses B^2 = 2^63
    # from B = 3037000499 to 3037000500; q = 2^64 at B = 1 + 2^-32.
    pytest.param("r1", _r1_inputs(1, 3, 3, [2 ** 30, 3037000499, 3037000500,
                                            Fraction(2 ** 32 + 1, 2 ** 32)],
                                  [1, 2, 5, 10, 10 ** 6, 2 ** 21]),
                 lambda args, m, k: max(args[4], args[5]) >= _T,
                 id="pq-past-int64-3,3"),
    pytest.param("r1", _r1_inputs(1, 5, 4, [10 ** 9, 10 ** 12],
                                  [1, 2, 3, 4, 5, 6, 10 ** 6]),
                 lambda args, m, k: args[4] >= _T, id="pq-past-int64-5,4"),
    pytest.param("r1", _r1_inputs(2, 2, 4, [10 ** 9, 10 ** 12],
                                  [100, 101, 999, 1000]),
                 lambda args, m, k: args[4] >= _T, id="pq-past-int64-a2"),
    pytest.param("r1", _r1_inputs(1, 9, 7, [10 ** 9, 10 ** 20],
                                  [1, 2, 3, 4, 10 ** 4]),
                 lambda args, m, k: args[4] >= _T, id="pq-past-int64-9,7"),
    # e = 0 broadcasts the one S_max = iroot(P, lam) over the band, with P
    # = p // q on both sides of 2^62 (X_2(1) with bundle (3, 3): B^2 = P
    # crosses 2^62 from B = 2^31 - 1 to 2^31)
    pytest.param("r1", _r1_inputs(1, 3, 3, [2 ** 31 - 1, 2 ** 31, 10 ** 10],
                                  [1, 2, 5, 10, 10 ** 6, 2 ** 21]),
                 lambda args, m, k: args[4] // args[5] >= _T, id="e=0"),
    # S_max >= 2^62 leaves a norm to the per-norm path
    pytest.param("r1", _r1_inputs(3, 1, 4, [2 ** 40],
                                  range(2 ** 18 - 2, 2 ** 18 + 3)),
                 lambda args, m, k: _smax(args, m) >= _T, id="S_max"),
    # 5 S_max >= 2^62 turns the kernel's per-norm sums into Python ints
    pytest.param("r1", _r1_inputs(2, 1, 3, [2 ** 39, 2 ** 40],
                                  [2 ** 20 - 1, 2 ** 20, 2 ** 20 + 1]),
                 lambda args, m, k: 5 * _smax(args, m) >= _T, id="5*S_max"),
    # mult * fiber >= 2^62 turns the kernel's dot product into Python ints
    pytest.param("r1", _r1_inputs(1, 1, 2, [2 ** 24],
                                  [2 ** 17 - 1, 2 ** 17, 2 ** 17 + 1],
                                  scales=(1, 2 ** 40)),
                 lambda args, m, k: k * enumeration._count_fiber_good(
                     *enumeration._fiber_params(*args, m))[0] >= _T,
                 id="mult*fiber"),
    # the int32 table of P^3 up to the box bound 2^31
    pytest.param("histogram", [(3, 107 ** 2), (3, 108 ** 2)],
                 lambda n, n2max: (2 * isqrt(n2max) + 1) ** (n + 1) >= 2 ** 31,
                 id="int32-table"),
    # _NUMPY_WALK_MIN: the fold's lists or the blocks' arrays, for the
    # histogram and for bundle (6, 1) on X_2(1), whose n2max is
    # floor(B^2) and whose fibers have a few rows each
    pytest.param("histogram", [(1, _first_numpy_walk(1) - 1),
                               (1, _first_numpy_walk(1))],
                 lambda n, n2max: isinstance(
                     enumeration._norm_histogram(n, n2max)[0], list),
                 id="numpy-walk"),
    pytest.param("count", [((1, 6, 1), Fraction(isqrt(m * 10 ** 8) + 1, 10 ** 4))
                           for m in (_first_numpy_walk(1) - 1,
                                     _first_numpy_walk(1))],
                 lambda args, norms: isinstance(norms, list),
                 id="numpy-walk-count"),
    # _NUMPY_ROWS_MIN: bundle (1, 6) on X_2(1) over a small base, whose
    # rows reach 10^4 from B = 8815 to 8816, where the kernel takes over
    pytest.param("count", [((1, 1, 6), 8815), ((1, 1, 6), 8816)],
                 _kernel_runs, id="numpy-rows"),
]


@pytest.mark.parametrize("kind, cases, side", _EDGES)
def test_representation_change_keeps_the_count(kind, cases, side):
    check = {"r1": _check_r1, "histogram": _check_histogram,
             "count": _check_count}[kind]
    sides = set()
    for case in cases:
        sides |= check(case, side)
    assert sides == {False, True}


class TestSweepAndFit:
    def test_sweep_rows(self):
        X = HKVariety(1, 2, (1,))
        req = CountRequest(X, LineBundleClass(1, 1), Fraction(5),
                           Region.GOOD_OPEN)
        rows = sweep(req, [5, 10, 20])
        assert [r["B"] for r in rows] == [5, 10, 20]
        counts = [r["count"] for r in rows]
        assert counts == sorted(counts)

    def test_sweep_rejects_non_increasing_grid(self):
        X = HKVariety(1, 2, (1,))
        req = CountRequest(X, LineBundleClass(1, 1), Fraction(5))
        with pytest.raises(ValueError):
            sweep(req, [5, 5, 10])

    def test_fit_recovers_power_law(self):
        table = [(b, 3.7 * b ** 3) for b in (10, 20, 40, 80, 160)]
        fit = estimate_exponent(table)
        assert abs(fit.slope - 3.0) < 1e-6

    def test_fit_recovers_log_coefficient(self):
        table = [(b, 2.5 * b * math.log(b) + 7.0 * b)
                 for b in (2 ** k for k in range(8, 18))]
        fit = estimate_exponent(table, exponent=1.0)
        assert abs(fit.log_coefficient - 2.5) < 1e-9
        assert abs(fit.coefficient - 7.0) < 1e-7

    def test_fit_needs_enough_points(self):
        with pytest.raises(DegenerateFitError):
            estimate_exponent([(10, 100), (20, 400)])
