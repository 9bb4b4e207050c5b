"""Exact counting: enumeration, sieve oracle, fibration counts, fits."""
import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcount import enumeration
from hkcount.enumeration import (
    CountRequest,
    DegenerateFitError,
    _ball_count,
    _canonical_vectors,
    _canonical_walk,
    _count_r1_batched,
    _iroot_array,
    _mobius_sieve,
    _primitive_norm_blocks,
    _squared_cap,
    count_enum_projective,
    count_hk,
    count_projective_moebius,
    count_subbundle_direct,
    enum_hk_points,
    enum_projective,
    estimate_exponent,
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
    region_of,
)


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

    def test_mobius_sieve(self):
        # mu(1..12) [DERIVED: textbook values]
        assert _mobius_sieve(12)[1:] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]

    def test_table_past_the_address_space_is_beyond_reach(self):
        # 8 bytes a slot: the last length that fits sys.maxsize bytes is
        # accepted, the next is refused before any list is built
        last = sys.maxsize // 8
        assert enumeration._table_length(last - 1) == last
        with pytest.raises(MemoryError):
            enumeration._table_length(last)
        with pytest.raises(MemoryError):
            _mobius_sieve(10 ** 20)

    def test_mobius_array_equals_sieve(self):
        # the vectorised sieve of the divisor table against the linear one,
        # up to the table's largest y_0
        for n in (*range(65), enumeration._Y0_TABLE_MAX):
            mu = enumeration._mobius_array(n)
            assert mu.dtype == np.int8
            assert mu[1:].tolist() == _mobius_sieve(n)[1:], n

    @pytest.mark.parametrize("ymax", [1, 2, 3, 30, 210])
    def test_divisor_table_equals_trial_division(self, ymax):
        start, div, sign = enumeration._divisor_table(ymax)
        assert (start.dtype, div.dtype, sign.dtype) == (np.int32, np.int32,
                                                         np.int8)
        assert len(start) == ymax + 2 and start[-1] == len(div) == len(sign)
        for y in range(1, ymax + 1):
            want = []
            for d in range(1, y + 1):
                primes = [p for p in range(2, d + 1)
                          if d % p == 0 and all(p % k for k in range(2, p))]
                if y % d == 0 and all(d % (p * p) for p in primes):
                    want.append((d, (-1) ** len(primes)))
            a, b = start[y], start[y + 1]
            assert sorted(zip(div[a:b].tolist(), sign[a:b].tolist())) == want

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
        pts = list(enum_projective(1, 5))
        assert len(pts) == len(set(pts)) == count_enum_projective(1, 5)
        for p in pts:
            assert sum(x * x for x in p.coords) <= 25

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stream_equals_block_count(self, n):
        # the _canonical_vectors stream against the block walk's count
        for B in range(1, 13):
            assert len(list(enum_projective(n, B))) == count_enum_projective(n, B)


def _stream_histogram(dim, n2max):
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


class TestOrbitFold:
    """The walk over one weighted representative per orbit under signs
    and permutations, against the unfolded `_canonical_vectors` stream."""

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
        assert _fold_histogram(dim, n2max) == _stream_histogram(dim, n2max)

    def test_one_representative_per_orbit(self):
        # Z^3, norm^2 <= 3: (0,0,1) stands for 3 canonical vectors,
        # (0,1,1) for 3 positions times 2 sign classes, (1,1,1) for 4
        blocks = list(_primitive_norm_blocks(3, 3))
        norms = np.concatenate([n for n, _ in blocks]).tolist()
        weights = np.concatenate([w for _, w in blocks]).tolist()
        assert sorted(zip(norms, weights)) == [(1, 3), (2, 6), (3, 4)]

    def test_box_over_int64_takes_the_stream(self, monkeypatch):
        calls = []
        stream = enumeration._canonical_vectors

        def spy(dim, n2max):
            calls.append((dim, n2max))
            return stream(dim, n2max)

        monkeypatch.setattr(enumeration, "_canonical_vectors", spy)
        # a box of 3^40 >= 2^62 points; and 3^36, where w * (i + 1) can
        # reach 36 times the box before the division
        for dim in (40, 36):
            assert 3 ** dim * dim >= 2 ** 62
            assert _fold_histogram(dim, 1) == {1: dim}
            assert calls.pop() == (dim, 1)
        assert count_enum_projective(39, 1) == 40
        assert calls.pop() == (40, 1)
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
        for k, top in ((1, 1500), (2, 1500), (3, 1500), (4, 300), (5, 60)):
            for m in range(-2, top):
                assert _ball_count(k, m) == _ball_count_recursive(k, m), (k, m)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 10 ** 5))
    def test_equals_recursion_large(self, k, m):
        assert _ball_count(k, m) == _ball_count_recursive(k, m)

    @pytest.mark.parametrize("n, B", [(1, 2000), (2, 150), (3, 40), (4, 20)])
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
                "req = E.CountRequest(X, anticanonical(X), Fraction(2 ** 26),"
                " Region.GOOD_OPEN, 1)\n"
                "assert E._numpy_walk(1, E.iroot(2 ** 52, 3))\n"
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
            X, anticanonical(X), Fraction(2 ** 26), Region.GOOD_OPEN)).count
        assert (numpy, numpy_ma) == ("True", "False")


class TestBatchedFiberStep:
    """The batched r = 1 step against the per-norm path, on both sides of
    its int64 guard."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20), st.integers(1, 6), st.integers(1, 6),
           st.fractions(1, 60, max_denominator=4))
    def test_equals_per_norm_path(self, a, lam, mu, B):
        weights, ar = HKVariety(1, 2, (a,)).fiber_weights, a
        p, q = _squared_cap(B)
        norms = np.arange(1, 301, dtype=np.int64)
        mults = norms % 7 + 1
        count, rows, done = _count_r1_batched(weights, ar, lam, mu, p, q,
                                              norms, mults)

        def per_norm(sel):  # the per-norm path, with unbounded integers
            return enumeration._good_chunk_worker(
                (weights, ar, lam, mu, p, q, norms[sel].tolist(),
                 mults[sel].tolist()))

        assert (count, rows) == per_norm(done)
        # the rest on the per-norm path, as _count_good_open does
        c, v = per_norm(~done)
        assert (count + c, rows + v) == per_norm(np.ones_like(done))

    def test_guard_splits_large_twist(self):
        # m^119 passes 2^62 from m = 2 on: only m = 1 is batched
        X = HKVariety(1, 2, (20,))
        p, q = _squared_cap(Fraction(89))
        norms = np.arange(1, 50, dtype=np.int64)
        _, _, done = _count_r1_batched(X.fiber_weights, 20, 6, 1, p, q,
                                       norms, np.ones_like(norms))
        assert done.tolist() == [True] + [False] * 48

    @staticmethod
    def batched_equals_per_norm(args, norms):
        mults = norms % 7 + 1
        count, rows, done = _count_r1_batched(*args, norms, mults)
        assert done.all()
        assert (count, rows) == enumeration._good_chunk_worker(
            (*args, norms.tolist(), mults.tolist()))

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
        assert enumeration._r1_batch_band(*args)[0] == lo
        self.batched_equals_per_norm(args, np.concatenate(
            [np.arange(lo, lo + 6), np.arange(10 ** 6, 2 ** 21, 9973)]))

    @pytest.mark.parametrize("B, per_norm", [(2 ** 31, 1), (2 ** 32, 4)])
    def test_cap_beyond_int64(self, B, per_norm):
        # B^2 >= 2^62: the cap P // m of -K on X_2(1) (P = B^2) is divided
        # in Python ints; it reaches 2^62 for m <= P // 2^62, which is left
        # to the per-norm path
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        args = (X.fiber_weights, 1, L.lam, L.mu, *_squared_cap(B))
        small = np.arange(1, 11)
        done = _count_r1_batched(*args, small, np.ones_like(small))[2]
        assert done.tolist() == [False] * per_norm + [True] * (10 - per_norm)
        self.batched_equals_per_norm(args, np.arange(1000, 1100))

    def test_cap_beyond_int64_square_divisor(self):
        # bundle (1, 3): the cap is P // m^2 with P = 2^64, divided in
        # Python ints, here with divisors m^2 of 31 bits and more
        X = HKVariety(1, 2, (1,))
        args = (X.fiber_weights, 1, 1, 3, *_squared_cap(2 ** 32))
        assert enumeration._r1_batch_band(*args)[0] == 3  # 2^64 // 2^62 < 3^2
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
        weights = HKVariety(1, 2, (ar,)).fiber_weights
        lo = enumeration._r1_batch_band(weights, ar, lam, lam * ar - e,
                                        p, q)[0]
        assert P // lo ** -e < 2 ** 62
        assert lo == 1 or P // (lo - 1) ** -e >= 2 ** 62

    def test_every_norm_has_one_row(self):
        # -K on X_2(1) at B = 2^30: S_max = isqrt(2^60 // m) and c_0 = m, so
        # m^3 <= 2^60 < 16 m^3 leaves each fiber the one row y_0 = 1, which
        # the vector pass counts without the divisor table
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        args = (X.fiber_weights, 1, L.lam, L.mu, *_squared_cap(2 ** 30))
        norms = np.arange(420000, 2 ** 20, 997, dtype=np.int64)
        for m in norms.tolist():
            (c0, _), smax = enumeration._fiber_params(*args, m)
            assert isqrt(smax // c0) == 1
        self.batched_equals_per_norm(args, norms)

    def test_rows_up_to_the_divisor_table(self):
        # bundle (1, 1) on X_2(1): the norm m = 1 has S_max = B^2 and
        # c_0 = 1, so B = 2^17 gives it exactly _Y0_TABLE_MAX rows, and one
        # more row leaves it to the per-norm path.  Its fiber points are
        # the canonical primitive vectors of Z^2 with norm^2 <= B^2 other
        # than (0, 1), counted here by the Mobius sieve.
        X = HKVariety(1, 2, (1,))
        top = enumeration._Y0_TABLE_MAX
        assert top == 1 << 17
        norm = np.array([1], dtype=np.int64)
        args = (X.fiber_weights, 1, 1, 1, *_squared_cap(top))
        fiber = enumeration._count_projective_n2(1, top * top) - 1
        # a multiplicity of 2^45 puts the sum past 2^63, into Python ints
        for mult in (3, 1 << 45):
            count, rows, done = _count_r1_batched(*args, norm, norm * mult)
            assert done.tolist() == [True] and rows == top
            assert count == mult * fiber
        args = (X.fiber_weights, 1, 1, 1, *_squared_cap(top + 1))
        count, rows, done = _count_r1_batched(*args, norm, norm)
        assert (count, rows, done.tolist()) == (0, 0, [False])

    def test_rows_beyond_divisor_table_fall_back(self, monkeypatch):
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        req = CountRequest(X, L, Fraction(4096), Region.GOOD_OPEN)
        want = count_hk(req)  # a base this small is counted per norm
        monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", 0)
        monkeypatch.setattr(enumeration, "_Y0_TABLE_MAX", 3)
        dones = []
        batched = enumeration._count_r1_batched

        def spy(*args):
            out = batched(*args)
            dones.append(out[2])
            return out

        monkeypatch.setattr(enumeration, "_count_r1_batched", spy)
        got = count_hk(req)
        assert (got.count, got.points_visited) == (want.count,
                                                   want.points_visited)
        # the batched step ran and left the norms with more than 3 rows
        assert len(dones) == 1 and dones[0].any() and not dones[0].all()

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
        # the pre-pass sums exactly the y_0 rows the per-norm path visits;
        # every norm of -K on X_2(1) at B = 300 is in the band
        X = HKVariety(1, 2, (1,))
        L = anticanonical(X)
        p, q = _squared_cap(Fraction(300))
        args = (X.fiber_weights, 1, L.lam, L.mu, p, q)
        norms, mults = enumeration._norm_histogram(1, iroot(p // q, L.mu))
        rows = enumeration._good_chunk_worker((*args, norms, mults))[1]
        assert enumeration._r1_batch_band(*args)[0] == 1
        monkeypatch.setattr(enumeration, "_NUMPY_ROWS_MIN", rows + 1)
        assert enumeration._few_rows_band(args, norms) is not None
        monkeypatch.setattr(enumeration, "_NUMPY_ROWS_MIN", rows)
        assert enumeration._few_rows_band(args, norms) is None

    def test_pool_gets_the_same_norms(self, monkeypatch):
        # twist 20, bundle (6, 1): the r = 1 band holds only m = 1, and the
        # per-norm path (the pool, with threads > 1) gets the rest, on
        # either side of the row threshold
        X = HKVariety(1, 2, (20,))
        req = CountRequest(X, LineBundleClass(6, 1), Fraction(30),
                           Region.GOOD_OPEN)
        worker = enumeration._good_chunk_worker
        calls: list = []

        def spy(args):
            calls.append(args[-2])
            return worker(args)

        monkeypatch.setattr(enumeration, "_good_chunk_worker", spy)
        results = {}
        for side in self.SIDES:
            monkeypatch.setattr(enumeration, "_NUMPY_WALK_MIN", side[0])
            monkeypatch.setattr(enumeration, "_NUMPY_ROWS_MIN", side[1])
            calls.clear()
            res = count_hk(req)
            results[side] = (res.count, res.points_visited, tuple(calls[-1]))
            assert all(type(m) is int for m in calls[-1])
        rest = results[self.SIDES[0]][2]
        assert rest and 1 not in rest
        assert len(set(results.values())) == 1, results


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
