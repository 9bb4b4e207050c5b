"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

Each test prints one `ACCEPTANCE <k> (<name>): PASS|FAIL` line and then
asserts.

Criteria 1 and 2 pin closed forms built from the height zeta function of
the projective line,

    Z_{P^1}(s) = sum_{P in P^1(Q)} H(P)^{-s} = 2 zeta(s/2) L_{-4}(s/2) / zeta(s),

where H([a:b]) = sqrt(a^2 + b^2) for coprime integers a, b.

Criterion 2 compares the direct summation `zetaP_numeric` with this closed
form at s = 4 (30 G / pi^2, G Catalan's constant) and s = 6
(945 zeta(3) / (16 pi^3)).  Criterion 1 pins the leading constants of the
Hirzebruch surfaces and the threefold of the introduction; four of them
are (3/pi) times a value of Z_{P^1}, as the comment beside each literal
says.  Those literals were evaluated at 30 digits with mpmath's `zeta` and
`dirichlet`, independently of hkcount.

Earlier references carried Z_{P^1}(s) + 2 in place of Z_{P^1}(s), so they
were too large by 2 in criterion 2 and by (3/pi) * 2 in criterion 1.  The
+2 contradicts the definition: as s -> oo, Z_{P^1}(s) tends to the number
of points of height 1, [1:0] and [0:1], which is 2.  Exact point counts
agree with the corrected constants: N(B) / (C B^2) is 1.0000 for
P^1 x P^1 with L = 3h+f over the whole space at B = 1600, against 0.534
with the old value.
"""
import concurrent.futures
import math
import os
import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hkcount.cli import (
    _suite_arakelov,
    _suite_integral,
    _suite_oracle,
    _suite_partition,
    _suite_residue,
)
from hkcount.constants import (
    hirzebruch_table,
    threefold_intro,
    predict,
    zeta,
    zetaP_numeric,
)
from hkcount.enumeration import (
    CountRequest,
    count_enum_projective,
    count_hk,
)
from hkcount.geometry import (
    CaseTag,
    HKVariety,
    LineBundleClass,
    anticanonical,
    exponents,
    is_big,
)
from hkcount.heights import Region
from support import build_fan, canonicalize, estimate_exponent, fan_is_smooth

CATALAN = 0.9159655941772190150546


def _report(k: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_golden_constants():
    t0 = time.time()
    rows = {(r["lam"], r["mu"]): r["C"] for r in hirzebruch_table()}
    golden_surface = {
        (1, 1): 1.74234272,
        (1, 2): 3.58821336,  # (3/pi) Z_{P^1}(3)
        (1, 3): 2.34386558,  # (3/pi) Z_{P^1}(5)
        (2, 1): 0.76443811, (2, 2): 1.74234272, (2, 3): 0.60792710,
        (3, 1): 0.58325419, (3, 2): 0.97781868, (3, 3): 1.74234272,
    }
    errs = {lm: abs(rows[lm] - want) for lm, want in golden_surface.items()}
    intro = threefold_intro()
    errs["C"] = abs(intro["C"] - 0.83190737)
    # (3/pi) (Z_{P^1}(6) - 1)
    errs["Cprime"] = abs(intro["Cprime"] - 1.23161633)
    errs["Csecond"] = abs(intro["Csecond"] - 0.95492965)
    # whole-space constant of the trivial fibration P^1 x P^1 with L = 3h+f:
    # (3/pi) Z_{P^1}(6) = 2835 zeta(3) / (16 pi^4)
    prod = predict(HKVariety(1, 2, (0,)), LineBundleClass(3, 1)).constant
    errs["product"] = abs(prod - 2.18654599)
    elapsed = time.time() - t0
    ok = all(e <= 1e-7 for e in errs.values()) and elapsed < 5.0
    _report(1, "golden constants", ok)
    bad = {k: round(v, 8) for k, v in errs.items() if v > 1e-7}
    assert ok, f"constants off by more than 1e-7: {bad}; elapsed {elapsed:.2f}s"


def test_criterion_2_closed_form_z():
    t0 = time.time()
    # Z_{P^1}(6) = 2 zeta(3) L_{-4}(3) / zeta(6) = 945 zeta(3) / (16 pi^3)
    ref6 = 945 * zeta(3.0) / (16 * math.pi ** 3)
    got6 = zetaP_numeric(1, 6.0, 1e-4)
    t6 = time.time() - t0
    t0 = time.time()
    # Z_{P^1}(4) = 2 zeta(2) L_{-4}(2) / zeta(4) = 30 G / pi^2
    ref4 = 30 * CATALAN / math.pi ** 2
    got4 = zetaP_numeric(1, 4.0, 1e-4)
    t4 = time.time() - t0
    ok = (abs(got6 - ref6) <= 1e-4 and abs(got4 - ref4) <= 1e-4
          and t6 < 30 and t4 < 30)
    _report(2, "closed-form Z check", ok)
    assert ok, (f"s=6: got {got6:.8f} want {ref6:.8f}; "
                f"s=4: got {got4:.8f} want {ref4:.8f}")


def test_criterion_3_schanuel_empirical():
    t0 = time.time()
    n1 = count_enum_projective(1, 2000)
    t1 = time.time() - t0
    r1 = n1 / ((3 / math.pi) * 2000 ** 2)
    t0 = time.time()
    n2 = count_enum_projective(2, 150)
    t2 = time.time() - t0
    r2 = n2 / ((2 * math.pi / (3 * zeta(3.0))) * 150 ** 3)
    ok = abs(r1 - 1) <= 0.02 and t1 < 60 and abs(r2 - 1) <= 0.03 and t2 < 120
    _report(3, "projective-space empirical counts", ok)
    assert ok, f"ratios {r1:.4f}, {r2:.4f}; times {t1:.1f}s, {t2:.1f}s"


def test_criterion_4_simple_pole_surface():
    t0 = time.time()
    got = count_hk(CountRequest(HKVariety(1, 2, (1,)), LineBundleClass(1, 1),
                                Fraction(60), Region.GOOD_OPEN)).count
    elapsed = time.time() - t0
    ratio = got / (1.74234272 * 60 ** 3)
    ok = abs(ratio - 1) <= 0.05 and elapsed < 120
    _report(4, "simple-pole surface count", ok)
    assert ok, f"ratio {ratio:.4f}, {elapsed:.1f}s"


def test_criterion_5_double_pole_fit():
    t0 = time.time()
    X = HKVariety(1, 2, (1,))
    L = anticanonical(X)
    table = []
    for k in range(10, 21):
        b = 2 ** k
        table.append((b, count_hk(CountRequest(X, L, Fraction(b),
                                               Region.GOOD_OPEN,
                                               threads=4)).count))
    fit = estimate_exponent(table, exponent=1.0)
    elapsed = time.time() - t0
    want = 6 / math.pi ** 2
    rel = abs(fit.log_coefficient - want) / want
    ok = rel <= 0.10 and elapsed < 600
    _report(5, "double-pole two-parameter fit", ok)
    assert ok, f"C fit {fit.log_coefficient:.6f} vs {want:.6f} ({rel:.2%}), {elapsed:.0f}s"


def test_criterion_6_partition_identity():
    # the partition suite: at every B = 1..30 the Whole count equals the
    # streamed U points plus the directly enumerated F points, and the F
    # count equals the direct F points
    checks = _suite_partition(1)
    ok = len(checks) == 2 and all(c["ok"] for c in checks)
    _report(6, "exact partition identity", ok)
    assert ok, checks


def test_criterion_7_oracle_equivalence():
    # the oracle suite: the P^n walk against the Moebius sieve, n <= 3,
    # at every B = 1..50
    checks = _suite_oracle()
    ok = len(checks) == 1 and all(c["ok"] for c in checks)
    _report(7, "enumeration vs sieve oracle", ok)
    assert ok, checks


def test_criterion_8_thread_determinism(monkeypatch):
    X = HKVariety(1, 2, (1,))
    L = LineBundleClass(1, 1)
    one = count_hk(CountRequest(X, L, Fraction(60), Region.GOOD_OPEN,
                                threads=1)).count
    four = count_hk(CountRequest(X, L, Fraction(60), Region.GOOD_OPEN,
                                 threads=4)).count
    # an r = 1 count runs in one process; the 23 base norms of this r = 2
    # count are split over a pool of 4 workers, on 4 CPUs as far as the
    # count can tell
    pool = concurrent.futures.ProcessPoolExecutor
    started = []

    def spy(max_workers, **pool_args):
        started.append(max_workers)
        return pool(max_workers=max_workers, **pool_args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    Y = HKVariety(2, 2, (1, 1))
    pooled = [count_hk(CountRequest(Y, anticanonical(Y), Fraction(1000),
                                    Region.GOOD_OPEN, threads=k)).count
              for k in (1, 4)]
    ok = one == four and pooled == [8880, 8880] and started == [4]
    _report(8, "thread determinism", ok)
    assert ok, (one, four, pooled, started)


def test_criterion_9_arakelov_suite():
    # the arakelov, integral and residue suites: the theta functional
    # equation, the direct-sum identity and the decay bound on phi; the
    # integral representation of 2 xi(s) at s = 2, 3, 5 and the rank-(n+1)
    # identity at (n, s) = (1, 4) by the numeric route and at (2, 5) and
    # (3, 6) by the theta route; the residue of Z_(P^1) at s = 2
    t0 = time.time()
    checks = _suite_arakelov() + _suite_integral() + _suite_residue()
    elapsed = time.time() - t0
    ok = (len(checks) == 10 and all(c["ok"] for c in checks)
          and elapsed < 60)
    _report(9, "arakelov identity suite", ok)
    assert ok, (checks, elapsed)


_random_varieties = st.builds(
    lambda r, t, a: HKVariety(r, t, tuple(sorted(a[:r]))),
    st.integers(1, 4), st.integers(2, 4),
    st.lists(st.integers(0, 5), min_size=4, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(_random_varieties)
def test_criterion_10a_fan_properties(X):
    fan = build_fan(X)
    assert len(fan.rays) == X.r + X.t + 1
    assert len(fan.maximal_cones) == X.t * (X.r + 1)
    assert fan_is_smooth(fan)
    mk = anticanonical(X)
    assert is_big(mk)
    e = exponents(X, mk)
    assert (e.lambda_l, e.mu_l, e.case) == (1, 1, CaseTag.EQUAL)


def test_criterion_10b_restriction_heights_and_report():
    # 500 random subbundle points: height on X equals height on F
    from hkcount.geometry import ProjectiveSpace, restrict_to_F
    from hkcount.heights import HKRationalPoint, base_height_sq, height_L_sq
    rng = random.Random(8261)
    checked = 0
    ok = True
    while checked < 500:
        r, t = rng.randint(1, 4), rng.randint(2, 4)
        X = HKVariety(r, t, tuple(sorted(rng.randint(0, 5) for _ in range(r))))
        L = LineBundleClass(rng.randint(1, 5), rng.randint(1, 8))
        base = [rng.randint(-9, 9) for _ in range(t)]
        fiber = [0] + [rng.randint(-9, 9) for _ in range(r)]
        if not any(base) or not any(fiber):
            continue
        pt = HKRationalPoint(canonicalize(base), canonicalize(fiber))
        sub_space, sub_bundle = restrict_to_F(X, L)
        if isinstance(sub_space, ProjectiveSpace):
            h_f = Fraction(base_height_sq(pt.base)) ** sub_bundle
        else:
            y = pt.fiber.coords
            h_f = height_L_sq(sub_space, sub_bundle,
                              HKRationalPoint(pt.base,
                                              canonicalize((y[-1],) + y[1:-1])))
        ok = ok and height_L_sq(X, L, pt) == h_f
        checked += 1
    _report(10, "geometry property suite", ok)
    assert ok
