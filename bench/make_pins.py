"""Regenerate bench/pins.json: the expected outputs of the fixed workloads
and the menus cli-mix draws predict and zeta ops from.

Every pin is cross-checked against a route that does not share code with
the path that produced it, and the script stops on the first mismatch:

* counts: --threads 1 equals --threads 2, and the count equals
  reference.ref_count (or, for the P^2 count, a Moebius sum over lattice
  ball counts written in reference.py);
* U + F = Whole on each pinned variety at small B, against a brute force
  built on hkcount.heights.height_le;
* P^n counts: direct enumeration, the Moebius sieve and reference.py agree;
* reference.ref_count equals the brute force on random small inputs;
* constants: Z_(P^1) by the closed form against the theta route (1e-12
  relative); Z_(P^m), m >= 2, by the theta route against direct summation
  (ten times the summation tolerance the work budget allows); zeta, xi
  and L_(-4) against mpmath (1e-12).

Run from the repository root:  python3 bench/make_pins.py
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath as mp  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from hkcount import cli  # noqa: E402
from hkcount.constants import (  # noqa: E402
    TooCloseToPoleError, predict, zetaP_numeric, zetaP_theta)
from hkcount.enumeration import (  # noqa: E402
    CountRequest, count_enum_projective, count_hk, count_projective_moebius)
from hkcount.geometry import (  # noqa: E402
    HKVariety, LineBundleClass, anticanonical)
from hkcount.heights import Region  # noqa: E402

REGION = {"u": Region.GOOD_OPEN, "f": Region.SUBBUNDLE_F, "x": Region.WHOLE}

PREDICT_MENU = [
    ("1,2:1", None), ("1,2:1", "1,1"), ("1,2:1", "2,3"), ("1,2:1", "3,2"),
    ("1,2:1", "1,3"), ("1,2:2", "1,4"), ("1,3:1", None), ("1,3:2", "2,5"),
    ("2,2:0,1", None), ("2,2:1,1", None), ("2,3:1,1", "1,4"),
    ("3,2:1,1,1", None), ("3,2:2,2,2", "1,5"), ("3,3:1,1,1", None),
    ("1,2:0", "1,1"),
]
ZETA_MENU = [
    ("zetaP", 1, 3.5), ("zetaP", 1, 6.0), ("zetaP", 2, 6.0), ("zetaP", 2, 7.25),
    ("zetaP", 3, 8.0), ("zetaP", 3, 9.5), ("zeta", 1, 2.5), ("zeta", 1, 1.25),
    ("xi", 1, 3.0), ("xi", 1, 4.5), ("L4", 1, 1.5), ("L4", 1, 3.0),
]


def cli_json(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def require(ok: bool, what: str, log: list) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")
    log.append(what)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def lib_count(r, t, a, lam, mu, B, region, threads=1) -> int:
    req = CountRequest(HKVariety(r, t, tuple(a)), LineBundleClass(lam, mu),
                       Fraction(B), REGION[region], threads)
    return count_hk(req).count


def pin_counts(log) -> dict:
    surface = (1, 2, (1,), 2, 3)           # X_2(1), -K = 2h + 3f
    threefold = (2, 2, (1, 1), 3, 3)        # X_3(1,1), -K = 3h + 3f
    p2_twist = (1, 3, (1,), 1, 2)           # F of X_3(1) is P^2 with O(1)
    cases = [(workloads.SURFACE, surface, 2 ** 30, "u"),
             (workloads.THREEFOLD_U, threefold, 10_000_000, "u"),
             (workloads.THREEFOLD_F, p2_twist, 2000, "f")]
    counts = {}
    for argv, (r, t, a, lam, mu), B, region in cases:
        c1 = lib_count(r, t, a, lam, mu, B, region, 1)
        c2 = lib_count(r, t, a, lam, mu, B, region, 2)
        require(c1 == c2, f"{' '.join(argv)}: threads 1 = threads 2 = {c1}", log)
        if region == "f":
            other = ref.primitive_count(t, B * B)  # twist mu - lam a_1 = 1
            route = "Moebius sum over ball counts (reference.py)"
        else:
            other = ref.ref_count(r, t, a, lam, mu, B, region)
            route = "reference.ref_count"
        require(c1 == other, f"{' '.join(argv)}: {route} = {other}", log)
        counts[" ".join(argv)] = c1
        finite = [g for g in ("u", "f", "x") if ref.is_finite(a, lam, mu, g)]
        for small in range(1, 13):
            got = {}
            for g in finite:
                got[g] = lib_count(r, t, a, lam, mu, small, g)
                brute = ref.brute_points(r, t, a, lam, mu, small, g, 10 ** 6)
                if got[g] != len(brute):
                    require(False, f"{g} at B={small}: {got[g]} != brute "
                                   f"{len(brute)}", log)
            if len(got) == 3 and got["u"] + got["f"] != got["x"]:
                require(False, f"U + F != Whole at B={small}", log)
        what = "U + F = Whole" if len(finite) == 3 else f"{'/'.join(finite)}"
        require(True, f"{' '.join(argv)}: {what} against the brute force, "
                      f"B = 1..12", log)
    for n in (1, 2, 3):
        for B in range(1, 26):
            d = count_enum_projective(n, B)
            s = count_projective_moebius(n, B)
            o = ref.primitive_count(n + 1, B * B)
            if not d == s == o:
                require(False, f"P^{n} at B={B}: enum {d} sieve {s} ref {o}", log)
        require(True, f"P^{n}: enumeration = sieve = reference, B = 1..25", log)
    return counts


def check_reference(log) -> None:
    rng = random.Random(2024)
    done = 0
    while done < 150:
        r, t = rng.randint(1, 3), rng.randint(2, 3)
        a = tuple(sorted(rng.randint(0, rng.choice((3, 20))) for _ in range(r)))
        lam, mu = rng.randint(1, 6), rng.randint(1, 6)
        region, B = rng.choice("ufx"), Fraction(rng.randint(1, 60), rng.choice((1, 2)))
        if not ref.is_finite(a, lam, mu, region):
            continue
        pts = ref.brute_points(r, t, a, lam, mu, B, region, 20000)
        if pts is None:
            continue
        done += 1
        rc = ref.ref_count(r, t, a, lam, mu, B, region)
        if rc != len(pts):
            require(False, f"ref_count {rc} != brute {len(pts)} at "
                           f"{(r, t, a, lam, mu, B, region)}", log)
    require(True, "reference.ref_count = brute force on 150 random inputs", log)


USED_M: dict[int, float] = {}


def numeric_zeta(m: int, s: float) -> tuple[float, float]:
    """Z_(P^m)(s) by direct summation at the finest tolerance within budget."""
    for tol in (1e-7, 1e-6, 1e-5, 1e-4):
        try:
            return zetaP_numeric(m, s, tol), tol
        except TooCloseToPoleError:
            continue
    raise SystemExit(f"Z_(P^{m})({s}) is out of reach of direct summation")


def alt_zeta(m: int, s: float) -> float:
    """Z_(P^m) by a route other than hkcount's default for that m: the theta
    route for m = 1, direct summation for m >= 2."""
    if m == 1:
        USED_M[m] = 1e-12
        return zetaP_theta(1, s)
    val, tol = numeric_zeta(m, s)
    USED_M[m] = max(USED_M.get(m, 0.0), 10 * tol)
    return val


def pin_predict(log) -> list:
    out = []
    for variety, bundle in PREDICT_MENU:
        argv = ["predict", "--variety", variety] + (
            ["--bundle", bundle] if bundle else []) + ["--format", "json"]
        payload = cli_json(argv)
        X = HKVariety.parse(variety)
        L = LineBundleClass.parse(bundle) if bundle else anticanonical(X)
        want = payload["prediction"]["C"]
        USED_M.clear()
        got = predict(X, L, zeta_proj=alt_zeta).constant
        tol = max(USED_M.values(), default=1e-12)
        route = (f"Z_(P^m), m in {sorted(USED_M)}, by another route"
                 if USED_M else "no Z_(P^m) factor; C recomputed")
        require(rel(got, want) <= tol,
                f"predict {variety} {bundle}: {route} agrees to "
                f"{rel(got, want):.1e} (tol {tol:g})", log)
        out.append({"argv": argv, "payload": payload})
    return out


def pin_zeta(log) -> list:
    out = []
    mp.mp.dps = 30
    for what, m, s in ZETA_MENU:
        argv = ["zeta", "--what", what, "--s", repr(s), "--format", "json"]
        if what == "zetaP":
            argv[3:3] = ["--m", str(m)]
        payload = cli_json(argv)
        val = payload["value"]
        if what == "zetaP":
            USED_M.clear()
            other = alt_zeta(m, s)
            tol = USED_M[m]
        elif what == "zeta":
            other, tol = float(mp.zeta(s)), 1e-12
        elif what == "xi":
            other = float(mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s) / 2)
            tol = 1e-12
        else:
            other = float(mp.dirichlet(s, [0, 1, 0, -1]))
            tol = 1e-12
        require(rel(val, other) <= tol,
                f"zeta {what} m={m} s={s}: independent route agrees to "
                f"{rel(val, other):.1e} (tol {tol:g})", log)
        out.append({"argv": argv, "payload": payload})
    return out


def pin_tables(log) -> dict:
    payload = cli_json(["tables", "--format", "json"])
    X = HKVariety(1, 2, (1,))
    worst = 0.0
    for row in payload["hirzebruch"]:
        L = LineBundleClass(row["lam"], row["mu"])
        worst = max(worst, rel(predict(X, L, zeta_proj=alt_zeta).constant, row["C"]))
    require(worst <= 1e-12, f"tables: twist-1 constants by the theta route "
                            f"agree to {worst:.1e}", log)
    return payload


def main() -> None:
    log: list[str] = []
    check_reference(log)
    pins = {"counts": pin_counts(log), "predict": pin_predict(log),
            "zeta": pin_zeta(log), "tables": pin_tables(log)}
    pins["cross_checks"] = log
    workloads.PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {workloads.PINS}")


if __name__ == "__main__":
    main()
