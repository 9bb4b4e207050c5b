"""Command-line frontend: predictions, exact counts, sweeps, reference
tables, special-function evaluation, and verification suites.

Exit codes: 0 success; 2 argument/parse error (argparse convention), or
a value beyond reach (a zeta next to its pole or past the double range,
a bound whose sieve or histogram table cannot be allocated);
3 requested count is infinite (non-big bundle on the requested region);
4 a verification suite reported a failure; 141 stdout closed before the
output ended (a pipe into `head`).  `_refuse` prints the one stderr line
of every exit 2 or 3 that argparse itself does not.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from . import arakelov
from .constants import (
    QQ,
    AsymptoticPrediction,
    DomainError,
    FieldGapError,
    FieldInvariants,
    L_minus4,
    TooCloseToPoleError,
    hirzebruch_table,
    load_invariants,
    predict,
    region_prediction,
    stratum_predictions,
    threefold_cases,
    threefold_intro,
    xi_K,
    zeta,
    zetaP_best,
    zetaP_numeric,
)
# the benchmark's tracer wraps these names on this module, so each stays
# importable from it (count_subbundle_direct too, though no suite calls it)
from .enumeration import CountRequest, count_hk, count_projective_moebius, \
    count_subbundle_direct, enum_hk_points, projective_norm_histogram, sweep
from .geometry import HKVariety, LineBundleClass, NotBigError, anticanonical
from .heights import Region, cleared_height_sq

# No count makes a BLAS call (its arrays are int64), yet OpenBLAS starts a
# thread pool when numpy loads.  One BLAS thread (2-vCPU VM, numpy 2.4 with
# scipy-openblas, median of 9 fresh interpreters) takes `import numpy`
# after this module from 0.136 to 0.067 s and a numpy-loading process from
# 2 threads to 1.  Only the CLI process gets this default; a caller's own
# value wins, and none of the package imports above loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFINITE = 3
EXIT_VERIFY = 4

_REGIONS = {"u": Region.GOOD_OPEN, "f": Region.SUBBUNDLE_F, "x": Region.WHOLE,
            "whole": Region.WHOLE}


def _parse_bound(text: str) -> Fraction:
    try:
        bound = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc
    if bound <= 0:
        raise argparse.ArgumentTypeError(f"bound must be positive, got {text!r}")
    return bound


def _parse_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


def _parse_tol(text: str) -> float:
    tol = _parse_finite(text)
    if tol <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {text!r}")
    return tol


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad thread count {text!r}") from exc
    if threads < 1:
        raise argparse.ArgumentTypeError(f"threads must be >= 1, got {text!r}")
    return threads


def _parse_variety(text: str) -> HKVariety:
    try:
        return HKVariety.parse(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_bundle(text: str) -> LineBundleClass:
    try:
        return LineBundleClass.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_grid(text: str) -> list[Fraction]:
    try:
        vals = [Fraction(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc
    if len(vals) < 1 or any(b <= a for a, b in zip(vals, vals[1:])):
        raise argparse.ArgumentTypeError("grid must be strictly increasing")
    if vals[0] <= 0:
        raise argparse.ArgumentTypeError("grid bounds must be positive")
    return vals


def _field(args) -> FieldInvariants:
    if not args.field:
        return QQ
    try:
        return load_invariants(args.field)
    except (OSError, ValueError) as exc:
        raise SystemExit(_refuse(exc, "--field")) from None


def _refuse(exc: BaseException, arg: Optional[str] = None) -> int:
    """Print the one stderr line of a refused request and return its exit
    code.  A class that is not big on the region gives 3 (`infinite: ...`).
    Everything else gives 2: a bad value of argument `arg`, or one that the
    --field file does not supply (`FieldGapError`), takes argparse's
    `hkcount: error: ARG: ...`; a table that cannot be allocated,
    `error: bound beyond reach: ...`; any other value beyond reach (a pole,
    the double range), `error: ...`."""
    if isinstance(exc, NotBigError):
        print(f"infinite: {exc}", file=sys.stderr)
        return EXIT_INFINITE
    if isinstance(exc, FieldGapError):
        arg = "--field"
    if arg is not None:
        line = f"hkcount: error: {arg}: {exc}"
    elif isinstance(exc, MemoryError):
        line = f"error: bound beyond reach: {str(exc) or 'out of memory'}"
    else:
        line = f"error: {exc}"
    print(line, file=sys.stderr)
    return EXIT_PARSE


def _pred_record(p: AsymptoticPrediction) -> dict:
    return {
        "a": str(p.a_l),
        "logExponent": p.log_exponent,
        "C": p.constant,
        "case": p.case.value if p.case else None,
        "source": p.source.value,
        "region": p.region.value,
    }


def _emit(args, payload: dict, text_lines: Sequence[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_predict(args) -> int:
    X = args.variety
    L = args.bundle if args.bundle is not None else anticanonical(X)
    inv = _field(args)
    try:
        main = predict(X, L, inv)
        strata = stratum_predictions(X, L, inv)
    except (NotBigError, DomainError, OverflowError,
            TooCloseToPoleError) as exc:
        return _refuse(exc)
    chain = []
    for sp in strata:
        entry = {
            "space": str(sp.stratum.space),
            "bundle": str(sp.stratum.bundle),
            "openPart": sp.stratum.open_part,
            "big": sp.stratum.big,
            "note": sp.note,
            "prediction": _pred_record(sp.prediction) if sp.prediction else None,
        }
        chain.append(entry)
    payload = {"variety": str(X), "bundle": str(L),
               "prediction": _pred_record(main), "chain": chain}
    lines = [f"variety {X}  bundle {L}",
             f"  a = {main.a_l}  logExponent = {main.log_exponent}  "
             f"C = {main.constant:.8g}  case = {main.case.value}"]
    for entry in chain:
        verdict = entry["note"] or (
            f"C = {entry['prediction']['C']:.8g}  a = {entry['prediction']['a']}"
            f"  log = {entry['prediction']['logExponent']}")
        kind = "open" if entry["openPart"] else "whole"
        lines.append(f"  stratum {entry['space']} | {entry['bundle']} "
                     f"({kind}): {verdict}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_count(args) -> int:
    X = args.variety
    L = args.bundle if args.bundle is not None else anticanonical(X)
    region = _REGIONS[args.region]
    req = CountRequest(X, L, args.B, region=region, threads=args.threads)
    try:
        if args.stream:
            for pt in enum_hk_points(X, L, args.B, region):
                print(pt)
            return EXIT_OK
        res = count_hk(req)
    except (NotBigError, MemoryError) as exc:
        return _refuse(exc)
    payload = {"variety": str(X), "bundle": str(L), "B": str(args.B),
               "region": region.value, "count": res.count,
               "elapsed": res.elapsed}
    _emit(args, payload,
          [f"N({region.value}, B={args.B}) = {res.count}  "
           f"[{res.elapsed:.3f}s]"])
    return EXIT_OK


def cmd_sweep(args) -> int:
    X = args.variety
    L = args.bundle if args.bundle is not None else anticanonical(X)
    region = _REGIONS[args.region]
    inv = _field(args)
    try:
        try:  # a prediction beyond reach leaves the columns empty
            prediction = (None if args.no_predict
                          else region_prediction(X, L, region, inv))
        except (TooCloseToPoleError, OverflowError):
            prediction = None
        rows = sweep(CountRequest(X, L, args.grid[0], region=region,
                                  threads=args.threads),
                     args.grid, prediction)
    except (NotBigError, DomainError, MemoryError) as exc:
        return _refuse(exc)
    if args.format == "json":
        print(json.dumps([{**r, "B": str(r["B"])} for r in rows], indent=2))
    elif args.format == "text":
        for r in rows:
            extra = (f"  predicted={r['predicted']:.4f}  ratio={r['ratio']:.4f}"
                     if r["predicted"] is not None else "")
            print(f"B={r['B']}  count={r['count']}{extra}")
    else:
        print("B,count,predicted,ratio")
        for r in rows:
            pred = "" if r["predicted"] is None else f"{r['predicted']:.8f}"
            ratio = "" if r["ratio"] is None else f"{r['ratio']:.8f}"
            print(f"{r['B']},{r['count']},{pred},{ratio}")
    return EXIT_OK


def cmd_tables(args) -> int:
    inv = _field(args)
    try:
        hz = hirzebruch_table(inv)
        intro = threefold_intro(inv)
    except (DomainError, OverflowError) as exc:
        return _refuse(exc)
    cases = threefold_cases()
    payload = {
        "hirzebruch": [{**row, "a_l": str(row["a_l"])} for row in hz],
        "threefold": {"C": intro["C"], "Cprime": intro["Cprime"],
                      "Csecond": intro["Csecond"]},
        "threefoldCases": [
            {"case": c["case"], "representative": list(c["rep"]),
             "LBig": c["L_big"], "MBig": c["M_big"],
             "growth": [list(g) for g in c["growth"]]}
            for c in cases],
    }
    lines = ["Twist-1 surface constants (lam, mu, case, a, log, C):"]
    for row in hz:
        lines.append(f"  ({row['lam']},{row['mu']})  {row['case']:<16} "
                     f"a={row['a_l']}  log={row['log_exponent']}  "
                     f"C={row['C']:.8f}")
    lines.append("Threefold chain constants at the anticanonical class:")
    lines.append(f"  C  = {intro['C']:.8g}")
    lines.append(f"  C' = {intro['Cprime']:.8g}")
    lines.append(f"  C''= {intro['Csecond']:.8g}")
    lines.append("Threefold parameter regions "
                 "(case | L' big? | twist big? | growth):")
    for c in cases:
        growth = ", ".join(f"{n}~{g}" for n, g in c["growth"])
        lines.append(f"  {c['case']:<18} {'yes' if c['L_big'] else 'no':<4} "
                     f"{'yes' if c['M_big'] else 'no':<4} {growth}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_zeta(args) -> int:
    inv = _field(args)
    if args.field and args.what != "xi":
        return _refuse(FieldGapError(
            f"--what {args.what} is evaluated over Q only; --what xi reads "
            "the field"))
    try:
        if args.what == "zetaP":
            val = (zetaP_numeric(args.m, args.s, args.tol)
                   if args.numeric else zetaP_best(args.m, args.s))
        elif args.what == "zeta":
            val = zeta(args.s)
        elif args.what == "xi":
            val = xi_K(args.s, inv)
        else:
            val = L_minus4(args.s)
    except (ValueError, OverflowError, TooCloseToPoleError) as exc:
        return _refuse(exc)
    payload = {"what": args.what, "m": args.m, "s": args.s, "value": val}
    _emit(args, payload, [f"{val!r}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _check(name: str, observed, tolerance) -> dict:
    """One verify record; a check passes when observed <= tolerance."""
    return {"name": name, "observed": observed, "tolerance": tolerance,
            "ok": observed <= tolerance}


def _suite_arakelov() -> list[dict]:
    worst = 0.0
    x = -5.0
    while x <= 5.0 + 1e-9:
        worst = max(worst, abs(arakelov.h0(x) - arakelov.h0(-x) - x))
        x += 0.01
    scales = (1.0, 0.5, 2.0, 3.7)
    _, gap = arakelov.phi_oplus_check(scales, -0.3)
    grid = [-5.0 + 0.1 * k for k in range(51)]
    # the tolerance is the certified beta that the check's own verdict uses
    _, beta = arakelov.geer_schoof_bound_check(grid)
    return [
        _check("theta functional equation h0(x)-h0(-x)=x", worst, 1e-12),
        _check("direct-sum identity (product vs symmetric)", gap, 1e-12),
        _check("double-exponential decay bound on phi", beta,
               arakelov._GS_BETA),
    ]


def _suite_integral() -> list[dict]:
    checks = []
    for s in (2.0, 3.0, 5.0):
        got = arakelov.xi_integral(s)
        want = 2.0 * xi_K(s)
        checks.append(_check(f"integral representation of 2*xi({s:g})",
                             abs(got - want), 1e-8))
    for n, s, route in ((1, 4.0, "numeric"), (2, 5.0, "theta"),
                        (3, 6.0, "theta")):
        _, rhs, diff = arakelov.prop5_identity_check(n, s, route)
        checks.append(_check(
            f"rank-{n + 1} integral identity at (n,s)=({n},{s:g}), "
            f"Z_(P^{n}) by the {route} route", abs(diff),
            arakelov.prop5_identity_tolerance(n, s, rhs)))
    return checks


def _suite_residue() -> list[dict]:
    err = abs(arakelov.maruyama_residue_check() - 6.0 / math.pi)
    return [_check("residue of Z_(P^1) at s=2 equals 6/pi", err, 1e-3)]


def _direct_counts(X: HKVariety, L: LineBundleClass, top: int,
                   region: Region) -> tuple[list[int], int]:
    """Direct counts N(region, b) for b = 1..top from one `enum_hk_points`
    stream at B = top, and the number of streamed points above top.

    Each point goes into the bucket of its least integer bound
    b = ceil(H_L(P)), read off the exact H_L^2 = n/d of `cleared_height_sq`
    as isqrt(n // d), plus one when b^2 d < n; the prefix sums of the
    buckets are the counts.  Integers only."""
    buckets = [0] * (top + 2)  # buckets[top + 1]: points above the bound
    for P in enum_hk_points(X, L, top, region):
        n, d = cleared_height_sq(X, L, P)
        b = math.isqrt(n // d)
        if b * b * d < n:
            b += 1
        buckets[min(max(b, 1), top + 1)] += 1
    return list(accumulate(buckets[1:top + 1])), buckets[top + 1]


def _suite_partition(threads: int) -> list[dict]:
    X = HKVariety(2, 2, (0, 1))
    L = anticanonical(X)
    top = 30
    # the count sums its strata, so compare it with the streamed U points
    # plus the directly enumerated F points, each stream walked once
    u, u_above = _direct_counts(X, L, top, Region.GOOD_OPEN)
    f_direct, f_above = _direct_counts(X, L, top, Region.SUBBUNDLE_F)
    bad_sum = bad_dir = 0  # bounds at which an identity fails
    for b in range(1, top + 1):
        B = Fraction(b)
        whole = count_hk(CountRequest(X, L, B, Region.WHOLE, threads)).count
        f = count_hk(CountRequest(X, L, B, Region.SUBBUNDLE_F, threads)).count
        # a streamed point above its own bound fails the check at the top
        stray_u = b == top and u_above > 0
        stray_f = b == top and f_above > 0
        bad_sum += stray_u or stray_f or whole != u[b - 1] + f_direct[b - 1]
        bad_dir += stray_f or f != f_direct[b - 1]
    return [
        _check(f"partition N(X) = N(U) + N(F), B = 1..{top}", bad_sum, 0),
        _check("subbundle count by reduction equals direct enumeration",
               bad_dir, 0),
    ]


def _suite_oracle() -> list[dict]:
    ok = True
    for n in (1, 2, 3):
        hist = projective_norm_histogram(n, 50 * 50)
        norms = sorted(hist)
        i = cum = 0  # cum = number of points of height <= b
        for b in range(1, 51):
            while i < len(norms) and norms[i] <= b * b:
                cum += hist[norms[i]]
                i += 1
            ok = ok and (cum == count_projective_moebius(n, b))
    return [_check("enumeration equals Moebius-sieve count, n<=3, B<=50",
                   0 if ok else 1, 0)]


_SUITES = {
    "arakelov": lambda args: _suite_arakelov(),
    "integral": lambda args: _suite_integral(),
    "residue": lambda args: _suite_residue(),
    "partition": lambda args: _suite_partition(args.threads),
    "oracle": lambda args: _suite_oracle(),
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = {}
    all_ok = True
    lines = []
    for name in names:
        checks = _SUITES[name](args)
        report[name] = checks
        for c in checks:
            all_ok = all_ok and c["ok"]
            lines.append(f"{'PASS' if c['ok'] else 'FAIL'}  [{name}] "
                         f"{c['name']} (observed {c['observed']:.3e}, "
                         f"tol {c['tolerance']:.3e})")
    _emit(args, {"suites": report, "ok": all_ok}, lines)
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hkcount",
        description="Bounded-height rational point counts and asymptotic "
                    "constants on projectivized split bundles.")
    sub = ap.add_subparsers(dest="command", required=True)
    threads = os.cpu_count() or 1

    def common(p, bundle=True, field=True, formats=("text", "json")):
        if bundle:
            p.add_argument("--variety", type=_parse_variety, required=True,
                           help="variety literal 'r,t:a1,...,ar'")
            p.add_argument("--bundle", type=_parse_bundle, default=None,
                           help="bundle literal 'lam,mu' (default: "
                                "anticanonical)")
        if field:
            p.add_argument("--field", default=None,
                           help="path to a number-field invariants file "
                                "(default: rationals)")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("predict", help="asymptotic growth prediction")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("count", help="exact count of points of height <= B")
    common(p, field=False)
    p.add_argument("--B", type=_parse_bound, required=True,
                   help="height bound (rational, e.g. 100 or 5/2)")
    p.add_argument("--region", choices=sorted(_REGIONS), default="x")
    p.add_argument("--threads", type=_parse_threads, default=threads)
    p.add_argument("--stream", action="store_true",
                   help="print every point instead of the count")
    p.set_defaults(func=cmd_count, field=None)

    p = sub.add_parser("sweep", help="counts over a grid of bounds (CSV)")
    common(p, formats=("csv", "text", "json"))
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="comma-separated strictly increasing bounds")
    p.add_argument("--region", choices=sorted(_REGIONS), default="x")
    p.add_argument("--threads", type=_parse_threads, default=threads)
    p.add_argument("--no-predict", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tables", help="reference constant tables")
    common(p, bundle=False)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("zeta", help="evaluate zeta / xi / L4 / zetaP")
    common(p, bundle=False)
    p.add_argument("--what", choices=("zetaP", "zeta", "xi", "L4"),
                   default="zetaP")
    p.add_argument("--m", type=int, default=1,
                   help="projective-space dimension for zetaP")
    p.add_argument("--s", type=_parse_finite, required=True)
    p.add_argument("--tol", type=_parse_tol, default=1e-8)
    p.add_argument("--numeric", action="store_true",
                   help="force direct point summation for zetaP")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("verify", help="verification suites")
    common(p, bundle=False, field=False)
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(_SUITES))
    p.add_argument("--threads", type=_parse_threads, default=threads)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # no reader is left: devnull takes the final flush at exit, and the
        # code is the shell's for a process that SIGPIPE ended, 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    return code


if __name__ == "__main__":
    sys.exit(main())
