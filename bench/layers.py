"""Per-layer metrics from the traced twins' spans (see tracer.py).

Each metric is summed over the workload's ops, one traced twin per op.  A
metric whose layer the workload never reaches is reported as 0 and named
in the list of not-applicable metrics.
"""
from __future__ import annotations

import re
import statistics
from math import isqrt

import reference as ref

# name -> (unit, layer); a metric is not applicable when its layer never ran
METRICS = {
    "import.total_s": ("s", "import.total"),
    "import.scipy_s": ("s", "import.scipy"),
    "import.numpy_s": ("s", "import.numpy"),
    "import.mpmath_s": ("s", "import.mpmath"),
    "cli.dispatch_s": ("s", "cli"),
    "heights.stream_s": ("s", "heights.stream"),
    "heights.stream_points": ("count", "heights.stream"),
    "enumeration.histogram_s": ("s", "enumeration.histogram"),
    "enumeration.histogram_vectors": ("count", "enumeration.histogram"),
    "enumeration.histogram_norms": ("count", "enumeration.histogram"),
    "enumeration.histogram_primitive_ratio": ("ratio", "enumeration.histogram"),
    "enumeration.fibers_s": ("s", "enumeration.good_open"),
    "enumeration.fiber_rows": ("count", "enumeration.good_open"),
    "enumeration.points_per_row": ("ratio", "enumeration.good_open"),
    "enumeration.divisor_cache_hit_ratio": ("ratio", "enumeration.divisor_cache"),
    "enumeration.divisor_cache_size": ("count", "enumeration.divisor_cache"),
    "enumeration.pool_calls": ("count", "enumeration.good_open"),
    "enumeration.pool_overhead_s": ("s", "enumeration.pool"),
    "enumeration.moebius_s": ("s", "enumeration.moebius"),
    "enumeration.moebius_terms": ("count", "enumeration.moebius"),
    "enumeration.direct_enum_s": ("s", "enumeration.direct_enum"),
    "enumeration.sweep_s": ("s", "enumeration.sweep"),
    "enumeration.sweep_calls": ("count", "enumeration.sweep"),
    "constants.predict_s": ("s", "constants.predict"),
    "constants.predict_calls": ("count", "constants.predict"),
    "constants.zetaP_theta_s": ("s", "constants.zetaP_theta"),
    "constants.tables_s": ("s", "constants.tables"),
    "constants.zetaP_numeric_s": ("s", "constants.zetaP_numeric"),
    "constants.zetaP_numeric_vectors": ("count", "constants.zetaP_numeric"),
    "arakelov.quad_s": ("s", "arakelov.quad"),
    "arakelov.phi_calls": ("count", "arakelov.phi"),
    "arakelov.theta_check_s": ("s", "arakelov.theta_check"),
    "verify.oracle_s": ("s", "verify.oracle"),
    "verify.integral_s": ("s", "verify.integral"),
    "verify.partition_s": ("s", "verify.partition"),
    "verify.arakelov_s": ("s", "verify.arakelov"),
    "verify.residue_s": ("s", "verify.residue"),
    "trace.overhead_s": ("s", "trace"),
}

_IMPORT_RE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of hkcount, and of the outermost imports of scipy,
    numpy and mpmath (nested ones are inside their parent's time)."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_RE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1e6))
    out = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "mpmath": 0.0}
    # -X importtime prints children before their parent; walk it backwards
    # so that each entry's open ancestors are on the stack.
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if name == "hkcount":
            out["total"] += cum
        elif top in out and all(a.split(".")[0] != top for _, a in stack):
            out[top] += cum
        stack.append((depth, name))
    return out


def _spans(twin):
    return twin["trace"]["spans"] if twin.get("trace") else []


def _dur(span) -> float:
    return span[2] - span[1]


def _outermost(spans, name):
    """Spans called `name` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(s)
    return out


def _children(spans, idx, name):
    return [s for s in spans if s[3] == idx and s[0] == name]


def layer_metrics(untraced, twins) -> tuple[dict, list]:
    m: dict[str, float] = {}
    seen: set[str] = set()   # layers the workload reached

    def total(name):
        found = [s for t in twins for s in _outermost(_spans(t), name)]
        if found:
            seen.add(name)
        return sum(_dur(s) for s in found)

    def spans_named(name):
        found = [(t, i, s) for t in twins for i, s in enumerate(_spans(t))
                 if s[0] == name]
        if found:
            seen.add(name)
        return found

    imports = [t["importtime"] for t in twins if t.get("importtime")]
    for key in ("total", "scipy", "numpy", "mpmath"):
        vals = [d[key] for d in imports]
        m[f"import.{key}_s"] = statistics.fmean(vals) if vals else 0.0
        if any(vals):
            seen.add(f"import.{key}")
    m["cli.dispatch_s"] = sum(
        u["wall"] - t["trace"]["import_s"] - t["trace"]["handler_s"]
        for u, t in zip(untraced, twins) if t.get("trace"))
    seen.add("cli")

    stream = spans_named("heights.stream")
    m["heights.stream_s"] = sum(_dur(s) for _, _, s in stream)
    m["heights.stream_points"] = sum(s[4].get("points", 0) for _, _, s in stream)

    hist = [s for t in twins for s in _outermost(_spans(t), "enumeration.histogram")]
    if hist:
        seen.add("enumeration.histogram")
    m["enumeration.histogram_s"] = sum(_dur(s) for s in hist)
    vectors = sum(s[4]["vectors"] for s in hist if "vectors" in s[4])
    m["enumeration.histogram_vectors"] = vectors
    m["enumeration.histogram_norms"] = sum(s[4].get("norms", 0) for s in hist)
    walked = sum((ref.ball(dim, n2) - 1) // 2
                 for s in hist for dim, n2 in s[4].get("walks", []))
    m["enumeration.histogram_primitive_ratio"] = vectors / walked if walked else 0.0

    # good-open counts: serial ones give fiber time, pooled ones pool overhead
    fibers, serial_by_key, pooled = 0.0, {}, []
    rows = points = pool_calls = 0
    for t, i, s in spans_named("enumeration.good_open"):
        sp = _spans(t)
        h = _children(sp, i, "enumeration.histogram")
        hist_s = sum(_dur(c) for c in h)
        norms = sum(c[4].get("norms", 0) for c in h)
        rows += s[4].get("rows", 0)
        points += s[4].get("count", 0)
        threads = s[4]["threads"]
        if threads > 1 and norms >= 4 * threads:
            pool_calls += 1
            pooled.append((s[4]["key"], threads, _dur(s) - hist_s))
        else:
            fibers += _dur(s) - hist_s
            serial_by_key.setdefault(s[4]["key"], []).append(_dur(s) - hist_s)
    m["enumeration.fibers_s"] = fibers
    m["enumeration.fiber_rows"] = rows
    m["enumeration.points_per_row"] = points / rows if rows else 0.0

    caches = [t["trace"]["divisor_cache"] for t in twins if t.get("trace")]
    lookups = sum(c["hits"] + c["misses"] for c in caches)
    m["enumeration.divisor_cache_hit_ratio"] = (
        sum(c["hits"] for c in caches) / lookups if lookups else 0.0)
    m["enumeration.divisor_cache_size"] = max((c["size"] for c in caches), default=0)
    if lookups:
        seen.add("enumeration.divisor_cache")

    m["enumeration.pool_calls"] = pool_calls
    overhead = [rest - statistics.fmean(serial_by_key[key]) / threads
                for key, threads, rest in pooled if key in serial_by_key]
    m["enumeration.pool_overhead_s"] = sum(overhead)
    if overhead:
        seen.add("enumeration.pool")

    moebius = spans_named("enumeration.moebius")
    m["enumeration.moebius_s"] = sum(_dur(s) for _, _, s in moebius)
    m["enumeration.moebius_terms"] = sum(
        ref.squarefree_count(isqrt(s[4]["n2max"])) for _, _, s in moebius
        if s[4]["n2max"] >= 1)
    m["enumeration.direct_enum_s"] = total("enumeration.direct_enum")
    m["enumeration.sweep_s"] = total("enumeration.sweep")
    m["enumeration.sweep_calls"] = len(spans_named("enumeration.sweep"))

    m["constants.predict_s"] = total("constants.predict")
    m["constants.predict_calls"] = len(spans_named("constants.predict"))
    m["constants.zetaP_theta_s"] = total("constants.zetaP_theta")
    m["constants.tables_s"] = total("constants.tables")
    numeric = [s for t in twins
               for s in _outermost(_spans(t), "constants.zetaP_numeric")]
    m["constants.zetaP_numeric_s"] = total("constants.zetaP_numeric")
    m["constants.zetaP_numeric_vectors"] = sum(
        ref.primitive_count(dim, n2) for s in numeric
        for dim, n2 in s[4].get("walks", []))

    m["arakelov.quad_s"] = total("arakelov.quad")
    phi = sum(t["trace"]["calls"].get("arakelov.phi", 0)
              for t in twins if t.get("trace"))
    m["arakelov.phi_calls"] = phi
    if phi:
        seen.add("arakelov.phi")
    m["arakelov.theta_check_s"] = total("arakelov.theta_check")
    for suite in ("oracle", "integral", "partition", "arakelov", "residue"):
        m[f"verify.{suite}_s"] = total(f"verify.{suite}")

    m["trace.overhead_s"] = (sum(t["wall"] for t in twins)
                             - sum(u["wall"] for u in untraced))
    seen.add("trace")

    not_applicable = [k for k, (_, layer) in METRICS.items() if layer not in seen]
    return {k: (float(m[k]), unit) for k, (unit, _) in METRICS.items()}, not_applicable
