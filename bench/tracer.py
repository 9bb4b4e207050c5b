"""Traced twin of one hkcount CLI op, run in a fresh interpreter.

    python3 -X importtime bench/tracer.py SPANS.json -- ARGV...

Imports hkcount, wraps the module attributes through which the CLI and the
library reach each layer's public functions, runs the same argument
parsing and command handler as `hkcount.cli.main(ARGV)`, and writes the
spans (name, start, end, parent, attributes) to SPANS.json when it ends.
Spans are kept in memory until then.  Pool workers are forked and record
nothing; pool metrics are derived from the parent's spans (see layers.py).
"""
from __future__ import annotations

import json
import sys
import time
from functools import wraps


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, attrs]
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.remove(i)

    def note(self, key: str, value) -> None:
        """Append to a list attribute of the innermost open span."""
        if self.stack:
            self.spans[self.stack[-1]][4].setdefault(key, []).append(value)


def wrap(rec, module, attr, name, args_fn=None, result_fn=None):
    orig = getattr(module, attr)

    @wraps(orig)
    def traced(*args, **kwargs):
        i = rec.open(name, args_fn(*args, **kwargs) if args_fn else None)
        try:
            result = orig(*args, **kwargs)
        finally:
            rec.close(i)
        if result_fn:
            rec.spans[i][4].update(result_fn(result))
        return result
    setattr(module, attr, traced)


def wrap_stream(rec, module, attr, name):
    orig = getattr(module, attr)

    @wraps(orig)
    def traced(*args, **kwargs):
        i = rec.open(name)
        n = 0
        try:
            for item in orig(*args, **kwargs):
                n += 1
                yield item
        finally:
            rec.close(i)
            rec.spans[i][4]["points"] = n
    setattr(module, attr, traced)


def count_calls(rec, module, attr, name):
    orig = getattr(module, attr)

    @wraps(orig)
    def counted(*args, **kwargs):
        rec.calls[name] = rec.calls.get(name, 0) + 1
        return orig(*args, **kwargs)
    setattr(module, attr, counted)


def install(rec: Recorder) -> None:
    from hkcount import arakelov, cli, constants, enumeration

    def request_attrs(req):
        return {"region": req.region.value, "threads": req.threads,
                "space": str(req.variety), "bound": str(req.bound)}

    def good_open_attrs(X, L, B, threads):
        return {"threads": threads, "key": f"{X}|{L}|{B}"}

    def walk(dim, n2max):
        rec.note("walks", [dim, n2max])
        return orig_walk(dim, n2max)
    orig_walk = enumeration._canonical_vectors
    enumeration._canonical_vectors = walk

    def hist_result(h):
        return {"norms": len(h), "vectors": sum(h.values())}

    for mod in (enumeration, cli):
        wrap(rec, mod, "projective_norm_histogram", "enumeration.histogram",
             result_fn=hist_result)
        wrap(rec, mod, "count_hk", "enumeration.count", request_attrs,
             lambda res: {"count": res.count, "visited": res.points_visited})
    wrap(rec, enumeration, "_count_good_open", "enumeration.good_open",
         good_open_attrs, lambda res: {"count": res[0], "rows": res[1]})
    wrap(rec, enumeration, "_count_projective_n2", "enumeration.moebius",
         lambda n, n2max: {"n2max": n2max})
    for mod, attr in ((enumeration, "count_enum_projective"),
                      (enumeration, "count_subbundle_direct"),
                      (cli, "count_subbundle_direct")):
        wrap(rec, mod, attr, "enumeration.direct_enum")
    wrap(rec, cli, "sweep", "enumeration.sweep")
    wrap_stream(rec, cli, "enum_hk_points", "heights.stream")
    for mod in (cli, constants):
        wrap(rec, mod, "predict", "constants.predict")
    for mod in (constants, arakelov):
        wrap(rec, mod, "zetaP_theta", "constants.zetaP_theta")
    for mod in (constants, arakelov, cli):
        wrap(rec, mod, "zetaP_numeric", "constants.zetaP_numeric")
    wrap(rec, cli, "cmd_tables", "constants.tables")
    wrap(rec, arakelov, "quad", "arakelov.quad")
    wrap(rec, arakelov, "geer_schoof_bound_check", "arakelov.theta_check")
    count_calls(rec, arakelov, "phi", "arakelov.phi")
    for suite, fn in list(cli._SUITES.items()):
        cli._SUITES[suite] = _suite_span(rec, f"verify.{suite}", fn)


def _suite_span(rec, name, fn):
    def traced(args):
        i = rec.open(name)
        try:
            return fn(args)
        finally:
            rec.close(i)
    return traced


def main() -> None:
    out_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    assert sep == "--", "usage: tracer.py SPANS.json -- ARGV..."
    t0 = time.perf_counter()
    from hkcount import cli, enumeration
    import_s = time.perf_counter() - t0
    rec = Recorder()
    install(rec)
    rc, handler_s = 1, 0.0
    try:
        args = cli.build_parser().parse_args(argv)
        t1 = time.perf_counter()
        try:
            rc = args.func(args)
        finally:
            handler_s = time.perf_counter() - t1
    except SystemExit as exc:   # argparse rejected the arguments
        rc = exc.code
        raise
    finally:
        sys.stdout.flush()
        info = enumeration._squarefree_divisors.cache_info()
        with open(out_path, "w") as fh:
            json.dump({"rc": rc, "import_s": import_s, "handler_s": handler_s,
                       "spans": rec.spans, "calls": rec.calls,
                       "divisor_cache": {"hits": info.hits,
                                         "misses": info.misses,
                                         "size": info.currsize}}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
