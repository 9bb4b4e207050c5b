"""The benchmark's workloads: lists of hkcount CLI ops with their expected
outcomes, and the check that compares an op's output with them.

An op is a dict:
  argv    the arguments after `hkcount`;
  kind    a short label (count, sweep, predict, ...);
  threads the pinned --threads value, or None for ops without one;
  expect  the documented outcome (see `check`);
  defect  None, or the name of a known defect the op reproduces today
          (DEFECTS gives the text its traceback contains).

Counts of the fixed workloads come from pins.json (see make_pins.py).
cli-mix ops are drawn from the seed, and their expected counts are
computed here, before any timing, by the independent routes in
reference.py.
"""
from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import reference as ref

PINS = Path(__file__).with_name("pins.json")

NAMES = ("count-surface", "count-threefold", "verify-all", "cli-mix")
MIX_OPS = 30

# Known defects of the current CLI.  An op that hits one neither gives its
# documented outcome (so it lowers ok_frac) nor counts as an unexpected
# failure (so the run stays correct); see `check`.
DEFECTS = {
    "iroot-overflow": "OverflowError",
    "bound-zero-traceback": "bound must be positive",
    "threads-zero-traceback": "threads must be >= 1",
}

BRUTE_BUDGET = 4000    # candidate points one brute-force expectation may test
STREAM_BUDGET = 1500   # candidates for `count --stream`, whose output is listed


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def _op(argv, kind, expect, threads=None, defect=None):
    return {"argv": [str(x) for x in argv], "kind": kind, "threads": threads,
            "expect": expect, "defect": defect}


def twin_key(op) -> str | None:
    """Ops that differ only in --threads share a key."""
    if op["threads"] is None:
        return None
    argv = list(op["argv"])
    i = argv.index("--threads")
    del argv[i:i + 2]
    return " ".join(argv)


# ---------------------------------------------------------------------------
# fixed workloads
# ---------------------------------------------------------------------------

SURFACE = ["count", "--variety", "1,2:1", "--region", "u", "--B", "1073741824"]
THREEFOLD_U = ["count", "--variety", "2,2:1,1", "--region", "u", "--B", "10000000"]
THREEFOLD_F = ["count", "--variety", "1,3:1", "--bundle", "1,2", "--region", "f",
               "--B", "2000"]


def _pinned_count(pins, argv, threads):
    return _op(argv + ["--threads", threads], "count",
               {"exit": 0, "count": pins["counts"][" ".join(argv)]}, threads)


def fixed_ops(name: str, pins: dict) -> list[dict]:
    if name == "count-surface":
        return [_pinned_count(pins, SURFACE, 1), _pinned_count(pins, SURFACE, 2)]
    if name == "count-threefold":
        return [_pinned_count(pins, THREEFOLD_U, 1),
                _pinned_count(pins, THREEFOLD_U, 2),
                _pinned_count(pins, THREEFOLD_F, 1)]
    if name == "verify-all":
        # The --threads 1 twin is the whole suite, not the partition suite
        # alone: the 2 s partition pair is dominated by fork cost, and its
        # ratio varied by 20-30% from run to run.
        return [_op(["verify", "--suite", "all", "--threads", th], "verify",
                    {"exit": 0, "verify": True}, th) for th in (2, 1)]
    raise ValueError(name)


# ---------------------------------------------------------------------------
# cli-mix: 30 ops drawn from the seed, with a fixed quota per kind
# ---------------------------------------------------------------------------

def _draw_space(rng):
    r, t = rng.randint(1, 3), rng.randint(2, 3)
    top = 20 if rng.random() < 0.4 else 3
    a = tuple(sorted(rng.randint(0, top) for _ in range(r)))
    if rng.random() < 0.25:   # the anticanonical default, no --bundle
        lam, mu = r + 1, (r + 1) * a[-1] + t - sum(a)
        bundle = []
    else:
        lam, mu = rng.randint(1, 6), rng.randint(1, 6)
        bundle = ["--bundle", f"{lam},{mu}"]
    variety = f"{r},{t}:{','.join(map(str, a))}"
    return (r, t, a, lam, mu), ["--variety", variety] + bundle


def _draw_bound(rng) -> Fraction:
    if rng.random() < 0.2:
        return Fraction(rng.randint(3, 61), 2)
    return Fraction(rng.randint(1, 40))


def _small_points(space, B, region, budget):
    """Shrink B until the brute-force box fits and every good-open count
    hkcount runs for the op (also before it reports an infinite count)
    stays within the box budget; return (B, points or None if infinite)."""
    r, t, a, lam, mu = space
    finite = ref.is_finite(a, lam, mu, region)
    while True:
        parts_fit = all(ref.box_fits(pt, pa, pl, pm, B, "u", budget)
                        for _, pt, pa, pl, pm in
                        ref.good_open_parts(r, t, a, lam, mu, region))
        if parts_fit and not finite:
            return B, None
        if parts_fit:
            pts = ref.brute_points(r, t, a, lam, mu, B, region, budget)
            if pts is not None:
                return B, pts
        B = max(Fraction(1), Fraction(math.floor(B / 2)))


def _count_ops(rng, threads_list):
    """One drawn count, as one op per entry of threads_list."""
    space, vargs = _draw_space(rng)
    region = rng.choice(("u", "f", "x", "whole"))
    B = _draw_bound(rng)
    B, pts = _small_points(space, B, ref.REGIONS[region], BRUTE_BUDGET)
    expect = {"exit": 3} if pts is None else {"exit": 0, "count": len(pts)}
    base = ["count"] + vargs + ["--B", B, "--region", region]
    return [_op(base + ["--threads", th], "count", expect, th)
            for th in threads_list]


def _sweep_op(rng):
    space, vargs = _draw_space(rng)
    region = rng.choice(("u", "f", "x"))
    r, t, a, lam, mu = space
    top, pts = _small_points(space, Fraction(rng.randint(4, 40)), region,
                             BRUTE_BUDGET)
    grid = [Fraction(b) for b in
            sorted({max(1, int(top) // 4), max(1, int(top) // 2), int(top)})]
    if pts is None:
        expect = {"exit": 3}
    else:
        heights = [ref.point_height_sq(a, lam, mu, qv, y) for qv, y in pts]
        rows = [[str(b), sum(1 for h in heights if h <= b * b)] for b in grid]
        expect = {"exit": 0, "sweep": rows}
    argv = (["sweep"] + vargs + ["--grid", ",".join(map(str, grid)),
                                 "--region", region, "--threads", 2])
    return _op(argv, "sweep", expect, 2)


def _stream_op(rng):
    space, vargs = _draw_space(rng)
    region = rng.choice(("u", "u", "x", "f"))   # F is often infinite
    r, t, a, lam, mu = space
    B, pts = _small_points(space, _draw_bound(rng), region, STREAM_BUDGET)
    if pts is None:
        expect = {"exit": 3}
    else:
        expect = {"exit": 0, "points": sorted(ref.format_point(q, y)
                                              for q, y in pts)}
    argv = ["count"] + vargs + ["--B", B, "--region", region, "--stream",
                                "--threads", 1]
    return _op(argv, "stream", expect, 1)


def _overflow_op(rng):
    """A large-twist surface count whose fiber cap passes 2^1024 and makes
    hkcount's float-seeded integer root raise OverflowError.

    lam = 5 is deliberate: 1/5 rounds up as a double, so the float seed
    lies above the root and Newton's method reaches the overflow within a
    second.  For lam = 3, 4 or 6 the seed can lie far below the root and
    the step-by-one correction loop runs for hours; such an op would time
    out every run, so the family leaves those lam out.
    """
    a, B = rng.randint(18, 20), rng.randint(60, 120)
    th = rng.choice((1, 2))
    count = ref.ref_count(1, 2, (a,), 5, 1, B, "u")
    argv = ["count", "--variety", f"1,2:{a}", "--bundle", "5,1",
            "--B", B, "--region", "u", "--threads", th]
    return _op(argv, "count", {"exit": 0, "count": count}, th,
               "iroot-overflow")


def _exit_ops(rng):
    """Inputs whose documented outcome is exit 2 or exit 3."""
    _, vargs = _draw_space(rng)
    th = rng.choice((1, 2))
    variety = vargs[:2]
    return [
        _op(["count"] + variety + ["--B", rng.choice(("0", "0/3")),
                                   "--threads", th],
            "exit", {"exit": 2}, th, "bound-zero-traceback"),
        _op(["count"] + vargs + ["--B", rng.randint(1, 20), "--threads", 0],
            "exit", {"exit": 2}, 0, "threads-zero-traceback"),
        _op(["count"] + variety + [
                "--bundle=" + rng.choice(("0,2", "2,0", "-1,3")),
                "--B", rng.randint(1, 20), "--region", "u", "--threads", th],
            "exit", {"exit": 3}, th),
        rng.choice((
            _op(["count", "--variety", "1,2:x", "--B", 10, "--threads", th],
                "exit", {"exit": 2}, th),
            _op(["zeta", "--what", "zetaP", "--m", rng.randint(1, 3),
                 "--s", "1.5"], "exit", {"exit": 2}),
            _op(["sweep"] + variety + ["--grid", "5,3", "--threads", th],
                "exit", {"exit": 2}, th),
        )),
    ]


def cli_mix_ops(seed: int, pins: dict) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for entry in rng.sample(pins["predict"], 3):
        ops.append(_op(entry["argv"], "predict",
                       {"exit": 0, "json": entry["payload"]}))
    ops.append(_op(["tables", "--format", "json"], "tables",
                   {"exit": 0, "json": pins["tables"]}))
    for entry in rng.sample(pins["zeta"], 3):
        ops.append(_op(entry["argv"], "zeta",
                       {"exit": 0, "json": entry["payload"]}))
    for _ in range(6):
        ops += _count_ops(rng, [1, 2])
    ops += _count_ops(rng, [rng.choice((1, 2))])
    ops += [_overflow_op(rng) for _ in range(2)]
    ops += [_sweep_op(rng) for _ in range(2)]
    ops += [_stream_op(rng) for _ in range(2)]
    ops += _exit_ops(rng)
    assert len(ops) == MIX_OPS, len(ops)
    return shuffle_keeping_twins(ops, rng)


def shuffle_keeping_twins(ops: list[dict], rng) -> list[dict]:
    """Shuffle the op order, keeping each --threads 1/2 pair back to back
    so that both halves of speedup_t2 see the same machine state."""
    groups: list[list[dict]] = []
    for op in ops:
        mate = next((g for g in groups if len(g) == 1 and twin_key(op)
                     and twin_key(g[0]) == twin_key(op)
                     and g[0]["threads"] != op["threads"]), None)
        if mate is None:
            groups.append([op])
        else:
            mate.append(op)
    rng.shuffle(groups)
    for g in groups:
        rng.shuffle(g)
    return [op for g in groups for op in g]


def build(name: str, seed: int) -> list[dict]:
    pins = load_pins()
    if name == "cli-mix":
        return cli_mix_ops(seed, pins)
    return shuffle_keeping_twins(fixed_ops(name, pins), random.Random(seed))


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

_COUNT_RE = re.compile(r"^N\(\w+, B=[^)]+\) = (\d+)\s", re.M)


def _close(got, want, rel) -> bool:
    """Exact match, except floats, which agree to `rel` relative."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= rel * max(abs(want), 1e-300)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k], rel) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w, rel) for g, w in zip(got, want)))
    return got == want


def _expected_output(expect: dict, out: str) -> str | None:
    """None when stdout matches, else why not."""
    if "count" in expect:
        m = _COUNT_RE.search(out)
        if m is None:
            return "no count in output"
        if int(m.group(1)) != expect["count"]:
            return f"count {m.group(1)} != {expect['count']}"
    elif "points" in expect:
        got = sorted(line.strip() for line in out.splitlines() if line.strip())
        if got != expect["points"]:
            return f"stream gave {len(got)} points, expected {len(expect['points'])}"
    elif "sweep" in expect:
        lines = out.strip().splitlines()
        if not lines or lines[0] != "B,count,predicted,ratio":
            return "no sweep header"
        rows = [line.split(",")[:2] for line in lines[1:]]
        got = [[b, int(c)] for b, c in rows]
        if got != expect["sweep"]:
            return f"sweep rows {got} != {expect['sweep']}"
    elif "json" in expect:
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if not _close(got, expect["json"], 1e-12):
            return "JSON output differs from the pin"
    elif expect.get("verify"):
        lines = [line for line in out.splitlines() if line.strip()]
        if not lines or not all(line.startswith("PASS") for line in lines):
            return "a verify line is not PASS"
    return None


def check(op: dict, rc: int, out: str, err: str) -> tuple[str, str]:
    """('ok' | 'defect' | 'fail', detail) for one execution of `op`."""
    expect = op["expect"]
    why = None
    if rc != expect["exit"]:
        why = f"exit {rc}, documented {expect['exit']}"
    elif "Traceback" in err:
        why = "traceback on stderr"
    elif expect["exit"] == 0:
        why = _expected_output(expect, out)
    if why is None:
        return "ok", ""
    if op["defect"] and "Traceback" in err and DEFECTS[op["defect"]] in err:
        return "defect", f"{op['defect']}: {why}"
    return "fail", why
