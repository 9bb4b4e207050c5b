"""hkcount benchmark: run one workload of hkcount CLI ops and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs the workload's ops as a
closed loop: each op is a fresh `python3 -m hkcount.cli ...` process,
started only after the previous one has exited, timed from spawn to exit.
The op list is run in whole passes until --seconds have been used (at
least one pass); per-op figures are medians over the passes.  Every op
pins --threads, and HKCOUNT_THREADS is removed from the environment.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
and then each op's traced twin (bench/tracer.py) in its own interpreter,
and prints the per-layer metrics computed from the twins' spans.

Outputs are checked after each op, outside its timed interval.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  The full record (environment, every op, known defects, the
spans) is written under .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_SAMPLES = 3
OP_TIMEOUT_S = 100   # an op still running then is killed and fails

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


def op_env() -> dict:
    env = dict(os.environ)
    env.pop("HKCOUNT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], env: dict, tag: str) -> dict:
    """Run cmd to completion; wall time from spawn to exit, and the CPU time
    and peak RSS of the process and every child it reaped."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)   # pool workers left behind by a killed op
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
            "out": out_path.read_text(errors="replace"),
            "err": err_path.read_text(errors="replace")}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def hkcount_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "hkcount.cli", *argv]


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (the 'inclusive' method)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_op(op: dict, env: dict, tag: str) -> dict:
    res = spawn(hkcount_cmd(op["argv"]), env, tag)
    res["outcome"], res["detail"] = workloads.check(op, res["rc"], res["out"],
                                                    res["err"])
    res["argv"] = op["argv"]
    del res["out"], res["err"]
    return res


def import_time(env: dict) -> float:
    """Wall time of a fresh interpreter running `import hkcount`."""
    r = spawn([sys.executable, "-c", "import hkcount"], env, "setup")
    if r["rc"] != 0:
        raise SystemExit(f"`import hkcount` failed:\n{r['err']}")
    return r["wall"]


def measure(ops: list[dict], env: dict, seconds: float):
    """Whole passes over the op list until `seconds` are used; returns the
    executions of each op and the set-up samples.  The set-up samples are
    spread evenly over the first pass, so that their median sees the run's
    typical machine speed rather than one moment of it."""
    runs: list[list[dict]] = [[] for _ in ops]
    setup_at = [j * len(ops) // IMPORT_SAMPLES for j in range(IMPORT_SAMPLES)]
    setup: list[float] = []
    spent = 0.0
    while True:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            while len(setup) < IMPORT_SAMPLES and setup_at[len(setup)] == i:
                setup.append(import_time(env))
            runs[i].append(run_op(op, env, f"op{i}"))
        last_pass = time.perf_counter() - t0 - (sum(setup) if len(runs[0]) == 1 else 0)
        spent += last_pass
        if spent + last_pass > seconds:
            return runs, setup


def end_to_end(ops, runs, setup) -> dict:
    wall = [statistics.median(r["wall"] for r in rs) for rs in runs]
    cpu = [statistics.median(r["cpu"] for r in rs) for rs in runs]
    by_key = {}
    for i, op in enumerate(ops):
        key = workloads.twin_key(op)
        if key is not None and op["threads"] in (1, 2):
            by_key.setdefault(key, {})[op["threads"]] = i
    pairs = [(d[1], d[2]) for d in by_key.values() if 1 in d and 2 in d]
    execs = [r for rs in runs for r in rs]
    ok = sum(1 for r in execs if r["outcome"] == "ok")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(wall), "s"),
        "op_p50_s": (statistics.median(wall), "s"),
        "op_p75_s": (quantile(wall, 0.75), "s"),
        "speedup_t2": (sum(wall[a] for a, _ in pairs)
                       / sum(wall[b] for _, b in pairs), "ratio"),
        "cpu_s": (sum(cpu), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in execs), "MB"),
        "ok_frac": (ok / len(execs), "ratio"),
    }


def traced(ops, env, name, seed):
    """One untraced pass, then each op's traced twin in a fresh interpreter."""
    untraced = [run_op(op, env, f"op{i}") for i, op in enumerate(ops)]
    twins = []
    for i, op in enumerate(ops):
        spans_path = OUT / f"twin{i}.json"
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"),
               str(spans_path), "--", *op["argv"]]
        res = spawn(cmd, env, f"twin{i}")
        err = "\n".join(line for line in res["err"].splitlines()
                        if not line.startswith("import time:"))
        res["outcome"], res["detail"] = workloads.check(op, res["rc"],
                                                        res["out"], err)
        res["importtime"] = layers.parse_importtime(res["err"])
        res["argv"] = op["argv"]
        res["trace"] = (json.loads(spans_path.read_text())
                        if spans_path.is_file() else None)
        del res["out"], res["err"]
        twins.append(res)
    spans_file = OUT / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps(
        [{"argv": op["argv"], "threads": op["threads"], **tw["trace"]}
         for op, tw in zip(ops, twins) if tw["trace"]]))
    metrics, not_applicable = layers.layer_metrics(untraced, twins)
    return untraced, twins, metrics, not_applicable, spans_file


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hkcount" / "__init__.py").is_file():
        print(f"error: no hkcount sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = op_env()
    load_before = os.getloadavg()
    ops = workloads.build(args.workload, args.seed)
    warm = spawn(hkcount_cmd(["--help"]), env, "warmup")  # writes the .pyc files
    if warm["rc"] != 0:
        print(f"error: `hkcount --help` failed:\n{warm['err']}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment()}
    if args.trace:
        runs_flat, twins, metrics, na, spans_file = traced(
            ops, env, args.workload, args.seed)
        execs = runs_flat + twins
        record["spans_file"] = spans_file.name
        record["not_applicable"] = na
        record["twins"] = [{"argv": t["argv"], "wall_s": t["wall"],
                            "outcome": t["outcome"], "detail": t["detail"]}
                           for t in twins]
        runs = [[r] for r in runs_flat]
    else:
        runs, setup = measure(ops, env, args.seconds)
        metrics = end_to_end(ops, runs, setup)
        execs = [r for rs in runs for r in rs]
        record["setup_samples_s"] = setup
        na = []
    record["environment"]["loadavg_before"] = load_before
    record["environment"]["loadavg_after"] = os.getloadavg()
    failed = [r for r in execs if r["outcome"] == "fail"]
    record["ops"] = [{"argv": op["argv"], "kind": op["kind"],
                      "threads": op["threads"], "defect": op["defect"],
                      "walls_s": [r["wall"] for r in rs],
                      "outcomes": sorted({r["outcome"] for r in rs}),
                      "details": sorted({r["detail"] for r in rs if r["detail"]})}
                     for op, rs in zip(ops, runs)]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1))

    env_rec = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
          f"passes {len(runs[0])}  nproc {env_rec['nproc']}  "
          f"python {env_rec['python']}  load {load_before[0]:.2f} -> "
          f"{env_rec['loadavg_after'][0]:.2f}")
    for name, (value, unit) in metrics.items():
        note = "  (n/a: layer not exercised by this workload)" if name in na else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    if not args.trace:
        print(f"  per-op medians: {len(ops)} samples; fail_frac "
              f"{1 - metrics['ok_frac'][0]:.4f}")
    defects = [r for r in record["ops"] if "defect" in r["outcomes"]]
    for r in defects:
        print(f"  known defect {r['defect']}: hkcount {' '.join(r['argv'])}")
    for r in failed:
        print(f"  FAILED: hkcount {' '.join(r['argv'])}: {r['detail']}")
    print(f"  record: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(execs),
                      "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
