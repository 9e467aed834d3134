"""qbanach benchmark: one workload, one closed-loop client, checked results.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ``src/``).
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A record of
the run (environment, every figure, failures) is written to
``.bench_out/<workload>-seed<N>-trace<T>.json``, and a traced run also writes
its spans next to it.

The jobs run in a worker process (worker.py) whose environment pins
BLAS/OpenMP to one thread and unsets HYPERSTAB_THREADS, so the default
serial path is measured.  Set-up is timed in fresh processes: one discarded
warm-up (it may compile bytecode), then SETUP_PROBES timed ones, half before
and half after the measuring process, plus the measuring process itself;
``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 6
TAIL_BEYOND = 10          # job_tail_s has at least this many samples beyond it
CHILD_TIMEOUT_S = 170     # the whole run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPERSTAB_THREADS", None)
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def environment(seed: int) -> dict:
    """Machine and software facts recorded with every run."""
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(d for d in os.listdir(base) if d.startswith("index")):
            with open(os.path.join(base, idx, "level")) as a, \
                    open(os.path.join(base, idx, "type")) as b, \
                    open(os.path.join(base, idx, "size")) as c:
                caches.append(f"L{a.read().strip()} {b.read().strip()} {c.read().strip()}")
    except OSError:
        caches.append("unknown")
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "caches_cpu0": caches,
        "loadavg_at_start": list(os.getloadavg()),
        "workload_seed": seed,
        "threads": {var: "1" for var in BLAS_VARS} | {"HYPERSTAB_THREADS": "unset"},
        "client": "closed loop, 1 client, 1 worker process",
    }


def spawn(args: list, timeout: float) -> tuple[dict, float]:
    """Run a worker; return its JSON line and its spawn time (monotonic)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), t_spawn


def tail(times: list) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it (the
    (TAIL_BEYOND+1)-th largest time), and how it was taken."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} jobs: too few for {TAIL_BEYOND} beyond a percentile"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n} jobs, {TAIL_BEYOND} jobs beyond it"


def end_to_end(res: dict, setups: list) -> tuple[dict, dict]:
    times = res["job_seconds"]
    n = len(times)
    t_val, t_note = tail(times)
    passed = res["attempted"] - res["failed"]
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": n / res["wall"],
        "job_p50_s": statistics.median(times),
        "job_tail_s": t_val,
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": passed / res["attempted"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: interpreter start to first job "
                   "ready (import qbanach, parse_config of the workload's configs)",
        "jobs_per_s": f"{n} jobs in {res['wall']:.3f} s timed phase",
        "job_p50_s": f"median of {n} jobs",
        "job_tail_s": t_note,
        "peak_rss_mb": "ru_maxrss of the worker process",
        "pass_ratio": f"{passed}/{res['attempted']} jobs passed",
    }
    return values, notes


def per_layer_values(res: dict) -> tuple[dict, dict]:
    """Metric values, and the numerator/denominator note of each ratio."""
    values, notes = {}, {}
    for name, v in res["per_layer"].items():
        if isinstance(v, dict):
            num, den = v["of"]
            values[name] = v["value"]
            notes[name] = f"{num:g}/{den:g}"
        else:
            values[name] = v
    notes["spaces.eval_norm_rows.bytes_computed"] = \
        "computed from array sizes (inputs + output), not measured traffic"
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qbanach benchmark (one workload)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "qbanach", "__init__.py")):
        print("error: no program to measure (src/qbanach is missing)", file=sys.stderr)
        return 1

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            res, _ = spawn([*common, "--seconds", str(args.seconds), "--trace", "1",
                            "--run-dir", os.path.join(OUT, tag)], CHILD_TIMEOUT_S)
            values, notes = per_layer_values(res)
            wanted = spec["per_layer"]
        else:
            def probe():
                ready, t0 = spawn([*common, "--mode", "setup"], 60)
                return ready["ready"] - t0

            probe()  # warm-up, discarded
            setups = [probe() for _ in range(SETUP_PROBES // 2)]
            res, t0 = spawn([*common, "--seconds", str(args.seconds),
                             "--run-dir", os.path.join(OUT, tag)], CHILD_TIMEOUT_S)
            setups.append(res["ready"] - t0)
            setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            values, notes = end_to_end(res, setups)
            wanted = spec["end_to_end"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    for m in wanted:
        note = notes.get(m["name"])
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    if not args.trace:
        print(f"fail_ratio = {res['failed'] / res['attempted']:.6g} ratio  "
              f"({res['failed']} failed / {res['attempted']} attempted)")
    for f in res["failures"]:
        print(f"# FAILED {f['key']}: {'; '.join(f['problems'])}")

    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    record = {"environment": env, "notes": notes, "raw": res, **summary}
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
