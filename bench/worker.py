"""One benchmark process: set up a workload, run its jobs in a closed loop,
check every result, and print one JSON line with the raw measurements.

Started by run.py, which turns the measurements into metrics; run this file
directly only to debug a workload:

    python3 bench/worker.py --workload orbit --seed 1 --seconds 5

``--mode setup`` stops once the first job is ready (run.py times set-up with
it).  ``--trace 1`` runs every job twice, untraced and traced (every public
qbanach function wrapped in a span), alternating which goes first; it
reports the per-layer figures of the traced runs and the ratio of the
traced to the untraced time of the same jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Ratio metrics and their (numerator, denominator) counters.
RATIOS = {
    "spaces.eval_norm_rows.rows_per_call":
        ("spaces.eval_norm_rows.rows", "spaces.eval_norm_rows.calls"),
    "envelope.envelope_norm.improved_ratio":
        ("envelope.envelope_norm.improved", "envelope.envelope_norm.calls"),
    "envelope.check_p_triangle.violation_ratio":
        ("envelope.check_p_triangle.violations", "envelope.check_p_triangle.trials"),
    "fixedpoint.iterate.converged_ratio":
        ("fixedpoint.iterate.converged", "fixedpoint.iterate.calls"),
    "radical.admissibility.accept_ratio":
        ("radical.admissibility.accepted", "radical.admissibility.calls"),
}


class Runner:
    """Set-up and job execution for one workload in this process."""

    def __init__(self, workload: str, seed: int, tracer=None):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import qbanach  # the package import is part of set-up
        import qbanach.cli
        import workloads

        self.qb, self.wl = qbanach, workloads
        self.cycle = len(workloads.CYCLES[workload])
        self.order = workloads.schedule(workloads.pool(workload, ROOT), workload, seed)
        if tracer is not None:
            tracer.install()
        try:
            self.prepared = [workloads.prepare(job, qbanach.cli) for job in self.order]
        finally:
            if tracer is not None:
                tracer.uninstall()

    def run_one(self, i: int, out_dir: str) -> dict:
        """Run the i-th job of the schedule (wrapping around the pool)."""
        k = i % len(self.order)
        job = self.order[k]
        rec = {"key": job["key"], "kind": job["kind"], "index": k, "error": None,
               "out_dir": out_dir}
        t0 = time.perf_counter()
        try:
            if job["kind"] == "orbit":
                rec["result"] = self.wl.run_orbit(self.prepared[k], self.qb)
            else:
                rec["code"] = self.qb.cli.run(self.prepared[k], out_dir)
        except Exception:
            rec["error"] = traceback.format_exc(limit=4)
        rec["seconds"] = time.perf_counter() - t0
        return rec

    def closed_loop(self, seconds: float, run_dir: str, step=None):
        """One client: each job starts when the previous one has ended.
        Whole cycles of job kinds run until ``seconds`` have passed.
        ``step(i, out_dir)`` replaces ``run_one`` when given.
        Returns (records, wall seconds)."""
        step = step or self.run_one
        records = []
        t_start = time.perf_counter()
        i = 0
        while i % self.cycle or time.perf_counter() - t_start < seconds:
            records.append(step(i, os.path.join(run_dir, f"job-{i:05d}")))
            i += 1
        return records, time.perf_counter() - t_start

    def check(self, records, refs):
        """Attach the list of problems to each record (empty = passed)."""
        import checks

        for rec in records:
            ref = refs.get(rec["key"])
            if rec["error"] is not None:
                rec["problems"] = ["uncaught exception: " + rec["error"].strip().splitlines()[-1]]
            elif ref is None:
                rec["problems"] = ["no recorded reference for this job"]
            elif rec["kind"] == "orbit":
                rec["problems"] = checks.check_orbit(rec["result"], ref)
            elif rec["code"] == 1:
                rec["problems"] = checks.check_cli(1, None, ref)
            else:
                try:
                    fields = self.wl.extract(self.order[rec["index"]]["spec"]["command"],
                                             rec["out_dir"])
                except (OSError, KeyError, ValueError) as exc:
                    rec["problems"] = [f"report unreadable: {exc!r}"]
                    continue
                rec["problems"] = checks.check_cli(rec["code"], fields, ref)


def traced_pairs(runner: Runner, tracer, seconds: float, run_dir: str):
    """Run each job untraced and traced, alternating which goes first so
    that neither side always meets warm caches.  Returns (untraced records,
    traced records); span job ids are the job's index."""
    plain, traced = [], []

    def step(i, out_dir):
        def run_plain():
            plain.append(runner.run_one(i, out_dir + "-plain"))

        def run_traced():
            tracer.job = i
            tracer.install()
            try:
                traced.append(runner.run_one(i, out_dir))
            finally:
                tracer.uninstall()

        for run in ((run_plain, run_traced) if i % 2 == 0 else (run_traced, run_plain)):
            run()

    runner.closed_loop(seconds, run_dir, step)
    return plain, traced


def per_layer(names, tracer, plain, traced, wl) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from the traced runs.

    ``<fn>.self_s`` is self time and every other count is taken per job;
    ``cli.parse_config.self_s`` is the set-up's total.  A ratio is reported
    as {"value", "of": [numerator, denominator]}; 0/0 (a layer the workload
    never calls) reads 0 with its base shown.
    """
    n = len(traced)
    job_self = tracer.self_times(jobs=True)
    c = tracer.counters
    out = {}
    for name in names:
        if name in RATIOS:
            num, den = (c.get(k, 0) for k in RATIOS[name])
            out[name] = {"value": num / den if den else 0.0, "of": [num, den]}
        elif name == "trace.overhead_ratio":
            t_traced = sum(r["seconds"] for r in traced)
            t_plain = sum(r["seconds"] for r in plain)
            out[name] = {"value": t_traced / t_plain, "of": [t_traced, t_plain]}
        elif name == "cli.parse_config.self_s":
            out[name] = tracer.self_times(jobs=False)["cli.parse_config"]
        elif name == "cli.report_bytes":
            out[name] = sum(wl.report_bytes(r["out_dir"]) for r in traced
                            if os.path.isdir(r["out_dir"])) / n
        elif name.endswith(".self_s"):
            out[name] = job_self[name[:-len(".self_s")]] / n
        else:
            out[name] = c.get(name, 0) / n
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--run-dir", default=os.path.join(ROOT, ".bench_out", "debug"))
    args = ap.parse_args(argv)

    tracer = None
    if args.trace and args.mode == "run":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
    runner = Runner(args.workload, args.seed, tracer)
    result = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)[args.workload]
    os.makedirs(args.run_dir, exist_ok=True)
    try:
        # one untimed job first: lazy imports and first-call costs
        checked = [runner.run_one(0, os.path.join(args.run_dir, "warm-up"))]
        if tracer is None:
            timed, wall = runner.closed_loop(args.seconds, args.run_dir)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checked += timed
        else:
            plain, timed = traced_pairs(runner, tracer, args.seconds, args.run_dir)
            wall = sum(r["seconds"] for r in timed)
            checked += plain + timed
            with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            result["per_layer"] = per_layer(names, tracer, plain, timed, runner.wl)
            result["spans"] = len(tracer.start)
            tracer.write_spans(args.run_dir + ".spans.npz")
        runner.check(checked, refs)
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    result.update({
        "job_seconds": [r["seconds"] for r in timed],
        "job_kinds": [r["kind"] for r in timed],
        "wall": wall,
        "attempted": len(checked),
        "failed": sum(1 for r in checked if r["problems"]),
        "failures": [{"key": r["key"], "problems": r["problems"][:3]}
                     for r in checked if r["problems"]][:20],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
