"""Record the reference result of every pool job into references.json.

    python3 bench/record_references.py [workload ...]

Run it only when a change is meant to alter results, and say so with the
change: the benchmark counts every job whose exit code or checked fields
differ from these references as failed (see checks.py for the fields and
tolerances).  Workloads not named keep their recorded references.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import worker

HERE = worker.HERE


def record(workload: str) -> dict:
    runner = worker.Runner(workload, seed=0)
    run_dir = os.path.join(worker.ROOT, ".bench_out", f"record-{workload}")
    try:
        refs = {}
        for i, job in enumerate(runner.order):
            rec = runner.run_one(i, os.path.join(run_dir, f"job-{i:05d}"))
            if rec["error"] is not None:
                raise RuntimeError(f"{job['key']}: {rec['error']}")
            if job["kind"] == "orbit":
                res = rec["result"]
                refs[job["key"]] = {"converged": res["converged"],
                                    "iterations": res["iterations"],
                                    "psi_term": runner.wl.term_path_psi(job["spec"], runner.qb)}
            else:
                fields = (None if rec["code"] == 1 else
                          runner.wl.extract(job["spec"]["command"], rec["out_dir"]))
                refs[job["key"]] = {"exit": rec["code"], "fields": fields}
        return refs
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv) -> int:
    import workloads

    names = argv or list(workloads.WORKLOADS)
    path = os.path.join(HERE, "references.json")
    refs = {}
    if os.path.exists(path):
        with open(path) as fh:
            refs = json.load(fh)
    for name in names:
        refs[name] = record(name)
        exits = {}
        for r in refs[name].values():
            exits[r.get("exit", 0)] = exits.get(r.get("exit", 0), 0) + 1
        print(f"{name}: {len(refs[name])} jobs recorded, exit codes {exits}")
    with open(path, "w") as fh:
        json.dump(refs, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
