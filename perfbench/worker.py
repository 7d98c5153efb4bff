"""One workload process: set up, run the job list, report as one JSON line.

Started by run.py from the root of a checkout, with qcap's ``src`` on the
path.  Modes:

* ``setup``   build the inputs and report when that finished;
* ``measure`` then run untraced passes over the job list while the next
  pass, estimated from the last, would end within ``--seconds`` plus half
  a pass, so that a run measures ``--seconds`` on average (at least one
  pass);
* ``trace``   one untraced pass, then one traced pass whose setup is traced
  too; spans go to ``--trace-file`` as JSONL.

Checks run after each pass, outside its timing and tracing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patched  # noqa: E402


def run_pass(workload, inputs: dict, seed: int, small: bool,
             tracer: Tracer | None = None) -> dict:
    """Run the job list once; returns the pass's timings and job outcomes."""
    jobs = workload.jobs(inputs, seed, small)
    ctx: dict = {}
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                result, text = job.run(ctx)
            else:
                tracer.job = job.name
                with tracer.span("job"):
                    result, text = job.run(ctx)
            error = None
        except Exception as exc:  # a failing job counts as failed; the pass goes on
            result, text, error = None, "", f"{type(exc).__name__}: {exc}"
        outcomes.append((job, result, text, error, time.perf_counter() - start))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"wall": wall, "cpu": cpu, "outcomes": outcomes, "ctx": ctx}


def traced_pass(workload, seed: int, small: bool) -> tuple[Tracer, dict]:
    """Set up and run the job list once under the tracer, set-up as job "setup"."""
    tr = Tracer()
    with patched(layers.instrumentation(tr)):
        tr.job = "setup"
        start = time.perf_counter()
        with tr.span("job"):
            inputs = workload.setup(seed, small)
        setup_s = time.perf_counter() - start
        run = run_pass(workload, inputs, seed, small, tr)
    run["setup_s"] = setup_s
    return tr, run


def check_pass(run: dict) -> dict:
    """Per-job digest, problems and quality figures of a finished pass."""
    jobs = {}
    for job, result, text, error, seconds in run["outcomes"]:
        problems, quality = ([error], {}) if error else ([], {})
        if error is None:
            try:
                checked = job.check(result, run["ctx"])
                problems, quality = checked.problems, checked.quality
            except Exception as exc:  # a check that cannot run fails its job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        jobs[job.name] = {"digest": workloads.digest(text), "problems": problems,
                          "quality": quality, "seconds": seconds}
    return {"wall": run["wall"], "cpu": run["cpu"], "jobs": jobs}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    inputs = workload.setup(args.seed, False)
    report: dict = {"setup_end": time.monotonic()}
    if args.mode != "setup":
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(check_pass(run_pass(workload, inputs, args.seed, False)))
            elapsed = time.perf_counter() - start
            if args.mode == "trace" or elapsed + passes[-1]["wall"] / 2 > args.seconds:
                break
        if args.mode == "trace":
            tr, traced = traced_pass(workload, args.seed, False)
            passes.append(dict(check_pass(traced), traced=True))
            report["per_layer"] = layers.per_layer_metrics(
                tr, traced["wall"] - passes[0]["wall"])
            report["job_self_s"] = tr.job_self_s()
            if args.trace_file:
                tr.write_jsonl(args.trace_file)
        report["passes"] = passes
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report["stamp"] = {"python": platform.python_version(), "numpy": np.__version__,
                       "blas": f"{blas.get('name')} {blas.get('version')}",
                       "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                       "qcap_threads": os.environ.get("QCAP_THREADS")}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
