"""qcap's benchmark: one workload, one seed, one JSON result line.

Run from the root of a qcap checkout:

    python3 perfbench/run.py --workload frontier_l1 --seed 0 --seconds 30 --trace 0

The workloads are defined in workloads.py.  With ``--trace 0`` the result
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced pass (tracing from outside qcap, see layers.py).  Each
workload runs in processes of its own, started with QCAP_THREADS unset and
one BLAS thread (at most nproc are allowed; one is much steadier on a shared
host): one process that measures, with two set-up probes before it and
two after it.  ``setup_s`` is the median of the five set-up times.  The
last line of standard output is the result; a fuller record, with the
environment stamp and every job's digest and problems, goes to
``.perfbench_out/``.

A job fails when it raises, misses a correctness check, or produces output
whose digest differs from an earlier pass, the traced pass, or an earlier
run of the same code, environment and seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 2          # before and again after the measuring process
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0
WORKLOAD_NAMES = ("frontier_l1", "frontier_l2", "converse", "structure")
NOT_APPLICABLE = 1.0
QUALITY = {"witness_value": ("bits", ("frontier_l1", "frontier_l2", "converse")),
           "frontier_gap_bits": ("bits", ("frontier_l1",)),
           "c_g_err_bits": ("bits", ("frontier_l1",))}


def tree_fingerprint(top: str) -> tuple[str, int]:
    """SHA-256 over the Python files under ``top``, and their total line count."""
    h = hashlib.sha256()
    lines = 0
    for dirpath, _, filenames in sorted(os.walk(top)):
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, top).encode() + b"\0" + data)
            lines += data.count(b"\n")
    return h.hexdigest(), lines


def git_sha(root: str) -> str | None:
    # only the checkout's own repository: git would otherwise report an enclosing one
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCAP_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start worker.py, wait for it, and return its report and start time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: worker {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def compare_digests(path: str, digests: dict[str, str]) -> list[str]:
    """Jobs whose digest differs from the record an earlier run left at ``path``."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        return [job for job, d in digests.items() if job in earlier and earlier[job] != d]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    return []


def tally(passes: list[dict], digest_path: str) -> tuple[int, int, dict]:
    """Attempted and failed job counts over all passes, and the problems found."""
    first = passes[0]["jobs"]
    stale = set(compare_digests(digest_path, {j: r["digest"] for j, r in first.items()}))
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for i, p in enumerate(passes):
        for job, rec in p["jobs"].items():
            found = list(rec["problems"])
            if rec["digest"] != first[job]["digest"]:
                found.append(f"digest differs from the first pass (pass {i})")
            if job in stale and i == 0:
                found.append("digest differs from an earlier run of this code and seed")
            attempted += 1
            if found:
                failed += 1
                problems[f"pass {i}: {job}"] = found
    return attempted, failed, problems


def end_to_end(workload: str, setup_samples: list[float], report: dict) -> dict:
    passes = report["passes"]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    quality = [rec["quality"] for rec in passes[0]["jobs"].values()]
    for name, (unit, applies) in QUALITY.items():
        if workload not in applies:
            metrics[name] = (NOT_APPLICABLE, unit)
        elif name == "witness_value":
            metrics[name] = (sum(q.get(name, 0.0) for q in quality), unit)
        else:
            values = [q[name] for q in quality if name in q]
            # a job that failed before its check leaves no figure: report it as 1 bit off
            metrics[name] = (max(values) if values else 1.0, unit)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qcap", "__init__.py")):
        print("perfbench: run from the root of a qcap checkout (src/qcap not found)",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    src_hash, src_lines = tree_fingerprint(os.path.join(root, "src"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)

    def probe_setup() -> list[float]:
        if args.trace:
            return []
        probes = [run_worker(base + ["--mode", "setup"], deadline) for _ in range(SETUP_PROBES)]
        return [probe["setup_end"] - started for probe, started in probes]

    # probes on both sides of the measurement, so a slow spell of the host
    # does not set the median alone
    setup_samples = probe_setup()
    mode = ["--mode", "trace", "--trace-file", os.path.join(OUT_DIR, f"trace-{tag}.jsonl")] \
        if args.trace else ["--mode", "measure"]
    report, started = run_worker(base + mode + ["--seconds", str(args.seconds)], deadline)
    setup_samples.append(report["setup_end"] - started)
    setup_samples += probe_setup()

    # last-bit results depend on the BLAS build and thread count as well as on
    # qcap and on the benchmark's own job code
    same_code = hashlib.sha256(json.dumps([src_hash, tree_fingerprint(HERE)[0], report["stamp"]],
                                          sort_keys=True).encode()).hexdigest()[:16]
    digest_path = os.path.join(OUT_DIR, "digests", same_code,
                               f"{args.workload}-seed{args.seed}.json")
    attempted, failed, problems = tally(report["passes"], digest_path)
    if args.trace:
        metrics = {k: tuple(v) for k, v in report["per_layer"].items()}
    else:
        metrics = end_to_end(args.workload, setup_samples, report)

    stamp = dict(report["stamp"], nproc=len(os.sched_getaffinity(0)),
                 platform=platform.platform(), git_sha=git_sha(root),
                 src_sha256=src_hash, src_lines=src_lines)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp, "attempted": attempted,
              "failed": failed, "fail_ratio": failed / attempted, "problems": problems,
              "setup_samples_s": setup_samples, "passes": report["passes"],
              "peak_rss_mb": report["peak_rss_mb"], "job_self_s": report.get("job_self_s"),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT_DIR, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} passes={len(report['passes'])} "
          f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.3g}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for job, found in problems.items():
        print(f"FAILED {job}: {'; '.join(found)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
