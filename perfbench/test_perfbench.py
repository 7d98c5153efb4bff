"""The benchmark's own tests: references, tracing and a small run of every workload.

Run from the repository root with ``python -m pytest perfbench``.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patched  # noqa: E402
from worker import check_pass, run_pass, traced_pass  # noqa: E402


@pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.3, 0.5])
def test_dephasing_curve_hits_its_endpoints(p):
    r_q, r_c = reference.dephasing_curve(p, 0.0)
    assert (float(r_q), float(r_c)) == pytest.approx((0.0, 1.0), abs=1e-15)
    r_q, r_c = reference.dephasing_curve(p, 0.5)
    assert (float(r_q), float(r_c)) == pytest.approx((1.0 - float(reference.h2(p)), 0.0),
                                                     abs=1e-15)
    assert reference.dephasing_endpoints(p) == pytest.approx((float(r_q), 1.0), abs=1e-15)


def test_slope_one_crossing_lies_on_the_curve():
    cg = reference.dephasing_slope_one_cg(0.1)
    nu = np.linspace(0.0, 0.5, 200001)
    r_q, r_c = reference.dephasing_curve(0.1, nu)
    i = int(np.argmin(np.abs(r_c - r_q)))
    assert cg == pytest.approx(r_q[i] + r_c[i], abs=1e-5)
    assert 0.0 < cg < 1.0


def test_erasure_endpoints():
    assert reference.erasure_endpoints(0.2) == pytest.approx((0.6, 0.8))
    assert reference.erasure_endpoints(0.7) == pytest.approx((0.0, 0.3))


def test_frontier_gap_is_zero_on_the_exact_curve():
    r_q, r_c = reference.dephasing_curve(0.1, np.linspace(0.0, 0.5, 4001))
    points = list(zip(r_q, r_c))
    assert reference.frontier_gap(0.1, points, r_q[-1], 1.0) == pytest.approx(0.0, abs=1e-12)
    # time sharing between the endpoints misses the curve by a visible amount
    chord = [(0.0, 1.0), (float(r_q[-1]), 0.0)]
    assert reference.frontier_gap(0.1, chord, r_q[-1], 1.0) > 0.01


def test_wrappers_restore_the_original_callables():
    triples = layers.instrumentation(Tracer())
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in triples
                 if attr in vars(owner)]
    assert len(originals) == len(triples)
    with patched(triples):
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_wrappers_restore_after_an_error():
    triples = layers.instrumentation(Tracer())
    owner, attr, _ = triples[0]
    original = vars(owner)[attr]
    with pytest.raises(RuntimeError):
        with patched(triples):
            raise RuntimeError("boom")
    assert vars(owner)[attr] is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_at_its_smallest_size(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0, True)
    plain = check_pass(run_pass(workload, inputs, 0, True))
    assert plain["jobs"]
    for job, rec in plain["jobs"].items():
        assert not any("Error" in p for p in rec["problems"]), (job, rec["problems"])

    tr, traced_run = traced_pass(workload, 0, True)
    traced = check_pass(traced_run)
    assert {j: r["digest"] for j, r in traced["jobs"].items()} == \
        {j: r["digest"] for j, r in plain["jobs"].items()}

    # per-job self times add up to no more than the job's (and the pass's) wall time
    job_self = tr.job_self_s()
    seconds = {job.name: s for job, _, _, _, s in traced_run["outcomes"]}
    seconds["setup"] = traced_run["setup_s"]
    for job, self_s in job_self.items():
        assert self_s <= seconds[job] + 1e-9
    assert sum(job_self.values()) <= traced_run["wall"] + traced_run["setup_s"] + 1e-9
    assert set(layers.per_layer_metrics(tr, 0.0)) == {
        m["name"] for m in _benchmark()["per_layer"]}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_describes_these_workloads():
    spec = _benchmark()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", *run.QUALITY}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "structure", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_totals_count_nested_time_once():
    tr = Tracer()
    with tr.span("a") as outer:
        with tr.span("a"):
            with tr.span("b"):
                pass
    totals = tr.totals()
    assert totals["a"][0] == 2 and totals["b"][0] == 1
    assert totals["a"][1] == pytest.approx(outer.duration)
    self_total = sum(s.self_s for s in tr.spans)
    assert self_total == pytest.approx(outer.duration)
    assert tr.job_self_s() == {"": pytest.approx(outer.duration)}
