"""Self-tests of the benchmark: smoke sizes, doctored outputs, trace plumbing.

Run with ``python3 -m pytest perfbench``.  Each CLI child runs at the tiny
``smoke`` sizes, so the whole file takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

import run
import tracer
from workloads import BETA_CEILING, SIZES, WORKLOAD_NAMES, make_workload

OK_CHILD = run.Child(wall_s=0.0, returncode=0, cpu_s=0.0, peak_rss_mb=0.0, stderr="")


@pytest.fixture(scope="module")
def ops():
    """Each workload at smoke size, run once untraced and once traced."""
    base = run.fresh_dir(run.WORK / f"selftest-{os.getpid()}")
    out = {}
    try:
        for name in WORKLOAD_NAMES:
            workload = make_workload(name, 11, run.fresh_dir(base / name), size="smoke")
            tally = run.Tally()
            run.run_op(workload, base / name / "op", tally)
            _, trace = run.run_op(workload, base / name / "traced", tally, trace=True)
            out[name] = (workload, base / name, tally, trace)
        yield out
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_smoke_mode_passes():
    assert run.smoke(seed=5) == 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_outputs_pass_their_checks(ops, name):
    _, _, tally, trace = ops[name]
    assert tally.messages == []
    assert (tally.attempted, tally.failed) == (2, 0)
    assert trace is not None and trace["missing"] == []


def doctored_copy(workdir: Path, edit) -> Path:
    target = workdir / "doctored"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(workdir / "op", target)
    edit(target)
    return target


def counted_failed(workload, opdir: Path) -> bool:
    tally = run.Tally()
    tally.record(workload.name, OK_CHILD, workload.check(opdir))
    return (tally.attempted, tally.failed) == (1, 1)


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def test_beta_above_reference_is_counted_failed(ops):
    workload, workdir, _, _ = ops["radius-exp"]

    def raise_beta(data):
        data["radius"]["sdp"]["beta"] = BETA_CEILING * (1 + 1e-6)

    opdir = doctored_copy(workdir, lambda d: _edit_json(d / "radius.json", raise_beta))
    assert counted_failed(workload, opdir)


def test_perturbed_m2_is_counted_failed(ops):
    workload, workdir, _, _ = ops["moments-file"]

    def perturb(data):
        row = next(r for r in data["moments"] if r["order"] == 2)
        row["limit"] *= 1 + 1e-9

    opdir = doctored_copy(workdir, lambda d: _edit_json(d / "moments.json", perturb))
    assert counted_failed(workload, opdir)


@pytest.mark.parametrize("name", ["simulate-rademacher", "simulate-tgauss"])
def test_histogram_count_off_by_one_is_counted_failed(ops, name):
    workload, workdir, _, _ = ops[name]

    def bump_first_count(opdir):
        path = opdir / "sim" / "esd.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lo, hi, count = lines[1].split(",")
        lines[1] = f"{lo},{hi},{int(count) + 1}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert counted_failed(workload, doctored_copy(workdir, bump_first_count))


def test_failed_exit_is_counted_failed():
    tally = run.Tally()
    tally.record("x", run.Child(0.0, 3, 0.0, 0.0, "error: boom"), [])
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "boom" in tally.messages[0]


def test_traced_run_sees_calls_through_imported_bindings(ops):
    """reports.limiting_averages, ensemble.sigma_values and
    moments.enumerate_degree_profiles are imported by name; their calls
    must still be traced."""
    radius = tracer.layer_metrics(ops["radius-exp"][3])
    assert radius["sigma_model.limiting_averages_s"] > 0
    assert radius["sigma_model.ladder_points"] > 0
    assert 0.5 < radius["radius_bounds.beta"] <= BETA_CEILING
    moments = tracer.layer_metrics(ops["moments-file"][3])
    assert moments["combinatorics.enumerate_profiles_calls"] == 2 * SIZES["smoke"]["moments_max_order"] // 2
    assert moments["combinatorics.profile_reuse_ratio"] == 0.5
    trials = SIZES["smoke"]["rademacher_trials"]
    sim = tracer.layer_metrics(ops["simulate-rademacher"][3])
    assert sim["ensemble.sample_matrix_calls"] == trials
    assert sim["sigma_model.sigma_values_calls"] == trials
    assert sim["ensemble.sigma_reuse_ratio"] == pytest.approx(1 / trials)
    n = SIZES["smoke"]["rademacher_n"]
    assert sim["ensemble.entries_drawn"] == trials * n * (n + 1) // 2


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 3.0, 6.0, 0],   # overlaps b (another thread): union is [1, 6]
        ["d", 2.0, 3.0, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_missing_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setattr(tracer, "TRACED", {"combinatorics": ("no_such_function",)})
    t = tracer.Tracer()
    tracer.install(t)
    assert t.missing == ["combinatorics.no_such_function"]
    metrics = tracer.layer_metrics(t.dump())
    assert metrics["combinatorics.enumerate_profiles_calls"] == 0


def test_benchmark_json_names_the_metrics_and_workloads_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # simulate-rademacher stays runnable by hand but is not in the timed set
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOAD_NAMES if name != "simulate-rademacher"]
    empty = {"spans": [], "counts": {}, "values": {}, "profile_orders": 0, "missing": []}
    produced = list(tracer.layer_metrics(empty)) + ["cli.cpu_s", "cli.trace_overhead_s"]
    assert list(run.per_layer_units()) == produced


def test_middle_mean_drops_the_outer_quarters():
    assert run.middle_mean([7.0, 1.0, 100.0, 3.0, 4.0, 5.0, 6.0, 2.0]) == 4.5
    assert run.middle_mean([2.0, 9.0, 1.0]) == 4.0
