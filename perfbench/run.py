"""Benchmark of the rank1_spectra command-line tool.

Usage, from the repository root:

    python3 perfbench/run.py --workload radius-exp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A closed loop with one client: the real CLI (``python3 -m rank1_spectra.cli``)
runs as one child process at a time, each started after the previous one
exits, for as many calls as fit in ``--seconds``.  Every output is checked
against references the benchmark computes itself (see workloads.py); a
non-zero exit or a failed check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics: ``wall_ref``, the wall time of
the run's CLI children (spawn to exit) in units of the time of a fixed
reference work timed between them, each taken as the mean of the middle half
of its samples; ``setup_s``, the median wall time of children that only
import the CLI and build its parser; and ``peak_rss_mb``, the median peak RSS
of a CLI child (taken per child with ``os.wait4``).  On a shared host the
speed of a core drifts by 20% and more for a minute at a time, and by 2x
between hours; the CLI's seconds drift with it, while their ratio to
reference work timed in the same minutes moves far less, and the mean of the
middle half of a run's samples varies less from run to run than their
median.  The reference (``reference_s``) is benchmark code, so no change to
the package can move it.  The plain seconds, ``wall_s``, are printed beside
it with their fastest and slowest call.  ``--trace 1`` alternates untraced
children with traced ones (tracer.py) and reports the per-layer metrics
(medians over the traced children), the untraced children's CPU time and
the tracing overhead (median over pairs of traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the same numbers for a reader, the failure ratio and the run environment.
``--smoke`` runs every workload once at tiny sizes, traced and untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import tracer
from workloads import WORKLOAD_NAMES, Workload, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
PYTHON = sys.executable or "python3"

CHILD_TIMEOUT_S = 150.0
SETUP_CODE = "import rank1_spectra.cli as cli; cli.build_parser()"
REF_LOOP = 1_000_000
REF_ARRAY_LEN = 2_000_000
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "RANK1_SPECTRA_THREADS")


@dataclass
class Child:
    """One finished child process: wall time, exit code and resource usage."""

    wall_s: float
    returncode: int
    cpu_s: float
    peak_rss_mb: float
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def record(self, what: str, child: Child, failures: List[str]) -> None:
        self.attempted += 1
        if child.returncode != 0:
            failures = [f"exit code {child.returncode}: {child.stderr.strip()[-500:]}"] + failures
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {msg}" for msg in failures)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: List[str], cwd: Path) -> Child:
    """Run ``cmd`` to completion; wall time is spawn to exit, resources are this child's own."""
    errfile = cwd / "stderr.txt"
    with open(errfile, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Child(
        wall_s=wall,
        returncode=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stderr=stderr,
    )


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_op(workload: Workload, opdir: Path, tally: Tally, trace: bool = False):
    """One CLI call, untraced or traced, with its output checked.  Returns the
    child and, for a traced call, the trace it wrote."""
    fresh_dir(opdir)
    cli = ["-m", "rank1_spectra.cli"]
    if trace:
        cli = [str(ROOT / "perfbench" / "tracer.py"), "trace.json", "--"]
    child = run_child([PYTHON, *cli, *workload.argv], opdir)
    failures: List[str] = []
    if child.returncode == 0:
        try:
            failures = workload.check(opdir)
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            failures = [f"unreadable output: {exc!r}"]
    data = None
    if trace:
        try:
            data = json.loads((opdir / "trace.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"no trace written: {exc!r}")
    tally.record(f"{workload.name}{' traced' if trace else ''}", child, failures)
    return child, data


def reference_s() -> float:
    """Wall time of fixed reference work, run in this process: a pure-Python
    loop and numpy passes over a 16 MB array, the two kinds of work the CLI
    does."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    x = np.linspace(0.0, 1.0, REF_ARRAY_LEN)
    for _ in range(3):
        total += float(np.sum(np.exp(-x)))
    return time.perf_counter() - start


def run_setup(opdir: Path, tally: Tally) -> Child:
    """One child that only imports the CLI and builds its parser."""
    child = run_child([PYTHON, "-c", SETUP_CODE], opdir)
    tally.record("setup", child, [])
    return child


def environment() -> dict:
    """What the numbers depend on besides the code: CPUs, BLAS build, thread settings, versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            commit = out.stdout.strip() or None
        except OSError:
            commit = None
    return {
        "nproc": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
    }


def middle_mean(samples: List[float]) -> float:
    """Mean of the middle half of ``samples`` (the interquartile mean)."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _line(name: str, unit: str, samples: List[float], what: str) -> str:
    return (f"{name:<13} {statistics.median(samples):.6g} {unit}  median of {len(samples)} "
            f"{what} (min {min(samples):.6g}, max {max(samples):.6g})")


def time_left(start: float, seconds: float, step_walls: List[float]) -> bool:
    """True while another step as long as the longest so far still fits in the run."""
    return not step_walls or time.perf_counter() - start + max(step_walls) <= seconds


def untraced_run(workload: Workload, workdir: Path, seconds: float, tally: Tally) -> dict:
    """Warm up with one set-up child and one CLI call, then repeat a step of
    reference work, one set-up child and one CLI call until ``seconds``,
    warm-up included, are used.  Interleaving spreads every metric's samples
    over the whole run, so a slow spell of the host weighs on them alike."""
    start = time.perf_counter()
    setup_dir = fresh_dir(workdir / "setup")
    run_setup(setup_dir, tally)  # warm-up: bytecode and file cache
    run_op(workload, workdir / "warmup", tally)  # warm-up: the command's own lazy imports
    refs: List[float] = []
    setups: List[Child] = []
    ops: List[Child] = []
    while time_left(start, seconds,
                    [r + a.wall_s + b.wall_s for r, a, b in zip(refs, setups, ops)]):
        refs.append(reference_s())
        setups.append(run_setup(setup_dir, tally))
        child, _ = run_op(workload, workdir / f"op{len(ops)}", tally)
        ops.append(child)
    walls = [c.wall_s for c in ops]
    rss = [c.peak_rss_mb for c in ops]
    setup = [c.wall_s for c in setups]
    wall_ref = middle_mean(walls) / middle_mean(refs)
    print(_line("wall_s", "s", walls, "CLI calls"))
    print(_line("reference_s", "s", refs, "reference steps"))
    print(f"{'wall_ref':<13} {wall_ref:.6g} ref  middle-half mean of wall_s over that of "
          f"reference_s ({middle_mean(walls):.6g} s / {middle_mean(refs):.6g} s)")
    print(_line("setup_s", "s", setup, "import-and-parser children"))
    print(_line("peak_rss_mb", "MB", rss, "CLI calls"))
    return {
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def traced_run(workload: Workload, workdir: Path, seconds: float, tally: Tally) -> dict:
    plain: List[Child] = []
    traced: List[Child] = []
    layers: List[Dict[str, float]] = []
    traces = []
    start = time.perf_counter()
    while time_left(start, seconds, [a.wall_s + b.wall_s for a, b in zip(plain, traced)]):
        child, _ = run_op(workload, workdir / f"op{len(plain)}", tally)
        plain.append(child)
        child, trace = run_op(workload, workdir / f"traced{len(traced)}", tally, trace=True)
        traced.append(child)
        if trace is not None:
            traces.append(trace)
            layers.append(tracer.layer_metrics(trace))
    if not layers:
        return {}
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["cli.cpu_s"] = statistics.median(c.cpu_s for c in plain)
    # pairwise: the two calls of a pair run back to back, in the same host state
    metrics["cli.trace_overhead_s"] = statistics.median(
        b.wall_s - a.wall_s for a, b in zip(plain, traced))
    for name in traces[0]["missing"]:
        print(f"absent: {name} is not in the package; its metrics read 0")
    stressed = statistics.median(tracer.stress_seconds(t, workload.stresses) for t in traces)
    print(f"{' + '.join(workload.stresses)}: {stressed:.6g} s, "
          f"{100 * stressed / metrics['cli.main_s']:.1f}% of cli.main_s and "
          f"{100 * stressed / statistics.median(c.wall_s for c in traced):.1f}% of the traced "
          f"child's wall (medians of {len(traces)} traced runs)")
    units = per_layer_units()
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:.6g} {unit}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def smoke(seed: int) -> int:
    """Every workload once at tiny sizes, untraced and traced; 0 when all checks pass."""
    workdir = fresh_dir(WORK / f"smoke-{os.getpid()}")
    tally = Tally()
    try:
        run_setup(fresh_dir(workdir / "setup"), tally)
        for name in WORKLOAD_NAMES:
            workload = make_workload(name, seed, fresh_dir(workdir / name), size="smoke")
            child, _ = run_op(workload, workdir / name / "op", tally)
            traced, trace = run_op(workload, workdir / name / "traced", tally, trace=True)
            untouched = [p for p in workload.stresses
                         if not trace or tracer.stress_seconds(trace, [p]) <= 0]
            if untouched:
                tally.failed += 1
                tally.messages.append(f"{name}: no time recorded in {untouched}")
            print(f"{name}: {child.wall_s:.3f} s untraced, {traced.wall_s:.3f} s traced")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in tally.messages:
        print(f"FAILED {msg}")
    print(f"smoke: {tally.failed} of {tally.attempted} operations failed")
    return 1 if tally.failed else 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rank1_spectra" / "cli.py").is_file():
        print(f"error: {SRC / 'rank1_spectra' / 'cli.py'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 63  # the CLI takes non-negative seeds
    if args.smoke:
        return smoke(seed)
    workdir = fresh_dir(WORK / f"{args.workload}-{os.getpid()}")
    tally = Tally()
    try:
        workload = make_workload(args.workload, seed, workdir)
        print(f"workload {workload.name} seed {seed}: "
              f"python3 -m rank1_spectra.cli {' '.join(workload.argv)}")
        if args.trace:
            metrics = traced_run(workload, workdir, args.seconds, tally)
        else:
            metrics = untraced_run(workload, workdir, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in tally.messages:
        print(f"FAILED {msg}")
    print(f"fail_ratio    {tally.failed / tally.attempted:.6g} ratio  "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
