"""Workload definitions: seeded inputs, CLI argument vectors and output checks.

Every reference value here is computed by the benchmark itself from the
generated inputs (plain Python floats and ``math.fsum``), never by calling
the package, so a defect in the package cannot vouch for its own output.

Each workload stresses one layer and bypasses others:

* ``radius-exp``: the Lambda doubling ladder (``sigma_model``) dominates;
  the moment series and the mp SDP run once each.  No randomness: the seed
  does not change its input.
* ``moments-file``: an explicit sigma sequence bypasses the ladder and the
  SDP; the time goes to the profile sums in ``moments``/``combinatorics``.
* ``simulate-rademacher``: eigensolve-bound Monte Carlo with the default law.
  It is not in BENCHMARK.json: the timed runs of four workloads do not fit
  the time allowed for all runs at a length that keeps them steady.  It stays
  here to be run by hand, and the self-tests run it.
* ``simulate-tgauss``: sample-bound Monte Carlo (truncated-gaussian bisection).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

EXP_SPEC = "expr:exp(-4*i/n)"

# Ridge-free 80-digit SDP value for the exp profile at s_bar = 14: no lower
# bound computed from exact moments can exceed it.
BETA_CEILING = 0.6010093

# Input sizes.  ``full`` is what the timed runs use; ``smoke`` exercises the
# same commands, checks and spans in seconds.
SIZES = {
    "full": {
        "radius_sbar": 14,
        "radius_lambda_tol": "1e-7",
        "radius_beta_floor": 0.599,
        "moments_n": 4000,
        "moments_max_order": 68,
        "rademacher_n": 2000,
        "rademacher_trials": 3,
        "tgauss_n": 300,
        "tgauss_trials": 24,
    },
    "smoke": {
        "radius_sbar": 4,
        "radius_lambda_tol": "1e-4",
        "radius_beta_floor": 0.55,
        "moments_n": 200,
        "moments_max_order": 12,
        "rademacher_n": 60,
        "rademacher_trials": 3,
        "tgauss_n": 60,
        "tgauss_trials": 6,
    },
}


@dataclass(frozen=True)
class Workload:
    """One CLI command with its inputs prepared and its output check.

    ``argv`` is the argument vector after ``python -m rank1_spectra.cli``;
    output paths in it are relative to the child's working directory, and
    input files sit in that directory's parent.
    ``check(outdir)`` returns a list of failure messages (empty when the
    output is correct).  ``stresses`` names the spans whose share of the
    traced run shows that the workload exercises its layer.
    """

    name: str
    argv: List[str]
    check: Callable[[Path], List[str]]
    stresses: List[str]


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def exp_sigma(n: int) -> List[float]:
    """sigma_i = exp(-4 i / n), i = 1..n, evaluated in the same operation order as the spec."""
    return [math.exp(-4 * i / n) for i in range(1, n + 1)]


def write_sigma_file(path: Path, seed: int, n: int) -> List[float]:
    """n values sigma_i ~ U[0.5, 2] from ``seed``, one per line, written with repr
    so the package reads back exactly the floats the references use."""
    rng = random.Random(seed)
    values = [rng.uniform(0.5, 2.0) for _ in range(n)]
    path.write_text("".join(repr(v) + "\n" for v in values), encoding="utf-8")
    return values


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_radius(outdir: Path, beta_floor: float) -> List[str]:
    sdp = _read_json(outdir / "radius.json")["radius"]["sdp"]
    failures = []
    if not sdp["method_agreement"] <= 10 * sdp["tol"]:
        failures.append(f"method_agreement {sdp['method_agreement']} > 10 * tol {sdp['tol']}")
    if not beta_floor <= sdp["beta"] <= BETA_CEILING:
        failures.append(f"beta {sdp['beta']} outside [{beta_floor}, {BETA_CEILING}]")
    return failures


def check_moments(outdir: Path, values: List[float], max_order: int) -> List[str]:
    rows = _read_json(outdir / "moments.json")["moments"]
    n = len(values)
    L1, L2, L3 = (math.fsum(v ** k for v in values) / n for k in (1, 2, 3))
    want = {
        2: L1 * L1,
        4: 2 * L1 * L1 * L2,
        6: 2 * L1 ** 3 * L3 + 3 * L1 * L1 * L2 * L2,
    }
    failures = []
    if [r["order"] for r in rows] != list(range(2, max_order + 1, 2)):
        failures.append(f"expected orders 2..{max_order}, got {[r['order'] for r in rows]}")
    by_order = {r["order"]: r for r in rows}
    for order, ref in want.items():
        got = by_order.get(order, {}).get("limit")
        if got is None or rel_err(got, ref) > 1e-12:
            failures.append(f"m_{order} = {got}, reference {ref}")
    for r in rows:
        upper = math.inf if r["upper"] is None else r["upper"]
        if r["lower"] is None or not r["lower"] <= r["limit"] <= upper:
            failures.append(f"order {r['order']}: lower {r['lower']} <= limit {r['limit']} "
                            f"<= upper {r['upper']} does not hold")
    return failures


def _simulate_common(outdir: Path, n: int, trials: int) -> List[str]:
    report = _read_json(outdir / "report.json")
    failures = []
    if report["n"] != n or report["trials"] != trials:
        failures.append(f"report says n={report['n']} trials={report['trials']}, "
                        f"expected n={n} trials={trials}")
    with open(outdir / "esd.csv", newline="", encoding="utf-8") as fh:
        total = sum(int(row["count"]) for row in csv.DictReader(fh))
    if total != n * trials:
        failures.append(f"esd.csv counts sum to {total}, expected n*trials = {n * trials}")
    return failures


def _m2(outdir: Path) -> dict:
    moments = _read_json(outdir / "report.json")["moments"]
    return next(m for m in moments if m["order"] == 2)


def check_rademacher(outdir: Path, n: int, trials: int) -> List[str]:
    """For +-sqrt(sigma_i sigma_j) entries tr(A^2)/n is (sum sigma)^2 / n^2 on every draw."""
    failures = _simulate_common(outdir, n, trials)
    ref = math.fsum(exp_sigma(n)) ** 2 / n ** 2
    got = _m2(outdir)["empirical_mean"]
    if rel_err(got, ref) > 1e-10:
        failures.append(f"m_2 mean {got}, reference {ref} (relative 1e-10)")
    return failures


def check_tgauss(outdir: Path, n: int, trials: int) -> List[str]:
    failures = _simulate_common(outdir, n, trials)
    ref = math.fsum(exp_sigma(n)) ** 2 / n ** 2
    m2 = _m2(outdir)
    if not abs(m2["empirical_mean"] - ref) <= 4 * m2["empirical_stderr"]:
        failures.append(f"m_2 mean {m2['empirical_mean']} +- {m2['empirical_stderr']} "
                        f"is more than 4 stderr from {ref}")
    return failures


WORKLOAD_NAMES = ("radius-exp", "moments-file", "simulate-rademacher", "simulate-tgauss")


def make_workload(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    """Build workload ``name`` for ``seed``, writing any input file into ``workdir``."""
    z = SIZES[size]
    if name == "radius-exp":
        argv = ["radius", "--sigma", EXP_SPEC, "--sbar", str(z["radius_sbar"]),
                "--lambda-tol", z["radius_lambda_tol"], "--out", "radius.json"]
        return Workload(name, argv, lambda d: check_radius(d, z["radius_beta_floor"]),
                        ["sigma_model.limiting_averages"])
    if name == "moments-file":
        n, max_order = z["moments_n"], z["moments_max_order"]
        sigma_path = workdir / "sigma.txt"
        values = write_sigma_file(sigma_path, seed, n)
        argv = ["moments", "--sigma", f"file:../{sigma_path.name}", "--n", str(n),
                "--max-order", str(max_order), "--out", "moments.json"]
        return Workload(name, argv, lambda d: check_moments(d, values, max_order),
                        ["moments.*", "combinatorics.*"])
    simulate = ["simulate", "--sigma", EXP_SPEC, "--seed", str(seed), "--out", "sim"]
    if name == "simulate-rademacher":
        n, trials = z["rademacher_n"], z["rademacher_trials"]
        argv = simulate + ["--n", str(n), "--trials", str(trials)]
        return Workload(name, argv, lambda d: check_rademacher(d / "sim", n, trials),
                        ["ensemble.eigenvalues"])
    if name == "simulate-tgauss":
        n, trials = z["tgauss_n"], z["tgauss_trials"]
        argv = simulate + ["--n", str(n), "--trials", str(trials),
                           "--dist", "truncated_gaussian"]
        return Workload(name, argv, lambda d: check_tgauss(d / "sim", n, trials),
                        ["ensemble.sample_matrix"])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")

