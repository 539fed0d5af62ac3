import csv
import functools
import gc
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import rank1_spectra
from rank1_spectra import cli
from rank1_spectra.moments import limiting_even_moment
from rank1_spectra.sigma_model import sigma_stats

SIGMA = [0.7, 1.3, 0.9, 2.0, 1.1, 0.6]


def limits(max_order):
    n = len(SIGMA)
    averages = [S / n for S in sigma_stats(SIGMA, max_order // 2).partial_sums]
    return [float(limiting_even_moment(averages, s)) for s in range(1, max_order // 2 + 1)]


@pytest.fixture
def sigma_file(tmp_path):
    path = tmp_path / "sigma.txt"
    path.write_text("\n".join(repr(v) for v in SIGMA) + "\n", encoding="utf-8")
    return f"file:{path}"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_moments_limits_round_trip(tmp_path, sigma_file, fmt):
    out = tmp_path / f"moments.{fmt}"
    argv = ["moments", "--sigma", sigma_file, "--n", str(len(SIGMA)), "--max-order", "8",
            "--out", str(out), "--format", fmt]
    assert cli.main(argv) == 0
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        rows = json.loads(text)["moments"]
        got = [row["limit"] for row in rows]
        assert [row["order"] for row in rows] == [2, 4, 6, 8]
    else:
        got = [float(row["limit"]) for row in csv.DictReader(text.splitlines())]
    assert got == limits(8)


def test_moments_of_a_file_without_n_are_its_averages(tmp_path, sigma_file):
    rows = {}
    for n in (None, len(SIGMA)):
        out = tmp_path / f"moments_{n}.json"
        argv = ["moments", "--sigma", sigma_file, "--max-order", "8", "--out", str(out)]
        assert cli.main(argv + ([] if n is None else ["--n", str(n)])) == 0
        rows[n] = json.loads(out.read_text(encoding="utf-8"))["moments"]
    assert [row["limit"] for row in rows[None]] == [row["limit"] for row in rows[len(SIGMA)]]
    assert all(row["lower"] is None and row["upper"] is None for row in rows[None])
    assert all(row["lower"] is not None for row in rows[len(SIGMA)][:len(SIGMA) - 1])


def test_moments_name_a_lambda_beyond_float64(tmp_path):
    # Lambda_26 of const:1e12 is 1e312; the table runs on sigma / 2^40 and
    # flags each m_2s = C_s 1e24s past float64's range instead of failing
    for fmt in ("json", "csv"):
        out = tmp_path / f"m.{fmt}"
        argv = ["moments", "--sigma", "const:1e12", "--max-order", "64", "--out", str(out),
                "--format", fmt]
        assert cli.main(argv) == 0
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            rows = [{**row, **row.pop("flags")} for row in json.loads(text)["moments"]]
        else:
            rows = list(csv.DictReader(text.splitlines()))
        flagged = [row["out_of_range"] in (True, "true") for row in rows]
        assert flagged == [s > 12 for s in range(1, 33)]
        for s, row in enumerate(rows, start=1):
            catalan = math.comb(2 * s, s) // (s + 1)
            root = catalan ** (1 / (2 * s)) * 1e12
            assert float(row["limit_root"]) == pytest.approx(root, rel=1e-15)
            if s > 12:
                assert row["limit"] in (None, "")
            else:
                assert float(row["limit"]) == pytest.approx(catalan * 1e24 ** s, rel=1e-15)


def test_radius_sbar_3(tmp_path):
    out = tmp_path / "radius.json"
    assert cli.main(["radius", "--sigma", "const:1", "--sbar", "3", "--out", str(out)]) == 0
    sdp = json.loads(out.read_text(encoding="utf-8"))["radius"]["sdp"]
    assert sdp["s_bar"] == 3
    assert 0.0 < sdp["beta"] <= 4.0
    assert sdp["method_agreement"] <= 10 * sdp["tol"]


# the scale sweep: c times the exp profile and times a file of 1000 seeded
# values, ``file:<c>*``; 2^-40 is exact
_SCALES = {"2^-40": 2.0 ** -40, "1e-12": 1e-12, "1e-5": 1e-5, "1": 1.0, "1e3": 1e3, "1e12": 1e12}
_SWEEP = (("radius", "--n", "1000", "--orders", "2,5,40"),
          ("moments", "--n", "1000", "--max-order", "80"), ("moments", "--max-order", "128"))


@pytest.fixture(scope="module")
def scale_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scales")


def _at_scale(sigma, directory):
    """(spec text, c, spec text at scale 1) of a case of the sweep."""
    kind, body = sigma.split(":")
    head, _, profile = body.partition("*")
    c = _SCALES[head] if head in _SCALES else float(head)
    if kind == "const":
        return sigma, c, "const:1"
    if kind == "expr":
        return sigma, c, f"expr:{profile}"
    rng = random.Random(11)
    values = [rng.uniform(0.5, 2.0) for _ in range(1000)]
    texts = []
    for name, factor in ((head, c), ("1", 1.0)):
        path = directory / f"sigma_{name}.txt"
        path.write_text("".join(repr(factor * v) + "\n" for v in values), encoding="utf-8")
        texts.append(f"file:{path}")
    return texts[0], c, texts[1]


@functools.lru_cache(maxsize=None)
def _sweep(sigma, directory):
    """The JSON payloads of the commands of _SWEEP at ``sigma``."""
    payloads, name = [], re.sub(r"\W", "_", sigma)
    for k, command in enumerate(_SWEEP):
        out = directory / f"{name}_{k}.json"
        assert cli.main([command[0], "--sigma", sigma, *command[1:], "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text(encoding="utf-8")))
    return payloads


def _scales_by(got, want, c, tol):
    """got == c * want, to the relative ``tol`` (0: to the bit), with
    c * want in mpf; where c * want is beyond float64's range, got is None."""
    from mpmath import mp, mpf

    if want is None:
        return got is None
    with mp.workprec(113):
        scaled = mpf(c) * want
        if abs(scaled) > sys.float_info.max:
            return got is None
        return got is not None and abs(got - scaled) <= tol * abs(scaled)


@pytest.mark.parametrize("sigma", list(dict.fromkeys([
    "expr:1e-2*exp(-4*i/n)", "expr:0.0078125*exp(-4*i/n)", "const:0.0078125",
    "const:1000", "const:1e12", "expr:1e-12*exp(-4*i/n)",
    *(f"expr:{c}*exp(-4*i/n)" for c in _SCALES), *(f"file:{c}*" for c in _SCALES)])))
def test_radius_at_any_sigma_scale(scale_dir, sigma):
    # small sigma used to fail Cholesky's absolute pivot test ("not a valid
    # moment sequence"), const:1000 mp.inverse ("numerically singular");
    # at 1e12 and 1e-12, Lambda_29 rounded to float read as inf and 0; and
    # the moments of 1e-5 sigma read 0 from order 64 on, with no flag
    text, c, one = _at_scale(sigma, scale_dir)
    radius, moments, limits = _sweep(text, scale_dir)
    sdp = radius["radius"]["sdp"]
    assert 0.0 < sdp["beta"] <= 4.0 * (2 * c if text.startswith("file:") else c) ** 2
    assert math.isfinite(sdp["condition_estimate"])
    # every root is c times the root at scale 1, to the bit at 2^-40 and
    # else to 1e-15, every moment c^2s times the moment at scale 1, to
    # 2s 1e-15 as c sigma rounds each sigma, or flagged with its root
    from mpmath import mpf

    tol = 0 if c == 2.0 ** -40 else 1e-15
    base = _sweep(one, scale_dir)
    assert _scales_by(sdp["sqrt_beta"], base[0]["radius"]["sdp"]["sqrt_beta"], c, tol)
    assert _scales_by(radius["radius"]["asymptotic_root"], base[0]["radius"]["asymptotic_root"],
                      c, tol)
    for row, want in zip(radius["radius"]["orders"], base[0]["radius"]["orders"], strict=True):
        for key in ("lower", "upper", "upper_companion"):
            assert _scales_by(row[key], want[key], c, tol), (row, want)
    for got, want in ((moments, base[1]), (limits, base[2])):
        for row, ref in zip(got["moments"], want["moments"], strict=True):
            s = row["order"] // 2
            if row["flags"].get("out_of_range"):
                assert row["limit"] is None
                assert _scales_by(row["limit_root"], ref["limit"] ** (1 / (2 * s)), c, 1e-15)
                continue
            assert row["limit"] >= 2.0 ** -1022
            for key in ("limit", "lower", "upper"):
                scale = mpf(c) ** (2 * s)
                assert _scales_by(row[key], ref[key], scale, 2 * s * tol), (key, row, ref)


def test_simulate_histogram_counts_every_eigenvalue(tmp_path):
    out = tmp_path / "sim"
    argv = ["simulate", "--sigma", "const:1", "--n", "20", "--trials", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    with open(out / "esd.csv", encoding="utf-8") as fh:
        assert sum(int(row["count"]) for row in csv.DictReader(fh)) == 20 * 2
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 20 and report["trials"] == 2


def _esd_counts(out: Path) -> list:
    with open(out / "esd.csv", encoding="utf-8") as fh:
        return [int(row["count"]) for row in csv.DictReader(fh)]


def test_histogram_at_any_sigma_scale(tmp_path):
    # the default range used to widen [min, max] by an absolute 1e-9: at sigma
    # scale 1e-10 that left 8 of 100 bins non-empty
    counts = []
    for scale in (1.0, 2.0 ** -40):
        out = tmp_path / repr(scale)
        argv = ["simulate", "--sigma", f"expr:{scale!r}*exp(-4*i/n)", "--n", "200",
                "--trials", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        counts.append(_esd_counts(out))
    assert counts[0] == counts[1]
    assert sum(counts[0]) == 400


_TGAUSS = ["simulate", "--sigma", "expr:exp(-4*i/n)", "--n", "40", "--trials", "3",
           "--dist", "truncated_gaussian", "--seed", "5"]


def _report_without_manifest(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report.pop("manifest")
    return report


def test_in_process_main_keeps_the_collector(tmp_path):
    frozen = gc.get_freeze_count()
    assert cli.main([*_TGAUSS, "--out", str(tmp_path / "sim")]) == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_run_freezes_the_heap_after_main(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    assert cli.run() == 3
    assert events == ["main", "freeze"]


def test_process_entry_writes_what_main_writes(tmp_path):
    """``python -m rank1_spectra.cli`` goes through ``run``, as the
    ``rank1-spectra`` script does, and writes what an in-process ``main``
    writes."""
    inproc, child = tmp_path / "inproc", tmp_path / "child"
    assert cli.main([*_TGAUSS, "--out", str(inproc)]) == 0
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "rank1_spectra.cli", *_TGAUSS, "--out", str(child)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (child / "esd.csv").read_bytes() == (inproc / "esd.csv").read_bytes()
    assert _report_without_manifest(child) == _report_without_manifest(inproc)
    pyproject = src.parent / "pyproject.toml"
    if pyproject.is_file():  # a source checkout
        assert 'rank1-spectra = "rank1_spectra.cli:run"' in pyproject.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "sigma, code",
    [("expr:exp(", cli.USAGE_EXIT), ("const:-1", cli.NUMERIC_EXIT),
     ("file:no/such/sigma.txt", cli.NUMERIC_EXIT)],
)
def test_bad_sigma_exit_codes(tmp_path, sigma, code):
    argv = ["moments", "--sigma", sigma, "--n", "8", "--max-order", "4",
            "--out", str(tmp_path / "m.json")]
    assert cli.main(argv) == code


@pytest.mark.parametrize("argv", [["radius", "--sbar", "2", "--orders", "1,2"],
                                  ["moments", "--max-order", "4"]])
def test_sigma_one_scale_cannot_hold_exits_3_naming_its_span(tmp_path, capsys, argv):
    # sigma_min = 1e-320 underflows to 0 at the table's scale 2^-997 that
    # holds sigma_max = 1e300: both tables name the span, not a scaled
    # sigma_max (theta_factor) or a sigma of 0 at i = 2 (sigma_stats)
    path = tmp_path / "sigma.txt"
    path.write_text("1e300\n1e-320\n2\n", encoding="utf-8")
    out = tmp_path / "out.json"
    argv = [argv[0], "--sigma", f"file:{path}", "--n", "3", *argv[1:], "--out", str(out)]
    assert cli.main(argv) == cli.NUMERIC_EXIT
    assert capsys.readouterr().err == (
        "error: sigma_max = 1e+300 and sigma_min = 1e-320 span more than one float64 scale "
        "holds: sigma_min 2^-997 underflows to 0\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["radius", "--sigma", "expr:exp(1e17*i/n)", "--sbar", "14"], "Lambda_24: sigma^24 {} (Overflow)"),
    (["moments", "--sigma", "expr:exp(-1e18*i/n)", "--max-order", "32"],
     "Lambda_3: sigma^3 {} (Underflow)"),
])
def test_a_power_beyond_decimal_range_exits_3_naming_it(tmp_path, capsys, argv, line):
    # the decimal signal escaped as "error: [<class 'decimal.Overflow'>]"
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == cli.NUMERIC_EXIT
    span = "leaves Decimal's exponent range 10^-999999999999999999..10^999999999999999999"
    assert capsys.readouterr().err == f"error: {line.format(span)}\n"
    assert not out.exists()


def test_control_characters_in_a_path_stay_valid_json(tmp_path):
    # every U+0000-U+001F a file name may hold (all but NUL) survives json.loads
    name = "s" + "".join(map(chr, range(1, 0x20))) + ".txt"
    path = tmp_path / name
    path.write_text("\n".join(repr(v) for v in SIGMA) + "\n", encoding="utf-8")
    out = tmp_path / ("m\x01" + name + ".json")
    argv = ["moments", "--sigma", f"file:{path}", "--max-order", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["manifest"]["sigma"] == f"file:{path}"
    assert payload["manifest"]["argv"] == argv


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 298. GiB for an array"),
     "error: Unable to allocate 298. GiB for an array\n"),
    (MemoryError(), "error: MemoryError\n")])
def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys, exc, line):
    # a campaign numpy cannot allocate is a runtime error, not a failed check
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr("rank1_spectra.ensemble.monte_carlo", no_memory)
    argv = ["simulate", "--sigma", "expr:exp(-4*i/n)", "--n", "200000", "--trials", "1",
            "--out", str(tmp_path / "sim")]
    assert cli.main(argv) == cli.NUMERIC_EXIT
    assert capsys.readouterr().err == line
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "argv",
    [["moments", "--sigma", "const:1", "--max-order", "3", "--out", "m.json"],
     ["simulate", "--sigma", "const:1", "--n", "4", "--trials", "0", "--out", "sim"],
     ["radius", "--sigma", "const:1", "--orders", "2", "--out", "r.json"],
     ["nosuchcommand"]],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.USAGE_EXIT


@pytest.mark.parametrize(
    "argv, message",
    [(["radius", "--sigma", "const:1", "--sbar", "32", "--out", "r.json"],
      "--sbar must be in 1..31"),
     (["moments", "--sigma", "const:1", "--max-order", "130", "--out", "m.json"],
      "--max-order must be even, in 2..128"),
     (["radius", "--sigma", "const:1", "--n", "100", "--orders", "3,65", "--out", "r.json"],
      "--orders entries must be in 1..64"),
     (["radius", "--sigma", "const:1", "--n", "0", "--out", "r.json"], "--n must be >= 1"),
     (["simulate", "--sigma", "const:1", "--n", "4", "--trials", "1", "--seed", "-1",
       "--out", "sim"], "--seed must be in 0..18446744073709551615"),
     (["simulate", "--sigma", "const:1", "--n", "4", "--trials", "1",
       "--seed", "18446744073709551616", "--out", "sim"],
      "--seed must be in 0..18446744073709551615")],
)
def test_out_of_range_orders_name_the_flag(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.USAGE_EXIT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command, flag",
    [("radius", "--tol"), ("radius", "--lambda-tol"), ("moments", "--lambda-tol"),
     ("simulate", "--K")],
)
def test_tolerance_must_be_finite_and_positive(capsys, command, flag, value):
    argv = [command, "--sigma", "const:1", "--out", "out.json", f"{flag}={value}"]
    argv += {"radius": ["--sbar", "1"], "moments": ["--max-order", "2"],
             "simulate": ["--n", "4", "--trials", "1"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.USAGE_EXIT
    assert f"{flag} must be finite and > 0" in capsys.readouterr().err


# Runs in a fresh interpreter: the test session has every layer (and scipy)
# loaded already.  argv[1] is a JSON list of CLI argument vectors; the script
# records the modules loaded and the BLAS variables once the CLI is imported
# and its parser built, which modules are loaded after each call, and last,
# as the detector's control, which are loaded once it imports the oracles,
# scipy and ``concurrent.futures``.  numpy and the oracles' dataclasses load
# ``dataclasses``, ``inspect`` and ``datetime``, and ``validation`` loads
# ``fractions`` and with it ``decimal``.
_IMPORT_SCRIPT = """
import json, os, sys
import rank1_spectra

WATCHED = ("numpy", "scipy", "mpmath", "rank1_spectra.ensemble", "rank1_spectra.validation",
           "rank1_spectra.walk_oracle", "rank1_spectra.combinatorics", "rank1_spectra.moments",
           "rank1_spectra.reports", "rank1_spectra.expression", "rank1_spectra.quadrature",
           "fractions", "concurrent.futures", "logging", "dataclasses", "inspect", "datetime",
           "decimal")

def loaded():
    return sorted(w for w in WATCHED if any(m == w or m.startswith(w + ".") for m in sys.modules))

report = {
    "public": sorted(name for name in dir(rank1_spectra) if not name.startswith("_")),
    "submodules": sorted(m for m in sys.modules if m.startswith("rank1_spectra.")),
}
from rank1_spectra import cli
cli.build_parser()
report["parser"] = sorted(m for m in sys.modules if m.startswith("rank1_spectra."))
report["start"] = [loaded(), [os.environ.get(v) for v in rank1_spectra._BLAS_THREAD_VARS]]
argvs = json.loads(sys.argv[1])
report["commands"] = [argv[0] for argv in argvs]
report["runs"] = [[cli.main(argv), loaded()] for argv in argvs]
import rank1_spectra.validation, scipy.special, concurrent.futures
report["control"] = loaded()
print(json.dumps(report))
"""

# The public names of ``import rank1_spectra`` before names loaded lazily.
PUBLIC_NAMES = [
    "DegreeProfile", "EnsembleConfig", "EntryMomentModel", "HankelPencil",
    "InvalidMomentSequenceError", "LimitingAverages", "MomentReport", "MomentRow",
    "MonteCarloResult", "NoLimitError", "PlaneTree", "RadiusBound", "RadiusBoundsReport",
    "RadiusOrderRow", "SdpResult", "SigmaDomainError", "SigmaSpec", "SigmaStats",
    "SpecSyntaxError", "build_pencil", "catalan", "combinatorics",
    "degree_profile_of", "derive_trial_seed", "eigenvalues",
    "empirical_moments", "ensemble", "enumerate_degree_profiles", "enumerate_plane_trees",
    "exact_expected_moment", "lambda_vector",
    "limiting_averages", "limiting_even_moment", "moment_lower_bound",
    "moment_table", "moment_upper_bound", "moments", "monte_carlo", "multinomial",
    "odd_moment_bound", "parse_sigma_spec", "quadrature", "radius_bounds",
    "radius_table", "reports", "sample_matrix", "sdp_lower_bound",
    "sigma_model", "sigma_stats", "sigma_values", "theta_factor",
    "tree_count", "walk_oracle",
]


@pytest.fixture(scope="module")
def import_runs(tmp_path_factory):
    """Two fresh interpreters: the simulate laws and then moments of a limit,
    and every moments and radius run that loads no numpy."""
    out = tmp_path_factory.mktemp("imports")
    sigma = out / "sigma.txt"
    sigma.write_text("\n".join(repr(v) for v in SIGMA) + "\n", encoding="utf-8")
    monte_carlo = [
        ["simulate", "--sigma", "const:1", "--n", "20", "--trials", "2", "--dist", dist,
         "--out", str(out / dist)]
        for dist in ("rademacher", "uniform", "truncated_gaussian")
    ] + [
        ["moments", "--sigma", "expr:exp(-4*i/n)", "--max-order", "8",
         "--out", str(out / "m_expr.json")],
    ]
    numpy_free = [
        ["moments", "--sigma", f"file:{sigma}", "--n", "6", "--max-order", "8",
         "--out", str(out / "m_file.json")],
        ["radius", "--sigma", f"file:{sigma}", "--n", "6", "--sbar", "2", "--orders", "2,3",
         "--out", str(out / "r_orders.json")],
        ["moments", "--sigma", "const:1", "--max-order", "8", "--out", str(out / "m_const.json")],
        ["radius", "--sigma", f"file:{sigma}", "--sbar", "2", "--out", str(out / "r_file.json")],
        ["radius", "--sigma", "expr:exp(-4*i/n)", "--sbar", "3", "--out", str(out / "r.json")],
        ["radius", "--sigma", "const:1000", "--sbar", "3", "--out", str(out / "r_const.json")],
        ["moments", "--sigma", "expr:exp(-4*i/n)", "--max-order", "8",
         "--out", str(out / "m_expr.json")],
        ["moments", "--sigma", "expr:exp(-4*i/n)", "--n", "50", "--max-order", "8",
         "--out", str(out / "m_expr_n.json")],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in rank1_spectra._BLAS_THREAD_VARS}
    reports = []
    for argvs in (monte_carlo, numpy_free):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True, env={**env, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    return reports


_PIN_SCRIPT = """
import json, os, sys
{first}
import rank1_spectra
before = 'numpy' in sys.modules
import rank1_spectra.cli
from rank1_spectra import ensemble
ensemble._cpu_count = lambda: 2
cfg = ensemble.EnsembleConfig(n=60, sigma=rank1_spectra.parse_sigma_spec('const:1'), seed=1)
print(json.dumps([before, [os.environ.get(v) for v in rank1_spectra._BLAS_THREAD_VARS],
                  ensemble.monte_carlo(cfg, 24, 2).workers]))
"""


@pytest.mark.parametrize("first, user, expected", [
    ("", {}, [False, ["1", "1", "1"], 2]),
    ("", {"MKL_NUM_THREADS": "3"}, [False, ["1", "1", "3"], 1]),
    ("import numpy", {}, [True, [None, None, None], 1]),
])
def test_cli_pins_blas_before_numpy_loads(first, user, expected):
    """The package loads no numpy; the CLI sets each unset BLAS variable to 1
    before numpy loads, and keeps a value the user set.  Trials run on more
    than one thread only when every variable read 1 as numpy loaded; once
    numpy has loaded first, the CLI leaves the environment alone."""
    env = {k: v for k, v in os.environ.items() if k not in rank1_spectra._BLAS_THREAD_VARS}
    env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **user)
    proc = subprocess.run([sys.executable, "-c", _PIN_SCRIPT.format(first=first)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


def test_no_command_loads_scipy(import_runs):
    for report in import_runs:
        assert [code for code, _ in report["runs"]] == [0] * len(report["runs"])
        assert all("scipy" not in mods for _, mods in report["runs"])
        assert "scipy" in report["control"]  # the check above sees scipy when it is loaded


def test_each_command_loads_only_its_own_layers(import_runs):
    monte_carlo, numpy_free = import_runs
    oracles = {"rank1_spectra.validation", "rank1_spectra.walk_oracle",
               "rank1_spectra.combinatorics"}
    # the moment layers and the stdlib modules that simulate has no use for
    moment_layers = {"rank1_spectra.moments", "rank1_spectra.reports"}
    unused = moment_layers | {"fractions", "decimal", "concurrent.futures", "logging"}
    # the three simulate laws, then moments (expr sigma), whose limiting
    # averages are the first thing here to need decimal; none loads mpmath
    for index, (_, mods) in enumerate(monte_carlo["runs"]):
        assert ("decimal" in mods) == (index == 3)
        assert "mpmath" not in mods
        assert "rank1_spectra.ensemble" in mods
        assert not oracles & set(mods)
        if index < 3:
            assert not unused & set(mods)
        else:
            assert moment_layers <= set(mods)
    # moments (file sigma), whose S_{n,k}/n sum in float64 and which loads
    # neither decimal nor mpmath, then radius (file, constant and expression
    # sigma) and moments of a constant or an expression, which need decimal
    # and no mpmath: mpmath is the oracle of validate alone
    for index, (_, mods) in enumerate(numpy_free["runs"]):
        assert ("decimal" in mods) == (index >= 1)
        assert "mpmath" not in mods
        assert "rank1_spectra.ensemble" not in mods
        assert not oracles & set(mods)
    for report in import_runs:
        # the detector sees mpmath once the oracles are imported
        assert oracles | unused | {"mpmath"} <= set(report["control"])
        assert report["parser"] == ["rank1_spectra.cli"]  # the parser loads no other layer


def test_only_commands_that_need_them_compile_the_expression_and_quadrature(import_runs):
    """``moments`` of a ``file:`` sigma takes its averages S_{n,k}/n in
    float64, and ``simulate`` of a constant evaluates no expression and no
    limit: neither loads the expression language nor the quadrature.
    ``moments`` of a constant and ``radius`` of a file take mpf Lambda_k
    from the quadrature but evaluate no expression; ``radius`` and
    ``moments`` of an expression load both."""
    monte_carlo, numpy_free = import_runs
    split = {"rank1_spectra.expression", "rank1_spectra.quadrature"}
    runs = {"simulate of a constant": (monte_carlo["runs"][:3], set()),
            "moments of a file": (numpy_free["runs"][:1], set()),
            "moments of a constant, radius of a file": (numpy_free["runs"][2:4],
                                                        {"rank1_spectra.quadrature"}),
            "radius of an expression": (numpy_free["runs"][4:5], split),
            "moments of an expression": ([monte_carlo["runs"][3], *numpy_free["runs"][6:]], split)}
    for label, (chosen, want) in runs.items():
        for _, mods in chosen:
            assert split & set(mods) == want, label


def test_moments_and_radius_load_no_dataclasses_datetime_or_fractions(import_runs):
    """No ``moments`` or ``radius`` run loads ``dataclasses`` (nor the
    ``inspect`` it brings), ``datetime`` or ``fractions``: its records are
    NamedTuples, the manifest's timestamp comes from ``time.time_ns`` and a
    float or Decimal tree series needs no Fraction.  Before the numpy-free
    runs none of them is loaded at all; in the other interpreter simulate
    has loaded all but one of them already."""
    lean = {"dataclasses", "inspect", "datetime", "fractions"}
    checked = 0
    for report in import_runs:
        assert not lean & set(report["start"][0])
        before = set(report["start"][0])
        for command, (_, mods) in zip(report["commands"], report["runs"]):
            if command in ("moments", "radius"):
                assert not lean & (set(mods) - before), command
                checked += 1
            before = set(mods)
        assert lean <= set(report["control"])  # the detector sees each once it is loaded
    assert checked == 9


def test_radius_and_limit_moments_load_no_numpy(import_runs):
    """Building the parser and every ``moments`` and ``radius`` run, at n or
    of a limit, on an expression, a constant or a file, load no numpy;
    simulate loads it, after the CLI pinned BLAS."""
    monte_carlo, numpy_free = import_runs
    for report in import_runs:
        assert report["start"] == [[], ["1", "1", "1"]]  # pinned, and numpy not yet loaded
        assert "numpy" in report["control"]  # the detector sees numpy when it is loaded
    assert [code for code, _ in numpy_free["runs"]] == [0] * 8
    assert all("numpy" not in mods for _, mods in numpy_free["runs"])
    assert all("numpy" in mods for _, mods in monte_carlo["runs"])


def test_package_names_load_on_first_use(import_runs):
    for report in import_runs:
        assert report["public"] == PUBLIC_NAMES
        assert report["submodules"] == []
    assert rank1_spectra.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(rank1_spectra, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"rank1_spectra.{name}")
        else:
            assert value.__module__.startswith("rank1_spectra.")
            assert getattr(importlib.import_module(value.__module__), name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        rank1_spectra.no_such_name
    assert not hasattr(rank1_spectra, "cli_main")


def test_each_module_lists_the_names_the_package_exports_from_it():
    for module, names in rank1_spectra._MODULE_EXPORTS.items():
        listed = importlib.import_module(f"rank1_spectra.{module}").__all__
        assert [name for name in names if name not in listed] == [], module


def test_the_version_is_the_one_in_pyproject():
    # a regex, since Python 3.10 has no tomllib
    from rank1_spectra.serialize import LIBRARY_VERSION

    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'(?m)^version = "([^"]*)"$', text) == [rank1_spectra.__version__]
    assert LIBRARY_VERSION is rank1_spectra.__version__


@pytest.mark.parametrize("micros", [0, 999999, 123456])
def test_manifest_timestamp_is_the_isoformat_of_datetime(micros):
    from datetime import datetime, timezone

    from rank1_spectra.serialize import _utc_timestamp, run_manifest

    for seconds in (0, 951782400, 1760000000, 4102444799):  # 1970, 2000-02-29, 2025, 2099
        for nanos in (1000 * micros, 1000 * micros + 999):  # nanoseconds truncate
            expected = datetime.fromtimestamp(seconds, timezone.utc).replace(microsecond=micros)
            assert _utc_timestamp(seconds * 10 ** 9 + nanos) == expected.isoformat()
    stamp = run_manifest("radius", [], "const:1", None)["timestamp"]
    assert datetime.fromisoformat(stamp).tzinfo == timezone.utc


@pytest.mark.parametrize("command", ["radius", "moments"])
def test_unconverged_ladder_exits_3_without_output(tmp_path, capsys, command):
    # (1/n) sum (1 + log i) grows like log n: the limit test rejects it on the
    # quadrature's coarse level, well inside the time bound
    out = tmp_path / "out.json"
    argv = [command, "--sigma", "expr:1+log(i)", "--out", str(out)]
    argv += ["--sbar", "1"] if command == "radius" else ["--max-order", "2"]
    start = time.perf_counter()
    assert cli.main(argv) == cli.NUMERIC_EXIT
    assert time.perf_counter() - start < 2.0
    assert "--lambda-tol" in capsys.readouterr().err
    assert not out.exists()


def _beta(tmp_path, *argv):
    out = tmp_path / "radius.json"
    assert cli.main(["radius", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["radius"]["sdp"]["beta"]


def test_radius_beta_scales_with_sigma_squared(tmp_path):
    # the moments carry 38 digits, so beta scales to the last float bit or so
    base = _beta(tmp_path, "--sigma", "const:1")
    assert _beta(tmp_path, "--sigma", "const:1000") == pytest.approx(1e6 * base, rel=1e-12)


def _uniform_sigma_file(directory, seed):
    """4000 values sigma ~ U[0.5, 2] from random.Random(seed), written to a file."""
    rng = random.Random(seed)
    values = [rng.uniform(0.5, 2.0) for _ in range(4000)]
    path = directory / f"sigma{seed}.txt"
    path.write_text("".join(repr(v) + "\n" for v in values), encoding="utf-8")
    return f"file:{path}"


@functools.lru_cache(maxsize=None)
def _exact_averages(seed):
    """Lambda_1..Lambda_51 of the file of ``seed``: exact sums of its float
    values over n, as Fractions, from the integers of float.as_integer_ratio."""
    rng = random.Random(seed)
    ratios = [rng.uniform(0.5, 2.0).as_integer_ratio() for _ in range(4000)]
    den = max(d for _, d in ratios)  # a power of 2, so every v_i is an integer over it
    ints = [m * (den // d) for m, d in ratios]
    powers, averages = ints, []
    for k in range(1, 52):
        averages.append(Fraction(sum(powers), len(ints) * den ** k))
        powers = [p * m for p, m in zip(powers, ints)]
    return averages


def _exact_sum_pencil(seed, s_bar):
    """The pencil of the exact averages of the file of ``seed``, in 100-digit Decimal."""
    from decimal import localcontext

    from rank1_spectra.moments import _limits
    from rank1_spectra.radius_bounds import build_pencil
    from rank1_spectra.sigma_model import _context

    with localcontext(_context(100)) as ctx:
        lams = [ctx.divide(a.numerator, a.denominator)
                for a in _exact_averages(seed)[:2 * s_bar + 1]]
        return build_pencil(_limits(lams, 2 * s_bar + 1), s_bar)


def test_explicit_sigma_beta_matches_the_exact_sum_oracle(tmp_path):
    from rank1_spectra.validation import brackets_beta

    spec = _uniform_sigma_file(tmp_path, 1)
    beta = _beta(tmp_path, "--sigma", spec, "--n", "4000", "--sbar", "14")
    # the exact pencil's minimum beta* is 7.41271062 +- 1e-8 and within 2e-10 of beta
    pencil = _exact_sum_pencil(1, 14)
    assert brackets_beta(pencil, 7.41271062 - 1e-8, 7.41271062 + 1e-8)
    assert brackets_beta(pencil, beta - 2e-10, beta + 2e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_explicit_sigma_past_float_digits_stays_a_lower_bound(tmp_path, seed):
    # at s_bar = 25 the pencil amplifies the float S_{n,k}/n's rounding past
    # beta's first digit (seed 0 gave 7.52368 above the exact 7.52160, seed 1
    # no moment sequence); the averages are summed exactly instead
    from rank1_spectra.validation import brackets_beta

    spec = _uniform_sigma_file(tmp_path, seed)
    beta = _beta(tmp_path, "--sigma", spec, "--n", "4000", "--sbar", "25")
    # beta* - 2e-10 <= beta <= beta* + 1e-10 for the exact pencil's minimum beta*
    assert brackets_beta(_exact_sum_pencil(seed, 25), beta - 1e-10, beta + 2e-10)


def test_validate_exits_1_on_a_failing_check(monkeypatch, capsys):
    checks = (("ok", lambda deep: (True, "fine")), ("bad", lambda deep: (False, "broke")))
    monkeypatch.setattr("rank1_spectra.validation.CHECKS", checks)
    assert cli.main(["validate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "ok: PASS (fine)\nbad: FAIL (broke)\n"
    assert "1 of 2 checks failed" in captured.err
