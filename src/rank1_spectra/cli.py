"""Command-line surface: moment tables, simulations, radius bounds, validation.

Each command loads only its own layers.  This module imports no other
submodule at import time: the limits its parser states come from the
package ``__init__``, so importing it and building the parser loads
argparse and nothing else of the package, and each handler, and ``main``
for the exceptions it maps to exit codes, imports what it uses when it
runs.  So ``simulate`` never loads the moment layers (``moments`` and
``reports``), ``moments`` never loads the Monte Carlo layer, and only
``validate`` loads the enumeration oracles.  A ``file:`` sigma needs
neither the expression language (``expression``) nor the quadrature of
the limiting averages (``quadrature``): ``moments`` sums its S_{n,k}/n in
float64 and loads neither, nor ``decimal`` (``radius`` sums them exactly
in Decimal), and ``simulate`` of a constant or ``file:`` sigma loads
neither.  Rows at ``--n`` sum powers of sigma at n only for an expression,
and never evaluate a constant at n: the S_{n,k}/n of the others are their
averages.  numpy loads only with the Monte Carlo layer, for ``simulate``
and ``validate``.  ``moments`` and ``radius`` run on Python floats, exact
ints and the stdlib's C ``decimal``, sigma at n points and its partial
sums included, and never load numpy, which saves its import, most of
their start-up.  No command loads mpmath: ``validate``'s oracles check
the Decimal layers in Decimal, by other algorithms.  Nor do ``moments``
and ``radius`` load ``dataclasses`` (with ``inspect``, ``ast``, ``dis``
and ``tokenize``), ``datetime`` or ``fractions``: the records of their
layers are NamedTuples, the manifest's timestamp is formatted from
``time.time_ns()``, and a float or Decimal tree series takes no Fraction.

A process that enters through ``run`` (``python -m rank1_spectra.cli`` and
the ``rank1-spectra`` script) calls ``gc.freeze()`` once ``main`` has
returned, so the garbage collections that the interpreter runs as it shuts
down skip every object still alive: tens of milliseconds for ``simulate``,
whose numpy and result objects they would otherwise traverse.  A caller of
``main`` in its own process keeps the normal collector.

Importing this module before numpy loads pins BLAS to one thread: it sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1, unless they
are set already, in this process and so in its children.  ``simulate`` then
runs its trials on worker threads, one per CPU at most, instead of one BLAS
thread per CPU on each solve.  A value set by the user wins, and with any of
them other than 1, or with numpy loaded first, the trials run on one thread.
With a worker on every CPU the process may use, each worker is pinned to its
own CPU, since the OS was seen to keep two workers on one CPU of two; the
output is the same bit for bit either way.  The ``simulate`` manifest
records the worker count, the CPUs they were pinned to (null when the OS
placed them) and the three variables.

``moments`` and ``radius`` tables run at the one scale of ``reports`` and
so take sigma of any size.  A moment beyond float64's normal range is
written as null, an empty CSV cell, and then every row of its table carries
the ``out_of_range`` flag and the power root m_{2s}^{1/2s}, ``limit_root``.

Exit codes: 0 success, 1 when a ``validate`` check fails, 2 usage or parse
errors, 3 numeric, runtime or out-of-memory errors.
All outputs are UTF-8; floats serialize with 17 significant digits.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import (_BLAS_THREAD_VARS, _DEFAULT_LAMBDA_TOL, _DEFAULT_SBAR, _DEFAULT_TOL,
               _DISTRIBUTIONS, _MAX_ORDER, _pin_blas)

_pin_blas()  # before any handler loads numpy

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from typing import Optional

    from .moments import MomentReport
    from .radius_bounds import RadiusBoundsReport

USAGE_EXIT = 2
NUMERIC_EXIT = 3
# the SDP at s_bar needs m_2 .. m_{2(2 s_bar + 1)}
_MAX_SBAR = (_MAX_ORDER - 1) // 2
_LAMBDA_TOL_HELP = ("relative tolerance of the test that each Lambda_k has a limit, and the "
                    "least accuracy accepted where its quadrature stops short of full precision")


def _moment_rows_payload(report: MomentReport) -> list:
    # where some limit leaves float64's normal range every row carries the
    # out_of_range flag and the power root
    wide = any(r.out_of_range for r in report.rows)
    return [
        {
            "order": r.order,
            "limit": None if r.out_of_range else r.limit,
            "lower": r.lower,
            "upper": None if r.upper_overflow else r.upper,
            "flags": {"lower_vacuous": r.lower_vacuous, "upper_overflow": r.upper_overflow,
                      **({"out_of_range": r.out_of_range} if wide else {})},
            **({"limit_root": r.root} if wide else {}),
        }
        for r in report.rows
    ]


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        from .serialize import fmt17

        return "inf" if math.isinf(x) else fmt17(x)
    return str(x)


def _moment_csv(report: MomentReport) -> str:
    wide = any(r.out_of_range for r in report.rows)
    lines = ["order,limit,lower,upper,lower_vacuous,upper_overflow"
             + (",out_of_range,limit_root" if wide else "")]
    for r in report.rows:
        cells = (r.order, None if r.out_of_range else r.limit, r.lower, r.upper,
                 r.lower_vacuous, r.upper_overflow) + ((r.out_of_range, r.root) if wide else ())
        lines.append(",".join(map(_csv_cell, cells)))
    return "\n".join(lines) + "\n"


def _radius_payload(report: RadiusBoundsReport) -> dict:
    rows = []
    for row in report.rows:
        rows.append(
            {
                "s": row.s,
                "n": row.n,
                "lower": row.lower,
                "lower_vacuous": row.lower_vacuous,
                "upper": None if row.upper_overflow else row.upper,
                "upper_overflow": row.upper_overflow,
                "upper_companion": row.upper_companion,
            }
        )
    return {
        "orders": rows,
        "sdp": report.sdp._asdict(),
        "asymptotic_root": report.asymptotic_root,
        "notes": list(report.notes),
    }


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_moments(args: argparse.Namespace, argv: list) -> int:
    from .reports import moment_table
    from .serialize import dumps_json, run_manifest
    from .sigma_model import parse_sigma_spec

    spec = parse_sigma_spec(args.sigma)
    s_max = args.max_order // 2
    report = moment_table(spec, s_max, n=args.n, lambda_tol=args.lambda_tol)
    manifest = run_manifest("moments", argv, args.sigma, None)
    if args.format == "json":
        payload = {
            "manifest": manifest,
            "moments": _moment_rows_payload(report),
            "notes": list(report.notes),
        }
        _write(args.out, dumps_json(payload))
    else:
        _write(args.out, _moment_csv(report))
    return 0


def cmd_simulate(args: argparse.Namespace, argv: list) -> int:
    from .ensemble import EnsembleConfig, _histogram, monte_carlo
    from .serialize import dumps_json, histogram_csv, run_manifest
    from .sigma_model import parse_sigma_spec

    spec = parse_sigma_spec(args.sigma)
    config = EnsembleConfig(
        n=args.n, sigma=spec, distribution=args.dist, K=args.K, seed=args.seed
    )
    mc = monte_carlo(config, trials=args.trials, k_max=args.max_order)
    counts, edges = _histogram(mc.pooled_eigenvalues, args.bins)
    manifest = run_manifest("simulate", argv, args.sigma, args.seed)
    manifest["threads"] = {"workers": mc.workers,
                           "cpus": None if mc.cpus is None else list(mc.cpus),
                           **{name: os.environ.get(name) for name in _BLAS_THREAD_VARS}}
    moments_payload = []
    for k in range(1, args.max_order + 1):
        moments_payload.append(
            {
                "order": k,
                "empirical_mean": float(mc.moment_means[k - 1]),
                "empirical_stderr": (
                    float(mc.moment_stderrs[k - 1]) if mc.moment_stderrs is not None else None
                ),
            }
        )
    payload = {
        "manifest": manifest,
        "moments": moments_payload,
        "radius": {
            "mean": mc.radius_mean,
            "stderr": mc.radius_stderr,
            "min": mc.radius_min,
            "max": mc.radius_max,
        },
        "trials": args.trials,
        "n": args.n,
        "distribution": args.dist,
    }
    os.makedirs(args.out, exist_ok=True)
    _write(os.path.join(args.out, "report.json"), dumps_json(payload))
    _write(os.path.join(args.out, "esd.csv"), histogram_csv(edges, counts))
    return 0


def cmd_radius(args: argparse.Namespace, argv: list) -> int:
    from .reports import radius_table
    from .serialize import dumps_json, run_manifest
    from .sigma_model import parse_sigma_spec

    spec = parse_sigma_spec(args.sigma)
    report = radius_table(
        spec,
        orders=args.orders,
        n=args.n,
        s_bar=args.sbar,
        lambda_tol=args.lambda_tol,
        sdp_tol=args.tol,
    )
    manifest = run_manifest("radius", argv, args.sigma, None)
    payload = {"manifest": manifest, "radius": _radius_payload(report)}
    _write(args.out, dumps_json(payload))
    return 0


def cmd_validate(args: argparse.Namespace, argv: list) -> int:
    from . import validation

    checks = validation.run_all(deep=args.deep)
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"{name}: {status} ({detail})")
        if not passed:
            failed += 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
        return 1
    return 0


def _orders(text: str) -> tuple:
    """The s values of ``--orders``, comma-separated, each in 1.._MAX_ORDER."""
    if not text:
        return ()
    try:
        orders = tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--orders must be comma-separated integers, got {text!r}") from None
    if not orders or any(not 1 <= s <= _MAX_ORDER for s in orders):
        raise argparse.ArgumentTypeError(f"--orders entries must be in 1..{_MAX_ORDER}, got {text!r}")
    return orders


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rank1-spectra",
        description="Spectral moments and radius bounds for rank-one variance profiles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_m = sub.add_parser("moments", help="limiting moments and finite-n bounds")
    p_m.add_argument("--sigma", required=True, help="const:<v> | expr:<e> | file:<path>")
    p_m.add_argument("--max-order", type=int, required=True,
                     help=f"largest even order 2S (at most {2 * _MAX_ORDER})")
    p_m.add_argument("--n", type=int, default=None, help="dimension for finite-n bounds")
    p_m.add_argument("--out", required=True)
    p_m.add_argument("--format", choices=("json", "csv"), default="json")
    p_m.add_argument("--lambda-tol", type=float, default=_DEFAULT_LAMBDA_TOL, help=_LAMBDA_TOL_HELP)

    p_s = sub.add_parser("simulate", help="Monte Carlo campaign")
    p_s.add_argument("--sigma", required=True)
    p_s.add_argument("--n", type=int, required=True)
    p_s.add_argument("--trials", type=int, required=True)
    p_s.add_argument("--dist", choices=_DISTRIBUTIONS, default="rademacher")
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--bins", type=int, default=100)
    p_s.add_argument("--max-order", type=int, default=10)
    p_s.add_argument("--K", type=float, default=None)
    p_s.add_argument("--out", required=True, help="output directory")

    p_r = sub.add_parser("radius", help="radius bounds and the Hankel-pencil SDP")
    p_r.add_argument("--sigma", required=True)
    p_r.add_argument("--orders", type=_orders, default=(), help="comma-separated s values")
    p_r.add_argument("--n", type=int, default=None)
    p_r.add_argument("--sbar", type=int, default=_DEFAULT_SBAR,
                     help=f"SDP truncation s_bar (at most {_MAX_SBAR})")
    p_r.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                     help="certified half-width of beta, absolute: beta scales as sigma^2")
    p_r.add_argument("--out", required=True)
    p_r.add_argument("--lambda-tol", type=float, default=_DEFAULT_LAMBDA_TOL, help=_LAMBDA_TOL_HELP)

    p_v = sub.add_parser("validate", help="run the self-validation battery")
    p_v.add_argument("--deep", action="store_true",
                     help="extend the enumerations to s=11, the finite-n cases to 50000 walks "
                          "and the walk oracle's sign patterns to n=4, and double the SDP's "
                          "random measures")

    return parser


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    for name in ("tol", "lambda_tol", "K"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            parser.error(f"--{name.replace('_', '-')} must be finite and > 0, got {value}")
    if args.command == "moments":
        if not 2 <= args.max_order <= 2 * _MAX_ORDER or args.max_order % 2:
            parser.error(f"--max-order must be even, in 2..{2 * _MAX_ORDER}, got {args.max_order}")
        if args.n is not None and args.n < 2:
            parser.error(f"--n must be >= 2, got {args.n}")
    elif args.command == "simulate":
        if args.trials < 1:
            parser.error(f"--trials must be >= 1, got {args.trials}")
        if args.n < 1:
            parser.error(f"--n must be >= 1, got {args.n}")
        if args.bins < 1:
            parser.error(f"--bins must be >= 1, got {args.bins}")
        if args.max_order < 1:
            parser.error(f"--max-order must be >= 1, got {args.max_order}")
        if not 0 <= args.seed < 2 ** 64:
            parser.error(f"--seed must be in 0..{2 ** 64 - 1}, got {args.seed}")
    elif args.command == "radius":
        if not 1 <= args.sbar <= _MAX_SBAR:
            parser.error(f"--sbar must be in 1..{_MAX_SBAR}, got {args.sbar}")
        if args.n is not None and args.n < 1:
            parser.error(f"--n must be >= 1, got {args.n}")
        if args.orders and args.n is None:
            parser.error("--orders needs --n for finite-n bounds")
        if args.orders and max(args.orders) >= args.n:
            parser.error(f"--orders entries must be below --n = {args.n}, got {max(args.orders)}")


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 2 on usage errors
    _validate_args(parser, args)
    from .sigma_model import NoLimitError, SigmaDomainError, SpecSyntaxError

    handlers = {
        "moments": cmd_moments,
        "simulate": cmd_simulate,
        "radius": cmd_radius,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args, argv)
    except (SpecSyntaxError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (SigmaDomainError, NoLimitError, ValueError, ArithmeticError, OverflowError,
            RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return NUMERIC_EXIT


def run() -> int:
    """The process entry point, of ``python -m rank1_spectra.cli`` and of the
    ``rank1-spectra`` script: ``main``, then ``gc.freeze()``, so that the
    collections the interpreter runs as it exits skip every object still
    alive instead of traversing them all."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
