"""Variance-profile sequences: the spec, sigma at n points and its partial sums.

A profile is a positive sequence sigma_1, sigma_2, ... described either by a
constant, by an arithmetic expression in the index ``i`` and the dimension
``n``, or by an explicit list of values.  The quantities computed here feed
everything downstream: the partial sums S_{n,k} = sum_i sigma_i^k and the
extremes sigma_max / sigma_min.  The limiting averages
Lambda_k = lim_n (1/n) S_{n,k}, whose record `LimitingAverages` is defined
here, are computed by `quadrature.limiting_averages`.

A process compiles only the sigma code it runs.  The expression language
lives in `expression`, which `parse_sigma_spec`, `sigma_values` and the
quadrature import only for an expression, and the limiting averages in
`quadrature`, which its callers import when they run and which sums
Decimal powers in the stdlib's C ``decimal`` (`_context`, whose Decimals
`_exact_ratio` reads exactly).  So ``moments --sigma file:``, whose
averages are S_{n,k}/n in float64, compiles neither and loads no
``decimal``, and Lambda_k of a constant or a file no expression language.
This module imports `quadrature` only in `__getattr__`, which forwards two
of its names until the benchmark's tracer reads them there.

No numpy loads here.  Float sigma at n points (`sigma_values`) and the
float midpoint rule that checks the quadrature run one evaluator,
`expression._Floats` on the C library's math, so their values do not
depend on the CPU's vector unit.  Both take their float64 power sums with
one kernel, `_power_sums`: each v^k is the float product of v^(k-1) and v,
and each sum a `math.fsum`, correctly rounded on every platform.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

if TYPE_CHECKING:
    from .expression import Node

__all__ = [
    "SigmaSpec",
    "SigmaStats",
    "LimitingAverages",
    "SpecSyntaxError",
    "SigmaDomainError",
    "NoLimitError",
    "parse_sigma_spec",
    "sigma_values",
    "sigma_stats",
]

DEFAULT_DIGITS = 30  # working precision of Lambda_k unless the caller asks for more


class SpecSyntaxError(ValueError):
    """Malformed sigma spec text.  ``position`` is the 1-based column in the full input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at column {position}")
        self.position = position


class SigmaDomainError(ValueError):
    """A sigma value evaluated non-positive or non-finite.  ``index`` is the offending i."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class NoLimitError(ValueError):
    """Raised for a profile whose limiting averages do not settle."""


class SigmaSpec(NamedTuple):
    """Declarative description of a positive sequence {sigma_i}.

    ``kind`` is one of ``constant`` / ``expression`` / ``explicit``; ``payload``
    holds the constant, the parsed expression tree, or the tuple of explicit
    values.  ``text`` is the original spec string (kept for manifests).
    Instances are immutable and evaluation is pure.
    """

    kind: str
    payload: Union[float, Node, tuple]
    text: str


class LimitingAverages(NamedTuple):
    """Lambda_1..Lambda_k as Decimals good to about ``digits`` digits.

    ``levels`` is the quadrature's deepest step halving, ``panels`` the
    intervals it integrated and ``nodes`` the evaluations of sigma (the
    distinct values of a constant or an explicit sequence).  ``converged``
    is a tuple of bools, False where Lambda_k failed the limit test or the
    tolerance, and ``values`` then holds the last estimate.
    """

    values: tuple
    converged: tuple
    levels: int
    panels: int
    nodes: int
    digits: int

    # the benchmark's tracer reads the work under these names
    rungs = property(lambda self: self.levels)
    final_n = property(lambda self: self.nodes)


class SigmaStats(NamedTuple):
    """Partial sums and extremes of a finite sigma vector.

    ``partial_sums[k-1]`` is S_{n,k} for k = 1..k_max.
    """

    n: int
    partial_sums: tuple
    sigma_max: float
    sigma_min: float


def parse_sigma_spec(text: str) -> SigmaSpec:
    """Parse ``const:<float>``, ``expr:<expression>`` or ``file:<path>``.

    The returned spec evaluates deterministically and without side effects;
    ``file:`` payloads are read once, here.  Syntax errors carry the 1-based
    column in the full input string.
    """
    if text.startswith("const:"):
        body = text[len("const:"):]
        try:
            value = float(body)
        except ValueError:
            raise SpecSyntaxError(f"invalid constant {body!r}", len("const:") + 1) from None
        if not math.isfinite(value) or value <= 0:
            raise SigmaDomainError(f"constant sigma must be finite and positive, got {value}")
        return SigmaSpec("constant", value, text)
    if text.startswith("expr:"):
        from .expression import _ExprParser

        body = text[len("expr:"):]
        tree = _ExprParser(body, offset=len("expr:")).parse()
        return SigmaSpec("expression", tree, text)
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh]
        except FileNotFoundError:
            raise SigmaDomainError(f"sigma file not found: {path!r}") from None
        values = []
        for lineno, ln in enumerate(lines, start=1):
            if not ln:
                continue
            try:
                v = float(ln)
            except ValueError:
                raise SigmaDomainError(
                    f"bad value {ln!r} on line {lineno} of {path!r}", index=lineno
                ) from None
            if not math.isfinite(v) or v <= 0:
                raise SigmaDomainError(
                    f"non-positive sigma {v} on line {lineno} of {path!r}", index=lineno
                )
            values.append(v)
        if not values:
            raise SigmaDomainError(f"sigma file {path!r} is empty")
        return SigmaSpec("explicit", tuple(values), text)
    raise SpecSyntaxError(
        "sigma spec must start with 'const:', 'expr:' or 'file:'", 1
    )


def sigma_values(spec: SigmaSpec, n: int) -> tuple:
    """The first n sigma values (i = 1..n) as floats, checking positivity.

    An expression runs on `_Floats`, in the arithmetic of the quadrature's
    `_midpoint_grid`; a constant or an explicit sequence is its payload.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_length(spec, n)
    if spec.kind == "constant":
        values = (spec.payload,) * n
    elif spec.kind == "explicit":
        values = spec.payload[:n]
    else:
        from .expression import _FLOAT, _eval_node, _Floats

        values = _eval_node(spec.payload, _Floats(map(float, range(1, n + 1))), float(n), _FLOAT)
        values = tuple(values) if isinstance(values, _Floats) else (values,) * n
    _check_positive(values)
    return values


def _check_length(spec: SigmaSpec, n: int) -> None:
    if spec.kind == "explicit" and len(spec.payload) < n:
        raise SigmaDomainError(
            f"explicit sigma sequence has {len(spec.payload)} entries, need {n}"
        )


def _check_positive(values: Sequence[float]) -> None:
    """Raise SigmaDomainError at the first of ``values`` (i = 1, 2, ..) that
    is not finite and positive."""
    if min(values) > 0 and math.isfinite(sum(values)):  # a NaN or an inf spoils the sum
        return
    i = next((i for i, v in enumerate(values, start=1) if not 0 < v < math.inf), None)
    if i is not None:
        raise SigmaDomainError(f"sigma evaluated to {values[i - 1]} at i={i}", index=i)


def sigma_stats(values: Sequence[float], k_max: int) -> SigmaStats:
    """Partial sums S_{n,k} for k = 1..k_max plus max/min of the vector.

    S_{n,k} are the `_power_sums` of the values, correctly rounded; an
    overflow to non-finite raises.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    v = [float(x) for x in values]
    if not v:
        raise ValueError("values must be a non-empty vector")
    _check_positive(v)
    sums = _power_sums(v, k_max)
    k = next((k for k, s in enumerate(sums, start=1) if not math.isfinite(s)), None)
    if k is not None:
        raise OverflowError(f"partial sum S_{{n,{k}}} overflowed")
    return SigmaStats(n=len(v), partial_sums=tuple(sums), sigma_max=max(v), sigma_min=min(v))


def _power_sums(values: Sequence[float], k_max: int) -> list:
    """The sums of v^k over the float ``values`` for k = 1..k_max.  Each v^k
    is the float product of v^(k-1) and v, and each sum their `math.fsum`,
    correctly rounded; a sum that leaves the float range is +inf."""
    sums, power = [], values
    for k in range(k_max):
        if k:
            power = list(map(operator.mul, power, values))
        try:
            sums.append(math.fsum(power))
        except OverflowError:  # a partial sum of finite terms left the float range
            sums.append(math.inf)
    return sums


# The digits a layer's decimal context carries over the ``digits`` asked of
# it: a context of D digits has a unit of up to 10^(1 - D), where mpmath at
# D digits holds round((D + 1) log2 10) bits, a unit near 10^-(D + 1); D + 2
# digits keep the unit at most 10^-(D + 1).
_GUARD_DIGITS = 2


def _context(digits: int):
    """The decimal context of the arbitrary-precision layers (Lambda_k, the
    tree series, the pencil) at ``digits`` significant digits; a layer asked
    for D digits opens it at D + _GUARD_DIGITS.  Its exponents span
    MIN_EMIN..MAX_EMAX, about 10^-(10^18)..10^(10^18), which sigma^k leaves
    only at a profile as steep as exp(1e17 i/n) (at k = 24).  Underflow,
    Overflow, InvalidOperation and DivisionByZero raise: no step flushes to
    0 or to an infinity unseen, and `quadrature` names a power that leaves
    the range."""
    import decimal

    return decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                           traps=[decimal.Underflow, decimal.Overflow,
                                  decimal.InvalidOperation, decimal.DivisionByZero])


def _exact_ratio(x) -> tuple:
    """(p, q, t) with the positive Decimal x = p / q 2^t exactly, from its
    coefficient c and exponent t: x = c 10^t = c 5^t 2^t, so q is 1 or
    5^-t.  `as_integer_ratio` would build the longer 10^|t| and reduce the
    ratio by a gcd, which a Lambda_k far from 1 pays for in time."""
    from decimal import Decimal

    _, digits, t = x.as_tuple()
    c = int(Decimal((0, digits, 0)))
    return (c * 5 ** t, 1, t) if t >= 0 else (c, 5 ** -t, t)


def __getattr__(name: str):
    # The benchmark's tracer looks these two names up here, where they were
    # defined; the forward is kept only until it looks them up in
    # `quadrature` (ROADMAP item 1), and is then deleted.
    if name in ("limiting_averages", "_ladder_averages"):
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
