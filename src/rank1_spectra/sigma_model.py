"""Variance-profile sequences: parsing, evaluation, partial sums and limiting averages.

A profile is a positive sequence sigma_1, sigma_2, ... described either by a
constant, by an arithmetic expression in the index ``i`` and the dimension
``n``, or by an explicit list of values.  The quantities computed here feed
everything downstream: the partial sums S_{n,k} = sum_i sigma_i^k, the
extremes sigma_max / sigma_min, and the limiting averages
Lambda_k = lim_n (1/n) S_{n,k}.

The limiting averages come from a doubling ladder n = 10^4, 2*10^4, ... of
Riemann sums (1/n) S_{n,k}, Richardson-extrapolated in powers of 1/n
(Richardson's deferred approach to the limit; Romberg 1955): a handful of
rungs reach the accuracy that the plain sums, whose error falls only like
1/n, would need millions of points for.  The work per call is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

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
    "limiting_averages",
    "growth_diagnostic",
]

# Doubling ladder for Lambda_k: start here, stop after this many doublings
# (final n <= 4.1e7, at most 8.2e7 points evaluated in all).
LADDER_START = 10_000
LADDER_MAX_DOUBLINGS = 12
_CHUNK = 1 << 20  # points per evaluated chunk of a rung; bounds the ladder's memory


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
    """Raised when limiting averages are requested for an explicit (finite) sequence."""


# ---------------------------------------------------------------------------
# expression AST
#
# Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ('^' atom)?
#   atom   := number | 'i' | 'n' | 'exp(' expr ')' | 'log(' expr ')'
#           | '(' expr ')' | '-' atom
# ---------------------------------------------------------------------------

Node = tuple


class _ExprParser:
    """Recursive-descent parser.  ``offset`` shifts reported columns so errors
    point into the full spec string (including the ``expr:`` prefix)."""

    def __init__(self, source: str, offset: int):
        self.src = source
        self.pos = 0
        self.offset = offset

    def fail(self, message: str) -> "SpecSyntaxError":
        return SpecSyntaxError(message, self.offset + self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str, what: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.fail(what)
        self.pos += 1

    def parse(self) -> Node:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise self.fail(f"unexpected character {self.src[self.pos]!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return node
            self.pos += 1
            node = (op, node, self.term())

    def term(self) -> Node:
        node = self.factor()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("*", "/"):
                return node
            self.pos += 1
            node = (op, node, self.factor())

    def factor(self) -> Node:
        node = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            node = ("^", node, self.atom())
        return node

    def atom(self) -> Node:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            raise self.fail("unexpected end of expression")
        if ch == "-":
            self.pos += 1
            return ("neg", self.atom())
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")", "unbalanced parenthesis")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.name()
        raise self.fail(f"unexpected character {ch!r}")

    def number(self) -> Node:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isdigit() or src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos].isdigit():
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' belonged to something else; not a valid exponent
        text = src[start:self.pos]
        try:
            return ("num", float(text))
        except ValueError:
            self.pos = start
            raise self.fail(f"invalid number {text!r}") from None

    def name(self) -> Node:
        start = self.pos
        src = self.src
        while self.pos < len(src) and src[self.pos].isalpha():
            self.pos += 1
        word = src[start:self.pos]
        if word == "i":
            return ("i",)
        if word == "n":
            return ("n",)
        if word in ("exp", "log"):
            self.expect("(", f"expected '(' after {word}")
            node = self.expr()
            self.expect(")", "unbalanced parenthesis")
            return (word, node)
        self.pos = start
        raise self.fail(f"unknown identifier {word!r}")


def _eval_node(node: Node, i: np.ndarray, n: float):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "i":
        return i
    if op == "n":
        return n
    if op == "neg":
        return -_eval_node(node[1], i, n)
    if op == "exp":
        return np.exp(_eval_node(node[1], i, n))
    if op == "log":
        return np.log(_eval_node(node[1], i, n))
    a = _eval_node(node[1], i, n)
    b = _eval_node(node[2], i, n)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        return np.power(a, b)
    raise AssertionError(f"bad node {node!r}")


@dataclass(frozen=True)
class SigmaSpec:
    """Declarative description of a positive sequence {sigma_i}.

    ``kind`` is one of ``constant`` / ``expression`` / ``explicit``; ``payload``
    holds the constant, the parsed expression tree, or the tuple of explicit
    values.  ``text`` is the original spec string (kept for manifests).
    Instances are immutable and evaluation is pure.
    """

    kind: str
    payload: Union[float, Node, tuple]
    text: str

    def evaluate(self, i: np.ndarray, n: int) -> np.ndarray:
        """Evaluate sigma at (possibly non-contiguous) 1-based indices ``i``."""
        if self.kind == "constant":
            return np.full(i.shape, self.payload, dtype=np.float64)
        if self.kind == "explicit":
            values = np.asarray(self.payload, dtype=np.float64)
            if i.size and int(i.max()) > values.size:
                raise SigmaDomainError(
                    f"explicit sigma sequence has {values.size} entries, "
                    f"but index {int(i.max())} was requested",
                    index=int(i.max()),
                )
            return values[np.asarray(i, dtype=np.int64) - 1]
        with np.errstate(all="ignore"):
            out = _eval_node(self.payload, np.asarray(i, dtype=np.float64), float(n))
        return np.broadcast_to(np.asarray(out, dtype=np.float64), i.shape).copy()


@dataclass(frozen=True)
class LimitingAverages:
    """Result of the extrapolated doubling-ladder estimate of Lambda_1..Lambda_k.

    ``values`` is the newest fully extrapolated estimate; ``rungs`` counts the
    doublings done and ``final_n`` is the largest n summed (both 0 for a
    constant spec, which is exact).  ``converged[k-1]`` is False when the
    ladder hit its cap before two successive extrapolated estimates for
    Lambda_k agreed to the relative tolerance; ``values`` then still carries
    the last estimate.
    """

    values: np.ndarray
    converged: np.ndarray
    final_n: int
    rungs: int


@dataclass(frozen=True)
class SigmaStats:
    """Partial sums and extremes of a finite sigma vector.

    ``partial_sums[k-1]`` is S_{n,k} for k = 1..k_max.  ``limiting_averages``
    is attached when the caller also ran the ladder (None otherwise: a bare
    value vector does not determine the limit).
    """

    n: int
    partial_sums: np.ndarray
    sigma_max: float
    sigma_min: float
    limiting_averages: Optional[LimitingAverages] = None


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


def sigma_values(spec: SigmaSpec, n: int) -> np.ndarray:
    """Evaluate the first n sigma values (i = 1..n), checking positivity."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spec.kind == "explicit" and len(spec.payload) < n:
        raise SigmaDomainError(
            f"explicit sigma sequence has {len(spec.payload)} entries, need {n}"
        )
    values = spec.evaluate(np.arange(1, n + 1), n)
    _check_positive(values, first_index=1)
    return values


def _check_positive(values: np.ndarray, first_index: int) -> None:
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        j = int(np.argmax(bad))
        raise SigmaDomainError(
            f"sigma evaluated to {values[j]} at i={first_index + j}",
            index=first_index + j,
        )


def sigma_stats(values: Sequence[float], k_max: int) -> SigmaStats:
    """Partial sums S_{n,k} for k = 1..k_max plus max/min of the vector.

    Sums accumulate in extended precision; an overflow to non-finite raises.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-d vector")
    _check_positive(v, first_index=1)
    sums = np.array(_power_sums(v, k_max))
    if not np.all(np.isfinite(sums)):
        k_bad = int(np.argmax(~np.isfinite(sums))) + 1
        raise OverflowError(f"partial sum S_{{n,{k_bad}}} overflowed")
    return SigmaStats(
        n=v.size,
        partial_sums=sums,
        sigma_max=float(v.max()),
        sigma_min=float(v.min()),
    )


def _power_sums(v: np.ndarray, k_max: int) -> list:
    """sum_i v_i^k for k = 1..k_max, each accumulated in extended precision."""
    sums = []
    p = v.copy()
    for k in range(k_max):
        sums.append(float(np.sum(p, dtype=np.longdouble)))
        if k + 1 < k_max:
            p *= v
    return sums


def _ladder_averages(spec: SigmaSpec, k_max: int, n: int) -> np.ndarray:
    """(1/n) S_{n,k} for k = 1..k_max, evaluated in chunks."""
    chunks = []
    for start in range(1, n + 1, _CHUNK):
        stop = min(start + _CHUNK - 1, n)
        idx = np.arange(start, stop + 1, dtype=np.float64)
        vals = spec.evaluate(idx, n)
        _check_positive(vals, first_index=start)
        chunks.append(_power_sums(vals, k_max))
    return np.array([math.fsum(t) / n for t in zip(*chunks)])


def limiting_averages(spec: SigmaSpec, k_max: int, tol: float) -> LimitingAverages:
    """Estimate Lambda_k = lim (1/n) S_{n,k} on an extrapolated doubling ladder.

    The ladder starts at n = 10^4 and doubles n.  Rung r adds the Riemann
    sums T_0 = (1/n) S_{n,k} and extends the Richardson row over the previous
    rung's row R: T_p = T_{p-1} + (T_{p-1} - R_{p-1}) / (2^p - 1) for
    p = 1..r, removing the error terms in 1/n, 1/n^2, ... one power at a
    time.  Every integer power is removed, not only the even ones of the
    Euler-Maclaurin expansion for specs in i/n: a spec in i alone can carry
    odd powers (1 + 1/(i(i+1)(i+2)) has 1/n^3).  The ladder stops once the
    newest diagonal entry T_r and the previous one R_{r-1} satisfy
    |T_r - R_{r-1}| < tol * |T_r| for every k (relative, so averages far
    from 1 settle too), and returns T_r.  After LADDER_MAX_DOUBLINGS
    doublings it stops anyway, and the flags of the unsettled entries are
    False.  Explicit sequences carry no limit: use S_{n,k}/n from
    `sigma_stats` instead.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if spec.kind == "explicit":
        raise NoLimitError(
            "explicit sigma sequences have no limiting averages; "
            "use sigma_stats(values, k_max).partial_sums / n for the finite-n version"
        )
    if spec.kind == "constant":
        c = float(spec.payload)
        values = np.array([c ** k for k in range(1, k_max + 1)])
        return LimitingAverages(values, np.ones(k_max, dtype=bool), final_n=0, rungs=0)

    n = LADDER_START
    row = [_ladder_averages(spec, k_max, n)]
    for rung in range(1, LADDER_MAX_DOUBLINGS + 1):
        n *= 2
        new = [_ladder_averages(spec, k_max, n)]
        for p, old in enumerate(row, start=1):
            new.append(new[-1] + (new[-1] - old) / (2 ** p - 1))
        converged = np.abs(new[-1] - row[-1]) < tol * np.abs(new[-1])
        row = new
        if converged.all():
            break
    return LimitingAverages(row[-1], converged, final_n=n, rungs=rung)


def growth_diagnostic(spec: SigmaSpec, n_grid: Optional[Sequence[int]] = None) -> dict:
    """Trend report for the growth hypotheses sigma_max = O(log n), sigma_min = Theta(1).

    Evaluates sigma_max / log(n) and sigma_min on a geometric n-grid and
    reports the observed direction.  Finite data cannot decide an asymptotic
    statement, so this is informational only — never a pass/fail.
    """
    if n_grid is None:
        n_grid = [100, 400, 1600, 6400, 25600]
    if spec.kind == "explicit":
        n_avail = len(spec.payload)
        n_grid = [n for n in n_grid if n <= n_avail] or [n_avail]
    rows = []
    for n in n_grid:
        v = sigma_values(spec, n)
        rows.append(
            {
                "n": int(n),
                "sigma_max": float(v.max()),
                "sigma_min": float(v.min()),
                "max_over_log_n": float(v.max() / math.log(n)),
            }
        )

    def trend(xs):
        if all(b <= a * (1 + 1e-9) for a, b in zip(xs, xs[1:])):
            return "nonincreasing"
        if all(b >= a * (1 - 1e-9) for a, b in zip(xs, xs[1:])):
            return "nondecreasing"
        return "mixed"

    return {
        "rows": rows,
        "max_over_log_n_trend": trend([r["max_over_log_n"] for r in rows]),
        "sigma_min_trend": trend([r["sigma_min"] for r in rows]),
    }
