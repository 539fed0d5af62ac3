"""Variance-profile sequences: parsing, evaluation, partial sums and limiting averages.

A profile is a positive sequence sigma_1, sigma_2, ... described either by a
constant, by an arithmetic expression in the index ``i`` and the dimension
``n``, or by an explicit list of values.  The quantities computed here feed
everything downstream: the partial sums S_{n,k} = sum_i sigma_i^k, the
extremes sigma_max / sigma_min, and the limiting averages
Lambda_k = lim_n (1/n) S_{n,k}.

Every Lambda_k is one mpf sum of w_j v_j^k over a node set
(`_weighted_power_sums`): a constant is one node of weight 1, and an
explicit sequence, which has no limit, stands in with its first n values,
each distinct value weighted by its count over n.  An expression's nodes
are those of tanh-sinh quadrature (Takahasi-Mori 1974) of its pointwise
limit, Lambda_k = int_{1/N}^1 f(xN, N)^k dx at a huge N.  The same sums at
10^10 N on a coarse level test that the limit exists (1 + log(i) fails at
once), and a panel across which the quadrature stalls, as at a kink, is
halved.  mpmath is imported only when limiting averages are requested.

No numpy loads here.  Float sigma at n points (`sigma_values`) and the
float midpoint rule that checks the quadrature run one evaluator, `_Floats`
on the C library's math, so their values do not depend on the CPU's vector
unit, and `sigma_stats` takes each partial sum with `math.fsum`, correctly
rounded on every platform.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from collections import Counter, defaultdict
from itertools import repeat
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence, Union

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
]

DEFAULT_DIGITS = 30  # working precision of Lambda_k unless the caller asks for more
# tanh-sinh levels (step 2^-level): the limit test runs on the nodes of
# _LIMIT_LEVEL, and a panel stops at _MAX_LEVEL; no panel is split after
# _MAX_NODES evaluations of sigma
_LIMIT_LEVEL, _MAX_LEVEL, _MAX_NODES = 2, 8, 2 ** 14
_CELLS = 2 ** 12  # cells of the float midpoint rule that checks every settled panel


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
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


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


def _odd(b: float) -> bool:
    return b.is_integer() and b % 2 == 1


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    if x > 0:
        return math.log(x)
    return -math.inf if x == 0 else math.nan


def _power(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except ValueError:  # a negative base to a fraction, or 0 to a power < 0
        if a != 0:
            return math.nan
        return math.copysign(math.inf, a) if _odd(b) else math.inf
    except OverflowError:
        return math.copysign(math.inf, a) if _odd(b) else math.inf


def _divide(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _elementwise(fast, careful):
    """``fast`` over the elements of its `_Floats` arguments (a float
    argument is every element's), or ``careful`` where ``fast`` raises."""
    def apply(*args):
        if not any(isinstance(a, _Floats) for a in args):
            return careful(*args)
        try:
            return _Floats(map(fast, *(a if isinstance(a, _Floats) else repeat(a) for a in args)))
        except (ArithmeticError, ValueError):
            return _Floats(map(careful, *(a if isinstance(a, _Floats) else repeat(a)
                                          for a in args)))
    return apply


class _Floats(tuple):
    """Floats with numpy's elementwise arithmetic: each operation maps over
    all of them in C, some twenty times faster than `_eval_node` called
    point by point.  Where math raises or Python leaves the reals the
    values are numpy's: NaN off the reals and for 0/0, a signed inf on
    overflow or division by zero, and -inf for log(0)."""

    __slots__ = ()
    __add__ = __radd__ = _elementwise(operator.add, operator.add)
    __mul__ = __rmul__ = _elementwise(operator.mul, operator.mul)
    __sub__ = _sub = _elementwise(operator.sub, operator.sub)
    __truediv__ = _div = _elementwise(operator.truediv, _divide)

    def __rsub__(self, a):
        return _Floats._sub(a, self)

    def __rtruediv__(self, a):
        return _Floats._div(a, self)

    def __neg__(self):
        return _Floats(map(operator.neg, self))


# the `_eval_node` namespace of `_Floats`
_FLOAT = SimpleNamespace(exp=_elementwise(math.exp, _exp), log=_elementwise(math.log, _log),
                         power=_elementwise(math.pow, _power))


def _eval_node(node: Node, i, n, ns):
    """Evaluate a parsed expression at index i and dimension n.  ``ns``
    supplies exp, log and power: `_FLOAT` for `_Floats`, mpmath's ``mp`` for
    one mpf point (numpy, on arrays, serves as well)."""
    op = node[0]
    if op == "num":
        return node[1]
    if op == "i":
        return i
    if op == "n":
        return n
    if op == "neg":
        return -_eval_node(node[1], i, n, ns)
    if op in ("exp", "log"):
        return getattr(ns, op)(_eval_node(node[1], i, n, ns))
    a = _eval_node(node[1], i, n, ns)
    b = _eval_node(node[2], i, n, ns)
    if op == "^":
        return ns.power(a, b)
    return _BINARY[op](a, b)


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
    """Lambda_1..Lambda_k as mpf numbers good to about ``digits`` digits.

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

    An expression runs on `_Floats`, in the arithmetic of `_midpoint_grid`;
    a constant or an explicit sequence is its payload.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_length(spec, n)
    if spec.kind == "constant":
        values = (spec.payload,) * n
    elif spec.kind == "explicit":
        values = spec.payload[:n]
    else:
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

    Each v_i^k is the float product of v_i^(k-1) and v_i, and S_{n,k} their
    `math.fsum`, correctly rounded; an overflow to non-finite raises.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    v = [float(x) for x in values]
    if not v:
        raise ValueError("values must be a non-empty vector")
    _check_positive(v)
    sums, power = [], v
    for k in range(1, k_max + 1):
        if k > 1:
            power = list(map(operator.mul, power, v))
        try:
            total = math.fsum(power)
        except OverflowError:  # a partial sum of finite terms left the float range
            total = math.inf
        if not math.isfinite(total):
            raise OverflowError(f"partial sum S_{{n,{k}}} overflowed")
        sums.append(total)
    return SigmaStats(n=len(v), partial_sums=tuple(sums), sigma_max=max(v), sigma_min=min(v))


def limiting_averages(
    spec: SigmaSpec, k_max: int, tol: float, digits: int = DEFAULT_DIGITS,
    n: Optional[int] = None,
) -> LimitingAverages:
    """Lambda_k = lim (1/n) S_{n,k} for k = 1..k_max, to about ``digits`` digits.

    A constant c gives c^k, an explicit sequence S_{n,k}/n of its first
    ``n`` values (all by default), an expression f the tanh-sinh integrals
    int_{1/N}^1 f(xN, N)^k dx at N = 10^(digits + 5).
    At _LIMIT_LEVEL the same sums at 10^10 N must agree to the relative
    ``tol`` (the limit test).  Then the panel with the largest error,
    stalled (`_settle`) or at odds with a float midpoint rule on its cells
    of `_midpoint_grid` (`_unseen`), is halved until the errors sum to
    10^-digits of Lambda_k or _MAX_NODES points are spent; ``digits`` of the
    result is what they leave and ``converged`` whether that meets ``tol``.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    from mpmath import mp, mpf

    with mp.workdps(digits):
        if spec.kind != "expression":
            # a constant is its value at n = 1, an explicit sequence its first n values
            if spec.kind == "constant":
                size, values = 1, (spec.payload,)
            else:
                size = len(spec.payload) if n is None else n
                if size < 1:
                    raise ValueError(f"n must be >= 1, got {size}")
                _check_length(spec, size)
                values = spec.payload[:size]
            nodes = Counter(values)
            bad = next((v for v in nodes if not 0 < v < math.inf), None)
            if bad is not None:
                raise SigmaDomainError(f"sigma value {bad} is not finite and positive")
            sums = _weighted_power_sums(list(nodes.values()), list(nodes), k_max)
            return LimitingAverages(tuple(s / size for s in sums), (True,) * k_max,
                                    0, 0, len(nodes), digits)
        tree, N = spec.payload, mpf(10) ** (digits + 5)
        t_max = mp.asinh(mp.log(N * 10 ** 10) / mp.pi)
        near = _levels(tree, k_max, N, 1 / N, mpf(1), t_max)
        far = _levels(tree, k_max, N * 10 ** 10, 1 / (N * 10 ** 10), mpf(1), t_max)
        history, nodes = [], 0
        for _ in range(_LIMIT_LEVEL + 1):
            (n, estimate), (n_far, far_estimate) = next(near), next(far)
            history.append(estimate)
            nodes += n + n_far
        converged = tuple(abs(e - f) <= tol * e for e, f in zip(estimate, far_estimate))
        if not all(converged):
            return LimitingAverages(tuple(estimate), converged, _LIMIT_LEVEL, 1, nodes, digits)
        scale, floor = estimate, mpf(10) ** -digits
        grid = _midpoint_grid(tree, float(N))
        settled, stalled, panels, level = [0] * k_max, [], 0, _LIMIT_LEVEL
        todo = [(1 / N, mpf(1), near, history)]
        while todo:
            for p, q, levels, history in todo:
                estimate, error, n = _settle(levels, history, digits)
                panels, nodes, level = panels + 1, nodes + n, max(level, len(history) - 1)
                if error is None:
                    error = _unseen(grid, p, q, estimate, scale)
                if error is None:
                    settled = [s + e for s, e in zip(settled, estimate)]
                else:
                    worst = max(e / s for e, s in zip(error, scale))
                    heapq.heappush(stalled, (-worst, panels, p, q, estimate, error))
            error = [sum(panel[5][k] for panel in stalled) for k in range(k_max)]
            todo = []
            if stalled and nodes < _MAX_NODES and any(e > floor * s for e, s in zip(error, scale)):
                p, q = heapq.heappop(stalled)[2:4]
                todo = [(a, b, _levels(tree, k_max, N, a, b, t_max), [])
                        for a, b in ((p, (p + q) / 2), ((p + q) / 2, q))]
        values = [s + sum(panel[4][k] for panel in stalled) for k, s in enumerate(settled)]
        converged = tuple(e <= max(tol, floor) * v for e, v in zip(error, values))
        relative = max(e / v for e, v in zip(error, values))
        if relative > floor:
            digits = max(0, int(-mp.log10(relative)))
    return LimitingAverages(tuple(values), converged, level, panels, nodes, digits)


def _midpoint_grid(tree: Node, N: float) -> tuple:
    """f(xN, N) at the midpoints x of _CELLS and of _CELLS / 2 equal cells
    of [0, 1], as two float64 sequences for `_unseen`.  A point where sigma
    is negative raises; one that underflows to 0 is fine."""
    grid = []
    for cells in (_CELLS, _CELLS // 2):
        x = [(j + 0.5) / cells for j in range(cells)]
        f = _eval_node(tree, _Floats(xj * N for xj in x), N, _FLOAT)
        f = f if isinstance(f, _Floats) else [f] * cells
        negative = next((xj for xj, fj in zip(x, f) if fj < 0), None)
        if negative is not None:
            raise SigmaDomainError(f"sigma has no finite positive value at i/n = {negative:.8g}")
        grid.append(f)
    return tuple(grid)


def _panel_sums(f: Sequence[float], k_max: int, cells: int) -> list:
    """The midpoint sums of f^k / cells over the cells of ``f``, k = 1..k_max.
    Each f^k is the product of f^(k-1) and f; its terms are summed left to
    right, on every Python, and the sum is divided once by ``cells``.
    ``cells`` must be a power of two: dividing by it is then exact, so the
    result is the sum of the quotients f^k / cells bit for bit, unless a
    term or partial sum is subnormal or overflows."""
    sums, power = [], f
    for k in range(k_max):
        if k:
            power = list(map(operator.mul, power, f))
        sums.append(functools.reduce(operator.add, power, 0.0) / cells)
    return sums


def _unseen(grid: tuple, p, q, estimate: list, scale: list) -> Optional[list]:
    """|estimate - midpoint sum| per k on the panel [p, q] when, for some k,
    it exceeds 20 times the midpoint rule's change from _CELLS / 2 cells
    plus 1e-12 Lambda_k: a feature a few cells wide that the tanh-sinh
    nodes stepped over.  None otherwise, on panels under 4 cells, and where
    the panel's midpoint sums leave float64's range."""
    from mpmath import mpf

    lo, hi = round(float(p) * _CELLS), round(float(q) * _CELLS)  # panels are dyadic
    if hi - lo < 4:
        return None
    fine = _panel_sums(grid[0][lo:hi], len(estimate), _CELLS)
    coarse = _panel_sums(grid[1][lo // 2:hi // 2], len(estimate), _CELLS // 2)
    # f >= 0, so the sums are finite only if every power is
    if not all(map(math.isfinite, fine + coarse)):
        return None
    gaps = [abs(float(e) - f) for e, f in zip(estimate, fine)]
    if all(g <= 20 * abs(f - c) + 1e-12 * float(s)
           for g, f, c, s in zip(gaps, fine, coarse, scale)):
        return None
    return [mpf(g) for g in gaps]


def _levels(tree: Node, k_max: int, N, p, q, t_max):
    """Yield (nodes, tanh-sinh estimates of int_p^q f(xN, N)^k dx, k = 1..k_max)
    at steps 2^-level, level = 0.._MAX_LEVEL, over |t| <= t_max; each level
    adds the midpoints of the last, a centred grid of twice its step."""
    from mpmath import mpf

    sums = [0] * k_max
    for level in range(_MAX_LEVEL + 1):
        h = mpf(2) ** -level
        step, n = (h, 2 * int(t_max) + 1) if level == 0 else (2 * h, 2 * int((t_max / h + 1) / 2))
        sums = [s + d for s, d in zip(sums, _ladder_averages(tree, k_max, N, p, q, step, n))]
        yield n, [s * h for s in sums]


def _settle(levels, history: list, digits: int) -> tuple:
    """Run a panel's `_levels` until they settle or stall: (estimate, error, nodes).

    With d_L the largest relative change from level L-1 to L, the panel
    settles (error None) once d_L <= 10^-(digits // 2 + 2) and
    d_L <= d_{L-1}^1.5, the double-exponential regime where the error is
    about d_L^2, or once d_L is down to rounding.  Past _LIMIT_LEVEL it
    stalls where d_L exceeds both, as tanh-sinh does across a kink, or at
    _MAX_LEVEL; its error is then ten times the last changes.  ``history``
    holds the levels run so far.
    """
    from mpmath import mpf

    target, nodes, settled = mpf(10) ** -(digits // 2 + 2), 0, False
    for n, estimate in levels:
        nodes += n
        history.append(estimate)
        if len(history) > 2:
            new, old = (max(abs(x - y) / x for x, y in zip(history[-j], history[-j - 1]))
                        for j in (1, 2))
            settled = new <= min(target, old ** 1.5) or new <= mpf(10) ** (2 - digits)
            if settled or (new > max(target, old ** 1.5) and len(history) > _LIMIT_LEVEL + 1):
                break
    error = None if settled else [10 * abs(x - y) for x, y in zip(history[-1], history[-2])]
    return history[-1], error, nodes


@functools.lru_cache(maxsize=64)
def _abscissae(step, n: int, prec: int) -> tuple:
    """(phi, dphi/dt) at t_j = (j - (n - 1) / 2) step, j < n, at mp precision
    ``prec``, for phi(t) = 1 / (1 + e), e = exp(-pi sinh t).  The grid is
    symmetric, phi(-t) = e phi(t) = 1 - phi(t) keeps either end of (0, 1)
    free of cancellation, and dphi/dt is even, so t >= 0 gives every node."""
    from mpmath import mp

    nodes = []
    for j in range(n // 2, n):
        et = mp.exp((2 * j - n + 1) * step / 2)
        e = mp.exp(-mp.pi * (et - 1 / et) / 2)
        phi = 1 / (1 + e)
        dphi = mp.pi * (et + 1 / et) / 2 * e * phi * phi
        nodes.append((phi, dphi))
        if 2 * j > n - 1:
            nodes.append((e * phi, dphi))
    return tuple(nodes)


def _ladder_averages(tree: Node, k_max: int, N, p, q, step, n: int) -> list:
    """sum_j w_j f(x_j N, N)^k, k = 1..k_max, over the n nodes of `_abscissae`
    on the panel [p, q]: x = p + (q - p) phi(t) and w = (q - p) dphi/dt."""
    from mpmath import mp, mpf

    weights, values, width = [], [], q - p
    for phi, dphi in _abscissae(step, n, mp.prec):
        weights.append(width * dphi)
        i = (p + width * phi) * N
        try:
            v = mpf(_eval_node(tree, i, N, mp))  # a complex value raises TypeError
        except (ArithmeticError, TypeError):
            v = mpf(0)
        if not (mp.isfinite(v) and v > 0):
            raise SigmaDomainError(
                f"sigma has no finite positive value at i/n = {mp.nstr(i / N, 8)}"
            )
        values.append(v)
    return _weighted_power_sums(weights, values, k_max)


def _weighted_power_sums(weights: list, values: list, k_max: int) -> list:
    """sum_j w_j v_j^k for k = 1..k_max over positive weights and values
    (ints, floats or mpf), each within 2^-(prec + 10) of the exact sum
    before its final rounding to the mp precision ``prec``.

    In a group of the terms whose v lie in [2^(e-1), 2^e) and w below 2^f,
    w v^k is an integer T in units of 2^(f + ek - P), short by at most
    k + 1 units, so a power costs one integer product and shift.  The
    group's heaviest node (w, v), the largest v among equal weights, gives
    a term of at least 2^(f - 1) v^k: P = prec + 12 + bits(n k_max) +
    k_max log2(2^e / v) keeps the group's sum to the bound.
    """
    from mpmath import mp, mpf

    groups = defaultdict(list)
    for node in zip(weights, values, map(_binary, values)):
        groups[node[2][1] + node[2][0].bit_length()].append(node)
    guard = mp.prec + 12 + (len(values) * k_max).bit_length()
    parts = [[] for _ in range(k_max)]
    for e, nodes in groups.items():
        w, _, (vm, vx) = max(nodes)
        wm, wx = _binary(w)
        f = wx + wm.bit_length()
        P = guard + math.ceil(k_max * (53 - math.log2(vm << 53 >> (e - vx))))
        T = [m << P >> (f - x) for m, x in (_binary(w) for w, _, _ in nodes)]
        V = [m << P >> (e - x) for _, _, (m, x) in nodes]
        for k in range(k_max):
            T = [t * x >> P for t, x in zip(T, V)]
            parts[k].append((sum(T), f + e * (k + 1) - P))
    sums = []
    for terms in parts:
        low = min(x for _, x in terms)
        sums.append(mpf((sum(t << (x - low) for t, x in terms), low)))
    return sums


def _binary(x) -> tuple:
    """(man, exp) with x = man 2^exp, for a positive int, float or mpf x."""
    if isinstance(x, float):
        m, e = math.frexp(x)
        return int(math.ldexp(m, 53)), e - 53
    return (x, 0) if isinstance(x, int) else x.man_exp
