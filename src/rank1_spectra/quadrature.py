"""Limiting averages Lambda_k = lim_n (1/n) S_{n,k} of a sigma spec, in Decimal.

Every Lambda_k is one Decimal sum of w_j v_j^k over a node set, in plain
Decimal products and sums at a few guard digits, rounded once
(`_weighted_power_sums`): a constant is one node of weight 1, and an
explicit sequence, which has no limit, stands in with its first n values,
each distinct value weighted by its count over n.  An expression's nodes
are those of tanh-sinh quadrature (Takahasi-Mori 1974) of its pointwise
limit, Lambda_k = int_{1/N}^1 f(xN, N)^k dx at a huge N.  The same sums at
10^10 N on a coarse level test that the limit exists (1 + log(i) fails at
once), and a panel across which the quadrature stalls, as at a kink, or
which a float midpoint rule on its own cells contradicts, is halved.
Every average is a `decimal.Decimal` of the stdlib's C decimal
module, in the context `sigma_model._context` at the caller's digits and
`sigma_model._GUARD_DIGITS` more; the functions that evaluate an
expression import the expression language when they run.

`reports.lambda_vector` and `validation` import this module when they run,
so a command that needs no arbitrary-precision average, ``moments --sigma
file:`` with its float64 S_{n,k}/n, never compiles it.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from collections import Counter
from decimal import MAX_EMAX, Decimal, Overflow, Underflow, getcontext, localcontext
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .sigma_model import (DEFAULT_DIGITS, LimitingAverages, SigmaDomainError, SigmaSpec,
                          _GUARD_DIGITS, _check_length, _context, _power_sums)

if TYPE_CHECKING:
    from .expression import Node

__all__ = ["limiting_averages"]

# tanh-sinh levels (step 2^-level): the limit test runs on the nodes of
# _LIMIT_LEVEL, and a panel stops at _MAX_LEVEL; no panel is split after
# _MAX_NODES evaluations of sigma
_LIMIT_LEVEL, _MAX_LEVEL, _MAX_NODES = 2, 8, 2 ** 14
_CELLS = 2 ** 12  # cells of the float midpoint rule that checks every settled panel


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
    A power of sigma beyond Decimal's exponent range raises ArithmeticError
    naming k.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    with localcontext(_context(digits + _GUARD_DIGITS)):
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
        tree, N = _decimal_literals(spec.payload), Decimal(10) ** (digits + 5)
        # the nodes reach within about 1/(10^10 N) of 0, the far sums' lower
        # end; t_max sets only their span, so float64 holds it
        t_max = math.asinh(math.log(10) * (digits + 15) / math.pi)
        near = _levels(tree, k_max, N, 1 / N, Decimal(1), t_max)
        far = _levels(tree, k_max, N * 10 ** 10, 1 / (N * 10 ** 10), Decimal(1), t_max)
        history, nodes = [], 0
        for _ in range(_LIMIT_LEVEL + 1):
            (n, estimate), (n_far, far_estimate) = next(near), next(far)
            history.append(estimate)
            nodes += n + n_far
        converged = tuple(abs(e - f) <= Decimal(tol) * e for e, f in zip(estimate, far_estimate))
        if not all(converged):
            return LimitingAverages(tuple(estimate), converged, _LIMIT_LEVEL, 1, nodes, digits)
        scale, floor = estimate, Decimal(10) ** -digits
        grid = _midpoint_grid(spec.payload, float(N))
        settled, stalled, panels, level = [0] * k_max, [], 0, _LIMIT_LEVEL
        todo = [(1 / N, Decimal(1), near, history)]
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
                m = (p + q) / 2
                todo = [(a, b, _levels(tree, k_max, N, a, b, t_max), []) for a, b in ((p, m), (m, q))]
        values = [s + sum(panel[4][k] for panel in stalled) for k, s in enumerate(settled)]
        converged = tuple(e <= max(Decimal(tol), floor) * v for e, v in zip(error, values))
        relative = max(e / v for e, v in zip(error, values))
        if relative > floor:
            digits = max(0, int(-relative.log10()))
    return LimitingAverages(tuple(values), converged, level, panels, nodes, digits)


def _midpoint_grid(tree: Node, N: float) -> tuple:
    """f(xN, N) at the midpoints x of _CELLS and of _CELLS / 2 equal cells
    of [0, 1], as two float64 sequences for `_unseen`.  A point where sigma
    is negative raises; one that underflows to 0 is fine."""
    from .expression import _FLOAT, _eval_node, _Floats

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


def _unseen(grid: tuple, p, q, estimate: list, scale: list) -> Optional[list]:
    """|estimate - midpoint sum| per k for the panel [p, q] where, for some
    k, it exceeds 20 times the midpoint rule's change from _CELLS / 2 cells
    plus 1e-12 Lambda_k, a feature a few cells wide that the tanh-sinh
    nodes stepped over; None otherwise, on panels under 4 cells and where
    the panel's midpoint sums leave float64's range.  The midpoint sums are
    the `_power_sums` of f on the fine cells the dyadic panel covers and on
    the coarse cells they cover, each correctly rounded."""
    lo, hi = round(float(p) * _CELLS), round(float(q) * _CELLS)
    if hi - lo < 4:
        return None
    fine = [s / _CELLS for s in _power_sums(grid[0][lo:hi], len(estimate))]
    coarse = [s / (_CELLS // 2) for s in _power_sums(grid[1][lo // 2:hi // 2], len(estimate))]
    # f >= 0, so the sums are finite only if every power is
    if not all(map(math.isfinite, fine + coarse)):
        return None
    gaps = [abs(float(e) - f) for e, f in zip(estimate, fine)]
    if all(g <= 20 * abs(f - c) + 1e-12 * float(s)
           for g, f, c, s in zip(gaps, fine, coarse, scale)):
        return None
    return [Decimal(g) for g in gaps]


def _levels(tree: Node, k_max: int, N, p, q, t_max: float):
    """Yield (nodes, tanh-sinh estimates of int_p^q f(xN, N)^k dx, k = 1..k_max)
    at steps 2^-level, level = 0.._MAX_LEVEL, over |t| <= t_max; each level
    adds the midpoints of the last, a centred grid of twice its step."""
    sums = [0] * k_max
    for level in range(_MAX_LEVEL + 1):
        h = Decimal(2) ** -level
        step, n = ((h, 2 * int(t_max) + 1) if level == 0
                   else (2 * h, 2 * int((t_max * 2 ** level + 1) / 2)))
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
    target, nodes, settled = Decimal(10) ** -(digits // 2 + 2), 0, False
    for n, estimate in levels:
        nodes += n
        history.append(estimate)
        if len(history) > 2:
            new, old = (max(abs(x - y) / x for x, y in zip(history[-j], history[-j - 1]))
                        for j in (1, 2))
            old = old * old.sqrt()  # d_{L-1}^1.5
            settled = new <= min(target, old) or new <= Decimal(10) ** (2 - digits)
            if settled or (new > max(target, old) and len(history) > _LIMIT_LEVEL + 1):
                break
    error = None if settled else [10 * abs(x - y) for x, y in zip(history[-1], history[-2])]
    return history[-1], error, nodes


@functools.lru_cache(maxsize=64)
def _abscissae(step: Decimal, n: int, digits: int) -> tuple:
    """(phi, dphi/dt) at t_j = (j - (n - 1) / 2) step, j < n, to ``digits``
    digits, for phi(t) = 1 / (1 + e), e = exp(-c sinh t).  c is pi to
    float64's digits: any c > 0 maps the line onto (0, 1) double
    exponentially, and dphi/dt = c cosh(t) e phi^2 takes the same c.  The
    grid is symmetric, phi(-t) = e phi(t) = 1 - phi(t) keeps either end of
    (0, 1) free of cancellation, and dphi/dt is even, so t >= 0 gives every
    node.  exp(t_j) runs along the level as exp(t_first) exp(step)^j, a
    product per node, so each node costs the one exp of e; all at 10 guard
    digits."""
    with localcontext(_context(digits + 10)):
        c = Decimal(math.pi)
        first = n // 2
        et, ratio = ((2 * first - n + 1) * step / 2).exp(), step.exp()
        nodes = []
        for j in range(first, n):
            e = (-c * (et - 1 / et) / 2).exp()
            phi = 1 / (1 + e)
            dphi = c * (et + 1 / et) / 2 * e * phi * phi
            nodes.append((phi, dphi))
            if 2 * j > n - 1:
                nodes.append((e * phi, dphi))
            et *= ratio
    return tuple(nodes)


def _decimal_power(a: Decimal, b: Decimal) -> Decimal:
    """a^b: a half-integral b as sqrt(a)^(2b), the rest by Decimal's power,
    which takes an integral b by products; a negative base to a fraction
    raises InvalidOperation."""
    twice = 2 * b
    if b != b.to_integral_value() and twice == twice.to_integral_value():
        return a.sqrt() ** twice
    return a ** b


# the `expression._eval_node` namespace of one Decimal point
_DECIMAL = SimpleNamespace(exp=Decimal.exp, log=Decimal.ln, power=_decimal_power)


@functools.lru_cache(maxsize=16)
def _decimal_literals(tree: Node) -> Node:
    """The expression tree with each float literal as its exact Decimal,
    after arithmetic among literals alone is done in float64, as on the
    float points: 1/3 is the same float here as in the midpoint grid and in
    sigma at n.  Literal arithmetic that raises is left to the nodes."""
    from .expression import _BINARY

    if tree[0] in ("i", "n"):
        return tree
    if tree[0] == "num":
        return ("num", Decimal(tree[1]))
    kids = tuple(map(_decimal_literals, tree[1:]))
    fold = {**_BINARY, "neg": operator.neg}.get(tree[0])
    if fold and all(kid[0] == "num" for kid in kids):
        try:
            return ("num", Decimal(fold(*(float(kid[1]) for kid in kids))))
        except ArithmeticError:
            pass
    return (tree[0], *kids)


def _ladder_averages(tree: Node, k_max: int, N, p, q, step, n: int) -> list:
    """sum_j w_j f(x_j N, N)^k, k = 1..k_max, over the n nodes of `_abscissae`
    on the panel [p, q]: x = p + (q - p) phi(t) and w = (q - p) dphi/dt.
    ``tree`` holds Decimal literals (`_decimal_literals`)."""
    from .expression import _eval_node

    weights, values, width = [], [], q - p
    for phi, dphi in _abscissae(step, n, getcontext().prec):
        weights.append(width * dphi)
        i = (p + width * phi) * N
        try:
            v = _eval_node(tree, i, N, _DECIMAL)
        except ArithmeticError:  # the decimal signals: off the reals, 1/0, out of range
            v = Decimal(0)
        if not (v.is_finite() and v > 0):
            raise SigmaDomainError(f"sigma has no finite positive value at i/n = {i / N:.8g}")
        values.append(v)
    return _weighted_power_sums(weights, values, k_max)


def _weighted_power_sums(weights: list, values: list, k_max: int) -> list:
    """sum_j w_j v_j^k, k = 1..k_max, over n positive weights and values
    (ints, floats or Decimals), each the exact sum rounded once to the
    current context's D digits, except within a relative 10^-(D + 10) of a
    rounding boundary.  Each w and v is converted once, and each running
    product w v^k and each sum formed, at W = D + len(str(m)) + 11 digits,
    m = n + 2 k_max: a sum takes at most m roundings of relative
    u = 10^(1 - W)/2 (w, v to the k-th power, k products, n - 1 additions
    of positive terms), which leave it within m u (1 + m u) < 10^-(D + 10)
    of the exact sum.  The context spans Decimal's whole exponent range, so
    v^k of a steep profile stays in its exponent; a power or a sum beyond
    even that raises ArithmeticError naming k.
    """
    ctx = getcontext()
    with localcontext(_context(ctx.prec + len(str(len(values) + 2 * k_max)) + 11)) as wide:
        terms, values = ([wide.create_decimal(x) for x in xs] for xs in (weights, values))
        sums = []
        for k in range(1, k_max + 1):
            try:
                terms = list(map(operator.mul, terms, values))
                sums.append(ctx.plus(sum(terms)))
            except (Overflow, Underflow) as exc:
                raise ArithmeticError(f"Lambda_{k}: sigma^{k} leaves Decimal's exponent range "
                                      f"10^-{MAX_EMAX}..10^{MAX_EMAX} ({type(exc).__name__})") from None
    return sums
