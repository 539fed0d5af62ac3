"""Limiting averages Lambda_k = lim_n (1/n) S_{n,k} of a sigma spec, in mpf.

Every Lambda_k is one mpf sum of w_j v_j^k over a node set
(`_weighted_power_sums`): a constant is one node of weight 1, and an
explicit sequence, which has no limit, stands in with its first n values,
each distinct value weighted by its count over n.  An expression's nodes
are those of tanh-sinh quadrature (Takahasi-Mori 1974) of its pointwise
limit, Lambda_k = int_{1/N}^1 f(xN, N)^k dx at a huge N.  The same sums at
10^10 N on a coarse level test that the limit exists (1 + log(i) fails at
once), and a panel across which the quadrature stalls, as at a kink, is
halved.  The functions here import mpmath, and those that evaluate an
expression the expression language, when they run.

`reports.lambda_vector` and `validation` import this module when they run,
so a command that needs no mpf average, ``moments --sigma file:`` with its
float64 S_{n,k}/n, never compiles it.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Optional

from .sigma_model import (DEFAULT_DIGITS, LimitingAverages, SigmaDomainError, SigmaSpec,
                          _check_length, _power_sums)

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
    """|estimate - midpoint sum| per k on the panel [p, q] when, for some k,
    it exceeds 20 times the midpoint rule's change from _CELLS / 2 cells
    plus 1e-12 Lambda_k: a feature a few cells wide that the tanh-sinh
    nodes stepped over.  None otherwise, on panels under 4 cells, and where
    the panel's midpoint sums leave float64's range: the `_power_sums` of
    its cells, correctly rounded, over the cell count, a power of two."""
    from mpmath import mpf

    lo, hi = round(float(p) * _CELLS), round(float(q) * _CELLS)  # panels are dyadic
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

    from .expression import _eval_node

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
    k + 1 units, so a power costs one integer product and shift: by v's
    mantissa, left-aligned to the group's widest (W bits, 53 for floats
    and at most prec for mpf), and by W bits.  As P > W, that is the
    integer that v in units of 2^(e - P) and a shift by P would give, for
    a shorter product.  The group's heaviest node (w, v), the largest v
    among equal weights, gives a term of at least 2^(f - 1) v^k:
    P = prec + 12 + bits(n k_max) + k_max log2(2^e / v) keeps the group's
    sum to the bound.

    A group's sum more than guard + 2 bits below the largest, guard =
    prec + 12 + bits(n k_max), is dropped before the sums are aligned.  It
    is below 2^-(guard + 1) of the total, less than the error that its
    nodes, at least one each, would add to a kept group, so the bound
    holds; the groups number at most n, so the share dropped is below
    2^-(prec + 12).  Aligned, it would cost an integer as long as the
    binades that v^k spans: millions of bits for a steep profile.
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
        W = max(m.bit_length() for _, _, (m, _) in nodes)
        T = [m << P >> (f - x) for m, x in (_binary(w) for w, _, _ in nodes)]
        V = [m << W >> (e - x) for _, _, (m, x) in nodes]
        for k in range(k_max):
            T = [t * x >> W for t, x in zip(T, V)]
            parts[k].append((sum(T), f + e * (k + 1) - P))
    sums = []
    for terms in parts:
        top = max(x + t.bit_length() for t, x in terms)
        terms = [(t, x) for t, x in terms if x + t.bit_length() >= top - guard - 2]
        low = min(x for _, x in terms)
        sums.append(mpf((sum(t << (x - low) for t, x in terms), low)))
    return sums


def _binary(x) -> tuple:
    """(man, exp) with x = man 2^exp, for a positive int, float or mpf x."""
    if isinstance(x, float):
        m, e = math.frexp(x)
        return int(math.ldexp(m, 53)), e - 53
    return (x, 0) if isinstance(x, int) else x.man_exp
