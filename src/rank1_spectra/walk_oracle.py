"""Brute-force expected spectral moments at tiny n by closed-walk enumeration.

The k-th expected moment of the scaled ensemble equals
n^{-(k/2+1)} * sum over all n^k closed index walks of the product of entry
moments over the walk's distinct undirected edges.  Enumerating every walk is
exponential but exact, which makes this the ground truth the moment formulas
and the Monte Carlo pipeline are checked against.

One depth-first pass serves both entry laws, rademacher (a = +-sqrt(sigma_i
sigma_j)) and uniform (a = sqrt(3 sigma_i sigma_j) * U[-1,1]): a walk's
edge multiplicities do not depend on the law, and each surviving walk adds
one term to each law's sum.  Both laws are symmetric, so an edge of odd
multiplicity has entry moment 0 and kills the walk's term.  Each step
changes the parity of one edge, so a prefix whose odd-multiplicity edges
outnumber the steps left can close no walk with a nonzero term, and the pass
drops it.  A law with nonzero odd moments would need those walks too.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

__all__ = ["exact_expected_moment", "WALK_GUARD"]

WALK_GUARD = 10_000_000  # largest n^k the full enumeration will attempt


def exact_expected_moment(
    n: int,
    k: int,
    values: Sequence[float],
    distinct_vertices: Optional[int] = None,
) -> Dict[str, float]:
    """E{(1/n) trace(A^k)} for the n x n scaled ensemble with sigma =
    ``values[:n]``, by full enumeration, as {"rademacher": .., "uniform": ..}.

    Multiplies entry moments over each walk's distinct undirected edges
    (diagonal loops included: the ensemble has random diagonal entries), in
    the order the edges first appear, and normalizes by n^{k/2+1}.  An edge
    {i, j} taken 2h times contributes (sigma_i sigma_j)^h for rademacher and
    3^h (sigma_i sigma_j)^h / (2h + 1) for uniform.  With
    ``distinct_vertices`` set, only walks visiting exactly that many distinct
    indices contribute; this exposes the per-p decomposition of the moment.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if n ** k > WALK_GUARD:
        raise ValueError(f"n^k = {n ** k} exceeds enumeration guard {WALK_GUARD}")
    if len(values) < n:
        raise ValueError(f"need {n} sigma values, got {len(values)}")

    mult = [0] * (n * n)  # multiplicity of edge {a, b}, a <= b, at a * n + b
    first: list = []  # the walk's edges in order of first appearance
    visits = [0] * n  # how often each index is among the walk's placed vertices
    terms: tuple = ([], [])  # the rademacher and the uniform walks' terms

    def close() -> None:
        if distinct_vertices is not None and n - visits.count(0) != distinct_vertices:
            return
        for law, law_terms in enumerate(terms):
            w = 1.0
            for e in first:
                m = mult[e]
                half = m // 2
                base = (values[e // n] * values[e % n]) ** half
                w *= 3.0 ** half * base / (m + 1) if law else base
            law_terms.append(w)

    def step(pos: int, prev: int, odd: int) -> None:
        # the walk's vertices 0..pos-1 are placed; take the edge to vertex pos
        # (vertex k is vertex 0 again), then drop the prefix unless the k - pos
        # steps left can even out its odd edges
        for v in range(n) if pos < k else (start,):
            e = prev * n + v if prev <= v else v * n + prev
            m = mult[e] = mult[e] + 1
            if m == 1:
                first.append(e)
            odd_now = odd + 1 if m % 2 else odd - 1
            if odd_now <= k - pos:
                if pos == k:
                    close()
                else:
                    visits[v] += 1
                    step(pos + 1, v, odd_now)
                    visits[v] -= 1
            mult[e] = m - 1
            if m == 1:
                first.pop()

    for start in range(n):
        visits[start] = 1
        step(1, start, 0)
        visits[start] = 0
    return {law: math.fsum(law_terms) / float(n) ** (k / 2 + 1)
            for law, law_terms in zip(("rademacher", "uniform"), terms)}
