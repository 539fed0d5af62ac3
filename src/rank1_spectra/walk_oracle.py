"""Brute-force expected spectral moments at tiny n by closed-walk enumeration.

The k-th expected moment of the scaled ensemble equals
n^{-(k/2+1)} * sum over all n^k closed index walks of the product of entry
moments over the walk's distinct undirected edges.  Enumerating every walk is
exponential but exact, which makes this the ground truth the moment formulas
and the Monte Carlo pipeline are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "EntryMomentModel",
    "exact_expected_moment",
    "WALK_GUARD",
]

WALK_GUARD = 10_000_000  # largest n^k the full enumeration will attempt


@dataclass(frozen=True)
class EntryMomentModel:
    """Closed-form entry moments E{a_ij^order} for a symmetric zero-mean law.

    Supported distributions: ``rademacher`` (a = +-sqrt(sigma_i sigma_j)) and
    ``uniform`` (a = sqrt(3 sigma_i sigma_j) * U[-1,1]).  Both have zero odd
    moments and even moments that are powers of sigma_i*sigma_j.
    """

    distribution: str
    sigma: tuple

    def __post_init__(self):
        if self.distribution not in ("rademacher", "uniform"):
            raise ValueError(
                f"no closed-form entry moments for {self.distribution!r}; "
                "supported: rademacher, uniform"
            )

    def moment(self, i: int, j: int, order: int) -> float:
        """E{a_ij^order} with 0-based indices i, j."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if order == 0:
            return 1.0
        if order % 2:
            return 0.0
        half = order // 2
        base = (self.sigma[i] * self.sigma[j]) ** half
        if self.distribution == "rademacher":
            return base
        return 3.0 ** half * base / (order + 1)


def _edge_multiplicities(walk: Sequence[int]) -> dict:
    """Undirected edge multiplicities of a closed walk (first vertex repeated last)."""
    edges: dict = {}
    prev = walk[0]
    for v in walk[1:]:
        key = (v, prev) if v < prev else (prev, v)
        edges[key] = edges.get(key, 0) + 1
        prev = v
    return edges


def exact_expected_moment(
    n: int,
    k: int,
    values: Sequence[float],
    model: EntryMomentModel,
    distinct_vertices: Optional[int] = None,
) -> float:
    """E{(1/n) trace(A^k)} for the n x n scaled ensemble, by full enumeration.

    Iterates all n^k closed walks, multiplies entry moments over distinct
    undirected edges (diagonal loops included: the ensemble has random
    diagonal entries) and normalizes by n^{k/2+1}.  With
    ``distinct_vertices`` set, only walks visiting exactly that many distinct
    indices contribute; this exposes the per-p decomposition of the moment.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if n ** k > WALK_GUARD:
        raise ValueError(f"n^k = {n ** k} exceeds enumeration guard {WALK_GUARD}")
    if len(values) < n:
        raise ValueError(f"need {n} sigma values, got {len(values)}")

    terms: list = []
    walk = [0] * (k + 1)

    def recurse(pos: int) -> None:
        if pos == k:
            walk[k] = walk[0]
            if distinct_vertices is not None and len(set(walk[:k])) != distinct_vertices:
                return
            w = 1.0
            for (a, b), mult in _edge_multiplicities(walk).items():
                if mult % 2:
                    return  # symmetric law: any odd-multiplicity edge kills the term
                w *= model.moment(a, b, mult)
                if w == 0.0:
                    return
            terms.append(w)
            return
        for v in range(n):
            walk[pos] = v
            recurse(pos + 1)

    recurse(0)
    return math.fsum(terms) / float(n) ** (k / 2 + 1)
