"""Plane-tree combinatorics: degree profiles, Catalan numbers, exact tree counts.

The even spectral moments are sums over the set R_s of tree degree profiles
(r_1, ..., r_s) with sum r_j = s+1 and sum j*r_j = 2s, each weighted by the
number of rooted ordered trees realizing that profile.  Everything here is
exact integer arithmetic.  `tree_count` is the closed-form count; the
enumeration of actual plane trees (feasible for s <= 11) is kept as the
oracle that ``validate`` checks it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from . import _MAX_ORDER as MAX_PROFILE_ORDER  # enumerate_degree_profiles guard

__all__ = [
    "DegreeProfile",
    "PlaneTree",
    "catalan",
    "multinomial",
    "enumerate_degree_profiles",
    "enumerate_plane_trees",
    "degree_profile_of",
    "tree_count",
    "MAX_PROFILE_ORDER",
    "MAX_ENUMERATION_ORDER",
]

MAX_ENUMERATION_ORDER = 11  # plane-tree enumeration guard (C_11 = 58786)


@dataclass(frozen=True)
class DegreeProfile:
    """A tree degree distribution (r_1, ..., r_s): r_j vertices of degree j.

    Membership in R_s (sum r_j = s+1, sum j*r_j = 2s, all r_j >= 0) is
    enforced at construction.
    """

    s: int
    r: Tuple[int, ...]

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if len(self.r) != self.s:
            raise ValueError(f"profile must have length s={self.s}, got {len(self.r)}")
        if any(rj < 0 for rj in self.r):
            raise ValueError(f"profile entries must be >= 0: {self.r}")
        if sum(self.r) != self.s + 1 or sum(j * rj for j, rj in enumerate(self.r, 1)) != 2 * self.s:
            raise ValueError(f"{self.r} is not a valid degree profile for s={self.s}")


@dataclass(frozen=True)
class PlaneTree:
    """A rooted ordered tree encoded by preorder (depth-first) child counts."""

    child_counts: Tuple[int, ...]

    def __post_init__(self):
        counts = self.child_counts
        if not counts:
            raise ValueError("empty child-count sequence")
        # valid preorder encoding: partial sums of (c_i - 1) stay >= 0, total is -1
        acc = 0
        for c in counts[:-1]:
            if c < 0:
                raise ValueError(f"negative child count in {counts}")
            acc += c - 1
            if acc < 0:
                raise ValueError(f"invalid preorder child counts {counts}")
        if acc + counts[-1] - 1 != -1:
            raise ValueError(f"invalid preorder child counts {counts}")

    @property
    def vertices(self) -> int:
        return len(self.child_counts)

    @property
    def edges(self) -> int:
        return len(self.child_counts) - 1


def catalan(s: int) -> int:
    """s-th Catalan number, exact: binom(2s, s) / (s+1)."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s > MAX_PROFILE_ORDER:
        raise ValueError(f"s={s} exceeds supported range {MAX_PROFILE_ORDER}")
    return math.comb(2 * s, s) // (s + 1)


def multinomial(total: int, parts: Tuple[int, ...]) -> int:
    """Exact multinomial coefficient total! / prod(parts!).  Parts must sum to total."""
    if total < 0 or any(p < 0 for p in parts):
        raise ValueError("total and parts must be non-negative")
    if sum(parts) != total:
        raise ValueError(f"parts {parts} sum to {sum(parts)}, expected {total}")
    out = 1
    remaining = total
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def _partitions(m: int, max_part: int) -> Iterator[Tuple[int, ...]]:
    """Partitions of m into parts <= max_part, largest part first."""
    if m == 0:
        yield ()
        return
    for p in range(min(m, max_part), 0, -1):
        for rest in _partitions(m - p, p):
            yield (p,) + rest


def enumerate_degree_profiles(s: int) -> List[DegreeProfile]:
    """All of R_s, lexicographically ordered, no duplicates.

    Solutions correspond to partitions of s-1: a part p contributes one vertex
    of degree p+1, and r_1 is forced by the vertex-count constraint.
    """
    if not 1 <= s <= MAX_PROFILE_ORDER:
        raise ValueError(f"s must be in [1, {MAX_PROFILE_ORDER}], got {s}")
    profiles = []
    for part in _partitions(s - 1, s - 1) if s > 1 else [()]:
        r = [0] * s
        for p in part:
            r[p] += 1
        r[0] = s + 1 - sum(r)
        profiles.append(DegreeProfile(s, tuple(r)))
    profiles.sort(key=lambda pr: pr.r)
    return profiles


def _tree_sequences(remaining: int, open_slots: int, length_left: int):
    """Child-count suffixes with ``remaining`` edges to place and ``open_slots``
    vertices still awaiting their count."""
    if open_slots == 0:
        if remaining == 0 and length_left == 0:
            yield ()
        return
    for c in range(remaining + 1):
        # after emitting c: one slot consumed, c new slots appear
        for rest in _tree_sequences(remaining - c, open_slots - 1 + c, length_left - 1):
            yield (c,) + rest


def enumerate_plane_trees(vertices: int) -> Iterator[PlaneTree]:
    """All rooted ordered trees on the given vertex count, one per preorder code."""
    if vertices < 1:
        raise ValueError(f"vertices must be >= 1, got {vertices}")
    if vertices > MAX_ENUMERATION_ORDER + 1:
        raise ValueError(
            f"enumeration limited to {MAX_ENUMERATION_ORDER + 1} vertices, got {vertices}"
        )
    for seq in _tree_sequences(vertices - 1, 1, vertices):
        yield PlaneTree(seq)


def degree_profile_of(tree: PlaneTree) -> DegreeProfile:
    """Degree profile of a plane tree: root degree is its child count, any other
    vertex has degree child count + 1 (the parent edge)."""
    s = tree.edges
    if s < 1:
        raise ValueError("degree profiles are defined for trees with >= 2 vertices")
    r = [0] * s
    counts = tree.child_counts
    r[counts[0] - 1] += 1
    for c in counts[1:]:
        r[c] += 1
    return DegreeProfile(s, tuple(r))


def tree_count(profile: DegreeProfile) -> int:
    """Number of rooted ordered trees on s+1 vertices with the given profile.

    The closed form 2 * s! / prod(r_j!), i.e. the multinomial
    binom(s+1; r_1..r_s) scaled by 2/(s+1).  This is a theorem: with
    N = s+1 vertices of degrees d_i there are (N-2)! / prod (d_i-1)!
    labelled trees, prod (d_i-1)! planar embeddings of each and 2s root
    corners; dividing by the N! labellings leaves 2 * s! / prod r_j!.
    ``validate``'s tree_count check counts the trees of every profile
    with s <= 11 by enumeration and compares.
    """
    num = 2 * math.factorial(profile.s)
    den = 1
    for rj in profile.r:
        den *= math.factorial(rj)
    if num % den != 0:
        raise ArithmeticError(f"non-integer tree count for {profile!r}")
    return num // den
