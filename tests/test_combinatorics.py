import math
from collections import Counter

import pytest

from rank1_spectra.combinatorics import (
    DegreeProfile,
    PlaneTree,
    catalan,
    degree_profile_of,
    enumerate_degree_profiles,
    enumerate_plane_trees,
    multinomial,
    tree_count,
)

CATALANS = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def brute_force_profiles(s):
    """Independent oracle: scan all nonnegative vectors summing to s+1."""
    found = set()

    def rec(j, left, acc):
        if j == s:
            if left == 0 and sum(k * r for k, r in enumerate(acc, 1)) == 2 * s:
                found.add(tuple(acc))
            return
        for r in range(left + 1):
            rec(j + 1, left - r, acc + [r])

    rec(0, s + 1, [])
    return found


@pytest.mark.parametrize("s,expected", [(0, 1), (1, 1), (3, 5), (8, 1430)])
def test_catalan_values(s, expected):
    assert catalan(s) == expected


def test_catalan_matches_binomial_definition():
    for s in range(0, 20):
        assert catalan(s) * (s + 1) == math.comb(2 * s, s)


@pytest.mark.parametrize(
    "total,parts,expected", [(3, (2, 1), 3), (5, (3, 1, 1), 20), (2, (2,), 1)]
)
def test_multinomial_values(total, parts, expected):
    assert multinomial(total, parts) == expected


def test_multinomial_rejects_bad_sum():
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))


def test_profiles_small_cases():
    assert [p.r for p in enumerate_degree_profiles(1)] == [(2,)]
    assert [p.r for p in enumerate_degree_profiles(2)] == [(2, 1)]
    assert [p.r for p in enumerate_degree_profiles(3)] == [(2, 2, 0), (3, 0, 1)]


@pytest.mark.parametrize("s", range(1, 9))
def test_profiles_match_brute_force(s):
    ours = [p.r for p in enumerate_degree_profiles(s)]
    assert set(ours) == brute_force_profiles(s)
    assert ours == sorted(ours)
    assert len(ours) == len(set(ours))


def test_profile_membership_enforced():
    with pytest.raises(ValueError):
        DegreeProfile(2, (1, 1))
    with pytest.raises(ValueError):
        DegreeProfile(3, (2, 2, -1))
    with pytest.raises(ValueError):
        DegreeProfile(3, (2, 2))


def test_plane_tree_validation():
    PlaneTree((2, 0, 0))
    PlaneTree((1, 1, 0))
    with pytest.raises(ValueError):
        PlaneTree((0, 1))  # root closes before the second vertex
    with pytest.raises(ValueError):
        PlaneTree((2, 0))  # edge count does not close to -1


def test_enumeration_smallest_cases():
    assert [t.child_counts for t in enumerate_plane_trees(2)] == [(1, 0)]
    three = sorted(t.child_counts for t in enumerate_plane_trees(3))
    assert three == [(1, 1, 0), (2, 0, 0)]
    assert sum(1 for _ in enumerate_plane_trees(4)) == 5


@pytest.mark.parametrize("vertices", range(1, 10))
def test_enumeration_counts_are_catalan(vertices):
    trees = list(enumerate_plane_trees(vertices))
    assert len(trees) == CATALANS[vertices - 1]
    assert len(set(t.child_counts for t in trees)) == len(trees)


def test_degree_profile_examples():
    assert degree_profile_of(PlaneTree((1, 0))).r == (2,)
    assert degree_profile_of(PlaneTree((2, 0, 0))).r == (2, 1)
    assert degree_profile_of(PlaneTree((1, 1, 0))).r == (2, 1)


def test_tree_count_examples():
    assert tree_count(DegreeProfile(1, (2,))) == 1
    assert tree_count(DegreeProfile(3, (2, 2, 0))) == 3
    assert tree_count(DegreeProfile(3, (3, 0, 1))) == 2


@pytest.mark.parametrize("s", range(1, 7))
def test_closed_form_equals_enumeration(s):
    counts = Counter(degree_profile_of(t) for t in enumerate_plane_trees(s + 1))
    for profile in enumerate_degree_profiles(s):
        assert tree_count(profile) == counts[profile]


@pytest.mark.parametrize("s", range(1, 7))
def test_catalan_partition(s):
    total = sum(tree_count(p) for p in enumerate_degree_profiles(s))
    assert total == catalan(s)


@pytest.mark.parametrize("s", range(1, 8))
def test_every_profile_realized_and_every_tree_in_r_s(s):
    profiles = {p.r for p in enumerate_degree_profiles(s)}
    seen = set()
    for tree in enumerate_plane_trees(s + 1):
        r = degree_profile_of(tree).r
        assert r in profiles
        seen.add(r)
    assert seen == profiles


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_plane_trees(14))
