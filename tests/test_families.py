"""Configuration families: classification passes against raw tuple oracles."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from dilatelab import families
from dilatelab.cli import main
from dilatelab.configcount import (
    CYCLE_EDGES,
    displacement_histogram,
    make_ratio,
    path_edges,
)
from dilatelab.errors import TooLargeError
from dilatelab.families import (
    FourCycleFamilies,
    classify_two_path_pairs,
    clique_edges,
    count_path_pairs,
    count_simplex_pairs,
    count_triangle_pairs,
    cycle_orbit_tuples,
    find_clique_pair_witness,
    find_cycle_pair_witness,
    find_path_pair_witness,
    four_cycle_families,
    simplex_bound_group_sum,
    tally_moments,
    triangle_bound_group_sum,
    two_path_parts_closed_form,
    validate_pattern_pair,
)
from dilatelab.field import make_prime
from dilatelab.geometry import PointSet, dist, full_space, random_point_set
from dilatelab.orthogonal import enumerate_orthogonal, so2_elements
from oracles import (
    all_equal_slice_direct,
    check_two_path_decomposition,
    displacement_slice_direct,
    first_scaled_pair,
    four_cycle_fiber_check,
    scaled_pattern_pairs,
    shared_displacement_counts,
    shared_displacement_counts_direct,
)

SEVEN = make_prime(7)
THREE = make_prime(3)
TWO_POINT = PointSet(SEVEN, 2, [(0, 0), (1, 0)])
ISOCELES = PointSet(SEVEN, 2, [(0, 0), (1, 0), (0, 1)])  # squared sides 1, 1, 2


def has_null_segment(E):
    # a pair of distinct points at squared distance 0
    return E.norm_pair_counts.get(0, 0) > len(E)


def raw_two_path_parts(E, r):
    p = E.prime.p
    a = b = ab = c = tot = 0
    for x1, x2, x3 in itertools.product(E.points, repeat=3):
        if x1 == x2 or x2 == x3:
            continue
        t1, t2 = r * dist(x1, x2, p) % p, r * dist(x2, x3, p) % p
        for y1, y2, y3 in itertools.product(E.points, repeat=3):
            if dist(y1, y2, p) == t1 and dist(y2, y3, p) == t2:
                tot += 1
                xd, yd = x1 == x3, y1 == y3
                a += xd
                b += yd
                ab += xd and yd
                c += not xd and not yd
    return a, b, ab, c, tot


def raw_path_pairs(E, r, k):
    p = E.prime.p
    total = 0
    for xs in itertools.product(E.points, repeat=k + 1):
        if len(set(xs)) != k + 1:
            continue
        prof = [r * dist(xs[i], xs[i + 1], p) % p for i in range(k)]
        for ys in itertools.product(E.points, repeat=k + 1):
            if len(set(ys)) != k + 1:
                continue
            if all(dist(ys[i], ys[i + 1], p) == prof[i] for i in range(k)):
                total += 1
    return total


def raw_clique_pairs(E, r, m):
    p = E.prime.p
    total = 0
    for vs in itertools.product(E.points, repeat=m):
        if len(set(vs)) != m:
            continue
        for us in itertools.product(E.points, repeat=m):
            if len(set(us)) != m:
                continue
            if all(
                dist(us[i], us[j], p) == r * dist(vs[i], vs[j], p) % p
                for i in range(m)
                for j in range(i + 1, m)
            ):
                total += 1
    return total


# ---------------------------------------------------------------------------
# two-path decomposition


def test_two_point_classification():
    parts = classify_two_path_pairs(TWO_POINT, make_ratio(1, SEVEN))
    assert (parts.x_coincide, parts.y_coincide, parts.both_coincide) == (4, 4, 4)
    assert parts.open_pairs == 0
    assert parts.total == 4


@pytest.mark.parametrize("p,size", [(3, 4), (7, 4), (11, 4)])
def test_classification_matches_raw(p, size):
    prime = make_prime(p)
    for seed in range(2):
        E = random_point_set(prime, 2, size, seed)
        for r in (1, p - 1):
            parts = classify_two_path_pairs(E, make_ratio(r, prime))
            raw = raw_two_path_parts(E, r)
            assert (parts.x_coincide, parts.y_coincide, parts.both_coincide,
                    parts.open_pairs, parts.total) == raw


def test_classification_handles_null_segments():
    thirteen = make_prime(13)
    E = PointSet(thirteen, 2, [(0, 0), (5, 1), (2, 3), (1, 1)])
    parts = classify_two_path_pairs(E, make_ratio(2, thirteen))
    raw = raw_two_path_parts(E, 2)
    assert (parts.x_coincide, parts.y_coincide, parts.both_coincide,
            parts.open_pairs, parts.total) == raw


@pytest.mark.parametrize("p,d", [(7, 2), (11, 2), (5, 2), (13, 2), (3, 3)],
                         ids=["7", "11", "5", "13", "3-d3"])
def test_closed_forms_match_classification(p, d):
    # valid for every (p, d): the p = 5, p = 13 and d = 3 sets have null segments
    prime = make_prime(p)
    sets = [random_point_set(prime, d, 6, seed) for seed in range(3)]
    assert any(E.norm_pair_counts[0] > 6 for E in sets) == (d != 2 or p % 4 == 1)
    for E in sets:
        for r in (1, 2, p - 1):
            ratio = make_ratio(r, prime)
            parts = classify_two_path_pairs(E, ratio)
            a, b, ab = two_path_parts_closed_form(E, ratio)
            assert (a, b, ab) == (parts.x_coincide, parts.y_coincide, parts.both_coincide)


def test_two_point_decomposition_identity():
    deco = check_two_path_decomposition(TWO_POINT, make_ratio(1, SEVEN))
    assert deco == (0, 4, 4, 4, 4)
    open_pairs, s2, s1, a, b = deco
    assert open_pairs == s2 + s1 - a - b


def test_single_point_decomposition_identity():
    single = PointSet(SEVEN, 2, [(3, 3)])
    open_pairs, s2, s1, a, b = check_two_path_decomposition(single, make_ratio(2, SEVEN))
    assert open_pairs == s2 + s1 - a - b and s2 == s1 == 0


@pytest.mark.parametrize("p", [7, 11])
def test_decomposition_identity_random(p):
    prime = make_prime(p)
    for seed in range(8):
        E = random_point_set(prime, 2, 4 + seed % 5, seed)
        for r in (1, 2, 3, p - 1):
            open_pairs, s2, s1, a, b = check_two_path_decomposition(E, make_ratio(r, prime))
            assert open_pairs == s2 + s1 - a - b


# ---------------------------------------------------------------------------
# path pairs


def test_path_pair_counts_small():
    one = make_ratio(1, SEVEN)
    assert count_path_pairs(TWO_POINT, one, 2).value == 0
    assert count_path_pairs(TWO_POINT, one, 1).value == 4
    single = PointSet(SEVEN, 2, [(0, 0)])
    assert count_path_pairs(single, one, 2).value == 0


@pytest.mark.parametrize("p,size,k", [(3, 4, 2), (7, 5, 2), (7, 4, 3), (5, 5, 2), (13, 5, 2)])
def test_path_pairs_match_raw(p, size, k):
    prime = make_prime(p)
    nulls = 0
    for d, seed in itertools.product((2, 3), range(2)):
        E = random_point_set(prime, d, size, seed)
        nulls += has_null_segment(E)
        for r in (1, p - 1):
            assert count_path_pairs(E, make_ratio(r, prime), k).value == raw_path_pairs(E, r, k)
    # for p = 1 (mod 4) the cases must reach the `j not in ys` filter
    assert p % 4 == 3 or nulls


def test_witnesses_are_the_first_scaled_pair():
    # each finder gives the brute oracle's first pair: x tuples in the
    # finder's order, y tuples in itertools.permutations order, which is the
    # search's order; and None exactly when the family's brute count is 0,
    # which for 4-cycles is the census's fully distinct count
    found = empty = 0
    for p in (3, 5, 7, 13):
        prime = make_prime(p)
        for d, size in itertools.product((1, 2, 3), (5, 6, 7)):
            E = random_point_set(prime, d, min(size, p**d), seed=size + d)
            n = len(E)

            def points(pair):
                return None if pair is None else tuple(
                    tuple(E.points[i] for i in side) for side in pair)

            for r in range(1, p):
                ratio = make_ratio(r, prime)
                for k in (1, 2, 3):
                    xs = itertools.permutations(range(n), k + 1)
                    first = first_scaled_pair(E, r, path_edges(k), xs)
                    assert find_path_pair_witness(E, ratio, k) == points(first), (p, d, n, r, k)
                    assert (first is None) == (count_path_pairs(E, ratio, k).value == 0)
                    found += first is not None
                    empty += first is None
                first = first_scaled_pair(E, r, CYCLE_EDGES, cycle_orbit_tuples(n))
                assert find_cycle_pair_witness(E, ratio) == points(first), (p, d, n, r)
                distinct = four_cycle_families(E, ratio).fully_distinct
                assert families._brute_pairs(E, r, "F4cycle", d) == distinct
                assert (first is None) == (distinct == 0)
                # triangles in every dimension, simplices of F_p^3
                for m in (3, 4) if d == 3 else (3,):
                    first = first_scaled_pair(E, r, clique_edges(m),
                                              itertools.combinations(range(n), m))
                    witness = find_clique_pair_witness(E, ratio, m)
                    assert witness == (None if first is None else points(first)[::-1]), (p, d, r, m)
                    # an m-clique is the simplex of dimension m - 1
                    pairs = families._brute_pairs(E, r, "P_simplex", m - 1)
                    assert (first is None) == (pairs == 0)
    assert found and empty


def test_path_pairs_meet_open_pairs_when_nondegenerate():
    # for p = 3 (mod 4) the open classification equals the all-distinct count
    for seed in range(3):
        E = random_point_set(SEVEN, 2, 6, seed)
        for r in (1, 3):
            ratio = make_ratio(r, SEVEN)
            assert (
                count_path_pairs(E, ratio, 2).value
                == classify_two_path_pairs(E, ratio).open_pairs
            )


def test_path_pair_witness_full_plane():
    plane = full_space(SEVEN, 2)
    for r in range(1, 7):
        found = find_path_pair_witness(plane, make_ratio(r, SEVEN), 2)
        assert found is not None
        xs, ys = found
        assert validate_pattern_pair(plane, r, path_edges(2), xs, ys)


def test_validate_pattern_pair_rejects_each_fault():
    # a 2-path pair at r = 2 on the plane; every fault below breaks one check
    plane = full_space(SEVEN, 2)
    edges = path_edges(2)
    xs = ((0, 0), (1, 0), (1, 1))                     # steps 1, 1
    ys = ((0, 0), (3, 0), (3, 3))                     # steps 2, 2
    assert validate_pattern_pair(plane, 2, edges, xs, ys)
    assert validate_pattern_pair(plane, 2, edges, list(xs), list(ys))
    bad = [
        (xs[:2], ys), (xs, ys + ys[:1]),                  # a side of the wrong length
        ((xs[0], xs[1], xs[0]), ys), (xs, (ys[0], ys[0], ys[2])),  # a repeated point
        (xs, ys[:2] + ((7, 0),)),                         # a point not in E
        ((xs[0] + (0,),) + xs[1:], ys),                   # a point of the wrong dimension
    ]
    for bx, by in bad:
        assert not validate_pattern_pair(plane, 2, edges, bx, by), (bx, by)
    # one edge whose norm is off by the ratio: the last step of ys is 1, not 2
    assert not validate_pattern_pair(plane, 2, edges, xs, ys[:2] + ((3, 1),))
    assert not validate_pattern_pair(plane, 4, edges, xs, ys)
    outside = PointSet(SEVEN, 2, [pt for pt in plane.points if pt != ys[2]])
    assert not validate_pattern_pair(outside, 2, edges, xs, ys)


def test_validate_pattern_pair_checks_every_edge():
    # a triangle pair, broken one vertex or one edge at a time
    E = full_space(SEVEN, 2)
    edges = clique_edges(3)
    vs = ((0, 0), (1, 0), (0, 1))                    # norms 1, 1, 2
    us = ((0, 0), (3, 0), (0, 3))                    # norms 2, 2, 4 = 2 * (1, 1, 2)
    assert validate_pattern_pair(E, 2, edges, vs, us)
    for k in range(3):
        # move the k-th point of us so that only the edges into it break
        moved = list(us)
        moved[k] = tuple((c + 1) % 7 for c in us[k])
        assert not validate_pattern_pair(E, 2, edges, vs, tuple(moved))
    # each has exactly one edge off: norms 1, 2, 4; 2, 1, 4; 2, 2, 1 against 2, 2, 4
    one_off = [((0, 0), (0, 1), (0, 3)), ((0, 0), (0, 3), (0, 1)), ((0, 0), (0, 3), (0, 4))]
    for k, us_off in enumerate(one_off):
        assert not validate_pattern_pair(E, 2, edges, vs, us_off)
        assert validate_pattern_pair(E, 2, edges[:k] + edges[k + 1:], vs, us_off)


def test_path_pair_witness_none_when_empty():
    ratio = make_ratio(3, SEVEN)
    assert find_path_pair_witness(TWO_POINT, ratio, 1) is None
    assert count_path_pairs(TWO_POINT, ratio, 1).value == 0


def test_witness_past_the_set_size_is_none_before_the_pattern(monkeypatch):
    # a path of k steps needs k + 1 distinct points and an m-clique m: past |E|
    # the answer is None, given before the pattern's edge list is formed
    E = random_point_set(SEVEN, 2, 5, seed=1)
    ratio = make_ratio(1, SEVEN)

    def never(*args):
        raise AssertionError("no edge list is formed past the set size")

    with monkeypatch.context() as patch:
        patch.setattr(families, "path_edges", never)
        patch.setattr(families, "clique_edges", never)
        for k in (5, 10**9):
            assert find_path_pair_witness(E, ratio, k) is None
        for m in (6, 10**6):
            assert find_clique_pair_witness(E, ratio, m) is None
    # the largest patterns that fit are still searched, and agree with brute
    assert (find_path_pair_witness(E, ratio, 4) is None) == \
        (count_path_pairs(E, ratio, 4).value == 0)
    assert (find_clique_pair_witness(E, ratio, 5) is None) == \
        (families._brute_pairs(E, 1, "P_simplex", 4) == 0)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            find_path_pair_witness(E, ratio, k)
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match="m must be at least 2"):
            find_clique_pair_witness(E, ratio, m)


# ---------------------------------------------------------------------------
# four-cycle families


def test_four_cycle_families_two_point():
    fam = four_cycle_families(TWO_POINT, make_ratio(1, SEVEN))
    assert fam.fully_distinct == 0
    assert fam.total == 4
    assert fam.degenerate_union == 4
    assert fam.decomposition_exact


@pytest.mark.parametrize("p,size", [(3, 5), (7, 6)])
def test_four_cycle_families_match_raw(p, size):
    prime = make_prime(p)
    for seed in range(2):
        E = random_point_set(prime, 2, size, seed)
        r = 1 + seed
        fam = four_cycle_families(E, make_ratio(r, prime))
        # raw recount of the ambient set and the fully-distinct subfamily
        raw_total = raw_f = 0
        for xs in itertools.product(E.points, repeat=4):
            if any(xs[i] == xs[(i + 1) % 4] for i in range(4)):
                continue
            prof = [r * dist(xs[i], xs[(i + 1) % 4], E.prime.p) % E.prime.p for i in range(4)]
            for ys in itertools.product(E.points, repeat=4):
                if all(dist(ys[i], ys[(i + 1) % 4], E.prime.p) == prof[i] for i in range(4)):
                    raw_total += 1
                    if len(set(xs)) == 4 and len(set(ys)) == 4:
                        raw_f += 1
        assert fam.total == raw_total
        assert fam.fully_distinct == raw_f
        assert fam.decomposition_exact
        assert fam.total == fam.fully_distinct + fam.degenerate_union


def classify_cycle_pairs(E, r):
    """The coincidence families by classifying every enumerated cycle pair."""
    f = a13 = a24 = b13 = b24 = union = total = 0
    exact = True
    for xs, ys in scaled_pattern_pairs(E, r, CYCLE_EDGES):
        total += 1
        c_a13, c_a24 = xs[0] == xs[2], xs[1] == xs[3]
        c_b13, c_b24 = ys[0] == ys[2], ys[1] == ys[3]
        degenerate = c_a13 or c_a24 or c_b13 or c_b24
        distinct = len(set(xs)) == 4 and len(set(ys)) == 4
        a13 += c_a13
        a24 += c_a24
        b13 += c_b13
        b24 += c_b24
        union += degenerate
        f += distinct
        exact = exact and (distinct or degenerate)
    return FourCycleFamilies(
        fully_distinct=f, x13=a13, x24=a24, y13=b13, y24=b24,
        degenerate_union=union, total=total, decomposition_exact=exact,
    )


def test_four_cycle_census_matches_enumeration():
    inexact = 0
    for p in (3, 5, 7, 13):
        prime = make_prime(p)
        for d in (1, 2, 3):
            for size, seed in ((5, 0), (6, 1)):
                E = random_point_set(prime, d, min(size, p**d), seed)
                for r in range(1, p):
                    ratio = make_ratio(r, prime)
                    expected = classify_cycle_pairs(E, ratio.r)
                    assert four_cycle_families(E, ratio) == expected, (p, d, seed, r)
                    inexact += not expected.decomposition_exact
    # null segments must produce pairs outside both the union and the open part
    assert inexact


def test_cycle_orbit_tuples_meet_every_distinct_tuple_once():
    # the 8 rotations and reflections of the 4-cycle's vertex positions map
    # the orbit tuples onto every 4-tuple of distinct indices, each once
    for n in range(8):
        images = Counter(tuple(xs[(s + sign * i) % 4] for i in range(4))
                         for xs in cycle_orbit_tuples(n) for s in range(4) for sign in (1, -1))
        assert images == Counter(itertools.permutations(range(n), 4)), n


@pytest.mark.parametrize("seed", range(4))
def test_sandwich_bounds_p7(seed):
    from dilatelab.configcount import count_scaled_walk_pairs

    E = random_point_set(SEVEN, 2, 8, seed)
    ratio = make_ratio(1 + seed % 6, SEVEN)
    fam = four_cycle_families(E, ratio)
    s2 = count_scaled_walk_pairs(E, ratio, 2, "walk_dp").value
    for value in (fam.x13, fam.x24, fam.y13, fam.y24):
        assert s2 <= value <= (7 + 1) * s2


def test_fiber_check_small():
    for seed in range(3):
        E = random_point_set(THREE, 2, 6, seed)
        for r in (1, 2):
            fibers, targets = four_cycle_fiber_check(E, make_ratio(r, THREE))
            # onto the scaled 2-walk pairs and inside them
            assert set(fibers) == targets
            assert max(fibers.values(), default=0) <= 3 + 1
            fam = four_cycle_families(E, make_ratio(r, THREE))
            assert sum(fibers.values()) == fam.x13


def test_cycle_pair_witness_full_plane():
    for p in (3, 7):
        prime = make_prime(p)
        plane = full_space(prime, 2)
        found = find_cycle_pair_witness(plane, make_ratio(1, prime))
        assert found is not None
        xs, ys = found
        assert validate_pattern_pair(plane, 1, CYCLE_EDGES, xs, ys)


def test_cycle_pair_witness_none_for_two_points():
    assert find_cycle_pair_witness(TWO_POINT, make_ratio(1, SEVEN)) is None


# ---------------------------------------------------------------------------
# shared-displacement counts


def raw_shared_tuples(E, ratio, theta, m):
    """(all, distinct) tuple counts by scanning tuples of pairs directly."""
    p = E.prime.p
    from dilatelab.orthogonal import scaled_apply

    pairs = [
        (u, v, tuple((a - b) % p for a, b in zip(u, scaled_apply(theta, ratio.sqrt_r, v, p))))
        for u in E.points
        for v in E.points
    ]
    total = distinct = 0
    for chosen in itertools.product(pairs, repeat=m):
        if len({z for _, _, z in chosen}) != 1:
            continue
        total += 1
        if len({v for _, v, _ in chosen}) == m:
            distinct += 1
    return total, distinct


def test_shared_displacement_full_plane_closed_form():
    plane = full_space(THREE, 2)
    ratio = make_ratio(1, THREE)
    theta = enumerate_orthogonal(2, THREE).elements[0]
    total, distinct = shared_displacement_counts(plane, ratio, theta)
    assert total == 3**8
    assert distinct == 3**4 * (3**2 - 1) * (3**2 - 2)
    assert total - 3 * 3**6 + 2 * 3**4 == distinct


def test_shared_displacement_single_point():
    E = PointSet(SEVEN, 2, [(1, 1)])
    ratio = make_ratio(1, SEVEN)
    theta = enumerate_orthogonal(2, SEVEN).elements[0]
    total, distinct = shared_displacement_counts(E, ratio, theta)
    assert total == 1 and distinct == 0
    assert total - 3 * 1 + 2 * 1 == distinct


@pytest.mark.parametrize("seed", range(2))
def test_shared_displacement_direct_agrees(seed):
    E = random_point_set(SEVEN, 2, 5, seed)
    ratio = make_ratio(2, SEVEN)
    for theta in enumerate_orthogonal(2, SEVEN).elements[:6]:
        bucket = shared_displacement_counts(E, ratio, theta)
        direct = shared_displacement_counts_direct(E, ratio, theta)
        assert bucket == direct
        assert bucket == raw_shared_tuples(E, ratio, theta, 3)


@pytest.mark.parametrize("seed", range(2))
def test_inclusion_exclusion_identity_per_rotation(seed):
    # distinct = total - 3 * (pair slice) + 2 * (all-equal slice) in the plane
    E = random_point_set(SEVEN, 2, 6, seed)
    ratio = make_ratio(4, SEVEN)
    for theta in enumerate_orthogonal(2, SEVEN):
        hist = displacement_histogram(E, ratio, theta)
        sq = sum(c * c for c in hist.values())
        total, distinct = shared_displacement_counts(E, ratio, theta)
        _, direct_distinct = shared_displacement_counts_direct(E, ratio, theta)
        assert direct_distinct == total - 3 * sq + 2 * len(E) ** 2
        assert distinct == direct_distinct


@pytest.mark.parametrize("kl", [(0, 1), (0, 2), (1, 2)])
def test_pair_slices_equal_square_moment(kl):
    E = random_point_set(THREE, 2, 5, seed=4)
    ratio = make_ratio(1, THREE)
    for theta in enumerate_orthogonal(2, THREE):
        hist = displacement_histogram(E, ratio, theta)
        sq = sum(c * c for c in hist.values())
        assert displacement_slice_direct(E, ratio, theta, *kl) == sq


def test_all_equal_slice_is_square_of_size():
    E = random_point_set(SEVEN, 2, 7, seed=2)
    ratio = make_ratio(2, SEVEN)
    for theta in enumerate_orthogonal(2, SEVEN).elements[:4]:
        assert all_equal_slice_direct(E, ratio, theta) == len(E) ** 2


def test_norm_sum_over_group_matches_power_moment():
    # summing per-rotation totals equals the full third-moment of the histogram
    E = random_point_set(SEVEN, 2, 6, seed=1)
    ratio = make_ratio(1, SEVEN)
    table = enumerate_orthogonal(2, SEVEN)
    lhs = sum(shared_displacement_counts(E, ratio, th)[0] for th in table)
    rhs = sum(
        sum(c**3 for c in displacement_histogram(E, ratio, th).values())
        for th in table
    )
    assert lhs == rhs


def test_two_path_parts_as_actual_tuple_sets():
    """Cover and disjointness of the coincidence parts, by real set algebra."""
    for seed in range(2):
        E = random_point_set(SEVEN, 2, 6, seed)
        r = 2 + seed
        ambient = set()
        part_a = set()
        part_b = set()
        part_c = set()
        p = E.prime.p
        for x1, x2, x3 in itertools.product(E.points, repeat=3):
            if x1 == x2 or x2 == x3:
                continue
            t1, t2 = r * dist(x1, x2, p) % p, r * dist(x2, x3, p) % p
            for y1, y2, y3 in itertools.product(E.points, repeat=3):
                if dist(y1, y2, p) == t1 and dist(y2, y3, p) == t2:
                    tup = (x1, x2, x3, y1, y2, y3)
                    ambient.add(tup)
                    if x1 == x3:
                        part_a.add(tup)
                    if y1 == y3:
                        part_b.add(tup)
                    if x1 != x3 and y1 != y3:
                        part_c.add(tup)
        assert part_a | part_b | part_c == ambient
        assert part_a & part_c == set()
        assert part_b & part_c == set()
        parts = classify_two_path_pairs(E, make_ratio(r, SEVEN))
        assert (len(part_a), len(part_b), len(part_c)) == (
            parts.x_coincide, parts.y_coincide, parts.open_pairs)


def test_tuple_moment_group_floor_general_dimension():
    # group sum of (d+1)-power moments >= |group| * |E|^(2d+2) / p^(d^2)
    cases = [
        (random_point_set(SEVEN, 2, 7, 0), make_ratio(2, SEVEN)),
        (random_point_set(THREE, 3, 7, 1), make_ratio(1, THREE)),
    ]
    for E, ratio in cases:
        table = enumerate_orthogonal(E.d, E.prime)
        moment = sum(
            shared_displacement_counts(E, ratio, theta)[0] for theta in table
        )
        floor = Fraction(
            len(table) * len(E) ** (2 * E.d + 2), E.prime.p ** (E.d * E.d)
        )
        assert Fraction(moment) >= floor


def test_third_moment_holder_floor():
    # sum over the group of cubes is at least |E|^6 / p^3
    for seed in range(3):
        E = random_point_set(SEVEN, 2, 6 + seed, seed)
        ratio = make_ratio(2, SEVEN)
        table = enumerate_orthogonal(2, SEVEN)
        cubes = sum(
            sum(c**3 for c in displacement_histogram(E, ratio, th).values())
            for th in table
        )
        assert Fraction(cubes) >= Fraction(len(E) ** 6, 7**3)


# ---------------------------------------------------------------------------
# triangles and simplexes


def test_triangle_pairs_tiny():
    one = make_ratio(1, SEVEN)
    assert count_triangle_pairs(TWO_POINT, one).value == 0
    expected = raw_clique_pairs(ISOCELES, 1, 3)
    assert count_triangle_pairs(ISOCELES, one).value == expected
    assert expected == 12  # 6 orderings, each matched by its 2 profile automorphisms


@pytest.mark.parametrize("p,size", [(3, 5), (7, 5), (11, 5), (5, 5), (13, 5)])
def test_triangle_pairs_match_raw(p, size):
    prime = make_prime(p)
    nulls = 0
    for seed in range(2):
        E = random_point_set(prime, 2, size, seed)
        nulls += has_null_segment(E)
        for r in (1, 2):
            assert count_triangle_pairs(E, make_ratio(r, prime)).value == raw_clique_pairs(E, r, 3)
    assert p % 4 == 3 or nulls


def paper_triangle_bound(E, ratio, table):
    # the paper's form: the group average of sum(c^3 - 3 c^2) over the histogram
    total = 0
    for theta in table:
        hist = displacement_histogram(E, ratio, theta)
        total += sum(c**3 - 3 * c**2 for c in hist.values())
    return Fraction(total, len(table))


def test_triangle_group_bound_is_lower_bound():
    for seed in range(3):
        E = random_point_set(SEVEN, 2, 7, seed)
        for r in (1, 2, 4):
            ratio = make_ratio(r, SEVEN)
            bound = triangle_bound_group_sum(E, ratio)
            exact = count_triangle_pairs(E, ratio).value
            assert Fraction(exact) >= bound
            assert bound == paper_triangle_bound(E, ratio, enumerate_orthogonal(2, SEVEN))
            so2_bound = paper_triangle_bound(E, ratio, so2_elements(SEVEN))
            assert Fraction(exact) >= so2_bound


def direct_group_sum(E, ratio, table):
    # the group sum of the distinct-source counts by explicit tuple extension
    return sum(shared_displacement_counts_direct(E, ratio, theta)[1] for theta in table)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_simplex_bound_matches_direct_group_sum(p):
    prime = make_prime(p)
    E = random_point_set(prime, 3, 6, seed=p)
    table = enumerate_orthogonal(3, prime)
    for r in sorted({x * x % p for x in range(1, p)}):
        ratio = make_ratio(r, prime)
        expected = Fraction(direct_group_sum(E, ratio, table), len(table))
        assert simplex_bound_group_sum(E, ratio) == expected


@pytest.mark.parametrize("p", [5, 13])
def test_triangle_bound_matches_direct_group_sum(p):
    prime = make_prime(p)
    E = random_point_set(prime, 2, 8, seed=p)
    for r in (1, 4):
        ratio = make_ratio(r, prime)
        table = enumerate_orthogonal(2, prime)
        expected = Fraction(direct_group_sum(E, ratio, table), len(table)) - 2 * len(E) ** 2
        assert triangle_bound_group_sum(E, ratio) == expected
        # the paper's form over SO(2) is the same average over the rotations
        rotations = so2_elements(prime)
        expected = Fraction(direct_group_sum(E, ratio, rotations), len(rotations)) - 2 * len(E) ** 2
        assert paper_triangle_bound(E, ratio, rotations) == expected


def test_histogram_moments_match_the_per_count_formula():
    hist = {(0, 0): 3, (0, 1): 1, (1, 0): 3, (1, 1): 5, (2, 0): 3, (2, 1): 1, (2, 2): 2}
    tally = Counter(hist.values())
    for m in (1, 2, 3, 4, 6):
        expected = (sum(c**m for c in hist.values()), sum(math.perm(c, m) for c in hist.values()))
        assert tally_moments(tally, m) == expected
    assert tally_moments({}, 3) == (0, 0)


def test_group_bounds_build_one_histogram_per_group_element(monkeypatch):
    calls = []

    def counted(E, ratio, theta):
        calls.append(theta)
        return displacement_histogram(E, ratio, theta)

    monkeypatch.setattr(families, "displacement_histogram", counted)
    cases = [
        (triangle_bound_group_sum, random_point_set(SEVEN, 2, 6, 1), make_ratio(2, SEVEN)),
        (simplex_bound_group_sum, random_point_set(THREE, 3, 5, 2), make_ratio(1, THREE)),
    ]
    for bound, E, ratio in cases:
        table = enumerate_orthogonal(E.d, E.prime)
        calls.clear()
        bound(E, ratio)
        assert calls == list(table)
    # the displacement rows of the CLI read the same one pass
    calls.clear()
    assert main(["count", "--what", "displacement", "--p", "7", "--random", "6",
                 "--seed", "1", "--r", "2"]) == 0
    assert calls == list(enumerate_orthogonal(2, SEVEN))


def test_distinct_source_tuples_are_triangle_pairs():
    # every distinct-source shared-displacement tuple is a triangle pair
    E = random_point_set(SEVEN, 2, 6, seed=5)
    ratio = make_ratio(2, SEVEN)
    from dilatelab.orthogonal import scaled_apply

    for theta in enumerate_orthogonal(2, SEVEN).elements[:8]:
        p = 7
        pairs = [
            (u, v, tuple((a - b) % p for a, b in zip(u, scaled_apply(theta, ratio.sqrt_r, v, p))))
            for u in E.points
            for v in E.points
        ]
        by_z = {}
        for u, v, z in pairs:
            by_z.setdefault(z, []).append((u, v))
        for z, bucket in by_z.items():
            for chosen in itertools.permutations(bucket, 3):
                us = tuple(u for u, _ in chosen)
                vs = tuple(v for _, v in chosen)
                assert validate_pattern_pair(E, ratio.r, clique_edges(3), vs, us)


def test_simplex_pairs_match_triangles_in_plane():
    E = random_point_set(SEVEN, 2, 5, seed=3)
    ratio = make_ratio(1, SEVEN)
    assert count_simplex_pairs(E, ratio).value == count_triangle_pairs(E, ratio).value


def test_simplex_pairs_3d_match_raw():
    prime = THREE
    for seed in range(2):
        E = random_point_set(prime, 3, 6, seed)
        ratio = make_ratio(1, prime)
        assert count_simplex_pairs(E, ratio).value == raw_clique_pairs(E, 1, 4)


def test_simplex_group_bound_3d():
    for seed in range(2):
        E = random_point_set(THREE, 3, 7, seed)
        ratio = make_ratio(1, THREE)
        bound = simplex_bound_group_sum(E, ratio)
        exact = count_simplex_pairs(E, ratio).value
        assert Fraction(exact) >= bound


def test_clique_witness_identity_dilation():
    cube = full_space(THREE, 3)
    found = find_clique_pair_witness(cube, make_ratio(1, THREE))
    assert found is not None
    us, vs = found
    assert validate_pattern_pair(cube, 1, clique_edges(4), vs, us)


def test_clique_witness_none_when_too_small():
    assert find_clique_pair_witness(TWO_POINT, make_ratio(1, SEVEN), 3) is None


def test_monotone_in_points():
    base = random_point_set(SEVEN, 2, 6, seed=12)
    bigger = PointSet(SEVEN, 2, base.points + ((6, 6),) if (6, 6) not in base else base.points + ((5, 6),))
    one = make_ratio(1, SEVEN)
    assert count_path_pairs(bigger, one, 2).value >= count_path_pairs(base, one, 2).value
    assert count_triangle_pairs(bigger, one).value >= count_triangle_pairs(base, one).value
    f_small = four_cycle_families(base, one)
    f_big = four_cycle_families(bigger, one)
    assert f_big.fully_distinct >= f_small.fully_distinct
    assert f_big.total >= f_small.total


def test_guards_raise(monkeypatch):
    import dilatelab.configcount as configcount

    # the four-cycle families are census joins: only the census guard refuses
    wide = random_point_set(make_prime(101), 2, 42, seed=0)
    with pytest.raises(TooLargeError):
        four_cycle_families(wide, make_ratio(1, make_prime(101)))

    def never(*args):
        raise AssertionError("the guard must refuse before visiting")

    monkeypatch.setattr(configcount, "Counter", never)
    eleven = make_prime(11)
    # k-path pairs visit 2 P(n, k + 1) tuples: 2 P(29, 4) > 10^6 >= 2 P(28, 4)
    with pytest.raises(TooLargeError):
        count_path_pairs(random_point_set(eleven, 2, 29, seed=0), make_ratio(1, eleven), 3)
    with pytest.raises(AssertionError, match="before visiting"):
        count_path_pairs(random_point_set(eleven, 2, 28, seed=0), make_ratio(1, eleven), 3)


def test_clique_guard_refuses_before_enumerating(monkeypatch):
    import dilatelab.configcount as configcount
    import dilatelab.families as families

    def never(*args):
        raise AssertionError("the guard must refuse before enumerating")

    monkeypatch.setattr(configcount, "Counter", never)
    eleven = make_prime(11)
    # the oracle visits C(n, m) + P(n, m) tuples: C(96, 3) + P(96, 3) > 10^6
    E = random_point_set(eleven, 2, 96, seed=0)
    with pytest.raises(TooLargeError):
        families._brute_pairs(E, 1, "T_triangle", 2)
    # 10^6 >= C(95, 3) + P(95, 3); and m = 8 at n = 9, 362889 tuples, is the
    # largest count that the earlier bound C(n, m) n^m <= 10^9 admitted
    for size, m in ((95, 3), (9, 8)):
        E = random_point_set(eleven, 2, size, seed=0)
        with pytest.raises(AssertionError, match="before enumerating"):
            families._brute_pairs(E, 1, "P_simplex", m - 1)
