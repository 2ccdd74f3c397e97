"""Point sets, spheres, distance sets, quotient sets, and the file format."""

import gc
import itertools
import random
import sys
import types
import weakref
from collections import Counter

import pytest

from dilatelab import geometry
from dilatelab.configcount import _first_scaled_pair, path_edges
from dilatelab.errors import (
    DimensionMismatchError,
    OddDimensionError,
    PointFileError,
    SizeExceedsSpaceError,
    TooLargeError,
)
from dilatelab.field import inverse, make_prime
from dilatelab.geometry import (
    PointSet,
    dist,
    distance_set,
    full_space,
    load_point_set,
    norm_of,
    per_set,
    quotient_set,
    random_point_set,
    save_point_set,
    sphere_points,
    sphere_size_formula,
)


def test_norm_examples():
    assert norm_of((0, 0), 7) == 0
    assert norm_of((3, 4), 7) == 4
    assert norm_of((1, 1, 1), 3) == 0


def test_dist_examples():
    assert dist((1, 2), (1, 2), 7) == 0
    assert dist((0, 0), (1, 0), 7) == 1
    with pytest.raises(DimensionMismatchError):
        dist((1, 2), (1, 2, 3), 7)


def test_dist_symmetry_random():
    import random

    rng = random.Random(7)
    for _ in range(1000):
        x = tuple(rng.randrange(11) for _ in range(3))
        y = tuple(rng.randrange(11) for _ in range(3))
        assert dist(x, y, 11) == dist(y, x, 11)


def test_sphere_points_small():
    three = make_prime(3)
    assert set(sphere_points(1, 2, three)) == {(1, 0), (2, 0), (0, 1), (0, 2)}
    seven = make_prime(7)
    assert len(sphere_points(1, 2, seven)) == 8


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_null_vectors_only_origin(p):
    # p = 3 (mod 4), d = 2: the only point of norm zero is the origin
    prime = make_prime(p)
    assert sphere_points(0, 2, prime) == ((0, 0),)


@pytest.mark.parametrize("d,p", [(2, 3), (2, 7), (2, 11), (2, 19), (4, 3), (4, 5)])
def test_sphere_formula_matches_enumeration(d, p):
    prime = make_prime(p)
    total = 0
    for t in range(p):
        enumerated = len(sphere_points(t, d, prime))
        assert enumerated == sphere_size_formula(t, d, prime)
        total += enumerated
    assert total == p**d


def test_sphere_formula_examples():
    assert sphere_size_formula(3, 2, make_prime(7)) == 8
    assert sphere_size_formula(0, 2, make_prime(3)) == 1
    assert sphere_size_formula(2, 2, make_prime(5)) == 4


def test_sphere_formula_rejects_odd_dimension():
    with pytest.raises(OddDimensionError):
        sphere_size_formula(1, 3, make_prime(5))


def test_point_set_validation():
    seven = make_prime(7)
    with pytest.raises(PointFileError):
        PointSet(seven, 2, [(0, 0), (0, 0)])
    with pytest.raises(PointFileError):
        PointSet(seven, 2, [(7, 0)])
    with pytest.raises(DimensionMismatchError):
        PointSet(seven, 2, [(0, 0, 0)])
    with pytest.raises(PointFileError):
        PointSet(seven, 2, [])


def test_distance_set_examples():
    seven = make_prime(7)
    single = PointSet(seven, 2, [(1, 2)])
    assert distance_set(single) == {0}
    two = PointSet(seven, 2, [(0, 0), (1, 0)])
    assert distance_set(two) == {0, 1}
    plane3 = full_space(make_prime(3), 2)
    assert distance_set(plane3) == {0, 1, 2}


@pytest.mark.parametrize("points,error,message", [
    ([(0, 0), (1, 2, 3)], DimensionMismatchError, "point (1, 2, 3) does not have dimension 2"),
    ([(0, 0), (7, 1)], PointFileError, "point (7, 1) has non-canonical coordinates for p=7"),
    ([(0, 0), (-1, 0)], PointFileError, "point (-1, 0) has non-canonical coordinates for p=7"),
    ([(0, 0), (1, 1), (0, 0)], PointFileError, "duplicate point (0, 0)"),
    ([[1, 2], [1, 2]], PointFileError, "duplicate point (1, 2)"),
    # several faults: the first offending point in input order is named
    ([(1, 1), (1, 1), (9, 0), (0, 0, 0)], PointFileError, "duplicate point (1, 1)"),
    ([(0, 0), (0, 0, 0), (8, 0)], DimensionMismatchError,
     "point (0, 0, 0) does not have dimension 2"),
    ([(0, 0), (8, 0), (0, 0, 0), (0, 0)], PointFileError,
     "point (8, 0) has non-canonical coordinates for p=7"),
    ([(3, 3), (0, 7, 0), (3, 3)], DimensionMismatchError,
     "point (0, 7, 0) does not have dimension 2"),
])
def test_point_set_names_the_first_offending_point(points, error, message):
    with pytest.raises(error) as exc:
        PointSet(make_prime(7), 2, points)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_point_set_keeps_points_in_input_order():
    pts = [[3, 1], (0, 6), (6, 0), (0, 0)]
    E = PointSet(make_prime(7), 2, iter(pts))
    assert E.points == ((3, 1), (0, 6), (6, 0), (0, 0))
    assert all(tuple(pt) in E for pt in pts) and (1, 1) not in E


def test_quotient_set_examples():
    seven = make_prime(7)
    two = PointSet(seven, 2, [(0, 0), (1, 0)])
    assert quotient_set(two) == {0, 1}
    plane3 = full_space(make_prime(3), 2)
    assert quotient_set(plane3) == {0, 1, 2}
    # no nonzero distance, so no denominator: one point, or a null segment
    assert quotient_set(PointSet(seven, 2, [(3, 3)])) == frozenset()
    assert quotient_set(PointSet(make_prime(5), 2, [(0, 0), (1, 2)])) == frozenset()


def test_quotient_set_contains_one():
    for seed in range(5):
        E = random_point_set(make_prime(11), 2, 6, seed)
        if distance_set(E) != {0}:
            assert 1 in quotient_set(E)



def test_quotient_set_inverts_each_nonzero_distance_once(monkeypatch):
    import dilatelab.geometry as geometry

    calls = []

    def counted_inverse(b, prime):
        calls.append(b)
        return inverse(b, prime)

    monkeypatch.setattr(geometry, "inverse", counted_inverse)
    seven = make_prime(7)
    E = random_point_set(seven, 2, 12, seed=3)
    deltas = distance_set(E)
    quotients = quotient_set(E)
    assert sorted(calls) == sorted(b for b in deltas if b != 0)
    assert quotients == {a * pow(b, -1, 7) % 7 for a in deltas for b in deltas if b != 0}


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([3, 7, 11]),
    codes=st.sets(st.integers(min_value=0, max_value=48), min_size=2, max_size=8),
)
def test_quotient_set_closed_under_inverse(p, codes):
    prime = make_prime(p)
    pts = {(c % p, (c // p) % p) for c in codes}
    E = PointSet(prime, 2, sorted(pts))
    if distance_set(E) == {0}:
        return
    q = quotient_set(E)
    assert 1 in q
    for a in q:
        if a != 0:
            assert pow(a, -1, p) % p in q


def test_quotient_of_dense_set_is_everything():
    seven = make_prime(7)
    E = random_point_set(seven, 2, 45, seed=1)  # 45 of 49 points
    assert quotient_set(E) == frozenset(range(7))


def test_random_point_set_determinism_and_bounds():
    seven = make_prime(7)
    a = random_point_set(seven, 2, 10, seed=42)
    b = random_point_set(seven, 2, 10, seed=42)
    assert a.points == b.points
    assert len(set(a.points)) == 10
    with pytest.raises(SizeExceedsSpaceError):
        random_point_set(seven, 2, 50, seed=0)
    with pytest.raises(SizeExceedsSpaceError):
        random_point_set(seven, 2, 0, seed=0)


def test_random_codes_past_sys_maxsize_are_drawn_as_sample_draws_them(monkeypatch):
    # past sys.maxsize the codes are drawn one randrange at a time, a repeat
    # drawn again: the draw random.sample makes from a range much larger than
    # the sample, so where both run, they pick the same set
    cases = [(101, 3, size, seed) for size in (1, 6, 40) for seed in range(3)]
    cases += [(7, 9, 12, 0), (3, 40, 5, 1)]
    below = [random_point_set(make_prime(p), d, size, seed).points for p, d, size, seed in cases]
    monkeypatch.setattr(geometry, "sys", types.SimpleNamespace(maxsize=0))
    past = [random_point_set(make_prime(p), d, size, seed).points for p, d, size, seed in cases]
    assert below == past
    E = random_point_set(make_prime(3), 40, 5, seed=1)
    codes = [sum(c * 3**i for i, c in enumerate(pt)) for pt in E.points]
    assert len(E) == 5 and codes == sorted(codes) and codes[-1] > sys.maxsize // 100


def test_full_space_enumerates_everything():
    assert len(full_space(make_prime(3), 3)) == 27
    assert len(set(full_space(make_prime(5), 2).points)) == 25


def test_point_file_roundtrip(tmp_path):
    E = random_point_set(make_prime(11), 3, 8, seed=5)
    path = tmp_path / "set.txt"
    save_point_set(E, path, comment="seed=5")
    loaded = load_point_set(path)
    assert loaded.points == E.points
    assert loaded.prime.p == 11 and loaded.d == 3


def test_point_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p=7 d=2\n0,0\n0,0\n")
    with pytest.raises(PointFileError):
        load_point_set(path)
    path.write_text("d=2\n0,0\n")
    with pytest.raises(PointFileError):
        load_point_set(path)
    path.write_text("p=7 d=2\n0,9\n")
    with pytest.raises(PointFileError):
        load_point_set(path)
    path.write_text("")
    with pytest.raises(PointFileError):
        load_point_set(path)


def test_dist_table_and_buckets_agree():
    E = random_point_set(make_prime(7), 2, 9, seed=3)
    D = E.dist_table
    n = len(E)
    for i, j in itertools.product(range(n), repeat=2):
        assert D[i][j] == dist(E.points[i], E.points[j], 7)
        if i != j:
            assert j in E.neighbor_buckets[i][D[i][j]]
    assert sum(E.norm_pair_counts.values()) == n * n
    # every bucket against a direct per-row construction, and the sweeps'
    # class sizes are the bucket sizes, nonzero distances first; bytes rows,
    # and at p = 131 tuple rows, past the cut d(p - 1) <= 255
    for p, d in [*itertools.product((5, 7, 13), (1, 2, 3)), (131, 2)]:
        E = random_point_set(make_prime(p), d, min(12, p**d), seed=d)
        D = E.dist_table
        assert isinstance(D[0], tuple) == (p == 131)
        classes, degrees = E.class_degrees
        distances = {t for row in D for t in row}
        assert classes == tuple(sorted(distances, key=lambda t: (t == 0, t)))
        assert len(degrees) == len(classes)
        for i, row in enumerate(D):
            buckets = E.neighbor_buckets[i]
            # every class in index order, the point itself in its class of 0
            direct = {t: tuple(j for j, s in enumerate(row) if s == t) for t in set(row)}
            assert buckets == direct, (p, d, i)
            assert [deg[i] for deg in degrees] == [len(direct.get(t, ())) for t in classes], \
                (p, d, i)


def eager_buckets(D):
    """Every row of the neighbour buckets at once, classes in order of first appearance."""
    return [{t: tuple(j for j, s in enumerate(row) if s == t) for t in dict.fromkeys(row)}
            for row in D]


# bytes rows; tuple rows past d(p - 1) <= 255; null segments, at p = 13 = 1 mod 4
BUCKET_SETS = [(7, 2, 15, 1), (131, 2, 30, 2), (13, 2, 60, 3)]


@pytest.mark.parametrize("p, d, n, seed", BUCKET_SETS)
def test_bucket_rows_equal_an_eager_build(p, d, n, seed):
    E = random_point_set(make_prime(p), d, n, seed=seed)
    D = E.dist_table
    assert isinstance(D[0], bytes) == (p != 131)
    if p == 13:
        assert E.norm_pair_counts[0] > n  # distinct points at distance 0
    expected = [list(row.items()) for row in eager_buckets(D)]
    assert len(E.neighbor_buckets) == 0  # nothing is built before a read
    rows = E.neighbor_buckets.rows()
    assert [list(row.items()) for row in rows] == expected
    assert len(E.neighbor_buckets) == n
    # a second read returns the kept row, not a rebuild
    assert all(E.neighbor_buckets[i] is row for i, row in enumerate(rows))
    assert E.neighbor_buckets.rows() == rows


@pytest.mark.parametrize("p, d, n, seed", BUCKET_SETS)
def test_bucket_rows_do_not_depend_on_the_read_order(p, d, n, seed):
    prime = make_prime(p)
    expected = random_point_set(prime, d, n, seed=seed).neighbor_buckets.rows()
    orders = [range(n - 1, -1, -1), [*range(1, n, 2), *range(0, n, 2)],
              random.Random(seed).sample(range(n), n)]
    for order in orders:
        E = random_point_set(prime, d, n, seed=seed)
        for i in order:
            E.neighbor_buckets[i]
        assert list(E.neighbor_buckets) == list(order)
        assert [list(E.neighbor_buckets[i].items()) for i in range(n)] == \
            [list(row.items()) for row in expected]


def test_a_witness_search_builds_only_the_rows_it_reads():
    E = random_point_set(make_prime(7), 2, 20, seed=4)
    n = len(E)
    found = _first_scaled_pair(E, 1, path_edges(2), itertools.permutations(range(n), 3))
    assert found is not None and found[1][0] == 0  # the first y0 completes
    assert 0 < len(E.neighbor_buckets) < n


@pytest.mark.parametrize(
    "d, p", [*itertools.product((1, 2, 3), (3, 5, 13)), (2, 127), (2, 131), (3, 83), (3, 89)])
def test_dist_table_matches_dist(d, p):
    # the table is built column by column, as bytes rows while d(p - 1) <= 255
    # and past that as tuples with negative indexes into the squares; the
    # corners of {0, p - 1}^d reach the extremes c_i - c_j = ±(p - 1), and the
    # point (m, .., m) with the largest square m^2 mod p the largest byte lane
    prime = make_prime(p)
    corners = list(itertools.product((0, p - 1), repeat=d))
    far = (max(range(p), key=lambda m: m * m % p),) * d
    extra = [pt for pt in dict.fromkeys([far, *random_point_set(prime, d, min(10, p**d), seed=p)])
             if pt not in corners]
    E = PointSet(prime, d, corners + extra)
    for a, row in zip(E.points, E.dist_table):
        assert isinstance(row, bytes) == (d * (p - 1) <= 255)
        assert tuple(row) == tuple(dist(a, b, p) for b in E.points)


def test_norm_pair_counts_match_the_row_loop():
    # a plain dict in order of first appearance along the rows, as a per-entry
    # loop builds it; the isotropic line and p = 1 (mod 4) sets have null segments
    def loop(E):
        counts = {}
        for row in E.dist_table:
            for t in row:
                counts[t] = counts.get(t, 0) + 1
        return counts

    sets = [PointSet(make_prime(13), 2, [(t, 5 * t % 13) for t in range(13)]),
            PointSet(make_prime(7), 2, [(0, 0)])]
    for p in (3, 5, 7, 13):
        for d in (1, 2, 3):
            sets += [random_point_set(make_prime(p), d, min(size, p**d), seed=size)
                     for size in (2, 9, 40)]
    assert any(E.norm_pair_counts[0] > len(E) for E in sets)
    for E in sets:
        counts = E.norm_pair_counts
        assert type(counts) is dict
        assert list(counts.items()) == list(loop(E).items()), E


def test_norm_pair_counts_and_class_degrees_count_each_row_once(monkeypatch):
    # one Counter per distance row serves both tables, and none outlives the
    # build; where p > n the distance counts take one more Counter, over every
    # entry, as class_degrees could be larger than the rows
    counted, alive, every_entry = [], [], object()  # not a str: rows may be bytes

    class Recorded(Counter):
        def __init__(self, entries):
            counted.append(entries if isinstance(entries, (bytes, tuple)) else every_entry)
            alive.append(weakref.ref(self))
            super().__init__(entries)

    monkeypatch.setattr(geometry, "Counter", Recorded)
    for p, d, n, passes in ((7, 2, 20, 1), (13, 3, 40, 1), (13, 2, 13, 1), (31, 2, 12, 2)):
        for first in ("norm_pair_counts", "class_degrees"):
            E = random_point_set(make_prime(p), d, n, seed=n)
            del counted[:], alive[:]
            getattr(E, first)
            E.class_degrees, E.norm_pair_counts
            gc.collect()
            assert not [ref for ref in alive if ref() is not None], (p, n, first)
            rows = [entries for entries in counted if entries is not every_entry]
            assert rows == list(E.dist_table) and len(counted) == n + passes - 1, (p, n, first)
            # both as the direct count builds them
            pairs = Counter(itertools.chain.from_iterable(E.dist_table))
            assert list(E.norm_pair_counts.items()) == list(pairs.items())
            classes, degrees = E.class_degrees
            assert classes == tuple(sorted(pairs, key=lambda t: (t == 0, t)))
            assert [list(col) for col in zip(*degrees)] == [
                [row.count(t) for t in classes] for row in E.dist_table]


def test_per_set_binds_defaults_and_caches_no_refusal():
    calls = []

    @per_set
    def table(E, k, stays=False):
        calls.append((len(E), k, stays))
        if k < 0:
            raise TooLargeError("refused")
        return [k, stays]

    prime = make_prime(7)
    E, other = random_point_set(prime, 2, 4, seed=0), random_point_set(prime, 2, 5, seed=0)
    # a default left out, passed by position or by keyword is one entry
    assert table(E, 1) is table(E, 1, False) is table(E, k=1, stays=False)
    assert table(E, 1, True) == [1, True]
    assert table(other, 1) == [1, False]
    for _ in range(2):
        with pytest.raises(TooLargeError):
            table(E, -1)
    assert calls == [(4, 1, False), (4, 1, True), (5, 1, False), (4, -1, False), (4, -1, False)]
