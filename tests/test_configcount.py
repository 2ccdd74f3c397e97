"""Counting engines against raw tuple-product oracles on small instances."""

import itertools
import random
import time
from collections import Counter

import pytest

from dilatelab import configcount
from dilatelab.configcount import (
    CYCLE_EDGES,
    DISTINCT,
    EDGE_DISTINCT,
    EVERY,
    INCREASING,
    CountReport,
    _doubled,
    _paired_walk_sweep,
    _profile_blocks,
    brute_join,
    _lane_bytes,
    _lanes,
    _pack,
    count_ratio_quadruples,
    count_scaled_cycle_pairs,
    count_scaled_walk_pairs,
    cycle_census,
    cycle_pair_reports,
    displacement_histogram,
    join,
    make_ratio,
    path_edges,
    step_profile_counts,
    walk_pair_reports,
    walk_profile_counts,
)
from dilatelab.errors import NotASquareRatioError, TooLargeError
from dilatelab.field import make_prime
from dilatelab.geometry import PointSet, dist, full_space, random_point_set
from dilatelab.orthogonal import enumerate_orthogonal, identity_matrix, make_orth, so2_elements
from dilatelab.simgraph import SimilarityGraph
from oracles import (
    count_step_cycles,
    count_step_walks,
    displacement_count,
    full_space_cycle_tables,
)

SEVEN = make_prime(7)
TWO_POINT = PointSet(SEVEN, 2, [(0, 0), (1, 0)])


def raw_step_walks(E, steps):
    p = E.prime.p
    total = 0
    for tup in itertools.product(E.points, repeat=len(steps) + 1):
        if all(dist(tup[i], tup[i + 1], p) == steps[i] % p for i in range(len(steps))):
            total += 1
    return total


def raw_distinct_step_walks(E, k):
    # walks with distinct consecutive points, by step profile
    p = E.prime.p
    table = {}
    for tup in itertools.product(E.points, repeat=k + 1):
        if all(tup[i] != tup[i + 1] for i in range(k)):
            prof = tuple(dist(tup[i], tup[i + 1], p) for i in range(k))
            table[prof] = table.get(prof, 0) + 1
    return table


def profile_code(prof, p):
    # the key of every profile table: sum_i t_i p^i
    return sum(t * p**i for i, t in enumerate(prof))


def has_null_segment(E):
    # distinct points at squared distance 0
    return E.norm_pair_counts[0] > len(E)


def raw_scaled_walk_pairs(E, r, k):
    p = E.prime.p
    pts = E.points
    total = 0
    for xs in itertools.product(pts, repeat=k + 1):
        if any(xs[i] == xs[i + 1] for i in range(k)):
            continue
        prof = [r * dist(xs[i], xs[i + 1], p) % p for i in range(k)]
        for ys in itertools.product(pts, repeat=k + 1):
            if all(dist(ys[i], ys[i + 1], p) == prof[i] for i in range(k)):
                total += 1
    return total


def dense_paired_walks(E, r, k, distinct_first):
    # 1^T T^k 1 for T = sum_s A'_s (x) A_{rs}, the n^2 state held as plain ints
    # and stepped by (A (x) B) vec(V) = vec(A V B^T) over the nonzero entries of
    # the indicator matrices A_s.  With distinct_first A'_0 = A_0 - I;
    # otherwise A'_s = A_s and the step keeping both points, I (x) I, is dropped
    n, p, D = len(E), E.prime.p, E.dist_table
    A = {s: [[int(D[i][j] == s) for j in range(n)] for i in range(n)] for s in range(p)}
    first = dict(A)
    if distinct_first:
        first[0] = [[A[0][i][j] - (i == j) for j in range(n)] for i in range(n)]

    def support(M):
        return [[(j, e) for j, e in enumerate(row) if e] for row in M]

    # A'_s = 0 off the distances of E
    pairs = [(support(first[s]), support(A[r * s % p])) for s in E.norm_pair_counts]
    V = [[1] * n for _ in range(n)]
    for _ in range(k):
        new = [[0] * n for _ in range(n)] if distinct_first else [[-v for v in row] for row in V]
        for left, right in pairs:
            LV = [[sum(e * V[x][y] for x, e in left[i]) for y in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    new[i][j] += sum(e * LV[i][y] for y, e in right[j])
        V = new
    return sum(map(sum, V))


def raw_scaled_cycle_pairs(E, r):
    p = E.prime.p
    pts = E.points
    total = 0
    for xs in itertools.product(pts, repeat=4):
        if any(xs[i] == xs[(i + 1) % 4] for i in range(4)):
            continue
        prof = [r * dist(xs[i], xs[(i + 1) % 4], p) % p for i in range(4)]
        for ys in itertools.product(pts, repeat=4):
            if all(dist(ys[i], ys[(i + 1) % 4], p) == prof[i] for i in range(4)):
                total += 1
    return total


def raw_ratio_quadruples(E, r):
    p = E.prime.p
    total = 0
    for x, y, z, w in itertools.product(E.points, repeat=4):
        dzw = dist(z, w, p)
        if dzw != 0 and dist(x, y, p) == r * dzw % p:
            total += 1
    return total


def test_step_walks_two_point_examples():
    assert count_step_walks(TWO_POINT, [1]) == 2
    assert count_step_walks(TWO_POINT, [0]) == 2
    assert count_step_walks(TWO_POINT, [1, 1]) == 2
    assert count_step_walks(TWO_POINT, [1, 1]) == raw_step_walks(TWO_POINT, [1, 1])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_step_walk_total_is_power(seed, k):
    E = random_point_set(SEVEN, 2, 5, seed)
    n = len(E)
    assert sum(walk_profile_counts(E, k).values()) == n ** (k + 1)
    assert sum(step_profile_counts(E, k).values()) == n * (n - 1) ** k


@pytest.mark.parametrize("seed", [0, 5])
def test_step_walks_match_oracle(seed):
    E = random_point_set(make_prime(3), 2, 5, seed)
    for steps in itertools.product(range(3), repeat=2):
        assert count_step_walks(E, steps) == raw_step_walks(E, steps)


def test_step_profile_counts_match_single_profile():
    # the p = 13, d = 2 and p = 3, d = 3 sets include null segments
    for p, d, size, seed in [(7, 2, 6, 9), (13, 2, 9, 2), (3, 3, 7, 1)]:
        E = random_point_set(make_prime(p), d, size, seed)
        table = walk_profile_counts(E, 2)
        for prof in itertools.product(range(p), repeat=2):
            assert table.get(profile_code(prof, p), 0) == count_step_walks(E, prof)
        assert step_profile_counts(E, 2) == {
            profile_code(prof, p): v for prof, v in raw_distinct_step_walks(E, 2).items()}
        null = any(t == 0 for i, row in enumerate(E.dist_table)
                   for j, t in enumerate(row) if i != j)
        assert null == (p == 13 or d == 3)


def test_step_cycles_examples():
    single = PointSet(SEVEN, 2, [(2, 2)])
    assert count_step_cycles(single, (0, 0, 0, 0)) == 1
    assert count_step_cycles(single, (1, 0, 0, 0)) == 0
    assert count_step_cycles(TWO_POINT, (1, 1, 1, 1)) == 2


@pytest.mark.parametrize("seed", [0, 3])
def test_step_cycle_total_is_fourth_power(seed):
    E = random_point_set(SEVEN, 2, 5, seed)
    total = sum(
        count_step_cycles(E, steps)
        for steps in itertools.product(range(7), repeat=4)
    )
    assert total == len(E) ** 4


CENSUS_TABLES = ("x", "y", "x13", "y13", "x24", "y24", "xb", "yb")


def raw_census(E):
    # the census tables x and y from every closed 4-walk of E, and their
    # restrictions to a = c, to b = e and to both: the step tables doubled,
    # those with b = e rotated
    p, size = E.prime.p, len(E)
    D = E.dist_table
    raw = {name: {} for name in CENSUS_TABLES}
    for a, b, c, e in itertools.product(range(size), repeat=4):
        t1, t2, t3, t4 = D[a][b], D[b][c], D[c][e], D[e][a]
        code = profile_code((t1, t2, t3, t4), p)
        # x: distinct consecutive points, y: any closed walk
        sides = ["y"] + (["x"] if a != b != c != e != a else [])
        for side in sides:
            names = [side]
            if a == c:
                names.append(side + "13")
            if b == e:
                names.append(side + "24")
            if a == c and b == e:
                names.append(side + "b")
            for name in names:
                raw[name][code] = raw[name].get(code, 0) + 1
    return raw


def doubled_census(E):
    # the a = c tables are X_2 and Y_2 walked out and back, and the a = c,
    # b = e ones the pairs X_1 and Y_1 doubled twice
    p = E.prime.p
    x1, y1 = step_profile_counts(E, 1), walk_profile_counts(E, 1)
    return {"x13": _doubled(step_profile_counts(E, 2), p),
            "y13": _doubled(walk_profile_counts(E, 2), p),
            "xb": _doubled(_doubled(x1, p), p), "yb": _doubled(_doubled(y1, p), p)}


def assert_census_matches_raw(E, census):
    # every table, and the rotated x13 and y13 equal the raw b = e tables: the
    # walk (a, b, a, e) read from e is (e, a, b, a), its digits (t4, t1, t2, t3)
    p = E.prime.p
    tables = {"x": census.x, "y": census.y, **doubled_census(E)}
    for name, table in raw_census(E).items():
        if name in ("x24", "y24"):
            a_c = tables[name[0] + "13"]
            assert {t % p**3 * p + t // p**3: v for t, v in a_c.items()} == table, name
        else:
            assert tables[name] == table, name


@pytest.mark.parametrize("p,d,size", [(7, 2, 6), (5, 2, 7), (13, 2, 6), (3, 3, 7)])
def test_cycle_census_tables_match_raw_walks(p, d, size):
    E = random_point_set(make_prime(p), d, size, seed=p + d)
    census = cycle_census(E)
    assert_census_matches_raw(E, census)
    assert census.y == {
        code: count_step_cycles(E, tuple(code // p**i % p for i in range(4)))
        for code in census.y
    }
    # the cases must include null segments outside d = 2 with p = 3 (mod 4)
    assert (d == 2 and p % 4 == 3) or E.norm_pair_counts.get(0, 0) > size


@pytest.mark.parametrize("p,d", [(5, 2), (7, 2), (3, 3), (5, 3)])
def test_cycle_census_of_the_full_space_matches_its_translation_oracle(p, d):
    # null segments at p = 1 (mod 4) and at d = 3; the oracle enumerates no walk
    prime = make_prime(p)
    E = full_space(prime, d)
    assert has_null_segment(E) == (p % 4 == 1 or d == 3)
    x, y = full_space_cycle_tables(p, d)
    census = cycle_census(E)
    assert census.x == x and census.y == y
    assert sum(y.values()) == p ** (4 * d)
    if (p, d) == (7, 2):
        assert count_scaled_cycle_pairs(E, make_ratio(3, prime)).value == join(x, y, 3, p)


def test_cycle_pair_count_reads_no_step_table(monkeypatch):
    # C is the join of the census's x and y, and the census reads the 2-step
    # walk table Y_2 and the pair counts alone: no X table is built for it
    def never(*args):
        raise AssertionError("C's census read an X table")

    monkeypatch.setattr(configcount, "step_profile_counts", never)
    prime = make_prime(13)
    E = random_point_set(prime, 3, 9, seed=1)
    assert has_null_segment(E)
    for r in (1, 2):
        ratio = make_ratio(r, prime)
        assert (count_scaled_cycle_pairs(E, ratio, "mu_identity").value
                == count_scaled_cycle_pairs(E, ratio, "brute").value)


THIRTEEN = make_prime(13)
# 5^2 = -1 (mod 13): every two points of the line t (1, 5) are at squared distance 0
ISOTROPIC_LINE = PointSet(THIRTEEN, 2, [(t, 5 * t % 13) for t in range(13)])


@pytest.mark.parametrize("E", [
    PointSet(SEVEN, 2, [(3, 4)]),
    TWO_POINT,
    PointSet(THIRTEEN, 2, [(0, 0), (1, 5)]),    # two points at squared distance 0
    ISOTROPIC_LINE,
    random_point_set(make_prime(5), 3, 9, seed=3),
], ids=["one-point", "two-point", "null-pair", "isotropic-line", "d3-p5"])
def test_derived_census_tables_are_exact(E):
    # x is y less every walk with an edge coincidence, by inclusion-exclusion;
    # on one point every walk has one, and on two every term must cancel but
    # the walks (a, b, a, b)
    p, size = E.prime.p, len(E)
    census = cycle_census(E)
    assert_census_matches_raw(E, census)
    assert census.x == code_histogram(E, CYCLE_EDGES, EDGE_DISTINCT)
    assert census.y == code_histogram(E, CYCLE_EDGES, EVERY)
    assert sum(census.y.values()) == size**4
    # the closed 4-walks of K_n with distinct consecutive points: tr (J - I)^4
    assert sum(census.x.values()) == (size - 1) ** 4 + size - 1
    if size == 1:
        assert census.x == {} and census.y == {0: 1}
    if size == 2:
        s = E.dist_table[0][1]
        assert census.x == {s * (1 + p + p**2 + p**3): 2}
    if E is ISOTROPIC_LINE:
        assert census.y == {0: 13**4} and census.x == {0: 12**4 + 12}
    # every case past one point but the plain two-point set has a null segment
    assert has_null_segment(E) == (size > 1 and E is not TWO_POINT)


def test_cycle_census_guard_refuses_before_building(monkeypatch):
    import dilatelab.configcount as configcount

    def never(*args):
        raise AssertionError("the guard must refuse before building a table")

    # the census's first arithmetic: the level-2 total of its 2-step walk tables
    monkeypatch.setattr(configcount, "mul", never)
    big = make_prime(101)
    # 42^4 > 3 * 10^6 >= 41^4; these sets have more distances than points
    E = random_point_set(big, 2, 42, seed=0)
    with pytest.raises(TooLargeError):
        count_scaled_cycle_pairs(E, make_ratio(2, big), "mu_identity")
    for prime, size in ((big, 41), (SEVEN, 45)):
        # at p = 7 a profile has at most 7^4 values, whatever the size
        E = random_point_set(prime, 2, size, seed=0)
        with pytest.raises(AssertionError, match="before building"):
            count_scaled_cycle_pairs(E, make_ratio(2, prime), "mu_identity")


def test_two_step_tables_past_the_lane_count_are_admitted_by_their_walks():
    # 528 nonzero distances: 528^2 lanes are past PROFILE_GUARD, but 33^3
    # walks are not, so the level holds no more entries than that and
    # nu_identity cross-checks walk_dp; the census reads the same tables
    prime = make_prime(100003)
    E = random_point_set(prime, 2, 33, 0)
    m = len(E.norm_pair_counts)
    assert m == 529 and 33**3 <= configcount.PROFILE_GUARD < (m - 1) ** 2
    reports = walk_pair_reports(E, make_ratio(2, prime), 2)
    assert [(rep.method, rep.value) for rep in reports] == [("walk_dp", 4), ("nu_identity", 4)]
    # every closed walk, and those (a, b, a, e) and (a, b, a, b), with and
    # without distinct consecutive points
    census, doubled = cycle_census(E), doubled_census(E)
    totals = [sum(table.values()) for table in
              (census.y, census.x, *map(doubled.get, ("y13", "x13", "yb", "xb")))]
    assert totals == [33**4, 32**4 + 32, 33**3, 33 * 32**2, 33**2, 33 * 32]


def test_tables_of_a_large_field_hold_no_entry_per_residue():
    # the int distance rows, brute's scaled rows and the int displacement
    # columns are computed entry by entry: none lists the p residues
    import tracemalloc

    prime = make_prime(1000003)
    ratio = make_ratio(4, prime)
    theta = make_orth(identity_matrix(2), prime)
    E = random_point_set(prime, 2, 3, seed=0)
    peaks = []
    tracemalloc.start()
    try:
        for step in (lambda: E.dist_table,
                     lambda: count_scaled_walk_pairs(E, ratio, 2, "brute"),
                     lambda: displacement_histogram(E, ratio, theta)):
            tracemalloc.reset_peak()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 1 << 20, peaks
    assert count_scaled_walk_pairs(E, ratio, 2, "walk_dp").value == \
        count_scaled_walk_pairs(E, ratio, 2, "brute").value


def test_scaled_walk_pairs_two_point():
    one = make_ratio(1, SEVEN)
    for method in ("brute", "nu_identity", "walk_dp"):
        assert count_scaled_walk_pairs(TWO_POINT, one, 1, method).value == 4
        assert count_scaled_walk_pairs(TWO_POINT, one, 2, method).value == 4


def test_scaled_walk_pairs_empty_ratio_class():
    # two points at distance 1; with r = 3 the scaled distance 3 never occurs
    three = make_ratio(3, SEVEN)
    assert count_scaled_walk_pairs(TWO_POINT, three, 1, "brute").value == 0


@pytest.mark.parametrize("p,size,d", [(3, 4, 2), (7, 4, 2), (11, 5, 2), (5, 4, 2), (13, 4, 2),
                                      (3, 4, 3)],
                         ids=["3-4", "7-4", "11-5", "5-4", "13-4", "3-4-d3"])
@pytest.mark.parametrize("k", [1, 2])
def test_walk_pair_methods_match_oracle(p, size, d, k):
    prime = make_prime(p)
    sets = [random_point_set(prime, d, size, seed) for seed in range(3)]
    # outside d = 2 with p = 3 (mod 4) the cases include null segments
    assert any(map(has_null_segment, sets)) == (d != 2 or p % 4 == 1)
    for E in sets:
        for r in (1, 2, p - 1):
            ratio = make_ratio(r, prime)
            expected = raw_scaled_walk_pairs(E, ratio.r, k)
            for method in ("brute", "nu_identity", "walk_dp"):
                assert count_scaled_walk_pairs(E, ratio, k, method).value == expected


def test_walk_pair_k3_matches_oracle():
    E = random_point_set(SEVEN, 2, 4, seed=11)
    ratio = make_ratio(2, SEVEN)
    expected = raw_scaled_walk_pairs(E, 2, 3)
    for method in ("brute", "nu_identity", "walk_dp"):
        assert count_scaled_walk_pairs(E, ratio, 3, method).value == expected


def test_walk_dp_handles_null_segments():
    # p = 1 (mod 4): (5, 1) has norm 26 = 0 mod 13, so distinct points at
    # squared distance zero exist; every method must still count them.
    thirteen = make_prime(13)
    E = PointSet(thirteen, 2, [(0, 0), (5, 1), (2, 3), (1, 1)])
    assert has_null_segment(E)
    ratio = make_ratio(2, thirteen)
    for k in (1, 2):
        expected = raw_scaled_walk_pairs(E, 2, k)
        for method in ("walk_dp", "brute", "nu_identity"):
            assert count_scaled_walk_pairs(E, ratio, k, method).value == expected


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 13]),
    d=st.integers(min_value=1, max_value=3),
    codes=st.sets(st.integers(min_value=0, max_value=13**3 - 1), min_size=2, max_size=5),
    r=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=3),
)
def test_walk_dp_equals_raw_oracle_fuzz(p, d, codes, r, k):
    # both residue classes of p and every d: the sweep must match raw tuple
    # enumeration, null segments included; k = 3 is the first k whose sweep
    # is not summed by degrees alone, and past 4^8 tuple pairs the dense
    # oracle stands in for the raw one
    prime = make_prime(p)
    pts = sorted({tuple(c // p**i % p for i in range(d)) for c in codes})
    E = PointSet(prime, d, pts)
    ratio = make_ratio(1 + r % (p - 1), prime)
    if len(E) ** (2 * k + 2) <= 4**8:
        expected = raw_scaled_walk_pairs(E, ratio.r, k)
    else:
        expected = dense_paired_walks(E, ratio.r, k, distinct_first=True)
    for method in ("walk_dp", "brute", "nu_identity"):
        assert count_scaled_walk_pairs(E, ratio, k, method).value == expected


def test_dense_oracle_matches_raw_enumeration():
    # the oracle itself against raw tuples; the graph counts vertex walks
    thirteen = make_prime(13)
    E = PointSet(thirteen, 2, [(0, 0), (5, 1), (2, 3), (1, 1)])
    assert has_null_segment(E)
    pts = range(len(E))
    for k in (1, 2):
        for r in (1, 2):
            assert dense_paired_walks(E, r, k, True) == raw_scaled_walk_pairs(E, r, k)
            graph = SimilarityGraph(E, make_ratio(r, thirteen))
            walks = sum(
                all(a != b and graph.adjacent(a, b) for a, b in zip(w, w[1:]))
                for w in itertools.product(itertools.product(pts, repeat=2), repeat=k + 1))
            assert dense_paired_walks(E, r, k, False) == walks


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_paired_walk_sweep_matches_the_dense_oracle(p, d):
    # both modes, every r, k = 1..4: k = 1 and 2 sum the first and last steps
    # by degrees; k = 3 joins the walk tables where
    # m^3 <= WALK_TABLE_FACTOR n^2 and runs one paired-state step elsewhere,
    # which the sets below reach both ways; k = 4 runs two steps
    prime = make_prime(p)
    sets = [random_point_set(prime, d, n, seed=n) for n in (1, 2, 3, 6, 10) if n <= p**d]
    if (p, d) == (13, 2):
        sets.append(PointSet(prime, 2, [(t, 5 * t % 13) for t in range(13)]))
    for E in sets:
        for r in range(1, p):
            for distinct_first in (True, False):
                for k in range(1, 5):
                    assert _paired_walk_sweep(E, r, k, distinct_first) == \
                        dense_paired_walks(E, r, k, distinct_first), (len(E), r, k, distinct_first)


def raise_on_transpose(*args):
    raise AssertionError("a paired-state step ran")


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_paired_walk_sweep_at_k_3_forms_no_paired_state(p, d, monkeypatch):
    # with WALK_TABLE_FACTOR admitting every set, k = 3 joins the walk tables
    # on each: it equals the dense oracle in both modes at every r without one
    # transpose, while k = 4 still steps the paired state
    monkeypatch.setattr(configcount, "WALK_TABLE_FACTOR", 10**9)
    monkeypatch.setattr(configcount, "_transpose", raise_on_transpose)
    prime = make_prime(p)
    sets = [random_point_set(prime, d, n, seed=n) for n in (1, 2, 3, 6, 10) if n <= p**d]
    if (p, d) == (13, 2):
        sets.append(ISOTROPIC_LINE)
    for E in sets:
        for r in range(1, p):
            for distinct_first in (True, False):
                assert _paired_walk_sweep(E, r, 3, distinct_first) == \
                    dense_paired_walks(E, r, 3, distinct_first), (len(E), r, distinct_first)
    with pytest.raises(AssertionError, match="a paired-state step ran"):
        _paired_walk_sweep(sets[-1], 1, 4, True)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_paired_walk_sweep_at_k_3_steps_where_the_walk_tables_are_refused(p, d, monkeypatch):
    # inside WALK_TABLE_FACTOR, a set whose walk tables a guard refuses runs
    # the paired-state step, as past the factor, and it equals the dense
    # oracle in both modes at every r; fresh sets, so no table is memoised
    # before
    monkeypatch.setattr(configcount, "WALK_TABLE_FACTOR", 10**9)
    monkeypatch.setattr(configcount, "PROFILE_GUARD", 0)
    transpose, transposes = configcount._transpose, []
    monkeypatch.setattr(configcount, "_transpose",
                        lambda *args: transposes.append(args) or transpose(*args))
    prime = make_prime(p)
    sets = [random_point_set(prime, d, n, seed=n) for n in (1, 2, 3, 6, 10) if n <= p**d]
    if (p, d) == (13, 2):
        sets.append(PointSet(prime, 2, ISOTROPIC_LINE.points))
    for E in sets:
        for r in range(1, p):
            for distinct_first in (True, False):
                del transposes[:]
                assert _paired_walk_sweep(E, r, 3, distinct_first) == \
                    dense_paired_walks(E, r, 3, distinct_first), (len(E), r, distinct_first)
                assert len(transposes) == 2
        with pytest.raises(TooLargeError):
            walk_profile_counts(E, 3)


@pytest.mark.parametrize("p,n", [(11, 80), (13, 94), (7, 8), (5, 10), (61, 20)])
def test_gram_factor_picks_the_form_and_both_agree(p, n, monkeypatch):
    # the walks benchmark's k = 3 sizes, and 10 points at p = 5, join the walk
    # tables, without a transpose; 8 points at p = 7 (m^3 = 5.4 n^2) and 20 at
    # p = 61 have more than WALK_TABLE_FACTOR^(1/3) n^(2/3) distances, so the
    # sweep steps the paired state; each form equals the other, in both modes
    E = random_point_set(make_prime(p), 2, n, seed=1)
    m = len(E.norm_pair_counts)
    tables = m**3 <= configcount.WALK_TABLE_FACTOR * n * n
    assert tables == (p not in (7, 61))
    transpose, transposes = configcount._transpose, []
    monkeypatch.setattr(configcount, "_transpose",
                        lambda *args: transposes.append(args) or transpose(*args))
    for r in (1, 2, p - 1):
        for distinct_first in (True, False):
            del transposes[:]
            value = _paired_walk_sweep(E, r, 3, distinct_first)
            assert len(transposes) == (0 if tables else 2)
            with monkeypatch.context() as other:
                other.setattr(configcount, "WALK_TABLE_FACTOR", 0 if tables else 10**9)
                assert _paired_walk_sweep(E, r, 3, distinct_first) == value, (r, distinct_first)


def signed_step_walks(E, prof, moving):
    # walks whose steps follow prof, the zero steps moving (a null segment)
    # if moving: inclusion-exclusion over the zero steps that stay put, a
    # stay being a walk with that step deleted
    if not moving:
        return count_step_walks(E, prof)
    zeros = [i for i, t in enumerate(prof) if t == 0]
    return sum(
        (-1) ** len(stays) * count_step_walks(E, [t for i, t in enumerate(prof) if i not in stays])
        for size in range(len(zeros) + 1) for stays in itertools.combinations(zeros, size))


@pytest.mark.parametrize("p", [5, 7, 13])
@pytest.mark.parametrize("d", [2, 3])
def test_every_cached_profile_level_matches_step_walks(p, d):
    # levels 1..3 of X and Y, each its own sweep, against count_step_walks,
    # so a level packed in the wrong lane order shows
    prime = make_prime(p)
    sets = [random_point_set(prime, d, 6, seed) for seed in range(2)]
    if p % 4 == 1 or d == 3:
        assert any(map(has_null_segment, sets))
    for E in sets:
        distances = sorted(E.norm_pair_counts)
        for level in (1, 2, 3):
            for moving, table in ((True, step_profile_counts(E, level)),
                                  (False, walk_profile_counts(E, level))):
                expected = {}
                for prof in itertools.product(distances, repeat=level):
                    value = signed_step_walks(E, prof, moving)
                    if value:
                        expected[profile_code(prof, p)] = value
                assert table == expected, (len(E), level, moving)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_lanes_unpack_every_width_alike(width):
    # 1-, 2-, 4- and 8-byte lanes are packed by one struct call, the rest value
    # by value; lanes of at most 8 bytes are read into one array, zero-extended
    # where needed, and wider ones one by one; every width agrees with
    # shifting and masking the packed int, the top lane full and zero lanes
    # kept, both ways
    full = (1 << 8 * width) - 1
    for values in ([0], [full], [5, 0, full, 1, 0], list(range(1, 40)), [0] * 7):
        values = [v & full for v in values]
        packed = sum(v << (8 * width * i) for i, v in enumerate(values))
        assert _pack(values, width) == packed
        assert _pack(tuple(values), width) == packed
        lanes = list(_lanes(packed, len(values), width))
        assert lanes == [(packed >> (8 * width * i)) & full for i in range(len(values))]
        assert lanes == values and all(type(v) is int for v in lanes)


def test_packed_lanes_at_their_worst_case():
    # on the isotropic line {(t, 5t)} of F_13 every squared distance is 0, so
    # every walk matches every profile and each lane reaches its bound
    thirteen = make_prime(13)
    E = PointSet(thirteen, 2, [(t, 5 * t % 13) for t in range(13)])
    n = len(E)
    ratio = make_ratio(3, thirteen)
    for k in range(1, 5):
        expected = n * (n - 1) ** k * n ** (k + 1)
        for method in ("walk_dp", "nu_identity"):
            assert count_scaled_walk_pairs(E, ratio, k, method).value == expected
        # the one profile (0, .., 0) has the code 0
        assert walk_profile_counts(E, k) == {0: n ** (k + 1)}
        assert step_profile_counts(E, k) == {0: n * (n - 1) ** k}
        # the pair graph is complete on n^2 vertices
        assert SimilarityGraph(E, ratio).count_walks(k) == n * n * (n * n - 1) ** k
    assert count_scaled_walk_pairs(E, ratio, 1, "brute").value == n * (n - 1) * n**2


@pytest.mark.parametrize("case", ["two-points", "null-pair", "isotropic-line"])
def test_identity_tables_stay_small_at_k_40(case):
    # one profile per level: every method answers at once, with its closed form
    k = 40
    prime = make_prime(11 if case == "two-points" else 13)
    pts = {"two-points": [(0, 0), (1, 0)], "null-pair": [(0, 0), (1, 5)],
           "isotropic-line": [(t, 5 * t % 13) for t in range(13)]}[case]
    E = PointSet(prime, 2, pts)
    n = len(E)
    for r in (1, 2):
        if case == "two-points":
            # (x walk, y walk) alternate between the two points, r s = s only at r = 1
            expected = 4 if r == 1 else 0
        else:
            # every squared distance is 0: the y walk is any of n^(k+1)
            expected = n * (n - 1) ** k * n ** (k + 1)
        ratio = make_ratio(r, prime)
        start = time.perf_counter()
        for method in ("walk_dp", "nu_identity"):
            assert count_scaled_walk_pairs(E, ratio, k, method).value == expected
        assert time.perf_counter() - start < 1.0


def test_lane_width_covers_the_bound_at_large_n():
    n, k = 10**4, 3
    for bound in (n ** (2 * k), n ** (k + 1)):
        width = _lane_bytes(bound)
        assert 256 ** (width - 1) <= bound < 256**width
    assert _lane_bytes(n ** (2 * k)) == 10
    assert _lane_bytes(0) == _lane_bytes(1) == 1


def test_brute_guard(monkeypatch):
    import dilatelab.configcount as configcount

    # the walk oracle visits n (n-1)^k + n^(k+1) tuples and the cycle oracle
    # (n-1)^4 + n-1 + n^4: over 10^6 at n = 80 for k = 2 and at n = 28 for
    # cycles, not at n = 79 and n = 27
    thirteen = make_prime(13)
    ratio = make_ratio(1, thirteen)
    sets = {size: random_point_set(thirteen, 2, size, seed=0) for size in (27, 28, 79, 80)}
    # walk_dp is cross-checked by nu_identity alone, null segments or not
    assert has_null_segment(sets[80])
    assert [rep.method for rep in walk_pair_reports(sets[80], ratio, 2)] == [
        "walk_dp", "nu_identity"]
    assert [rep.method for rep in cycle_pair_reports(sets[28], ratio)] == ["mu_identity"]

    def never(*args):
        raise AssertionError("the guard must refuse before visiting")

    monkeypatch.setattr(configcount, "Counter", never)
    with pytest.raises(TooLargeError):
        count_scaled_walk_pairs(sets[80], ratio, 2, "brute")
    with pytest.raises(TooLargeError):
        count_scaled_cycle_pairs(sets[28], ratio, "brute")
    with pytest.raises(AssertionError, match="before visiting"):
        count_scaled_walk_pairs(sets[79], ratio, 2, "brute")
    with pytest.raises(AssertionError, match="before visiting"):
        count_scaled_cycle_pairs(sets[27], ratio, "brute")


def test_step_profile_guard_refuses_before_building_rows(monkeypatch):
    import dilatelab.configcount as configcount

    def never(*args):
        raise AssertionError("the guard must refuse before building a row")

    monkeypatch.setattr(configcount, "_class_sums", never)
    eleven = make_prime(11)
    # 8 distinct nonzero distances: 8^7 profiles are over PROFILE_GUARD, 8^6
    # are not
    E = random_point_set(eleven, 2, 8, seed=0)
    assert len(E.class_degrees[0]) == 9
    with pytest.raises(TooLargeError):
        step_profile_counts(E, 7)
    with pytest.raises(AssertionError, match="before building"):
        step_profile_counts(E, 6)
    monkeypatch.undo()
    # walk_dp stands alone when its cross-check is refused
    reports = walk_pair_reports(E, make_ratio(1, eleven), 7)
    assert [rep.method for rep in reports] == ["walk_dp"]


def test_lane_guard_sizes_the_rows_the_sweep_holds(monkeypatch):
    import dilatelab.configcount as configcount

    # the sweep holds n rows of level k - 1 and one level-k total: (n + m) m^(k-1)
    # lanes, not the n m^k of n rows of level k
    E = random_point_set(make_prime(31), 2, 40, seed=0)
    n, m, k = len(E), len(E.norm_pair_counts) - 1, 3
    assert E.norm_pair_counts[0] == n  # no null segment: the steps are the nonzero distances
    width = configcount._lane_bytes(n ** (k + 1))
    held = (n + m) * m ** (k - 1) * width
    assert held < n * m**k * width
    expected = step_profile_counts(E, k)
    for guard, admitted in ((n * m**k * width - 1, True), (held, True), (held - 1, False)):
        E = random_point_set(make_prime(31), 2, 40, seed=0)  # a fresh set: no memo
        monkeypatch.setattr(configcount, "LANE_GUARD", guard)
        if admitted:
            assert step_profile_counts(E, k) == expected
        else:
            with pytest.raises(TooLargeError, match=f"exceed {guard} bytes"):
                step_profile_counts(E, k)


def test_class_count_guards_refuse_before_laying_out_classes(monkeypatch):
    def never(E):
        raise AssertionError("the guard must refuse before the classes are laid out")

    big = make_prime(100003)
    # about 39,000 distances: one row of 1-step profile lanes is past LANE_GUARD
    wide = random_point_set(big, 2, 316, seed=0)
    # 42 points with 42 or more distances: 42^4 census profiles, past CENSUS_GUARD
    census_set = random_point_set(make_prime(101), 2, 42, seed=2)
    monkeypatch.setattr(PointSet, "class_degrees", property(never))
    for k in (1, 2):
        with pytest.raises(TooLargeError):
            step_profile_counts(wide, k)
        with pytest.raises(TooLargeError):
            walk_profile_counts(wide, k)
    with pytest.raises(TooLargeError):
        cycle_census(census_set)
    with pytest.raises(TooLargeError):
        count_scaled_walk_pairs(TWO_POINT, make_ratio(1, SEVEN), 10**9)
    # the graph's pair-count check is refused, so it is built without the classes
    graph = SimilarityGraph(wide, make_ratio(2, big))
    assert graph.vertex_count == 316**2


@pytest.mark.parametrize("p, d, n", [(11, 2, 40), (5, 3, 30)])
def test_two_step_counts_and_the_census_build_no_bucket_row(p, d, n):
    # the k <= 2 sweeps and the census read class sizes only, from one table
    # counted off the distance rows; a class-sum step builds every row
    prime = make_prime(p)
    E = random_point_set(prime, d, n, seed=5)
    assert (E.norm_pair_counts[0] > n) == (p == 5)  # null segments at d = 3 only
    for r in (1, 2):
        ratio = make_ratio(r, prime)
        for k in (1, 2):
            reports = walk_pair_reports(E, ratio, k)
            assert [rep.method for rep in reports] == ["walk_dp", "nu_identity"]
        SimilarityGraph(E, ratio).count_walks(2)
    step_profile_counts(E, 2)
    walk_profile_counts(E, 2)
    cycle_census(E)
    assert len(E.neighbor_buckets) == 0
    step_profile_counts(E, 3)
    assert len(E.neighbor_buckets) == n


SIDES = {
    EVERY: lambda n, size, edges: itertools.product(range(n), repeat=size),
    EDGE_DISTINCT: lambda n, size, edges: (
        t for t in itertools.product(range(n), repeat=size)
        if all(t[a] != t[b] for a, b in edges)),
    DISTINCT: lambda n, size, edges: itertools.permutations(range(n), size),
    INCREASING: lambda n, size, edges: itertools.combinations(range(n), size),
}
PATTERNS = {
    **{f"path{k}": path_edges(k) for k in (1, 2, 3)},
    "cycle": CYCLE_EDGES,
    "clique3": ((0, 1), (0, 2), (1, 2)),
    "clique4": ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)),
}


def literal_histogram(E, edges, kind):
    # the per-tuple oracle: the edge profile of every tuple of the side
    D = E.dist_table
    size = max(b for _, b in edges) + 1
    return Counter(tuple(D[t[a]][t[b]] for a, b in edges)
                   for t in SIDES[kind](len(E), size, edges))


def code_histogram(E, edges, kind):
    # the blocks of the column brute, summed by profile code
    codes = Counter()
    tuples = 0
    for block, back, size in _profile_blocks(E.dist_table, E.prime.p, edges, kind):
        codes.update(block)
        codes.subtract(back)
        tuples += size
    assert sum(codes.values()) == tuples
    return {code: count for code, count in codes.items() if count}


def column_histogram(E, edges, kind):
    # the blocks of the column brute, decoded to profiles
    p = E.prime.p
    return Counter({tuple(code // p**i % p for i in range(len(edges))): count
                    for code, count in code_histogram(E, edges, kind).items()})


@pytest.mark.parametrize("p,d", [(5, 2), (13, 2), (3, 3), (7, 3)])
def test_profile_tables_are_the_brute_histograms(p, d):
    # one code for every profile table: X_k, Y_k and the census's x and y are
    # the brute sides' histograms of their patterns, key for key
    prime = make_prime(p)
    sets = [random_point_set(prime, d, size, seed)
            for size, seed in ((1, 0), (2, 1), (6, 2), (7, 3), (8, 4))]
    assert any(map(has_null_segment, sets))
    for E in sets:
        for k in (1, 2, 3):
            edges = path_edges(k)
            assert step_profile_counts(E, k) == code_histogram(E, edges, EDGE_DISTINCT)
            assert walk_profile_counts(E, k) == code_histogram(E, edges, EVERY)
        census = cycle_census(E)
        assert census.x == code_histogram(E, CYCLE_EDGES, EDGE_DISTINCT)
        assert census.y == code_histogram(E, CYCLE_EDGES, EVERY)


@pytest.mark.parametrize("p", [3, 59])
def test_join_scales_every_digit_of_a_code(p):
    rng = random.Random(p)

    def scaled(code, r, length):
        # the definition: decode the digits, scale each by r mod p, encode
        digits = [code // p**i % p for i in range(length)]
        return profile_code([r * t % p for t in digits], p)

    ratios = range(1, p) if p < 10 else (1, 2, 5, p - 1)
    for length in range(1, 7):
        # half the digits zero, the all-zero profile included
        profiles = [[rng.choice((0, rng.randrange(1, p))) for _ in range(length)]
                    for _ in range(30)] + [[0] * length]
        first = Counter(profile_code(prof, p) for prof in profiles)
        second = {code: rng.randrange(1, 9) for code in (
            *(profile_code([rng.randrange(p) for _ in range(length)], p) for _ in range(30)),
            *(scaled(code, r, length) for code in first for r in ratios[::2]))}
        hits = 0
        for r in ratios:
            expected = sum(v * second.get(scaled(code, r, length), 0) for code, v in first.items())
            assert join(first, second, r, p) == expected, (length, r)
            hits += expected > 0
        assert hits >= len(ratios[::2])


@pytest.mark.parametrize("p", [3, 13, 59])
def test_join_iterates_either_table_alike(p):
    # J(F, G) = sum_t F(t) G(r t) = sum_u F(r^-1 u) G(u), and join iterates
    # the smaller table: each order of a small and a large table takes one way
    rng = random.Random(p)

    def scaled(code, r, length):
        digits = [code // p**i % p for i in range(length)]
        return profile_code([r * t % p for t in digits], p)

    for length in (2, 4, 6):
        small = {profile_code([rng.randrange(p) for _ in range(length)], p): rng.randrange(1, 9)
                 for _ in range(3)}
        # every image of small's codes, so each ratio has hits both ways
        large = {code: rng.randrange(1, 9) for code in (
            *(profile_code([rng.randrange(p) for _ in range(length)], p) for _ in range(40)),
            *(scaled(code, r, length) for code in small for r in range(1, p)))}
        assert len(small) < len(large)
        for r in range(1, p):
            for first, second in ((small, large), (large, small)):
                expected = sum(v * second.get(scaled(code, r, length), 0)
                               for code, v in first.items())
                assert expected > 0 and join(first, second, r, p) == expected, (length, r)


def test_join_scales_by_lookup_and_by_closure_alike(monkeypatch):
    # join scales the keys of a dense table through the array of every scaled
    # code, and of a sparse one by the _code_scale closure; forced either way,
    # both agree with the definition at every r, on the walk tables and cycle
    # census of sets with null segments (p = 13, d = 3), on sparse tables and
    # on empty ones
    p = 13
    E = random_point_set(make_prime(p), 3, 8, seed=4)
    assert E.norm_pair_counts[0] > len(E)
    census = cycle_census(E)
    dense = [walk_profile_counts(E, 2), walk_profile_counts(E, 3), step_profile_counts(E, 3),
             E.norm_pair_counts]
    sparse = [census.y, _doubled(step_profile_counts(E, 2), p), {5 + 7 * p**3: 2, 1: 3},
              {p**4 - 1: 4}]
    tables = [*dense, *sparse, {}, {0: 1}]

    def definition(first, second, r):
        def scaled(code):
            digits = []
            while code:
                code, t = divmod(code, p)
                digits.append(r * t % p)
            return profile_code(digits, p)
        return sum(v * second.get(scaled(code), 0) for code, v in first.items())

    paths = Counter()
    monkeypatch.setattr(configcount, "_scaled_codes",
                        lambda *args, f=configcount._scaled_codes: paths.update(["lookup"]) or f(*args))
    monkeypatch.setattr(configcount, "_code_scale",
                        lambda *args, f=configcount._code_scale: paths.update(["closure"]) or f(*args))
    for table in dense:  # about one code of the array per key, or fewer
        paths.clear()
        join(table, table, 2, p)
        assert paths == {"lookup": 1}
    for table in sparse:
        paths.clear()
        join(table, table, 2, p)
        assert paths == {"closure": 1}
    # each table against itself and against the next, both ways round
    nexts = tables[1:] + tables[:1]
    for first, second in [*zip(tables, tables), *zip(tables, nexts), *zip(nexts, tables)]:
        for r in range(1, p):
            expected = definition(first, second, r)
            # every array refused; every array taken, none past p^4 codes
            for factor in (0, p**4):
                monkeypatch.setattr(configcount, "SCALE_ARRAY_FACTOR", factor)
                assert join(first, second, r, p) == expected, (factor, r)
    assert join({}, {}, 3, p) == 0


# the walk (a, b, a) on two vertices, whose profile is (s, s)
BACK = ((0, 1), (0, 1))
# (x pattern, y pattern): each pattern on both sides, and the mixed sides of
# the 2-walk parts
PATTERN_PAIRS = {
    **{name: (edges, edges) for name, edges in PATTERNS.items()},
    "back-path2": (BACK, path_edges(2)),
    "path2-back": (path_edges(2), BACK),
    "back-back": (BACK, BACK),
}


@pytest.mark.parametrize("p,d", [(5, 2), (7, 2), (13, 2), (5, 3), (7, 3), (13, 3)])
def test_column_brute_matches_the_per_tuple_oracle(p, d):
    prime = make_prime(p)
    sets = [random_point_set(prime, d, size, seed) for size, seed in ((1, 0), (2, 1), (5, 2), (6, 3))]
    nulls = 0
    for E in sets:
        nulls += has_null_segment(E)
        for name, (x_edges, y_edges) in PATTERN_PAIRS.items():
            hists = [{kind: literal_histogram(E, edges, kind) for kind in SIDES}
                     for edges in (x_edges, y_edges)]
            for edges, side in zip((x_edges, y_edges), hists):
                for kind, hist in side.items():
                    assert column_histogram(E, edges, kind) == hist, (name, kind, len(E))
            for r in (1, 2, p - 1):
                for x_kind, y_kind in itertools.product(SIDES, repeat=2):
                    X, Y = hists[0][x_kind], hists[1][y_kind]
                    expected = sum(v * Y[tuple(r * t % p for t in prof)] for prof, v in X.items())
                    visits = sum(X.values()) + sum(Y.values())
                    assert brute_join(E, r, x_edges, x_kind, y_kind, visits,
                                      y_edges=y_edges) == expected, (
                        name, x_kind, y_kind, r, len(E))
    with pytest.raises(ValueError):
        brute_join(E, 1, BACK, EVERY, EVERY, 0, y_edges=path_edges(1))
    # p = 1 (mod 4) and d = 3 must reach null segments
    assert (d == 2 and p % 4 == 3) or nulls


def test_scaled_cycle_pairs_two_point():
    one = make_ratio(1, SEVEN)
    assert count_scaled_cycle_pairs(TWO_POINT, one, "brute").value == 4
    assert count_scaled_cycle_pairs(TWO_POINT, one, "mu_identity").value == 4
    single = PointSet(SEVEN, 2, [(0, 0)])
    assert count_scaled_cycle_pairs(single, one, "brute").value == 0


@pytest.mark.parametrize("p,size,d", [(3, 4, 2), (7, 5, 2), (5, 4, 2), (13, 4, 2), (3, 4, 3)],
                         ids=["3-4", "7-5", "5-4", "13-4", "3-4-d3"])
def test_cycle_pair_methods_match_oracle(p, size, d):
    prime = make_prime(p)
    nulls = 0
    for seed in range(3):
        E = random_point_set(prime, d, size, seed)
        nulls += E.norm_pair_counts.get(0, 0) > len(E)
        for r in (1, p - 1):
            ratio = make_ratio(r, prime)
            expected = raw_scaled_cycle_pairs(E, ratio.r)
            assert count_scaled_cycle_pairs(E, ratio, "brute").value == expected
            reports = cycle_pair_reports(E, ratio)
            # the census identity holds for every (p, d), null segments included
            assert [rep.method for rep in reports] == ["mu_identity", "brute"]
            assert all(rep.value == expected for rep in reports)
    # outside d = 2 with p = 3 (mod 4) the cases must include null segments
    assert (d == 2 and p % 4 == 3) or nulls


def test_ratio_quadruples_examples():
    one = make_ratio(1, SEVEN)
    assert count_ratio_quadruples(TWO_POINT, one).value == 4
    single = PointSet(SEVEN, 2, [(0, 0)])
    assert count_ratio_quadruples(single, one).value == 0


@pytest.mark.parametrize("p,size,seed", [(7, 6, 0), (11, 6, 1), (13, 6, 2)])
def test_ratio_quadruples_match_oracle(p, size, seed):
    prime = make_prime(p)
    E = random_point_set(prime, 2, size, seed)
    for r in (1, 2, p - 2):
        ratio = make_ratio(r, prime)
        assert count_ratio_quadruples(E, ratio).value == raw_ratio_quadruples(E, r)


def test_ratio_quadruples_differ_from_walk_pairs_on_null_segments():
    thirteen = make_prime(13)
    E = PointSet(thirteen, 2, [(0, 0), (5, 1)])
    ratio = make_ratio(1, thirteen)
    v = count_ratio_quadruples(E, ratio).value
    s1 = count_scaled_walk_pairs(E, ratio, 1, "walk_dp").value
    assert v == raw_ratio_quadruples(E, 1) == 0
    assert s1 == raw_scaled_walk_pairs(E, 1, 1) == 8
    assert v != s1


def test_displacement_full_plane():
    plane = full_space(make_prime(3), 2)
    ratio = make_ratio(1, make_prime(3))
    for theta in enumerate_orthogonal(2, make_prime(3)).elements[:4]:
        hist = displacement_histogram(plane, ratio, theta)
        assert set(hist.values()) == {9}
        assert len(hist) == 9


def test_displacement_histogram_needs_a_square_ratio():
    E = PointSet(SEVEN, 2, [(2, 5), (1, 3)])
    theta = so2_elements(SEVEN).elements[1]
    with pytest.raises(NotASquareRatioError, match="ratio 3 is not a nonzero square"):
        displacement_histogram(E, make_ratio(3, SEVEN), theta)


def test_displacement_single_point():
    E = PointSet(SEVEN, 2, [(2, 5)])
    ratio = make_ratio(4, SEVEN)
    theta = so2_elements(SEVEN).elements[1]
    hist = displacement_histogram(E, ratio, theta)
    assert sum(hist.values()) == 1
    (z, c), = hist.items()
    assert c == 1
    assert displacement_count(E, ratio, theta, z) == 1
    other = ((z[0] + 1) % 7, z[1])
    assert displacement_count(E, ratio, theta, other) == 0


@pytest.mark.parametrize("seed", [0, 4])
def test_displacement_total_is_square(seed):
    E = random_point_set(SEVEN, 2, 8, seed)
    ratio = make_ratio(2, SEVEN)
    for theta in so2_elements(SEVEN):
        hist = displacement_histogram(E, ratio, theta)
        assert sum(hist.values()) == len(E) ** 2


def test_displacement_histogram_matches_pointwise():
    E = random_point_set(SEVEN, 2, 6, seed=8)
    ratio = make_ratio(1, SEVEN)
    theta = so2_elements(SEVEN).elements[2]
    hist = displacement_histogram(E, ratio, theta)
    for z in itertools.product(range(7), repeat=2):
        assert displacement_count(E, ratio, theta, z) == hist.get(z, 0)


# (127, 2) is the last prime inside the bytes columns' cut d(p - 1) <= 255,
# and (131, 2) the first past it
@pytest.mark.parametrize("p,d", [(3, 3), (5, 2), (5, 3), (7, 3), (13, 2), (127, 2), (131, 2)])
def test_displacement_histogram_matches_count_at_every_z(p, d):
    prime = make_prime(p)
    ratio = make_ratio(4, prime)
    group = enumerate_orthogonal(d, prime).elements
    sets = [PointSet(prime, d, [(1,) * d]), random_point_set(prime, d, 9, seed=p)]
    if p <= 13:  # the n^2 pairs of the full space are out of reach at p = 127
        sets.append(full_space(prime, d))
    for E, theta in zip(sets, (group[1], group[len(group) // 2], group[-1])):
        hist = displacement_histogram(E, ratio, theta)
        assert sum(hist.values()) == len(E) ** 2
        for z in itertools.product(range(p), repeat=d):
            assert hist.get(z, 0) == displacement_count(E, ratio, theta, z)
        # nothing is memoised on E, least of all a cell per pair
        assert not E._cache


def test_report_helpers_cross_check():
    E = random_point_set(SEVEN, 2, 5, seed=6)
    ratio = make_ratio(2, SEVEN)
    reports = walk_pair_reports(E, ratio, 2)
    assert len({rep.value for rep in reports}) == 1
    assert {rep.method for rep in reports} == {"walk_dp", "nu_identity"}
    reports = cycle_pair_reports(E, ratio)
    assert len({rep.value for rep in reports}) == 1


def test_count_report_csv():
    rep = CountReport(name="S_2", value=4, method="brute", p=7, d=2, set_size=2, r=1, k=2)
    assert rep.csv_row() == "S_2,brute,7,2,2,1,2,4"
    assert CountReport.CSV_HEADER.split(",") == ["name", "method", "p", "d", "E_size", "r", "k", "value"]


def test_make_ratio_validation():
    with pytest.raises(ValueError):
        make_ratio(0, SEVEN)
    with pytest.raises(ValueError):
        make_ratio(7, SEVEN)
    sq = make_ratio(2, SEVEN)
    assert sq.is_square and sq.sqrt_r == 3
    non = make_ratio(3, SEVEN)
    assert not non.is_square and non.sqrt_r is None
