"""Similarity graph walks, the generic walk floor, and double-count identities."""

import itertools
from fractions import Fraction

import pytest

from dilatelab import configcount
from dilatelab.configcount import count_scaled_walk_pairs, make_ratio, path_edges
from dilatelab.errors import TooLargeError
from dilatelab.field import make_prime
from dilatelab.geometry import PointSet, random_point_set
from dilatelab.simgraph import SimilarityGraph, build_similarity_graph, ms_lower_bound
from oracles import check_incidence_double_counts, pair_collapse_fibers, scaled_pattern_pairs

SEVEN = make_prime(7)
TWO_POINT = PointSet(SEVEN, 2, [(0, 0), (1, 0)])


def walk_count_by_matrix(adj, k):
    """Walks of length k in an adjacency-matrix graph, by repeated products."""
    n = len(adj)
    vec = [1] * n
    for _ in range(k):
        vec = [sum(vec[i] for i in range(n) if adj[i][j]) for j in range(n)]
    return sum(vec)


def test_two_point_graph_shape():
    g = build_similarity_graph(TWO_POINT, make_ratio(1, SEVEN))
    assert g.vertex_count == 4
    edges = g.edges_direct()
    assert len(edges) == 2 == g.edge_count()
    # the two edges pair equal-coordinates with equal and swapped with swapped
    assert sorted(edges) == [(((0, 0)), (1, 1)), ((0, 1), (1, 0))]


def test_single_point_graph():
    g = build_similarity_graph(PointSet(SEVEN, 2, [(5, 5)]), make_ratio(2, SEVEN))
    assert g.vertex_count == 1
    assert g.edge_count() == 0
    assert g.count_walks(2) == 0


@pytest.mark.parametrize("p", [7, 11])
def test_edge_count_is_half_pair_count(p):
    prime = make_prime(p)
    for seed in range(5):
        E = random_point_set(prime, 2, 5 + seed, seed)
        for r in (1, 2, p - 1):
            ratio = make_ratio(r, prime)
            g = build_similarity_graph(E, ratio)
            s1 = count_scaled_walk_pairs(E, ratio, 1, "walk_dp").value
            assert g.edge_count() * 2 == s1
            assert len(g.edges_direct()) == g.edge_count()


@pytest.mark.parametrize("seed", [1, 2])
def test_edge_count_with_null_segments(seed):
    # at p = 13 distinct points can sit at squared distance 0, so an edge may
    # keep x and move y: 2e = S_1 + n (N_0 - n), checked on construction
    thirteen = make_prime(13)
    E = random_point_set(thirteen, 2, 6, seed)
    n = len(E)
    assert E.norm_pair_counts[0] > n
    for r in (1, 2, 12):
        ratio = make_ratio(r, thirteen)
        g = build_similarity_graph(E, ratio)
        assert 2 * g.edge_count() == g.count_walks(1) == 2 * len(g.edges_direct())
        s1 = count_scaled_walk_pairs(E, ratio, 1, "nu_identity").value
        assert 2 * g.edge_count() == s1 + n * (E.norm_pair_counts[0] - n)


def test_refused_profile_table_skips_the_construction_check(monkeypatch):
    # a set whose 1-step profile table the lane guard refuses still builds its
    # graph; only the nu_identity cross-check of the edge count is skipped
    thirteen = make_prime(13)
    E = random_point_set(thirteen, 2, 6, seed=1)
    ratio = make_ratio(2, thirteen)
    monkeypatch.setattr(configcount, "LANE_GUARD", 1)
    with pytest.raises(TooLargeError):
        count_scaled_walk_pairs(E, ratio, 1, "nu_identity")
    g = SimilarityGraph(E, ratio)
    assert 2 * g.edge_count() == 2 * len(g.edges_direct()) == g.count_walks(1)


def test_refused_construction_check_is_recorded(monkeypatch):
    # the skipped check goes to the record count --method all and verify note
    # from, under the key of the 1-step pair count it would have read
    thirteen = make_prime(13)
    ratio = make_ratio(2, thirteen)
    E = random_point_set(thirteen, 2, 6, seed=1)
    SimilarityGraph(E, ratio)
    assert configcount.refused_checks(E) == {}
    E = random_point_set(thirteen, 2, 6, seed=1)
    monkeypatch.setattr(configcount, "PROFILE_GUARD", 1)
    SimilarityGraph(E, ratio)
    (key, reason), = configcount.refused_checks(E).items()
    assert key == ("S_k", 2, 1, "nu_identity")
    assert reason.endswith("^1 profiles exceed 1 lanes")


def test_two_point_walks():
    g = build_similarity_graph(TWO_POINT, make_ratio(1, SEVEN))
    assert g.count_walks(1) == 2 * g.edge_count()
    assert g.count_walks(2) == 4  # degrees are all one


@pytest.mark.parametrize("p", [3, 7, 11])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_walks_equal_scaled_pairs(p, k):
    # p = 3 (mod 4): graph walks coincide with the scaled walk-pair count
    prime = make_prime(p)
    for seed in range(3):
        E = random_point_set(prime, 2, min(6, p * p - 1), seed)
        for r in (1, p - 1):
            ratio = make_ratio(r, prime)
            g = build_similarity_graph(E, ratio)
            assert g.count_walks(k) == count_scaled_walk_pairs(E, ratio, k, "walk_dp").value


def test_walks_equal_scaled_pairs_at_scale():
    # the equivalence also holds on a 225-vertex graph
    E = random_point_set(SEVEN, 2, 15, seed=15)
    for r in (1, 5):
        ratio = make_ratio(r, SEVEN)
        g = build_similarity_graph(E, ratio)
        for k in (2, 3):
            assert g.count_walks(k) == count_scaled_walk_pairs(E, ratio, k, "walk_dp").value


def test_walks_match_matrix_power_oracle():
    prime = make_prime(13)  # includes null segments; graph rule still total
    E = PointSet(prime, 2, [(0, 0), (5, 1), (2, 3), (1, 1)])
    ratio = make_ratio(2, prime)
    g = build_similarity_graph(E, ratio)
    n = len(E) ** 2
    vertices = [(i, j) for i in range(len(E)) for j in range(len(E))]
    adj = [[g.adjacent(a, b) for b in vertices] for a in vertices]
    for k in (1, 2, 3):
        assert g.count_walks(k) == walk_count_by_matrix(adj, k)


def test_graph_guard(monkeypatch):
    # the graph is never materialised, so no size refuses it; only the edge
    # scan is guarded, past BRUTE_GUARD vertex pairs: 37^2 points' 936,396
    # pairs are admitted and 38^2 points' 1,041,846 refused before any is read
    prime = make_prime(331)
    g = SimilarityGraph(PointSet(prime, 2, [(i, 0) for i in range(331)]), make_ratio(1, prime))
    assert g.count_walks(1) == 2 * g.edge_count()
    g = build_similarity_graph(random_point_set(make_prime(11), 2, 38, seed=0),
                               make_ratio(1, make_prime(11)))

    def never(*args):
        raise AssertionError("the guard must refuse before the scan")

    monkeypatch.setattr(SimilarityGraph, "adjacent", never)
    with pytest.raises(TooLargeError, match="1041846 vertex pairs"):
        g.edges_direct()


def test_ms_bound_examples():
    assert ms_lower_bound(3, 3, 2) == 12  # triangle, tight
    assert ms_lower_bound(5, 0, 3) == 0
    assert ms_lower_bound(4, 2, 2) == 4


def test_ms_bound_on_all_five_vertex_graphs():
    """Walk count >= (2e)^k / n^(k-1) on every 5-vertex graph; tight iff regular."""
    n = 5
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [[0] * n for _ in range(n)]
        e = 0
        for bit, (i, j) in enumerate(pairs):
            if mask >> bit & 1:
                adj[i][j] = adj[j][i] = 1
                e += 1
        degrees = [sum(row) for row in adj]
        regular = len(set(degrees)) == 1
        for k in (2, 3, 4):
            walks = walk_count_by_matrix(adj, k)
            bound = ms_lower_bound(n, e, k)
            assert Fraction(walks) >= bound
            assert (Fraction(walks) == bound) == regular


def test_ms_bound_on_two_point_graph():
    g = build_similarity_graph(TWO_POINT, make_ratio(1, SEVEN))
    walks = g.count_walks(2)
    assert Fraction(walks) >= ms_lower_bound(g.vertex_count, g.edge_count(), 2)
    assert walks == 4 and ms_lower_bound(4, 2, 2) == 4


@pytest.mark.parametrize("p", [7, 11])
def test_walk_floor_from_edge_count(p):
    # |S_k| is at least |S_1|^k / |E|^(2k-2) when walks and pairs coincide
    prime = make_prime(p)
    for seed in range(5):
        E = random_point_set(prime, 2, 6 + seed % 3, seed)
        for r in (1, 2, p - 1):
            ratio = make_ratio(r, prime)
            s1 = count_scaled_walk_pairs(E, ratio, 1, "walk_dp").value
            for k in (2, 3):
                sk = count_scaled_walk_pairs(E, ratio, k, "walk_dp").value
                assert Fraction(sk) >= Fraction(s1**k, len(E) ** (2 * k - 2))


def assert_double_counts(E, ratio):
    # both identities, each with its convexity floor; returns the numbers
    pair_side, corner, s1, s2, c_count = check_incidence_double_counts(E, ratio)
    n = len(E)
    assert pair_side == 4 * s2
    assert corner == c_count
    assert Fraction(pair_side) >= Fraction((2 * s1) ** 2, n**2)
    assert Fraction(corner) >= Fraction(s2**2, n**4)
    return pair_side, corner, s1, s2, c_count


def test_double_counts_two_point():
    pair_side, _, _, s2, _ = assert_double_counts(TWO_POINT, make_ratio(1, SEVEN))
    assert pair_side == 16 == 4 * s2


def test_double_counts_single_point():
    pair_side, corner, _, s2, c_count = assert_double_counts(
        PointSet(SEVEN, 2, [(0, 0)]), make_ratio(1, SEVEN))
    assert pair_side == 0 == 4 * s2
    assert corner == 0 == c_count


@pytest.mark.parametrize("p", [3, 7])
def test_double_counts_random(p):
    prime = make_prime(p)
    for seed in range(5):
        E = random_point_set(prime, 2, 5, seed)
        for r in (1, p - 1):
            assert_double_counts(E, make_ratio(r, prime))


def test_double_counts_with_null_segments():
    # the two identities are residue-free; check one p = 1 (mod 4) instance
    thirteen = make_prime(13)
    E = PointSet(thirteen, 2, [(0, 0), (5, 1), (2, 3), (1, 1)])
    assert_double_counts(E, make_ratio(2, thirteen))


def test_edge_list_export(tmp_path):
    g = build_similarity_graph(TWO_POINT, make_ratio(1, SEVEN))
    path = tmp_path / "edges.txt"
    g.export_edges(path)
    lines = sorted(path.read_text().splitlines())
    assert lines == ["0,0|0,0 1,0|1,0", "0,0|1,0 1,0|0,0"]


@pytest.mark.parametrize("p", [3, 7])
def test_collapse_fibers_are_exactly_four(p):
    prime = make_prime(p)
    for seed in range(3):
        E = random_point_set(prime, 2, 5, seed)
        for r in (1, 2):
            ratio = make_ratio(r, prime)
            fibers = pair_collapse_fibers(E, ratio)
            targets = {xs + ys for xs, ys in scaled_pattern_pairs(E, r, path_edges(2))}
            assert set(fibers) == targets
            assert all(v == 4 for v in fibers.values())
