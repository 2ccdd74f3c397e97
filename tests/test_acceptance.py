"""Acceptance suite: one test per criterion, exact arithmetic throughout.

The shared instance family (seeded random sets with |E| <= 10 over p in
{3, 7, 11}, one ratio each) is built once; the counting criteria all read
from it so cross-method agreement, the bookkeeping identities, and the
inequality checks run against identical instances.
"""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dilatelab.configcount import (
    CYCLE_EDGES,
    count_scaled_cycle_pairs,
    count_scaled_walk_pairs,
    make_ratio,
    path_edges,
)
from dilatelab.families import (
    classify_two_path_pairs,
    clique_edges,
    find_clique_pair_witness,
    find_cycle_pair_witness,
    four_cycle_families,
    simplex_bound_group_sum,
    two_path_parts_closed_form,
    validate_pattern_pair,
)
from dilatelab.field import make_prime
from dilatelab.geometry import (
    full_space,
    quotient_set,
    random_point_set,
    sphere_points,
    sphere_size_formula,
)
from dilatelab.orthogonal import enumerate_orthogonal, order_formula, so2_elements
from dilatelab.simgraph import SimilarityGraph, ms_lower_bound
from dilatelab.configcount import displacement_histogram
from dilatelab.verify import exceeds_4_sqrt3_p32, run_claim
from oracles import (
    all_equal_slice_direct,
    check_incidence_double_counts,
    displacement_slice_direct,
    pair_collapse_fibers,
    scaled_pattern_pairs,
    shared_displacement_counts,
    shared_displacement_counts_direct,
)

THREE = make_prime(3)
SEVEN = make_prime(7)
ELEVEN = make_prime(11)


def build_family():
    """108 seeded (E, r) instances: 36 per prime, sizes cycling, all ratios hit."""
    plan = [
        (THREE, [2, 3, 4, 5, 6, 7]),
        (SEVEN, [2, 3, 4, 5, 6, 7, 8, 9, 10]),
        (ELEVEN, [2, 3, 4, 5, 6, 7, 8, 9, 10]),
    ]
    instances = []
    for prime, sizes in plan:
        for i in range(36):
            size = sizes[i % len(sizes)]
            r = 1 + i % (prime.p - 1)
            E = random_point_set(prime, 2, size, f"family:{prime.p}:{i}")
            instances.append((E, make_ratio(r, prime)))
    return instances


@pytest.fixture(scope="module")
def family():
    """The criterion-4 instances with every count precomputed once."""
    out = []
    for E, ratio in build_family():
        counts = {}
        for k in (1, 2, 3):
            counts[f"s{k}"] = {
                method: count_scaled_walk_pairs(E, ratio, k, method).value
                for method in ("walk_dp", "nu_identity", "brute")
            }
        counts["c"] = {
            method: count_scaled_cycle_pairs(E, ratio, method).value
            for method in ("mu_identity", "brute")
        }
        out.append(
            SimpleNamespace(
                E=E,
                ratio=ratio,
                counts=counts,
                fams=four_cycle_families(E, ratio),
                parts=classify_two_path_pairs(E, ratio),
            )
        )
    return out


def test_criterion_01_sphere_formula():
    """Enumerated sphere sizes equal the closed form on six (d, p) grids."""
    for d, p in [(2, 3), (2, 7), (2, 11), (2, 19), (4, 3), (4, 5)]:
        prime = make_prime(p)
        total = 0
        for t in range(p):
            enumerated = len(sphere_points(t, d, prime))
            assert enumerated == sphere_size_formula(t, d, prime), (d, p, t)
            if d == 2 and p % 4 == 3 and t != 0:
                assert enumerated == p + 1
            total += enumerated
        assert total == p**d


def test_criterion_02_orthogonal_orders():
    """Brute-enumerated group orders match the closed forms."""
    for p in (3, 7, 11):
        assert len(enumerate_orthogonal(2, make_prime(p))) == 2 * (p + 1)
        assert order_formula("even_minus", 1, make_prime(p)) == 2 * (p + 1)
    for p in (5, 13):
        assert len(enumerate_orthogonal(2, make_prime(p))) == 2 * (p - 1)
        assert order_formula("even_plus", 1, make_prime(p)) == 2 * (p - 1)
    for p in (3, 5):
        assert len(enumerate_orthogonal(3, make_prime(p))) == 2 * p * (p * p - 1)
        assert order_formula("odd", 1, make_prime(p)) == 2 * p * (p * p - 1)


def test_criterion_03_rotation_recovery():
    """Every valid (u, v, r) has exactly one recovering rotation, found twice."""
    from dilatelab.orthogonal import rotation_from_pair, scaled_apply
    from dilatelab.geometry import norm_of

    for p in (7, 11):
        prime = make_prime(p)
        rotations = so2_elements(prime)
        ratios = {r: make_ratio(r, prime) for r in range(1, p)}
        vectors = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
        checked = 0
        for u in vectors:
            nu = norm_of(u, p)
            for v in vectors:
                r = nu * pow(norm_of(v, p), -1, p) % p
                ratio = ratios[r]
                if not ratio.is_square:
                    continue
                theta = rotation_from_pair(u, v, ratio, prime)
                assert theta.det == 1
                assert scaled_apply(theta, ratio.sqrt_r, v, p) == u
                matches = [
                    m for m in rotations if scaled_apply(m, ratio.sqrt_r, v, p) == u
                ]
                assert len(matches) == 1 and matches[0].entries == theta.entries
                checked += 1
        assert checked == (p * p - 1) ** 2 // 2


def test_criterion_04_cross_method_counting(family):
    """Three routes for walk pairs and three for cycle pairs agree everywhere."""
    assert len(family) >= 100
    assert all(len(inst.E) <= 10 for inst in family)
    for inst in family:
        for k in (1, 2, 3):
            values = set(inst.counts[f"s{k}"].values())
            assert len(values) == 1, (inst.E, inst.ratio, k, inst.counts)
        c_values = set(inst.counts["c"].values()) | {inst.fams.total}
        assert len(c_values) == 1, (inst.E, inst.ratio, inst.counts)


def test_criterion_05_exact_identities(family):
    """Bookkeeping identities hold exactly on the whole instance family."""
    for inst in family:
        E, ratio = inst.E, inst.ratio
        n = len(E)
        s1 = inst.counts["s1"]["walk_dp"]
        s2 = inst.counts["s2"]["walk_dp"]

        # degenerate two-path parts: closed forms match the classification
        a, b, ab = two_path_parts_closed_form(E, ratio)
        parts = inst.parts
        assert (a, b, ab) == (parts.x_coincide, parts.y_coincide, parts.both_coincide)
        assert ab == s1
        # inclusion-exclusion for the open pairs
        assert parts.open_pairs == s2 + s1 - a - b
        assert parts.total == s2

        # edge count of the pair graph
        graph = SimilarityGraph(E, ratio)
        assert 2 * graph.edge_count() == s1

        # the cycle-pair set splits into the distinct family and the union
        fams = inst.fams
        assert fams.decomposition_exact
        assert fams.total == fams.fully_distinct + fams.degenerate_union

        # displacement identities need a square ratio
        if not ratio.is_square:
            continue
        group = enumerate_orthogonal(2, E.prime)
        third_moments = 0
        shared_totals = 0
        for theta in group:
            hist = displacement_histogram(E, ratio, theta)
            square_moment = sum(c * c for c in hist.values())
            total, distinct = shared_displacement_counts(E, ratio, theta)
            direct_total, direct_distinct = shared_displacement_counts_direct(
                E, ratio, theta
            )
            assert total == direct_total
            # inclusion-exclusion in the plane: distinct-source tuples
            assert direct_distinct == total - 3 * square_moment + 2 * n**2
            assert distinct == direct_distinct
            # each equal-source slice is the square moment
            for k_, l_ in ((0, 1), (0, 2), (1, 2)):
                assert displacement_slice_direct(E, ratio, theta, k_, l_) == square_moment
            assert all_equal_slice_direct(E, ratio, theta) == n**2
            third_moments += sum(c**3 for c in hist.values())
            shared_totals += total
        # summing per-rotation totals equals the group third moment
        assert shared_totals == third_moments


def test_criterion_05_supplement_3d_slices():
    """The slice and power-sum identities also hold for a 3-d instance."""
    E = random_point_set(THREE, 3, 6, seed="slice3d")
    ratio = make_ratio(1, THREE)
    group = enumerate_orthogonal(3, THREE)
    for theta in group.elements[::8]:  # every 8th of the 48 rotations
        hist = displacement_histogram(E, ratio, theta)
        cube_moment = sum(c**3 for c in hist.values())
        total, distinct = shared_displacement_counts(E, ratio, theta)
        direct_total, direct_distinct = shared_displacement_counts_direct(E, ratio, theta)
        assert (total, distinct) == (direct_total, direct_distinct)
        for k_, l_ in itertools.combinations(range(4), 2):
            assert displacement_slice_direct(E, ratio, theta, k_, l_) == cube_moment
        assert all_equal_slice_direct(E, ratio, theta) == len(E) ** 2


def test_criterion_06_inequalities(family):
    """The catalog inequalities hold on every family instance, all ratios."""
    seen_nonsquare = 0
    for inst in family:
        E, ratio = inst.E, inst.ratio
        p = E.prime.p
        seen_nonsquare += not ratio.is_square

        v22 = run_claim("lemma2.2", E, ratio)
        assert v22.hypothesis_met and v22.conclusion_holds

        v23 = run_claim("lemma2.3", E, ratio)
        assert v23.conclusion_holds

        v24 = run_claim("lemma2.4", E, ratio)
        assert v24.conclusion_holds

        v26 = run_claim("lemma2.6", E)
        assert v26.conclusion_holds

        v42 = run_claim("lemma4.2", E, ratio)
        assert v42.hypothesis_met and v42.conclusion_holds
        s2 = inst.counts["s2"]["walk_dp"]
        for value in (inst.fams.x13, inst.fams.x24, inst.fams.y13, inst.fams.y24):
            assert s2 <= value <= (p + 1) * s2
    assert seen_nonsquare > 0  # the family genuinely exercises nonsquare ratios


def test_criterion_07_path_pairs_at_threshold():
    """200 seeded sets of 20 points over p=7: open path pairs for every ratio."""
    for i in range(200):
        E = random_point_set(SEVEN, 2, 20, f"c7:{i}")
        for r in range(1, 7):
            ratio = make_ratio(r, SEVEN)
            verdict = run_claim("T1.5", E, ratio)
            assert verdict.hypothesis_met
            assert verdict.conclusion_holds, (i, r)
            xs, ys = verdict.params["witness"]
            assert validate_pattern_pair(E, r, path_edges(2), xs, ys)


def test_criterion_08_triangles_and_simplexes():
    """Triangle pairs at 3p points (square ratios), and the 3-d simplex case."""
    for i in range(100):
        E = random_point_set(SEVEN, 2, 21, f"c8:{i}")
        for r in (1, 2, 4):
            ratio = make_ratio(r, SEVEN)
            verdict = run_claim("T1.7", E, ratio)
            assert verdict.hypothesis_met
            assert verdict.conclusion_holds, (i, r)
            us, vs = verdict.params["witness"]
            assert validate_pattern_pair(E, r, clique_edges(3), vs, us)

    cube = full_space(THREE, 3)
    ratio = make_ratio(1, THREE)
    verdict = run_claim("T1.8", cube, ratio)
    assert verdict.hypothesis_met and verdict.conclusion_holds
    witness = find_clique_pair_witness(cube, ratio, 4)
    assert witness is not None
    us, vs = witness
    assert validate_pattern_pair(cube, 1, clique_edges(4), vs, us)
    table = enumerate_orthogonal(3, THREE)
    assert len(table) == 48
    assert simplex_bound_group_sum(cube, ratio) > 0


def test_criterion_09_walk_pair_floor():
    """50 seeded 15-point sets: the 3-step count beats 15^8 / 21^3 exactly."""
    rhs = Fraction(15**8, 21**3)
    for i in range(50):
        E = random_point_set(SEVEN, 2, 15, f"c9:{i}")
        for r in range(1, 7):
            verdict = run_claim("T1.10", E, make_ratio(r, SEVEN), k=3)
            assert verdict.hypothesis_met
            assert verdict.rhs == rhs
            assert verdict.conclusion_holds, (i, r)


def test_criterion_10_four_cycle_claim_vacuous_but_true():
    """The 4-cycle size hypothesis cannot be met for p <= 47; cycles still exist."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        # integer certificate: the threshold is at least the whole plane
        assert 48 * p**3 >= p**4
        assert not exceeds_4_sqrt3_p32(p * p, p)

    for p in (3, 7):
        prime = make_prime(p)
        plane = full_space(prime, 2)
        ratio = make_ratio(1, prime)
        verdict = run_claim("T1.6", plane, ratio)
        assert verdict.status == "VACUOUS"
        assert verdict.conclusion_holds  # witness exists regardless
        witness = find_cycle_pair_witness(plane, ratio)
        assert witness is not None and validate_pattern_pair(plane, 1, CYCLE_EDGES, *witness)


def test_criterion_11_walk_floor_all_graphs(family):
    """The (2e)^k / n^(k-1) floor on all 1024 graphs, tight exactly when regular;
    and the induced pair-count floor on the instance family."""
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
        vec0 = [1] * n
        for k in (2, 3, 4):
            vec = vec0
            for _ in range(k):
                vec = [sum(vec[i] for i in range(n) if adj[i][j]) for j in range(n)]
            walks = sum(vec)
            bound = ms_lower_bound(n, e, k)
            assert Fraction(walks) >= bound
            assert (Fraction(walks) == bound) == regular

    for inst in family:
        n_pts = len(inst.E)
        s1 = inst.counts["s1"]["walk_dp"]
        for k in (2, 3):
            sk = inst.counts[f"s{k}"]["walk_dp"]
            assert Fraction(sk) >= Fraction(s1**k, n_pts ** (2 * k - 2))


def test_criterion_12_quotient_sets():
    """Distance quotients fill the whole field on the dense instances."""
    for p in (3, 7, 11):
        plane = full_space(make_prime(p), 2)
        assert quotient_set(plane) == frozenset(range(p))
    space = full_space(THREE, 4)
    assert len(space) == 81  # exactly 9 * 3^(4/2): the hypothesis is met
    verdict = run_claim("quotient", space)
    assert verdict.hypothesis_met
    assert verdict.conclusion_holds
    assert quotient_set(space) == frozenset(range(3))


def test_criterion_13_double_count_constructions():
    """Factor-4 collapse fibers and the corner double count, exhaustively."""
    for p in (3, 7):
        prime = make_prime(p)
        for i in range(8):
            size = 2 + i % 5  # sizes 2..6
            E = random_point_set(prime, 2, size, f"c13:{p}:{i}")
            for r in (1, 2, p - 1):
                ratio = make_ratio(r, prime)
                fibers = pair_collapse_fibers(E, ratio)
                targets = {xs + ys for xs, ys in scaled_pattern_pairs(E, r, path_edges(2))}
                assert set(fibers) == targets
                assert all(v == 4 for v in fibers.values())
                pair_side, corner, s1, s2, c_count = check_incidence_double_counts(E, ratio)
                assert pair_side == 4 * s2
                assert corner == c_count
                assert Fraction(pair_side) >= Fraction((2 * s1) ** 2, size**2)
                assert Fraction(corner) >= Fraction(s2**2, size**4)
