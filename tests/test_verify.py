"""Claim verdicts: exact thresholds, conclusions, and scan machinery."""

import concurrent.futures
import itertools
import math
import os
from fractions import Fraction

import pytest

from dilatelab import verify
from dilatelab import cli, configcount, families
from dilatelab.configcount import CYCLE_EDGES, make_ratio
from dilatelab.families import FAMILIES, FAMILY_FOUR_CYCLE, validate_pattern_pair
from dilatelab.field import inverse, make_prime
from dilatelab.geometry import PointSet, full_space, random_point_set
from dilatelab.verify import (
    CLAIM_NAMES,
    _scan_cell,
    _scan_ratios,
    exceeds_4_sqrt3_p32,
    exceeds_sqrt3_plus_one,
    meets_family_size,
    meets_simplex_size,
    meets_quotient_size,
    ratios_for_policy,
    run_claim,
    scan_threshold,
    smallest_size_meeting,
)

SEVEN = make_prime(7)
TWO_POINT = PointSet(SEVEN, 2, [(0, 0), (1, 0)])


# ---------------------------------------------------------------------------
# exact threshold arithmetic


@pytest.mark.parametrize("p", [3, 7, 11, 19, 31])
def test_sqrt3_plus_one_matches_float(p):
    for n in range(1, 4 * p):
        assert exceeds_sqrt3_plus_one(n, p) == (n > (math.sqrt(3) + 1) * p)


@pytest.mark.parametrize("p", [3, 7, 11])
def test_4sqrt3_matches_float(p):
    for n in range(1, 60 * p):
        assert exceeds_4_sqrt3_p32(n, p) == (n > 4 * math.sqrt(3) * p**1.5)


def test_4sqrt3_unsatisfiable_at_desk_scale():
    # the threshold exceeds the whole plane for p <= 47: 48 p^3 >= p^4
    for p in [3, 7, 11, 19, 23, 31, 43, 47]:
        assert not exceeds_4_sqrt3_p32(p * p, p)
        assert 48 * p**3 >= p**4


@pytest.mark.parametrize("p,d", [(3, 2), (7, 2), (3, 3), (5, 3), (3, 4)])
def test_simplex_threshold_matches_float(p, d):
    for n in range(1, min(p**d, 500) + 1):
        assert meets_simplex_size(n, p, d) == (n >= (d + 1) * p ** (d / 2) - 1e-9)


def test_quotient_threshold_examples():
    assert not meets_quotient_size(49, 7, 2)  # needs 63
    assert meets_quotient_size(81, 3, 4)  # exactly 9 * 9
    assert not meets_quotient_size(80, 3, 4)


def test_smallest_size_meeting():
    assert smallest_size_meeting("C2path", SEVEN, 2, "all") == 20
    assert smallest_size_meeting("T_triangle", SEVEN, 2, "squares") == 21
    assert smallest_size_meeting("T_triangle", SEVEN, 2, "r=3") is None  # 3 is no square
    assert smallest_size_meeting("F4cycle", SEVEN, 2, "all") is None  # beyond the plane
    assert smallest_size_meeting("P_simplex", make_prime(3), 3, "squares") == 21


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_smallest_size_meeting_is_the_first_size_of_a_linear_scan(p, d):
    # the bisection against trying every size in turn, the hypothesis at
    # every ratio of the policy
    prime = make_prime(p)
    for family, policy in itertools.product(FAMILIES, ("all", "squares", "r=2")):
        hypothesis = verify.CLAIMS[FAMILIES[family].claim].hypothesis
        ratios = ratios_for_policy(policy, prime)
        linear = next((n for n in range(1, p**d + 1)
                       if all(hypothesis(n, p, d, ratio.is_square) for ratio in ratios)), None)
        assert smallest_size_meeting(family, prime, d, policy) == linear, (family, p, d, policy)
        squares = {ratio.is_square for ratio in ratios}
        assert meets_family_size(family, p**d, p, d, squares) == (linear is not None)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_claim_hypothesis_is_monotone_in_the_set_size(p, d):
    # the scans bisect the sizes, so once met a hypothesis stays met
    for name, claim in verify.CLAIMS.items():
        for square in [None] if name in verify.RATIO_FREE_CLAIMS else [True, False]:
            met = [claim.hypothesis(n, p, d, square) for n in range(1, p**d + 1)]
            assert met == sorted(met), (name, p, d, square)
            assert all(isinstance(m, bool) for m in met)


# ---------------------------------------------------------------------------
# lemma claims


def test_lemma22_full_plane():
    plane = full_space(SEVEN, 2)
    verdict = run_claim("lemma2.2", plane, make_ratio(1, SEVEN))
    assert verdict.hypothesis_met and verdict.conclusion_holds
    assert verdict.lhs == 6 * (49 * 8) ** 2  # every nonzero step count is 49 * 8
    assert verdict.status == "HOLDS"


def test_lemma22_single_point():
    verdict = run_claim("lemma2.2", PointSet(SEVEN, 2, [(1, 1)]), make_ratio(2, SEVEN))
    assert verdict.conclusion_holds  # 0 >= negative right side
    assert verdict.lhs == 0 and verdict.rhs < 0


@pytest.mark.parametrize("p", [7, 11])
def test_lemma22_random(p):
    prime = make_prime(p)
    for seed in range(10):
        E = random_point_set(prime, 2, 5 + seed, seed)
        for r in range(1, p):
            assert not run_claim("lemma2.2", E, make_ratio(r, prime)).contradicts_catalog


def test_lemma23_examples():
    verdict = run_claim("lemma2.3", TWO_POINT, make_ratio(1, SEVEN))
    assert verdict.lhs == verdict.rhs == 16  # equality on the two-point set
    assert verdict.conclusion_holds
    single = PointSet(SEVEN, 2, [(0, 0)])
    assert run_claim("lemma2.3", single, make_ratio(1, SEVEN)).conclusion_holds


@pytest.mark.parametrize("p", [7, 11])
def test_lemma23_random_including_nonsquares(p):
    prime = make_prime(p)
    for seed in range(8):
        E = random_point_set(prime, 2, 4 + seed % 6, seed)
        for r in range(1, p):
            verdict = run_claim("lemma2.3", E, make_ratio(r, prime))
            assert verdict.hypothesis_met and verdict.conclusion_holds


def test_lemma24_examples():
    verdict = run_claim("lemma2.4", TWO_POINT, make_ratio(1, SEVEN))
    assert verdict.lhs == 64 and verdict.rhs == 16
    assert verdict.conclusion_holds


@pytest.mark.parametrize("p", [7, 11])
def test_lemma24_random(p):
    prime = make_prime(p)
    for seed in range(5):
        E = random_point_set(prime, 2, 4 + seed, seed)
        for r in (1, 2, p - 1):
            assert run_claim("lemma2.4", E, make_ratio(r, prime)).conclusion_holds


def test_lemma26_random():
    # lhs is the least margin over all p^2 profile pairs, listed or not; the
    # full spaces have every residue as a distance
    sets = [random_point_set(make_prime(p), d, min(6 + seed, p**d), seed)
            for p, d, seed in itertools.product((5, 7), (1, 2, 3), range(3))]
    sets += [full_space(make_prime(3), 2), full_space(make_prime(3), 3),
             full_space(make_prime(5), 2)]
    for E in sets:
        p, d = E.prime.p, E.d
        verdict = run_claim("lemma2.6", E)
        assert verdict.conclusion_holds
        D = E.dist_table
        one = [sum(row.count(t) for row in D) for t in range(p)]
        two = {(s, t): sum(D[a][b] == s and D[b][c] == t
                           for a, b, c in itertools.product(range(len(E)), repeat=3))
               for s in range(p) for t in range(p)}
        assert verdict.lhs == min(len(E) * one[s] - two[s, t] for s, t in two), (p, d, len(E))


def test_claims_of_a_large_field_hold_no_entry_per_residue():
    # lemma2.6 and the odd-d quotient claim on three points at p = 1000003
    # neither loop over the field nor build a set of its squares
    import tracemalloc

    E = random_point_set(make_prime(1000003), 3, 3, seed=0)
    E.dist_table
    tracemalloc.start()
    try:
        verdicts = []
        for claim in ("lemma2.6", "quotient"):
            tracemalloc.reset_peak()
            verdicts.append(run_claim(claim, E))
            assert tracemalloc.get_traced_memory()[1] < 1 << 20, claim
    finally:
        tracemalloc.stop()
    assert [v.conclusion_holds for v in verdicts] == [True, False]
    assert verdicts[1].rhs == (1000003 + 1) // 2


def test_random_instances_take_the_policy_ratios_in_turn():
    # instance i takes ratio i of the policy, cyclically; "all" is not listed
    import tracemalloc

    for policy in ("all", "squares", "r=5"):
        ratios = ratios_for_policy(policy, SEVEN)
        drawn = [ratio for _, ratio in verify.random_instances(SEVEN, 2, 8, [3], 0, policy)]
        assert drawn == [ratios[i % len(ratios)] for i in range(8)], policy
    prime = make_prime(100003)
    tracemalloc.start()
    try:
        drawn = [ratio.r for _, ratio in verify.random_instances(prime, 2, 3, [3], 0, "all")]
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert drawn == [1, 2, 3]


def test_lemma42_random():
    for seed in range(4):
        E = random_point_set(SEVEN, 2, 7, seed)
        for r in (1, 3):
            verdict = run_claim("lemma4.2", E, make_ratio(r, SEVEN))
            assert verdict.hypothesis_met and verdict.conclusion_holds


# ---------------------------------------------------------------------------
# theorems


def test_t15_at_threshold_size():
    # 20 > (sqrt(3) + 1) * 7 = 19.12..; conclusion must hold for every r
    for seed in range(5):
        E = random_point_set(SEVEN, 2, 20, seed)
        for r in range(1, 7):
            verdict = run_claim("T1.5", E, make_ratio(r, SEVEN))
            assert verdict.hypothesis_met
            assert verdict.conclusion_holds
            assert "witness" in verdict.params


def test_t15_below_threshold_is_vacuous():
    E = random_point_set(SEVEN, 2, 19, 0)
    verdict = run_claim("T1.5", E, make_ratio(1, SEVEN))
    assert not verdict.hypothesis_met
    assert verdict.status == "VACUOUS"
    assert verdict.conclusion_holds is not None  # still evaluated


def test_t16_vacuous_with_certificate():
    plane = full_space(SEVEN, 2)
    verdict = run_claim("T1.6", plane, make_ratio(1, SEVEN))
    assert not verdict.hypothesis_met  # 49^2 = 2401 <= 48 * 343 = 16464
    assert verdict.status == "VACUOUS"
    assert verdict.conclusion_holds  # the full plane still has the cycles


def test_t17_at_threshold():
    for seed in range(3):
        E = random_point_set(SEVEN, 2, 21, seed)
        for r in (1, 2, 4):
            verdict = run_claim("T1.7", E, make_ratio(r, SEVEN))
            assert verdict.hypothesis_met and verdict.conclusion_holds


def test_t17_nonsquare_ratio_is_vacuous():
    E = random_point_set(SEVEN, 2, 21, 0)
    verdict = run_claim("T1.7", E, make_ratio(3, SEVEN))
    assert not verdict.hypothesis_met


def test_t18_cube():
    three = make_prime(3)
    cube = full_space(three, 3)
    verdict = run_claim("T1.8", cube, make_ratio(1, three))
    assert verdict.hypothesis_met  # 27 >= 4 * 3^1.5 = 20.78..
    assert verdict.conclusion_holds


def test_t110_conclusion_exact():
    for seed in range(3):
        E = random_point_set(SEVEN, 2, 15, seed)
        for r in (1, 3, 6):
            verdict = run_claim("T1.10", E, make_ratio(r, SEVEN), k=3)
            assert verdict.hypothesis_met  # 15 > 14
            assert verdict.conclusion_holds
            assert verdict.rhs == Fraction(15**8, 21**3)


def test_t110_small_set_vacuous():
    E = random_point_set(SEVEN, 2, 14, 0)
    verdict = run_claim("T1.10", E, make_ratio(1, SEVEN), k=2)
    assert not verdict.hypothesis_met


# ---------------------------------------------------------------------------
# quotient containment


def test_quotient_full_planes():
    for p in (3, 7, 11):
        plane = full_space(make_prime(p), 2)
        verdict = run_claim("quotient", plane)
        assert verdict.conclusion_holds
        # 9 * p > p^2 for p < 9, so only p = 11+ could ever meet the bound;
        # 121 < 9 * 11 = 99 is false: 121 >= 99, so p = 11 meets it
        assert verdict.hypothesis_met == (p * p >= 9 * p)


def test_quotient_f3_dimension_4():
    three = make_prime(3)
    space = full_space(three, 4)
    verdict = run_claim("quotient", space)
    assert verdict.hypothesis_met  # 81 = 9 * 3^2 exactly
    assert verdict.conclusion_holds


def test_quotient_single_point():
    verdict = run_claim("quotient", PointSet(SEVEN, 2, [(0, 0)]))
    assert not verdict.hypothesis_met
    assert verdict.conclusion_holds is False
    assert verdict.status == "VACUOUS"


def test_quotient_odd_dimension_squares():
    three = make_prime(3)
    cube = full_space(three, 3)
    verdict = run_claim("quotient", cube)
    assert verdict.hypothesis_met == (27 * 27 >= 36 * 27)
    assert verdict.conclusion_holds  # squares of the field appear


# ---------------------------------------------------------------------------
# dispatch, scans


def test_run_claim_dispatch():
    ratio = make_ratio(1, SEVEN)
    for name in CLAIM_NAMES:
        verdict = run_claim(name, TWO_POINT, ratio)
        assert verdict.claim == name
        assert not verdict.contradicts_catalog
    with pytest.raises(ValueError):
        run_claim("nonsense", TWO_POINT, ratio)


def test_claim_and_family_tables_list_the_catalog():
    assert CLAIM_NAMES == ("lemma2.2", "lemma2.3", "lemma2.4", "lemma2.6", "lemma4.2",
                           "T1.5", "T1.6", "T1.7", "T1.8", "T1.10", "quotient")
    # each family's existence theorem, in catalog order
    assert [row.claim for row in FAMILIES.values()] == ["T1.5", "T1.6", "T1.7", "T1.8"]


def test_claims_and_scans_call_the_finders_bound_in_families(monkeypatch):
    # each family row looks its finder up in the globals of families per
    # call, so a rebinding there (a test double, a timing span) is the one
    # that runs
    calls = []

    def sentinel(name, witness):
        def find(E, ratio, m):
            calls.append((name, ratio.r, m))
            return witness
        return find

    found = object()
    monkeypatch.setattr(families, "find_path_pair_witness", sentinel("path", found))
    monkeypatch.setattr(families, "find_clique_pair_witness", sentinel("clique", found))
    E = full_space(SEVEN, 2)
    assert run_claim("T1.5", E, make_ratio(2, SEVEN)).params["witness"] is found
    assert run_claim("T1.7", E, make_ratio(2, SEVEN)).params["witness"] is found
    assert calls == [("path", 2, 2), ("clique", 2, 3)]
    # the whole plane has witnesses of both families, which a scan cell at
    # r = 1 (its own inverse, so not revalidated) misses with finders that find none
    calls.clear()
    monkeypatch.setattr(families, "find_path_pair_witness", sentinel("path", None))
    monkeypatch.setattr(families, "find_clique_pair_witness", sentinel("clique", None))
    assert _scan_cell((7, 2, "C2path", "r=1", 49, 0, 1)) == (49, 0, False)
    assert _scan_cell((7, 2, "T_triangle", "r=1", 49, 0, 1)) == (49, 0, False)
    assert calls == [("path", 1, 2), ("clique", 1, 3)]


def test_verdict_serialization():
    verdict = run_claim("lemma2.3", TWO_POINT, make_ratio(1, SEVEN))
    row = verdict.csv_row()
    assert row.startswith("lemma2.3,7,2,2,1,")
    assert "HOLDS" in row
    d = verdict.json_dict()
    assert d["status"] == "HOLDS" and d["lhs"] == "16"


def test_ratios_for_policy():
    assert [r.r for r in ratios_for_policy("all", SEVEN)] == [1, 2, 3, 4, 5, 6]
    assert [r.r for r in ratios_for_policy("squares", SEVEN)] == [1, 2, 4]
    assert [r.r for r in ratios_for_policy("r=5", SEVEN)] == [5]
    with pytest.raises(ValueError):
        ratios_for_policy("weird", SEVEN)


def test_scan_threshold_small():
    result = scan_threshold(SEVEN, 2, "C2path", "r=1", sizes=range(2, 8), samples=4, seed=9)
    assert result.sizes == (2, 3, 4, 5, 6, 7)
    assert len(result.fractions) == 6
    assert all(0 <= f <= 1 for f in result.fractions)
    assert result.fractions[0] == 0  # two points can never give distinct triples
    assert result.theoretical_threshold == 20
    rows = result.csv_rows()
    assert len(rows) == 6 and rows[0].startswith("C2path,7,2,r=1,2,4,")


@pytest.mark.parametrize("family,p,d,policy,threshold", [
    ("C2path", 13, 2, "all", None),          # T1.5 needs p = 3 (mod 4)
    ("T_triangle", 7, 2, "all", None),       # T1.7 covers square ratios only
    ("T_triangle", 5, 3, "squares", None),   # and d = 2 only
    ("P_simplex", 5, 1, "squares", None),    # T1.8 needs d >= 2
    ("C2path", 7, 2, "all", 20),
    ("T_triangle", 7, 2, "squares", 21),
])
def test_scan_threshold_is_null_off_the_theorem_domain(family, p, d, policy, threshold):
    result = scan_threshold(make_prime(p), d, family, policy, sizes=[3], samples=1, seed=0)
    assert result.json_dict()["theoretical_threshold"] == threshold


def test_scan_full_size_is_always_positive():
    result = scan_threshold(SEVEN, 2, "C2path", "r=1", sizes=[49], samples=2, seed=1)
    assert result.fractions == (Fraction(1),)
    assert result.min_stable_size == 49


def test_scan_reaches_certainty_at_the_guaranteed_size():
    # every 20-point set has open path pairs for every ratio, so the curve
    # must sit at fraction 1 from size 20 on
    result = scan_threshold(
        SEVEN, 2, "C2path", "all", sizes=range(14, 23, 2), samples=8, seed=2
    )
    frac_by_size = dict(zip(result.sizes, result.fractions))
    assert frac_by_size[20] == 1 and frac_by_size[22] == 1
    assert result.min_stable_size is not None
    assert result.min_stable_size <= 20
    assert result.theoretical_threshold == 20


def test_scan_determinism_across_threads():
    kwargs = dict(sizes=range(3, 7), samples=3, seed=5)
    seq = scan_threshold(SEVEN, 2, "T_triangle", "squares", threads=1, **kwargs)
    par = scan_threshold(SEVEN, 2, "T_triangle", "squares", threads=2, **kwargs)
    assert seq == par


class RecordingPool:
    """An in-process stand-in for ProcessPoolExecutor that records how it was asked to run."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, iterable, chunksize=1):
        self.chunksize = chunksize
        return map(func, iterable)


@pytest.mark.parametrize("threads, sizes, samples, chunksize, workers", [
    (64, [3, 4], 1, 1, 2),          # never more workers than chunks
    (2, range(3, 7), 3, 1, 2),
    (3, range(2, 27), 4, 8, 3),     # 100 cells, about four chunks a worker
    (4, [5], 1, 1, 1),              # one cell, so one worker
])
def test_scan_sizes_its_pool_from_the_cells(monkeypatch, threads, sizes, samples,
                                             chunksize, workers):
    # no process is started: the pool maps in this one.  scan imports the
    # executor from concurrent.futures when it makes a pool, so it is patched there
    made = []

    def executor(max_workers):
        made.append(RecordingPool(max_workers))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
    kwargs = dict(sizes=sizes, samples=samples, seed=3)
    pooled = scan_threshold(SEVEN, 2, "T_triangle", "squares", threads=threads, **kwargs)
    pools = [(workers, chunksize)] if workers > 1 else []  # one worker maps in this process
    assert [(pool.max_workers, pool.chunksize) for pool in made] == pools
    assert pooled == scan_threshold(SEVEN, 2, "T_triangle", "squares", threads=1, **kwargs)
    assert len(made) == len(pools)  # one thread maps without a pool


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan_threshold(SEVEN, 2, "C2path", "all", sizes=[5], samples=0, seed=0)
    with pytest.raises(ValueError, match="unknown family 'C3path'"):
        scan_threshold(SEVEN, 2, "C3path", "all", sizes=[5], samples=1, seed=0)


# ---------------------------------------------------------------------------
# one witness search per ratio pair {r, 1/r}


def null_line_set(prime, d):
    """Points on a line through a nonzero null vector, plus two off it; None if no null line."""
    p = prime.p
    for v in itertools.product(range(p), repeat=d):
        if any(v) and sum(c * c for c in v) % p == 0:
            line = [tuple(t * c % p for c in v) for t in range(min(p, 5))]
            off = [pt for pt in itertools.product(range(p), repeat=d) if pt not in line][:2]
            return PointSet(prime, d, line + off)
    return None


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_witness_at_r_read_backwards_is_one_at_its_inverse(p, d):
    # both sides of a witness are copies of one pattern with distinct points,
    # so a witness exists at r exactly when one exists at 1/r, and swapping
    # its sides gives one
    prime = make_prime(p)
    sets = [random_point_set(prime, d, min(n, p**d), seed=f"sym:{n}:{seed}")
            for n in (3, 4, 6, 8) for seed in range(2)]
    null = null_line_set(prime, d)
    if null is not None:
        assert null.norm_pair_counts[0] > len(null)
        sets.append(null)
    found = missing = 0
    for family, row in FAMILIES.items():
        edges = row.pattern(d, 2)
        for E in sets:
            for r in range(1, p):
                witness = row.witness(E, make_ratio(r, prime))
                inv = inverse(r, prime)
                assert (witness is None) == (row.witness(E, make_ratio(inv, prime))
                                             is None), (family, E.points, r)
                if witness is None:
                    missing += 1
                    continue
                found += 1
                scaled, base = witness if row.scaled_first else witness[::-1]
                assert validate_pattern_pair(E, r, edges, base, scaled)
                assert validate_pattern_pair(E, inv, edges, scaled, base)
    assert found and missing


def scan_cell_every_ratio(p, d, family, policy, size, sample_index, seed):
    """The scan cell as a literal loop: one witness search per ratio of the policy."""
    prime = make_prime(p)
    E = random_point_set(prime, d, size, f"scan:{seed}:{size}:{sample_index}")
    ratios = ratios_for_policy(policy, prime)
    return size, sample_index, all(FAMILIES[family].witness(E, r) is not None for r in ratios)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_scan_cell_matches_a_search_at_every_ratio(p):
    shapes = [("C2path", 2, range(3, 12, 2)), ("T_triangle", 2, range(4, 17, 3)),
              ("F4cycle", 2, range(4, 9, 2)), ("P_simplex", 3, range(4, 13, 4))]
    outcomes = set()
    for family, d, sizes in shapes:
        for policy in ("all", "squares", "r=3"):
            for size in sizes:
                for sample in range(3):
                    cell = (p, d, family, policy, size, sample, 4)
                    expected = scan_cell_every_ratio(*cell)
                    assert _scan_cell(cell) == expected, cell
                    outcomes.add(expected[2])
    assert outcomes == {False, True}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("policy", ["all", "squares", "r=2", "r=1"])
def test_scan_ratio_pairs_cover_the_policy_once(p, policy):
    prime, pairs = _scan_ratios(p, policy)
    searched = [ratio.r for ratio, _ in pairs]
    partners = [inv for _, inv in pairs if inv is not None]
    policy_values = [ratio.r for ratio in ratios_for_policy(policy, prime)]
    assert sorted(searched + partners) == sorted(policy_values)
    assert searched == [r for r in policy_values if r in searched]  # policy order
    for ratio, inv in pairs:
        if inv is None:  # self-inverse, or its inverse is outside the policy
            assert inverse(ratio.r, prime) == ratio.r or len(policy_values) == 1
        else:
            assert ratio.r < inv == inverse(ratio.r, prime)


def test_scan_cell_revalidates_the_reversed_witness(monkeypatch):
    # a 2-path search result at r = 2 (p = 7), base side first, is checked
    # read backwards at 1/2 = 4; a result that is no witness fails that check
    E = full_space(SEVEN, 2)
    good = (((0, 0), (1, 0), (1, 1)), ((0, 0), (3, 0), (3, 3)))   # steps 1, 1 and 2, 2
    bad = (good[0], ((0, 0), (3, 0), (3, 1)))                      # last scaled step 1, not 2
    edges = FAMILIES["C2path"].pattern(2, 2)
    assert validate_pattern_pair(E, 4, edges, good[1], good[0])
    result = {}
    monkeypatch.setattr(families, "find_path_pair_witness", lambda E, ratio, k: result["w"])
    result["w"] = good
    assert verify._has_witnesses(E, "C2path", make_ratio(2, SEVEN), 4)
    result["w"] = bad
    with pytest.raises(AssertionError, match="internal error: witness failed revalidation"):
        verify._has_witnesses(E, "C2path", make_ratio(2, SEVEN), 4)
    # a ratio without a partner is not searched again
    assert verify._has_witnesses(E, "C2path", make_ratio(2, SEVEN), None)


def test_t16_holds_with_its_hypothesis_met():
    # the least size the hypothesis admits at the least prime p = 3 (mod 4)
    # where it fits the plane: 3140^2 > 48 * 59^3, on 3140 of 3481 points
    prime = make_prime(59)
    assert smallest_size_meeting(FAMILY_FOUR_CYCLE, prime, 2, "all") == 3140
    E = random_point_set(prime, 2, 3140, seed=0)
    for r in (2, 1, 3, 58):
        verdict = run_claim("T1.6", E, make_ratio(r, prime))
        assert verdict.hypothesis_met and verdict.status == "HOLDS"
        assert validate_pattern_pair(E, r, CYCLE_EDGES, *verdict.params["witness"])


def test_verify_all_computes_each_join_once_per_set_and_ratio(monkeypatch):
    # per instance: S_1, S_2 and S_3 by nu_identity, C by mu_identity, which
    # lemma 2.4 reads and lemma 4.2 takes as its total, and the six other
    # joins of the four-cycle families, J(AD, ND) split into three small ones;
    # the b = e families are the a = c ones rotated, so they join nothing:
    # 10 joins
    joins, kernels = [], []
    join, mu = configcount.join, configcount._mu_identity_scaled_cycle_pairs

    def counted_join(*args):
        joins.append(args)
        return join(*args)

    def counted_mu(E, r):
        kernels.append(r)
        return mu(E, r)

    monkeypatch.setattr(configcount, "join", counted_join)
    monkeypatch.setattr(families, "join", counted_join)
    monkeypatch.setattr(configcount, "_mu_identity_scaled_cycle_pairs", counted_mu)
    assert cli.main(["verify", "--claim", "all", "--random", "4", "--size", "8:12",
                     "--p", "7", "--r", "3", "--seed", "5", "--out", os.devnull]) == 0
    assert kernels == [3] * 4
    assert len(joins) == 40
    # the recorded arguments keep every table alive, so no two share an id
    assert len({(id(first), id(second), *rest) for first, second, *rest in joins}) == 40


@pytest.mark.parametrize("claim,p,d,n", [
    ("T1.5", 3, 2, 9),        # all of F_3^2: 9 > (sqrt(3) + 1) 3
    ("T1.7", 3, 2, 9),        # 9 >= 3p
    ("T1.8", 3, 3, 21),       # 21 >= 4 * 3^1.5 (= 20.78..)
    ("T1.10", 3, 2, 7),       # 7 > 2p
    ("quotient", 11, 2, 99),  # 99 >= 9p (even d)
    ("quotient", 37, 1, 37),  # 37 >= 6 sqrt(37) (odd d)
    ("quotient", 5, 3, 68),   # 68 >= 6 * 5^1.5 (= 67.08..)
])
def test_each_claim_holds_at_its_smallest_hypothesis_met_instance(claim, p, d, n):
    # one size smaller the hypothesis fails, so this is where each claim is
    # first checked with it met; T1.6 has its own test at p = 59
    prime = make_prime(p)
    for size, status in ((n, "HOLDS"), (n - 1, "VACUOUS")):
        E = random_point_set(prime, d, size, seed=1)
        assert run_claim(claim, E, make_ratio(1, prime)).status == status
