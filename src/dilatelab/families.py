"""Nondegenerate configuration families and their degenerate decompositions.

A "pair of k-paths with dilation ratio r" is a pair of (k+1)-tuples of
points, each with pairwise-distinct entries, whose consecutive squared step
lengths are in ratio r; triangle and simplex pairs constrain every pairwise
squared distance instead of only consecutive ones.  The scaled walk/cycle
pairs of :mod:`dilatelab.configcount` also contain degenerate pairs (repeated
vertices); this module counts those remainder families.

Each family has one witness finder: find_path_pair_witness,
find_cycle_pair_witness and find_clique_pair_witness, each the one bucket
search configcount._first_scaled_pair over the edge list of its pattern
(path_edges, CYCLE_EDGES, clique_edges), its answer checked by the one
validator validate_pattern_pair.  The x side of a 4-cycle search takes one
tuple per rotation/reflection orbit (cycle_orbit_tuples), and that of a
clique search one increasing tuple per vertex set.  A brute count is
configcount.brute_join over the family's x and y sides (times m! for
m-cliques, whose v side is increasing).  The degenerate parts of the 2-path
pairs are brute_join counts too, a side being the walk (a, b, a) where it
has x1 = x3 or y1 = y3, checked against their closed forms, joins of the
step-profile tables; the four-cycle coincidence families are joins of the
cycle census of :mod:`dilatelab.configcount`.  Both hold for every (p, d).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter, sub
from typing import Iterator

from .configcount import (
    CYCLE_EDGES,
    DISTINCT,
    EDGE_DISTINCT,
    EVERY,
    INCREASING,
    METHOD_BRUTE,
    Ratio,
    brute_join,
    count_scaled_cycle_pairs,
    cycle_census,
    displacement_histogram,
    join,
    path_edges,
    step_profile_counts,
    _first_scaled_pair,
    _scaled_walk_table,
    _scaling,
    # not called here: perfbench/selftest.py checks that its span rebinds it in this module
    _walk_dp_scaled_pairs,
)
from .errors import DimensionMismatchError
from .geometry import PointSet
from .orthogonal import enumerate_orthogonal

FAMILY_PATH_PAIRS = "C2path"
FAMILY_FOUR_CYCLE = "F4cycle"
FAMILY_TRIANGLE = "T_triangle"
FAMILY_SIMPLEX = "P_simplex"

FAMILIES = (FAMILY_PATH_PAIRS, FAMILY_FOUR_CYCLE, FAMILY_TRIANGLE, FAMILY_SIMPLEX)


@dataclass(frozen=True)
class FamilyCount:
    """A named family count with the parameters that produced it."""

    family: str
    value: int
    method: str
    p: int
    d: int
    set_size: int
    r: int | None = None
    k: int | None = None

    CSV_HEADER = "family,p,d,E_size,r,value,method"

    def csv_row(self) -> str:
        r = "" if self.r is None else self.r
        return f"{self.family},{self.p},{self.d},{self.set_size},{r},{self.value},{self.method}"

    def json_dict(self) -> dict:
        return {
            "family": self.family,
            "p": self.p,
            "d": self.d,
            "E_size": self.set_size,
            "r": self.r,
            "k": self.k,
            "value": self.value,
            "method": self.method,
        }


def _family(E: PointSet, name: str, value: int, method: str, r=None, k=None) -> FamilyCount:
    return FamilyCount(
        family=name, value=value, method=method,
        p=E.prime.p, d=E.d, set_size=len(E), r=r, k=k,
    )


def validate_pattern_pair(E: PointSet, r: int, edges, xs, ys) -> bool:
    """Check a claimed pair of copies of the pattern directly against the definition.

    xs and ys are sequences (tuples or lists) of points of E, one point per
    vertex of the pattern, each with distinct entries, and every edge (a, b)
    of the pattern has dist(ys[a], ys[b]) = r dist(xs[a], xs[b]).  The norms
    are computed from the coordinates, never read from E.dist_table.
    """
    p = E.prime.p
    size = max(map(itemgetter(1), edges), default=0) + 1
    x_set, y_set = set(xs), set(ys)
    if not len(xs) == len(ys) == len(x_set) == len(y_set) == size:
        return False
    if not E._point_index.keys() >= x_set | y_set:
        return False
    # each edge's norm from coordinates: the sum of squared differences mod p
    return all(
        (sum(map(pow, map(sub, ys[a], ys[b]), repeat(2)))
         - r * sum(map(pow, map(sub, xs[a], xs[b]), repeat(2)))) % p == 0
        for a, b in edges
    )


def revalidate(E: PointSet, r: int, edges, xs, ys) -> None:
    """Raise the internal error if a witness found by search fails validate_pattern_pair."""
    if not validate_pattern_pair(E, r, edges, xs, ys):
        raise AssertionError("internal error: witness failed revalidation")


def _first_pair(E: PointSet, r: int, edges, x_tuples):
    """_first_scaled_pair over x_tuples as point tuples, revalidated, or None."""
    found = _first_scaled_pair(E, r, edges, x_tuples)
    if found is None:
        return None
    pts = E.points
    xs, ys = (tuple(pts[i] for i in side) for side in found)
    revalidate(E, r, edges, xs, ys)
    return xs, ys


# ----------------------------------------------------------------------------
# pairs of k-paths (all vertices distinct on each side)


def count_path_pairs(E: PointSet, ratio: Ratio, k: int) -> FamilyCount:
    """Exact number of pairs of k-paths in E with dilation ratio r."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(E)
    total = 0  # with k >= n no path has k + 1 distinct points
    if k < n:
        total = brute_join(E, ratio.r, path_edges(k), DISTINCT, DISTINCT,
                           visits=2 * math.perm(n, k + 1))
    return _family(E, FAMILY_PATH_PAIRS if k == 2 else f"path_pairs_k{k}", total,
                   method="brute", r=ratio.r, k=k)


def find_path_pair_witness(E: PointSet, ratio: Ratio, k: int = 2):
    """First pair of k-paths with dilation ratio r, or None if none exists.

    The x side ranges over every tuple of distinct points and the y side
    over every bucket-matched completion, so a None answer means the family
    is empty.
    """
    xs = itertools.permutations(range(len(E)), k + 1)
    return _first_pair(E, ratio.r, path_edges(k), xs)


# ----------------------------------------------------------------------------
# degenerate decomposition of the 2-step walk-pair set


@dataclass(frozen=True)
class TwoPathParts:
    """Classification of the scaled 2-step walk pairs by vertex coincidences."""

    x_coincide: int      # x1 = x3
    y_coincide: int      # y1 = y3
    both_coincide: int   # x1 = x3 and y1 = y3
    open_pairs: int      # x's pairwise distinct and y1 != y3
    total: int


def classify_two_path_pairs(E: PointSet, ratio: Ratio) -> TwoPathParts:
    """The scaled 2-walk pairs sorted into the parts, each by brute_join.

    Every count takes x 2-walks (x1 != x2 != x3) and any y 3-tuples: S_2
    joins the path pattern on both sides, A the back-and-forth walk (a, b, a)
    on the x side, whose profile is (s, s), B the same walk on the y side,
    and A∩B on both.  The open pairs are S_2 - A - B + A∩B.  S_2 is counted
    first, so its guard, on the most tuples, refuses before any is visited.
    """
    n, r = len(E), ratio.r
    path, back = path_edges(2), ((0, 1), (0, 1))
    # n (n-1)^2 x 2-walks, n (n-1) of them back and forth; n^3 y tuples, n^2 with y1 = y3
    total = brute_join(E, r, path, EDGE_DISTINCT, EVERY, visits=n * (n - 1) ** 2 + n**3)
    a = brute_join(E, r, back, EDGE_DISTINCT, EVERY, visits=n * (n - 1) + n**3, y_edges=path)
    b = brute_join(E, r, path, EDGE_DISTINCT, EVERY, visits=n * (n - 1) ** 2 + n**2,
                   y_edges=back)
    ab = brute_join(E, r, back, EDGE_DISTINCT, EVERY, visits=n * (n - 1) + n**2)
    return TwoPathParts(x_coincide=a, y_coincide=b, both_coincide=ab,
                        open_pairs=total - a - b + ab, total=total)


def two_path_parts_closed_form(E: PointSet, ratio: Ratio) -> tuple[int, int, int]:
    """The step-profile forms of the three degenerate parts, valid for every (p, d).

    With X the walks with distinct consecutive points and Y all walks, by
    step profile: x_1 = x_3 gives a = sum_s X_1(s) Y_2(rs, rs), y_1 = y_3
    gives b = sum_s X_2(s, s) Y_1(rs), and both give sum_s X_1(s) Y_1(rs).
    """
    x2, y2 = step_profile_counts(E, 2), _scaled_walk_table(E, 2)
    x1, y1 = step_profile_counts(E, 1), _scaled_walk_table(E, 1)
    scale = _scaling(ratio.r, E.prime.p)
    a = join(x1, y2, lambda t: scale(t) * 2)
    b = join({t[:1]: c for t, c in x2.items() if t[0] == t[1]}, y1, scale)
    ab = join(x1, y1, scale)
    return a, b, ab


def two_path_part_rows(E: PointSet, ratio: Ratio, method: str) -> list[FamilyCount]:
    """The 2path_parts rows of method: A, B, A∩B and open by brute, or else the
    nu_identity closed forms of A, B and A∩B.  open (x1 != x3, y1 != y3) holds
    pairs with y1 = y2 where null segments exist, so it is not the C2path count."""
    if method == METHOD_BRUTE:
        parts = classify_two_path_pairs(E, ratio)
        values = (parts.x_coincide, parts.y_coincide, parts.both_coincide, parts.open_pairs)
    else:
        values = two_path_parts_closed_form(E, ratio)
    return [_family(E, name, value, method, ratio.r)
            for name, value in zip(("A", "B", "A∩B", "open"), values)]


# ----------------------------------------------------------------------------
# four-cycle families


@dataclass(frozen=True)
class FourCycleFamilies:
    """Classification of the scaled closed-4-walk pairs by vertex coincidences."""

    fully_distinct: int   # all eight vertices distinct on their sides
    x13: int              # x1 = x3
    x24: int              # x2 = x4
    y13: int              # y1 = y3
    y24: int              # y2 = y4
    degenerate_union: int
    total: int
    decomposition_exact: bool  # every tuple is fully distinct or in the union


def four_cycle_families(E: PointSet, ratio: Ratio) -> FourCycleFamilies:
    """The coincidence families of the scaled closed-4-walk pairs, by joins.

    Each field is a join J(F, G) = sum_t F(t) G(r t) of two tables of the
    cycle census: total = J(x, y), the memoised mu_identity count C,
    x13 = J(x13, y), x24 = J(x24, y), y13 = J(x, y13), y24 = J(x, y24).
    With AD = x - x13 - x24 + xb the walks whose four points are distinct
    and ND = y - y13 - y24 + yb the walks with a != c and b != e,
    fully_distinct = J(AD, AD) and the union of the families is
    total - J(AD, ND).  A pair outside both has an adjacent y coincidence,
    which only nonzero null segments allow.  The only size guard is the
    census's own, on the profiles its tables can hold.
    """
    cen = cycle_census(E)
    scale = cen.scaled(ratio.r)
    x, y = cen.x, cen.y
    x13, x24, xb = cen.x13, cen.x24, cen.xb
    y13, y24, yb = cen.y13, cen.y24, cen.yb
    ad = {t: v - x13.get(t, 0) - x24.get(t, 0) + xb.get(t, 0) for t, v in x.items()}
    nd = {t: v - y13.get(t, 0) - y24.get(t, 0) + yb.get(t, 0) for t, v in y.items()}
    f = join(ad, ad, scale)
    total = count_scaled_cycle_pairs(E, ratio).value
    union = total - join(ad, nd, scale)
    return FourCycleFamilies(
        fully_distinct=f, x13=join(x13, y, scale), x24=join(x24, y, scale),
        y13=join(x, y13, scale), y24=join(x, y24, scale),
        degenerate_union=union, total=total,
        decomposition_exact=total == f + union,
    )


def cycle_orbit_tuples(n: int) -> Iterator[tuple[int, int, int, int]]:
    """One 4-tuple of distinct indices below n per orbit of the dihedral group.

    The group acts on the vertex positions of the 4-cycle; the tuple is the
    orbit's one with its least index first and then x2 < x4.
    """
    idx = range(n)
    return ((x1, x2, x3, x4) for x1 in idx for x2 in idx[x1 + 1:]
            for x3 in idx[x1 + 1:] if x3 != x2 for x4 in idx[x2 + 1:] if x4 != x3)


def find_cycle_pair_witness(E: PointSet, ratio: Ratio):
    """First pair of 4-cycles (all vertices distinct) with ratio r, or None.

    The x side is cycle_orbit_tuples.  Applying one group element to both
    sides is a bijection and the group acts freely on tuples of distinct
    points, so every pair is one with its x side there, moved in one of 8
    ways, and a None answer means the family is empty.
    """
    return _first_pair(E, ratio.r, CYCLE_EDGES, cycle_orbit_tuples(len(E)))


# ----------------------------------------------------------------------------
# shared-displacement tuple counts (per rotation)


def _falling(x: int, m: int) -> int:
    # x (x-1) .. (x-m+1); zero whenever 0 <= x < m
    out = 1
    for i in range(m):
        out *= x - i
    return out


def tally_moments(tally: dict, m: int) -> tuple[int, int]:
    """(sum of c^m, sum of c (c-1) .. (c-m+1)) over a histogram's counts c.

    Read from its tally c -> how many keys have count c, so each distinct
    count's power and falling factorial is formed once.
    """
    items = tally.items()
    return sum(k * c**m for c, k in items), sum(k * _falling(c, m) for c, k in items)


# ----------------------------------------------------------------------------
# triangle and simplex pairs


def clique_edges(m: int) -> tuple[tuple[int, int], ...]:
    """The edge list of the complete graph on m vertices."""
    return tuple((a, b) for b in range(m) for a in range(b))


def _count_clique_pairs(E: PointSet, r: int, m: int) -> int:
    """Pairs of m-tuples, distinct entries each, all pairwise norms in ratio r."""
    n = len(E)
    # the v side runs over combinations, m! orders each: the conditions ignore
    # vertex order, so one permutation applied to both sides is a bijection
    pairs = brute_join(E, r, clique_edges(m), INCREASING, DISTINCT,
                       visits=math.comb(n, m) + math.perm(n, m))
    return math.factorial(m) * pairs


def count_triangle_pairs(E: PointSet, ratio: Ratio) -> FamilyCount:
    """Exact number of triangle pairs (3 points a side, all norms scaled by r)."""
    if E.d != 2:
        raise DimensionMismatchError("triangle pairs are a planar family")
    value = _count_clique_pairs(E, ratio.r, 3)
    return _family(E, FAMILY_TRIANGLE, value, method="brute", r=ratio.r)


def count_simplex_pairs(E: PointSet, ratio: Ratio) -> FamilyCount:
    """Exact number of simplex pairs: d+1 points a side, all norms scaled by r."""
    if E.d < 2:
        raise DimensionMismatchError("simplex pairs need dimension at least 2")
    value = _count_clique_pairs(E, ratio.r, E.d + 1)
    return _family(E, FAMILY_SIMPLEX, value, method="brute", r=ratio.r)


def find_clique_pair_witness(E: PointSet, ratio: Ratio, m: int | None = None):
    """First (u-tuple, v-tuple) pair with all pairwise norms in ratio r, or None.

    The v side ranges over index combinations only; any witness can be
    simultaneously reordered so its v side is increasing, so the search is
    still complete.
    """
    m = E.d + 1 if m is None else m
    vs = itertools.combinations(range(len(E)), m)
    found = _first_pair(E, ratio.r, clique_edges(m), vs)
    return None if found is None else found[::-1]


def group_displacement_sums(E: PointSet, ratio: Ratio) -> tuple[int, int, int, int]:
    """|G| and the group sums of c^(d+1), c (c-1) .. (c-d) and c^d, G = O(d, p).

    One pass, one displacement_histogram per element, c over its counts.  Per
    element theta they count the (d+1)-tuples of pairs (u_i, v_i) of E that
    share one displacement u_i - sqrt(r) theta v_i: c^(d+1) all of them, the
    falling factorial those whose v_i are pairwise distinct (within one
    displacement the v's determine the pairs), and c^d those with two given
    v_i equal.
    """
    table = enumerate_orthogonal(E.d, E.prime)
    power = distinct = slices = 0
    for theta in table:
        tally = Counter(displacement_histogram(E, ratio, theta).values())
        total, falling = tally_moments(tally, E.d + 1)
        power += total
        distinct += falling
        slices += sum(k * c**E.d for c, k in tally.items())
    return len(table), power, distinct, slices


def triangle_bound_group_sum(E: PointSet, ratio: Ratio) -> Fraction:
    """Certified lower bound for the triangle-pair count from rotation sums.

    The paper's form averages, over O(2, p), the cube-minus-square moment
    sum(c^3 - 3 c^2) of the displacement histogram.  Since
    c^3 - 3 c^2 = c (c-1) (c-2) - 2 c and the counts c add up to |E|^2,
    that is the average distinct-source triple count minus 2 |E|^2.  The
    result can be negative for tiny sets, in which case it certifies nothing.
    """
    if E.d != 2:
        raise DimensionMismatchError("the triangle bound is planar")
    order, _, distinct, _ = group_displacement_sums(E, ratio)
    return Fraction(distinct, order) - 2 * len(E) ** 2


def simplex_bound_group_sum(E: PointSet, ratio: Ratio) -> Fraction:
    """Certified lower bound for the simplex-pair count from rotation sums.

    Averages the distinct-source shared-displacement count over O(d, p);
    every such tuple is a simplex pair, so the average is a true lower bound.
    """
    if E.d < 2:
        raise DimensionMismatchError("simplex pairs need dimension at least 2")
    order, _, distinct, _ = group_displacement_sums(E, ratio)
    return Fraction(distinct, order)
