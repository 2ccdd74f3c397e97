"""Nondegenerate configuration families and their degenerate decompositions.

A "pair of k-paths with dilation ratio r" is a pair of (k+1)-tuples of
points, each with pairwise-distinct entries, whose consecutive squared step
lengths are in ratio r; triangle and simplex pairs constrain every pairwise
squared distance instead of only consecutive ones.  The scaled walk/cycle
pairs of :mod:`dilatelab.configcount` also contain degenerate pairs (repeated
vertices); this module enumerates those remainder families and checks the
exact bookkeeping identities between them.

Each family has one lazy enumerator of its index-tuple pairs:
iter_path_pairs, iter_cycle_pairs and iter_clique_pairs here, and the
ambient iter_scaled_walk_pairs and iter_scaled_cycle_pairs of
:mod:`dilatelab.configcount`.  All five are the one bucket search of
configcount._scaled_pairs over the edge list of their pattern (path_edges,
CYCLE_EDGES, clique_edges); they give the witnesses, each the first item,
checked by the one validator validate_pattern_pair, and the classifications.
A brute count is configcount.brute_join over the family's x and y sides
(times m! for m-cliques, whose v side is increasing), not an enumerator's
length.  The degenerate parts of the 2-path pairs are joins
of the step-profile tables, and the four-cycle coincidence families joins
of the cycle census, of :mod:`dilatelab.configcount`, for every (p, d);
each is tested against a classification of the enumerated pairs.
iter_cycle_pairs, one x tuple per rotation/reflection orbit, yields an
eighth of the fully distinct family.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter, sub
from typing import TYPE_CHECKING, Iterator

from .configcount import (
    CYCLE_EDGES,
    DISTINCT,
    INCREASING,
    Ratio,
    brute_join,
    cycle_census,
    displacement_histogram,
    iter_scaled_cycle_pairs,
    iter_scaled_walk_pairs,
    join,
    path_edges,
    step_profile_counts,
    _scaled_pairs,
    _scaled_walk_table,
    _scaling,
    _walk_dp_scaled_pairs,
)
from .errors import DimensionMismatchError, NotASquareRatioError
from .geometry import PointSet
from .orthogonal import enumerate_orthogonal, scaled_apply

if TYPE_CHECKING:  # pragma: no cover
    from .orthogonal import OrthMatrix

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


def _first_pair(E: PointSet, r: int, edges, pairs):
    """The first index pair of pairs as point tuples, revalidated, or None."""
    found = next(pairs, None)
    if found is None:
        return None
    pts = E.points
    xs, ys = (tuple(pts[i] for i in side) for side in found)
    revalidate(E, r, edges, xs, ys)
    return xs, ys


# ----------------------------------------------------------------------------
# pairs of k-paths (all vertices distinct on each side)


def iter_path_pairs(E: PointSet, r: int, k: int) -> Iterator[tuple[tuple, tuple]]:
    """Index-tuple pairs (xs, ys) of k-paths with dilation ratio r, in search order."""
    xs = itertools.permutations(range(len(E)), k + 1)
    return _scaled_pairs(E, r, path_edges(k), xs, distinct=True)


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

    This is the first item of iter_path_pairs, whose x side ranges over every
    tuple of distinct points and whose y side over every bucket-matched
    completion, so a None answer means the family is empty.
    """
    return _first_pair(E, ratio.r, path_edges(k), iter_path_pairs(E, ratio.r, k))


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
    """One pass over the concrete scaled 2-walk pairs, sorted into the parts."""
    a = b = ab = c = total = 0
    for xs, ys in iter_scaled_walk_pairs(E, ratio.r, 2):
        total += 1
        x_deg = xs[0] == xs[2]
        y_deg = ys[0] == ys[2]
        if x_deg:
            a += 1
        if y_deg:
            b += 1
        if x_deg and y_deg:
            ab += 1
        if not x_deg and not y_deg:
            c += 1
    return TwoPathParts(x_coincide=a, y_coincide=b, both_coincide=ab,
                        open_pairs=c, total=total)


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


@dataclass(frozen=True)
class TwoPathDecomposition:
    """Both sides of the inclusion-exclusion identity for open 2-path pairs."""

    open_pairs: int
    s2: int
    s1: int
    a_closed: int
    b_closed: int

    @property
    def holds(self) -> bool:
        return self.open_pairs == self.s2 + self.s1 - self.a_closed - self.b_closed


def check_two_path_decomposition(E: PointSet, ratio: Ratio) -> TwoPathDecomposition:
    """Evaluate the identity with every term computed by an independent route."""
    parts = classify_two_path_pairs(E, ratio)
    a_closed, b_closed, _ = two_path_parts_closed_form(E, ratio)
    s2 = _walk_dp_scaled_pairs(E, ratio.r, 2)
    s1 = _walk_dp_scaled_pairs(E, ratio.r, 1)
    return TwoPathDecomposition(
        open_pairs=parts.open_pairs, s2=s2, s1=s1,
        a_closed=a_closed, b_closed=b_closed,
    )


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
    cycle census: total = J(x, y), x13 = J(x13, y), x24 = J(x24, y),
    y13 = J(x, y13) and y24 = J(x, y24).  With AD = x - x13 - x24 + xb the
    walks whose four points are distinct and ND = y - y13 - y24 + yb the
    walks with a != c and b != e, fully_distinct = J(AD, AD) and the union
    of the four families is total - J(AD, ND).  A pair outside both has an
    adjacent y coincidence, which only nonzero null segments allow.  The
    only size guard is the census's own, on the profiles its tables can hold.
    """
    cen = cycle_census(E)
    scale = cen.scaled(ratio.r)
    x, y = cen.x, cen.y
    x13, x24, xb = cen.x13, cen.x24, cen.xb
    y13, y24, yb = cen.y13, cen.y24, cen.yb
    ad = {t: v - x13.get(t, 0) - x24.get(t, 0) + xb.get(t, 0) for t, v in x.items()}
    nd = {t: v - y13.get(t, 0) - y24.get(t, 0) + yb.get(t, 0) for t, v in y.items()}
    f = join(ad, ad, scale)
    total = join(x, y, scale)
    union = total - join(ad, nd, scale)
    return FourCycleFamilies(
        fully_distinct=f, x13=join(x13, y, scale), x24=join(x24, y, scale),
        y13=join(x, y13, scale), y24=join(x, y24, scale),
        degenerate_union=union, total=total,
        decomposition_exact=total == f + union,
    )


def iter_cycle_pairs(E: PointSet, r: int) -> Iterator[tuple[tuple, tuple]]:
    """Index-tuple pairs (xs, ys) of 4-cycles, distinct entries each, with ratio r.

    The x side has one tuple per orbit of the dihedral group acting on the
    vertex positions: least index first, then x2 < x4.  Applying one group
    element to both sides is a bijection and the group acts freely on
    tuples of distinct points, so every fully distinct pair of the scaled
    closed 4-walks is one yielded pair moved in one of 8 ways.
    """
    idx = range(len(E))
    xs = ((x1, x2, x3, x4) for x1 in idx for x2 in idx[x1 + 1:]
          for x3 in idx[x1 + 1:] if x3 != x2 for x4 in idx[x2 + 1:] if x4 != x3)
    return _scaled_pairs(E, r, CYCLE_EDGES, xs, distinct=True)


def find_cycle_pair_witness(E: PointSet, ratio: Ratio):
    """First pair of 4-cycles (all vertices distinct) with ratio r, or None.

    This is the first item of iter_cycle_pairs, whose x side meets every
    orbit, so a None answer means the family is empty.
    """
    return _first_pair(E, ratio.r, CYCLE_EDGES, iter_cycle_pairs(E, ratio.r))


@dataclass(frozen=True)
class FiberCheck:
    """Surjectivity and fiber sizes of the collapse from x1=x3 cycle pairs."""

    surjective: bool
    max_fiber: int
    domain_size: int
    target_size: int
    image_inside_target: bool


def four_cycle_fiber_check(E: PointSet, ratio: Ratio) -> FiberCheck:
    """Map each x1 = x3 cycle pair onto a scaled 2-walk pair and inspect fibers.

    The collapse (x1,x2,x4,y1,y2,y3,y4) -> (x4,x1,x2,y4,y1,y2) must cover the
    whole 2-walk pair set with fibers of size at most p + 1.  The cycle
    enumeration refuses sets beyond its guard.
    """
    r = ratio.r
    fibers: dict[tuple, int] = {}
    for (x1, x2, x3, x4), (y1, y2, _, y4) in iter_scaled_cycle_pairs(E, r):
        if x1 == x3:
            key = (x4, x1, x2, y4, y1, y2)
            fibers[key] = fibers.get(key, 0) + 1
    target = set()
    for xs, ys in iter_scaled_walk_pairs(E, r, 2):
        target.add(xs + ys)
    image = set(fibers)
    return FiberCheck(
        surjective=image >= target,
        max_fiber=max(fibers.values(), default=0),
        domain_size=sum(fibers.values()),
        target_size=len(target),
        image_inside_target=image <= target,
    )


# ----------------------------------------------------------------------------
# shared-displacement tuple counts (per rotation)


def _falling(x: int, m: int) -> int:
    # x (x-1) .. (x-m+1); zero whenever 0 <= x < m
    out = 1
    for i in range(m):
        out *= x - i
    return out


def shared_displacement_counts(E: PointSet, ratio: Ratio, theta: "OrthMatrix") -> tuple[int, int]:
    """(all, distinct-source) counts of (d+1)-tuples of pairs sharing a displacement.

    A tuple here is ((u_1, v_1), .., (u_m, v_m)), m = d + 1, with every
    u_i - sqrt(r) * theta * v_i equal; "distinct-source" additionally
    requires the v_i to be pairwise distinct.  Within one displacement class
    the v's determine the pairs, so the two counts are power sums and
    falling-factorial sums of the displacement histogram.
    """
    return tally_moments(Counter(displacement_histogram(E, ratio, theta).values()), E.d + 1)


def tally_moments(tally: dict, m: int) -> tuple[int, int]:
    """(sum of c^m, sum of c (c-1) .. (c-m+1)) over a histogram's counts c.

    Read from its tally c -> how many keys have count c, so each distinct
    count's power and falling factorial is formed once.
    """
    items = tally.items()
    return sum(k * c**m for c, k in items), sum(k * _falling(c, m) for c, k in items)


def shared_displacement_counts_direct(E: PointSet, ratio: Ratio,
                                      theta: "OrthMatrix") -> tuple[int, int]:
    """The same two counts by explicit tuple extension with membership checks."""
    if not ratio.is_square or ratio.sqrt_r is None:
        raise NotASquareRatioError(f"ratio {ratio.r} is not a nonzero square")
    m = E.d + 1
    p = E.prime.p
    images = {v: scaled_apply(theta, ratio.sqrt_r, v, p) for v in E.points}

    def extensions(base, chosen, need_distinct):
        if len(chosen) == m:
            return 1
        total = 0
        for v in E.points:
            if need_distinct and v in chosen:
                continue
            u = tuple((a + b) % p for a, b in zip(base, images[v]))
            if u in E:
                chosen.append(v)
                total += extensions(base, chosen, need_distinct)
                chosen.pop()
        return total

    total = distinct = 0
    for u1 in E.points:
        for v1 in E.points:
            base = tuple((a - b) % p for a, b in zip(u1, images[v1]))
            total += extensions(base, [v1], False)
            distinct += extensions(base, [v1], True)
    return total, distinct


def displacement_slice_direct(E: PointSet, ratio: Ratio, theta: "OrthMatrix",
                              k: int, l: int) -> int:
    """Tuples as above (no distinctness) with sources k and l forced equal."""
    if not ratio.is_square or ratio.sqrt_r is None:
        raise NotASquareRatioError(f"ratio {ratio.r} is not a nonzero square")
    m = E.d + 1
    if not (0 <= k < l < m):
        raise ValueError("need 0 <= k < l <= d")
    p = E.prime.p
    images = {v: scaled_apply(theta, ratio.sqrt_r, v, p) for v in E.points}

    total = 0
    for u1 in E.points:
        for v1 in E.points:
            base = tuple((a - b) % p for a, b in zip(u1, images[v1]))

            def extensions(chosen):
                pos = len(chosen)
                if pos == m:
                    return 1
                if pos == l:
                    v = chosen[k]
                    u = tuple((a + b) % p for a, b in zip(base, images[v]))
                    return extensions(chosen + [v]) if u in E else 0
                total_here = 0
                for v in E.points:
                    u = tuple((a + b) % p for a, b in zip(base, images[v]))
                    if u in E:
                        total_here += extensions(chosen + [v])
                return total_here

            total += extensions([v1])
    return total


def all_equal_slice_direct(E: PointSet, ratio: Ratio, theta: "OrthMatrix") -> int:
    """Tuples as above with every source equal, checked by scanning targets.

    The difference conditions force every target to repeat the first one, so
    the count comes out as |E|^2; this routine verifies that by enumeration
    instead of assuming it.
    """
    if not ratio.is_square or ratio.sqrt_r is None:
        raise NotASquareRatioError(f"ratio {ratio.r} is not a nonzero square")
    m = E.d + 1
    p = E.prime.p
    s = ratio.sqrt_r
    total = 0
    for u1 in E.points:
        for v1 in E.points:
            # sources all equal v1, so each later target must sit at
            # u1 + sqrt(r) * theta * (v1 - v1); count the members of E there
            shift = scaled_apply(theta, s, tuple(0 for _ in v1), p)
            want = tuple((a + b) % p for a, b in zip(u1, shift))
            per_slot = sum(1 for u in E.points if u == want)
            total += per_slot ** (m - 1)
    return total


# ----------------------------------------------------------------------------
# triangle and simplex pairs


def clique_edges(m: int) -> tuple[tuple[int, int], ...]:
    """The edge list of the complete graph on m vertices."""
    return tuple((a, b) for b in range(m) for a in range(b))


def iter_clique_pairs(E: PointSet, r: int, m: int) -> Iterator[tuple[tuple, tuple]]:
    """Index-tuple pairs (vs, us), distinct entries each, all pairwise norms scaled by r.

    The v side ranges over index combinations only.  The conditions ignore
    vertex order, so applying one permutation to both sides is a bijection
    and every pair of m-tuples is one yielded pair reordered in one of m!
    ways.
    """
    vs = itertools.combinations(range(len(E)), m)
    return _scaled_pairs(E, r, clique_edges(m), vs, distinct=True)


def _count_clique_pairs(E: PointSet, r: int, m: int) -> int:
    """Pairs of m-tuples, distinct entries each, all pairwise norms in ratio r."""
    n = len(E)
    # as in iter_clique_pairs the v side runs over combinations, m! orders each
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

    This is the first item of iter_clique_pairs; any witness can be
    simultaneously reordered so its v side is increasing, so the search is
    still complete.
    """
    m = E.d + 1 if m is None else m
    found = _first_pair(E, ratio.r, clique_edges(m), iter_clique_pairs(E, ratio.r, m))
    return None if found is None else found[::-1]


def group_displacement_sums(E: PointSet, ratio: Ratio) -> tuple[int, int, int, int]:
    """|G| and the group sums of c^(d+1), c (c-1) .. (c-d) and c^d, G = O(d, p).

    One pass, one displacement_histogram per element, c over its counts: the
    group sums of shared_displacement_counts and of displacement_slice_direct.
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
    order, _, distinct, _ = group_displacement_sums(E, ratio)
    return Fraction(distinct, order)
