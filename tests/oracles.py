"""Reference routes and proof-step checks that the tests compare the package against.

Nothing here is reached from the command line.  Each function is either a
second, deliberately plain route to a number the package computes, or a
step of the paper's counting arguments evaluated on concrete tuples.  They
return plain numbers and containers; the tests assert on those.
"""

import itertools
from collections import Counter

from dilatelab.configcount import (
    CYCLE_EDGES,
    Ratio,
    count_scaled_cycle_pairs,
    displacement_histogram,
    path_edges,
    _walk_dp_scaled_pairs,
)
from dilatelab.errors import NotASquareRatioError
from dilatelab.families import classify_two_path_pairs, tally_moments, two_path_parts_closed_form
from dilatelab.geometry import PointSet
from dilatelab.orthogonal import OrthMatrix, scaled_apply


# ----------------------------------------------------------------------------
# scaled walk and cycle pairs, enumerated


def scaled_pattern_pairs(E: PointSet, r: int, edges):
    """Index-tuple pairs (xs, ys) whose squared distances along the edges are in ratio r.

    xs runs in lexicographic order over the tuples whose two ends differ on
    every edge, and ys over every tuple.  Every y tuple is grouped once by
    its profile along the edges; each xs yields the group at its r-scaled
    profile.  With path_edges(k) these are the scaled k-walk pairs, and with
    CYCLE_EDGES the scaled closed 4-walk pairs.
    """
    p = E.prime.p
    D = E.dist_table
    size = max(b for _, b in edges) + 1
    by_profile = {}
    for ys in itertools.product(range(len(E)), repeat=size):
        by_profile.setdefault(tuple(D[ys[a]][ys[b]] for a, b in edges), []).append(ys)
    for xs in itertools.product(range(len(E)), repeat=size):
        if all(xs[a] != xs[b] for a, b in edges):
            prof = tuple(r * D[xs[a]][xs[b]] % p for a, b in edges)
            for ys in by_profile.get(prof, ()):
                yield xs, ys


def first_scaled_pair(E: PointSet, r: int, edges, x_tuples):
    """The first xs of x_tuples with a y tuple of distinct entries at its r-scaled
    profile, and the first such ys from itertools.permutations, or None.

    Every tuple of distinct indices is grouped by its profile along the
    edges, the lexicographically first kept, so each xs is a lookup.
    """
    p = E.prime.p
    D = E.dist_table
    size = max(b for _, b in edges) + 1
    first = {}
    for ys in itertools.permutations(range(len(E)), size):
        first.setdefault(tuple(D[ys[a]][ys[b]] for a, b in edges), ys)
    for xs in x_tuples:
        ys = first.get(tuple(r * D[xs[a]][xs[b]] % p for a, b in edges))
        if ys is not None:
            return xs, ys
    return None


def count_step_walks(E: PointSet, steps) -> int:
    """Walks (x_1, .., x_{k+1}) in E whose i-th squared step length is steps[i].

    A prefix sweep over the set, one vector per step, never a (k+1)-fold loop.
    """
    p = E.prime.p
    steps = [t % p for t in steps]
    n = len(E)
    D = E.dist_table
    vec = [1] * n
    for t in steps:
        vec = [sum(vec[i] for i in range(n) if D[i][j] == t) for j in range(n)]
    return sum(vec)


def count_step_cycles(E: PointSet, steps) -> int:
    """Closed 4-walks (x_1, .., x_4) with the four prescribed squared steps."""
    p = E.prime.p
    t1, t2, t3, t4 = (t % p for t in steps)
    n = len(E)
    D = E.dist_table
    total = 0
    for a in range(n):
        row_a = D[a]
        for c in range(n):
            row_c = D[c]
            first = sum(1 for x in range(n) if row_a[x] == t1 and D[x][c] == t2)
            if first:
                second = sum(1 for x in range(n) if row_c[x] == t3 and D[x][a] == t4)
                total += first * second
    return total


def full_space_cycle_tables(p: int, d: int) -> tuple[dict, dict]:
    """The cycle census tables (x, y) of all of (Z/pZ)^d, by translation.

    Translating a closed 4-walk (a, b, c, e) by -a keeps its profile, so
    every walk is p^d times one with a = 0 and c = v, for one of the p^d
    vectors v.  Its middle points are then any b with ||b|| = t1 and
    ||v - b|| = t2 and any e with ||e|| = t4 and ||v - e|| = t3, so
    y(t) = p^d sum_v P_v(t1, t2) P_v(t4, t3), P_v(u, w) the number of b with
    ||b|| = u and ||v - b|| = w.  x, the walks with distinct consecutive
    points, is the same sum over b and e outside {0, v}.  Keyed like the
    census, by t1 + t2 p + t3 p^2 + t4 p^3, nonzero counts only.
    """
    space = list(itertools.product(range(p), repeat=d))
    zero = space[0]
    x, y = Counter(), Counter()
    for v in space:
        every, moving = Counter(), Counter()
        for b in space:
            pair = (sum(t * t for t in b) % p, sum((s - t) ** 2 for s, t in zip(v, b)) % p)
            every[pair] += 1
            if b not in (zero, v):
                moving[pair] += 1
        for table, P in ((y, every), (x, moving)):
            for (t1, t2), m1 in P.items():
                for (t4, t3), m2 in P.items():
                    table[t1 + t2 * p + t3 * p**2 + t4 * p**3] += p**d * m1 * m2
    return dict(x), dict(y)


# ----------------------------------------------------------------------------
# proof-step checks


def check_two_path_decomposition(E: PointSet, ratio: Ratio):
    """(open, S_2, S_1, A, B), each by an independent route.

    open is the brute classification's part with x1 != x3 and y1 != y3, S_k
    the walk_dp counts and A, B the closed forms of the x1 = x3 and y1 = y3
    parts.  Inclusion-exclusion gives open = S_2 + S_1 - A - B, since the
    pairs with both coincidences are the S_1 pairs.
    """
    parts = classify_two_path_pairs(E, ratio)
    a_closed, b_closed, _ = two_path_parts_closed_form(E, ratio)
    s2 = _walk_dp_scaled_pairs(E, ratio.r, 2)
    s1 = _walk_dp_scaled_pairs(E, ratio.r, 1)
    return parts.open_pairs, s2, s1, a_closed, b_closed


def four_cycle_fiber_check(E: PointSet, ratio: Ratio):
    """The collapse of the x1 = x3 cycle pairs onto the scaled 2-walk pairs.

    (x1, x2, x1, x4, y1, y2, y3, y4) maps to (x4, x1, x2, y4, y1, y2).
    Returns the fibers, a map from each image to how many cycle pairs it has,
    and the set of scaled 2-walk pairs as 6-tuples.  The collapse must cover
    that set exactly, with fibers of size at most p + 1.
    """
    r = ratio.r
    fibers = Counter(
        (x4, x1, x2, y4, y1, y2)
        for (x1, x2, x3, x4), (y1, y2, _, y4) in scaled_pattern_pairs(E, r, CYCLE_EDGES)
        if x1 == x3
    )
    targets = {xs + ys for xs, ys in scaled_pattern_pairs(E, r, path_edges(2))}
    return fibers, targets


def check_incidence_double_counts(E: PointSet, ratio: Ratio):
    """(pair_side, corner, S_1, S_2, C) for both incidence double counts.

    pair_side attaches each enumerated 1-step scaled pair to its two anchor
    vertices (x, y) and sums the squared anchor degrees; it must equal 4 S_2
    and is at least (2 S_1)^2 / n^2.  corner groups the 2-step pairs by
    their outer corners (x1, x3, y1, y3) and sums the squared group sizes; it
    must equal the cycle pair count C, taken by brute, and is at least
    S_2^2 / n^4.  S_1 and S_2 are the numbers of enumerated pairs.
    """
    r = ratio.r
    degree = Counter()
    for (x1, x2), (y1, y2) in scaled_pattern_pairs(E, r, path_edges(1)):
        degree[x1, y1] += 1
        degree[x2, y2] += 1
    corner = Counter(
        (x1, x3, y1, y3) for (x1, _, x3), (y1, _, y3) in scaled_pattern_pairs(E, r, path_edges(2))
    )
    c_count = count_scaled_cycle_pairs(E, ratio, "brute").value
    return (sum(v * v for v in degree.values()), sum(v * v for v in corner.values()),
            sum(degree.values()) // 2, sum(corner.values()), c_count)


def pair_collapse_fibers(E: PointSet, ratio: Ratio) -> dict[tuple, int]:
    """Fibers of the canonical collapse of incidence triples onto 2-step pairs.

    An incidence triple is (u, u', v) with u and u' 1-step pairs both touching
    the anchor v; gluing them along v yields a 2-step pair.  Every 2-step pair
    must arise from exactly four triples.
    """
    r = ratio.r
    touching: dict[tuple[int, int], list[tuple]] = {}
    for (x1, x2), (y1, y2) in scaled_pattern_pairs(E, r, path_edges(1)):
        tup = (x1, x2, y1, y2)
        touching.setdefault((x1, y1), []).append(tup)
        touching.setdefault((x2, y2), []).append(tup)

    fibers: dict[tuple, int] = {}
    for v, incident in touching.items():
        vx, vy = v
        for a, b, a2, b2 in incident:
            # the end of the first pair not glued to the anchor
            nx, ny = (b, b2) if (a, a2) == v else (a, a2)
            for c, d, c2, d2 in incident:
                mx, my = (d, d2) if (c, c2) == v else (c, c2)
                image = (nx, vx, mx, ny, vy, my)
                fibers[image] = fibers.get(image, 0) + 1
    return fibers


# ----------------------------------------------------------------------------
# shared-displacement tuple counts (per rotation)


def displacement_count(E: PointSet, ratio: Ratio, theta: "OrthMatrix", z) -> int:
    """The number of pairs (u, v) of E with u - sqrt(r)*theta*v = z, one v at a time."""
    if not ratio.is_square or ratio.sqrt_r is None:
        raise NotASquareRatioError(f"ratio {ratio.r} is not a nonzero square")
    p = E.prime.p
    z = tuple(c % p for c in z)
    count = 0
    for v in E.points:
        w = scaled_apply(theta, ratio.sqrt_r, v, p)
        u = tuple((a + b) % p for a, b in zip(z, w))
        if u in E:
            count += 1
    return count


def shared_displacement_counts(E: PointSet, ratio: Ratio, theta: "OrthMatrix") -> tuple[int, int]:
    """(all, distinct-source) counts of (d+1)-tuples of pairs sharing a displacement.

    A tuple here is ((u_1, v_1), .., (u_m, v_m)), m = d + 1, with every
    u_i - sqrt(r) * theta * v_i equal; "distinct-source" additionally
    requires the v_i to be pairwise distinct.  Within one displacement class
    the v's determine the pairs, so the two counts are power sums and
    falling-factorial sums of the displacement histogram.
    """
    return tally_moments(Counter(displacement_histogram(E, ratio, theta).values()), E.d + 1)


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
