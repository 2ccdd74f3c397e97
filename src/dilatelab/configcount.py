"""Raw counting engines for scaled point configurations.

The central objects are, for a point set E and a nonzero ratio r:

* profile tables, keyed by the code sum_i t_i p^i of a profile, the squared
  distances t_i along a pattern's edges; join(F, G, r, p) = sum F(t) G(r t)
  is the one place a ratio scales a profile;
* step-profile tables, one per walk length k: X_k counts the walks with
  distinct consecutive points by profile, and Y_k every walk; each is one
  packed sweep that keeps level k alone, and nu_identity joins X_k against
  Y_k, for every (p, d); walk_dp's S_3 joins Y_3 less its stays against Y_3;
* scaled walk/cycle pairs: pairs of walks (or closed 4-walks) where the
  second walk's squared step lengths are the first's multiplied by r, the
  first walk having distinct consecutive points; they are counted, never
  enumerated;
* the cycle census: the tables x and y of E's closed 4-walks, built once
  per set for every ratio; C is their join, and the four-cycle
  coincidence families join them and the step tables walked out and back;
* the brute oracle, brute_join: any pair count as the join of the profile
  histograms of its x and y tuples, each side of its own pattern, behind
  the one brute guard;
* the bucket search _first_scaled_pair, which finds a witness and counts
  nothing: the first pair of copies of a pattern, distinct entries on each
  side, the second scaled by r;
* ratio quadruples: 4-tuples (x, y, z, w) whose two segment norms are in
  ratio r with a nonzero denominator;
* displacement histograms: for a rotation theta, how many pairs (u, v) of E
  leave each displacement u - sqrt(r) * theta * v.

Every count is computed by at least two genuinely different methods at test
time, in exact integer arithmetic independent of any iteration schedule.
Tables and counts are memoised per set by geometry.per_set; refusals are
not, and refused_checks records each cross-check a guard left out.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, permutations, product, repeat
from operator import add, mul, sub
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    MethodMismatchError,
    NotASquareRatioError,
    TooLargeError,
)
from .field import Prime, legendre, sqrt_mod
from .geometry import Point, PointSet, _byte_affine, _byte_squares, per_set

if TYPE_CHECKING:  # pragma: no cover
    from .orthogonal import OrthMatrix

# Brute oracles that would visit more x and y tuples than this are refused.
BRUTE_GUARD = 10**6
# Step-profile sweeps whose packed rows would take more bytes are refused.
LANE_GUARD = 1 << 24
# Step-profile sweeps whose last level could hold more nonzero profiles are
# refused: each becomes a dict entry of the cached tables.  A level holds at most
# its m^k lanes and its n^(k+1) walks, so it is refused where both exceed this.
PROFILE_GUARD = 1 << 18
# Packed sweeps whose steps could form more bytes of lanes in all are refused.
SWEEP_GUARD = 1 << 30
# At k = 3 the paired-walk sweep joins the walk tables Y_3 and Y_2 where
# m^3 <= WALK_TABLE_FACTOR n^2, for n points and m distances: two packed
# sweeps of about n^2 + m n row operations on rows of m^2 lanes, then m^3
# profiles written to a dict and joined, one Python step each.  Otherwise,
# or where a guard refuses the tables, it runs its paired-state step, about
# n^3 + m n^2 lane operations.  On fresh random planar sets the two took the
# same time at m^3 / n^2 = 1 at p = 13, 2-3 at p = 31 and 3-4 at p = 61; at
# m^3 = 8 n^2 the tables took 1.7-3.3 times as long as the step.
WALK_TABLE_FACTOR = 2
# Cycle censuses whose tables could hold more profiles than this are refused:
# a table entry takes about 55 bytes, and at p = 101 the census of 40
# points (2.1M and 2.3M profiles) already holds 235 MiB, at a peak RSS of
# 295 MiB.
CENSUS_GUARD = 3 * 10**6

METHOD_BRUTE = "brute"
METHOD_NU_IDENTITY = "nu_identity"
METHOD_MU_IDENTITY = "mu_identity"
METHOD_WALK_DP = "walk_dp"


def _not_a_method_of(kind: str, method: str, methods) -> ValueError:
    return ValueError(f"{kind} has no method {method!r}; its methods are {', '.join(methods)}")


@dataclass(frozen=True)
class Ratio:
    """A nonzero dilation ratio with cached squareness and canonical root."""

    r: int
    is_square: bool
    sqrt_r: int | None


def make_ratio(r: int, prime: Prime) -> Ratio:
    r %= prime.p
    if r == 0:
        raise ValueError("a dilation ratio must be nonzero")
    if legendre(r, prime) == 1:
        return Ratio(r=r, is_square=True, sqrt_r=sqrt_mod(r, prime))
    return Ratio(r=r, is_square=False, sqrt_r=None)


@dataclass(frozen=True)
class CountReport:
    """A named integer count plus the method and parameters that produced it.

    It prints in one of two layouts, chosen per count kind by cli.REPORT_KINDS:
    a count's, or a family's, which calls the name "family" and leaves k out
    of its CSV row.
    """

    name: str
    value: int
    method: str
    p: int
    d: int
    set_size: int
    r: int | None = None
    k: int | None = None

    CSV_HEADER = "name,method,p,d,E_size,r,k,value"
    FAMILY_CSV_HEADER = "family,p,d,E_size,r,value,method"

    def csv_row(self, family: bool = False) -> str:
        r = "" if self.r is None else self.r
        if family:
            return f"{self.name},{self.p},{self.d},{self.set_size},{r},{self.value},{self.method}"
        k = "" if self.k is None else self.k
        return f"{self.name},{self.method},{self.p},{self.d},{self.set_size},{r},{k},{self.value}"

    def json_dict(self, family: bool = False) -> dict:
        return {
            "family" if family else "name": self.name,
            "method": self.method,
            "p": self.p,
            "d": self.d,
            "E_size": self.set_size,
            "r": self.r,
            "k": self.k,
            "value": self.value,
        }


def _report(E: PointSet, name: str, value: int, method: str, r=None, k=None) -> CountReport:
    return CountReport(
        name=name, value=value, method=method,
        p=E.prime.p, d=E.d, set_size=len(E), r=r, k=k,
    )


def _lane_bytes(bound: int) -> int:
    """Whole bytes a packed lane needs to hold every count in 0..bound."""
    return max(1, (bound.bit_length() + 7) // 8)


def _exceeds(n: int, e: int, bound: int) -> bool:
    """Whether n^e > bound, forming n^e only when 2^(e (b - 1)) <= bound, b = n.bit_length()."""
    return e * (n.bit_length() - 1) >= bound.bit_length() or n**e > bound


def _lane_width(n: int, e: int, k: int, lanes: int) -> int:
    """Whole bytes of a lane holding counts up to n^e, in k steps of at most `lanes` lanes.

    Refused, before n^e is formed, when the steps could form more than
    SWEEP_GUARD bytes of lanes of e n.bit_length() bits: e bits even for one
    point, so a huge k is refused on every set, not looped over.
    """
    bits = e * n.bit_length()
    if k * max(lanes, 1) * ((bits + 7) // 8) > SWEEP_GUARD:
        raise TooLargeError(f"{k} steps of {lanes} lanes of {bits} bits exceed {SWEEP_GUARD} bytes")
    return _lane_bytes(n**e)


def _class_sums(bucket, classes, sources) -> list[int]:
    """Per class c, the sum of sources[c][i] over the points i at classes[c] of a bucket row.

    Classes past the last source are skipped.  This is the one primitive of
    the packed sweeps.  Each source entry is a row of counts packed into a
    Python int with fixed-width byte lanes, so one big-int addition adds a
    whole row.  Lanes never carry into each other because every caller sizes
    them for the largest sum they can hold.
    """
    get = bucket.get
    return [sum(map(src.__getitem__, get(t, ()))) for t, src in zip(classes, sources)]


def _transpose(matrix: bytes, rows: int, lanes: int, width: int) -> list[int]:
    """The lanes x rows transpose of a row-major matrix of width-byte lanes.

    Returns one packed int per input lane, holding that lane of every row.
    """
    src_stride = lanes * width
    dst_stride = rows * width
    out = bytearray(len(matrix))
    for i in range(rows):
        base = i * src_stride
        for b in range(width):
            out[i * width + b :: dst_stride] = matrix[base + b : base + src_stride : width]
    view = memoryview(out)
    return [
        int.from_bytes(view[j * dst_stride : (j + 1) * dst_stride], "little")
        for j in range(lanes)
    ]


# The little-endian struct item of each lane width that _pack moves in one call,
# and the array item that _lanes reads a lane of at most that width into.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(values, width: int) -> int:
    """One int holding the sequence values as width-byte lanes, the first value lowest.

    A width of 1, 2, 4 or 8 bytes is one struct.pack; any other (3-byte
    lanes, a k = 3 class-sum row of m lanes of a row's width) joins one
    to_bytes per value, mapped in C."""
    if width in _FORMATS:
        raw = struct.pack(f"<{len(values)}{_FORMATS[width]}", *values)
    else:
        raw = b"".join(map(int.to_bytes, values, repeat(width), repeat("little")))
    return int.from_bytes(raw, "little")


def _lanes(value: int, lanes: int, width: int):
    """The lanes of a packed int, lowest first: for up to 8 bytes one array of the next
    item width up, zero-extended a byte plane at a time, so a level of millions of
    lanes is read in C with no int object per lane; wider lanes, past 2^64, a list."""
    raw = value.to_bytes(lanes * width, "little")
    del value  # a caller's packed temporary is freed before the lanes are laid out
    if width > 8:
        return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    size = next(s for s in _FORMATS if s >= width)
    if size == width:
        out = array(_FORMATS[size], raw)
    else:
        out = array(_FORMATS[size], [0]) * lanes
        for b in range(width):
            memoryview(out).cast("B")[b::size] = raw[b::width]
    if sys.byteorder == "big":
        out.byteswap()
    return out


def step_profile_counts(E: PointSet, k: int) -> dict:
    """Map from the codes sum_i ||x_i - x_{i+1}|| p^i of step profiles to X_k, the walks
    (x_0, .., x_k) with distinct consecutive points.

    The steps range over the nonzero distances of E, and over 0 where some
    point has another point at squared distance 0 (a null segment).  Only
    profiles with a nonzero count appear; k >= 1.  See _profile_sweep.
    """
    return _profile_sweep(E, k, stays=False)


def walk_profile_counts(E: PointSet, k: int) -> dict:
    """Map from step profile codes to Y_k, their walks, which may stay put.

    The sweep of step_profile_counts with each point in its own class of 0,
    so its steps are every distance of E, 0 included.  Where E has a null
    segment that is the step set of X_k too, so both tables take the same
    lanes and pass or fail the guards together.
    """
    return _profile_sweep(E, k, stays=True)


def _scaled_walk_table(E: PointSet, k: int) -> dict:
    """Y_k as the joins read it, at r-scaled profiles of the X tables.

    Without a null segment those profiles have no zero step, and at a
    profile without one no walk stays put, so Y_k = X_k there.
    """
    if E.norm_pair_counts[0] > len(E):
        return walk_profile_counts(E, k)
    return step_profile_counts(E, k)


@per_set
def _profile_sweep(E: PointSet, k: int, stays: bool) -> dict:
    """X_k, or with stays Y_k, as a map from profile codes to nonzero counts; memoised.

    Packed distance-class sweep: per endpoint j, one int whose lanes count
    the walks ending at j, one lane per profile of the level so far, the
    first step least significant.  A step sums the endpoint rows over each
    class of j's bucket row and concatenates the class sums, so the new
    lanes are the old profiles extended by each class; for X the class-0
    sum leaves out j's own row.  Rows are built up to level k - 1 only, and
    level k is summed by the degrees of PointSet.class_degrees (for X, j left out
    of its class 0): distance is symmetric, so the walks of class c out of
    the rows add up to sum_i deg_c(i) row[i], and the m class sums, joined
    as rows of lanes, are the total.  The level-1 rows, the class sums of
    rows of ones, are each point's class sizes, so they are packed from the
    degrees too, and k <= 2 builds no bucket row.  A lane holds at most
    n^(k+1) walks; lanes are that wide, rounded up to whole bytes.  Refused,
    before the classes are laid out where p > n (where p <= n
    norm_pair_counts lays them out, no larger than the rows), when level k
    could hold more than PROFILE_GUARD profiles (both its m^k lanes and its
    n^(k+1) walks are more), the n rows of level k - 1 and the level-k total
    (at k = 1, the n x m distance classes instead) would take more than
    LANE_GUARD bytes, or the k steps more than SWEEP_GUARD.
    """
    n, p = len(E), E.prime.p
    # every distance of E is a step, 0 only where a walk stays or a null segment moves
    m = len(E.norm_pair_counts)
    if not (stays or E.norm_pair_counts[0] > n):
        m -= 1
    if _exceeds(m, k, PROFILE_GUARD) and _exceeds(n, k + 1, PROFILE_GUARD):
        raise TooLargeError(f"{m}^{k} profiles exceed {PROFILE_GUARD} lanes")
    lanes = m**k
    # n rows of level k - 1 and the level-k total, or at k = 1 the n x m class layout
    held = max((n + m) * m ** (k - 1), n * m)
    width = _lane_width(n, k + 1, k, held)
    if held * width > LANE_GUARD:
        raise TooLargeError(f"{held} lanes of {width} bytes for {n} points and {lanes} "
                            f"profiles exceed {LANE_GUARD} bytes")
    classes, degrees = E.class_degrees
    steps, degrees = classes[:m], list(degrees[:m])
    own = not stays and m == len(classes)  # X leaves a point out of its class 0, the last step
    if own:
        degrees[-1] = [deg - 1 for deg in degrees[-1]]
    rows, row_bytes = [1] * n, width  # level 0
    if k > 1:  # level 1, each point's class sizes
        rows, row_bytes = [_pack(deg, width) for deg in zip(*degrees)], m * width
    for _ in range(k - 2):
        sources, last = [rows] * m, 8 * (m - 1) * row_bytes  # last: where class 0's sum starts
        rows = [_pack(_class_sums(bucket, steps, sources), row_bytes) - (row << last if own else 0)
                for bucket, row in zip(E.neighbor_buckets.rows(), rows)]
        row_bytes *= m
    # lane i is the profile whose steps are the base-m digits of i, lowest first;
    # product varies its last factor fastest, so it lists the profiles in lane order
    counts = _lanes(_pack([sum(map(mul, deg, rows)) for deg in degrees], row_bytes), lanes, width)
    profiles = product(*[[t * p**i for t in steps] for i in reversed(range(k))])
    return dict(zip(map(sum, compress(profiles, counts)), filter(None, counts)))


def path_edges(k: int) -> tuple[tuple[int, int], ...]:
    """The edge list of the k-step path 0 - 1 - .. - k."""
    return tuple((i, i + 1) for i in range(k))


# the 4-cycle x1 - x2 - x3 - x4 - x1
CYCLE_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3))


# The sides of a brute count, named by the tuples of indices they run over:
# every tuple, the tuples whose two ends differ on every edge, the tuples of
# distinct entries, and the increasing tuples.
EVERY = "every"
EDGE_DISTINCT = "edge_distinct"
DISTINCT = "distinct"
INCREASING = "increasing"


def _profile_blocks(table, p: int, edges, kind: str) -> Iterator[tuple[Iterable[int], list, int]]:
    """The profile codes of a side's tuples, one block per assignment of the prefix vertices.

    The code of a tuple is sum_i t_i p^i, with t_i = table[a][b] for the i-th
    edge (a, b) of the pattern.  The last vertex is free, and so is the first
    vertex not adjacent to it if there is one, unless the side is increasing.
    The other vertices, the prefix, are enumerated with itertools; per prefix
    a free vertex is a column of n codes, its weighted table rows towards its
    prefix neighbours summed, with the indices its side excludes deleted: the
    prefix neighbours on an edge-distinct side, the whole prefix on a
    distinct one, and on an increasing one every index up to the prefix's
    last.  Two free vertices are not adjacent, so the block is the outer sum
    of their columns.  Each block is (codes, back, size): the codes of its
    tuples, codes to take back out (the diagonal of the two columns of a
    distinct side, whose free vertices may not coincide), and how many
    tuples it holds.
    """
    n = len(table)
    size = max(b for _, b in edges) + 1
    last = size - 1
    near = {a for a, b in edges if b == last} | {b for a, b in edges if a == last}
    far = [v for v in range(last) if v not in near]
    free = (far[0], last) if far and kind != INCREASING else (last,)
    slot = {v: i for i, v in enumerate(v for v in range(size) if v not in free)}
    inner = [(p**i, slot[a], slot[b]) for i, (a, b) in enumerate(edges) if a in slot and b in slot]
    links = [
        [(table if i == 0 else [tuple(map((p**i).__mul__, row)) for row in table],
          slot[b if a == f else a])
         for i, (a, b) in enumerate(edges) if f in (a, b)]
        for f in free
    ]
    if kind == DISTINCT:
        prefixes = permutations(range(n), len(slot))
    elif kind == INCREASING:
        prefixes = combinations(range(n), len(slot))
    else:
        prefixes = product(range(n), repeat=len(slot))
        if kind == EDGE_DISTINCT:
            prefixes = (xs for xs in prefixes if all(xs[a] != xs[b] for _, a, b in inner))
    for xs in prefixes:
        cols = []
        for link in links:
            (rows, s), *rest = link
            col = rows[xs[s]]
            for rows, s in rest:
                col = map(add, col, rows[xs[s]])
            col = list(col)
            if kind == INCREASING:
                del col[: xs[-1] + 1]
            elif kind != EVERY:
                for j in sorted(xs if kind == DISTINCT else {xs[s] for _, s in link},
                                reverse=True):
                    del col[j]
            cols.append(col)
        hi = cols[0]
        if inner:
            hi = list(map(sum(w * table[xs[a]][xs[b]] for w, a, b in inner).__add__, hi))
        if len(cols) == 1:
            yield hi, [], len(hi)
            continue
        lo = cols[1]
        m = len(lo)
        codes = map(add, chain.from_iterable(map(repeat, hi, repeat(m))), lo * m)
        back = list(map(add, hi, lo)) if kind == DISTINCT else []
        yield codes, back, len(hi) * m - len(back)


def brute_join(E: PointSet, r: int, edges, x_kind: str, y_kind: str, visits: int,
               y_edges=None) -> int:
    """Pairs (xs, ys) from an x_kind and a y_kind side, ys the pattern of xs scaled by r.

    With X(t) and Y(t) the numbers of x and y tuples whose squared distances
    along the edges are t, this is the join sum_t X(t) Y(r t); the y side may
    have its own pattern y_edges, whose i-th edge scales the i-th of edges.
    X is held as a histogram of codes of r-scaled profiles, read from the
    r-scaled distance table, and the y codes stream against it; both sides
    are _profile_blocks.  Refused before any tuple is visited when visits,
    the number of x and y tuples, exceeds BRUTE_GUARD.
    """
    y_edges = edges if y_edges is None else y_edges
    if len(y_edges) != len(edges):
        raise ValueError(f"a y pattern of {len(y_edges)} edges against {len(edges)}")
    if visits > BRUTE_GUARD:
        raise TooLargeError(f"a brute count over {visits} tuples refused, over {BRUTE_GUARD}")
    p = E.prime.p
    D = E.dist_table
    X = Counter()
    visited = 0
    scaled = [tuple(map(p.__rmod__, map(r.__mul__, row))) for row in D]
    for codes, back, size in _profile_blocks(scaled, p, edges, x_kind):
        X.update(codes)
        if back:
            X.subtract(back)
        visited += size
    get = X.get
    total = 0
    for codes, back, size in _profile_blocks(D, p, y_edges, y_kind):
        total += sum(map(get, codes, repeat(0))) - sum(map(get, back, repeat(0)))
        visited += size
    if visited != visits:
        raise AssertionError(f"internal error: {visited} tuples visited, {visits} guarded")
    return total


def _completion(buckets, D, into, prof, ys) -> tuple | None:
    """The first completion of the partial y tuple ys in the search order of
    _first_scaled_pair, or None.  Module-level, so the search holds no
    reference cycle that would keep the searched set alive."""
    depth = len(ys)
    if depth == len(into):
        return tuple(ys)
    (i, a), checks = into[depth]
    for j in buckets[ys[a]].get(prof[i], ()):
        if j in ys:
            continue
        for e, c in checks:
            if D[j][ys[c]] != prof[e]:
                break
        else:
            ys.append(j)
            if found := _completion(buckets, D, into, prof, ys):
                return found
            ys.pop()
    return None


@lru_cache(maxsize=None)
def _edges_into(edges: tuple) -> tuple:
    """Per vertex b > 0 of the pattern, its first edge into an earlier vertex and
    the others, each as (edge index, earlier end); vertex 0 has none."""
    into = [[] for _ in range(max(b for _, b in edges) + 1)]
    for i, (a, b) in enumerate(edges):
        into[b].append((i, a))
    return (None, *((first, tuple(rest)) for first, *rest in into[1:]))


def _first_scaled_pair(E: PointSet, r: int, edges, x_tuples) -> tuple[tuple, tuple] | None:
    """The first pair (xs, ys), xs from x_tuples and ys a copy of the pattern scaled by r.

    The pattern is a graph H on the vertices 0..v-1 given by its edge list,
    pairs (a, b) with a < b, and every vertex b > 0 has an earlier
    neighbour.  ys is a tuple of v indices with D[ys[a]][ys[b]] equal to
    r D[xs[a]][xs[b]] on every edge, and its entries are pairwise distinct.
    ys is found by a depth-first search: y0 ascending, then ys[b] drawn in
    index order from PointSet.neighbor_buckets of the other end of b's
    first listed edge, b's other edges into earlier vertices checked.  So
    the first ys of an xs is the least such tuple in lexicographic order.
    A y0 is tested against its distance row, so only the bucket rows the
    search reads are built.  ys depends on xs only through its scaled
    profile, so a profile without a completion is searched once.  None when
    no xs has a completion.
    """
    p = E.prime.p
    D = E.dist_table
    into = _edges_into(tuple(edges))
    first = into[1][0][0]  # the edge from vertex 0 to vertex 1
    buckets = E.neighbor_buckets
    empty = set()
    for xs in x_tuples:
        prof = tuple(r * D[xs[a]][xs[b]] % p for a, b in edges)
        if prof in empty:
            continue
        t = prof[first]
        for y0, row in enumerate(D):
            # a y0 without a y1 is skipped before any call, and before its bucket is built
            if t in row and (ys := _completion(buckets, D, into, prof, [y0])):
                return xs, ys
        empty.add(prof)
    return None


def _brute_scaled_walk_pairs(E: PointSet, r: int, k: int) -> int:
    n = len(E)
    # n^(k+1) y tuples, refused before any edge list is formed; one point counts
    # as two, as in _lane_width, so a long walk on one point is refused too
    if _exceeds(max(n, 2), k + 1, BRUTE_GUARD):
        raise TooLargeError(
            f"a brute count of {k}-step walks on {n} points refused, over {BRUTE_GUARD} tuples"
        )
    return brute_join(E, r, path_edges(k), EDGE_DISTINCT, EVERY,
                      visits=n * (n - 1) ** k + n ** (k + 1))


def _nu_identity_scaled_walk_pairs(E: PointSet, r: int, k: int) -> int:
    return join(step_profile_counts(E, k), _scaled_walk_table(E, k), r, E.prime.p)


def _walk_table_pairs(E: PointSet, r: int, distinct_first: bool) -> int:
    """S_3 of _paired_walk_sweep from the walk tables Y_3 and Y_2; no paired state.

    With distinct_first, S_3 = J(X_3, Y_3) and X_3 is Y_3 by inclusion-exclusion
    over the walks (x, i, j, y) that stay put: x = i, i = j and j = y each
    take the 2-walks Y_2 off with a 0 step placed at that step; two give back
    the pairs of norm_pair_counts, the one moving step s at s p^2, s p or s;
    and all three take n off at code 0.  For the graph T = M - I (x) I,
    M = sum_s A_s (x) A_{rs}, and 1^T M^j 1 = J(Y_j, Y_j), Y_1 the pairs, so
    S_3 = J(Y_3, Y_3) - 3 J(Y_2, Y_2) + 3 J(Y_1, Y_1) - n^2.  Refused where
    walk_profile_counts refuses Y_3.
    """
    n, p = len(E), E.prime.p
    y3, y2, pairs = walk_profile_counts(E, 3), walk_profile_counts(E, 2), E.norm_pair_counts
    if not distinct_first:
        return join(y3, y3, r, p) - 3 * join(y2, y2, r, p) + 3 * join(pairs, pairs, r, p) - n * n
    x, pp = y3.copy(), p * p
    for c, v in y2.items():  # the 2-walk c = s + t p with a 0 step first, second or last
        for code in (c * p, c % p + c // p * pp, c):
            x[code] -= v
    for t, v in pairs.items():
        for code in (t * pp, t * p, t):
            x[code] += v
    x[0] -= n
    return join(x, y3, r, p)


def _paired_walk_sweep(E: PointSet, r: int, k: int, distinct_first: bool) -> int:
    """Pairs of k-step walks (x_i), (y_i) with ||y_i - y_{i+1}|| = r ||x_i - x_{i+1}||.

    This is 1^T T^k 1 for the paired-state operator T = sum_s A'_s (x) A_{rs},
    with A_s the indicator matrix of squared distance s.  With distinct_first
    the first walk never stays put (A'_0 = A_0 - I, the walk_dp count);
    otherwise only the step that keeps both points is dropped (the similarity
    graph, whose vertices are the pairs).

    Packed distance-class sweep: the state V[x][y] is held as packed ints with
    one fixed-width byte lane per point.  One step is four stages:
      1. transpose the rows of V (lanes over y) to columns (lanes over x);
      2. per y', sum the columns by the class of (y, y'), which gives
         (V A_s)[., y'] for every class s at once;
      3. transpose every class to rows over x with lanes over y';
      4. per x', add up (V A_{r s})[x] over x by the class s of (x', x), then
         subtract the stationary term.
    The subtracted term is the x = x' summand itself, or for the graph the
    part of it with y = y', which class 0 holds; so no lane goes negative.
    The first and last steps are summed by the degrees of PointSet.class_degrees
    instead, and read no bucket row: deg_s(x) is the number of points in
    row x of A_s (x itself in class 0).  From V = J
    row x' becomes sum_s deg_s(x') Deg_{rs}, Deg_t the packed vector of every
    point's deg_t, less Deg_0 or, for the graph, the row of ones; class 0
    maps to itself and holds x', so no lane goes negative.  Distance is
    symmetric, so the last step adds sum_s sum_y deg_{rs}(y) (sum_x deg_s(x)
    V[x])[y], less the stationary term summed the same way: sum_y deg_0(y)
    (sum V)[y], or sum V for the graph.  So k = 2 runs no four-stage step,
    and neither does k = 3 where m^3 <= WALK_TABLE_FACTOR n^2: there S_3 is
    joined from the memoised walk tables Y_3 and Y_2 (_walk_table_pairs),
    unless their guards refuse them.  k >= 4 runs k - 2 steps.  An entry never
    exceeds n^(2k): it counts pairs of walks with at most k free steps each.
    Lanes are that wide, rounded up to whole bytes, and _lane_width refuses
    k steps of m n^2 lanes, m classes, past SWEEP_GUARD, before either form
    is chosen.
    """
    n, p = len(E), E.prime.p
    m = len(E.norm_pair_counts)
    width = _lane_width(n, 2 * k, k, m * n * n)
    if k == 3 and m**3 <= WALK_TABLE_FACTOR * n * n:
        try:
            return _walk_table_pairs(E, r, distinct_first)
        except TooLargeError:  # a refused walk table: the paired-state step counts instead
            pass
    classes, degrees = E.class_degrees
    row_bytes = n * width
    slot = {t: c for c, t in enumerate(classes)}
    scaled = [slot.get(r * t % p) for t in classes]
    zero = [0] * n
    ones = _pack([1] * n, width)
    if k == 1:
        rows = [ones] * n
    else:
        packed = [_pack(deg, width) for deg in degrees]
        by_scale = [0 if c is None else packed[c] for c in scaled]
        stay = packed[-1] if distinct_first else ones  # class 0 is last
        rows = [sum(map(mul, deg, by_scale)) - stay for deg in zip(*degrees)]
    for _ in range(k - 2):
        buckets = E.neighbor_buckets.rows()
        cols = _transpose(b"".join(v.to_bytes(row_bytes, "little") for v in rows),
                          n, n, width)
        sources = [cols] * m
        sums = b"".join(s.to_bytes(row_bytes, "little")
                        for bucket in buckets for s in _class_sums(bucket, classes, sources))
        flat = _transpose(sums, n, m * n, width)
        by_class = [flat[c * n : (c + 1) * n] for c in range(m)]
        sources = [zero if c is None else by_class[c] for c in scaled]
        stay = by_class[-1] if distinct_first else rows  # class 0 is last
        rows = [sum(_class_sums(bucket, classes, sources)) - stay[xp]
                for xp, bucket in enumerate(buckets)]
    total = sum(sum(map(mul, degrees[c], _lanes(sum(map(mul, deg, rows)), n, width)))
                for deg, c in zip(degrees, scaled) if c is not None)
    stay = degrees[-1] if distinct_first else [1] * n
    return total - sum(map(mul, stay, _lanes(sum(rows), n, width)))


def _walk_dp_scaled_pairs(E: PointSet, r: int, k: int) -> int:
    return _paired_walk_sweep(E, r, k, distinct_first=True)


@per_set
def count_scaled_walk_pairs(E: PointSet, ratio: Ratio, k: int, method: str = METHOD_WALK_DP) -> CountReport:
    """Pairs of k-step walks whose squared step lengths are in ratio r.

    The first walk must have distinct consecutive points; the second walk is
    unconstrained apart from the k scaled-length equations.  Methods: "brute"
    (the profile join of brute_join), "nu_identity" (the join of the
    step-profile tables X_k and Y_k), "walk_dp" (the packed paired-state
    sweep of _paired_walk_sweep); all are valid for every (p, d).  Memoised
    per (r, k, method).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if method == METHOD_BRUTE:
        value = _brute_scaled_walk_pairs(E, ratio.r, k)
    elif method == METHOD_NU_IDENTITY:
        value = _nu_identity_scaled_walk_pairs(E, ratio.r, k)
    elif method == METHOD_WALK_DP:
        value = _walk_dp_scaled_pairs(E, ratio.r, k)
    else:
        raise _not_a_method_of("S_k", method, (METHOD_BRUTE, METHOD_NU_IDENTITY, METHOD_WALK_DP))
    return _report(E, f"S_{k}", value, method, r=ratio.r, k=k)


def _brute_scaled_cycle_pairs(E: PointSet, r: int) -> int:
    n = len(E)
    # the x side is the closed 4-walks of K_n: tr (J - I)^4 = (n-1)^4 + n-1
    return brute_join(E, r, CYCLE_EDGES, EDGE_DISTINCT, EVERY,
                      visits=(n - 1) ** 4 + n - 1 + n**4)


def _doubled(table: dict, p: int) -> dict:
    """A 1- or 2-step table with each step walked out and back: (s) -> (s, s),
    (s, u) -> (s, s, u, u), code c -> (c mod p + (c div p) p^2)(p + 1).  So the
    2-walk (b, a, e) becomes the closed walk (a, b, a, e), and a pair doubled
    twice the closed walk (a, b, a, b)."""
    pp = p * p
    return {(c % p + c // p * pp) * (p + 1): v for c, v in table.items()}


@dataclass(frozen=True)
class CycleCensus:
    """Per-profile counts of the closed 4-walks (a, b, c, e) of a point set.

    A table maps the code t1 + t2 p + t3 p^2 + t4 p^3 of a profile along
    CYCLE_EDGES, (D[a][b], D[b][c], D[c][e], D[a][e]), to its nonzero
    number of walks: y and x are brute_join's EVERY and EDGE_DISTINCT sides,
    y counting every closed walk and x the walks with distinct consecutive
    points.  C = J(x, y).  Their restrictions to a = c, and to a = c and
    b = e both, are the step tables doubled (_doubled), so the census keeps
    no table of them.
    """

    x: dict
    y: dict


@per_set
def cycle_census(E: PointSet) -> CycleCensus:
    """The closed 4-walk tables of E, independent of any ratio.  Memoised.

    y, every closed walk, by the corner split: with H_ac(h) the number of
    points b whose pair code D[a][b] + D[c][b] p is h, y sums H_ac(h) H_ac(h')
    over (a, c) at the code h + swap(h') p^2, swap exchanging the two digits
    of a pair code: the middle point b has the pair (t1, t2) and e has
    (t4, t3).  The histograms are built for a != c only; the a = c terms are
    the 2-walks (b, a, e) walked out and back, walk_profile_counts(E, 2)
    doubled, which reads no bucket row.  Each term is summed once per
    symmetry class: a pair a < c stands for (c, a) too, whose term is the
    same count with both pair codes swapped; and of the two products
    H(h) H(h') and H(h') H(h) only one is formed, the other being the same
    count at the walk read backwards.  The images are added at the end.

    x, the walks with distinct consecutive points, is y by
    inclusion-exclusion over the four edge coincidences a = b, b = c, c = e
    and e = a.  One coincidence leaves a closed 3-walk, its profile with a 0
    digit at the collapsed edge; the 3-walks (a, b, c) with a != c are H_ac
    by their first two steps, their third D[a][c], and those with a = c are
    norm_pair_counts doubled, at (s, s, 0).  Two leave an ordered pair of
    points at distance s, norm_pair_counts[s] walks with the digit s at the
    two other edges, whichever two they are.  Three or four leave one point,
    n walks at code 0 for each of the four triples and for all four.  So
    x = y - (the 3-walks at each of the four edges) + (the pairs at each of
    the six edge pairs) - 3n at code 0.

    Cost O(n^2 h^2) for h histogram keys, with h <= min(n, p^2); x adds
    O(h) per pair and O(m^3) for the m distances of E.  Refused when
    min(n, m)^4, a bound on the profiles of a table, exceeds CENSUS_GUARD,
    or where the guards of _profile_sweep refuse the 2-step walk table.
    """
    n, p = len(E), E.prime.p
    pp = p * p
    # a profile has four of the m distances of E, and a walk has one profile
    pairs = E.norm_pair_counts
    m = len(pairs)
    if min(n, m) ** 4 > CENSUS_GUARD:
        raise TooLargeError(
            f"a cycle census of {n} points with {m} distances may hold "
            f"{min(n, m)}^4 profiles, over {CENSUS_GUARD}"
        )
    y = _doubled(walk_profile_counts(E, 2), p)  # the walks with a = c
    D = E.dist_table
    high = [[t * p for t in row] for row in D]
    swap = {s + t * p: t + s * p for s in pairs for t in pairs}
    half: dict[int, int] = {}
    corners: dict[int, int] = {}  # the 3-walks (a, b, c), a < c, at h + D[a][c] p^2
    get, get3 = half.get, corners.get
    for a in range(n):
        row = D[a]
        for c in range(a + 1, n):
            # in key order, so half holds each unordered pair of keys at one code
            items = sorted(Counter(map(add, row, high[c])).items())
            third = row[c] * pp
            for i, (k1, v1) in enumerate(items):
                code = third + k1
                corners[code] = get3(code, 0) + v1
                base = k1 * pp
                for k2, v2 in items[i:]:
                    code = base + k2
                    half[code] = get(code, 0) + v1 * v2
    get = y.get
    for code, v in half.items():
        k1, k2 = divmod(code, pp)
        s1, s2 = swap[k1], swap[k2]
        # the walks (a, b, c, e) and (c, b, a, e); unless k1 = k2, e and b exchanged too
        images = (k1 + s2 * pp, s1 + k2 * pp)
        if k1 != k2:
            images += (k2 + s1 * pp, s2 + k1 * pp)
        for code in images:
            y[code] = get(code, 0) + v
    del half  # x is built beside y, not beside half too
    # the 3-walks (a, b, c) and (c, b, a), and (a, b, a), whose third step is 0
    walks3 = _doubled(pairs, p)
    for code, v in corners.items():
        third, h = divmod(code, pp)
        for w in (code, swap[h] + third * pp):
            walks3[w] = walks3.get(w, 0) + v
    # every code below is the code of a walk with a coincidence, so a key of y
    x = y.copy()
    for w, v in walks3.items():
        w1, w12 = w % p, w % pp
        for code in (w * p, w1 + (w - w1) * p, w12 + (w - w12) * p, w):
            x[code] -= v
    for s, v in pairs.items():
        for i, j in combinations(range(4), 2):
            x[s * (p**i + p**j)] += v
    x[0] -= 3 * n
    for code in [code for code, v in x.items() if not v]:  # in place: x is as large as y
        del x[code]
    return CycleCensus(x=x, y=y)


# join scales the keys of the table it iterates through an array of every
# r-scaled code below p^e, e the digits of its largest key, where p^e is at
# most SCALE_ARRAY_FACTOR times its keys; a sparser table scales each key by
# _code_scale.  On Y_3 at p = 13 and 94 points (one key per array entry) a
# join took 0.29 ms through the array, its build included, and 0.55 ms by
# the closure (2-core Linux machine, Python 3.11, timeit).
SCALE_ARRAY_FACTOR = 4


def _scaled_codes(r: int, p: int, e: int) -> list[int]:
    """Entry c, for every code c below p^e, is the code of c's profile scaled by r.

    Built a digit at a time: the codes below p^(i+1) are the top digit h
    times p^i plus each code below p^i, in that order, so a comprehension
    over the scaled top digits and the scaled codes so far lists them.
    """
    digit = [r * t % p for t in range(p)]
    scaled = digit
    for i in range(1, e):
        scaled = [hi + lo for hi in [t * p**i for t in digit] for lo in scaled]
    return scaled


@lru_cache(maxsize=32)
def _code_scale(r: int, p: int):
    """The map from a profile code to the code of its r-scaled profile, two digits at a
    time from the pair codes scaled so far, so a code below p^4 takes one divmod.  A map
    holds up to p^2 pair codes, so the last 32 are kept: every ratio of p <= 31."""
    pp = p * p
    pair: dict[int, int] = {}

    def scale(code: int) -> int:
        hi, lo = divmod(code, pp)
        try:
            return (pair[hi] if hi < pp else scale(hi)) * pp + pair[lo]
        except KeyError:  # a plain dict: a subclass's __missing__ slows every lookup by 30%
            pair.update({c: r * (c // p) % p * p + r * c % p for c in (hi % pp, lo)})
            return scale(code)

    return scale


def join(first: dict, second: dict, r: int, p: int) -> int:
    """J(F, G): the sum over profiles t of F(t) G(r t), F and G keyed by profile code.

    Every profile table is keyed by the code sum_i t_i p^i of its profiles
    (t_0, .., t_{k-1}), and r scales each base-p digit mod p.  The smaller
    table is the one iterated: J(F, G) is also the sum over u of
    F(r^-1 u) G(u), so a join against a small table reads only its keys.
    Those keys are scaled by lookup in _scaled_codes where that array, the
    p^e codes below p^e for e the digits of the largest key, holds at most
    SCALE_ARRAY_FACTOR codes per key, and otherwise one by one by
    _code_scale.
    """
    if len(second) < len(first):
        first, second, r = second, first, pow(r, -1, p)
    e, top = 1, max(first, default=0) // p
    while top:
        e, top = e + 1, top // p
    if p**e <= SCALE_ARRAY_FACTOR * len(first):
        scale = _scaled_codes(r, p, e).__getitem__
    else:
        scale = _code_scale(r, p)
    return sum(map(mul, first.values(), map(second.get, map(scale, first), repeat(0))))


def _mu_identity_scaled_cycle_pairs(E: PointSet, r: int) -> int:
    census = cycle_census(E)
    return join(census.x, census.y, r, E.prime.p)


@per_set
def count_scaled_cycle_pairs(E: PointSet, ratio: Ratio, method: str = METHOD_MU_IDENTITY) -> CountReport:
    """Pairs of closed 4-walks with squared step lengths in ratio r.

    The first cycle must have distinct consecutive points (including the
    wrap-around step); the second is unconstrained apart from the four
    scaled-length equations.  Memoised per (r, method).
    """
    if method == METHOD_BRUTE:
        value = _brute_scaled_cycle_pairs(E, ratio.r)
    elif method == METHOD_MU_IDENTITY:
        value = _mu_identity_scaled_cycle_pairs(E, ratio.r)
    else:
        raise _not_a_method_of("C", method, (METHOD_BRUTE, METHOD_MU_IDENTITY))
    return _report(E, "C", value, method, r=ratio.r)


def count_ratio_quadruples(E: PointSet, ratio: Ratio) -> CountReport:
    """Quadruples (x, y, z, w) with norm(x-y) = r * norm(z-w) and norm(z-w) != 0.

    Unlike the scaled walk pairs this constrains the *norm* of z - w, not the
    points themselves, so the two counts can differ when nonzero vectors of
    norm zero exist.
    """
    counts = E.norm_pair_counts
    value = join({t: c for t, c in counts.items() if t != 0}, counts, ratio.r, E.prime.p)
    return _report(E, "V", value, method=METHOD_NU_IDENTITY, r=ratio.r)


def displacement_histogram(E: PointSet, ratio: Ratio, theta: "OrthMatrix") -> dict[Point, int]:
    """For each z, the number of pairs (u, v) of E with u - sqrt(r)*theta*v = z.

    Built a coordinate at a time, like PointSet.dist_table, and with its cut:
    bytes columns while d(p - 1) <= 255, int columns past it.  Coordinate i
    of the images w = sqrt(r) theta v is the column sum over j of
    (sqrt(r) theta_ij mod p) v_j.  A bytes image column translates each
    coordinate column by "times a mod p", sums the d parts as one big int,
    in which no byte lane carries, and reduces the sum mod p by one more
    translation.  Over the n^2 ordered pairs, v outer and u inner, the
    displacement column u_i - w_i is then one translation of the u column
    per image, by c -> (c - w) mod p, joined.  An int displacement column
    tiles the u column, repeats each image n times and reduces each
    difference mod p, with no table of p entries.  The histogram counts the
    rows of the d columns; nothing is kept on E.
    """
    if not ratio.is_square or ratio.sqrt_r is None:
        raise NotASquareRatioError(f"ratio {ratio.r} is not a nonzero square")
    p = E.prime.p
    n = len(E)
    cols = zip(*E.points)
    s = ratio.sqrt_r
    columns = []
    if E.d * (p - 1) <= 255:
        _, modp = _byte_squares(p)
        times, shift = _byte_affine(p)
        cols = tuple(map(bytes, cols))
        for row, col in zip(theta.entries, cols):
            parts = map(bytes.translate, cols, [times[s * t % p] for t in row])
            w = sum(map(int.from_bytes, parts, repeat("little"))).to_bytes(n, "little")
            columns.append(b"".join(map(col.translate, map(shift.__getitem__, w.translate(modp)))))
    else:
        cols = tuple(cols)
        for row, col in zip(theta.entries, cols):
            w = repeat(0, n)
            for t, c in zip(row, cols):
                w = map(add, w, map((s * t % p).__mul__, c))
            repeated = chain.from_iterable(map(repeat, map(p.__rmod__, w), repeat(n)))
            columns.append(map(p.__rmod__, map(sub, col * n, repeated)))
    return Counter(zip(*columns))


def walk_pair_reports(E: PointSet, ratio: Ratio, k: int) -> list[CountReport]:
    """walk_dp, cross-checked by nu_identity where its guard admits it."""
    return _cross_checked(E, lambda m: [count_scaled_walk_pairs(E, ratio, k, m)],
                          METHOD_WALK_DP, [METHOD_NU_IDENTITY], ("S_k", ratio.r, k))


def cycle_pair_reports(E: PointSet, ratio: Ratio) -> list[CountReport]:
    """mu_identity, cross-checked by brute where its guard admits it."""
    return _cross_checked(E, lambda m: [count_scaled_cycle_pairs(E, ratio, m)],
                          METHOD_MU_IDENTITY, [METHOD_BRUTE], ("C", ratio.r, None))


@per_set
def refused_checks(E: PointSet) -> dict:
    """(kind, r, k, method) -> 'guard: ..' or 'not a square', per method on E left out."""
    return {}


def _cross_checked(E: PointSet, count, first: str, optional, key) -> list:
    """count(first)'s rows and each optional method's that its guard admits, which
    must equal first's row by row as far as both go."""
    rows = count(first)
    reports = list(rows)
    for m in optional:
        try:
            more = count(m)
        except TooLargeError as exc:  # key is the count's (kind, r, k)
            refused_checks(E)[(*key, m)] = f"guard: {exc}"
            continue
        if any(mine.value != theirs.value for mine, theirs in zip(rows, more)):
            raise MethodMismatchError(
                f"methods disagree on (kind, r, k) = {key} (p={E.prime.p}, d={E.d}, n={len(E)}): "
                f"{first}={[row.value for row in rows]}, {m}={[row.value for row in more]}; "
                f"points={list(E.points)}")
        reports.extend(more)
    return reports
