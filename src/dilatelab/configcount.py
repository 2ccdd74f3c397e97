"""Raw counting engines for scaled point configurations.

The central objects are, for a point set E and a nonzero ratio r:

* step-walk counts: how many walks through E have a prescribed sequence of
  squared step lengths (and the closed 4-walk variant);
* step-profile tables, one per walk length k: X_k counts the walks with
  distinct consecutive points by profile, and Y_k every walk; each is one
  packed sweep that keeps level k alone, and nu_identity joins X_k against
  the r-scaled Y_k, for every (p, d);
* scaled walk/cycle pairs: pairs of walks (or closed 4-walks) where the
  second walk's squared step lengths are the first's multiplied by r, the
  first walk having distinct consecutive points; they are counted, never
  enumerated;
* the cycle census: per-profile tables of E's closed 4-walks, built once
  per set for every ratio, whose joins against their r-scaled profiles give
  the cycle pair count C and the four-cycle coincidence families;
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

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product, repeat
from operator import add, mul, sub
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (
    MethodMismatchError,
    NotASquareRatioError,
    TooLargeError,
)
from .field import Prime, legendre, sqrt_mod
from .geometry import Point, PointSet, per_set
from .orthogonal import scaled_apply

if TYPE_CHECKING:  # pragma: no cover
    from .orthogonal import OrthMatrix

# Brute oracles that would visit more x and y tuples than this are refused.
BRUTE_GUARD = 10**6
# Step-profile sweeps whose packed rows would take more bytes are refused.
LANE_GUARD = 1 << 24
# Step-profile sweeps whose last level would hold more profiles (lanes) are
# refused: each nonzero one becomes a dict entry of the cached tables.
PROFILE_GUARD = 1 << 18
# Packed sweeps whose steps could form more bytes of lanes in all are refused.
SWEEP_GUARD = 1 << 30
# Cycle censuses whose tables could hold more profiles than this are refused:
# a table entry takes about 70 bytes, and at p = 101 the census of 40
# points (2.2M and 2.3M profiles) already holds 300 MiB.
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
    """A named integer count plus the method and parameters that produced it."""

    name: str
    value: int
    method: str
    p: int
    d: int
    set_size: int
    r: int | None = None
    k: int | None = None

    CSV_HEADER = "name,method,p,d,E_size,r,k,value"

    def csv_row(self) -> str:
        r = "" if self.r is None else self.r
        k = "" if self.k is None else self.k
        return f"{self.name},{self.method},{self.p},{self.d},{self.set_size},{r},{k},{self.value}"

    def json_dict(self) -> dict:
        return {
            "name": self.name,
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


def count_step_walks(E: PointSet, steps: Iterable[int]) -> int:
    """Walks (x_1, .., x_{k+1}) in E whose i-th squared step length is steps[i].

    Computed by a prefix sweep over the set, one vector per step, never by a
    (k+1)-fold loop.
    """
    p = E.prime.p
    steps = [t % p for t in steps]
    n = len(E)
    D = E.dist_table
    vec = [1] * n
    for t in steps:
        vec = [sum(vec[i] for i in range(n) if D[i][j] == t) for j in range(n)]
    return sum(vec)


def count_step_cycles(E: PointSet, steps: Iterable[int]) -> int:
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


@per_set
def _distance_classes(E: PointSet) -> tuple[tuple[int, ...], tuple]:
    """The distinct squared distances of E and, per point, its buckets by position.

    A memoised view of PointSet.neighbor_buckets that fixes the lane order of
    the packed sweeps: classes lists the nonzero distances in increasing
    order and then 0, so the nonzero classes are a prefix, and members[j][c]
    is the bucket of point j at classes[c] (empty if it has none).
    """
    buckets = E.neighbor_buckets
    classes = tuple(sorted(set().union(*buckets), key=lambda t: (t == 0, t)))
    return classes, tuple(tuple([b.get(t, ()) for t in classes]) for b in buckets)


def _class_sums(members_j, sources) -> list[int]:
    """Per class c, the sum of sources[c][i] over the members i of class c.

    Classes past the last source are skipped.  This is the one primitive of
    the packed sweeps.  Each source entry is a row of counts packed into a
    Python int with fixed-width byte lanes, so one big-int addition adds a
    whole row.  Lanes never carry into each other because every caller sizes
    them for the largest sum they can hold.
    """
    return [sum(map(src.__getitem__, mem)) for src, mem in zip(sources, members_j)]


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


def _pack(values, width: int) -> int:
    """One int holding values as width-byte lanes, the first value lowest."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def _lanes(value: int, lanes: int, width: int) -> list[int]:
    """The lanes of a packed int, lowest first."""
    raw = value.to_bytes(lanes * width, "little")
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def step_profile_counts(E: PointSet, k: int) -> dict:
    """Map from step profiles (t_1, .., t_k) to X_k, their walks with distinct consecutive points.

    The steps range over the nonzero distances of E, and over 0 where some
    point has another point at squared distance 0 (a null segment).  Only
    profiles with a nonzero count appear; k >= 1.  See _profile_sweep.
    """
    return _profile_sweep(E, k, stays=False)


def walk_profile_counts(E: PointSet, k: int) -> dict:
    """Map from step profiles (t_1, .., t_k) to Y_k, their walks, which may stay put.

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
    """X_k, or with stays Y_k, as a map from profiles to nonzero counts; memoised.

    Packed distance-class sweep: per endpoint j, one int whose lanes count
    the walks ending at j, one lane per profile of the level so far, the
    first step least significant.  A step sums the endpoint rows by the
    distance class of (i, j) and concatenates the class sums, so the new
    lanes are the old profiles extended by each class.  Rows are built up to
    level k - 1 only, and level k is summed by degrees: distance is
    symmetric, so the walks of class c out of the rows add up to
    sum_i deg_c(i) row[i].  The level-1 rows, the class sums of rows of
    ones, are each point's class sizes, so they are packed from the degrees
    too.  A lane holds at most n^(k+1) walks; lanes are that wide, rounded
    up to whole bytes.  Refused, before the classes are laid out, when level
    k would hold more than PROFILE_GUARD lanes, n rows of it would take more
    than LANE_GUARD bytes, or the k steps more than SWEEP_GUARD.
    """
    n = len(E)
    # every distance of E is a step, 0 only where a walk stays or a null segment moves
    m = len(E.norm_pair_counts)
    if not (stays or E.norm_pair_counts[0] > n):
        m -= 1
    if _exceeds(m, k, PROFILE_GUARD):
        raise TooLargeError(f"{m}^{k} profiles exceed {PROFILE_GUARD} lanes")
    lanes = m**k
    width = _lane_width(n, k + 1, k, n * lanes)
    if n * lanes * width > LANE_GUARD:
        raise TooLargeError(f"{n} rows of {lanes} lanes of {width} bytes exceed {LANE_GUARD} bytes")
    classes, members = _distance_classes(E)
    if not stays:
        # the other points at distance 0; class 0 is last.  Tuples of lists: tuples
        # grown from generators raised the walks benchmark's peak RSS by 2-4%
        members = [(*mem[:-1], tuple([j for j in mem[-1] if j != i]))
                   for i, mem in enumerate(members)]
    steps = classes[:m]
    degrees = [[len(mem[c]) for mem in members] for c in range(m)]
    rows, row_bytes = [1] * n, width  # level 0
    if k > 1:  # level 1, each point's class sizes
        rows, row_bytes = [_pack(deg, width) for deg in zip(*degrees)], m * width
    for _ in range(k - 2):
        sources = [rows] * m
        rows = [_pack(_class_sums(members_j, sources), row_bytes) for members_j in members]
        row_bytes *= m
    total = sum(sum(map(mul, deg, rows)) << (8 * c * row_bytes) for c, deg in enumerate(degrees))
    # lane i is the profile whose steps are the base-m digits of i, lowest first
    counts = _lanes(total, lanes, width)
    return {prof[::-1]: count for prof, count in zip(product(steps, repeat=k), counts) if count}


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
    scale = [r * t % p for t in range(p)]
    scaled = [tuple(map(scale.__getitem__, row)) for row in D]
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


def _scaling(r: int, p: int):
    """The map from a profile tuple t to r t, the scale of join."""
    return lambda t: tuple([r * s % p for s in t])


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
    ys depends on xs only through its scaled profile, so a profile without
    a completion is searched once.  None when no xs has a completion.
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
        for y0, bucket in enumerate(buckets):
            # a y0 without a y1 is skipped before any call
            if t in bucket and (ys := _completion(buckets, D, into, prof, [y0])):
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
    return join(step_profile_counts(E, k), _scaled_walk_table(E, k), _scaling(r, E.prime.p))


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
    The first and last steps are summed by degrees instead, with deg_s(x)
    the number of points in row x of A_s (x itself in class 0).  From V = J
    row x' becomes sum_s deg_s(x') Deg_{rs}, Deg_t the packed vector of every
    point's deg_t, less Deg_0 or, for the graph, the row of ones; class 0
    maps to itself and holds x', so no lane goes negative.  Distance is
    symmetric, so the last step adds sum_s sum_y deg_{rs}(y) (sum_x deg_s(x)
    V[x])[y], less the stationary term summed the same way: sum_y deg_0(y)
    (sum V)[y], or sum V for the graph.  So k = 2 runs no four-stage step.
    An entry never exceeds n^(2k): it counts pairs of walks with at most k
    free steps each.  Lanes are that wide, rounded up to whole bytes, and
    _lane_width refuses k steps of m n^2 lanes, m classes, past SWEEP_GUARD.
    """
    n = len(E)
    p = E.prime.p
    m = len(E.norm_pair_counts)
    width = _lane_width(n, 2 * k, k, m * n * n)
    classes, members = _distance_classes(E)
    row_bytes = n * width
    slot = {t: c for c, t in enumerate(classes)}
    scaled = [slot.get(r * t % p) for t in classes]
    zero = [0] * n
    degrees = [[len(mem[c]) for mem in members] for c in range(m)]
    ones = _pack([1] * n, width)
    if k == 1:
        rows = [ones] * n
    else:
        packed = [_pack(deg, width) for deg in degrees]
        by_scale = [0 if c is None else packed[c] for c in scaled]
        stay = packed[-1] if distinct_first else ones  # class 0 is last
        rows = [sum(map(mul, deg, by_scale)) - stay for deg in zip(*degrees)]
    for _ in range(k - 2):
        cols = _transpose(b"".join(v.to_bytes(row_bytes, "little") for v in rows),
                          n, n, width)
        sources = [cols] * m
        sums = b"".join(
            s.to_bytes(row_bytes, "little")
            for members_j in members
            for s in _class_sums(members_j, sources)
        )
        flat = _transpose(sums, n, m * n, width)
        by_class = [flat[c * n : (c + 1) * n] for c in range(m)]
        sources = [zero if c is None else by_class[c] for c in scaled]
        stay = by_class[-1] if distinct_first else rows  # class 0 is last
        rows = [
            sum(_class_sums(members_j, sources)) - stay[xp]
            for xp, members_j in enumerate(members)
        ]
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


@dataclass(frozen=True)
class CycleCensus:
    """Per-profile counts of the closed 4-walks (a, b, c, e) of a point set.

    The profile of a walk is t = (D[a][b], D[b][c], D[c][e], D[e][a]).  A
    table maps the code ((t1 p + t2) p + t4) p + t3 of a profile to the
    number of its walks, and holds only nonzero counts.  The code joins the
    pair codes of the walk's two halves around the opposite corners a and c:
    the middle point b has the pair (t1, t2) and e has (t4, t3).  distances
    lists the squared distances of E, so every half is a pair of them.

    y counts every closed walk and x the walks with distinct consecutive
    points; each has a restriction to a = c (x13, y13), to b = e (x24, y24)
    and to both (xb, yb).  Every count C and the lemma 4.2 families need is
    a join of an x-side table against the r-scaled profile of a y-side one.
    """

    p: int
    distances: tuple
    x: dict
    y: dict
    x13: dict
    y13: dict
    x24: dict
    y24: dict
    xb: dict
    yb: dict

    def scaled(self, r: int):
        """The map from a profile code to the code of the r-scaled profile."""
        p = self.p
        pp = p * p
        pair = {s * p + t: r * s % p * p + r * t % p for s in self.distances for t in self.distances}

        def scale(code: int) -> int:
            hi, lo = divmod(code, pp)
            return pair[hi] * pp + pair[lo]

        return scale


def _add(table: dict, code: int, value: int) -> None:
    table[code] = table.get(code, 0) + value


@per_set
def cycle_census(E: PointSet) -> CycleCensus:
    """The closed 4-walk tables of E, independent of any ratio.  Memoised.

    Corner split: with H_ac(t1, t2) the number of points b having
    (D[a][b], D[c][b]) = (t1, t2), y(t) = sum over (a, c) of
    H_ac(t1, t2) H_ac(t4, t3).  x is the same sum over the histograms H'
    that leave out b = a and b = c.  The a = c terms are products of point
    degrees: with deg_s(a) the number of points at squared distance s from
    a (a itself at s = 0), y13(s, s, u, u) = sum_a deg_s(a) deg_u(a), and
    y24(s, u, u, s), which counts the walks (a, b, c, b), has the same
    value.  yb(s, s, s, s) = sum_a deg_s(a) counts the walks (a, b, a, b).
    The x-side tables use the degrees that leave a out.  As x13 and y13 are
    the a = c terms of x and y, the histograms are built for a != c only.

    Each term is summed once per symmetry class: a pair a < c stands for
    (c, a) too, whose term is the same count at the profile (t2, t1, t4, t3);
    and of the two products H(t1, t2) H(t4, t3) and H(t4, t3) H(t1, t2) only
    one is formed, the other being the same count at (t4, t3, t2, t1), the
    walk read backwards.  The images are added at the end.  Cost
    O(n^2 h^2) for h histogram keys, with h <= min(n, p^2).  Refused when
    min(n, m)^4, a bound on the profiles of a table for m distances in E,
    exceeds CENSUS_GUARD.
    """
    p = E.prime.p
    pp = p * p
    n = len(E)
    # a profile has four of the m distances of E, and a walk has one profile
    m = len(E.norm_pair_counts)
    if min(n, m) ** 4 > CENSUS_GUARD:
        raise TooLargeError(
            f"a cycle census of {n} points with {m} distances may hold "
            f"{min(n, m)}^4 profiles, over {CENSUS_GUARD}"
        )
    D = E.dist_table
    distances = tuple(E.norm_pair_counts)
    tables = {name: {} for name in ("x", "y", "x13", "y13", "x24", "y24", "xb", "yb")}
    for bucket in E.neighbor_buckets:
        deg = {s: len(js) for s, js in bucket.items()}
        deg_x = {**deg, 0: deg[0] - 1}          # the point itself
        for side, degrees in (("y", deg), ("x", deg_x)):
            t13, t24, tb = tables[side + "13"], tables[side + "24"], tables[side + "b"]
            items = [(s, c) for s, c in degrees.items() if c]
            for s, ds in items:
                _add(tb, (s * p + s) * (pp + 1), ds)
                for u, du in items:
                    _add(t13, (s * p + s) * pp + u * p + u, ds * du)
                    _add(t24, (s * p + u) * (pp + 1), ds * du)
    high = [[t * p for t in row] for row in D]
    swap = {s * p + t: t * p + s for s in distances for t in distances}
    for side in ("y", "x"):
        half: dict[int, int] = {}
        get = half.get
        for a in range(n):
            for c in range(a + 1, n):
                hist = Counter(map(add, high[a], D[c]))
                if side == "x":
                    s = D[a][c]
                    hist[s] -= 1        # b = a
                    hist[s * p] -= 1    # b = c
                items = [(k, v) for k, v in hist.items() if v]
                for i, (k1, v1) in enumerate(items):
                    base = k1 * pp
                    for k2, v2 in items[i:]:
                        code = base + k2
                        half[code] = get(code, 0) + v1 * v2
        full = tables[side]
        for code, v in half.items():
            k1, k2 = divmod(code, pp)
            for u, w in {(k1, k2), (k2, k1)}:
                _add(full, u * pp + w, v)
                _add(full, swap[u] * pp + swap[w], v)
        for code, v in tables[side + "13"].items():
            _add(full, code, v)
    return CycleCensus(p=p, distances=distances, **tables)


def join(first: dict, second: dict, scale) -> int:
    """J(F, G): the sum over profiles t of F(t) G(r t), scale mapping t to r t."""
    return sum(map(mul, first.values(), map(second.get, map(scale, first), repeat(0))))


def _mu_identity_scaled_cycle_pairs(E: PointSet, r: int) -> int:
    census = cycle_census(E)
    return join(census.x, census.y, census.scaled(r))


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
    p = E.prime.p
    counts = E.norm_pair_counts
    value = join({t: c for t, c in counts.items() if t != 0}, counts, lambda t: ratio.r * t % p)
    return _report(E, "V", value, method=METHOD_NU_IDENTITY, r=ratio.r)


def displacement_histogram(E: PointSet, ratio: Ratio, theta: "OrthMatrix") -> dict[Point, int]:
    """For each z, the number of pairs (u, v) of E with u - sqrt(r)*theta*v = z.

    Built a coordinate at a time, like PointSet.dist_table.  Coordinate i of
    the images w = sqrt(r) theta v is the column sum over j of
    (sqrt(r) theta_ij mod p) v_j, reduced mod p.  Over the n^2 ordered pairs,
    v outer and u inner, the displacement column is then u_i - w_i with the
    u column tiled and the w column repeated, reduced by one lookup in
    range(p): a negative index reads p + u_i - w_i.  The histogram counts
    the rows of the d columns.
    """
    if not ratio.is_square or ratio.sqrt_r is None:
        raise NotASquareRatioError(f"ratio {ratio.r} is not a nonzero square")
    p = E.prime.p
    n = len(E)
    cols = tuple(zip(*E.points))
    residue = tuple(range(p)).__getitem__
    s = ratio.sqrt_r
    columns = []
    for row, col in zip(theta.entries, cols):
        w = repeat(0, n)
        for t, c in zip(row, cols):
            w = map(add, w, map((s * t % p).__mul__, c))
        repeated = chain.from_iterable(map(repeat, map(p.__rmod__, w), repeat(n)))
        columns.append(map(residue, map(sub, col * n, repeated)))
    return Counter(zip(*columns))


def displacement_count(E: PointSet, ratio: Ratio, theta: "OrthMatrix", z: Point) -> int:
    """The number of pairs (u, v) of E with u - sqrt(r)*theta*v = z."""
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


def walk_pair_reports(E: PointSet, ratio: Ratio, k: int,
                      checks=(METHOD_BRUTE, METHOD_NU_IDENTITY)) -> list[CountReport]:
    """walk_dp, cross-checked by each method of checks whose guard admits it."""
    return _cross_checked(E, lambda m: [count_scaled_walk_pairs(E, ratio, k, m)],
                          METHOD_WALK_DP, checks, ("S_k", ratio.r, k))


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
