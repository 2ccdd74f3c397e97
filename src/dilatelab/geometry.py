"""Point sets in (Z/pZ)^d and their per_set memo, the norm, spheres, distance sets.

A point is a plain tuple of canonical coordinates.  The "norm" is the sum of
squared coordinates mod p; it is not a metric, but it is invariant under the
orthogonal matrices of :mod:`dilatelab.orthogonal` and is the distance notion
every counting routine in this package is built on.
"""

from __future__ import annotations

import inspect
import itertools
import random
import sys
from collections import Counter, defaultdict
from functools import cached_property, lru_cache, wraps
from operator import add

from .errors import (
    DimensionMismatchError,
    OddDimensionError,
    PointFileError,
    SizeExceedsSpaceError,
    TooLargeError,
)
from .field import Prime, inverse, legendre, make_prime

Point = tuple[int, ...]

# Exhaustive enumerations of (Z/pZ)^d are refused beyond this many points.
ENUM_GUARD = 10**7


def norm_of(x: Point, p: int) -> int:
    """Sum of squared coordinates mod p."""
    return sum(c * c for c in x) % p


def dist(x: Point, y: Point, p: int) -> int:
    """Norm of x - y; symmetric because (-1)^2 = 1."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"points of dimension {len(x)} and {len(y)}")
    return sum((a - b) * (a - b) for a, b in zip(x, y)) % p


@lru_cache(maxsize=None)
def _byte_squares(p: int) -> tuple[tuple[bytes, ...], bytes]:
    """The translation tables of the bytes dist_table rows, d(p - 1) <= 255.

    sqd[c] maps a coordinate x to (c - x)^2 mod p, and modp maps a byte s to
    s mod p.
    """
    sqd = tuple(bytes([(c - x) ** 2 % p for x in range(p)] + [0] * (256 - p)) for c in range(p))
    return sqd, bytes([s % p for s in range(256)])


@lru_cache(maxsize=None)
def _byte_affine(p: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """The translation tables of the bytes displacement columns, d(p - 1) <= 255.

    times[a] maps a coordinate c to a c mod p, and shift[w] maps c to
    (c - w) mod p.
    """
    pad = [0] * (256 - p)
    times = tuple(bytes([a * c % p for c in range(p)] + pad) for a in range(p))
    shift = tuple(bytes([(c - w) % p for c in range(p)] + pad) for w in range(p))
    return times, shift


def _first_fault(p: int, d: int, pts) -> None:
    """Raise for the first point of pts, in order, of the wrong dimension,
    with a non-canonical coordinate, or repeating an earlier one."""
    seen = set()
    for pt in pts:
        if len(pt) != d:
            raise DimensionMismatchError(f"point {pt} does not have dimension {d}")
        if not all(0 <= c < p for c in pt):
            raise PointFileError(f"point {pt} has non-canonical coordinates for p={p}")
        if pt in seen:
            raise PointFileError(f"duplicate point {pt}")
        seen.add(pt)


class BucketRows(dict):
    """The neighbour buckets of a distance table, keyed by point index, each
    row built on its first read and kept.

    Row i maps t -> the indices j with table[i][j] = t, in index order.  A
    row already built is read by the dict's own lookup.  A reader that needs
    every row takes rows(), in index order; iterating the map itself gives
    only the rows built so far.  Every row holds the int objects of one
    shared index list, not a copy per row.  The map holds the table, not
    its PointSet, so it makes no reference cycle.
    """

    __slots__ = ("_table", "_idx")

    def __init__(self, table):
        super().__init__()
        self._table = table
        self._idx = list(range(len(table)))

    def __missing__(self, i: int) -> dict[int, tuple[int, ...]]:
        bucket: dict[int, list[int]] = {}
        for j, t in zip(self._idx, self._table[i]):
            bucket.setdefault(t, []).append(j)
        row = self[i] = {t: tuple(js) for t, js in bucket.items()}
        return row

    def rows(self) -> list[dict[int, tuple[int, ...]]]:
        """Every row, in index order, built where not yet read."""
        return list(map(self.__getitem__, range(len(self._table))))


def _row_degrees(rows, n: int) -> defaultdict[int, list[int]]:
    """Per distance t, in order of first appearance in rows, each row's count of t.

    One Counter per row, each dropped once read into the table.
    """
    degrees = defaultdict(lambda: [0] * n)
    for i, count in enumerate(map(Counter, rows)):
        for t, v in count.items():
            degrees[t][i] = v
    return degrees


def _degree_table(degrees: dict[int, list[int]]) -> tuple[tuple[int, ...], tuple[list[int], ...]]:
    """PointSet.class_degrees from the per-distance columns of _row_degrees."""
    classes = tuple(sorted(degrees, key=lambda t: (t == 0, t)))
    return classes, tuple(map(degrees.__getitem__, classes))


class PointSet:
    """A duplicate-free collection of points of (Z/pZ)^d in a fixed order.

    The order is whatever the constructor received; it fixes iteration and
    serialization, so identical inputs give byte-identical outputs.  The
    distance classes every count rests on are laid out once, here, and cached
    lazily: dist_table; norm_pair_counts and class_degrees, the class sizes
    of the whole set and of each point that the packed sweeps and the cycle
    census read, counted off the rows together; and per point the
    neighbor_buckets that every bucket search and every class-sum step of a
    sweep reads, each row on its first read.
    """

    def __init__(self, prime: Prime, d: int, points):
        if d < 1:
            raise DimensionMismatchError("dimension must be at least 1")
        pts = tuple(map(tuple, points))
        if not pts:
            raise PointFileError("a point set must contain at least one point")
        # one pass each over the lengths, the coordinates and the index, then
        # the distinct coordinate values; only a failure walks the points in
        # order, to name the first offending one
        index = dict(zip(pts, range(len(pts))))
        values = set(itertools.chain.from_iterable(pts))
        if not (set(map(len, pts)) == {d} and len(index) == len(pts)
                and all(map(range(prime.p).__contains__, values))):
            _first_fault(prime.p, d, pts)
        self.prime = prime
        self.d = d
        self.points: tuple[Point, ...] = pts
        self._point_index = index
        self._cache: dict = {}  # the per_set memo of every other table and count

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt) -> bool:
        return tuple(pt) in self._point_index

    def __repr__(self) -> str:
        return f"PointSet(p={self.prime.p}, d={self.d}, n={len(self)})"

    @cached_property
    def dist_table(self) -> tuple[bytes | tuple[int, ...], ...]:
        """dist_table[i][j] is the norm of points[i] - points[j].

        A tuple of rows, each an int sequence: bytes when d(p - 1) <= 255,
        else a tuple.  Built a coordinate at a time.  A bytes row translates
        each coordinate column by the squares (c_i - c_j)^2 mod p, sums the d
        parts as one big int, in which no byte lane carries, and reduces the
        sum mod p by one more translation.  A tuple row adds the squares
        (c_i - c_j)^2 across each column, each computed, not looked up in a
        table of p entries, and is reduced mod p once, at the end.
        """
        p, n = self.prime.p, len(self)
        cols = tuple(zip(*self.points))
        if self.d * (p - 1) <= 255:
            sqd, modp = _byte_squares(p)
            cols = tuple(map(bytes, cols))
            rows = []
            for pt in self.points:
                total = 0
                for c, col in zip(pt, cols):
                    total += int.from_bytes(col.translate(sqd[c]), "little")
                rows.append(total.to_bytes(n, "little").translate(modp))
            return tuple(rows)
        rows = []
        for pt in self.points:
            acc = None
            for c, col in zip(pt, cols):
                part = [(e := c - x) * e for x in col]
                acc = part if acc is None else list(map(add, acc, part))
            rows.append(tuple([t % p for t in acc]))
        return tuple(rows)

    @cached_property
    def norm_pair_counts(self) -> dict[int, int]:
        """How many ordered pairs (x, y), including x = y, have each norm.

        Keys are in order of first appearance in the rows of dist_table.
        Where p <= n, E has at most n distances, so class_degrees is no larger
        than the rows; then both are read off one Counter per row, and each
        row is counted once.  Otherwise one Counter counts every entry, and
        class_degrees counts the rows again only if it is read.
        """
        if self.prime.p > len(self):
            return dict(Counter(itertools.chain.from_iterable(self.dist_table)))
        degrees = _row_degrees(self.dist_table, len(self))
        self.class_degrees = _degree_table(degrees)
        return {t: sum(column) for t, column in degrees.items()}

    @cached_property
    def class_degrees(self) -> tuple[tuple[int, ...], tuple[list[int], ...]]:
        """The distinct squared distances of E and, per class, every point's count in it.

        The one table of class sizes, so no bucket row is built for them.  It
        fixes the lane order of the packed sweeps: classes lists the nonzero
        distances in increasing order and then 0, so the nonzero classes are
        a prefix; degrees[c][i] counts the points at classes[c] from i, i
        itself in its class of 0.  Where p <= n, norm_pair_counts lays it out
        as it counts the rows; no Counter is kept.
        """
        if self.prime.p > len(self):
            return _degree_table(_row_degrees(self.dist_table, len(self)))
        self.norm_pair_counts  # counting the rows, it caches this table too
        return self.__dict__["class_degrees"]

    @cached_property
    def neighbor_buckets(self) -> BucketRows:
        """Per point i, a map t -> the indices j with dist(i, j) = t, in index order.

        i itself is in its class of 0.  Row i is built on its first read; see
        BucketRows.
        """
        return BucketRows(self.dist_table)

    @cached_property
    def pair_buckets(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Map t -> ordered pairs (i, j) of distinct indices with dist t."""
        buckets: dict[int, list[tuple[int, int]]] = {}
        n = len(self)
        for i in range(n):
            row = self.dist_table[i]
            for j in range(n):
                if j != i:
                    buckets.setdefault(row[j], []).append((i, j))
        return {t: tuple(ps) for t, ps in buckets.items()}


def per_set(func):
    """Memoise func(E, ...) on E, keyed by func and its arguments with defaults bound.

    The memo is freed with the set, and a call that raises, a guard's
    refusal above all, caches nothing.  The one reader of PointSet._cache.
    """
    params = list(inspect.signature(func).parameters.values())[1:]

    @wraps(func)
    def memo(E: PointSet, *args, **kwargs):
        key = (func, *args, *[kwargs.get(q.name, q.default) for q in params[len(args):]])
        if key not in E._cache:
            E._cache[key] = func(E, *args, **kwargs)
        return E._cache[key]

    return memo


def full_space(prime: Prime, d: int) -> PointSet:
    """All of (Z/pZ)^d in lexicographic order."""
    if prime.p**d > ENUM_GUARD:
        raise TooLargeError(f"p^d = {prime.p ** d} exceeds the enumeration guard")
    return PointSet(prime, d, itertools.product(range(prime.p), repeat=d))


def random_point_set(prime: Prime, d: int, size: int, seed) -> PointSet:
    """Seeded uniform sample of `size` distinct points of (Z/pZ)^d.

    Points are decoded from a sample of base-p codes and sorted, so the same
    (p, d, size, seed) always yields the same set, independent of platform.
    random.sample takes the len() of its range, which holds only up to
    sys.maxsize codes; past that, the codes are drawn one randrange at a
    time and a repeat is drawn again, which is how random.sample draws from
    a range much larger than the sample.
    """
    space = prime.p**d
    if size > space:
        raise SizeExceedsSpaceError(f"cannot pick {size} distinct points from {space}")
    if size < 1:
        raise SizeExceedsSpaceError("size must be at least 1")
    rng = random.Random(f"pointset:{prime.p}:{d}:{size}:{seed}")
    if space <= sys.maxsize:
        codes = sorted(rng.sample(range(space), size))
    else:
        drawn: set[int] = set()
        while len(drawn) < size:
            drawn.add(rng.randrange(space))
        codes = sorted(drawn)
    # decoded a coordinate column at a time, least significant digit first
    p = prime.p
    cols = []
    for _ in range(d):
        cols.append([code % p for code in codes])
        codes = [code // p for code in codes]
    return PointSet(prime, d, zip(*cols))


def sphere_points(t: int, d: int, prime: Prime) -> tuple[Point, ...]:
    """All points of (Z/pZ)^d with norm t, by exhaustive enumeration."""
    p = prime.p
    if p**d > ENUM_GUARD:
        raise TooLargeError(f"p^d = {p ** d} exceeds the enumeration guard")
    t %= p
    return tuple(x for x in itertools.product(range(p), repeat=d) if norm_of(x, p) == t)


def sphere_size_formula(t: int, d: int, prime: Prime) -> int:
    """Closed-form sphere size, available in even dimension only.

    |S_t| = p^(d-1) + lam(t) * p^((d-2)/2) * chi((-1)^(d/2)) with lam(0) = p-1
    and lam(t) = -1 otherwise, chi the quadratic character.
    """
    if d % 2 != 0:
        raise OddDimensionError("the closed form requires even dimension")
    p = prime.p
    lam = p - 1 if t % p == 0 else -1
    chi = legendre(pow(-1, d // 2, p), prime)
    return p ** (d - 1) + lam * p ** ((d - 2) // 2) * chi


def distance_set(E: PointSet) -> frozenset[int]:
    """All norms of differences of ordered pairs of E; always contains 0."""
    return frozenset(E.norm_pair_counts)


def quotient_set(E: PointSet) -> frozenset[int]:
    """All quotients a/b with a any distance of E and b a nonzero distance, if E has one."""
    deltas = distance_set(E)
    inverses = [inverse(b, E.prime) for b in deltas if b != 0]
    p = E.prime.p
    return frozenset(a * inv % p for a in deltas for inv in inverses)


def format_point_set(E: PointSet, comment: str | None = None) -> str:
    """The shared text format: an optional comment, a `p=.. d=..` header, one point per line."""
    lines = [f"# {comment}"] if comment else []
    lines.append(f"p={E.prime.p} d={E.d}")
    lines.extend(",".join(str(c) for c in pt) for pt in E.points)
    return "\n".join(lines) + "\n"


def save_point_set(E: PointSet, path, comment: str | None = None) -> None:
    """Write E to path in the shared text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_point_set(E, comment))


def load_point_set(path) -> PointSet:
    """Parse the shared text format; rejects duplicates and bad coordinates."""
    with open(path, encoding="utf-8") as fh:
        raw = [line.strip() for line in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise PointFileError("empty point-set file")
    header = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in header)
        p = int(fields["p"])
        d = int(fields["d"])
    except (ValueError, KeyError) as exc:
        raise PointFileError(f"bad header line {lines[0]!r}") from exc
    prime = make_prime(p)
    pts = []
    for ln in lines[1:]:
        try:
            pt = tuple(int(tok) for tok in ln.split(","))
        except ValueError as exc:
            raise PointFileError(f"bad point line {ln!r}") from exc
        pts.append(pt)
    return PointSet(prime, d, pts)
