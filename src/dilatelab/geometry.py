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
from collections import Counter
from functools import cached_property, wraps
from operator import add

from .errors import (
    DimensionMismatchError,
    NoNonzeroDistanceError,
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


class PointSet:
    """A duplicate-free collection of points of (Z/pZ)^d in a fixed order.

    The order is whatever the constructor received; it fixes iteration and
    serialization, so identical inputs give byte-identical outputs.  The
    distance classes every count rests on are laid out once, here, and cached
    lazily: dist_table, and per point the neighbor_buckets that every bucket
    search and packed sweep reads.
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
    def dist_table(self) -> tuple[tuple[int, ...], ...]:
        """dist_table[i][j] is the norm of points[i] - points[j].

        Built a coordinate at a time: row i adds sq[c_i - c_j] across the
        column of each coordinate.  A negative index reads sq[p + c_i - c_j],
        the same square mod p, so the row is reduced mod p once, at the end.
        """
        p = self.prime.p
        sq = [c * c for c in range(p)]
        cols = tuple(zip(*self.points))
        rows = []
        for pt in self.points:
            acc = None
            for c, col in zip(pt, cols):
                part = [sq[c - x] for x in col]
                acc = part if acc is None else list(map(add, acc, part))
            rows.append(tuple([t % p for t in acc]))
        return tuple(rows)

    @cached_property
    def norm_pair_counts(self) -> dict[int, int]:
        """How many ordered pairs (x, y), including x = y, have each norm.

        Keys are in order of first appearance in the rows of dist_table.
        """
        return dict(Counter(itertools.chain.from_iterable(self.dist_table)))

    @cached_property
    def neighbor_buckets(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """Per point i, a map t -> the indices j with dist(i, j) = t, in index order.

        i itself is in its class of 0.  Every bucket holds the int objects of
        one shared index list, not a copy per row.
        """
        idx = list(range(len(self)))
        out = []
        for row in self.dist_table:
            bucket: dict[int, list[int]] = {}
            for j, t in zip(idx, row):
                bucket.setdefault(t, []).append(j)
            out.append({t: tuple(js) for t, js in bucket.items()})
        return tuple(out)

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
    """
    space = prime.p**d
    if size > space:
        raise SizeExceedsSpaceError(f"cannot pick {size} distinct points from {space}")
    if size < 1:
        raise SizeExceedsSpaceError("size must be at least 1")
    rng = random.Random(f"pointset:{prime.p}:{d}:{size}:{seed}")
    codes = sorted(rng.sample(range(space), size))
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
    """All quotients a/b with a any distance of E and b a nonzero distance."""
    deltas = distance_set(E)
    nonzero = [b for b in deltas if b != 0]
    if not nonzero:
        raise NoNonzeroDistanceError("the distance set is {0}")
    p = E.prime.p
    return frozenset(a * inverse(b, E.prime) % p for a in deltas for b in nonzero)


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
