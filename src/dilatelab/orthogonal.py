"""Orthogonal matrix groups over Z/pZ.

Provides exhaustive enumeration of the full orthogonal group in dimensions 2
and 3, the rotation subgroup of the plane, exact closed-form group orders,
and the construction that recovers the unique plane rotation carrying one
vector onto a scaled copy of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    DimensionMismatchError,
    NormMismatchError,
    NotASquareRatioError,
    TooLargeError,
    WrongResidueClassError,
    ZeroVectorError,
)
from .field import Prime, inverse, make_prime
from .geometry import Point, norm_of, sphere_points

if TYPE_CHECKING:  # pragma: no cover
    from .configcount import Ratio

Matrix = tuple[tuple[int, ...], ...]

# Orthonormal-frame searches that could take more steps than this are refused.
GROUP_GUARD = 10**6


def identity_matrix(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) % p for j in range(d))
        for i in range(d)
    )


def mat_vec(a: Matrix, v: Point, p: int) -> Point:
    d = len(a)
    if len(v) != d:
        raise DimensionMismatchError(f"{d}x{d} matrix applied to dimension {len(v)}")
    return tuple(sum(a[i][k] * v[k] for k in range(d)) % p for i in range(d))


def transpose(a: Matrix) -> Matrix:
    d = len(a)
    return tuple(tuple(a[j][i] for j in range(d)) for i in range(d))


def determinant(a: Matrix, p: int) -> int:
    d = len(a)
    if d == 1:
        return a[0][0] % p
    if d == 2:
        return (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p
    # Laplace expansion; dimensions stay tiny here.
    total = 0
    for j in range(d):
        minor = tuple(row[:j] + row[j + 1 :] for row in a[1:])
        total += (-1) ** j * a[0][j] * determinant(minor, p)
    return total % p


@dataclass(frozen=True)
class OrthMatrix:
    """A matrix theta with theta^T theta = I; carries its determinant."""

    entries: Matrix
    det: int

    @property
    def d(self) -> int:
        return len(self.entries)

    def apply(self, v: Point, p: int) -> Point:
        return mat_vec(self.entries, v, p)


def make_orth(entries, prime: Prime) -> OrthMatrix:
    """Validate theta^T theta = I and package the matrix with its determinant."""
    p = prime.p
    m: Matrix = tuple(tuple(c % p for c in row) for row in entries)
    d = len(m)
    if any(len(row) != d for row in m):
        raise DimensionMismatchError("orthogonal matrices must be square")
    if mat_mul(transpose(m), m, p) != identity_matrix(d):
        raise NormMismatchError("matrix is not orthogonal")
    det = determinant(m, p)
    if det not in (1, p - 1):
        raise NormMismatchError(f"orthogonal matrix with impossible determinant {det}")
    return OrthMatrix(entries=m, det=det)


@dataclass(frozen=True)
class GroupTable:
    """An immutable table of orthogonal matrices, safe to share across workers."""

    elements: tuple[OrthMatrix, ...]
    d: int
    prime: Prime

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def determinant_one(self) -> tuple[OrthMatrix, ...]:
        return tuple(m for m in self.elements if m.det == 1)

    def verify_group(self) -> bool:
        """Closure under product and inverse, and presence of the identity."""
        p = self.prime.p
        entry_set = {m.entries for m in self.elements}
        if identity_matrix(self.d) not in entry_set:
            return False
        for a in self.elements:
            if transpose(a.entries) not in entry_set:  # inverse of orthogonal
                return False
            for b in self.elements:
                if mat_mul(a.entries, b.entries, p) not in entry_set:
                    return False
        return True


@lru_cache(maxsize=None)
def _enumerate_orthogonal_cached(d: int, p: int) -> GroupTable:
    prime = make_prime(p)
    unit = sphere_points(1, d, prime)

    frames: list[tuple[Point, ...]] = [()]
    for _ in range(d - 1):
        extended = []
        for frame in frames:
            for cand in unit:
                if all(
                    sum(u * v for u, v in zip(cand, col)) % p == 0 for col in frame
                ):
                    extended.append(frame + (cand,))
        frames = extended

    elements = []
    for frame in frames:
        # the signed (d-1)-minors c are orthogonal to the frame and, by Cauchy-Binet,
        # of norm 1; +-c, in lexicographic order as in unit, close it with det +-1
        rows = tuple(zip(*frame))
        c = tuple((-1) ** (i + d - 1) * determinant(rows[:i] + rows[i + 1 :], p) % p
                  for i in range(d))
        for last, det in sorted(((c, 1), (tuple(-x % p for x in c), p - 1))):
            elements.append(OrthMatrix(entries=tuple(zip(*frame, last)), det=det))
    return GroupTable(elements=tuple(elements), d=d, prime=prime)


def enumerate_orthogonal(d: int, prime: Prime) -> GroupTable:
    """All d x d orthogonal matrices over Z/pZ, by orthonormal-column search.

    Supported for d in {2, 3}; results are cached per (d, p).  The search
    extends the first d - 1 columns by every unit vector and closes each frame
    with +- its cofactor vector, so every element is orthogonal by
    construction.  It takes at most |O(d, p)| |S_1| steps, |S_1| <=
    p^(d-1) + p^floor((d-1)/2).  Refused, before any sphere is enumerated,
    when that bound exceeds GROUP_GUARD.
    """
    if d not in (2, 3):
        raise DimensionMismatchError("orthogonal enumeration is implemented for d in {2, 3}")
    p = prime.p
    # x_1^2 + x_2^2 is hyperbolic exactly when -1 is a square
    kind = "odd" if d == 3 else "even_plus" if prime.p_mod_4 == 1 else "even_minus"
    steps = order_formula(kind, 1, prime) * (p ** (d - 1) + p ** ((d - 1) // 2))
    if steps > GROUP_GUARD:
        raise TooLargeError(
            f"the O({d}, {p}) frame search may take {steps} steps, over {GROUP_GUARD}"
        )
    return _enumerate_orthogonal_cached(d, p)


@lru_cache(maxsize=None)
def _so2_cached(p: int) -> GroupTable:
    full = _enumerate_orthogonal_cached(2, p)
    return GroupTable(elements=full.determinant_one(), d=2, prime=full.prime)


def so2_elements(prime: Prime) -> GroupTable:
    """The plane rotations: matrices ((a, -b), (b, a)) with a^2 + b^2 = 1.

    The determinant-1 half of the O(2, p) table, refused only where its unit
    circle is (sphere_points).  It has p - chi(-1) elements, i.e. p+1 when
    p = 3 (mod 4) and p-1 when p = 1 (mod 4).
    """
    return _so2_cached(prime.p)


def order_formula(kind: str, n: int, prime: Prime) -> int:
    """Exact order of an orthogonal group from the closed form.

    kind "odd" gives the group on 2n+1 coordinates; "even_plus" and
    "even_minus" give the two types on 2n coordinates (the type of the
    sum-of-squares form depends on whether -1 is a square).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    p = prime.p
    if kind == "odd":
        result = 2 * p ** (n * n)
        for i in range(1, n + 1):
            result *= p ** (2 * i) - 1
        return result
    if kind == "even_plus":
        result = 2 * p ** (n * (n - 1)) * (p**n - 1)
    elif kind == "even_minus":
        result = 2 * p ** (n * (n - 1)) * (p**n + 1)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    for i in range(1, n):
        result *= p ** (2 * i) - 1
    return result


def rotation_from_pair(u: Point, v: Point, ratio: "Ratio", prime: Prime) -> OrthMatrix:
    """The unique plane rotation theta with u = sqrt(r) * theta * v.

    Requires p = 3 (mod 4) (so nonzero vectors have nonzero norm and the
    rotation is unique), nonzero u and v, a nonzero square ratio r, and
    norm(u) = r * norm(v).  Built as (1/sqrt(r)) * U * V^-1 from the circulant
    matrices U = ((u1, -u2), (u2, u1)) and V likewise.
    """
    p = prime.p
    if len(u) != 2 or len(v) != 2:
        raise DimensionMismatchError("rotation_from_pair works in dimension 2 only")
    if prime.p_mod_4 != 3:
        raise WrongResidueClassError("rotation_from_pair requires p = 3 (mod 4)")
    if all(c % p == 0 for c in u) or all(c % p == 0 for c in v):
        raise ZeroVectorError("u and v must be nonzero")
    if not ratio.is_square or ratio.sqrt_r is None:
        raise NotASquareRatioError(f"ratio {ratio.r} is not a nonzero square mod {p}")
    if norm_of(u, p) != ratio.r * norm_of(v, p) % p:
        raise NormMismatchError("norm(u) != r * norm(v)")
    u1, u2 = u[0] % p, u[1] % p
    v1, v2 = v[0] % p, v[1] % p
    # V^-1 = (1/norm(v)) * ((v1, v2), (-v2, v1)); norm(v) != 0 since p = 3 (mod 4)
    nv_inv = inverse(norm_of(v, p), prime)
    s_inv = inverse(ratio.sqrt_r, prime)
    c = s_inv * nv_inv % p
    big_u = ((u1, -u2 % p), (u2, u1))
    v_inv = ((v1, v2), (-v2 % p, v1))
    raw = mat_mul(big_u, v_inv, p)
    theta = make_orth(tuple(tuple(c * e % p for e in row) for row in raw), prime)
    if theta.det != 1 or scaled_apply(theta, ratio.sqrt_r, v, p) != tuple(c % p for c in u):
        raise NormMismatchError("internal error: constructed matrix is not the rotation")
    return theta


def scaled_apply(theta: OrthMatrix, s: int, v: Point, p: int) -> Point:
    """s * theta * v; the result has norm s^2 * norm(v)."""
    return tuple(s * c % p for c in theta.apply(v, p))
