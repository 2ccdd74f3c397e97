"""Exact arithmetic in the prime field Z/pZ.

Field elements are plain Python integers kept in canonical form, i.e. in
[0, p-1]; a :class:`Prime` bundles the modulus with its cached residue-class
facts.  Everything here is referentially transparent, so the functions can be
called freely from concurrent workers.
"""

from dataclasses import dataclass

from .errors import EvenPrimeError, NotASquareError, NotPrimeError


# Miller-Rabin to the prime bases 2..41 decides primality for every n below
# this bound (Sorenson and Webster, 2015); make_prime refuses larger moduli.
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    q, s = n - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    for b in _BASES:
        x = pow(b, q, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """An odd prime and its residue mod 4; -1 is a square mod p exactly when
    p = 1 (mod 4)."""

    p: int
    p_mod_4: int

    def __int__(self) -> int:
        return self.p

    def __str__(self) -> str:
        return str(self.p)


def make_prime(n: int) -> Prime:
    """Validate that n is an odd prime below PRIME_BOUND and cache its residue facts."""
    if n == 2:
        raise EvenPrimeError("p = 2 is not supported; an odd prime is required")
    if n >= PRIME_BOUND:
        raise NotPrimeError(f"{n} is too large: primality is decided only below {PRIME_BOUND}")
    if not _is_prime(n):
        raise NotPrimeError(f"{n} is not prime")
    return Prime(p=n, p_mod_4=n % 4)


def legendre(a: int, prime: Prime) -> int:
    """Quadratic character of a mod p: 0 for 0, +1 for squares, -1 otherwise."""
    p = prime.p
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def inverse(a: int, prime: Prime) -> int:
    """Multiplicative inverse of a nonzero element."""
    a %= prime.p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, -1, prime.p)


def _tonelli_shanks(a: int, p: int) -> int:
    """A square root of a nonzero square a mod an odd prime p; for p = 3 (mod 4)
    that is a^((p+1)/4), as p - 1 = 2q with q odd and the loop never runs."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # find a nonresidue deterministically
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def sqrt_mod(a: int, prime: Prime) -> int:
    """Canonical square root of a mod p: the smaller of the two roots.

    By Tonelli-Shanks; raises NotASquareError for quadratic nonresidues.
    """
    p = prime.p
    a %= p
    if a == 0:
        return 0
    if legendre(a, prime) != 1:
        raise NotASquareError(f"{a} is not a square mod {p}")
    r = _tonelli_shanks(a, p)
    return min(r, p - r)


def squares_set(prime: Prime) -> frozenset[int]:
    """The set {a^2 : a in Z/pZ}; has (p+1)/2 elements including 0."""
    p = prime.p
    return frozenset(a * a % p for a in range(p // 2 + 1))
