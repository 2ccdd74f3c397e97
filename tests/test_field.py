"""Prime-field arithmetic: residue classes, Legendre symbol, square roots."""

import pytest
from hypothesis import given, strategies as st

from dilatelab.errors import EvenPrimeError, NotASquareError, NotPrimeError
from dilatelab.field import (
    PRIME_BOUND,
    _is_prime,
    _tonelli_shanks,
    inverse,
    legendre,
    make_prime,
    sqrt_mod,
    squares_set,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def brute_squares(p):
    return {a * a % p for a in range(p)}


def test_make_prime_residue_facts():
    seven = make_prime(7)
    assert seven.p_mod_4 == 3 and legendre(-1, seven) == -1
    five = make_prime(5)
    # 2^2 = 4 = -1 mod 5, so -1 is a square
    assert five.p_mod_4 == 1 and legendre(-1, five) == 1


def test_make_prime_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        make_prime(9)
    with pytest.raises(EvenPrimeError):
        make_prime(2)
    with pytest.raises(NotPrimeError):
        make_prime(1)


def test_miller_rabin_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(-3, 20000))
    # each the least strong pseudoprime to the first 1, 2, ... prime bases, so
    # each takes one more base to refuse; the last is PRIME_BOUND itself
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    assert [n for n in (2**31 - 1, 2**61 - 1, 2**61 + 1, 2**64 - 59, 2**67 - 1, 10**24 + 7)
            if _is_prime(n)] == [2**31 - 1, 2**61 - 1, 2**64 - 59, 10**24 + 7]
    with pytest.raises(NotPrimeError, match="too large"):
        make_prime(PRIME_BOUND)
    assert make_prime(10**24 + 7).p_mod_4 == 3


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_legendre_matches_enumeration(p):
    prime = make_prime(p)
    sq = brute_squares(p)
    for a in range(p):
        expected = 0 if a == 0 else (1 if a in sq else -1)
        assert legendre(a, prime) == expected


def test_legendre_known_values():
    seven = make_prime(7)
    assert legendre(7 - 1, seven) == -1  # -1 is a nonresidue when p = 3 (mod 4)
    assert legendre(0, seven) == 0
    assert legendre(2, seven) == 1  # squares mod 7 are {1, 2, 4}


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_legendre_multiplicative(p):
    prime = make_prime(p)
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(a * b % p, prime) == legendre(a, prime) * legendre(b, prime)


def test_sqrt_known_values():
    seven = make_prime(7)
    assert sqrt_mod(4, seven) == 2
    assert sqrt_mod(0, seven) == 0
    assert sqrt_mod(2, seven) == 3  # 3^2 = 2 and min(3, 4) = 3
    with pytest.raises(NotASquareError):
        sqrt_mod(3, seven)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_sqrt_roundtrip_and_canonical(p):
    prime = make_prime(p)
    for a in squares_set(prime):
        s = sqrt_mod(a, prime)
        assert s * s % p == a
        assert s <= (p - 1) // 2 or a == 0


@pytest.mark.parametrize("p", [p for p in range(3, 200, 4) if all(p % f for f in range(3, p, 2))])
def test_fast_path_agrees_with_tonelli(p):
    # at p = 3 (mod 4) Tonelli-Shanks returns the direct root a^((p+1)/4) itself
    prime = make_prime(p)
    for a in squares_set(prime):
        if a == 0:
            continue
        fast = pow(a, (p + 1) // 4, p)
        assert fast * fast % p == a
        assert _tonelli_shanks(a, p) == fast
        assert min(fast, p - fast) == sqrt_mod(a, prime)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_squares_set_size(p):
    prime = make_prime(p)
    s = squares_set(prime)
    assert s == frozenset(brute_squares(p))
    assert len(s) == (p + 1) // 2


def test_squares_set_examples():
    assert squares_set(make_prime(3)) == {0, 1}
    assert squares_set(make_prime(7)) == {0, 1, 2, 4}


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=1000))
def test_inverse_property(p, a):
    prime = make_prime(p)
    if a % p == 0:
        with pytest.raises(ZeroDivisionError):
            inverse(a, prime)
    else:
        assert a * inverse(a, prime) % p == 1
