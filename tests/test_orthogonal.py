"""Orthogonal group enumeration, order formulas, and rotation recovery."""

import itertools

import pytest

from dilatelab.configcount import make_ratio
from dilatelab import orthogonal
from dilatelab.errors import (
    NormMismatchError,
    NotASquareRatioError,
    TooLargeError,
    WrongResidueClassError,
    ZeroVectorError,
)
from dilatelab.field import legendre, make_prime
from dilatelab.geometry import norm_of
from dilatelab.orthogonal import (
    determinant,
    enumerate_orthogonal,
    identity_matrix,
    make_orth,
    mat_mul,
    order_formula,
    rotation_from_pair,
    scaled_apply,
    so2_elements,
    transpose,
)


def brute_force_orthogonal(d, p):
    """All d x d orthogonal matrices by checking every matrix; the slow oracle."""
    found = []
    for flat in itertools.product(range(p), repeat=d * d):
        m = tuple(flat[i * d : (i + 1) * d] for i in range(d))
        if mat_mul(transpose(m), m, p) == identity_matrix(d):
            found.append(m)
    return found


@pytest.mark.parametrize("p,expected", [(3, 8), (7, 16), (11, 24)])
def test_o2_order_p_3_mod_4(p, expected):
    table = enumerate_orthogonal(2, make_prime(p))
    assert len(table) == expected == order_formula("even_minus", 1, make_prime(p))


@pytest.mark.parametrize("p,expected", [(5, 8), (13, 24)])
def test_o2_order_p_1_mod_4(p, expected):
    table = enumerate_orthogonal(2, make_prime(p))
    assert len(table) == expected == order_formula("even_plus", 1, make_prime(p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_o2_matches_brute_force(p):
    table = enumerate_orthogonal(2, make_prime(p))
    assert sorted(m.entries for m in table) == sorted(brute_force_orthogonal(2, p))


def test_o3_matches_brute_force():
    # all 3^9 matrices against the frames closed by their cofactor vectors
    table = enumerate_orthogonal(3, make_prime(3))
    expected = [(m, determinant(m, 3)) for m in brute_force_orthogonal(3, 3)]
    assert sorted((m.entries, m.det) for m in table) == sorted(expected)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_o3_order(p):
    prime = make_prime(p)
    table = enumerate_orthogonal(3, prime)
    assert len(table) == order_formula("odd", 1, prime) == 2 * p * (p * p - 1)


@pytest.mark.parametrize("d,p", [(2, 3), (2, 5), (2, 7), (3, 3)])
def test_group_axioms(d, p):
    assert enumerate_orthogonal(d, make_prime(p)).verify_group()


def _refuse_search(d, p):
    raise AssertionError(f"the frame search of O({d}, {p}) ran")


def test_group_guard_refuses_before_the_frame_search(monkeypatch):
    monkeypatch.setattr(orthogonal, "_enumerate_orthogonal_cached", _refuse_search)
    with pytest.raises(TooLargeError, match="frame search"):
        enumerate_orthogonal(3, make_prime(31))


def test_group_guard_bounds_the_frame_search(monkeypatch):
    # |O(d, p)| (p^(d-1) + p^floor((d-1)/2)) <= GROUP_GUARD admits
    monkeypatch.setattr(orthogonal, "_enumerate_orthogonal_cached", lambda d, p: (d, p))
    for p in (3, 5, 7, 11, 13):
        assert enumerate_orthogonal(3, make_prime(p)) == (3, p)
    monkeypatch.setattr(orthogonal, "_enumerate_orthogonal_cached", _refuse_search)
    for p in (17, 19):
        with pytest.raises(TooLargeError):
            enumerate_orthogonal(3, make_prime(p))
    # every p with p^4 <= 10^9, the bound on the whole matrix space it replaced
    monkeypatch.setattr(orthogonal, "_enumerate_orthogonal_cached", lambda d, p: (d, p))
    primes = [p for p in range(3, 178) if all(p % q for q in range(2, p))]
    assert all(enumerate_orthogonal(2, make_prime(p)) == (2, p) for p in primes)


def test_order_formula_examples():
    assert order_formula("odd", 1, make_prime(3)) == 48
    assert order_formula("even_minus", 1, make_prime(7)) == 16
    assert order_formula("even_plus", 1, make_prime(5)) == 8


@pytest.mark.parametrize("p", [3, 7, 11])
def test_so2_is_determinant_one_half(p):
    prime = make_prime(p)
    rotations = so2_elements(prime)
    assert len(rotations) == p - legendre(-1, prime)
    full = enumerate_orthogonal(2, prime)
    assert sorted(m.entries for m in rotations) == sorted(
        m.entries for m in full.determinant_one()
    )
    assert identity_matrix(2) in {m.entries for m in rotations}


def test_so2_p3_is_cyclic_of_order_4():
    rotations = so2_elements(make_prime(3))
    assert len(rotations) == 4
    r = ((0, 2), (1, 0))  # quarter turn; -1 = 2 mod 3
    powers = {identity_matrix(2)}
    cur = r
    for _ in range(3):
        powers.add(cur)
        cur = mat_mul(cur, r, 3)
    assert {m.entries for m in rotations} == powers


@pytest.mark.parametrize("p", [3, 7, 11])
def test_norm_invariance(p):
    import random

    prime = make_prime(p)
    rng = random.Random(p)
    samples = [(rng.randrange(p), rng.randrange(p)) for _ in range(100)]
    for theta in enumerate_orthogonal(2, prime):
        for x in samples:
            assert norm_of(theta.apply(x, p), p) == norm_of(x, p)


def test_rotation_from_pair_identity_and_quarter_turn():
    seven = make_prime(7)
    one = make_ratio(1, seven)
    theta = rotation_from_pair((2, 3), (2, 3), one, seven)
    assert theta.entries == identity_matrix(2)
    theta = rotation_from_pair((0, 1), (1, 0), one, seven)
    assert theta.entries == ((0, 6), (1, 0))


def test_rotation_from_pair_worked_instance():
    # norm(u) = 3, norm(v) = 5, ratio 2: 2 * 5 = 10 = 3 mod 7
    seven = make_prime(7)
    u, v = (3, 1), (1, 2)
    ratio = make_ratio(2, seven)
    theta = rotation_from_pair(u, v, ratio, seven)
    assert theta.det == 1
    assert scaled_apply(theta, ratio.sqrt_r, v, 7) == u
    matches = [
        m.entries
        for m in so2_elements(seven)
        if scaled_apply(m, ratio.sqrt_r, v, 7) == u
    ]
    assert matches == [theta.entries]


def test_rotation_from_pair_rejections():
    seven = make_prime(7)
    five = make_prime(5)
    one = make_ratio(1, seven)
    with pytest.raises(ZeroVectorError):
        rotation_from_pair((0, 0), (1, 0), one, seven)
    with pytest.raises(NormMismatchError):
        rotation_from_pair((1, 1), (1, 0), one, seven)
    with pytest.raises(NotASquareRatioError):
        rotation_from_pair((1, 1), (1, 0), make_ratio(3, seven), seven)
    with pytest.raises(WrongResidueClassError):
        rotation_from_pair((1, 0), (1, 0), make_ratio(1, five), five)


@pytest.mark.parametrize("p", [7, 11])
def test_rotation_from_pair_exhaustive_uniqueness(p):
    """Every valid (u, v, r) yields exactly one rotation, found by search too."""
    prime = make_prime(p)
    rotations = so2_elements(prime)
    vectors = [
        (a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)
    ]
    ratios = {r: make_ratio(r, prime) for r in range(1, p)}
    checked = 0
    for u in vectors:
        nu = norm_of(u, p)
        for v in vectors:
            nv = norm_of(v, p)
            r = nu * pow(nv, -1, p) % p
            ratio = ratios[r]
            if not ratio.is_square:
                continue
            theta = rotation_from_pair(u, v, ratio, prime)
            assert theta.det == 1
            matches = [
                m
                for m in rotations
                if scaled_apply(m, ratio.sqrt_r, v, p) == u
            ]
            assert len(matches) == 1 and matches[0].entries == theta.entries
            checked += 1
    assert checked > 0


def test_scaled_apply_examples():
    seven = make_prime(7)
    ident = make_orth(identity_matrix(2), seven)
    assert scaled_apply(ident, 1, (2, 5), 7) == (2, 5)
    assert scaled_apply(ident, 0, (2, 5), 7) == (0, 0)


def test_scaled_apply_norm_contract():
    import random

    eleven = make_prime(11)
    rng = random.Random(11)
    table = enumerate_orthogonal(2, eleven)
    for _ in range(500):
        theta = table.elements[rng.randrange(len(table))]
        s = rng.randrange(11)
        v = (rng.randrange(11), rng.randrange(11))
        assert norm_of(scaled_apply(theta, s, v, 11), 11) == s * s * norm_of(v, 11) % 11
