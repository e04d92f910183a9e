"""Field helpers checked against exhaustive small-field tables."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from blsces.groups import G1_GEN
from blsces.groups.params import BN254, TOY, P, R, legendre, sqrt_mod

# Exhaustive square table mod 11: the ground truth for every toy assertion.
SQUARES_MOD_11 = {(y * y) % 11 for y in range(11)}
ROOTS_MOD_11 = {a: sorted(y for y in range(11) if (y * y) % 11 == a) for a in SQUARES_MOD_11}


def test_toy_square_table():
    assert SQUARES_MOD_11 == {0, 1, 3, 4, 5, 9}


def test_sqrt_toy_exhaustive():
    for a in range(11):
        root = sqrt_mod(a, 11)
        if a in SQUARES_MOD_11:
            assert root in ROOTS_MOD_11[a]
            assert root * root % 11 == a
            if a != 0:
                assert root % 2 == 0, "canonical root has its low bit clear"
        else:
            assert root is None


def test_sqrt_toy_examples():
    # 4^2 = 16 = 5 mod 11, so 5 has roots {4, 7}; the canonical one is 4
    assert sqrt_mod(5, 11) == 4
    assert sqrt_mod(0, 11) == 0


def test_legendre_matches_roots_exhaustively():
    for a in range(11):
        symbol = legendre(a, 11)
        if a == 0:
            assert symbol == 0
        elif a in SQUARES_MOD_11:
            assert symbol == 1
        else:
            assert symbol == -1


def test_sqrt_bn254_perfect_square():
    assert sqrt_mod(4, P) == 2


@given(st.integers(min_value=1, max_value=P - 1))
@settings(max_examples=50, deadline=None)
def test_sqrt_bn254_roundtrip(t):
    a = t * t % P
    root = sqrt_mod(a, P)
    assert root is not None
    assert root * root % P == a
    assert root % 2 == 0


@given(st.integers(min_value=1, max_value=P - 1))
@settings(max_examples=50, deadline=None)
def test_sqrt_agrees_with_euler(a):
    root = sqrt_mod(a, P)
    assert (root is not None) == (pow(a, (P - 1) // 2, P) == 1)


def _is_probable_prime(n, rounds=40):
    """Miller-Rabin with fixed-seed random bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    rng = random.Random(n)
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_bn254_parameters():
    assert _is_probable_prime(P) and _is_probable_prime(R)
    assert not _is_probable_prime(P * R) and not _is_probable_prime(561)  # 561 is a Carmichael number
    assert (R - 1) % (1 << 28) == 0
    assert BN254.b == 3
    assert (G1_GEN.y ** 2 - G1_GEN.x ** 3 - BN254.b) % P == 0
    assert P % 4 == 3 and 11 % 4 == 3  # the (p+1)/4 shortcut applies to both


def test_profiles():
    assert BN254.x_bits == 254
    assert TOY.x_bits == 4
    assert TOY.rhs(1) == 4 and TOY.is_signing_x(1)
    assert TOY.rhs(3) == 8 and not TOY.is_signing_x(3)
    assert TOY.rhs(2) == 0 and not TOY.is_signing_x(2)  # zero rhs is a miss
    assert not TOY.is_signing_x(12)  # beyond the field
    # signing set over the toy field, from the exhaustive table
    assert {x for x in range(16) if TOY.is_signing_x(x)} == {0, 1, 4, 7, 8}
