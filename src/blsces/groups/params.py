"""Curve parameters and prime-field helpers.

Two curve profiles ship with the library:

* ``BN254``: the production pairing curve y^2 = x^3 + 3 over a 254-bit
  prime, cofactor 1, embedding degree 12.
* ``TOY``: the same equation over p = 11.  It exists so that residuosity
  and hash-to-curve logic can be checked against exhaustive tables; it
  has no pairing and must never be used outside tests and test tooling.

Both primes are ≡ 3 (mod 4), so square roots come from the (p+1)/4
exponent shortcut.  The canonical root is the even one, which makes
point compression deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from blsces.errors import ValidationError

# Base field characteristic and subgroup order of the BN254 pairing group.
P = 0x30644E72E131A029B85045B68181585D97816A916871CA8D3C208C16D87CFD47
R = 0x30644E72E131A029B85045B68181585D2833E84879B9709143E1F593F0000001
CURVE_B = 3
EMBEDDING_DEGREE = 12

# BN parameter u: p and r are the standard degree-4 polynomials in u.
BN_U = 4965661367192848881

G1_GENERATOR = (1, 2)
# G2 generator on the sextic twist, coordinates in Fp2 as (c0, c1) with
# value c0 + c1*i.
G2_GENERATOR = (
    (
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    (
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)

FIELD_BYTES = 32


def legendre(a: int, p: int) -> int:
    """Euler's criterion: 1 for nonzero residues, -1 for non-residues, 0 for 0."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of ``a`` mod ``p``, or None for non-residues.

    Requires p ≡ 3 (mod 4).  The canonical root is the one with its least
    significant bit clear; sqrt_mod(0) = 0.  One modular exponentiation:
    a^((p+1)/4) squares back to a exactly when a is a residue.
    """
    a %= p
    y = pow(a, (p + 1) // 4, p)
    if y * y % p != a:
        return None
    return p - y if y & 1 else y


def _is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin with fixed small bases plus pseudo-random ones."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Deterministic-enough witnesses: small primes then values derived
    # from n itself, keeping validation reproducible.
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    seed = n
    while len(bases) < rounds:
        seed = (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        bases.append(2 + seed % (n - 3))
    for a in bases[:rounds]:
        x = pow(a, d, n)
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
class CurveProfile:
    """Field-level view of a curve y^2 = x^3 + b used by hash-to-curve.

    ``x_bits`` is the number of leading digest bits interpreted as the
    candidate x-coordinate (the bit length of p); the remaining digest
    bits are spare, and the highest spare bit selects the root sign.
    """

    name: str
    p: int
    b: int

    @property
    def x_bits(self) -> int:
        return self.p.bit_length()

    def rhs(self, x: int) -> int:
        return (x * x % self.p * x + self.b) % self.p

    def signing_root(self, x: int) -> int | None:
        """Canonical root of rhs(x) when x is a usable candidate (in range
        with a nonzero QR rhs), else None."""
        if x >= self.p:
            return None
        rhs = self.rhs(x)
        if rhs == 0:
            return None
        return sqrt_mod(rhs, self.p)

    def is_signing_x(self, x: int) -> bool:
        return self.signing_root(x) is not None

    def sqrt(self, a: int) -> int | None:
        return sqrt_mod(a, self.p)


BN254 = CurveProfile(name="bn254", p=P, b=CURVE_B)
TOY = CurveProfile(name="toy11", p=11, b=3)

PROFILES = {BN254.name: BN254, TOY.name: TOY}


@dataclass(frozen=True)
class GroupParams:
    """Full pairing-group parameter set for the production curve."""

    p: int = P
    r: int = R
    b: int = CURVE_B
    g1: tuple[int, int] = G1_GENERATOR
    g2: tuple[tuple[int, int], tuple[int, int]] = field(default=G2_GENERATOR)
    embedding_degree: int = EMBEDDING_DEGREE

    def two_adicity(self) -> int:
        n, e = self.r - 1, 0
        while n % 2 == 0:
            n //= 2
            e += 1
        return e

    def validate(self) -> None:
        """Check the structural invariants; raises ValidationError on failure.

        Primality uses Miller-Rabin.  The cofactor-1 claim (the curve has
        exactly r points) is checked statistically elsewhere via r*P = O
        on hashed points; together with Hasse's bound that pins the group
        order to r exactly.
        """
        if not _is_probable_prime(self.p):
            raise ValidationError("base field characteristic is not prime")
        if not _is_probable_prime(self.r):
            raise ValidationError("group order is not prime")
        if self.two_adicity() < 28:
            raise ValidationError("r - 1 lacks the required power-of-two factor")
        x, y = self.g1
        if (y * y - (x * x * x + self.b)) % self.p != 0:
            raise ValidationError("g1 generator is off-curve")


GROUP_PARAMS = GroupParams()
