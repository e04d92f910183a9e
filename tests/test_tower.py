"""The straight-line Fp12 kernels against the independent oracle.

``naive_pairing._mul`` multiplies in Fp[w]/(w^12 - 18 w^6 + 82), a basis
the tower shares nothing with; ``tower_to_poly`` maps a tower element
into it via v = w^2 and i = w^6 - 9.  Coefficients of 0, 1 and P - 1
drive the kernels' unreduced intermediates to their largest and most
negative values.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from naive_pairing import _mul, tower_to_poly
from blsces.groups.params import P
from blsces.groups.tower import fp12_mul, fp12_mul_monic_line, fp12_sqr

EDGES = (0, 1, P - 1)

rng = random.Random(1212)


def _fp12(coeffs):
    c = iter(coeffs)
    return tuple(tuple((next(c), next(c)) for _ in range(3)) for _ in range(2))


def _canonical(x):
    return all(0 <= c < P for fp6 in x for fp2 in fp6 for c in fp2)


def _check_kernels(a, b, y, mu, x, nu):
    pa = tower_to_poly(a)
    prod = fp12_mul(a, b)
    assert _canonical(prod)
    assert tower_to_poly(prod) == _mul(pa, tower_to_poly(b))
    sq = fp12_sqr(a)
    assert _canonical(sq)
    assert tower_to_poly(sq) == _mul(pa, pa)
    # the dense monic line A + B*w + v*w; the kernel forms A = mu*y and
    # B = nu*x itself
    big_a = (mu[0] * y % P, mu[1] * y % P)
    big_b = (nu[0] * x % P, nu[1] * x % P)
    line = ((big_a, (0, 0), (0, 0)), (big_b, (1, 0), (0, 0)))
    ml = fp12_mul_monic_line(a, y, mu, x, nu)
    assert _canonical(ml)
    assert tower_to_poly(ml) == _mul(pa, tower_to_poly(line))


def test_kernels_match_oracle_on_random_elements():
    for _ in range(20):
        a = _fp12([rng.randrange(P) for _ in range(12)])
        b = _fp12([rng.randrange(P) for _ in range(12)])
        mu = (rng.randrange(P), rng.randrange(P))
        nu = (rng.randrange(P), rng.randrange(P))
        _check_kernels(a, b, rng.randrange(P), mu, rng.randrange(P), nu)


def test_kernels_match_oracle_at_edge_coefficients():
    # every coefficient of both operands at the same edge value
    for x, y in itertools.product(EDGES, repeat=2):
        _check_kernels(_fp12([x] * 12), _fp12([y] * 12), x, (y, y), y, (x, y))
    # and mixed at random among the edge values
    for _ in range(30):
        a, b = (_fp12([rng.choice(EDGES) for _ in range(12)]) for _ in range(2))
        y, m0, m1, x, n0, n1 = (rng.choice(EDGES) for _ in range(6))
        _check_kernels(a, b, y, (m0, m1), x, (n0, n1))


_coeff = st.one_of(st.sampled_from(EDGES), st.integers(0, P - 1))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_coeff, min_size=12, max_size=12),
    st.lists(_coeff, min_size=12, max_size=12),
    st.lists(_coeff, min_size=6, max_size=6),
)
def test_kernels_match_oracle_property(a, b, line):
    y, m0, m1, x, n0, n1 = line
    _check_kernels(_fp12(a), _fp12(b), y, (m0, m1), x, (n0, n1))
