"""Prime field arithmetic.

The whole package works over F_p for a prime 3 <= p < 2**31.  Residues are
plain integers in [0, p), held in numpy int64 arrays by the numeric kernels;
PrimeField only validates the modulus and reduces rational coefficients.
All products fit comfortably in 64-bit intermediates because p < 2**31.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadCharacteristic, NotPrime, OutOfRange

MIN_P = 3
MAX_P = 2**31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
class PrimeField:
    """The field F_p.  Construction validates primality and range."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < MIN_P or self.p >= MAX_P:
            raise OutOfRange(f"modulus must lie in [{MIN_P}, 2**31): got {self.p}")
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    def reduce_fraction(self, c: Fraction) -> int:
        """Reduce an exact rational mod p; the denominator must be a unit."""
        den = c.denominator
        if den % self.p == 0:
            raise BadCharacteristic(
                f"denominator {den} vanishes mod {self.p}"
            )
        return c.numerator * pow(den, -1, self.p) % self.p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def field_new(p: int) -> PrimeField:
    """Build F_p, rejecting composite or out-of-range moduli."""
    return PrimeField(p)


def reduce_coeffs(poly, field: PrimeField) -> list[int]:
    """Reduce every coefficient of a rational polynomial mod p.

    ``poly`` is anything with a ``coeffs`` tuple of Fractions (index =
    degree).  Raises BadCharacteristic if p divides any denominator, even
    one in a coefficient that would not matter for a particular evaluation.
    """
    return [field.reduce_fraction(Fraction(c)) for c in poly.coeffs]


@functools.lru_cache(maxsize=4)
def value_table(poly, field: PrimeField) -> np.ndarray:
    """P(x) mod p for every residue x, as a read-only int64 array of length p.

    This is the workhorse behind counting and enumeration; intermediates
    stay below 2**62 because p < 2**31.  The last four tables are memoised
    on (poly, field): verify asks for P1's and P2's table in every check of
    every instance at one prime, and four tables of length p bound the
    memory the cache holds.
    """
    coeffs = reduce_coeffs(poly, field)
    xs = np.arange(field.p, dtype=np.int64)
    acc = np.zeros(field.p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % field.p
    acc.flags.writeable = False
    return acc
