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


def pow_mod(xs: np.ndarray, k: int, p: int) -> np.ndarray:
    """xs**k mod p elementwise, by repeated squaring, for int64 residues xs;
    the result may be xs itself.

    Each step multiplies two residues below p < 2**31, so every int64
    product stays below p**2 < 2**62.
    """
    out = None
    while k:
        if k & 1:
            out = xs if out is None else out * xs % p
        k >>= 1
        if k:
            xs = xs * xs % p
    return np.ones_like(xs) if out is None else out


@functools.lru_cache(maxsize=4)
def value_table(poly, field: PrimeField) -> np.ndarray:
    """P(x) mod p for every residue x, as a read-only int64 array of length p.

    This is the workhorse behind counting and enumeration.  Horner's rule
    runs over the polynomial's nonzero ``terms``, from the top down, and
    steps from one exponent to the next by x^gap, which repeated squaring
    builds: a table costs O(terms * log deg * p) int64 work, so y^99999
    takes 17 squarings, not 99999 Horner steps.  Every product is of two
    residues below p < 2**31, and adding one residue to it keeps it below
    p**2 < 2**62, so int64 never overflows.  Raises BadCharacteristic if p
    divides a coefficient's denominator.  The last four tables are memoised
    on (poly, field): verify asks for P1's and P2's table in every check of
    every instance at one prime, and four tables of length p bound the
    memory the cache holds.
    """
    p = field.p
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    higher = poly.terms[-1][0] if poly.terms else 0
    for k, c in reversed(poly.terms):
        acc = (acc * pow_mod(xs, higher - k, p) + field.reduce_fraction(c)) % p
        higher = k
    acc = acc * pow_mod(xs, higher, p) % p
    acc.flags.writeable = False
    return acc
