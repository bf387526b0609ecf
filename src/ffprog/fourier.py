"""Characters of F_p, the discrete Fourier transform, and character sums.

The additive characters are psi_t(x) = exp(2*pi*i*t*x/p).  Every transform
is one numpy FFT of length p (pocketfft, which handles prime lengths through
Bluestein's algorithm), so a full spectrum costs O(p log p).  The tests
compare each one against direct O(p^2) summation.  Fourier coefficients use
the normalized average:

    fhat(t) = (1/p) * sum_x f(x) * conj(psi_t(x))

so that f(x) = sum_t fhat(t) * psi_t(x) and Parseval reads
E|f|^2 = sum_t |fhat(t)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CharTooSmall, DegreeTooSmall, EmptyVariety
from .field import PrimeField, value_table
from .setfun import GridFunction


@dataclass
class Spectrum:
    """Fourier coefficients of a grid function; coeffs[t] pairs with psi_t."""

    field: PrimeField
    coeffs: np.ndarray


def dft(f: GridFunction) -> Spectrum:
    """fhat(t) for every t; norm="forward" puts the 1/p on this side."""
    coeffs = np.fft.fft(f.values, norm="forward")
    return Spectrum(field=f.field, coeffs=coeffs)


def inverse_dft(spec: Spectrum) -> np.ndarray:
    """Reconstruct the p function values: the unscaled sum_t fhat(t) psi_t(x)."""
    return np.fft.ifft(spec.coeffs, norm="forward")


def weil_ratio(poly, field: PrimeField) -> float:
    """Largest nontrivial character-sum average, normalized by deg * p^(-1/2).

    Returns max over t != 0 of |E_y psi_t(P(y))| divided by the classical
    bound deg(P) * p^(-1/2).  A ratio <= 1 witnesses the bound for this
    polynomial and prime.  Requires 1 <= deg(P) < p.
    """
    d = poly.degree
    if d == float("-inf") or d < 1:
        raise DegreeTooSmall("weil_ratio needs a nonconstant polynomial")
    if field.p <= d:
        raise CharTooSmall(f"weil_ratio needs p > deg = {d}, got {field.p}")
    p = field.p
    hist = np.bincount(value_table(poly, field), minlength=p).astype(np.float64)
    # |sum_v hist[v] psi_t(v)| is the modulus of fft(hist)[t] (hist is real)
    best = np.abs(np.fft.fft(hist)[1:]).max() / p
    return best / (d / np.sqrt(p))


def char_sums_over_fibers(fibers) -> np.ndarray:
    """E_{y in V} psi_t(Q(y)) for every t, from the fiber histogram.

    Entry t is (1/|V|) * sum_a c[a] * psi_t(a); entry 0 is set to 1 exactly.
    """
    if fibers.v_size == 0:
        raise EmptyVariety("fiber distribution has no points")
    out = np.fft.ifft(fibers.c.astype(np.float64), norm="forward") / fibers.v_size
    out[0] = 1.0
    return out


def lambda_prime_spectral(f2: GridFunction, fibers) -> float:
    """Spectral form of the variety-averaged pair correlation.

    Computes sum_t |fhat2(t)|^2 * E_{y in V} psi_t(Q(y)) and returns the
    real part; for real inputs the imaginary part is ~1e-16 and must agree
    with the direct fiber-histogram computation to high accuracy.
    """
    if f2.field.p != fibers.field.p:
        raise ValueError("function and fibers live on different fields")
    spec = dft(f2)
    cs = char_sums_over_fibers(fibers)
    total = np.dot(np.abs(spec.coeffs) ** 2, cs)
    return float(total.real)
