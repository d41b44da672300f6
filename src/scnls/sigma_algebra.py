"""Exact algebra of the nonlinear symmetrization for pressure exponent sigma.

For an integer sigma >= 1 and nonnegative arguments (r1, r2) define

    P(r1, r2) = sum_{l=0}^{sigma-1} r1^(sigma-1-l) * r2^l
    Q(r1, r2) = 2*sigma * int_0^1 (1-s) * (r2 + s*(r1-r2))^(sigma-1) ds
    B(r1, r2) = (r1 - r2) * sqrt(Q)
    G(r1, r2) = P / sqrt(Q)

so that (r1 - r2) * P = r1^sigma - r2^sigma and G * B = r1^sigma - r2^sigma.
Q is evaluated through its expanded closed form (the integral is polynomial
for integer sigma); direct quadrature is kept as a test oracle only.

Key identities relied on elsewhere:

    Q(r, r)  = sigma * r^(sigma-1)
    B^2      = 2/(sigma+1) * (r1^(sigma+1) - r2^(sigma+1)) - 2*r2^sigma*(r1-r2)
    Q        >= C_sigma * (r1^(sigma-1) + r2^(sigma-1))  with  C_sigma > 0

All functions broadcast over numpy arrays and preserve the input dtype
(float64 or longdouble).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


def _validate_sigma(sigma: int) -> int:
    if not isinstance(sigma, (int, np.integer)) or sigma < 1:
        raise ValueError(f"sigma must be an integer >= 1, got {sigma!r}")
    return int(sigma)


def _validate_nonneg(r1, r2):
    r1 = np.asarray(r1)
    r2 = np.asarray(r2)
    if np.any(r1 < 0) or np.any(r2 < 0):
        raise ValueError("arguments must be nonnegative")
    return r1, r2


@lru_cache(maxsize=None)
def _q_coeffs(sigma: int) -> tuple[float, ...]:
    # Q = 2*sigma * sum_j binom(sigma-1, j) / ((j+1)(j+2)) * d^j * r2^(sigma-1-j)
    return tuple(
        2.0 * sigma * comb(sigma - 1, j) / ((j + 1) * (j + 2))
        for j in range(sigma)
    )


def q_sigma(r1, r2, sigma: int):
    """Closed-form Q(r1, r2); a polynomial, symmetric-degree sigma-1."""
    sigma = _validate_sigma(sigma)
    r1, r2 = _validate_nonneg(r1, r2)
    d = r1 - r2
    coeffs = _q_coeffs(sigma)
    out = np.zeros(np.broadcast(r1, r2).shape, dtype=np.result_type(r1, r2, float))
    for j in range(sigma - 1, -1, -1):
        out = out * d + coeffs[j] * r2 ** (sigma - 1 - j)
    return out if out.ndim else out[()]


def p_sigma(r1, r2, sigma: int):
    """Power-difference quotient: (r1-r2)*P = r1^sigma - r2^sigma exactly."""
    sigma = _validate_sigma(sigma)
    r1 = np.asarray(r1)
    r2 = np.asarray(r2)
    out = np.zeros(np.broadcast(r1, r2).shape, dtype=np.result_type(r1, r2, float))
    for l in range(sigma):
        out = out + r1 ** (sigma - 1 - l) * r2**l
    return out if out.ndim else out[()]


def b_sigma(r1, r2, sigma: int):
    """Signed symmetrized difference B = (r1-r2)*sqrt(Q); sign(B) = sign(r1-r2)."""
    sigma = _validate_sigma(sigma)
    r1, r2 = _validate_nonneg(r1, r2)
    out = (r1 - r2) * np.sqrt(q_sigma(r1, r2, sigma))
    return out if np.ndim(out) else np.asarray(out)[()]


def g_sigma(r1, r2, sigma: int):
    """Ratio G = P/sqrt(Q), extended by continuity to 0 at the double origin.

    For sigma = 1 this is identically 1.  For sigma >= 2 both P and sqrt(Q)
    vanish only at (0, 0), where the homogeneity of P/sqrt(Q) (positive
    degree (sigma-1)/2) forces the limit 0.
    """
    sigma = _validate_sigma(sigma)
    r1, r2 = _validate_nonneg(r1, r2)
    if sigma == 1:
        shape = np.broadcast(r1, r2).shape
        one = np.ones(shape, dtype=np.result_type(r1, r2, float))
        return one if one.ndim else one[()]
    q = np.asarray(q_sigma(r1, r2, sigma))
    p = np.asarray(p_sigma(r1, r2, sigma))
    out = np.divide(p, np.sqrt(q), out=np.zeros_like(p), where=q > 0)
    return out if out.ndim else out[()]


def c_sigma_bound(sigma: int) -> float:
    """Largest C with Q >= C*(r1^(sigma-1) + r2^(sigma-1)) for r1, r2 >= 0.

    Both sides are homogeneous of degree sigma-1, so it suffices to minimize
    the ratio on the segment r1 + r2 = 1.  Grid minimization at spacing
    1e-5 with one local refinement pass.
    """
    sigma = _validate_sigma(sigma)
    if sigma == 1:
        return 0.5  # Q == 1, denominator == 2

    def ratio(t: np.ndarray) -> np.ndarray:
        r1, r2 = 1.0 - t, t
        return q_sigma(r1, r2, sigma) / (r1 ** (sigma - 1) + r2 ** (sigma - 1))

    t = np.linspace(0.0, 1.0, 100001)
    vals = ratio(t)
    i = int(np.argmin(vals))
    lo = t[max(i - 1, 0)]
    hi = t[min(i + 1, t.size - 1)]
    t_fine = np.linspace(lo, hi, 20001)
    return float(min(vals[i], np.min(ratio(t_fine))))


def f_sigma(z, z2, sigma: int):
    """Complex composite z * G(|z|^2, |z2|^2); homogeneous of degree sigma
    under nonnegative real scaling of (z, z2)."""
    sigma = _validate_sigma(sigma)
    z = np.asarray(z, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    out = z * g_sigma(np.abs(z) ** 2, np.abs(z2) ** 2, sigma)
    return out if out.ndim else out[()]
