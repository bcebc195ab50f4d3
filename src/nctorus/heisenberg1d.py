"""Standard holomorphic modules over noncommutative elliptic curves.

A degree-q module (q nonzero) is realized spectrally as |q| copies of
the Schwartz line, with the antiholomorphic operator per copy taken as

    D = tau * d/dx + 2 pi i q x.

Derivation of the convention: the two constant-curvature covariant
derivatives act as d/dx and multiplication by 2 pi i q x (their
commutator is the constant 2 pi i q, proportional to the degree), and
for modulus tau the antiholomorphic direction is the combination
tau * (first) + (second), with the sign of the second generator chosen
so that the Schwartz kernel of D is nonempty exactly when q > 0.  With
that orientation the kernel per copy is the Gaussian
exp(-pi i q x^2 / tau), so dim ker D = q for q > 0, dim ker D* = |q|
for q < 0, and the index equals the degree for every modulus.

Everything is expressed in the oscillator (Hermite) eigenbasis after
rescaling x so the two ladder coefficients have equal magnitude; kernel
vectors are Gaussians times polynomials and converge spectrally fast in
this basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dolbeault import SpectralReport, _Collector, _feed


@dataclass(frozen=True)
class StandardModule1D:
    """Degree, rank, modulus, and Hermite truncation size."""

    q: int
    p: int = 1
    tau: complex = 1j
    M: int = 200

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("the degree q must be nonzero")
        if self.p < 1:
            raise ValueError("the rank p must be positive")
        if complex(self.tau).imag <= 0:
            raise ValueError("tau must lie in the upper half-plane")
        if self.M < 16:
            raise ValueError("Hermite truncation M must be at least 16")


def ladder_coefficients(sm: StandardModule1D) -> tuple[complex, complex]:
    """Coefficients (alpha, beta) with D = alpha A + beta A-dagger per copy.

    After x -> lam u with lam^2 = |tau| / (2 pi |q|) both coefficients
    have magnitude sqrt(2 pi |q| |tau|); their ratio controls how fast
    kernel vectors decay in the Hermite basis.
    """
    tau = complex(sm.tau)
    q = sm.q
    lam = math.sqrt(abs(tau) / (2.0 * math.pi * abs(q)))
    a_over = tau / lam          # coefficient of d/du
    x_coef = 2j * math.pi * q * lam
    alpha = (a_over + x_coef) / math.sqrt(2.0)
    beta = (x_coef - a_over) / math.sqrt(2.0)
    return alpha, beta


def _single_copy(alpha: complex, beta: complex, rows: int, cols: int) -> np.ndarray:
    """Matrix of alpha A + beta A-dagger on Hermite functions h_0..h_{cols-1}."""
    D = np.zeros((rows, cols), dtype=complex)
    for k in range(cols):
        if k >= 1 and k - 1 < rows:
            D[k - 1, k] += alpha * math.sqrt(k)
        if k + 1 < rows:
            D[k + 1, k] += beta * math.sqrt(k + 1)
    return D


def _copies(block: np.ndarray, copies: int) -> np.ndarray:
    out = np.zeros((block.shape[0] * copies, block.shape[1] * copies), dtype=complex)
    for c in range(copies):
        out[c * block.shape[0]:(c + 1) * block.shape[0],
            c * block.shape[1]:(c + 1) * block.shape[1]] = block
    return out


def hermite_dbar_matrix(sm: StandardModule1D) -> np.ndarray:
    """Square M|q| x M|q| matrix of the module operator in the Hermite basis."""
    alpha, beta = ladder_coefficients(sm)
    return _copies(_single_copy(alpha, beta, sm.M, sm.M), abs(sm.q))


def _kernel_count(alpha: complex, beta: complex, M: int, copies: int,
                  tol_rel: float) -> tuple[int, float, float, bool]:
    """Kernel size of the band-faithful rectangular compression.

    The operator maps span(h_0..h_{M-1}) into span(h_0..h_M); using the
    (M+1) x M rectangle loses nothing of the restriction, so small
    singular values certify honest kernel vectors instead of cut-edge
    artifacts.  Its normal matrix couples k only with k +- 2, so it splits
    exactly into tridiagonal matrices on the even and the odd indices,
    made real by a diagonal phase similarity; both go to LAPACK's sterf,
    the root-free QR a banded eigensolve would end in, and then to one
    singular-value collector that keeps every value.  The copies are
    identical and only multiply the counts.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    k = np.arange(M, dtype=float)
    diag = abs(alpha) ** 2 * k + abs(beta) ** 2 * (k + 1)
    off = np.abs(np.conj(alpha) * beta * np.sqrt((k[: M - 2] + 1.0) * (k[: M - 2] + 2.0)))
    col = _Collector(math.inf, singular=True)
    for p in (0, 1):
        _feed([(col, copies, False)], eigvalsh_tridiagonal(diag[p::2], off[p::2],
                                                           lapack_driver="sterf"))
    return col.finalize(tol_rel)


def standard_module_cohomology(sm: StandardModule1D,
                               tol_rel: float = 1e-8) -> SpectralReport:
    """(dim H0, dim H1) and the index, via singular-value thresholds.

    dim H0 counts the kernel of the operator, dim H1 the kernel of its
    adjoint (the conjugate ladder with alpha and beta swapped and
    conjugated).  Results are recomputed at 2M for the stability flag.
    """
    alpha, beta = ladder_coefficients(sm)
    copies = abs(sm.q)

    def at(M: int):
        h0, cut0, kept0, ok0 = _kernel_count(alpha, beta, M, copies, tol_rel)
        h1, cut1, kept1, ok1 = _kernel_count(
            np.conj(beta), np.conj(alpha), M, copies, tol_rel
        )
        return (h0, h1), max(cut0, cut1), min(kept0, kept1), ok0 and ok1

    dims, cut, kept, ok = at(sm.M)
    dims2, _, _, ok2 = at(2 * sm.M)
    stable = ok and ok2 and dims == dims2
    return SpectralReport(
        dims=dims,
        index=dims[0] - dims[1],
        sigma_kept=kept,
        sigma_cut=cut,
        stable=stable,
        conclusive=ok,
        N=sm.M,
        tol_rel=tol_rel,
    )
