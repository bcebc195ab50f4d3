"""Finitely supported twisted Fourier series over noncommutative tori.

An element is a map m -> c_m from the rank-d integer lattice to complex
coefficients, standing for the sum of ordered monomials c_m U^m with
U^m = U_1^{m_1} ... U_d^{m_d}, where the d unitary generators satisfy

    U_j U_k = exp(2 pi i Theta_jk) U_k U_j

for a real skew-symmetric d x d matrix Theta.  Rapid decay of the
coefficients is modelled by finite support, which is closed under all
the operations implemented here.

Product cocycle.  Reordering U^m U^n into an ordered monomial moves
every generator U_j of the right factor left past the generators U_k,
k > j, of the left factor.  One elementary pass uses
U_k U_j = exp(2 pi i Theta_kj) U_j U_k, so the total phase is

    exp(2 pi i sigma(m, n)),   sigma(m, n) = sum_{j > k} Theta_jk m_j n_k.

sigma is bilinear, hence a group 2-cocycle, which is what makes the
product associative.  The relation fixes only the commutator phases;
the ordered-monomial normalization above is the convention used
throughout this package.
"""

from __future__ import annotations

import cmath
import math
from types import MappingProxyType

import numpy as np

TWO_PI_I = 2j * math.pi

# Coefficients at or below this magnitude are dropped after arithmetic so
# supports stay finite under repeated multiplication.
PRUNE_TOL = 1e-15


class ContextError(ValueError):
    """Raised when elements over different Theta matrices are combined."""


def _phase(turns: float) -> complex:
    """exp(2 pi i turns), with turns reduced mod 1 first to limit cancellation."""
    return cmath.exp(TWO_PI_I * (turns % 1.0))


class ThetaMatrix:
    """Skew-symmetric phase matrix defining a noncommutative torus.

    The lattice rank d = 2 * n_half is required to be even so that the
    torus can carry complex structures.
    """

    __slots__ = ("entries", "n_half", "_lower")

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("theta must be a square matrix")
        d = arr.shape[0]
        if d % 2 != 0 or d == 0:
            raise ValueError(f"theta must have even positive size, got {d}")
        if not np.array_equal(arr, -arr.T):
            i, j = next(zip(*np.nonzero(arr + arr.T)))
            raise ValueError(
                f"theta is not skew-symmetric: entries ({i},{j}) and ({j},{i}) "
                f"do not cancel"
            )
        arr.setflags(write=False)
        self.entries = arr
        self.n_half = d // 2
        lower = np.tril(arr, -1).copy()
        lower.setflags(write=False)
        self._lower = lower

    @property
    def d(self) -> int:
        return 2 * self.n_half

    @classmethod
    def elliptic(cls, theta: float) -> "ThetaMatrix":
        """The 2x2 matrix [[0, theta], [-theta, 0]]."""
        return cls([[0.0, theta], [-theta, 0.0]])

    @classmethod
    def product(cls, thetas) -> "ThetaMatrix":
        """Block-diagonal Theta with 2x2 blocks [[0, t], [-t, 0]]."""
        n = len(thetas)
        arr = np.zeros((2 * n, 2 * n))
        for j, t in enumerate(thetas):
            arr[2 * j, 2 * j + 1] = t
            arr[2 * j + 1, 2 * j] = -t
        return cls(arr)

    def sigma(self, m, n) -> float:
        """Cocycle exponent sigma(m, n) = sum_{j>k} Theta_jk m_j n_k, in turns."""
        return float(np.dot(np.asarray(m, dtype=float), self._lower @ np.asarray(n, dtype=float)))

    def sigma_step_vector(self, s) -> np.ndarray:
        """Vector ls with sigma(s, m) = ls . m, for vectorized phase tables."""
        return np.asarray(s, dtype=float) @ self._lower

    def same_context(self, other: "ThetaMatrix") -> bool:
        return self is other or np.array_equal(self.entries, other.entries)


def _check_context(a: "FourierElement", b: "FourierElement") -> None:
    if not a.theta.same_context(b.theta):
        raise ContextError("elements live over different Theta matrices")


class FourierElement:
    """Finitely supported twisted Fourier series over one ThetaMatrix."""

    __slots__ = ("theta", "_coeffs")

    def __init__(self, theta: ThetaMatrix, coeffs=None) -> None:
        self.theta = theta
        d = theta.d
        data: dict[tuple[int, ...], complex] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for m, c in items:
                key = tuple(int(x) for x in m)
                if len(key) != d:
                    raise ValueError(f"exponent {key} has length {len(key)}, expected {d}")
                c = complex(c)
                if c != 0:
                    data[key] = data.get(key, 0.0) + c
            # exact cancellations drop out; a NaN stays, for its owner to refuse
            data = {m: c for m, c in data.items() if c != 0}
        self._coeffs = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, theta: ThetaMatrix) -> "FourierElement":
        return cls(theta)

    @classmethod
    def one(cls, theta: ThetaMatrix) -> "FourierElement":
        return cls(theta, {(0,) * theta.d: 1.0})

    @classmethod
    def monomial(cls, theta: ThetaMatrix, m, c=1.0) -> "FourierElement":
        return cls(theta, {tuple(int(x) for x in m): complex(c)})

    @classmethod
    def generator(cls, theta: ThetaMatrix, j: int) -> "FourierElement":
        """U_j for j in 1..d."""
        d = theta.d
        if not 1 <= j <= d:
            raise IndexError(f"generator index {j} out of range 1..{d}")
        m = [0] * d
        m[j - 1] = 1
        return cls.monomial(theta, m)

    # -- inspection ---------------------------------------------------

    @property
    def coeffs(self):
        return MappingProxyType(self._coeffs)

    def coefficient(self, m) -> complex:
        return self._coeffs.get(tuple(int(x) for x in m), 0.0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    # -- arithmetic ---------------------------------------------------

    def _pruned(self, data: dict) -> "FourierElement":
        out = FourierElement(self.theta)
        out._coeffs = {m: c for m, c in data.items() if abs(c) > PRUNE_TOL}
        return out

    def __add__(self, other: "FourierElement") -> "FourierElement":
        _check_context(self, other)
        data = dict(self._coeffs)
        for m, c in other._coeffs.items():
            data[m] = data.get(m, 0.0) + c
        return self._pruned(data)

    def __sub__(self, other: "FourierElement") -> "FourierElement":
        _check_context(self, other)
        data = dict(self._coeffs)
        for m, c in other._coeffs.items():
            data[m] = data.get(m, 0.0) - c
        return self._pruned(data)

    def scale(self, z) -> "FourierElement":
        z = complex(z)
        return self._pruned({m: z * c for m, c in self._coeffs.items()})

    # -- serialization (records {m, re, im}) ---------------------------

    def to_terms(self) -> list[dict]:
        return [
            {"m": list(m), "re": float(c.real), "im": float(c.imag)}
            for m, c in sorted(self._coeffs.items())
        ]

    @classmethod
    def from_terms(cls, theta: ThetaMatrix, records) -> "FourierElement":
        return cls(
            theta,
            [(rec["m"], complex(rec.get("re", 0.0), rec.get("im", 0.0))) for rec in records],
        )


# -- the five algebra operations --------------------------------------


def multiply(a: FourierElement, b: FourierElement) -> FourierElement:
    """Twisted convolution: coefficient of U^{m+n} picks up exp(2 pi i sigma(m, n))."""
    _check_context(a, b)
    theta = a.theta
    data: dict[tuple[int, ...], complex] = {}
    for m, cm in a._coeffs.items():
        mv = np.array(m, dtype=float)
        row = mv @ theta._lower  # sigma(m, n) = row . n
        for n, dn in b._coeffs.items():
            key = tuple(mi + ni for mi, ni in zip(m, n))
            turns = float(row @ np.array(n, dtype=float))
            data[key] = data.get(key, 0.0) + cm * dn * _phase(turns)
    return a._pruned(data)


def star(a: FourierElement) -> FourierElement:
    """Involution: (U^m)* = exp(2 pi i sigma(m, m)) U^{-m}, so star(U^m) U^m = 1."""
    theta = a.theta
    data: dict[tuple[int, ...], complex] = {}
    for m, c in a._coeffs.items():
        mm = theta.sigma(m, m)
        key = tuple(-x for x in m)
        data[key] = data.get(key, 0.0) + c.conjugate() * _phase(mm)
    return a._pruned(data)


def trace(a: FourierElement) -> complex:
    """The canonical tracial state: the coefficient of the identity monomial."""
    return complex(a._coeffs.get((0,) * a.theta.d, 0.0))


def derivation(j: int, a: FourierElement) -> FourierElement:
    """Infinitesimal gauge generator delta_j (j in 1..d): c_m -> 2 pi i m_j c_m."""
    d = a.theta.d
    if not 1 <= j <= d:
        raise IndexError(f"derivation index {j} out of range 1..{d}")
    data = {m: TWO_PI_I * m[j - 1] * c for m, c in a._coeffs.items() if m[j - 1] != 0}
    return a._pruned(data)


def gauge_act(t, a: FourierElement) -> FourierElement:
    """Torus gauge action: c_m -> (prod_j t_j^{m_j}) c_m for unimodular t."""
    tv = np.asarray(t, dtype=complex)
    if tv.shape != (a.theta.d,):
        raise ValueError(f"gauge parameter must have length {a.theta.d}")
    if np.max(np.abs(np.abs(tv) - 1.0)) > 1e-12:
        raise ValueError("gauge parameter entries must be unimodular")
    data = {}
    for m, c in a._coeffs.items():
        factor = complex(np.prod(tv ** np.array(m)))
        data[m] = factor * c
    return a._pruned(data)


def trace_inner(a: FourierElement, b: FourierElement) -> complex:
    """Hilbert inner product <a, b> = trace(star(b) a); monomials are orthonormal."""
    return trace(multiply(star(b), a))


# -- matrices of elements ----------------------------------------------


class MatrixElement:
    """Square matrix with FourierElement entries over one shared context."""

    __slots__ = ("theta", "r", "entries")

    def __init__(self, theta: ThetaMatrix, entries) -> None:
        r = len(entries)
        if any(len(row) != r for row in entries):
            raise ValueError("entries must form a square array")
        for row in entries:
            for e in row:
                if not theta.same_context(e.theta):
                    raise ContextError("matrix entries live over different Theta matrices")
        self.theta = theta
        self.r = r
        self.entries = [list(row) for row in entries]

    @classmethod
    def zeros(cls, theta: ThetaMatrix, r: int) -> "MatrixElement":
        return cls(theta, [[FourierElement.zero(theta) for _ in range(r)] for _ in range(r)])

    @classmethod
    def from_scalars(cls, theta: ThetaMatrix, arr) -> "MatrixElement":
        """Constant matrix: each entry is a scalar multiple of the identity."""
        arr = np.asarray(arr, dtype=complex)
        return cls(
            theta,
            [
                [FourierElement.monomial(theta, (0,) * theta.d, arr[i, j]) if arr[i, j] != 0
                 else FourierElement.zero(theta)
                 for j in range(arr.shape[1])]
                for i in range(arr.shape[0])
            ],
        )

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        return MatrixElement(
            self.theta,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        return MatrixElement(
            self.theta,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __matmul__(self, other: "MatrixElement") -> "MatrixElement":
        r = self.r
        out = []
        for i in range(r):
            row = []
            for j in range(r):
                acc = FourierElement.zero(self.theta)
                for k in range(r):
                    acc = acc + multiply(self.entries[i][k], other.entries[k][j])
                row.append(acc)
            out.append(row)
        return MatrixElement(self.theta, out)

    def scale(self, z) -> "MatrixElement":
        return MatrixElement(self.theta, [[e.scale(z) for e in row] for row in self.entries])

    def map_entries(self, fn) -> "MatrixElement":
        return MatrixElement(self.theta, [[fn(e) for e in row] for row in self.entries])

    def star_transpose(self) -> "MatrixElement":
        r = self.r
        return MatrixElement(
            self.theta, [[star(self.entries[j][i]) for j in range(r)] for i in range(r)]
        )

    def max_abs(self) -> float:
        return max((e.max_abs() for row in self.entries for e in row), default=0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol
