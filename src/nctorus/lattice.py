"""Exact rational and integer-lattice linear algebra helpers.

Small, deterministic routines used by the Riemann-form machinery: exact
row reduction over the rationals, integer kernels via column Hermite
reduction, a textbook LLL reduction for integer-relation detection, and
exact positive-definiteness tests.  Everything here works on lists of
Fraction or Python int, so results carry no floating fuzz.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def fraction_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def fraction_rref(mat):
    """Reduced row echelon form over Q.  Returns (rref, pivot_columns)."""
    A = [row[:] for row in mat]
    if not A:
        return A, []
    rows, cols = len(A), len(A[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = Fraction(1, 1) / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def fraction_solve(A, B):
    """Solve A X = B exactly; A square nonsingular, B a matrix."""
    n = len(A)
    width = len(B[0])
    aug = [list(A[i]) + list(B[i]) for i in range(n)]
    R, pivots = fraction_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over Q")
    return [row[n:n + width] for row in R]


def fraction_nullspace(mat):
    """Basis of the rational kernel of mat (vectors as Fraction lists)."""
    if not mat:
        return []
    cols = len(mat[0])
    R, pivots = fraction_rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        basis.append(v)
    return basis


def fraction_det(mat) -> Fraction:
    """Determinant over Q by fraction Gaussian elimination."""
    A = [row[:] for row in mat]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if A[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            A[c], A[pivot] = A[pivot], A[c]
            det = -det
        det *= A[c][c]
        inv = Fraction(1) / A[c][c]
        for i in range(c + 1, n):
            if A[i][c] != 0:
                f = A[i][c] * inv
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return det


def is_positive_definite_exact(mat) -> bool:
    """Sylvester criterion with exact leading principal minors."""
    n = len(mat)
    for k in range(1, n + 1):
        minor = [row[:k] for row in mat[:k]]
        if fraction_det(minor) <= 0:
            return False
    return True


def primitive_vector(v):
    """Scale a rational vector to a primitive integer vector (first nonzero > 0)."""
    fracs = [Fraction(x) for x in v]
    from math import gcd, lcm

    denom = 1
    for f in fracs:
        denom = lcm(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return [0 for _ in ints]
    ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def integer_kernel(A) -> list[list[int]]:
    """Basis of {x in Z^D : A x = 0} for an integer matrix A.

    Column Hermite reduction with a tracked unimodular transform: zero
    columns of the reduced matrix correspond to kernel basis vectors,
    and the lattice they span is the full (saturated) integer kernel.
    """
    A = [[int(x) for x in row] for row in A]
    if not A:
        return []
    p, D = len(A), len(A[0])
    U = [[1 if i == j else 0 for j in range(D)] for i in range(D)]

    def addmul_col(j, k, q):
        # column j -= q * column k, on A and U together
        for i in range(p):
            A[i][j] -= q * A[i][k]
        for i in range(D):
            U[i][j] -= q * U[i][k]

    def swap_col(j, k):
        for i in range(p):
            A[i][j], A[i][k] = A[i][k], A[i][j]
        for i in range(D):
            U[i][j], U[i][k] = U[i][k], U[i][j]

    c = 0
    for r in range(p):
        if c >= D:
            break
        while True:
            live = [j for j in range(c, D) if A[r][j] != 0]
            if not live:
                break
            jmin = min(live, key=lambda j: (abs(A[r][j]), j))
            if jmin != c:
                swap_col(c, jmin)
            done = True
            for j in range(c + 1, D):
                if A[r][j] != 0:
                    q = A[r][j] // A[r][c]
                    addmul_col(j, c, q)
                    if A[r][j] != 0:
                        done = False
            if done:
                break
        if A[r][c] != 0:
            c += 1
    # the working matrix is A_orig @ U, so zero columns mark kernel vectors
    kernel = []
    for j in range(c, D):
        if all(A[i][j] == 0 for i in range(p)):
            kernel.append([U[i][j] for i in range(D)])
    return kernel


def lll_reduce(basis: np.ndarray, delta: float = 0.99) -> np.ndarray:
    """Textbook LLL on row vectors (float Gram-Schmidt).

    Size reductions and swaps act on the rows in the dtype they come in, so
    Python-int rows (an object array) stay exact and keep spanning their
    lattice; the Gram-Schmidt data that steer them are computed on a float
    copy.  Adequate for the small, well-scaled relation lattices used here.
    """
    B = np.array(basis)
    m = B.shape[0]

    def gso(B):
        B = B.astype(float)
        Bs = np.zeros_like(B)
        mu = np.zeros((m, m))
        for i in range(m):
            Bs[i] = B[i]
            for j in range(i):
                denom = Bs[j] @ Bs[j]
                mu[i, j] = (B[i] @ Bs[j]) / denom if denom > 0 else 0.0
                Bs[i] = Bs[i] - mu[i, j] * Bs[j]
        return Bs, mu

    Bs, mu = gso(B)
    k = 1
    guard = 0
    while k < m and guard < 10000:
        guard += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                B[k] = B[k] - q * B[j]
                Bs, mu = gso(B)
        lhs = Bs[k] @ Bs[k]
        rhs = (delta - mu[k, k - 1] ** 2) * (Bs[k - 1] @ Bs[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            B[[k - 1, k]] = B[[k, k - 1]]
            Bs, mu = gso(B)
            k = max(k - 1, 1)
    return B
